"""Logarithmic coefficients gamma_n of the kappa = 2 whole-plane map.

Extracts gamma_n from log(f/z) sampled on a circle via FFT and compares
the empirical moments with the exact ones from the log-coefficient
recursion (E gamma_1 = -1/2, E |gamma_n|^2 = 1/(2 n^2) and
E gamma_n conj(gamma_{n+1}) = -1/(4 n (n+1)) at kappa = 2), plus the
expected Milin functionals sum_{k<=n} (n - k + 1)(k E|gamma_k|^2 - 1/k).
"""

import numpy as np

from slelab import (
    SimConfig,
    circle_points,
    extract_log_coeffs,
    log_coeff_moments,
    sample_ensemble,
)

N, r, M = 4000, 0.6, 16
cfg = SimConfig(kappa=2.0, horizon_T=6.0, dt=4e-3, seed=3)
sample = sample_ensemble(cfg, circle_points(r, M), N, workers=1)
stats = extract_log_coeffs(sample, n_max=4)
mean, second = log_coeff_moments(cfg.kappa, 4)
sq = np.diagonal(second)

print(f"kappa=2, N={N}, circle radius {r}, {M} angular points")
print()
print(" n   E gamma_n (MC)        exact    E|gamma_n|^2 (MC)  exact")
for n in range(1, 5):
    g = stats.mean_gamma[n - 1]
    print(f" {n}   {g.real:+.4f}{g.imag:+.4f}i     {mean[n - 1]:+.3f}"
          f"    {stats.mean_sq[n - 1]:.4f}             {sq[n - 1]:.4f}")

print()
print(" n   E gamma_n conj(gamma_n+1) (MC)   exact")
for n in range(1, 4):
    c = stats.cross[n - 1]
    print(f" {n}   {c.real:+.4f}{c.imag:+.4f}i              {second[n - 1, n]:+.4f}")

print()
milin = {n: sum((n - k + 1) * (k * sq[k - 1] - 1 / k) for k in range(1, n + 1)) for n in (1, 2, 3)}
print("expected Milin functionals:", ", ".join(f"n={n}: {v:.4f}" for n, v in milin.items()))
