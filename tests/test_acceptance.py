"""Acceptance gate: one test (and one printed verdict line) per criterion.

The Monte Carlo criteria share two moderately heavy ensembles (about ten
minutes total on one core); everything else is fast and deterministic.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from slelab import residuals as rs
from slelab import spectrum as sp
from slelab.flow import SimConfig, evolve, sample_driver, sample_ensemble
from slelab.moments import (
    circle_points,
    closed_moduli,
    estimate_moduli,
    estimate_one_point,
    extract_log_coeffs,
    integral_means_scan,
    log_coeff_moments,
    mfold_identity_check,
    parabola_point,
)

N_MC = 50_000


def _verdict(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {label}: {status}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def kappa2_ensemble():
    cfg = SimConfig(kappa=2.0, horizon_T=8.0, dt=1e-3, seed=0)
    pts = [0.5, 0.3, 0.3 + 0.3j]
    return sample_ensemble(cfg, pts, N_MC)


@pytest.fixture(scope="module")
def kappa6_ensemble():
    cfg = SimConfig(kappa=6.0, horizon_T=8.0, dt=1e-3, seed=0)
    return sample_ensemble(cfg, [0.5], N_MC)


@pytest.fixture(scope="module")
def circle_ensemble():
    cfg = SimConfig(kappa=2.0, horizon_T=8.0, dt=4e-3, seed=0)
    return sample_ensemble(cfg, circle_points(0.6, 8), N_MC)


@pytest.mark.slow
def test_criterion_1_closed_form_moduli(kappa2_ensemble, kappa6_ensemble):
    checks = []
    est = estimate_moduli(kappa2_ensemble, 2.0, 2.0, 0.5)
    err = abs(est.value.real - 1.0 / 3.0)
    checks.append(err <= max(3 * est.stderr, 0.01))
    detail = f"kappa=2 err={err:.2e}"

    p, q = parabola_point(6.0, 0.5)
    est6 = estimate_moduli(kappa6_ensemble, p, q, 0.5)
    target = closed_moduli(0.5, 6.0, 0.5)
    err6 = abs(est6.value.real - target)
    checks.append(err6 <= max(3 * est6.stderr, 0.01))
    detail += f", kappa=6 err={err6:.2e}"

    _verdict(1, "closed-form moduli moments at z=0.5", all(checks), detail)


@pytest.mark.slow
def test_criterion_2_complex_one_point(kappa2_ensemble):
    checks, worst = [], 0.0
    for z in (0.3, 0.5, 0.3 + 0.3j):
        est = estimate_one_point(kappa2_ensemble, 2.0, 2.0, z)
        tol = max(3 * est.stderr, 0.01)
        diff = est.value - (1.0 - z)
        checks.append(abs(diff.real) <= tol and abs(diff.imag) <= tol)
        worst = max(worst, abs(diff.real), abs(diff.imag))
    _verdict(2, "complex one-point moment equals 1-z", all(checks),
             f"worst componentwise err={worst:.2e}")


@pytest.mark.slow
def test_criterion_3_log_coefficients(circle_ensemble):
    stats = extract_log_coeffs(circle_ensemble, n_max=2)
    checks = []
    # the recursion's kappa = 2 values: E gamma_1 = -1/2, E|gamma_n|^2 =
    # 1/(2 n^2) and E gamma_n conj(gamma_{n+1}) = -1/(4 n (n+1)), -0.125 at n = 1
    mean, second = log_coeff_moments(2.0, 2)
    sq1, sq2 = second[0, 0], second[1, 1]
    checks.append(abs(stats.mean_sq[0] - sq1) <= 0.05 * sq1)
    checks.append(abs(stats.mean_sq[1] - sq2) <= 0.05 * sq2)
    checks.append(abs(stats.mean_gamma[0] - mean[0]) <= 3 * stats.stderr_gamma[0])
    cross_target = float(second[0, 1])
    checks.append(abs(stats.cross[0] - cross_target) <= 3 * stats.stderr_cross[0])
    _verdict(
        3, "log-coefficient moments at kappa=2", all(checks),
        f"E|g1|^2={stats.mean_sq[0]:.4f}, E|g2|^2={stats.mean_sq[1]:.4f}, "
        f"Eg1={stats.mean_gamma[0]:.4f}, Eg1*conj(g2)={stats.cross[0]:.4f} "
        f"vs {cross_target}",
    )


def test_criterion_4_integral_means_slopes():
    r_grid = 1.0 - np.geomspace(0.5, 1e-4, 50)
    checks, details = [], []
    for kappa, gamma, target in ((6.0, 0.5, 0.75), (2.0, 1.0, 1.0)):
        p, q = parabola_point(kappa, gamma)
        scan = integral_means_scan("closed", p, q, kappa, r_grid)
        checks.append(abs(scan.beta - target) <= 0.02 * target)
        details.append(f"kappa={kappa:g}: beta={scan.beta:.4f} vs {target}")
    _verdict(4, "closed-form integral-means slopes", all(checks), "; ".join(details))


def test_criterion_5_algebraic_identities():
    rng = np.random.default_rng(42)
    n = 10_000
    kap = rng.uniform(0.5, 10.0, n)
    pr, qr = rng.uniform(-5, 5, n), rng.uniform(-5, 5, n)
    al = rng.uniform(-2, 2, n)
    checks = []

    sums = np.array([rs.abc_check(k, p, q, a)["sum"]
                     for k, p, q, a in zip(kap, pr, qr, al)])
    checks.append(np.max(np.abs(sums)) < 1e-12)

    dual = np.array([rs.duality_check(k, p, a)["residual"]
                     for k, p, a in zip(kap, pr, al)])
    checks.append(np.max(np.abs(dual)) < 1e-12)

    x = rng.uniform(0.1, 4.0 + kap)
    y = rng.uniform(0.1, 3.0, n)
    worst_fact = worst_gap = worst_rt = 0.0
    for k, xx, yy in zip(kap, x, y):
        p, q = sp.xy_inverse(xx, yy, k)
        b1 = sp.beta_1(p, q, k)
        lhs = 4 * k * (b1 - sp.beta_0(p, k))
        rhs = (2 * yy + xx - k - 2) * (2 * yy - xx + 2)
        # relative to the factored value, which can reach O(10^3)
        worst_fact = max(worst_fact, abs(lhs - rhs) / max(1.0, abs(rhs)))
        gap = b1 - sp.beta_lin(p, k)
        worst_gap = max(worst_gap, abs(gap - (k / 4 - yy) ** 2 / k))
        assert gap >= -1e-12
        xb, yb = sp.xy_forward(p, q, k)
        worst_rt = max(worst_rt, abs(xb - xx), abs(yb - yy))
    checks.append(worst_fact < 1e-12)
    checks.append(worst_gap < 1e-12)
    checks.append(worst_rt < 1e-12)
    _verdict(5, "algebraic identity suite at 1e-12", all(checks),
             f"max residuals: sum={np.max(np.abs(sums)):.1e}, "
             f"duality={np.max(np.abs(dual)):.1e}, factor={worst_fact:.1e}, "
             f"gap={worst_gap:.1e}, roundtrip={worst_rt:.1e}")


def test_criterion_6_closed_form_residuals():
    checks = []
    grid = 0.45 * np.exp(1j * np.linspace(0.1, 2 * np.pi, 20, endpoint=False))
    for kappa, gamma in ((2.0, 1.0), (6.0, 0.5)):
        for z in grid:
            checks.append(rs.ode_residual(kappa, gamma, z)["residual"] < 1e-12)
            checks.append(rs.moduli_residual(kappa, gamma, z)["residual"] < 1e-12)
        for rep in (
            rs.ode_residual(kappa, gamma, 0.3 + 0.2j),
            rs.pde_residual(kappa, gamma, 0.3 + 0.2j, 0.25 - 0.15j),
            rs.moduli_residual(kappa, gamma, 0.3 + 0.2j),
        ):
            checks.append(rep["residual"] < 1e-12)

    # an exponent off by 1e-6 must be rejected
    bad = rs._operator_report("ode", {}, 6.0, 0.5, lambda w: (1 - w) ** (0.5 + 1e-6),
                              (0.3 + 0.2j,))
    checks.append(not bad["pass"])
    _verdict(6, "ODE/PDE residuals < 1e-12 from Cauchy-integral derivatives",
             all(checks), f"{len(checks)} subchecks")


def test_criterion_7_separatrix_continuity():
    checks, worst = [], 0.0
    for kappa in (2.0, 6.0, 50.0):
        p0, p0p = sp.p0_of(kappa), sp.p0prime_of(kappa)

        for g in np.linspace(1 + 2 / kappa, 1 + 2 / kappa + 3, 100):
            p, q = sp.curve_eval("blueQuartic", kappa, g)
            worst = max(worst, abs(sp.beta_tip(p, kappa) - sp.beta_1(p, q, kappa)))
        for g in np.linspace(0.25 + 1 / kappa, 1 + 2 / kappa, 100):
            p, q = sp.curve_eval("greenParabola", kappa, g)
            worst = max(worst, abs(sp.beta_0(p, kappa) - sp.beta_1(p, q, kappa)))
        off = sp.d1_offset(kappa)
        for p in np.linspace(p0, p0 + 5, 100):
            worst = max(worst, abs(sp.beta_lin(p, kappa) - sp.beta_1(p, p + off, kappa)))
        worst = max(worst, abs(sp.beta_0(p0, kappa) - sp.beta_lin(p0, kappa)))
        worst = max(worst, abs(sp.beta_tip(p0p, kappa) - sp.beta_0(p0p, kappa)))
        checks.append(worst < 1e-9)

        for rep in rs.seed_systems(kappa):
            checks.append(rep["residual"] < 1e-9)

        pts = sp.special_points(kappa)
        for curve, pt in (
            ("redParabola", pts.T0), ("redParabola", pts.T1), ("redParabola", pts.P1),
            ("greenParabola", pts.T2), ("greenParabola", pts.P0),
            ("greenParabola", pts.Q0), ("blueQuartic", pts.Q0),
            ("redParabola", pts.Q1),
        ):
            checks.append(abs(sp.cartesian_residual(curve, kappa, *pt)) < 1e-9)
        checks.append(abs(pts.P0[0] - p0) < 1e-9)
        checks.append(abs(pts.Q0[0] - p0p) < 1e-9)
        checks.append(abs(pts.Q1[0] - p0p) < 1e-9)

        # q = 0 section of the green parabola lands at p_star
        v = (4 + kappa) ** 2 / (8 * kappa)
        g_root = (1 + np.sqrt(1 + 4 * kappa * v)) / (2 * kappa)
        g_star = brentq(lambda g: sp.curve_eval("greenParabola", kappa, g)[1],
                        g_root - 0.5, g_root + 0.5)
        p_star, q_star = sp.curve_eval("greenParabola", kappa, g_star)
        checks.append(abs(q_star) < 1e-9 and abs(p_star - pts.p_star) < 1e-9)
    _verdict(7, "separatrix continuity and special points to 1e-9",
             all(checks), f"worst spectrum mismatch={worst:.1e}")


def test_criterion_8_mfold():
    checks = []
    cfg = SimConfig(kappa=2.0, horizon_T=3.0, dt=5e-3, seed=7)
    z0 = 0.4 + 0.2j
    sample = evolve(sample_driver(cfg, n_paths=25), cfg, [z0, z0**2, z0**3])
    for m in (1, 2, 3):
        checks.append(mfold_identity_check(sample, m, z0, 2.0, 1.0) < 1e-10)
    for m in (-1, -2, -3):
        checks.append(mfold_identity_check(sample, m, 1.0 / z0, 2.0, 1.0) < 1e-10)

    def regions(kappa, m, p_lo, p_hi):
        seen = []
        for p in np.linspace(p_lo, p_hi, 400):
            r = sp.classify_mfold(p, 0.0, kappa, m).region
            if not seen or seen[-1] != r:
                seen.append(r)
        return seen

    checks.append(regions(30.0, 10, -20.0, 12.0) == ["I", "II", "III", "IV"])
    checks.append(regions(2.0, -30, -4.0, 8.0) == ["I", "II", "IV", "III"])

    # m = -1 pullback: the green parabola crosses q = 0 where the original
    # curve meets q = 2p, at p = -(4+kappa)^2 (8+kappa)/128
    kappa = 6.0
    pts = sp.special_points(kappa)
    g_cross = brentq(
        lambda g: 2 * sp.curve_eval("greenParabola", kappa, g)[0]
        - sp.curve_eval("greenParabola", kappa, g)[1],
        0.25 + 1 / kappa, 20.0,
    )
    p_cross, q_cross = sp.curve_eval("greenParabola", kappa, g_cross)
    pm, qm = sp.mfold_map_inv(-1)(p_cross, q_cross)
    checks.append(abs(qm) < 1e-9 and abs(pm - pts.p0dblprime) < 1e-9)

    # the pulled-back quartic touches q = 2p only where the curve passes the
    # origin: q vanishes on the quartic only at (0, 0)
    gs = np.linspace(-3.0, 4.0, 2001)
    qq = np.array([sp.curve_eval("blueQuartic", kappa, g)[1] for g in gs])
    pp = np.array([sp.curve_eval("blueQuartic", kappa, g)[0] for g in gs])
    near_zero = np.abs(qq) < 1e-3
    checks.append(bool(np.all(np.abs(pp[near_zero]) < 0.05)))
    _verdict(8, "m-fold identity and pulled-back phase diagrams", all(checks),
             f"{len(checks)} subchecks")


def test_criterion_9_universal():
    checks = []
    checks.append(sp.feng_mcgregor_domain(2.0, 1.0))
    checks.append(not sp.feng_mcgregor_domain(-1.0, -3.0))
    checks.append(not sp.feng_mcgregor_domain(2.0, 2.5))
    checks.append(not sp.feng_mcgregor_domain(1.0, 0.9))

    rng = np.random.default_rng(7)
    for p, q in zip(rng.uniform(-4, 4, 200), rng.uniform(-6, 4, 200)):
        expect = max(sp.universal_bounded(p), 3 * p - 2 * q - 1)
        checks.append(abs(sp.universal_B(p, q) - expect) < 1e-15)

    # the three separatrices of the bounded model meet pairwise at
    # (-2, -4) (tip/bulk triple point) and join continuously at p = 2
    part = sp.universal_partition()
    checks.append(abs(part["tip"]["q_of_p"](-2.0) - (-4.0)) < 1e-12)
    checks.append(abs(part["bulk"]["q_of_p"](-2.0) - (-4.0)) < 1e-12)
    checks.append(abs(part["bulk"]["q_of_p"](2.0) - part["lin"]["q_of_p"](2.0)) < 1e-12)
    checks.append(abs(sp.universal_bounded(-2.0) - 1.0) < 1e-12)
    checks.append(abs(sp.universal_bounded(2.0) - 1.0) < 1e-12)

    koebe = sp.koebe_limit_partition()
    checks.append(koebe["Q0"] == (-1.0, -2.0))
    spectra = koebe["spectra"]
    checks.append(abs(spectra["I"](-3.0, -6.0) - 2.0) < 1e-15)
    checks.append(spectra["II"](0.5, 0.5) == 0.0)
    checks.append(abs(spectra["IV"](1.0, -1.0) - 4.0) < 1e-15)
    # separatrix residuals vanish on their lines
    checks.append(abs(koebe["red"]["residual"](2.0, 3.0)) < 1e-15)
    checks.append(abs(koebe["green"]["residual"](1.0, 1.0)) < 1e-15)
    checks.append(abs(koebe["quartic_lower"]["q_of_p"](-1.0) - (-2.0)) < 1e-15)
    _verdict(9, "universal spectrum module", all(checks), f"{len(checks)} subchecks")
