"""Mixed moments of the whole-plane map: closed forms and estimators.

Closed forms exist on an integrability parabola in the (p, q) exponent
plane; Monte Carlo estimators built on the tracked logarithms of
:mod:`slelab.flow` samples are compared against them.  Also provides
logarithmic-coefficient extraction by FFT on a circle, the m-fold
per-sample identities, and integral-means slope fits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .flow import DomainError, SimConfig, WholePlaneSample, sample_ensemble
from .spectrum import cartesian_residual, mfold_map, parabola_point

__all__ = [
    "MomentEstimate",
    "LogCoeffStats",
    "MeansScan",
    "parabola_point",
    "parabola_gamma",
    "parabola_gamma_from_pq",
    "closed_one_point",
    "closed_two_point",
    "closed_moduli",
    "estimate_one_point",
    "estimate_moduli",
    "estimate_two_point",
    "stationarity_diagnostic",
    "circle_points",
    "extract_log_coeffs",
    "log_coeff_moments",
    "mfold_identity_check",
    "integral_means_scan",
]


@dataclass(frozen=True)
class MomentEstimate:
    value: complex
    stderr: float
    n_samples: int
    median_of_means: float | None = None


def parabola_gamma(kappa, p, branch="-"):
    """Invert the parabola's p(gamma); two branches meet at the vertex."""
    if branch not in ("+", "-"):
        raise DomainError(f"unknown parabola branch {branch!r}; expected '+' or '-'")
    disc = (4 + kappa) ** 2 - 8 * kappa * p
    if disc < -1e-12:
        raise DomainError(f"p={p} beyond the parabola vertex (4+kappa)^2/(8 kappa)")
    root = np.sqrt(max(disc, 0.0))
    sign = 1.0 if branch == "+" else -1.0
    return (4 + kappa + sign * root) / (2 * kappa)


def parabola_gamma_from_pq(kappa, p, q):
    """gamma of an on-parabola pair, from the linear relation 2p - q."""
    gamma = (2 * p - q) / (1 + kappa / 2)
    if not abs(cartesian_residual("redParabola", kappa, p, q)) <= 1e-9:   # NaN is off it
        raise DomainError(f"(p, q)=({p}, {q}) does not lie on the parabola")
    return gamma


def closed_one_point(z, kappa, gamma):
    """E(f'^{p/2} / (f/z)^{q/2}) on the parabola: (1 - z)^gamma."""
    return np.power(1.0 - np.asarray(z, dtype=complex), gamma)


def closed_two_point(z1, z2bar, kappa, gamma):
    """(1-z1)^g (1-z2bar)^g / (1 - z1 z2bar)^{kappa g^2 / 2}."""
    z1 = np.asarray(z1, dtype=complex)
    z2bar = np.asarray(z2bar, dtype=complex)
    beta = kappa * gamma**2 / 2
    return (
        np.power(1.0 - z1, gamma)
        * np.power(1.0 - z2bar, gamma)
        * np.power(1.0 - z1 * z2bar, -beta)
    )


def closed_moduli(z, kappa, gamma):
    """E(|z|^q |f'|^p / |f|^q) on the parabola (two-point diagonal)."""
    return closed_two_point(z, np.conj(z), kappa, gamma).real


def _log_weight(sample, p, q, z):
    """log of the one-point weight f'^{p/2} / (f/z)^{q/2} per sample;
    log(f/z) is exactly zero at the origin, where f'(0) = 1."""
    j = sample.point_index(z)
    log_ratio = 0 if z == 0 else sample.logf[:, j] - np.log(complex(z))
    return (p / 2) * sample.logfp[:, j] - (q / 2) * log_ratio


def _mean_and_stderr(x):
    """Mean of x over axis 0 and its standard error (ddof 0), zero when N <= 1.

    An empty x has NaN means (NaN + NaN j for complex x), built here since
    np.mean would warn of an empty slice.
    """
    n, shape = len(x), np.shape(x)[1:]
    if n == 0:
        nan = complex(np.nan, np.nan) if np.iscomplexobj(x) else np.nan
        return np.full(shape, nan), np.zeros(shape)
    stderr = np.std(x, axis=0) / np.sqrt(n) if n > 1 else np.zeros(shape)
    return np.mean(x, axis=0), stderr


def _estimate(x, median_blocks=0):
    n = len(x)
    value, stderr = _mean_and_stderr(x)
    mom = None
    if median_blocks and n >= median_blocks:
        blocks = np.array_split(np.real(x), median_blocks)
        mom = float(np.median([np.mean(b) for b in blocks]))
    return MomentEstimate(value=complex(value), stderr=float(stderr), n_samples=n,
                          median_of_means=mom)


def estimate_one_point(sample: WholePlaneSample, p, q, z) -> MomentEstimate:
    """Monte Carlo estimate of E(z^{q/2} f'^{p/2} / f^{q/2}) at z."""
    return _estimate(np.exp(_log_weight(sample, p, q, z)))


def estimate_moduli(sample: WholePlaneSample, p, q, z) -> MomentEstimate:
    """Monte Carlo estimate of E(|z|^q |f'|^p / |f|^q) at z.

    Reports a 16-block median-of-means alongside the plain mean; moduli
    weights can be heavy tailed for large |q|.
    """
    x = np.exp(2 * _log_weight(sample, p, q, z).real)
    return _estimate(x, median_blocks=16)


def estimate_two_point(sample: WholePlaneSample, p, q, z1, z2) -> MomentEstimate:
    """Monte Carlo estimate of E(X(z1) conj(X(z2))) under common drivers."""
    x1 = np.exp(_log_weight(sample, p, q, z1))
    if z2 == 0:
        x = x1
    else:
        x = x1 * np.conj(np.exp(_log_weight(sample, p, q, z2)))
    return _estimate(x)


def stationarity_diagnostic(cfg: SimConfig, z, T_list, N, p=2.0, q=2.0, workers=1):
    """Drift of a moduli moment across horizons.

    For each horizon T, estimates E(|z|^q |f'|^p / |f|^q) by
    ``estimate_moduli`` from N fresh samples and reports (T, estimate,
    stderr).  Used to validate the default horizon: estimates should agree
    within pooled standard errors once the horizon truncation is
    negligible.
    """
    T_list = list(T_list)
    if any(b <= a for a, b in zip(T_list, T_list[1:])):
        raise DomainError("T_list must be strictly increasing")
    # every horizon is validated before the first ensemble is drawn
    cfgs = [replace(cfg, horizon_T=float(T), stream_id=cfg.stream_id + 1000 * i)
            for i, T in enumerate(T_list)]
    rows = []
    for tcfg in cfgs:
        est = estimate_moduli(sample_ensemble(tcfg, [z], N, workers=workers), p, q, z)
        rows.append((tcfg.horizon_T, est.value.real, est.stderr))
    return rows


@dataclass(frozen=True)
class LogCoeffStats:
    mean_gamma: np.ndarray    # E gamma_n, n = 1..n_max
    mean_sq: np.ndarray       # E |gamma_n|^2
    cross: np.ndarray         # E gamma_n conj(gamma_{n+1}), n = 1..n_max-1
    stderr_gamma: np.ndarray  # rms standard error of mean_gamma
    stderr_sq: np.ndarray     # standard error of mean_sq
    stderr_cross: np.ndarray  # rms standard error of cross
    n_samples: int


def circle_points(r, M):
    """The M points r exp(2 pi i j / M), j = 0, ..., M - 1, for M >= 1 and
    finite r > 0."""
    if not (M >= 1 and 0 < r < np.inf):   # NaN fails
        raise DomainError(f"a circle needs M >= 1 points and a finite radius r > 0, "
                          f"got M={M}, r={r}")
    return r * np.exp(2j * np.pi * np.arange(M) / M)


def _check_log_coeff_sizes(n_max, M):
    """Raise unless 1 <= n_max < M/2, the coefficients an M-point FFT gives
    without aliasing."""
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    if not n_max < M / 2:
        raise DomainError(f"aliasing guard: need n_max < M/2, got n_max={n_max}, M={M}")


def extract_log_coeffs(sample: WholePlaneSample, n_max: int) -> LogCoeffStats:
    """Logarithmic coefficients gamma_n of log(f(z)/z) = 2 sum gamma_n z^n.

    The sample must be evaluated at the M = len(sample.z) roots of unity
    scaled by a common radius r; gamma_n is half the n-th discrete Fourier
    coefficient of log(f/z) on that circle, rescaled by r^{-n}.
    """
    M = len(sample.z)
    _check_log_coeff_sizes(n_max, M)
    r = abs(sample.z[0])
    if not np.allclose(sample.z, circle_points(r, M), atol=1e-10):
        raise DomainError("sample points must be a uniform circle r * exp(2 pi i j / M)")

    vals = (sample.logf - np.log(sample.z)) / 2.0   # sum_n gamma_n z^n per sample
    coeffs = np.fft.fft(vals, axis=1) / M               # (n_samples, M)
    n = np.arange(1, n_max + 2)
    gam = coeffs[:, 1 : n_max + 2] * r ** (-n.astype(float))
    mean_gamma, stderr_gamma = _mean_and_stderr(gam[:, :n_max])
    mean_sq, stderr_sq = _mean_and_stderr(np.abs(gam[:, :n_max]) ** 2)
    cross, stderr_cross = _mean_and_stderr(gam[:, : n_max - 1] * np.conj(gam[:, 1:n_max]))
    return LogCoeffStats(mean_gamma=mean_gamma, mean_sq=mean_sq, cross=cross,
                         stderr_gamma=stderr_gamma, stderr_sq=stderr_sq.real,
                         stderr_cross=stderr_cross, n_samples=sample.n_samples)


def log_coeff_moments(kappa, n_max):
    """E gamma_n and E gamma_n conj(gamma_m) for n, m = 1, ..., n_max at any kappa.

    The generator of the flow acts triangularly on monomials, so the
    coefficients of E L(z) = sum c_n z^n and E L(z) conj(L(w)) = sum h_nm
    z^n wbar^m, with L = log(f/z) = 2 sum gamma_n z^n, solve
        c_N = -2 r_{N-1} / (N + kappa N^2 / 2),
        r_N = 1 + sum_{n<=N} n c_n = prod_{k<=N} (kappa k/2 - 1) / (kappa k/2 + 1),
        h_NM = (-2 (c_N + c_M) - 2 sum_{n<N} n h_nM - 2 sum_{m<M} m h_Nm)
               / (N + M + kappa (N - M)^2 / 2)
    (Duplantier, Nguyen, Nguyen & Zinsmeister).  Returns (mean, second)
    with mean[n-1] = c_n / 2 and second[n-1, m-1] = h_nm / 4; at kappa = 2
    these are -1/2, 0, 0, ... and E|gamma_n|^2 = 1/(2 n^2).  The product
    form of r subtracts nothing, so small c_n keep their digits.  Only
    + - * / touch kappa, so a Fraction kappa gives exact rationals and a
    float kappa float64 arrays.  In float64, every entry of mean and of
    second lies within 1e-14 of the largest |entry| of its array; accuracy
    relative to each entry is not promised, since the running sums of h
    cancel far from the diagonal at small kappa (at kappa = 0.3 and n_max =
    40, entry (39, 2) is off by 0.41 of its size).
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    c, r = [], 1
    for N in range(1, n_max + 1):
        c.append((0 - 2 * r) / (N + kappa * N * N / 2))   # an exact zero stays +0.0
        r *= (kappa * N / 2 - 1) / (kappa * N / 2 + 1)
    h, col = [], [0] * n_max              # col[M-1] = sum_{n<N} n h_nM
    for N in range(1, n_max + 1):
        h.append([])
        row = 0                           # sum_{m<M} m h_Nm
        for M in range(1, n_max + 1):
            v = ((-2 * (c[N - 1] + c[M - 1]) - 2 * col[M - 1] - 2 * row)
                 / (N + M + kappa * (N - M) ** 2 / 2))
            h[-1].append(v)
            row += M * v
            col[M - 1] += N * v
    return np.array(c) / 2, np.array(h) / 4


def mfold_identity_check(sample: WholePlaneSample, m: int, z, p, q) -> float:
    """Per-sample residual of the m-fold moment identity.

    The m-fold transform satisfies, per sample and exactly,
    |z|^q |(f^[m])'(z)|^p / |f^[m](z)|^q  =  |zeta|^{q_m} |f'(zeta)|^p / |f(zeta)|^{q_m},
    with zeta = z^m and q_m = p + (q - p)/m.  For m < 0 the exterior
    convention f^[m](z) = 1 / f^[-m](1/z) applies, with |z| > 1.
    Both sides are evaluated from the tracked logs; returns max |LHS - RHS|.
    """
    _, qm = mfold_map(m)(p, q)
    z = complex(z)
    zeta = z**m
    j = sample.point_index(zeta)
    relogf = sample.logf[:, j].real
    relogfp = sample.logfp[:, j].real

    rhs = np.exp(p * relogfp - qm * (relogf - np.log(abs(zeta))))

    mm = abs(m)
    u = z if m > 0 else 1.0 / z           # argument fed to the positive-fold map
    # log |f^[mm](u)| and log |(f^[mm])'(u)| from the tracked logs at u^mm = zeta
    log_fm = np.log(abs(u)) + (relogf - np.log(abs(zeta))) / mm
    log_fmp = (mm - 1) * np.log(abs(u)) + relogfp + (1.0 / mm - 1.0) * relogf
    if m > 0:
        lhs = np.exp(q * np.log(abs(z)) + p * log_fmp - q * log_fm)
    else:
        # f^[m](z) = 1/f^[mm](1/z); chain rule brings in -2 log|z| - 2 log|f^[mm](1/z)|
        log_outer = -log_fm
        log_outer_p = log_fmp - 2 * np.log(abs(z)) - 2 * log_fm
        lhs = np.exp(q * np.log(abs(z)) + p * log_outer_p - q * log_outer)
    return float(np.max(np.abs(lhs - rhs)))


_RING_CHUNK = 1 << 13   # points of a ring evaluated at a time by integral_means_scan
_RING_POINTS = 512      # fewest points of a ring; rings near r = 1 take 16 / (1 - r)


@dataclass(frozen=True)
class MeansScan:
    """The angular integral at each radius of ``r_grid`` and the fitted
    growth exponent beta; both are NaN where the integral diverges."""
    r_grid: np.ndarray
    integrals: np.ndarray
    beta: float


def integral_means_scan(integrand, p, q, kappa, r_grid) -> MeansScan:
    """Angular integrals of a moment integrand over circles, with a slope fit.

    ``integrand`` is either the string ``"closed"`` (usable when (p, q)
    lies on the integrability parabola) or an elementwise callable z ->
    E-values, called on chunks of each ring's points.  A ring of radius r
    takes max(512, 16 / (1 - r)) equally spaced points.  The growth
    exponent beta is fitted by least squares of log(integral) against
    -log(1 - r^2) over the top half of ``r_grid``, so the fit needs at
    least 3 radii.  The closed integrand diverges when 2 gamma <= -1 (the
    tip dominates); the integrals and beta are then NaN.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if not (np.all(np.diff(r_grid) > 0) and np.all((r_grid > 0) & (r_grid < 1))):   # NaN fails
        raise DomainError("r_grid must be increasing and inside (0, 1)")
    if len(r_grid) < 3:
        raise DomainError(f"the slope fit over the top half of r_grid needs at least 3 radii, "
                          f"got {len(r_grid)}")

    if isinstance(integrand, str):
        if integrand != "closed":
            raise DomainError(f"unknown integrand {integrand!r}; the only named one is 'closed'")
        gamma = parabola_gamma_from_pq(kappa, p, q)
        if 2 * gamma <= -1:
            return MeansScan(r_grid=r_grid, integrals=np.full_like(r_grid, np.nan),
                             beta=np.nan)

        def func(zz):
            return closed_moduli(zz, kappa, gamma) / np.abs(zz) ** q
    else:
        func = integrand

    def one_ring(r):
        # resolve the angular feature of width ~(1 - r) near theta = 0
        M = max(_RING_POINTS, int(16.0 / (1.0 - r)))
        values = np.empty(M)   # filled a chunk at a time, summed once as a whole
        for lo in range(0, M, _RING_CHUNK):
            ring = np.exp(2j * np.pi * np.arange(lo, min(lo + _RING_CHUNK, M)) / M)
            values[lo:lo + len(ring)] = func(r * ring).real
        return r * np.sum(values) * (2 * np.pi / M)

    integrals = np.array([one_ring(r) for r in r_grid])
    top = slice(len(r_grid) // 2, None)
    x = -np.log(1.0 - r_grid[top] ** 2)
    y = np.log(integrals[top])
    beta = float(np.polyfit(x, y, 1)[0])
    return MeansScan(r_grid=r_grid, integrals=integrals, beta=beta)
