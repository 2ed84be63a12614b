"""Exact piecewise generalized integral-means spectrum and its phase diagram.

The (p, q) exponent plane splits into four regions whose spectra are the
tip, bulk, linear and mixed formulas; the separatrices are two parabolas
(red, green), a quartic branch (blue) and three straight lines.  The
module also provides the m-fold pullback of the diagram, the conic (x, y)
coordinates in which the separatrices become straight lines and a
hyperbola, and the conjectured universal-spectrum partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import DomainError

__all__ = [
    "SpectrumPoint",
    "SpecialPoints",
    "beta_tip",
    "beta_0",
    "beta_lin",
    "beta_1",
    "parabola_point",
    "special_points",
    "curve_eval",
    "cartesian_residual",
    "lower_boundary_q",
    "classify",
    "mfold_map",
    "mfold_map_inv",
    "classify_mfold",
    "xy_forward",
    "xy_inverse",
    "xy_spectra",
    "quartic_hyperbola_residual",
    "quartic_asymptotes",
    "universal_B",
    "universal_partition",
    "feng_mcgregor_domain",
    "koebe_limit_partition",
]

BOUNDARY_TOL = 1e-10


# ---------------------------------------------------------------------------
# the four spectrum functions


def _disc0(p, kappa):
    d = (4 + kappa) ** 2 - 8 * kappa * p
    if np.any(d < 0):
        raise DomainError(
            f"p={p} lies right of Delta_0 (p = (4+kappa)^2/8kappa); bulk/tip spectra undefined"
        )
    return np.sqrt(d)


def beta_tip(p, kappa):
    """Tip spectrum -p - 1 + (4 + kappa - sqrt((4+kappa)^2 - 8 kappa p))/4."""
    return -p - 1 + (4 + kappa - _disc0(p, kappa)) / 4


def beta_0(p, kappa):
    """Bulk spectrum -p + (4+kappa)(4 + kappa - sqrt((4+kappa)^2 - 8 kappa p))/(4 kappa)."""
    return -p + (4 + kappa) * (4 + kappa - _disc0(p, kappa)) / (4 * kappa)


def beta_lin(p, kappa):
    """Linear spectrum p - (4+kappa)^2 / (16 kappa)."""
    return p - (4 + kappa) ** 2 / (16 * kappa)


def beta_1(p, q, kappa):
    """Mixed spectrum 3p - 2q - 1/2 - sqrt(1 + 2 kappa (p - q))/2."""
    d = 1 + 2 * kappa * (p - q)
    if np.any(d < 0):
        raise DomainError(
            f"(p, q)=({p}, {q}) lies above Delta_1 (q = p + 1/2kappa); mixed spectrum undefined"
        )
    return 3 * p - 2 * q - 0.5 - 0.5 * np.sqrt(d)


# ---------------------------------------------------------------------------
# special points and curves


@dataclass(frozen=True)
class SpecialPoints:
    P0: tuple
    P1: tuple
    Q0: tuple
    Q1: tuple
    T0: tuple
    T1: tuple
    T2: tuple
    p_star: float
    p0: float
    p0prime: float
    p0dblprime: float


def parabola_point(kappa, g):
    """Point of the integrability parabola (the red separatrix) at exponent g."""
    p = (2 + kappa / 2) * g - (kappa / 2) * g**2
    q = (3 + kappa / 2) * g - kappa * g**2
    return p, q


def _green(kappa, g):
    v = delta0_of(kappa)
    p = v - (kappa / 2) * g**2
    q = v + g - kappa * g**2
    return p, q


def _quartic_disc(kappa, g):
    return 4 * kappa**2 * g**2 - 2 * kappa * (4 + kappa) * g + (8 + kappa) ** 2 / 4 + 4 * kappa


def _quartic(kappa, g):
    p = kappa / 16 + (1 + kappa / 4) * g - (kappa / 2) * g**2 - np.sqrt(_quartic_disc(kappa, g)) / 8
    q = p + g - (kappa / 2) * g**2
    return p, q


def p0_of(kappa):
    return 3 * (4 + kappa) ** 2 / (32 * kappa)


def p0prime_of(kappa):
    return -1 - 3 * kappa / 8


def delta0_of(kappa):
    """Abscissa of Delta_0, the vertex line of the red and green parabolas."""
    return (4 + kappa) ** 2 / (8 * kappa)


def d1_offset(kappa):
    return (16 - kappa**2) / (32 * kappa)


# the straight separatrices by id: (True, c) is the vertical p = c(kappa),
# (False, c) the diagonal q = p + c(kappa)
_LINES = {
    "D0": (True, p0_of),
    "D0prime": (True, p0prime_of),
    "Delta0": (True, delta0_of),
    "D1": (False, d1_offset),
    "Delta1": (False, lambda kappa: 1 / (2 * kappa)),
}


def special_points(kappa) -> SpecialPoints:
    """All named points of the kappa phase diagram."""
    p0 = p0_of(kappa)
    q0 = (4 + kappa) * (8 + kappa) / (16 * kappa)
    p1 = (8 + kappa) * (8 + 3 * kappa) / (32 * kappa)
    p0p = p0prime_of(kappa)
    s = np.sqrt(2 * (4 + kappa) ** 2 + 4)
    p_star = (s - 6) * (s + 2) / (32 * kappa)
    return SpecialPoints(
        P0=(p0, q0),
        P1=(p1, q0),
        Q0=(p0p, -2 - 7 * kappa / 8),
        Q1=(p0p, -(3 + kappa) / 2),
        T0=parabola_point(kappa, 2 / kappa + 0.5),
        T1=parabola_point(kappa, 1 / kappa),
        T2=_green(kappa, 1 / kappa),
        p_star=p_star,
        p0=p0,
        p0prime=p0p,
        p0dblprime=-((4 + kappa) ** 2) * (8 + kappa) / 128,
    )


def curve_eval(curve_id, kappa, param):
    """Point of a separatrix curve at the given parameter value."""
    if curve_id == "redParabola":
        return parabola_point(kappa, param)
    if curve_id == "greenParabola":
        return _green(kappa, param)
    if curve_id == "blueQuartic":
        return _quartic(kappa, param)
    if curve_id in _LINES:
        vertical, c = _LINES[curve_id]
        return (c(kappa), param) if vertical else (param, param + c(kappa))
    raise DomainError(f"unknown curve id {curve_id!r}")


def cartesian_residual(curve_id, kappa, p, q):
    """Residual of the curve's Cartesian equation at (p, q)."""
    if curve_id == "redParabola":
        u = (2 * p - q) / (2 + kappa)
        return 2 * kappa * u**2 - (4 + kappa) * u + p
    if curve_id == "greenParabola":
        u = 2 * p - q
        return (kappa / 2) * u**2 - (4 + kappa) ** 2 * u / 8 + p \
            + (4 + kappa) ** 2 * (8 + kappa) / 128
    if curve_id == "blueQuartic":
        u = 2 * p - q
        c = (8 + kappa) ** 2 / 64 + kappa / 4
        return (u**2 - kappa / 8 * u + kappa**2 / 256 - c / 4) * (u - 1 - kappa / 8) * u \
            - (kappa / 2) * (p - q) * (u - 0.25 - kappa / 8) ** 2
    if curve_id in _LINES:
        vertical, c = _LINES[curve_id]
        return p - c(kappa) if vertical else q - p - c(kappa)
    raise DomainError(f"unknown curve id {curve_id!r}")


# ---------------------------------------------------------------------------
# region classification


def _require_finite(name, a):
    if not np.isfinite(a).all():
        raise DomainError(f"{name} must be finite, got {name}={a[~np.isfinite(a)].flat[0]}")


def lower_boundary_q(p, kappa):
    """Ordinate of the composite lower boundary (quartic / green arc / D1).

    p may be an array of finite values.  Right of D0 the boundary is the
    line D1; on [p0', p0) it is the green arc p = v - (kappa/2) g^2; left
    of D0' it is the quartic branch, the hyperbola
    4(y - kappa/4)^2 - (x - kappa/2)^2 + 6(kappa + 2) = 0 in the conic
    coordinates, on its branch through Q0 (x = 2 kappa + 4, y = kappa + 1)
    that has x - 2y -> 0 as its asymptote.  All three are closed forms.
    """
    p = np.asarray(p, dtype=float)
    _require_finite("p", p)
    flat = p.ravel()
    p0p = p0prime_of(kappa)
    qb = flat + d1_offset(kappa)
    arc = (flat >= p0p) & (flat < p0_of(kappa))
    qb[arc] = _green(kappa, np.sqrt(2 * (delta0_of(kappa) - flat[arc]) / kappa))[1]
    quartic = flat < p0p
    x = _disc0(flat[quartic], kappa)
    y = kappa / 4 + 0.5 * np.sqrt((x - kappa / 2) ** 2 - 6 * (kappa + 2))
    qb[quartic] = flat[quartic] - (y**2 - 1) / (2 * kappa)
    return qb.reshape(p.shape)[()]


@dataclass(frozen=True)
class SpectrumPoint:
    region: str
    beta: float
    boundary: bool = False
    regions: tuple = ()    # adjacent regions when on a separatrix


# each region's spectrum, as a function of (p, q, kappa)
_REGION_BETA = {
    "I": lambda p, q, kappa: beta_tip(p, kappa),
    "II": lambda p, q, kappa: beta_0(p, kappa),
    "III": lambda p, q, kappa: beta_lin(p, kappa),
    "IV": beta_1,
}


def classify(p, q, kappa) -> SpectrumPoint:
    """Region label and spectrum value at (p, q).

    p and q may be arrays, broadcast together.  The result then holds
    arrays of their common shape in ``region``, ``beta`` and ``boundary``,
    and ``regions`` gains a trailing axis of length 2 that holds the two
    adjacent regions on a separatrix and empty strings elsewhere.
    """
    pa, qa = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
    qb = lower_boundary_q(pa, kappa)   # rejects a non-finite p
    _require_finite("q", qa)
    p0 = p0_of(kappa)
    p0p = p0prime_of(kappa)

    upper = np.where(pa <= p0p, "I", np.where(pa <= p0, "II", "III"))
    on_lower = np.abs(qa - qb) < BOUNDARY_TOL
    lower = on_lower | (qa < qb)
    on_d0p = ~lower & (np.abs(pa - p0p) < BOUNDARY_TOL)
    on_d0 = ~lower & ~on_d0p & (np.abs(pa - p0) < BOUNDARY_TOL)
    region = np.where(lower, "IV", np.where(on_d0p, "I", np.where(on_d0, "II", upper)))

    # each formula only where its region lies, inside its domain
    beta = np.empty(pa.shape)
    for name, formula in _REGION_BETA.items():
        sel = region == name
        if sel.any():
            beta[sel] = formula(pa[sel], qa[sel], kappa)

    boundary = on_lower | on_d0p | on_d0
    across = np.where(on_lower, upper, np.where(on_d0p, "II", np.where(on_d0, "III", "")))
    regions = np.stack([np.where(boundary, region, ""), across], axis=-1)

    if region.ndim:
        return SpectrumPoint(region=region, beta=beta, boundary=boundary, regions=regions)
    return SpectrumPoint(region=str(region), beta=float(beta), boundary=bool(boundary),
                         regions=tuple(map(str, regions)) if boundary else ())


# ---------------------------------------------------------------------------
# m-fold pullback


def mfold_map(m):
    """Linear map (p, q) -> (p, q_m) with q_m = (1 - 1/m) p + q/m."""
    if m == 0:
        raise DomainError("m must be a nonzero integer")

    def T(p, q):
        return p, (1 - 1 / m) * p + q / m

    return T


def mfold_map_inv(m):
    if m == 0:
        raise DomainError("m must be a nonzero integer")

    def Tinv(p, q):
        return p, (1 - m) * p + m * q

    return Tinv


def classify_mfold(p, q, kappa, m) -> SpectrumPoint:
    """Phase diagram of the m-fold transform: classify at (p, q_m).

    p and q may be arrays, as in ``classify``.
    """
    pa, qa = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    # before the map, whose 0 * p at m = 1 turns an infinite p into nan
    _require_finite("p", pa)
    _require_finite("q", qa)
    pm, qm = mfold_map(m)(pa, qa)
    return classify(pm, qm, kappa)


# ---------------------------------------------------------------------------
# conic (x, y) coordinates


def xy_forward(p, q, kappa):
    """x = sqrt((4+kappa)^2 - 8 kappa p), y = sqrt(1 + 2 kappa (p - q))."""
    dx = (4 + kappa) ** 2 - 8 * kappa * p
    dy = 1 + 2 * kappa * (p - q)
    if np.any(dx <= 0) or np.any(dy <= 0):
        raise DomainError(f"(p, q)=({p}, {q}) outside the sector S_kappa")
    return np.sqrt(dx), np.sqrt(dy)


def xy_inverse(x, y, kappa):
    p = ((4 + kappa) ** 2 - x**2) / (8 * kappa)
    q = (4 + (4 + kappa) ** 2 - x**2 - 4 * y**2) / (8 * kappa)
    return p, q


def xy_spectra(x, y, kappa):
    """(beta_1, beta_0, beta_tip, beta_lin) in conic coordinates."""
    v = delta0_of(kappa)
    b1 = -(x**2) / (8 * kappa) + y**2 / kappa - y / 2 + v - 0.5 - 1 / kappa
    b0 = x**2 / (8 * kappa) - (4 + kappa) * x / (4 * kappa) + v
    btip = x**2 / (8 * kappa) - x / 4 - v + kappa / 4
    blin = -(x**2) / (8 * kappa) + v / 2
    return b1, b0, btip, blin


def quartic_hyperbola_residual(x, y, kappa):
    """4 kappa (beta_1 - beta_tip) = 4(y - kappa/4)^2 - (x - kappa/2)^2 + 6(kappa + 2)."""
    return 4 * (y - kappa / 4) ** 2 - (x - kappa / 2) ** 2 + 6 * (kappa + 2)


def quartic_asymptotes(kappa):
    """Asymptote descriptors of the quartic, in both coordinate systems."""
    return {
        "xy_lines": (
            {"coeffs": (1.0, -2.0, 0.0), "label": "x - 2y = 0"},
            {"coeffs": (1.0, 2.0, -kappa), "label": "x + 2y - kappa = 0"},
        ),
        # asymptote between the two quartic components in the (p, q) plane
        "pq_line": {"q_of_p": lambda p: 2 * p + (kappa + 2) / 8,
                    "label": "q = 2p + (kappa+2)/8"},
        # parabola family (2p - q - 1/4)^2 - kappa (p - q)/2 = c
        "pq_parabola_c": 5 / 8 + 3 * kappa / 16,
    }


# ---------------------------------------------------------------------------
# universal spectrum


def _b0(p):
    """Kraetzer's conjectured bulk spectrum p^2/4 of bounded univalent maps."""
    return p * p / 4.0


def universal_bounded(p):
    """Universal spectrum B(p) of bounded univalent maps, elementwise on an
    array p.  The tip branch -p - 1 meets the bulk p^2/4 at p = -2, where B
    is continuous."""
    # clipped to [-2, 2], where the bulk is taken, so a large |p| cannot overflow p^2
    return np.where(p <= -2, -p - 1.0, np.where(p >= 2, p - 1.0, _b0(np.clip(p, -2.0, 2.0))))[()]


def universal_B(p, q):
    """Conjectured universal generalized spectrum max{B(p), 3p - 2q - 1},
    elementwise on arrays p and q broadcast together."""
    return np.maximum(universal_bounded(p), 3 * p - 2 * q - 1)


def universal_partition():
    """Separatrix curves of the universal phase diagram."""
    return {
        "tip": {"p_range": (-np.inf, -2.0), "q_of_p": lambda p: 2 * p},
        "bulk": {"p_range": (-2.0, 2.0),
                 "q_of_p": lambda p: (3 * p - 1 - _b0(p)) / 2},
        "lin": {"p_range": (2.0, np.inf), "q_of_p": lambda p: p},
    }


def feng_mcgregor_domain(p, q):
    """Domain where the universal bound 3p - 2q - 1 is proven, elementwise
    on arrays p and q broadcast together."""
    return (p >= 0) & (q < np.minimum(2.0, 1.25 * p - 0.5))


def koebe_limit_partition():
    """kappa -> 0 limit: three regions with piecewise-linear separatrices."""
    return {
        "red": {"residual": lambda p, q: 3 * p - 2 * q},
        "green": {"residual": lambda p, q: 3 * p - 2 * q - 1},
        "quartic_lower": {"q_of_p": lambda p: 2 * p},
        "Q0": (-1.0, -2.0),
        "spectra": {
            "I": lambda p, q: -p - 1,
            "II": lambda p, q: 0.0,
            "IV": lambda p, q: 3 * p - 2 * q - 1,
        },
    }
