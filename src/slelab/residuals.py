"""Verification of the closed-form moment identities.

Every closed-form moment used elsewhere in the package solves a linear
ODE/PDE with a polynomial coefficient field.  This module re-derives the
defining algebra (the A/B/C coefficient system, the boundary-exponent
function and its duality) and applies the differential operators to the
closed forms.  The closed forms are holomorphic in z, and in (z1, conj z2)
for the two-point forms, so their derivatives come from Cauchy integrals:
the trapezoid rule on circles around the point gives them to machine
precision anywhere in the disk, and the residuals are held to 1e-12.  Each
circle's radius is a quarter of the way to the nearest singularity over 1 +
e/4, e the closed form's largest |exponent|.  The phase-diagram seed curves
are re-derived from the coefficient system and checked, at closed-form
parameters, against the exact parametrizations and the special points.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .flow import DomainError
from .moments import closed_one_point, closed_two_point
from . import spectrum as _spec
from .spectrum import parabola_point

__all__ = [
    "abc_check",
    "beta_fn",
    "duality_check",
    "ode_residual",
    "pde_residual",
    "moduli_residual",
    "seed_systems",
    "run_all_checks",
]

# points on each circle of the Cauchy integrals
_M = 64


def _report(check, inputs, residual, passed):
    """A check's report dict; every check writes these keys in this order."""
    return {"check": check, "inputs": inputs, "residual": residual, "pass": bool(passed)}


def _coeff_A(kappa, p, q, alpha):
    return p - q + alpha - (kappa / 2) * alpha**2


def _coeff_B(kappa, q, alpha):
    return q - (3 + kappa / 2) * alpha + kappa * alpha**2


def _coeff_C(kappa, p, alpha):
    return -p + (2 + kappa / 2) * alpha - (kappa / 2) * alpha**2


def abc_check(kappa, p, q, alpha):
    """The three coefficients of the moment ODE and their (identically zero) sum."""
    A = _coeff_A(kappa, p, q, alpha)
    B = _coeff_B(kappa, q, alpha)
    C = _coeff_C(kappa, p, alpha)
    return {"A": A, "B": B, "C": C, "sum": A + B + C}


def beta_fn(kappa, p, gamma):
    """Boundary exponent kappa g^2 - (2 + kappa/2) g + p."""
    return kappa * gamma**2 - (2 + kappa / 2) * gamma + p


def duality_check(kappa, p, gamma):
    """beta is invariant under g -> 2/kappa + 1/2 - g."""
    gdual = 2 / kappa + 0.5 - gamma
    b = beta_fn(kappa, p, gamma)
    bd = beta_fn(kappa, p, gdual)
    return {"gamma": gamma, "gamma_dual": gdual, "beta": b,
            "residual": abs(b - bd)}


# ---------------------------------------------------------------------------
# operator residuals from Cauchy-integral derivatives


def _taylor(G, centers, radii):
    """Taylor coefficients d^n G / n! at ``centers`` for n_i <= 2, and a
    holomorphy probe.

    G is sampled on an ``_M``-point circle of radius ``radii[i]`` about
    ``centers[i]`` in each variable.  The FFT of the samples is the
    trapezoid rule for the Cauchy integrals, whose error falls like (radius
    / distance to the nearest singularity)^_M.  The probe is the largest
    coefficient at a negative frequency relative to the largest of all;
    those coefficients vanish, up to roundoff, for a G holomorphic in each
    variable.
    """
    u = np.exp(2j * np.pi * np.arange(_M) / _M)
    axes = [z + r * u for z, r in zip(centers, radii)]
    samples = G(*np.meshgrid(*axes, indexing="ij", sparse=True))
    if not (np.isfinite(samples).all() and np.any(samples)):
        raise FloatingPointError(f"the integrand leaves float64 range near {centers}")
    c = np.fft.fftn(np.broadcast_to(samples, (_M,) * len(axes))) / _M ** len(axes)
    mag = np.abs(c)
    peak = mag.max()
    mag[(slice(_M // 2 + 1),) * len(axes)] = 0
    share = mag.max() / peak
    powers = reduce(np.multiply.outer, [r ** np.arange(3) for r in radii])
    return c[(slice(3),) * len(axes)] / powers, share


def _operator_report(check, inputs, kappa, gamma, G, points, reduced=False):
    """The report of an operator check on G at one or two ``points``.

    At one point z the operator is the moment ODE's P = -(kappa/2) D^2 -
    (1+z)/(1-z) D + V(z), with D = z d/dz and V(z) = -p/(1-z)^2 + q/(1-z) +
    p - q at (p, q) = parabola_point(kappa, gamma).  At (z1, w) = (z1, conj
    z2) it is P in z1 plus P in w plus kappa D1 D2.  ``reduced`` is the
    two-point operator on G / (z1 w)^{q/2}, whose V(z) is -p/(1-z)^2 + p - q/2.
    The check passes when the residual |operator G| is below 1e-12 times
    the scale, the sum of the terms' magnitudes.
    """
    p, q = parabola_point(kappa, gamma)
    # a quarter of the way to the nearest singularity (z_i = 1, z1 w = 1 and,
    # for the divided-out form, a third of the way to z_i = 0), divided by
    # 1 + e/4: the Taylor coefficients of (1 - z)^e grow like binom(e, n) 4^-n
    e = max(abs(gamma), kappa * gamma**2 / 2 if len(points) == 2 else 0,
            abs(q) / 2 if reduced else 0)
    radii = [min(abs(1 - z) / 4, abs(1 - np.prod(points)) / 4,
                 abs(z) / 3 if reduced else np.inf) / (1 + e / 4) for z in points]
    a, share = _taylor(G, points, radii)
    if share > 1e-12:
        raise DomainError(f"integrand fails the holomorphy probe at {points} "
                          f"(negative-frequency share {share:.2e})")
    g = a.flat[0]
    terms = []
    for i, z in enumerate(points):
        unit = np.eye(len(points), dtype=int)[i]
        d1 = z * a[tuple(unit)]
        d2 = d1 + 2 * z * z * a[tuple(2 * unit)]
        pot = -p / (1 - z) ** 2 + (p - q / 2 if reduced else q / (1 - z) + p - q)
        terms += [-(kappa / 2) * d2, -(1 + z) / (1 - z) * d1, pot * g]
    if len(points) == 2:
        terms.append(kappa * points[0] * points[1] * a[1, 1])
    residual = abs(sum(terms))
    scale = sum(abs(t) for t in terms)
    return _report(check, {**inputs, "scale": scale}, residual, residual / scale < 1e-12)


def ode_residual(kappa, gamma, z):
    """Residual of the one-point moment ODE on (1 - z)^gamma at z."""
    z = complex(z)
    if not abs(z) < 1:
        raise DomainError("z must lie in the unit disk")
    return _operator_report("one_point_ode", {"kappa": kappa, "gamma": gamma,
                                              "z": [z.real, z.imag]}, kappa, gamma,
                            lambda w: closed_one_point(w, kappa, gamma), (z,))


def pde_residual(kappa, gamma, z1, z2):
    """Residual of the two-point moment PDE at (z1, conj(z2))."""
    z1, z2 = complex(z1), complex(z2)
    if not (abs(z1) < 1 and abs(z2) < 1):
        raise DomainError("both points must lie in the unit disk")
    return _operator_report("two_point_pde", {"kappa": kappa, "gamma": gamma,
                                              "z1": [z1.real, z1.imag],
                                              "z2": [z2.real, z2.imag]}, kappa, gamma,
                            lambda a, b: closed_two_point(a, b, kappa, gamma),
                            (z1, z2.conjugate()))


def moduli_residual(kappa, gamma, z):
    """Residual of the modulus-moment PDE at z.

    The modulus moment is the two-point moment on the diagonal z1 = z2 = z,
    and its PDE is the two-point PDE there.
    """
    z = complex(z)
    if not abs(z) < 1:
        raise DomainError("z must lie in the unit disk")
    return _operator_report("moduli_pde", {"kappa": kappa, "gamma": gamma,
                                           "z": [z.real, z.imag]}, kappa, gamma,
                            lambda a, b: closed_two_point(a, b, kappa, gamma),
                            (z, z.conjugate()))


def moduli_residual_gform(kappa, gamma, z):
    """Equivalent PDE for F/|z|^q: the potential loses its q/(1-z) terms."""
    z = complex(z)
    if not 0 < abs(z) < 1:
        raise DomainError("z must lie in the punctured unit disk")
    q = parabola_point(kappa, gamma)[1]
    return _operator_report("moduli_pde_gform", {"kappa": kappa, "gamma": gamma,
                                                 "z": [z.real, z.imag]}, kappa, gamma,
                            lambda a, b: closed_two_point(a, b, kappa, gamma) / (a * b) ** (q / 2),
                            (z, z.conjugate()), reduced=True)


# ---------------------------------------------------------------------------
# re-derivation of the phase-diagram seed curves


def _quartic_gamma0(kappa, gamma):
    """Companion exponent of the quartic seed system, lower branch.

    The discriminant is at least 12 + 6 kappa for real gamma and kappa > 0,
    so it is <= 0 (or nan) only for arguments outside that domain.
    """
    disc = _spec._quartic_disc(kappa, gamma)
    if not disc > 0:
        raise DomainError(f"quartic discriminant {disc} <= 0 at kappa={kappa}, gamma={gamma}")
    return (8 + kappa) / (4 * kappa) - np.sqrt(disc) / (2 * kappa)


def seed_systems(kappa, n_params=7):
    """Re-derive each separatrix from its coefficient-system seeds.

    Red: A = 0 and C = 0 at a common exponent.  Green: A = 0 at gamma' and
    C = 0 at the dual exponent.  Quartic: C = 0 at the companion exponent
    gamma_0(gamma) solving the two-exponent compatibility relation, with
    q fixed by A = 0.  Each reconstruction is compared with the exact
    parametrization, and each curve at the closed-form parameter of a
    special point on it with that point.
    """
    checks = []

    def quartic_companion(g):
        # the lower root and the residual of its defining relation
        g0 = _quartic_gamma0(kappa, g)
        return g0, abs((8 + kappa) / 2 * g0 - kappa * g0**2
                       - ((4 + kappa) / 2 * g - kappa * g**2 - 1))

    # (check, curve, parameter range, companion exponent and its residual, tolerance)
    systems = (
        ("seed_red", "redParabola", (0.05, 1 / kappa + 0.6), lambda g: (g, 0.0), 1e-10),
        ("seed_green", "greenParabola", (0.25 + 1 / kappa, 1 + 2 / kappa),
         lambda g: (2 / kappa + 0.5 - g, 0.0), 1e-10),
        ("seed_quartic", "blueQuartic", (1 + 2 / kappa, 1 + 2 / kappa + 3.0),
         quartic_companion, 1e-8),
    )
    for check, curve, (lo, hi), companion, tol in systems:
        worst = 0.0
        for g in np.linspace(lo, hi, n_params):
            # p from C(p, g_c) = 0 at the companion g_c, q from A(p, q, g) = 0
            gc, gc_res = companion(g)
            p = (2 + kappa / 2) * gc - (kappa / 2) * gc**2
            q = p + g - (kappa / 2) * g**2
            pe, qe = _spec.curve_eval(curve, kappa, g)
            worst = max(worst, gc_res, abs(p - pe), abs(q - qe),
                        abs(_coeff_A(kappa, p, q, g)), abs(_coeff_C(kappa, p, gc)))
        checks.append(_report(check, {"kappa": kappa}, worst, worst < tol))

    # each special point against the curves through it, at their closed-form parameters
    sp = _spec.special_points(kappa)
    meets = (("greenParabola", 0.25 + 1 / kappa, sp.P0),
             ("blueQuartic", 1 + 2 / kappa, sp.Q0),
             ("greenParabola", 1 + 2 / kappa, sp.Q0),
             ("redParabola", -0.5, sp.Q1),
             ("redParabola", 0.25 + 2 / kappa, sp.P1))
    worst = max(abs(c - e) for curve, t, point in meets
                for c, e in zip(_spec.curve_eval(curve, kappa, t), point))
    checks.append(_report("seed_intersections", {"kappa": kappa}, worst, worst < 1e-9))
    return checks


SUITES = ("algebra", "residuals", "seeds", "all")


def run_all_checks(kappa, suite="all", seed=0):
    """The check battery at one kappa; returns report dicts.

    ``suite`` picks "algebra" (the A + B + C sum at 200 random (kappa, p,
    q, alpha) drawn from ``seed``, and the duality of beta), "residuals"
    (the ODE and PDE residuals of the closed forms at z = 0.3 + 0.2j and
    at z = 0.99, -0.99 and 0.99j near the circle, with z2 = 0.25 - 0.15j for
    the two-point PDE), "seeds" (the separatrices re-derived from the
    coefficient system) or "all".  Duality and the residuals are checked at the self-dual exponent
    gamma = 1/kappa + 1/4, the fixed point of gamma -> 2/kappa + 1/2 - gamma.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown check suite {suite!r}; expected one of {SUITES}")
    gamma = 1 / kappa + 0.25
    reports = []
    if suite in ("algebra", "all"):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(200):
            kk, pp, qq, aa = rng.uniform(0.5, 20), *rng.uniform(-5, 5, 3)
            worst = max(worst, abs(abc_check(kk, pp, qq, aa)["sum"]))
        reports.append(_report("abc_sum_random", {"n": 200}, worst, worst < 1e-12))
        dual = duality_check(kappa, parabola_point(kappa, gamma)[0], gamma)
        reports.append(_report("beta_duality", {"kappa": kappa, "gamma": gamma},
                               dual["residual"], dual["residual"] < 1e-12))
    if suite in ("residuals", "all"):
        for z in (0.3 + 0.2j, 0.99, -0.99, 0.99j):
            reports += [ode_residual(kappa, gamma, z), pde_residual(kappa, gamma, z, 0.25 - 0.15j),
                        moduli_residual(kappa, gamma, z), moduli_residual_gform(kappa, gamma, z)]
    if suite in ("seeds", "all"):
        reports.extend(seed_systems(kappa))
    return reports
