"""Finite-difference verification of the closed-form moment identities.

Every closed-form moment used elsewhere in the package solves a linear
ODE/PDE with a polynomial coefficient field.  This module re-derives the
defining algebra (the A/B/C coefficient system, the boundary-exponent
function and its duality) and applies the differential operators to the
closed forms with central differences, reporting residuals and observed
convergence orders.  The phase-diagram seed curves are also re-derived
numerically from the coefficient system and compared against the exact
parametrizations.
"""

from __future__ import annotations

import numpy as np

from .flow import DomainError
from .moments import closed_moduli, closed_one_point, closed_two_point
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

# central-difference step of every residual
_H = 1e-4


def _order_estimate(residual_at):
    """Observed convergence order from the residuals at steps 4e-3 and 2e-3,
    steps large enough that truncation error dominates roundoff.
    ``residual_at(step)`` returns the absolute residual.
    """
    r_fine = residual_at(2e-3)
    if r_fine == 0:
        return np.inf
    return float(np.log2(residual_at(4e-3) / r_fine))


def _report(check, inputs, residual, passed, order_estimate=None):
    """A check's report dict; every check writes these keys in this order."""
    return {"check": check, "inputs": inputs, "residual": residual,
            "order_estimate": order_estimate, "pass": bool(passed)}


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
# ODE residual for the one-point moment


def _scaling_derivs(G, z, h):
    """z d/dz and (z d/dz)^2 of a holomorphic G via log-variable differences."""
    g = lambda u: G(z * np.exp(u))
    d1 = (g(h) - g(-h)) / (2 * h)
    d2 = (g(h) - 2 * g(0.0) + g(-h)) / h**2
    return d1, d2


def _holomorphy_probe(G, z, h):
    # Cauchy-Riemann check: z d/dz computed along radial and angular rays
    # must agree for a holomorphic integrand
    radial = (G(z * np.exp(h)) - G(z * np.exp(-h))) / (2 * h)
    angular = (G(z * np.exp(1j * h)) - G(z * np.exp(-1j * h))) / (2j * h)
    denom = max(abs(radial), abs(angular), 1.0)
    return abs(radial - angular) / denom


def _apply_P(G, z, kappa, p, q, h):
    d1, d2 = _scaling_derivs(G, z, h)
    terms = (-(kappa / 2) * d2, -(1 + z) / (1 - z) * d1,
             (-p / (1 - z) ** 2 + q / (1 - z) + p - q) * G(z))
    return sum(terms), max(sum(abs(t) for t in terms), 1.0)


def ode_residual(kappa, gamma, z):
    """Residual of the one-point moment ODE on (1 - z)^gamma at z."""
    z = complex(z)
    if abs(z) >= 1 or z == 0:
        raise DomainError("z must lie in the punctured unit disk")
    p, q = parabola_point(kappa, gamma)
    G = lambda w: closed_one_point(w, kappa, gamma)
    cr = _holomorphy_probe(G, z, _H)
    if cr > 1e-6:
        raise DomainError(
            f"integrand fails the holomorphy probe at z={z} (CR mismatch {cr:.2e})"
        )
    res, scale = _apply_P(G, z, kappa, p, q, _H)
    r1 = abs(res)
    order = _order_estimate(lambda hh: abs(_apply_P(G, z, kappa, p, q, hh)[0]))
    return _report("one_point_ode", {"kappa": kappa, "gamma": gamma, "z": [z.real, z.imag],
                                     "h": _H, "scale": scale},
                   r1, r1 / scale < 1e-6, order)


# ---------------------------------------------------------------------------
# PDE residual for the two-point moment


def _cross_term(G, z1, z2b, kappa, h):
    # kappa (z1 d1)(z2b d2b) via a centered cross difference in log variables
    c = (G(z1 * np.exp(h), z2b * np.exp(h)) - G(z1 * np.exp(h), z2b * np.exp(-h))
         - G(z1 * np.exp(-h), z2b * np.exp(h)) + G(z1 * np.exp(-h), z2b * np.exp(-h)))
    return kappa * c / (4 * h**2)


def pde_residual(kappa, gamma, z1, z2):
    """Residual of the two-point moment PDE at (z1, conj(z2))."""
    z1 = complex(z1)
    z2b = np.conj(complex(z2))
    if abs(z1) >= 1 or abs(z2b) >= 1:
        raise DomainError("both points must lie in the unit disk")
    p, q = parabola_point(kappa, gamma)
    G = lambda a, b: closed_two_point(a, b, kappa, gamma)

    def at(hh):
        # the one-variable operator in z1 and in conj(z2), each holding the
        # other fixed; together their zero-order terms contribute 2p - 2q
        t1 = _apply_P(lambda w: G(w, z2b), z1, kappa, p, q, hh)[0]
        t2 = _apply_P(lambda w: G(z1, w), z2b, kappa, p, q, hh)[0]
        tc = _cross_term(G, z1, z2b, kappa, hh)
        return abs(t1 + t2 + tc), max(abs(t1) + abs(t2) + abs(tc), 1.0)

    r1, scale = at(_H)
    order = _order_estimate(lambda hh: at(hh)[0])
    return _report("two_point_pde", {"kappa": kappa, "gamma": gamma, "z1": [z1.real, z1.imag],
                                     "z2": [complex(z2).real, complex(z2).imag],
                                     "h": _H, "scale": scale},
                   r1, r1 / scale < 1e-6, order)


# ---------------------------------------------------------------------------
# PDE residual for moduli moments (non-holomorphic, 2D stencils)


def _stencil_2d(F, x, y, h):
    """All second-order partials of F(x, y) from a 3x3 central stencil."""
    v = {(i, j): F(x + i * h, y + j * h) for i in (-1, 0, 1) for j in (-1, 0, 1)}
    Fx = (v[1, 0] - v[-1, 0]) / (2 * h)
    Fy = (v[0, 1] - v[0, -1]) / (2 * h)
    Fxx = (v[1, 0] - 2 * v[0, 0] + v[-1, 0]) / h**2
    Fyy = (v[0, 1] - 2 * v[0, 0] + v[0, -1]) / h**2
    Fxy = (v[1, 1] - v[1, -1] - v[-1, 1] + v[-1, -1]) / (4 * h**2)
    return v[0, 0], Fx, Fy, Fxx, Fyy, Fxy


def _moduli_operator(F, z, kappa, p, q, h, reduced_potential=False):
    x, y = z.real, z.imag
    F0, Fx, Fy, Fxx, Fyy, Fxy = _stencil_2d(F, x, y, h)
    dF = (Fx - 1j * Fy) / 2
    dbF = (Fx + 1j * Fy) / 2
    d2F = (Fxx - Fyy - 2j * Fxy) / 4
    db2F = (Fxx - Fyy + 2j * Fxy) / 4
    ddbF = (Fxx + Fyy) / 4
    zb = np.conj(z)
    # (z d - zb db)^2 expanded in first and second Wirtinger derivatives
    rot2 = (z * dF + z**2 * d2F - 2 * (abs(z) ** 2) * ddbF
            + zb * dbF + zb**2 * db2F)
    if reduced_potential:
        pot = -p / (1 - z) ** 2 - p / (1 - zb) ** 2 + 2 * p - q
    else:
        pot = (-p / (1 - z) ** 2 - p / (1 - zb) ** 2
               + q / (1 - z) + q / (1 - zb) + 2 * p - 2 * q)
    terms = (-(kappa / 2) * rot2,
             -(1 + z) / (1 - z) * z * dF,
             -(1 + zb) / (1 - zb) * zb * dbF,
             pot * F0)
    return sum(terms), max(sum(abs(t) for t in terms), 1.0)


def moduli_residual(kappa, gamma, z):
    """Residual of the modulus-moment PDE on the two-point diagonal at z."""
    z = complex(z)
    if abs(z) >= 1:
        raise DomainError("z must lie in the unit disk")
    p, q = parabola_point(kappa, gamma)
    F = lambda x, y: closed_moduli(x + 1j * y, kappa, gamma)
    res, scale = _moduli_operator(F, z, kappa, p, q, _H)
    r1 = abs(res)
    order = _order_estimate(lambda hh: abs(_moduli_operator(F, z, kappa, p, q, hh)[0]))
    return _report("moduli_pde", {"kappa": kappa, "gamma": gamma, "z": [z.real, z.imag],
                                  "h": _H, "scale": scale},
                   r1, r1 / scale < 1e-6, order)


def moduli_residual_gform(kappa, gamma, z):
    """Equivalent PDE for F/|z|^q: the potential loses its q/(1-z) terms."""
    z = complex(z)
    if abs(z) >= 1 or z == 0:
        raise DomainError("z must lie in the punctured unit disk")
    p, q = parabola_point(kappa, gamma)

    def G(x, y):
        w = x + 1j * y
        return closed_moduli(w, kappa, gamma) / abs(w) ** q

    # the divided-out form has much larger radial curvature, so the h^2
    # truncation term is removed by Richardson extrapolation before testing
    res_h, scale = _moduli_operator(G, z, kappa, p, q, _H, reduced_potential=True)
    res_2h, _ = _moduli_operator(G, z, kappa, p, q, 2 * _H, reduced_potential=True)
    r1 = abs((4 * res_h - res_2h) / 3)
    return _report("moduli_pde_gform", {"kappa": kappa, "gamma": gamma, "z": [z.real, z.imag],
                                        "h": _H, "scale": scale},
                   r1, r1 / scale < 1e-6)


# ---------------------------------------------------------------------------
# numeric re-derivation of the phase-diagram seed curves


def _quartic_gamma0(kappa, gamma):
    """Companion exponent of the quartic seed system, lower branch.

    The discriminant is at least 12 + 6 kappa for real gamma and kappa > 0,
    so it is <= 0 (or nan) only for arguments outside that domain.
    """
    disc = _spec._quartic_disc(kappa, gamma)
    if not disc > 0:
        raise DomainError(f"quartic discriminant {disc} <= 0 at kappa={kappa}, gamma={gamma}")
    return (8 + kappa) / (4 * kappa) - np.sqrt(disc) / (2 * kappa)


def _quadratic_root_in(a, b, c, lo, hi):
    """The root of a t^2 + b t + c = 0 that lies in [lo, hi].

    Both roots come from the cancellation-free pair m / a and c / m with
    m = -(b + sign(b) sqrt(b^2 - 4ac)) / 2.
    """
    disc = b * b - 4 * a * c
    if disc > 0:
        m = -(b + np.copysign(np.sqrt(disc), b)) / 2
        for t in (m / a, c / m):
            if lo <= t <= hi:
                return float(t)
    raise DomainError(f"no root of {a} t^2 + {b} t + {c} in [{lo}, {hi}]")


def _intersection_params(kappa):
    """Curve parameters of the special points P0, Q1 and P1.

    P0: green p(t) = v - (kappa/2) t^2 equals p0 on [0.2, 0.3] + 1/kappa.
    Q1: red p(t) = (2 + kappa/2) t - (kappa/2) t^2 equals p0' on the
    descending branch [-6 - 6/kappa, 0].  P1: red q(t) = (3 + kappa/2) t -
    kappa t^2 equals the ordinate of P0 past the vertex.
    """
    sp = _spec.special_points(kappa)
    v = _spec.delta0_of(kappa)
    g_p0 = _quadratic_root_in(-kappa / 2, 0.0, v - sp.p0, 0.2 + 1 / kappa, 0.3 + 1 / kappa)
    g_q1 = _quadratic_root_in(-kappa / 2, 2 + kappa / 2, -sp.p0prime, -6 - 6 / kappa, 0.0)
    g_vertex = (3 + kappa / 2) / (2 * kappa)
    g_p1 = _quadratic_root_in(-kappa, 3 + kappa / 2, -sp.P0[1],
                              g_vertex, g_vertex + 1 / kappa + 1)
    return g_p0, g_q1, g_p1


def _companion_gamma0(kappa, gamma, start):
    """Companion exponent g0 by Newton's method from ``start``.

    g0 solves (8 + kappa)/2 g0 - kappa g0^2 = (4 + kappa)/2 gamma - kappa
    gamma^2 - 1.  The left side is concave, so from a start below the lower
    root the iterates rise to that root without overshooting it.
    """
    target = (4 + kappa) / 2 * gamma - kappa * gamma**2 - 1
    g0 = start
    for _ in range(50):
        step = ((8 + kappa) / 2 * g0 - kappa * g0**2 - target) / ((8 + kappa) / 2 - 2 * kappa * g0)
        g0 -= step
        if abs(step) <= 1e-12 * (1 + abs(g0)):
            return float(g0)
    raise DomainError(f"Newton's method for the companion exponent did not converge "
                      f"at kappa={kappa}, gamma={gamma}")


def seed_systems(kappa, n_params=7):
    """Re-derive each separatrix from its coefficient-system seeds.

    Red: A = 0 and C = 0 at a common exponent.  Green: A = 0 at gamma' and
    C = 0 at the dual exponent.  Quartic: C = 0 at the companion exponent
    gamma_0(gamma) solving the two-exponent compatibility relation, with
    q fixed by A = 0.  Each reconstruction is compared with the exact
    parametrization, and the curve intersections are compared with the
    named special points.
    """
    checks = []
    sp = _spec.special_points(kappa)

    def quartic_companion(g):
        # solved numerically and compared with the closed form; the closed
        # form raises unless the discriminant is > 0
        g0_exact = _quartic_gamma0(kappa, g)
        g0 = _companion_gamma0(kappa, g, g0_exact - 0.1)
        return g0, abs(g0 - g0_exact)

    # (check, curve, parameter range, companion exponent and its error, tolerance)
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
            gc, gc_err = companion(g)
            p = (2 + kappa / 2) * gc - (kappa / 2) * gc**2
            q = p + g - (kappa / 2) * g**2
            pe, qe = _spec.curve_eval(curve, kappa, g)
            worst = max(worst, gc_err, abs(p - pe), abs(q - qe),
                        abs(_coeff_A(kappa, p, q, g)), abs(_coeff_C(kappa, p, gc)))
        checks.append(_report(check, {"kappa": kappa}, worst, worst < tol))

    # intersections: red/green tangency points and the quartic corner
    p0, q0 = sp.P0
    g_p0, g_q1, g_p1 = _intersection_params(kappa)
    pg, qg = _spec.curve_eval("greenParabola", kappa, g_p0)
    res_P0 = max(abs(pg - p0), abs(qg - q0), abs(g_p0 - (0.25 + 1 / kappa)))

    pq0, qq0 = _spec.curve_eval("blueQuartic", kappa, 1 + 2 / kappa)
    res_Q0 = max(abs(pq0 - sp.Q0[0]), abs(qq0 - sp.Q0[1]))

    # the green arc and the quartic branch share the corner Q0
    pg0, qg0 = _spec.curve_eval("greenParabola", kappa, 1 + 2 / kappa)
    res_Q0 = max(res_Q0, abs(pg0 - sp.Q0[0]), abs(qg0 - sp.Q0[1]))

    pr1, qr1 = _spec.curve_eval("redParabola", kappa, g_q1)
    res_Q1 = max(abs(pr1 - sp.Q1[0]), abs(qr1 - sp.Q1[1]))

    res_P1 = abs(_spec.curve_eval("redParabola", kappa, g_p1)[0] - sp.P1[0])

    worst = max(res_P0, res_Q0, res_Q1, res_P1)
    checks.append(_report("seed_intersections", {"kappa": kappa}, worst, worst < 1e-9))
    return checks


SUITES = ("algebra", "residuals", "seeds", "all")


def run_all_checks(kappa, suite="all", seed=0):
    """The check battery at one kappa; returns report dicts.

    ``suite`` picks "algebra" (the A + B + C sum at 200 random (kappa, p,
    q, alpha) drawn from ``seed``, and the duality of beta), "residuals"
    (the ODE and PDE residuals of the closed forms at z = 0.3 + 0.2j, and
    z2 = 0.25 - 0.15j for the two-point PDE), "seeds" (the separatrices
    re-derived from the coefficient system) or "all".  Duality and the
    residuals are checked at the self-dual exponent gamma = 1/kappa + 1/4,
    the fixed point of gamma -> 2/kappa + 1/2 - gamma.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown check suite {suite!r}; expected one of {SUITES}")
    gamma = 1 / kappa + 0.25
    z = 0.3 + 0.2j
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
        reports.append(ode_residual(kappa, gamma, z))
        reports.append(pde_residual(kappa, gamma, z, 0.25 - 0.15j))
        reports.append(moduli_residual(kappa, gamma, z))
        reports.append(moduli_residual_gform(kappa, gamma, z))
    if suite in ("seeds", "all"):
        reports.extend(seed_systems(kappa))
    return reports
