"""Checks of slelab outputs against formulas written here, apart from slelab.

Nothing in this module imports slelab.  Each check returns a ``Check``: a
name, whether it passed, and a one-line detail.  Tolerances are stated next
to each check; Monte Carlo estimates are held to ``Z_SIGMA`` reported
standard errors.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

# Monte Carlo estimates must lie within this many reported standard errors
Z_SIGMA = 5.0
# deterministic outputs: relative tolerance on values the program computes in closed form
REL_TOL = 1e-9
# grid points this close to a separatrix may carry either adjacent label
BAND = 1e-7


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def rel_close(a, b, rel=REL_TOL):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.abs(a - b) <= rel * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


# ---------------------------------------------------------------------------
# closed-form moments on the integrability parabola


def parabola_point(kappa, gamma):
    """(p, q) of the integrability parabola at parameter gamma."""
    p = (2 + kappa / 2) * gamma - (kappa / 2) * gamma**2
    return p, 2 * p - (1 + kappa / 2) * gamma


def one_point(z, gamma):
    """E(z^{q/2} f'^{p/2} / f^{q/2}) = (1 - z)^gamma (principal branch)."""
    return (1 - complex(z)) ** gamma


def two_point(z1, z2bar, kappa, gamma):
    """(1 - z1)^g (1 - z2bar)^g (1 - z1 z2bar)^(-kappa g^2 / 2)."""
    z1, z2bar = complex(z1), complex(z2bar)
    return ((1 - z1) ** gamma * (1 - z2bar) ** gamma
            * (1 - z1 * z2bar) ** (-kappa * gamma**2 / 2))


def moduli(z, kappa, gamma):
    """E(|z|^q |f'|^p / |f|^q): the two-point form on the diagonal z2 = z.

    Equal to |1 - z|^{2g} (1 - |z|^2)^{-kappa g^2 / 2}; the two expressions
    are compared so that a slip in either shows.
    """
    z = complex(z)
    direct = abs(1 - z) ** (2 * gamma) * (1 - abs(z) ** 2) ** (-kappa * gamma**2 / 2)
    via_two_point = two_point(z, z.conjugate(), kappa, gamma)
    if not math.isclose(direct, via_two_point.real, rel_tol=1e-12) or abs(via_two_point.imag) > 1e-12 * direct:
        raise ArithmeticError("moduli and two-point forms disagree")
    return direct


def check_estimate(name, estimate, stderr, exact, z_sigma=Z_SIGMA):
    """A Monte Carlo estimate within z_sigma reported standard errors of exact."""
    err = abs(complex(estimate) - complex(exact))
    ok = bool(np.isfinite(err) and stderr > 0 and err <= z_sigma * stderr)
    return Check(name, ok, f"estimate={complex(estimate):.6g} exact={complex(exact):.6g} "
                           f"err={err:.3g} stderr={stderr:.3g}")


# kappa = 2 logarithmic coefficients of log(f(z)/z) = 2 sum gamma_n z^n
def log_coeff_sq(n):
    """E|gamma_n|^2 = 1/(2 n^2)."""
    return 1.0 / (2 * n * n)


def log_coeff_cross(n):
    """E gamma_n conj(gamma_{n+1}) = -1/(4 n (n+1))."""
    return -1.0 / (4 * n * (n + 1))


LOG_COEFF_MEAN_1 = -0.5   # E gamma_1


# ---------------------------------------------------------------------------
# the (p, q) phase diagram


class Diagram:
    """Separatrices and spectra of the kappa phase diagram."""

    def __init__(self, kappa):
        k = float(kappa)
        self.kappa = k
        self.v = (4 + k) ** 2 / (8 * k)            # Delta_0 abscissa, green-arc vertex
        self.p0 = 3 * (4 + k) ** 2 / (32 * k)      # D0
        self.p0prime = -1 - 3 * k / 8              # D0'
        self.d1 = (16 - k * k) / (32 * k)          # D1: q = p + d1
        self.q_P0 = (4 + k) * (8 + k) / (16 * k)
        self.q_Q0 = -2 - 7 * k / 8

    # spectra -------------------------------------------------------------
    def beta_tip(self, p):
        k = self.kappa
        return -p - 1 + (4 + k - np.sqrt((4 + k) ** 2 - 8 * k * p)) / 4

    def beta_0(self, p):
        k = self.kappa
        return -p + (4 + k) * (4 + k - np.sqrt((4 + k) ** 2 - 8 * k * p)) / (4 * k)

    def beta_lin(self, p):
        k = self.kappa
        return p - (4 + k) ** 2 / (16 * k)

    def beta_1(self, p, q):
        return 3 * p - 2 * q - 0.5 - 0.5 * np.sqrt(1 + 2 * self.kappa * (p - q))

    def beta_of(self, region, p, q):
        """Spectrum value for an array of region labels."""
        region = np.asarray(region)
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        out = np.full(p.shape, np.nan)
        with np.errstate(invalid="ignore"):
            for label, f in (("I", lambda: self.beta_tip(p)), ("II", lambda: self.beta_0(p)),
                             ("III", lambda: self.beta_lin(p)), ("IV", lambda: self.beta_1(p, q))):
                sel = region == label
                if sel.any():
                    out[sel] = f()[sel]
        return out

    # separatrices --------------------------------------------------------
    def quartic_poly(self, p):
        """Coefficients in u = 2p - q of the quartic's Cartesian equation at fixed p.

        F = (u^2 - a u + b)(u - e) u - (kappa/2)(u - p)(u - h)^2 with
        a = kappa/8, b = kappa^2/256 - c/4, c = (8+kappa)^2/64 + kappa/4,
        e = 1 + kappa/8, h = 1/4 + kappa/8.
        """
        k = self.kappa
        a = k / 8
        c = (8 + k) ** 2 / 64 + k / 4
        b = k * k / 256 - c / 4
        e = 1 + k / 8
        h = 0.25 + k / 8
        return np.array([1.0, -(a + e + k / 2), a * e + b + (k / 2) * (2 * h + p),
                         -(b * e + (k / 2) * (h * h + 2 * h * p)), (k / 2) * p * h * h])

    def quartic_residual(self, p, q):
        """Cartesian quartic F(p, q) and the size of its terms."""
        k = self.kappa
        u = 2 * p - q
        c = (8 + k) ** 2 / 64 + k / 4
        left = (u * u - k / 8 * u + k * k / 256 - c / 4) * (u - 1 - k / 8) * u
        right = (k / 2) * (p - q) * (u - 0.25 - k / 8) ** 2
        return left - right, np.abs(left) + np.abs(right) + 1.0

    def _quartic_lower_u(self, p):
        # the lower-boundary branch is the largest real root below h = 1/4 + kappa/8;
        # it meets the green arc at Q0 = (p0', -2 - 7 kappa/8), where u = kappa/8
        roots = np.roots(self.quartic_poly(p))
        real = roots[np.abs(roots.imag) < 1e-9 * np.maximum(1, np.abs(roots))].real
        below = real[real < 0.25 + self.kappa / 8]
        return below.max()

    def lower_boundary(self, p):
        """q of the composite lower boundary (quartic, green arc, D1) at each p."""
        p = np.asarray(p, dtype=float)
        uniq, inv = np.unique(p, return_inverse=True)
        qb = np.empty_like(uniq)
        right = uniq >= self.p0
        qb[right] = uniq[right] + self.d1
        mid = (uniq >= self.p0prime) & ~right
        g = np.sqrt(2 * (self.v - uniq[mid]) / self.kappa)   # closed-form green arc
        qb[mid] = self.v + g - self.kappa * g * g
        for i in np.flatnonzero(uniq < self.p0prime):
            qb[i] = 2 * uniq[i] - self._quartic_lower_u(uniq[i])
        return qb[inv].reshape(p.shape)

    def classify(self, p, q):
        """Region labels, and the label each point may carry instead: its own,
        or, within BAND of a separatrix, the label across it."""
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        qb = self.lower_boundary(p)
        upper = np.where(p <= self.p0prime, "I", np.where(p <= self.p0, "II", "III"))
        region = np.where(q < qb, "IV", upper)
        alt = region.copy()
        near_lower = np.abs(q - qb) <= BAND * np.maximum(1.0, np.abs(qb))
        alt = np.where(near_lower, np.where(region == "IV", upper, "IV"), alt)
        near_d0p = (np.abs(p - self.p0prime) <= BAND) & (region != "IV")
        alt = np.where(near_d0p, np.where(region == "I", "II", "I"), alt)
        near_d0 = (np.abs(p - self.p0) <= BAND) & (region != "IV")
        alt = np.where(near_d0, np.where(region == "II", "III", "II"), alt)
        return region, alt


def mfold_q(p, q, m):
    """q_m = (1 - 1/m) p + q/m: the m-fold pullback of the diagram."""
    return (1 - 1 / m) * p + q / m


def check_regions(name, kappa, p, q, m, region, beta):
    """Each (p, q) row's region and spectrum value against Diagram.classify."""
    d = Diagram(kappa)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    m = np.asarray(m, dtype=float)
    region = np.asarray(region)
    qm = mfold_q(p, q, m)
    mine, alt = d.classify(p, qm)
    bad_region = (region != mine) & (region != alt)
    # the program evaluates every region's spectrum at the pulled-back (p, q_m)
    bad_beta = ~rel_close(beta, d.beta_of(region, p, qm))
    n_bad = int(bad_region.sum() + bad_beta.sum())
    detail = f"{len(p)} rows, {int(bad_region.sum())} wrong regions, {int(bad_beta.sum())} wrong beta"
    if n_bad:
        i = int(np.flatnonzero(bad_region | bad_beta)[0])
        detail += f"; first at p={p[i]!r} q={q[i]!r}: {region[i]} beta={beta[i]!r}, expected {mine[i]}"
    return Check(name, n_bad == 0 and len(p) > 0, detail)


CURVE_IDS = ("redParabola", "greenParabola", "blueQuartic", "D0", "D1", "D0prime",
             "Delta0", "Delta1")


def curve_residual(curve_id, kappa, p, q):
    """Residual of the named separatrix's Cartesian equation, relative to its terms."""
    d = Diagram(kappa)
    k = d.kappa
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if curve_id == "redParabola":
        # p = (4+k) u - 2k u^2 with u = (2p - q)/(2 + k)
        u = (2 * p - q) / (2 + k)
        return (p - (4 + k) * u + 2 * k * u * u) / (np.abs(p) + (4 + k) * np.abs(u) + 2 * k * u * u + 1)
    if curve_id == "greenParabola":
        # g = v - u on the arc p = v - (k/2) g^2
        g = d.v - (2 * p - q)
        return (p - d.v + (k / 2) * g * g) / (np.abs(p) + d.v + (k / 2) * g * g + 1)
    if curve_id == "blueQuartic":
        f, scale = d.quartic_residual(p, q)
        return f / scale
    lines = {"D0": p - d.p0, "D0prime": p - d.p0prime, "Delta0": p - d.v,
             "D1": q - p - d.d1, "Delta1": q - p - 1 / (2 * k)}
    if curve_id not in lines:
        raise KeyError(curve_id)
    return lines[curve_id] / (np.abs(p) + np.abs(q) + 1)


def check_curves(name, kappa, m, curve, p, q):
    """Every curve point satisfies its Cartesian equation after the m-fold map."""
    curve = np.asarray(curve)
    p = np.asarray(p, dtype=float)
    qm = mfold_q(p, np.asarray(q, dtype=float), m)
    worst = 0.0
    unknown = sorted(set(curve.tolist()) - set(CURVE_IDS))
    for cid in CURVE_IDS:
        sel = curve == cid
        if sel.any():
            worst = max(worst, float(np.max(np.abs(curve_residual(cid, kappa, p[sel], qm[sel])))))
    missing = sorted(set(CURVE_IDS) - set(curve.tolist()))
    ok = worst <= REL_TOL and not unknown and not missing
    return Check(name, ok, f"{len(p)} points, worst relative residual {worst:.2e}, "
                           f"missing={missing} unknown={unknown}")


def check_grid(name, values, lo, hi, n, repeat, tile):
    """Grid column equals np.linspace(lo, hi, n) laid out row by row."""
    expect = np.linspace(lo, hi, n)
    expect = np.repeat(expect, repeat) if repeat > 1 else np.tile(expect, tile)
    ok = len(values) == len(expect) and bool(np.all(rel_close(values, expect, 1e-12)))
    return Check(name, ok, f"{len(values)} rows, expected {len(expect)}")


def phase_grid_bounds(kappa):
    """Default (p, q) window of ``phase-diagram``: 6 beyond D0', D0, Q0 and P0."""
    d = Diagram(kappa)
    return d.p0prime - 6, d.p0 + 6, d.q_Q0 - 6, d.q_P0 + 6


# ---------------------------------------------------------------------------
# conic (x, y) coordinates


def check_xy(name, kappa, cols):
    """Identities and spectra of every xy-geometry row."""
    k = float(kappa)
    x, y = cols["x"], cols["y"]
    p, q = cols["p"], cols["q"]
    b1, b0, btip, blin, hres = (cols[c] for c in ("beta_1", "beta_0", "beta_tip",
                                                  "beta_lin", "hyperbola_residual"))
    fails = {}
    # 4 kappa (beta_1 - beta_0) factors over the two lines of the conic frame
    fails["factorization"] = ~rel_close(4 * k * (b1 - b0), (2 * y + x - k - 2) * (2 * y - x + 2))
    fails["hyperbola"] = ~rel_close(4 * k * (b1 - btip), hres)
    fails["hyperbola_form"] = ~rel_close(hres, 4 * (y - k / 4) ** 2 - (x - k / 2) ** 2 + 6 * (k + 2))
    # x = sqrt((4+k)^2 - 8 k p), y = sqrt(1 + 2 k (p - q)), inverted
    fails["p"] = ~rel_close(p, ((4 + k) ** 2 - x * x) / (8 * k))
    fails["q"] = ~rel_close(q, (4 + (4 + k) ** 2 - x * x - 4 * y * y) / (8 * k))
    d = Diagram(k)
    fails["beta_1"] = ~rel_close(b1, 3 * p - 2 * q - 0.5 - y / 2)
    fails["beta_0"] = ~rel_close(b0, -p + (4 + k) * (4 + k - x) / (4 * k))
    fails["beta_tip"] = ~rel_close(btip, -p - 1 + (4 + k - x) / 4)
    fails["beta_lin"] = ~rel_close(blin, d.beta_lin(p))
    bad = {key: int(v.sum()) for key, v in fails.items() if v.any()}
    return Check(name, not bad and len(x) > 0, f"{len(x)} rows, failing identities {bad}")


# ---------------------------------------------------------------------------
# universal spectrum (Kraetzer bulk B0(p) = p^2/4)


def check_universal(name, rows, p_dagger=-2.0):
    curves = {"tip": lambda p: 2 * p, "bulk": lambda p: (3 * p - 1 - p * p / 4) / 2,
              "lin": lambda p: p}
    bad = 0
    for curve, p, q, B, fm in rows:
        p, q, B, fm = float(p), float(q), float(B), int(fm)
        bounded = -p - 1 if p <= p_dagger else (p - 1 if p >= 2 else p * p / 4)
        expect_fm = int(p >= 0 and q < min(2.0, 1.25 * p - 0.5))
        if (curve not in curves or not rel_close(q, curves[curve](p))
                or not rel_close(B, max(bounded, 3 * p - 2 * q - 1)) or fm != expect_fm):
            bad += 1
    return Check(name, bad == 0 and len(rows) > 0, f"{len(rows)} rows, {bad} wrong")


# ---------------------------------------------------------------------------
# output readers


def read_csv(path):
    """(columns, rows as lists of strings) of a slelab CSV written with --no-header."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# slelab-csv v1: "):
        raise ValueError(f"{path}: missing schema line")
    columns = lines[0].split(": ", 1)[1].split(",")
    reader = csv.reader(lines[1:])
    header = next(reader)
    if header != columns:
        raise ValueError(f"{path}: header {header} does not match schema {columns}")
    return columns, list(reader)


def read_json_table(path):
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("schema") != "slelab-csv v1":
        raise ValueError(f"{path}: unexpected schema {payload.get('schema')!r}")
    return payload["columns"], payload["rows"]


def float_columns(columns, rows, names):
    idx = {c: i for i, c in enumerate(columns)}
    return {n: np.array([float(r[idx[n]]) for r in rows]) for n in names}


def str_column(columns, rows, name):
    i = columns.index(name)
    return np.array([r[i] for r in rows])
