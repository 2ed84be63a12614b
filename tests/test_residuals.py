"""Tests for the verification of the closed forms."""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import brentq
from hypothesis import given, settings
from hypothesis import strategies as st

from slelab import residuals as rs
from slelab import spectrum as sp
from slelab.flow import DomainError
from slelab import moments

kappas = st.floats(min_value=0.5, max_value=60.0, allow_nan=False)
reals = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


class TestAlgebra:
    @given(kappas, reals, reals, reals)
    @settings(max_examples=300, deadline=None)
    def test_abc_sum_identically_zero(self, kappa, p, q, alpha):
        out = rs.abc_check(kappa, p, q, alpha)
        assert abs(out["sum"]) < 1e-11

    def test_kappa2_specialization(self):
        # at kappa = 2, (p, q) = (2, 2): A = a - a^2, B = 2 - 4a + 2a^2,
        # C = -2 + 3a - a^2
        for a in (-1.0, 0.0, 0.5, 1.0, 2.0):
            out = rs.abc_check(2.0, 2.0, 2.0, a)
            assert abs(out["A"] - (a - a * a)) < 1e-12
            assert abs(out["B"] - (2 - 4 * a + 2 * a * a)) < 1e-12
            assert abs(out["C"] - (-2 + 3 * a - a * a)) < 1e-12

    def test_abc_all_zero_only_at_integrable_point(self):
        # kappa = 2, alpha = 1 kills all three coefficients at (2, 2)
        out = rs.abc_check(2.0, 2.0, 2.0, 1.0)
        assert max(abs(out["A"]), abs(out["B"]), abs(out["C"])) < 1e-12
        out = rs.abc_check(2.0, 2.0, 2.0, 0.5)
        assert abs(out["B"]) > 0.1

    @given(kappas, reals, st.floats(min_value=-2, max_value=2))
    @settings(max_examples=300, deadline=None)
    def test_duality(self, kappa, p, gamma):
        assert rs.duality_check(kappa, p, gamma)["residual"] < 1e-9

    def test_beta_fn_minimum_at_self_dual_point(self):
        # the duality fixed point gamma = 1/kappa + 1/4 minimizes beta_fn
        for kappa in (2.0, 6.0, 50.0):
            g_star = 1 / kappa + 0.25
            vals = [rs.beta_fn(kappa, 1.0, g) for g in np.linspace(g_star - 1, g_star + 1, 41)]
            assert np.argmin(vals) == 20


class TestODEResiduals:
    @pytest.mark.parametrize("kappa,gamma", [(2.0, 1.0), (6.0, 0.5), (6.0, -0.3)])
    def test_closed_form_passes(self, kappa, gamma):
        rep = rs.ode_residual(kappa, gamma, 0.3 + 0.2j)
        assert rep["pass"]
        assert rep["residual"] < 1e-12 * rep["inputs"]["scale"]

    def test_convergence_order(self, monkeypatch):
        # the trapezoid rule converges geometrically: on a circle a quarter
        # of the way to the branch point, each 4 more points cut the
        # derivative error by about 4^4
        z, g = 0.99, 0.5
        exact = np.array([(1 - z) ** g, -g * (1 - z) ** (g - 1),
                          g * (g - 1) / 2 * (1 - z) ** (g - 2)])
        errors = []
        for m in (8, 12, 16):
            monkeypatch.setattr(rs, "_M", m)
            coef = rs._taylor(lambda w: (1 - w) ** g, (z,), [abs(1 - z) / 4])[0]
            errors.append(np.max(np.abs(coef / exact - 1)))
        assert errors[0] > 100 * errors[1] > 1e4 * errors[2]

    def test_grid_of_points(self):
        for z in 0.5 * np.exp(1j * np.linspace(0, 2 * np.pi, 20, endpoint=False)):
            rep = rs.ode_residual(2.0, 1.0, z)
            assert rep["residual"] < 1e-12 * rep["inputs"]["scale"]

    def test_perturbed_beta_rejected(self):
        # a wrong exponent fails by orders of magnitude over the 1e-12 bound
        rep = rs._operator_report("c", {}, 6.0, 0.5, lambda w: (1 - w) ** (0.5 + 1e-6),
                                  (0.3 + 0.2j,))
        assert not rep["pass"]
        assert rep["residual"] > 1e-9 * rep["inputs"]["scale"]

    def test_nonholomorphic_candidate_flagged(self, monkeypatch):
        self._check_nonholomorphic_flagged(0.3 + 0.2j, monkeypatch)

    def test_nonholomorphic_candidate_flagged_near_circle(self, monkeypatch):
        self._check_nonholomorphic_flagged(0.999, monkeypatch)

    @staticmethod
    def _check_nonholomorphic_flagged(z, monkeypatch):
        # |w| has negative-frequency coefficients on the circle; (1-w)^g has none
        radius = [abs(1 - z) / 4]
        assert rs._taylor(lambda w: abs(w), (z,), radius)[1] > 1e-5
        assert rs._taylor(lambda w: (1 - w) ** 0.5, (z,), radius)[1] < 1e-13
        monkeypatch.setattr(rs, "closed_one_point", lambda w, kappa, gamma: abs(w))
        with pytest.raises(DomainError, match="holomorphy probe"):
            rs.ode_residual(6.0, 0.5, z)

    @pytest.mark.parametrize("z1, w", [(0.999, 0.999), (-0.999j, 0.999j), (0.999, 0.25 + 0.15j)])
    def test_taylor_coefficients_are_exact(self, z1, w):
        # the two-point closed form G = (1-a)^g (1-b)^g (1-ab)^-beta against
        # its derivatives from L = log G, 1e-3 from the circle
        kappa, g = 6.0, 0.5
        beta = kappa * g * g / 2
        La = -g / (1 - z1) + beta * w / (1 - z1 * w)
        Lb = -g / (1 - w) + beta * z1 / (1 - z1 * w)
        Laa = -g / (1 - z1) ** 2 + beta * w**2 / (1 - z1 * w) ** 2
        Lbb = -g / (1 - w) ** 2 + beta * z1**2 / (1 - z1 * w) ** 2
        Lab = beta / (1 - z1 * w) ** 2
        G = moments.closed_two_point(z1, w, kappa, g)
        radii = [min(abs(1 - z), abs(1 - z1 * w)) / 4 for z in (z1, w)]
        coef, share = rs._taylor(lambda a, b: moments.closed_two_point(a, b, kappa, g),
                                 (z1, w), radii)
        got = [coef[0, 0], coef[1, 0], coef[0, 1], coef[2, 0], coef[0, 2], coef[1, 1]]
        exact = [G, G * La, G * Lb, G * (Laa + La**2) / 2, G * (Lbb + Lb**2) / 2,
                 G * (Lab + La * Lb)]
        np.testing.assert_allclose(got, exact, rtol=1e-12)
        assert share < 1e-13

    def test_bad_point_rejected(self):
        with pytest.raises(DomainError):
            rs.ode_residual(6.0, 0.5, 1.2)


class TestPDEResiduals:
    @pytest.mark.parametrize("kappa,gamma", [(2.0, 1.0), (6.0, 0.5)])
    def test_two_point_passes(self, kappa, gamma):
        rep = rs.pde_residual(kappa, gamma, 0.3 + 0.2j, 0.25 - 0.15j)
        assert rep["pass"]

    @pytest.mark.parametrize("kappa,gamma", [(2.0, 1.0), (6.0, 0.5)])
    def test_moduli_passes(self, kappa, gamma):
        rep = rs.moduli_residual(kappa, gamma, 0.3 + 0.2j)
        assert rep["pass"]

    def test_moduli_gform_equivalent(self):
        rep = rs.moduli_residual_gform(6.0, 0.5, 0.3 + 0.2j)
        assert rep["pass"]

    def test_moduli_grid(self):
        for z in 0.4 * np.exp(1j * np.linspace(0.1, 2 * np.pi, 20, endpoint=False)):
            assert rs.moduli_residual(2.0, 1.0, z)["pass"]

    def test_outside_disk_rejected(self):
        with pytest.raises(DomainError):
            rs.pde_residual(6.0, 0.5, 1.5, 0.2)
        with pytest.raises(DomainError):
            rs.moduli_residual(6.0, 0.5, -1.1)
        with pytest.raises(DomainError, match="punctured unit disk"):
            rs.moduli_residual_gform(6.0, 0.5, 0.0)

    @pytest.mark.parametrize("bad", [complex("nan"), complex(0.2, float("nan")), float("inf")])
    def test_non_finite_point_rejected(self, bad):
        for check in (lambda z: rs.ode_residual(6.0, 0.5, z),
                      lambda z: rs.pde_residual(6.0, 0.5, 0.2, z),
                      lambda z: rs.pde_residual(6.0, 0.5, z, 0.2),
                      lambda z: rs.moduli_residual(6.0, 0.5, z),
                      lambda z: rs.moduli_residual_gform(6.0, 0.5, z)):
            with pytest.raises(DomainError):
                check(bad)


KAPPAS = (0.5, 2.0, 6.0, 8.0, 30.0)
# where the closed forms' exponents are large: gamma ~ 1/kappa, kappa gamma^2/2 ~ kappa/32
WIDE_KAPPAS = KAPPAS + (0.05, 0.2, 120.0, 1000.0)
INNER = (0.3 + 0.2j, 0.9, 0.97 + 0.2j, 0.99, -0.99, 0.99j)
EDGE = (0.999, -0.999, 0.999j)


def _operator_checks(kappa, gamma, z):
    return (rs.ode_residual(kappa, gamma, z), rs.pde_residual(kappa, gamma, z, 0.25 - 0.15j),
            rs.moduli_residual(kappa, gamma, z), rs.moduli_residual_gform(kappa, gamma, z))


def _relative(rep):
    return rep["residual"] / rep["inputs"]["scale"]


class TestNearCircle:
    @pytest.mark.parametrize("kappa", WIDE_KAPPAS)
    @pytest.mark.parametrize("z", INNER[1:] + EDGE)
    def test_every_operator_check_passes(self, kappa, z):
        # within 0.1 of the circle, on both sides and the imaginary axis
        for rep in _operator_checks(kappa, 1 / kappa + 0.25, z):
            assert rep["pass"], rep
            assert _relative(rep) < 1e-12


def _shift_gamma(monkeypatch, dg):
    monkeypatch.setattr(rs, "closed_one_point",
                        lambda w, kappa, gamma: moments.closed_one_point(w, kappa, gamma + dg))
    monkeypatch.setattr(rs, "closed_two_point",
                        lambda a, b, kappa, gamma: moments.closed_two_point(a, b, kappa, gamma + dg))


def _shift_p(monkeypatch, dp):
    monkeypatch.setattr(rs, "parabola_point",
                        lambda kappa, gamma: tuple(np.add(sp.parabola_point(kappa, gamma), (dp, 0))))


MUTATIONS = {"gamma+1e-6": lambda mp: _shift_gamma(mp, 1e-6),
             "gamma-1e-6": lambda mp: _shift_gamma(mp, -1e-6),
             "p+1e-6": lambda mp: _shift_p(mp, 1e-6)}


class TestMutation:
    """Closed forms off the parabola by 1e-6 fail the 1e-12 bound."""

    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_shift_fails_every_check_inside(self, kappa, mutation, monkeypatch):
        MUTATIONS[mutation](monkeypatch)
        for z in INNER:
            for rep in _operator_checks(kappa, 1 / kappa + 0.25, z):
                assert not rep["pass"], rep

    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_shift_fails_off_diagonal_at_the_edge(self, kappa, mutation, monkeypatch):
        # on the diagonal at |z| = 0.999 the shift sinks toward roundoff;
        # the one-point ODE and the two-point PDE with an interior partner
        # still fail it by orders of magnitude
        MUTATIONS[mutation](monkeypatch)
        gamma = 1 / kappa + 0.25
        for z in EDGE:
            for rep in (rs.ode_residual(kappa, gamma, z),
                        rs.pde_residual(kappa, gamma, z, 0.25 - 0.15j)):
                assert _relative(rep) > 1e-9, rep


SEED_KAPPAS = (0.5, 2.0, 6.0, 12.0, 50.0)


class TestSeedSystems:
    @pytest.mark.parametrize("kappa", SEED_KAPPAS)
    def test_all_seed_checks_pass(self, kappa):
        reps = rs.seed_systems(kappa)
        assert [r["check"] for r in reps] == ["seed_red", "seed_green", "seed_quartic",
                                              "seed_intersections"]
        for rep in reps:
            assert rep["pass"], rep

    @pytest.mark.parametrize("kappa", SEED_KAPPAS)
    def test_roots_match_brentq_oracle(self, kappa):
        # the closed-form curve parameters and companion exponent against
        # bracketed root-finds on the curve equations themselves
        pts = sp.special_points(kappa)
        g_vertex = (3 + kappa / 2) / (2 * kappa)
        oracle = (
            brentq(lambda t: sp.curve_eval("greenParabola", kappa, t)[0] - pts.p0,
                   0.2 + 1 / kappa, 0.3 + 1 / kappa, xtol=1e-15),
            brentq(lambda t: sp.curve_eval("redParabola", kappa, t)[0] - pts.p0prime,
                   -6 - 6 / kappa, 0.0, xtol=1e-15),
            brentq(lambda t: sp.curve_eval("redParabola", kappa, t)[1] - pts.P0[1],
                   g_vertex, g_vertex + 1 / kappa + 1, xtol=1e-15),
        )
        np.testing.assert_allclose(oracle, (0.25 + 1 / kappa, -0.5, 0.25 + 2 / kappa),
                                   rtol=0, atol=1e-13)
        for g in np.linspace(1 + 2 / kappa, 4 + 2 / kappa, 7):
            target = (4 + kappa) / 2 * g - kappa * g**2 - 1
            # the lower root lies below the vertex of the concave left side
            g0_oracle = brentq(lambda g0: (8 + kappa) / 2 * g0 - kappa * g0**2 - target,
                               -10.0, (8 + kappa) / (4 * kappa), xtol=1e-15)
            assert abs(rs._quartic_gamma0(kappa, g) - g0_oracle) < 1e-13

    @pytest.mark.parametrize("kappa", SEED_KAPPAS)
    @pytest.mark.parametrize("companion", ["upper root", "+1e-6", "-1e-6"])
    def test_wrong_companion_fails_seed_quartic(self, kappa, companion, monkeypatch):
        # the upper root solves the same relation but puts p off the quartic
        lower = rs._quartic_gamma0

        def wrong(kappa, g):
            if companion == "upper root":
                return (8 + kappa) / (4 * kappa) + np.sqrt(sp._quartic_disc(kappa, g)) / (2 * kappa)
            return lower(kappa, g) + float(companion)

        monkeypatch.setattr(rs, "_quartic_gamma0", wrong)
        passed = {r["check"]: r["pass"] for r in rs.seed_systems(kappa)}
        assert passed == {"seed_red": True, "seed_green": True, "seed_quartic": False,
                          "seed_intersections": True}

    @pytest.mark.parametrize("kappa", SEED_KAPPAS)
    @pytest.mark.parametrize("point", ["P0", "Q0", "Q1", "P1"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_moved_special_point_fails_seed_intersections(self, kappa, point, axis,
                                                          monkeypatch):
        exact = sp.special_points

        def moved(kappa):
            pts = exact(kappa)
            return dataclasses.replace(pts, **{point: tuple(np.add(getattr(pts, point),
                                                                   np.eye(2)[axis] * 1e-6))})

        monkeypatch.setattr(sp, "special_points", moved)
        passed = {r["check"]: r["pass"] for r in rs.seed_systems(kappa)}
        assert passed == {"seed_red": True, "seed_green": True, "seed_quartic": True,
                          "seed_intersections": False}

    @pytest.mark.parametrize("kappa, gamma", [(-4.0, 0.0), (-2.0, -0.25), (6.0, float("nan"))])
    def test_quartic_gamma0_rejects_nonpositive_discriminant(self, kappa, gamma):
        # the discriminant is 12 + 6 kappa at its minimum gamma = (4 + kappa)/(4 kappa):
        # -12 at kappa = -4, 0 at kappa = -2; nan propagates
        assert not sp._quartic_disc(kappa, gamma) > 0
        with pytest.raises(DomainError):
            rs._quartic_gamma0(kappa, gamma)

    def test_seed_curves_match_atlas(self):
        # agreement between the coefficient-system reconstruction and the
        # parametric curves, sampled beyond the defaults
        kappa = 6.0
        for rep in rs.seed_systems(kappa, n_params=25):
            assert rep["residual"] < 1e-8


class TestReportFormat:
    def test_operator_report(self):
        # the inputs gain the scale; the check passes below 1e-12 of it
        G = lambda w: (1 - w) ** 0.5
        rep = rs._operator_report("c", {"kappa": 6.0}, 6.0, 0.5, G, (0.3 + 0.2j,))
        assert list(rep) == ["check", "inputs", "residual", "pass"]
        assert list(rep["inputs"]) == ["kappa", "scale"] and rep["inputs"]["scale"] >= 1.0
        assert rep["pass"] and rep["residual"] < 1e-12 * rep["inputs"]["scale"]
        rep = rs._operator_report("c", {}, 6.0, 0.5, lambda w: G(w) + 1e-9, (0.3 + 0.2j,))
        assert not rep["pass"]

    def test_run_all_checks_schema(self):
        for suite in rs.SUITES:
            reports = rs.run_all_checks(6.0, suite=suite)
            assert reports
            for r in reports:
                assert list(r) == ["check", "inputs", "residual", "pass"], r
            assert all(r["pass"] for r in reports)

    @pytest.mark.parametrize("kappa", WIDE_KAPPAS)
    def test_run_all_checks_passes_across_kappa(self, kappa):
        reports = rs.run_all_checks(kappa)
        assert len(reports) == 22
        for r in reports:
            assert r["pass"], r

    def test_out_of_float64_range_raises(self):
        # G = 0 or G not finite on a circle has no Taylor coefficients to read
        for G in (lambda w: 0 * w, lambda w: np.where(w.real > 0.3, np.inf, w)):
            with pytest.raises(FloatingPointError, match="float64 range"):
                rs._taylor(G, (0.3 + 0.2j,), [0.1])
        # at kappa = 0.01 the two-point form underflows to 0 about z = 0.99
        with pytest.raises(FloatingPointError, match="float64 range"):
            rs.run_all_checks(0.01, suite="residuals")

    def test_run_all_checks_suites(self):
        names = {suite: [r["check"] for r in rs.run_all_checks(6.0, suite=suite, seed=1)]
                 for suite in rs.SUITES}
        assert names["algebra"] == ["abc_sum_random", "beta_duality"]
        assert names["residuals"] == 4 * ["one_point_ode", "two_point_pde", "moduli_pde",
                                          "moduli_pde_gform"]
        assert names["all"] == names["algebra"] + names["residuals"] + names["seeds"]
        with pytest.raises(ValueError):
            rs.run_all_checks(6.0, suite="bogus")

    def test_residuals_checked_near_the_circle(self):
        points = [complex(*(r["inputs"].get("z") or r["inputs"]["z1"]))
                  for r in rs.run_all_checks(6.0, suite="residuals")]
        assert points == [z for z in (0.3 + 0.2j, 0.99, -0.99, 0.99j) for _ in range(4)]
