"""Tests for the finite-difference verification of the closed forms."""

import numpy as np
import pytest
from scipy.optimize import brentq
from hypothesis import given, settings
from hypothesis import strategies as st

from slelab import residuals as rs
from slelab import spectrum as sp
from slelab.flow import DomainError
from slelab.moments import parabola_point

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
        assert rep["residual"] < 1e-6

    def test_convergence_order(self):
        rep = rs.ode_residual(6.0, 0.5, 0.3 + 0.2j)
        assert 1.8 < rep["order_estimate"] < 2.2

    def test_grid_of_points(self):
        for z in 0.5 * np.exp(1j * np.linspace(0, 2 * np.pi, 20, endpoint=False)):
            rep = rs.ode_residual(2.0, 1.0, z)
            assert rep["residual"] < 1e-6

    def test_perturbed_beta_rejected(self):
        # wrong exponent: residual jumps by orders of magnitude
        p, q = parabola_point(6.0, 0.5)
        G = lambda w: (1 - w) ** (0.5 + 0.05)
        res, _ = rs._apply_P(G, 0.3 + 0.2j, 6.0, p, q, 1e-4)
        assert abs(res) > 1e-2

    def test_nonholomorphic_candidate_flagged(self):
        # |w| fails the Cauchy-Riemann probe; (1-w)^g passes it
        assert rs._holomorphy_probe(lambda w: abs(w), 0.3 + 0.2j, 1e-4) > 1e-3
        assert rs._holomorphy_probe(lambda w: (1 - w) ** 0.5, 0.3 + 0.2j, 1e-4) < 1e-8

    def test_bad_point_rejected(self):
        with pytest.raises(DomainError):
            rs.ode_residual(6.0, 0.5, 1.2)


class TestPDEResiduals:
    @pytest.mark.parametrize("kappa,gamma", [(2.0, 1.0), (6.0, 0.5)])
    def test_two_point_passes(self, kappa, gamma):
        rep = rs.pde_residual(kappa, gamma, 0.3 + 0.2j, 0.25 - 0.15j)
        assert rep["pass"]
        assert 1.8 < rep["order_estimate"] < 2.2

    @pytest.mark.parametrize("kappa,gamma", [(2.0, 1.0), (6.0, 0.5)])
    def test_moduli_passes(self, kappa, gamma):
        rep = rs.moduli_residual(kappa, gamma, 0.3 + 0.2j)
        assert rep["pass"]
        assert 1.8 < rep["order_estimate"] < 2.2

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


class TestSeedSystems:
    @pytest.mark.parametrize("kappa", [0.5, 2.0, 6.0, 12.0, 50.0])
    def test_all_seed_checks_pass(self, kappa):
        reps = rs.seed_systems(kappa)
        assert [r["check"] for r in reps] == ["seed_red", "seed_green", "seed_quartic",
                                              "seed_intersections"]
        for rep in reps:
            assert rep["pass"], rep

    @pytest.mark.parametrize("kappa", [0.5, 2.0, 6.0, 12.0, 50.0])
    def test_roots_match_brentq_oracle(self, kappa):
        # the closed-form curve parameters and Newton's companion exponent
        # against bracketed root-finds on the curve equations themselves
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
        np.testing.assert_allclose(rs._intersection_params(kappa), oracle, rtol=0, atol=1e-13)
        np.testing.assert_allclose(oracle, (0.25 + 1 / kappa, -0.5, 0.25 + 2 / kappa),
                                   rtol=0, atol=1e-13)
        for g in np.linspace(1 + 2 / kappa, 4 + 2 / kappa, 7):
            target = (4 + kappa) / 2 * g - kappa * g**2 - 1
            # the lower root lies below the vertex of the concave left side
            g0_oracle = brentq(lambda g0: (8 + kappa) / 2 * g0 - kappa * g0**2 - target,
                               -10.0, (8 + kappa) / (4 * kappa), xtol=1e-15)
            g0_exact = rs._quartic_gamma0(kappa, g)
            assert abs(rs._companion_gamma0(kappa, g, g0_exact - 0.1) - g0_oracle) < 1e-13
            assert abs(g0_exact - g0_oracle) < 1e-13

    def test_no_root_in_bracket_rejected(self):
        # t^2 - 1 has roots +-1, none of them in [2, 3]; t^2 + 1 has none
        assert rs._quadratic_root_in(1.0, 0.0, -1.0, 0.5, 3.0) == 1.0
        with pytest.raises(DomainError):
            rs._quadratic_root_in(1.0, 0.0, -1.0, 2.0, 3.0)
        with pytest.raises(DomainError):
            rs._quadratic_root_in(1.0, 0.0, 1.0, -3.0, 3.0)

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
    def test_run_all_checks_schema(self):
        for suite in rs.SUITES:
            reports = rs.run_all_checks(6.0, suite=suite)
            assert reports
            for r in reports:
                assert list(r) == ["check", "inputs", "residual", "order_estimate", "pass"], r
            assert all(r["pass"] for r in reports)

    def test_run_all_checks_suites(self):
        names = {suite: [r["check"] for r in rs.run_all_checks(6.0, suite=suite, seed=1)]
                 for suite in rs.SUITES}
        assert names["algebra"] == ["abc_sum_random", "beta_duality"]
        assert names["residuals"] == ["one_point_ode", "two_point_pde", "moduli_pde",
                                      "moduli_pde_gform"]
        assert names["all"] == names["algebra"] + names["residuals"] + names["seeds"]
        with pytest.raises(ValueError):
            rs.run_all_checks(6.0, suite="bogus")
