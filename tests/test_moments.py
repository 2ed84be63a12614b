"""Tests for closed-form moments, estimators, and log coefficients."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slelab import flow, moments, spectrum
from slelab.flow import (
    ConfigError,
    DomainError,
    SimConfig,
    constant_driver,
    evolve,
    sample_ensemble,
)
from slelab.moments import (
    circle_points,
    closed_moduli,
    closed_one_point,
    closed_two_point,
    estimate_moduli,
    estimate_one_point,
    estimate_two_point,
    extract_log_coeffs,
    integral_means_scan,
    log_coeff_moments,
    mfold_identity_check,
    parabola_gamma,
    parabola_gamma_from_pq,
    parabola_point,
)

kappas = st.floats(min_value=0.1, max_value=60.0, allow_nan=False)
gammas = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


class TestParabola:
    def test_known_values_kappa2(self):
        # gamma = 1 gives the (2, 2) pair
        assert parabola_point(2.0, 1.0) == (2.0, 2.0)

    def test_known_values_kappa6(self):
        p, q = parabola_point(6.0, 0.5)
        assert abs(p - 1.75) < 1e-15
        assert abs(q - 1.5) < 1e-15

    def test_q_zero_intersections(self):
        # q = 0 crossings of the parabola sit at p = (6+kappa)(2+kappa)/(8 kappa),
        # equal to 2 for kappa = 2 and kappa = 6
        for kappa in (2.0, 6.0):
            pk = (6 + kappa) * (2 + kappa) / (8 * kappa)
            assert abs(pk - 2.0) < 1e-15
            g = parabola_gamma_from_pq(kappa, pk, 0.0)
            pr, qr = parabola_point(kappa, g)
            assert abs(pr - pk) < 1e-12 and abs(qr) < 1e-12

    @given(kappas, gammas)
    @settings(max_examples=200, deadline=None)
    def test_cartesian_residual_vanishes_on_curve(self, kappa, gamma):
        p, q = parabola_point(kappa, gamma)
        residual = spectrum.cartesian_residual("redParabola", kappa, p, q)
        assert abs(residual) < 1e-8 * max(1, abs(p), abs(q))

    @given(kappas, gammas)
    @settings(max_examples=200, deadline=None)
    def test_gamma_roundtrip(self, kappa, gamma):
        p, q = parabola_point(kappa, gamma)
        assert abs(parabola_gamma_from_pq(kappa, p, q) - gamma) < 1e-7

    def test_gamma_branches(self):
        kappa = 6.0
        p, _ = parabola_point(kappa, 0.5)
        lo = parabola_gamma(kappa, p, branch="-")
        hi = parabola_gamma(kappa, p, branch="+")
        assert abs(lo - 0.5) < 1e-12
        assert hi > lo
        assert abs(parabola_point(kappa, hi)[0] - p) < 1e-12

    def test_gamma_beyond_vertex_rejected(self):
        with pytest.raises(DomainError):
            parabola_gamma(6.0, 10.0)

    @pytest.mark.parametrize("branch", ["x", "", None, "+-"])
    def test_unknown_branch_rejected(self, branch):
        with pytest.raises(DomainError, match=r"'\+' or '-'"):
            parabola_gamma(6.0, 1.0, branch=branch)


class TestClosedForms:
    def test_one_point_kappa2(self):
        assert abs(closed_one_point(0.5, 2.0, 1.0) - 0.5) < 1e-15

    def test_one_point_kappa6(self):
        assert abs(closed_one_point(0.5, 6.0, 0.5) - np.sqrt(0.5)) < 1e-15

    def test_moduli_kappa2_value(self):
        # (1-z)(1-zbar)/(1-z zbar) at z = 0.5 is 1/3
        assert abs(closed_moduli(0.5, 2.0, 1.0) - 1.0 / 3.0) < 1e-15

    def test_two_point_reduces_to_one_point(self):
        z = 0.3 + 0.2j
        assert abs(closed_two_point(z, 0.0, 6.0, 0.5) - closed_one_point(z, 6.0, 0.5)) < 1e-15

    def test_moduli_is_two_point_diagonal(self):
        z = 0.3 - 0.4j
        direct = closed_two_point(z, np.conj(z), 4.0, 0.7)
        assert abs(direct.imag) < 1e-15
        assert abs(closed_moduli(z, 4.0, 0.7) - direct.real) < 1e-15


def mc_sample(points, kappa=2.0, n=400, T=5.0, dt=5e-3, seed=17):
    cfg = SimConfig(kappa=kappa, horizon_T=T, dt=dt, seed=seed)
    return sample_ensemble(cfg, points, n, workers=1)


class TestEstimators:
    def test_estimate_at_origin_is_one(self):
        # the weight at z = 0 is exp(0) for every sample: estimator exact
        s = mc_sample([0.0], n=10, dt=2e-2, T=1.0)
        est = estimate_one_point(s, 2.0, 2.0, 0.0)
        assert abs(est.value - 1.0) < 1e-12
        assert est.stderr < 1e-12

    def test_one_point_matches_closed_form(self):
        s = mc_sample([0.5], n=800)
        est = estimate_one_point(s, 2.0, 2.0, 0.5)
        assert abs(est.value - 0.5) < max(4 * est.stderr, 0.02)

    def test_moduli_matches_closed_form(self):
        s = mc_sample([0.5], n=800)
        est = estimate_moduli(s, 2.0, 2.0, 0.5)
        assert est.value.imag == 0
        assert abs(est.value - 1.0 / 3.0) < max(4 * est.stderr, 0.02)
        assert est.median_of_means is not None

    def test_two_point_with_origin_reduces(self):
        s = mc_sample([0.5], n=50, dt=2e-2, T=2.0)
        a = estimate_two_point(s, 2.0, 2.0, 0.5, 0.0)
        b = estimate_one_point(s, 2.0, 2.0, 0.5)
        assert a.value == b.value

    def test_stationarity_diagnostic_rows(self):
        cfg = SimConfig(kappa=2.0, horizon_T=1.0, dt=2e-2, seed=11)
        rows = moments.stationarity_diagnostic(cfg, 0.3, [0.5, 1.0], 8)
        assert [r[0] for r in rows] == [0.5, 1.0]
        assert all(r[2] >= 0 for r in rows)
        with pytest.raises(DomainError):
            moments.stationarity_diagnostic(cfg, 0.3, [1.0, 0.5], 8)

    def test_stationarity_horizons_validated_before_sampling(self, monkeypatch):
        calls = []
        monkeypatch.setattr(moments, "sample_ensemble",
                            lambda *a, **k: calls.append(a) or sample_ensemble(*a, **k))
        cfg = SimConfig(kappa=2.0, horizon_T=1.0, dt=2e-2, seed=11)
        with pytest.raises(ConfigError, match="horizon_T must be finite"):
            moments.stationarity_diagnostic(cfg, 0.3, [0.5, np.inf], 8)
        assert calls == []

    def test_stationarity_rows_are_moduli_estimates(self):
        cfg = SimConfig(kappa=2.0, horizon_T=1.0, dt=2e-2, seed=11, stream_id=4)
        rows = moments.stationarity_diagnostic(cfg, 0.3, [0.5, 1.0], 8, p=1.5, q=0.5)
        for i, (T, value, stderr) in enumerate(rows):
            tcfg = SimConfig(kappa=2.0, horizon_T=T, dt=2e-2, seed=11, stream_id=4 + 1000 * i)
            est = estimate_moduli(sample_ensemble(tcfg, [0.3], 8), 1.5, 0.5, 0.3)
            assert (value, stderr) == (est.value.real, est.stderr)

    def test_unknown_point_rejected(self):
        s = mc_sample([0.5], n=5, dt=2e-2, T=1.0)
        with pytest.raises(DomainError):
            estimate_one_point(s, 2.0, 2.0, 0.25)


class TestLogCoeffs:
    def test_circle_points(self):
        pts = circle_points(0.5, 4)
        assert np.allclose(pts, [0.5, 0.5j, -0.5, -0.5j])

    @pytest.mark.parametrize("r, M", [(0.5, 0), (0.0, 8), (-0.5, 8), (float("nan"), 8)])
    def test_bad_circle_rejected(self, r, M):
        with pytest.raises(DomainError):
            circle_points(r, M)

    # too few points for n_max = 1, and a circle of radius 0
    @pytest.mark.parametrize("points", [[], [0.0, 0.0], [0.0] * 8])
    def test_degenerate_circle_rejected(self, points):
        s = mc_sample(points, n=2, dt=2e-2, T=1.0)
        with pytest.raises(DomainError):
            extract_log_coeffs(s, 1)

    def test_non_circle_rejected(self):
        s = mc_sample([0.1, 0.2, 0.3, 0.4], n=2, dt=2e-2, T=1.0)
        with pytest.raises(DomainError, match="uniform circle"):
            extract_log_coeffs(s, 1)

    def test_aliasing_guard(self):
        s = mc_sample(circle_points(0.5, 8), n=2, dt=2e-2, T=1.0)
        with pytest.raises(DomainError, match="aliasing guard"):
            extract_log_coeffs(s, 4)

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_n_max_below_one_rejected(self, n_max):
        s = mc_sample(circle_points(0.5, 8), n=2, dt=2e-2, T=1.0)
        with pytest.raises(DomainError, match=f"n_max must be >= 1, got {n_max}"):
            extract_log_coeffs(s, n_max)

    def test_koebe_oracle(self):
        # frozen driver: log(f(z)/z) = -2 log(1+z), so gamma_n = (-1)^n / n
        cfg = SimConfig(kappa=2.0, horizon_T=14.0, dt=5e-3, seed=0)
        pts = circle_points(0.5, 16)
        s = evolve(constant_driver(cfg), cfg, pts)
        stats = extract_log_coeffs(s, 4)
        expect = np.array([(-1.0) ** n / n for n in range(1, 5)])
        assert np.max(np.abs(stats.mean_gamma - expect)) < 1e-5
        assert np.max(np.abs(stats.mean_sq - expect**2)) < 1e-5

    def test_kappa2_statistics_small_n(self):
        cfg = SimConfig(kappa=2.0, horizon_T=6.0, dt=4e-3, seed=23)
        s = sample_ensemble(cfg, circle_points(0.6, 16), 1500)
        stats = extract_log_coeffs(s, 3)
        assert abs(stats.mean_sq[0] - 0.5) < 0.05
        assert abs(stats.mean_sq[1] - 0.125) < 0.02
        assert abs(stats.mean_gamma[0] - (-0.5)) < 0.06
        assert abs(stats.mean_gamma[1]) < 0.05
        assert abs(stats.cross[0] - (-0.125)) < 0.04

    def test_kappa6_statistics_small_n(self):
        # the recursion's kappa = 6 moments, each within 4 standard errors
        cfg = SimConfig(kappa=6.0, horizon_T=6.0, dt=4e-3, seed=23)
        s = sample_ensemble(cfg, circle_points(0.6, 16), 1500)
        stats = extract_log_coeffs(s, 3)
        mean, second = log_coeff_moments(6.0, 2)
        pairs = [(stats.mean_gamma[0], stats.stderr_gamma[0], mean[0]),
                 (stats.mean_gamma[1], stats.stderr_gamma[1], mean[1]),
                 (stats.mean_sq[0], stats.stderr_sq[0], second[0, 0]),
                 (stats.mean_sq[1], stats.stderr_sq[1], second[1, 1]),
                 (stats.cross[0], stats.stderr_cross[0], second[0, 1])]
        for value, stderr, target in pairs:
            assert abs(value - target) < 4 * stderr

    def test_expectation_helpers(self):
        mean, second = log_coeff_moments(2.0, 2)
        assert mean.tolist() == [-0.5, 0.0]
        assert second.tolist() == [[0.5, -0.125], [-0.125, 0.125]]


class TestLogCoeffMoments:
    def test_kappa2_exact(self):
        mean, second = log_coeff_moments(Fraction(2), 11)
        for n in range(1, 11):
            assert mean[n - 1] == (Fraction(-1, 2) if n == 1 else 0)
            assert second[n - 1, n - 1] == Fraction(1, 2 * n * n)
            assert second[n - 1, n] == Fraction(-1, 4 * n * (n + 1))

    def test_kappa6_exact(self):
        mean, second = log_coeff_moments(Fraction(6), 3)
        assert mean.tolist() == [Fraction(-1, 4), Fraction(-1, 28), Fraction(-1, 84)]
        assert second[0, 0] == Fraction(1, 4)
        assert second[1, 1] == Fraction(3, 56)
        assert second[0, 1] == Fraction(-1, 28)

    @pytest.mark.parametrize("kappa", [Fraction(1, 2), Fraction(2), Fraction(6), Fraction(64)])
    def test_second_moment_symmetric(self, kappa):
        _, second = log_coeff_moments(kappa, 12)
        assert (second == second.T).all()

    @pytest.mark.parametrize("kappa", [Fraction(1, 2), Fraction(2), Fraction(6), Fraction(64)])
    def test_float_matches_exact(self, kappa):
        exact = log_coeff_moments(kappa, 20)
        approx = log_coeff_moments(float(kappa), 20)
        for e, a in zip(exact, approx):
            assert a.dtype == np.float64
            e = e.astype(float)
            # relative where the exact value is nonzero; an exact zero (the
            # off-band entries at kappa = 2) is held to the largest entry
            scale = np.where(e != 0, np.abs(e), np.abs(e).max())
            assert np.all(np.abs(a - e) <= 1e-13 * scale)

    @pytest.mark.parametrize("kappa", [Fraction(1, 8), Fraction(3, 10), Fraction(7, 10),
                                       Fraction(6)])
    def test_float_mean_keeps_its_digits_at_small_kappa(self, kappa):
        # a running sum of n c_n would cancel in 1 + sum n c_n, which is
        # small at small kappa and exactly 0 from n = 16 at kappa = 1/8
        exact = log_coeff_moments(kappa, 40)[0]
        approx = log_coeff_moments(float(kappa), 40)[0]
        zero = exact == 0
        assert zero[16:].all() == (kappa == Fraction(1, 8))
        assert (approx[zero] == 0).all()
        e = exact[~zero].astype(float)
        assert np.all(np.abs(approx[~zero] - e) <= 1e-13 * np.abs(e))

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_n_max_below_one_rejected(self, n_max):
        with pytest.raises(DomainError, match=f"n_max must be >= 1, got {n_max}"):
            log_coeff_moments(2.0, n_max)


def _milin(second, n):
    """Expected Milin functional sum_{k<=n} (n - k + 1)(k E|gamma_k|^2 - 1/k)."""
    return sum((n - k + 1) * (k * second[k - 1, k - 1] - Fraction(1, k))
               for k in range(1, n + 1))


class TestMilin:
    second = log_coeff_moments(Fraction(2), 30)[1]

    def test_first_values(self):
        assert _milin(self.second, 1) == Fraction(-1, 2)
        assert _milin(self.second, 2) == Fraction(-5, 4)

    def test_matches_direct_double_sum(self):
        # the kappa = 2 closed form -((n+1)/2) sum_{k=2}^{n+1} 1/k
        for n in range(1, 11):
            closed = -Fraction(n + 1, 2) * sum(Fraction(1, k) for k in range(2, n + 2))
            assert _milin(self.second, n) == closed

    def test_monotone_decreasing(self):
        vals = [_milin(self.second, n) for n in range(1, 30)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


@pytest.fixture(scope="module")
def interior_sample():
    cfg = SimConfig(kappa=2.0, horizon_T=3.0, dt=5e-3, seed=7)
    z0 = 0.4 + 0.2j
    pts = [z0, z0**2, z0**3]
    return z0, evolve(flow.sample_driver(cfg, n_paths=25), cfg, pts)


class TestMfold:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_interior_identity(self, interior_sample, m):
        z0, s = interior_sample
        assert mfold_identity_check(s, m, z0, 2.0, 1.0) < 1e-12

    @pytest.mark.parametrize("m", [-1, -2, -3])
    def test_exterior_identity(self, interior_sample, m):
        z0, s = interior_sample
        assert mfold_identity_check(s, m, 1.0 / z0, 2.0, 1.0) < 1e-12

    def test_m_zero_rejected(self, interior_sample):
        z0, s = interior_sample
        with pytest.raises(DomainError):
            mfold_identity_check(s, 0, z0, 2.0, 1.0)

    def test_m_minus_one_exponent_swap(self, interior_sample):
        # m = -1 sends (p, q) to (p, 2p - q): check the identity numerically
        # against the directly transformed exponents at zeta = 1/z -> z
        z0, s = interior_sample
        p, q = 1.3, 0.4
        qm = p + (q - p) / (-1)
        assert abs(qm - (2 * p - q)) < 1e-15
        assert mfold_identity_check(s, -1, 1.0 / z0, p, q) < 1e-12


class TestMeansScan:
    def test_bad_grid_rejected(self):
        with pytest.raises(DomainError):
            integral_means_scan("closed", 2.0, 2.0, 2.0, [0.5, 0.4])

    @pytest.mark.parametrize("r_grid", [[np.nan] * 4, [0.5, np.nan, 0.7, 0.8],
                                        [0.5, 0.6, 0.7, np.nan]])
    def test_nan_radius_rejected(self, r_grid):
        with pytest.raises(DomainError, match=r"r_grid must be increasing and inside \(0, 1\)"):
            integral_means_scan("closed", 1.75, 1.5, 6.0, r_grid)

    @pytest.mark.parametrize("r_grid", [[], [0.5], [0.5, 0.6]])
    def test_short_grid_rejected(self, r_grid):
        # the slope is fitted over the top half of the grid; the length is
        # checked before a tip-dominated pair (gamma = -1) returns its scan
        for integrand, p, q in [(lambda z: np.ones_like(z, dtype=float), 0.0, 0.0),
                                ("closed", -4.0, -6.0)]:
            with pytest.raises(DomainError, match="at least 3 radii"):
                integral_means_scan(integrand, p, q, 2.0, r_grid)

    def test_off_parabola_rejected(self):
        with pytest.raises(DomainError, match="does not lie on the parabola"):
            integral_means_scan("closed", 2.0, 1.0, 2.0, [0.5, 0.6, 0.7])

    def test_tip_dominated_flag(self):
        # strongly negative gamma: angular integral diverges, no slope fit
        kappa = 6.0
        p, q = parabola_point(kappa, -1.0)
        scan = integral_means_scan("closed", p, q, kappa, [0.5, 0.6, 0.7])
        assert scan.tip_dominated and scan.beta is None

    @pytest.mark.parametrize("kappa,gamma,target", [(6.0, 0.5, 0.75), (2.0, 1.0, 1.0)])
    def test_closed_form_slopes(self, kappa, gamma, target):
        p, q = parabola_point(kappa, gamma)
        r_grid = 1 - np.geomspace(0.5, 1e-4, 50)
        scan = integral_means_scan("closed", p, q, kappa, r_grid)
        assert abs(scan.beta - target) / target < 0.02

    def test_callable_integrand(self):
        r_grid = 1 - np.geomspace(0.1, 1e-4, 20)
        scan = integral_means_scan(lambda z: np.ones_like(z, dtype=float),
                                   0.0, 0.0, 2.0, r_grid)
        # constant integrand: integrals tend to 2 pi, slope ~ 0
        assert abs(scan.beta) < 0.02

    @pytest.mark.parametrize("kappa, gamma, integrand", [
        (6.0, 0.5, "closed"),
        (2.0, 1.0, "closed"),
        (2.0, 0.0, lambda z: np.exp(z) / (1 - z) ** 0.3),   # complex values
    ])
    def test_chunked_rings_sum_as_one(self, kappa, gamma, integrand):
        # each ring is evaluated a chunk at a time into one array and summed
        # once; the bits must be those of the unchunked ring
        p, q = parabola_point(kappa, gamma)
        r_grid = np.concatenate([np.linspace(0.5, 0.99, 6), [0.999, 0.9995, 0.9999]])
        scan = integral_means_scan(integrand, p, q, kappa, r_grid)
        if integrand == "closed":
            g = parabola_gamma_from_pq(kappa, p, q)
            integrand = lambda z: closed_moduli(z, kappa, g) / np.abs(z) ** q  # noqa: E731
        integrals = []
        for r in r_grid:
            M = max(512, int(16.0 / (1.0 - r)))
            ring = np.exp(2j * np.pi * np.arange(M) / M)
            integrals.append(r * np.sum(integrand(r * ring).real) * (2 * np.pi / M))
        assert M > 10 * moments._RING_CHUNK   # the last ring spans many chunks
        integrals = np.array(integrals)
        top = slice(len(r_grid) // 2, None)
        beta = np.polyfit(-np.log(1.0 - r_grid[top] ** 2), np.log(integrals[top]), 1)[0]
        assert np.array_equal(scan.integrals.view(np.uint64), integrals.view(np.uint64))
        assert scan.beta == beta

    @pytest.mark.parametrize("name", ["mc", "", "Closed"])
    def test_unknown_named_integrand_rejected(self, name):
        with pytest.raises(DomainError, match="unknown integrand"):
            integral_means_scan(name, 1.75, 1.5, 6.0, [0.5, 0.7, 0.9])
