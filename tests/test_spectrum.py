"""Tests for the exact spectrum, phase diagram, and universal partition."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from slelab import spectrum as sp
from slelab.flow import DomainError

kappas = st.floats(min_value=0.5, max_value=60.0, allow_nan=False)


class TestBetas:
    def test_beta0_known_value(self):
        # kappa = 6, p = 2: disc = 100 - 96 = 4, beta0 = -2 + 10*8/24 = 4/3
        assert abs(sp.beta_0(2.0, 6.0) - 4.0 / 3.0) < 1e-14

    def test_beta_tip_known_value(self):
        val = sp.beta_tip(-4.0, 6.0)
        assert abs(val - (3 + (10 - np.sqrt(292)) / 4)) < 1e-14

    def test_beta_lin_known_value(self):
        assert abs(sp.beta_lin(10.0, 6.0) - (10 - 100.0 / 96.0)) < 1e-12

    def test_beta1_at_origin(self):
        # p = q = 0: 3*0 - 0 - 1/2 - 1/2 = -1
        assert abs(sp.beta_1(0.0, 0.0, 6.0) + 1.0) < 1e-14

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sp.beta_0(10.0, 6.0)
        with pytest.raises(DomainError):
            sp.beta_1(0.0, 5.0, 6.0)

    @given(kappas, st.floats(min_value=-5, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_beta1_above_beta_lin(self, kappa, p):
        # beta_1 - beta_lin = (1/kappa)(kappa/4 - y)^2 >= 0 wherever defined
        q = p - abs(p) - 0.1   # keeps 1 + 2 kappa (p - q) > 0
        d = 1 + 2 * kappa * (p - q)
        y = np.sqrt(d)
        gap = sp.beta_1(p, q, kappa) - sp.beta_lin(p, kappa)
        assert gap >= -1e-12
        assert abs(gap - (kappa / 4 - y) ** 2 / kappa) < 1e-9


class TestSpecialPoints:
    def test_kappa6_values(self):
        s = sp.special_points(6.0)
        assert np.allclose(s.P0, (1.5625, 35.0 / 24.0), atol=1e-12)
        assert np.allclose(s.P1, (14 * 26 / 192.0, 35.0 / 24.0), atol=1e-12)
        assert np.allclose(s.Q0, (-3.25, -7.25), atol=1e-12)
        assert np.allclose(s.Q1, (-3.25, -4.5), atol=1e-12)
        assert abs(s.p0dblprime - (-100 * 14 / 128.0)) < 1e-12

    def test_p_star_on_green_q0_section(self):
        # p* solves the green parabola's q = 0 equation
        for kappa in (2.0, 6.0, 50.0):
            s = sp.special_points(kappa)
            # find the green parameter with q = 0 near the lower arc
            g = brentq(lambda t: sp.curve_eval("greenParabola", kappa, t)[1],
                       1e-9, 10 / np.sqrt(kappa) + 3, xtol=1e-15)
            p_on = sp.curve_eval("greenParabola", kappa, g)[0]
            assert abs(p_on - s.p_star) < 1e-9

    def test_tangency_points_on_their_curves(self):
        for kappa in (2.0, 6.0):
            s = sp.special_points(kappa)
            assert np.allclose(s.T1, sp.curve_eval("redParabola", kappa, 1 / kappa))
            assert np.allclose(s.T0, sp.curve_eval("redParabola", kappa, 2 / kappa + 0.5))
            assert np.allclose(s.T2, sp.curve_eval("greenParabola", kappa, 1 / kappa))


class TestCurves:
    @pytest.mark.parametrize("curve", ["redParabola", "greenParabola", "blueQuartic"])
    @pytest.mark.parametrize("kappa", [2.0, 6.0, 50.0])
    def test_cartesian_residual_vanishes_on_curve(self, curve, kappa):
        lo = 1 + 2 / kappa if curve == "blueQuartic" else -1.0
        for t in np.linspace(lo, lo + 2.5, 17):
            p, q = sp.curve_eval(curve, kappa, t)
            res = sp.cartesian_residual(curve, kappa, p, q)
            assert abs(res) < 1e-8 * max(1.0, abs(p) ** 4 + abs(q) ** 4)

    def test_cartesian_residual_nonzero_off_curve(self):
        assert abs(sp.cartesian_residual("redParabola", 6.0, 1.0, -2.0)) > 1e-3

    def test_unknown_curve(self):
        with pytest.raises(DomainError):
            sp.curve_eval("mauveSeptic", 6.0, 0.0)

    def test_lower_boundary_segments_join(self):
        for kappa in (2.0, 6.0, 50.0):
            s = sp.special_points(kappa)
            # continuity at the segment junctions
            for pj in (s.p0prime, s.p0):
                a = sp.lower_boundary_q(pj - 1e-9, kappa)
                b = sp.lower_boundary_q(pj + 1e-9, kappa)
                assert abs(a - b) < 1e-6

    def test_lower_boundary_hits_Q0_and_P0(self):
        kappa = 6.0
        s = sp.special_points(kappa)
        assert abs(sp.lower_boundary_q(s.p0prime, kappa) - s.Q0[1]) < 1e-9
        assert abs(sp.lower_boundary_q(s.p0, kappa) - s.P0[1]) < 1e-9


class TestClassify:
    def test_trivial_origin(self):
        res = sp.classify(0.0, 0.0, 6.0)
        assert res.region == "II"
        assert res.beta == 0.0

    def test_four_regions_sampled(self):
        kappa = 6.0
        s = sp.special_points(kappa)
        assert sp.classify(s.p0prime - 2, 0.0, kappa).region == "I"
        assert sp.classify(1.0, 1.0, kappa).region == "II"
        assert sp.classify(s.p0 + 2, s.p0 + 2, kappa).region == "III"
        low = sp.lower_boundary_q(1.0, kappa) - 0.5
        assert sp.classify(1.0, low, kappa).region == "IV"

    def test_boundary_flags(self):
        kappa = 6.0
        s = sp.special_points(kappa)
        qb = sp.lower_boundary_q(1.0, kappa)
        res = sp.classify(1.0, qb, kappa)
        assert res.boundary and res.regions == ("IV", "II")
        res = sp.classify(s.p0, 3.0, kappa)
        assert res.boundary and res.regions == ("II", "III")
        res = sp.classify(s.p0prime, 0.0, kappa)
        assert res.boundary and res.regions == ("I", "II")

    @pytest.mark.parametrize("kappa", [2.0, 6.0, 50.0])
    def test_spectrum_continuous_across_lower_boundary(self, kappa):
        s = sp.special_points(kappa)
        for p in np.linspace(s.p0prime - 3, s.p0 + 3, 25):
            qb = sp.lower_boundary_q(p, kappa)
            above = sp.classify(p, qb + 1e-7, kappa).beta
            below = sp.classify(p, qb - 1e-7, kappa).beta
            assert abs(above - below) < 1e-5

    @pytest.mark.parametrize("kappa", [2.0, 6.0, 50.0])
    def test_spectrum_continuous_across_verticals(self, kappa):
        s = sp.special_points(kappa)
        for pj in (s.p0prime, s.p0):
            for q in (s.P0[1] + 1.0, s.P0[1] + 3.0):
                left = sp.classify(pj - 1e-9, q, kappa).beta
                right = sp.classify(pj + 1e-9, q, kappa).beta
                assert abs(left - right) < 1e-6


def _oracle_lower_boundary(p, kappa):
    """The lower boundary by bracketed root-finding on the parametric curves."""
    if p >= sp.p0_of(kappa):
        return p + sp.d1_offset(kappa)
    g_hi = 1 + 2 / kappa
    if p >= sp.p0prime_of(kappa):
        curve, lo, hi = "greenParabola", 0.25 + 1 / kappa - 1e-9, g_hi + 1e-9
    else:
        curve, lo, hi = "blueQuartic", g_hi - 1e-9, g_hi + 1.0
        while sp.curve_eval(curve, kappa, hi)[0] > p:
            hi = g_hi + 2 * (hi - g_hi)
    g = brentq(lambda t: sp.curve_eval(curve, kappa, t)[0] - p, lo, hi, xtol=1e-15)
    return sp.curve_eval(curve, kappa, g)[1]


class TestLowerBoundaryArrays:
    @pytest.mark.parametrize("kappa", [0.5, 2.0, 6.0, 50.0])
    def test_matches_brentq_oracle(self, kappa):
        s = sp.special_points(kappa)
        corners = [s.p0prime, s.p0, np.nextafter(s.p0prime, -np.inf),
                   np.nextafter(s.p0, -np.inf), s.p0prime - 1e-9, s.p0 - 1e-9]
        ps = np.concatenate([np.linspace(s.p0prime - 60, s.p0 + 5, 157), corners])
        qb = sp.lower_boundary_q(ps, kappa)
        assert qb.shape == ps.shape
        for p, q in zip(ps, qb):
            want = _oracle_lower_boundary(p, kappa)
            assert abs(q - want) <= 1e-12 * max(1.0, abs(want)), (p, q, want)
        assert abs(sp.lower_boundary_q(s.p0prime, kappa) - s.Q0[1]) < 1e-12 * max(1, abs(s.Q0[1]))
        assert abs(sp.lower_boundary_q(s.p0, kappa) - s.P0[1]) < 1e-12 * max(1, abs(s.P0[1]))

    def test_shape_and_scalar_agree(self):
        ps = np.linspace(-12.0, 4.0, 24).reshape(4, 6)
        qb = sp.lower_boundary_q(ps, 6.0)
        assert qb.shape == (4, 6)
        assert np.ndim(sp.lower_boundary_q(-3.0, 6.0)) == 0
        assert all(sp.lower_boundary_q(p, 6.0) == q for p, q in zip(ps.ravel(), qb.ravel()))

    def test_non_finite_quartic_input_raises(self):
        with np.errstate(all="ignore"), pytest.raises(DomainError):
            sp.lower_boundary_q(-np.inf, 6.0)

    @given(st.floats(min_value=0.1, max_value=50.0), st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=150, deadline=None)
    def test_quartic_abscissa_decreasing_and_concave(self, kappa, span):
        # the quartic branch is a graph over p < p0', one g per abscissa
        g = 1 + 2 / kappa + np.linspace(0.0, span, 400)
        p = sp.curve_eval("blueQuartic", kappa, g)[0]
        assert abs(p[0] - sp.p0prime_of(kappa)) < 1e-12 * max(1.0, abs(p[0]))
        assert np.all(np.diff(p) < 0)
        assert np.all(np.diff(p, 2) <= 1e-12 * np.max(np.abs(p)))

    @pytest.mark.parametrize("kappa", [0.5, 2.0, 6.0, 50.0])
    def test_pieces_in_conic_coordinates(self, kappa):
        # D1 is y = kappa/4, the green arc y = x/2 - 1 and the quartic the hyperbola
        s = sp.special_points(kappa)
        pieces = [(np.linspace(s.p0prime - 40, s.p0prime, 80, endpoint=False), "quartic"),
                  (np.linspace(s.p0prime, s.p0, 40, endpoint=False), "arc"),
                  (np.linspace(s.p0, sp.delta0_of(kappa), 41)[:-1], "D1")]
        for p, piece in pieces:
            x, y = sp.xy_forward(p, sp.lower_boundary_q(p, kappa), kappa)
            scale = 1.0 + x**2
            if piece == "quartic":
                res = sp.quartic_hyperbola_residual(x, y, kappa)
            elif piece == "arc":
                res = y - (x / 2 - 1)
            else:
                res = y - kappa / 4
            assert np.all(np.abs(res) <= 1e-12 * scale), (piece, np.max(np.abs(res) / scale))

    def test_non_finite_input_raises(self):
        for p in (np.nan, np.inf, np.array([0.0, -np.inf])):
            with pytest.raises(DomainError, match="p must be finite"):
                sp.lower_boundary_q(p, 6.0)


def _near_separatrices(kappa):
    """Base-plane points on, and within 1e-9 of, every separatrix, plus a grid."""
    s = sp.special_points(kappa)
    pts = []
    for p in np.concatenate([np.linspace(s.p0prime - 4, s.p0 + 4, 21), [s.p0prime, s.p0]]):
        qb = sp.lower_boundary_q(p, kappa)
        pts += [(p, qb + d) for d in (-1e-9, -1e-11, 0.0, 1e-11, 1e-9)]
    for pj in (s.p0prime, s.p0):
        for q in (s.P0[1] + 0.5, s.P0[1] + 3.0, 0.0):
            pts += [(pj + d, q) for d in (-1e-9, -1e-11, 0.0, 1e-11, 1e-9)]
    gp, gq = np.meshgrid(np.linspace(s.p0prime - 5, s.p0 + 5, 31),
                         np.linspace(s.Q0[1] - 5, s.P0[1] + 5, 29), indexing="ij")
    pts += list(zip(gp.ravel(), gq.ravel()))
    return np.array(pts).T


class TestClassifyArrays:
    @pytest.mark.parametrize("p, q, name", [(1.0, np.nan, "q"), (np.nan, 1.0, "p"),
                                            (-np.inf, 1.0, "p"), ([0.0, 1.0], [0.0, np.inf], "q")])
    def test_non_finite_input_raises(self, p, q, name):
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            sp.classify(p, q, 6.0)

    @pytest.mark.parametrize("kappa", [0.5, 6.0, 50.0])
    @pytest.mark.parametrize("m", [1, 3, -2])
    def test_array_equals_scalar_calls(self, kappa, m):
        p, qm = _near_separatrices(kappa)
        q = sp.mfold_map_inv(m)(p, qm)[1]
        res = sp.classify_mfold(p, q, kappa, m) if m != 1 else sp.classify(p, q, kappa)
        assert res.region.shape == res.beta.shape == res.boundary.shape == p.shape
        assert res.regions.shape == p.shape + (2,)
        for i in range(p.size):
            one = (sp.classify_mfold(p[i], q[i], kappa, m) if m != 1
                   else sp.classify(p[i], q[i], kappa))
            assert res.region[i] == one.region
            assert res.beta[i] == one.beta
            assert res.boundary[i] == one.boundary
            assert tuple(res.regions[i]) == (one.regions or ("", ""))
        # every region and both kinds of boundary occur
        assert set(res.region) == {"I", "II", "III", "IV"}
        assert {tuple(r) for r in res.regions[res.boundary]} >= {("I", "II"), ("II", "III")}

    def test_scalar_result_types(self):
        res = sp.classify(1.0, 1.0, 6.0)
        assert res == sp.SpectrumPoint(region="II", beta=res.beta)
        assert type(res.region) is str and type(res.beta) is float


class TestMfoldDiagram:
    def test_map_roundtrip(self):
        T, Tinv = sp.mfold_map(3), sp.mfold_map_inv(3)
        p, q = 1.2, -0.7
        assert np.allclose(Tinv(*T(p, q)), (p, q))

    def test_m_zero_rejected(self):
        with pytest.raises(DomainError):
            sp.mfold_map(0)
        with pytest.raises(DomainError):
            sp.classify_mfold(0.0, 0.0, 6.0, 0)

    def test_m_one_is_identity(self):
        a = sp.classify(0.3, -0.2, 6.0)
        b = sp.classify_mfold(0.3, -0.2, 6.0, 1)
        assert (a.region, a.beta) == (b.region, b.beta)

    @pytest.mark.parametrize("kappa", [0.5, 6.0])
    @pytest.mark.parametrize("m", [2, 3, -2])
    def test_region_iv_spectrum_oracle(self, kappa, m):
        # region IV of the m-fold diagram: beta_1 at (p, q_m), written out in (p, q)
        def oracle(p, q):
            return ((1 + 2 / m) * p - (2 / m) * q - 0.5
                    - 0.5 * np.sqrt(1 + 2 * kappa * (p - q) / m))

        p = np.linspace(-3.0, 3.0, 13)
        qm = sp.lower_boundary_q(p, kappa) - np.linspace(0.1, 2.0, 13)
        q = sp.mfold_map_inv(m)(p, qm)[1]
        res = sp.classify_mfold(p, q, kappa, m)
        assert (res.region == "IV").all()
        assert np.max(np.abs(res.beta - oracle(p, q))) < 1e-12
        for a, b in zip(p, q):
            one = sp.classify_mfold(float(a), float(b), kappa, m)
            assert one.region == "IV"
            assert abs(one.beta - oracle(float(a), float(b))) < 1e-12

    def test_region_sequence_kappa30_m10(self):
        # along q = 0, increasing p: I, II, III, IV
        seen = []
        for p in np.linspace(-20, 12, 3000):
            r = sp.classify_mfold(p, 0.0, 30.0, 10).region
            if not seen or seen[-1] != r:
                seen.append(r)
        assert seen == ["I", "II", "III", "IV"]

    def test_region_sequence_kappa2_m_minus30(self):
        seen = []
        for p in np.linspace(-4, 8, 2000):
            r = sp.classify_mfold(p, 0.0, 2.0, -30).region
            if not seen or seen[-1] != r:
                seen.append(r)
        assert seen == ["I", "II", "IV", "III"]

    def test_m_minus_one_green_q0_crossing(self):
        # pulled-back green parabola crosses q = 0 at p0'' = -(4+k)^2 (8+k)/128
        kappa = 6.0
        Tinv = sp.mfold_map_inv(-1)
        s = sp.special_points(kappa)

        def q_of(t):
            return Tinv(*sp.curve_eval("greenParabola", kappa, t))[1]

        g = brentq(q_of, 1e-6, 3.0, xtol=1e-15)
        p_cross = Tinv(*sp.curve_eval("greenParabola", kappa, g))[0]
        assert abs(p_cross - s.p0dblprime) < 1e-9

    def test_m_minus_one_quartic_meets_q2p_only_at_origin(self):
        # under m = -1 the line q = 2p maps to q = 0 in base coordinates;
        # the quartic's pullback meets it only at the origin
        kappa = 6.0
        Tinv = sp.mfold_map_inv(-1)
        for t in np.linspace(1 + 2 / kappa, 1 + 2 / kappa + 5, 300):
            p, q = Tinv(*sp.curve_eval("blueQuartic", kappa, t))
            gap = q - 2 * p
            if abs(p) > 1e-6:
                assert abs(gap) > 1e-6


class TestXYGeometry:
    @given(kappas, st.floats(min_value=-4, max_value=1.5),
           st.floats(min_value=0.05, max_value=4.0))
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_on_sector(self, kappa, p, dq):
        q = p - dq   # guarantees y real; p < vertex keeps x real
        x, y = sp.xy_forward(p, q, kappa)
        p2, q2 = sp.xy_inverse(x, y, kappa)
        assert abs(p - p2) < 1e-9 and abs(q - q2) < 1e-9

    def test_known_point(self):
        # kappa = 6: (p, q) = (0, 0) maps to (x, y) = (10, 1)
        assert np.allclose(sp.xy_forward(0.0, 0.0, 6.0), (10.0, 1.0))

    def test_outside_sector_rejected(self):
        with pytest.raises(DomainError):
            sp.xy_forward(20.0, 0.0, 6.0)
        with pytest.raises(DomainError):
            sp.xy_forward(np.array([0.0, 20.0]), np.zeros(2), 6.0)

    def test_array_inputs(self):
        p, q = np.array([0.0, 1.0, -2.0]), np.array([0.0, -1.0, -2.5])
        x, y = sp.xy_forward(p, q, 6.0)
        assert [(a, b) for a, b in zip(x, y)] == [sp.xy_forward(a, b, 6.0) for a, b in zip(p, q)]

    @given(kappas, st.floats(min_value=-4, max_value=1.0),
           st.floats(min_value=0.05, max_value=3.0))
    @settings(max_examples=150, deadline=None)
    def test_xy_spectra_match_pq_forms(self, kappa, p, dq):
        q = p - dq
        x, y = sp.xy_forward(p, q, kappa)
        b1, b0, btip, blin = sp.xy_spectra(x, y, kappa)
        assert abs(b1 - sp.beta_1(p, q, kappa)) < 1e-9
        assert abs(b0 - sp.beta_0(p, kappa)) < 1e-9
        assert abs(btip - sp.beta_tip(p, kappa)) < 1e-9
        assert abs(blin - sp.beta_lin(p, kappa)) < 1e-9

    @given(kappas, st.floats(min_value=0.1, max_value=20.0),
           st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=150, deadline=None)
    def test_factorization(self, kappa, x, y):
        # 4 kappa (beta_1 - beta_0) = (2y + x - kappa - 2)(2y - x + 2)
        b1, b0, _, _ = sp.xy_spectra(x, y, kappa)
        lhs = 4 * kappa * (b1 - b0)
        rhs = (2 * y + x - kappa - 2) * (2 * y - x + 2)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))

    @given(kappas, st.floats(min_value=0.1, max_value=20.0),
           st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=150, deadline=None)
    def test_hyperbola_residual(self, kappa, x, y):
        # 4 kappa (beta_1 - beta_tip) equals the shifted-hyperbola expression
        b1, _, btip, _ = sp.xy_spectra(x, y, kappa)
        lhs = 4 * kappa * (b1 - btip)
        rhs = sp.quartic_hyperbola_residual(x, y, kappa)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))

    def test_asymptotes(self):
        info = sp.quartic_asymptotes(6.0)
        (a, b, c), _ = info["xy_lines"][0]["coeffs"], info["xy_lines"][0]["label"]
        assert (a, b, c) == (1.0, -2.0, 0.0)
        a2, b2, c2 = info["xy_lines"][1]["coeffs"]
        assert (a2, b2, c2) == (1.0, 2.0, -6.0)
        assert abs(info["pq_line"]["q_of_p"](0.0) - 1.0) < 1e-12


class TestUniversal:
    def test_piecewise_bounded_spectrum(self):
        assert sp.universal_bounded(-3.0) == 2.0
        assert sp.universal_bounded(3.0) == 2.0
        assert sp.universal_bounded(1.0) == 0.25

    def test_generalized_max_form(self):
        # deep below the partition the mixed branch dominates
        assert sp.universal_B(0.0, -3.0) == 5.0
        # far above it the bounded spectrum dominates
        assert sp.universal_B(0.0, 3.0) == 0.0

    def test_kraetzer_triple_point(self):
        part = sp.universal_partition()
        # tip and bulk partition curves and the B-continuity meet at (-2, -4)
        assert abs(part["tip"]["q_of_p"](-2.0) - (-4.0)) < 1e-12
        assert abs(part["bulk"]["q_of_p"](-2.0) - (-4.0)) < 1e-12
        assert abs(sp.universal_bounded(-2.0) - 1.0) < 1e-12

    def test_partition_continuity_at_two(self):
        part = sp.universal_partition()
        assert abs(part["bulk"]["q_of_p"](2.0) - part["lin"]["q_of_p"](2.0)) < 1e-12

    def test_feng_mcgregor_domain(self):
        assert sp.feng_mcgregor_domain(2.0, 1.0)
        assert not sp.feng_mcgregor_domain(-1.0, -3.0)   # needs p >= 0
        assert not sp.feng_mcgregor_domain(2.0, 2.5)     # q >= 2 excluded

    def test_array_calls_equal_scalar_calls(self):
        p, q = (c.ravel() for c in np.meshgrid(
            np.concatenate([np.linspace(-7, 7, 57), [-6, -2, -0.0, 2, 6, -1e300, 1e300]]),
            np.linspace(-9, 9, 37), indexing="ij"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bounded = sp.universal_bounded(p)
            big_b = sp.universal_B(p, q)
            domain = sp.feng_mcgregor_domain(p, q)
        assert bounded.shape == big_b.shape == domain.shape == p.shape
        assert domain.dtype == bool
        for i in range(p.size):
            assert bounded[i] == sp.universal_bounded(p[i])
            assert big_b[i] == sp.universal_B(p[i], q[i])
            assert domain[i] == sp.feng_mcgregor_domain(p[i], q[i])
        # the branches of the closed forms, written out
        tip, lin, bulk = p <= -2, p >= 2, (-2 < p) & (p < 2)
        assert np.array_equal(bounded[tip], -p[tip] - 1)
        assert np.array_equal(bounded[lin], p[lin] - 1)
        assert np.array_equal(bounded[bulk], p[bulk] ** 2 / 4)
        assert np.array_equal(big_b, np.maximum(bounded, 3 * p - 2 * q - 1))
        assert np.array_equal(domain, (p >= 0) & (q < 2) & (q < 1.25 * p - 0.5))

    def test_koebe_limit(self):
        lim = sp.koebe_limit_partition()
        assert lim["Q0"] == (-1.0, -2.0)
        # spectra: mixed branch is 3p - 2q - 1
        assert lim["spectra"]["IV"](1.0, 0.0) == 2.0
        assert lim["spectra"]["I"](1.0, 0.0) == -2.0
        # separatrix residuals vanish on their lines
        assert lim["red"]["residual"](2.0, 3.0) == 0.0
        assert lim["green"]["residual"](1.0, 1.0) == 0.0
        assert lim["quartic_lower"]["q_of_p"](-1.0) == -2.0
