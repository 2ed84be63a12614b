"""Tests for the reverse radial flow integrator."""

import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from slelab import flow
from slelab.flow import (
    ConfigError,
    DomainError,
    SimConfig,
    constant_driver,
    evolve,
    refine_driver,
    sample_driver,
    sample_ensemble,
)


def whole_driver(cfg, n_paths=None, first=0):
    """The driver drawn path by path: path i's increments from
    default_rng([seed, stream_id, i]), their cumsum and a zero column."""
    steps = np.diff(flow._time_grid(cfg))
    incr = [np.random.default_rng([cfg.seed, cfg.stream_id, i]).standard_normal(len(steps))
            * np.sqrt(cfg.kappa * steps) for i in range(first, first + (n_paths or 1))]
    theta = np.concatenate([np.zeros((len(incr), 1)), np.cumsum(incr, axis=1)], axis=1)
    return theta[0] if n_paths is None else theta


def whole_refinement(path, cfg):
    """Brownian-bridge midpoints 0.5 (a + b) + z std, path i's normals z from
    default_rng([seed, stream_id, i, 0xB51D6E, number of driver steps])."""
    th = np.atleast_2d(path.theta)
    dt = np.diff(path.times)
    z = [np.random.default_rng([cfg.seed, cfg.stream_id, path.first + k, 0xB51D6E, len(dt)])
         .standard_normal(len(dt)) for k in range(len(th))]
    mid = 0.5 * (th[:, :-1] + th[:, 1:]) + np.multiply(z, np.sqrt(cfg.kappa * dt / 4))
    out = np.empty((th.shape[0], 2 * len(dt) + 1))
    out[:, 0::2] = th
    out[:, 1::2] = mid
    return out[0] if path.theta.ndim == 1 else out


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def traced_peak(fn, *args):
    """Peak bytes that ``fn(*args)`` allocates, as tracemalloc sees them, and its result."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def small_cfg(**kw):
    base = dict(kappa=2.0, horizon_T=1.0, dt=1e-2, seed=11)
    base.update(kw)
    return SimConfig(**base)


class TestConfig:
    def test_n_steps_exact_division(self):
        assert small_cfg(horizon_T=1.0, dt=0.1).n_steps == 10

    def test_n_steps_ragged(self):
        assert small_cfg(horizon_T=1.0, dt=0.3).n_steps == 4

    @pytest.mark.parametrize("kw", [
        dict(kappa=0.0), dict(kappa=-1.0), dict(horizon_T=0.0),
        dict(dt=0.0), dict(dt=2.0, horizon_T=1.0),
        dict(kappa=float("nan")), dict(r_max=float("nan")),
        dict(r_max=0.0), dict(r_max=1.0),
        dict(kappa=float("inf")), dict(horizon_T=float("inf")),
        dict(horizon_T=float("inf"), dt=float("inf")),
    ])
    def test_invalid_config_rejected(self, kw):
        with pytest.raises(ConfigError):
            small_cfg(**kw)


class TestDriver:
    def test_time_grid_covers_horizon(self):
        cfg = small_cfg(horizon_T=1.0, dt=0.3)
        path = sample_driver(cfg)
        assert path.times[0] == 0.0
        assert path.times[-1] == 1.0
        assert np.all(np.diff(path.times) > 0)

    def test_starts_at_zero(self):
        path = sample_driver(small_cfg(), n_paths=5)
        assert np.all(path.theta[:, 0] == 0.0)

    def test_increment_variance(self):
        # chi-square-style bound on the per-step variance kappa * dt
        cfg = small_cfg(kappa=3.0, horizon_T=1.0, dt=0.05, seed=4)
        path = sample_driver(cfg, n_paths=400)
        incr = np.diff(path.theta, axis=-1)
        var = incr.var()
        n = incr.size
        assert abs(var - 3.0 * 0.05) < 5 * 3.0 * 0.05 * np.sqrt(2.0 / n)

    def test_deterministic_given_seed(self):
        cfg = small_cfg(seed=9)
        a = sample_driver(cfg, n_paths=3)
        b = sample_driver(cfg, n_paths=3)
        assert np.array_equal(a.theta, b.theta)

    def test_different_streams_differ(self):
        cfg = small_cfg(seed=9)
        a = sample_driver(cfg)
        b = sample_driver(SimConfig(**{**cfg.__dict__, "stream_id": 1}))
        assert not np.array_equal(a.theta, b.theta)

    def test_refine_keeps_endpoints(self):
        cfg = small_cfg()
        path = sample_driver(cfg, n_paths=2)
        fine, fcfg = refine_driver(path, cfg)
        assert fcfg.dt == cfg.dt / 2
        assert np.array_equal(fine.theta[:, ::2], path.theta)
        assert np.allclose(fine.times[::2], path.times)

    # the ragged grid (4 steps, the last 0.1 long), one chunk of 500 steps
    # and three chunks, the last of 302 steps ending in a 5e-4 step
    @pytest.mark.parametrize("T, dt", [(1.0, 0.3), (2.0, 4e-3), (1.3255, 1e-3)])
    def test_blocks_match_whole_array_oracle(self, T, dt):
        # batches of rows, from path 0 and from path 5, against the oracle
        # that draws every path on its own
        cfg = small_cfg(kappa=6.0, horizon_T=T, dt=dt, seed=21, stream_id=4)
        for n in (None, 1, 2, 7):
            for first in (0, 5):
                path = sample_driver(cfg, n_paths=n, first=first)
                assert same_bits(path.theta, whole_driver(cfg, n, first))
                assert same_bits(refine_driver(path, cfg)[0].theta, whole_refinement(path, cfg))

    def test_rows_do_not_depend_on_n_paths(self):
        cfg = small_cfg(kappa=6.0, horizon_T=2.0, dt=4e-3, seed=22)
        full = sample_driver(cfg, n_paths=12)
        fine = refine_driver(full, cfg)[0].theta
        for n, first in ((1, 0), (5, 0), (12, 0), (4, 5), (1, 11)):
            part = sample_driver(cfg, n_paths=n, first=first)
            assert same_bits(part.theta, full.theta[first:first + n])
            assert same_bits(refine_driver(part, cfg)[0].theta, fine[first:first + n])
        assert same_bits(sample_driver(cfg, first=7).theta, full.theta[7])

    def test_driver_is_the_only_large_array(self):
        cfg = small_cfg(kappa=6.0, horizon_T=8.0, dt=1e-3, seed=23)
        peak, path = traced_peak(sample_driver, cfg, 700)
        assert path.theta.shape == (700, 8001)
        assert peak <= 1.1 * path.theta.nbytes

    def test_ensemble_memory_does_not_grow_with_the_horizon(self):
        # each batch's driver is drawn a chunk at a time inside evolve; a
        # whole 1000-path driver at T = 8 would be 64 MB
        peaks = []
        for T in (8.0, 2.0):
            cfg = small_cfg(kappa=6.0, horizon_T=T, dt=1e-3, seed=25)
            peak, sample = traced_peak(sample_ensemble, cfg, [0.5], 1000)
            assert sample.n_samples == 1000
            peaks.append(peak)
        assert peaks[0] <= 16e6
        assert abs(peaks[0] - peaks[1]) <= 1e6

    def test_driving_point_copies_stay_small(self):
        # each step copies its driving points to the batch's (paths, points)
        # shape, 128 kB each at 1000 x 8.  Without the copies this batch
        # peaked at 10.65 MB (NumPy 2.4.6); two copies live at once may add
        # 2 x 128 kB.  A per-block copy would add 8 MB.
        cfg = small_cfg(kappa=6.0, horizon_T=2.0, dt=1e-3, seed=26)
        ring = 0.5 * np.exp(2j * np.pi * np.arange(8) / 8)
        peak, sample = traced_peak(sample_ensemble, cfg, ring, 1000)
        assert sample.w.shape == (1000, 8)
        assert peak <= 10.65e6 + 2 * 128e3 + 40e3

    def test_refinement_is_the_only_large_array(self):
        cfg = small_cfg(kappa=6.0, horizon_T=8.0, dt=4e-3, seed=24)
        path = sample_driver(cfg, n_paths=700)
        peak, (fine, _) = traced_peak(refine_driver, path, cfg)
        assert fine.theta.shape == (700, 4001)
        assert peak <= 1.1 * fine.theta.nbytes


def theta_zero_oracle(z, T):
    """Independent integration of the frozen-driver flow with its two logs."""

    def rhs(t, y):
        w = y[0] + 1j * y[1]
        s = (w + 1) / (w - 1)
        dw = w * s
        dld = s - 2 * w / (w - 1) ** 2
        dlr = s
        return [dw.real, dw.imag, dld.real, dld.imag, dlr.real, dlr.imag]

    y0 = [z.real, z.imag, 0, 0, 0, 0]
    sol = solve_ivp(rhs, (0.0, T), y0, rtol=1e-11, atol=1e-12, dense_output=False)
    y = sol.y[:, -1]
    return (y[0] + 1j * y[1], y[2] + 1j * y[3], y[4] + 1j * y[5])


class TestEvolve:
    def test_point_outside_disk_rejected(self):
        cfg = small_cfg()
        with pytest.raises(DomainError):
            evolve(constant_driver(cfg), cfg, [0.95])

    @pytest.mark.parametrize("point", [complex("nan"), complex(0.1, float("nan"))])
    def test_nan_point_rejected(self, point):
        # NaN compares false with r_max: the point is rejected before the
        # flow warns on it
        cfg = small_cfg()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"all \|z\| must be <= r_max=0.9"):
                evolve(constant_driver(cfg), cfg, [0.2, point])

    def test_short_driver_rejected(self):
        cfg = small_cfg()
        path = constant_driver(cfg)
        with pytest.raises(DomainError):
            evolve(path, SimConfig(**{**cfg.__dict__, "horizon_T": 2.0}), [0.1])

    def test_long_driver_rejected(self):
        # logf and logfp add cfg.horizon_T, so a driver past it would shift them
        cfg = small_cfg(horizon_T=2.0)
        path = constant_driver(cfg)
        with pytest.raises(DomainError, match="not at cfg.horizon_T=1.0"):
            evolve(path, SimConfig(**{**cfg.__dict__, "horizon_T": 1.0}), [0.1])

    def test_rejected_step_names_its_time(self, monkeypatch):
        # a negative slack makes the monotone check reject the first step
        monkeypatch.setattr(flow, "_MONOTONE_SLACK", -1.0)
        cfg = small_cfg()
        with pytest.raises(flow.SingularityError, match=r"\|w\| failed to decrease at t=0\.0;"):
            evolve(constant_driver(cfg), cfg, [0.5])

    def test_origin_is_exact(self):
        # at w = 0 the drift of both logs is exactly -1, so both equal -T
        cfg = small_cfg(horizon_T=2.0, dt=1e-2)
        states = evolve(sample_driver(cfg), cfg, [0.0])
        assert states.w[0, 0] == 0.0
        assert abs(states.logderiv[0, 0] + 2.0) < 1e-12
        assert abs(states.logratio[0, 0] + 2.0) < 1e-12

    def test_frozen_driver_matches_ivp_oracle(self):
        z = -0.5 + 0.0j
        cfg = small_cfg(horizon_T=1.0, dt=1e-3)
        states = evolve(constant_driver(cfg), cfg, [z])
        w_ref, ld_ref, lr_ref = theta_zero_oracle(z, 1.0)
        assert abs(states.w[0, 0] - w_ref) < 1e-10
        assert abs(states.logderiv[0, 0] - ld_ref) < 1e-10
        assert abs(states.logratio[0, 0] - lr_ref) < 1e-10

    def test_frozen_driver_matches_ivp_oracle_complex_point(self):
        z = 0.3 + 0.4j
        cfg = small_cfg(horizon_T=1.5, dt=1e-3)
        states = evolve(constant_driver(cfg), cfg, [z])
        w_ref, ld_ref, lr_ref = theta_zero_oracle(z, 1.5)
        assert abs(states.w[0, 0] - w_ref) < 1e-10
        assert abs(states.logratio[0, 0] - lr_ref) < 1e-10

    def test_modulus_decreases(self):
        # one driver, cut at each horizon
        cfg = small_cfg(kappa=6.0, horizon_T=0.5, dt=1e-3, seed=2)
        path = sample_driver(cfg)
        pts = [0.5, 0.5j, -0.3 + 0.3j]
        prev = np.abs(np.asarray(pts))
        for frac in (0.25, 0.5, 1.0):
            c = SimConfig(**{**cfg.__dict__, "horizon_T": 0.5 * frac})
            cut = flow.DrivingPath(times=path.times[:c.n_steps + 1],
                                   theta=path.theta[:c.n_steps + 1])
            states = evolve(cut, c, pts)
            cur = np.abs(states.w[0])
            assert np.all(cur < prev)
            prev = cur

    def test_branch_consistency(self):
        # exp of the tracked log-ratio must reproduce w/z exactly up to
        # integrator error, without any unwinding
        cfg = small_cfg(kappa=4.0, horizon_T=2.0, dt=1e-3, seed=5)
        pts = [0.5, -0.4 + 0.2j]
        states = evolve(sample_driver(cfg), cfg, pts)
        recon = np.exp(states.logratio[0]) * np.asarray(pts)
        assert np.max(np.abs(recon - states.w[0])) < 1e-8

    def test_dt_refinement_converges(self):
        # same Brownian path integrated at dt and dt/2 via bridge midpoints:
        # frozen-driver comparison shows ~4th order decay of the difference
        z = 0.4 + 0.1j
        cfg = small_cfg(horizon_T=1.0, dt=4e-2)
        w_ref, _, _ = theta_zero_oracle(complex(z), 1.0)
        errs = []
        c = cfg
        for _ in range(3):
            states = evolve(constant_driver(c), c, [z])
            errs.append(abs(states.w[0, 0] - w_ref))
            c = SimConfig(**{**c.__dict__, "dt": c.dt / 2})
        assert errs[1] < errs[0] / 8
        assert errs[2] < errs[1] / 8

    def test_stochastic_refinement_reduces_distance(self):
        # refining the same Brownian paths halves the step; the mean gap
        # between successive refinements should shrink markedly (on a
        # single path it grows about one time in five)
        cfg = small_cfg(kappa=2.0, horizon_T=1.0, dt=2e-2, seed=21)
        path = sample_driver(cfg, n_paths=200)
        pts = [0.4 + 0.1j]
        w0 = evolve(path, cfg, pts).w[:, 0]
        p1, c1 = refine_driver(path, cfg)
        w1 = evolve(p1, c1, pts).w[:, 0]
        p2, c2 = refine_driver(p1, c1)
        w2 = evolve(p2, c2, pts).w[:, 0]
        assert np.mean(np.abs(w2 - w1)) < 0.75 * np.mean(np.abs(w1 - w0))


def reference_evolve(path, cfg, points):
    """Plain per-step RK4 of the flow in its (w + lam)/(w - lam) form, one
    exp per driving point and no sub-steps, for comparison with ``evolve``."""

    def drift(w, lam):
        s = (w + lam) / (w - lam)
        return w * s, s - 2 * lam * w / (w - lam) ** 2, s

    th = np.atleast_2d(path.theta)[:, :, None]
    w = np.broadcast_to(np.asarray(points, complex), (th.shape[0], len(points))).copy()
    ld = np.zeros_like(w)
    lr = np.zeros_like(w)
    t = path.times
    for k in range(len(t) - 1):
        h = t[k + 1] - t[k]
        lam0, lam1 = np.exp(1j * th[:, k]), np.exp(1j * th[:, k + 1])
        lam_half = np.exp(0.5j * (th[:, k] + th[:, k + 1]))
        k1 = drift(w, lam0)
        k2 = drift(w + h / 2 * k1[0], lam_half)
        k3 = drift(w + h / 2 * k2[0], lam_half)
        k4 = drift(w + h * k3[0], lam1)
        w, ld, lr = (y + h / 6 * (a + 2 * b + 2 * c + d)
                     for y, a, b, c, d in zip((w, ld, lr), k1, k2, k3, k4))
    return w, ld, lr


def brownian_oracle(times, theta, z):
    """DOP853 on each driver step, theta linear inside it: (w, log w', log(w/z))."""
    y = np.array([z, 0, 0], dtype=complex)
    for k in range(len(times) - 1):
        t0, t1 = times[k], times[k + 1]
        slope = (theta[k + 1] - theta[k]) / (t1 - t0)

        def rhs(t, y, th0=theta[k], t0=t0, slope=slope):
            w = y[0]
            lam = np.exp(1j * (th0 + slope * (t - t0)))
            s = (w + lam) / (w - lam)
            return np.array([w * s, s - 2 * lam * w / (w - lam) ** 2, s])

        y = solve_ivp(rhs, (t0, t1), y, method="DOP853", rtol=1e-11, atol=1e-13).y[:, -1]
    return y


class TestKernel:
    def test_path_alone_equals_path_in_batch(self):
        cfg = small_cfg(kappa=6.0, horizon_T=1.0, dt=1e-3, seed=8)
        path = sample_driver(cfg, n_paths=32)
        pts = [0.6, 0.6j]
        batch = evolve(path, cfg, pts)
        for i in (0, 1, 31):
            driver = flow.DrivingPath(times=path.times, theta=path.theta[i])
            alone = evolve(driver, cfg, pts)
            singles = [evolve(driver, cfg, [z]) for z in pts]
            for name in ("w", "logderiv", "logratio"):
                assert np.array_equal(getattr(alone, name)[0], getattr(batch, name)[i])
                for j, single in enumerate(singles):
                    assert getattr(single, name)[0, 0] == getattr(batch, name)[i, j]

    @pytest.mark.parametrize("kappa", [2.0, 6.0])
    def test_brownian_driver_matches_dop853_oracle(self, kappa):
        # With a Brownian driver the RK4 error grows sharply when the driver
        # passes close to a point at |z| = 0.9 (up to 5e-4 at T = 0.2,
        # dt = 5e-4 over 32 seeds), so the points face away from the
        # driver's start and the horizon is short; error control near the
        # circle is ROADMAP item 2.
        cfg = small_cfg(kappa=kappa, horizon_T=0.1, dt=2.5e-4, seed=7)
        path = sample_driver(cfg)
        pts = [-0.6, 0.6j, -0.9, 0.9 * np.exp(0.75j * np.pi)]
        states = evolve(path, cfg, pts)
        for j, z in enumerate(pts):
            ref = brownian_oracle(path.times, path.theta, z)
            got = (states.w[0, j], states.logderiv[0, j], states.logratio[0, j])
            assert np.max(np.abs(np.subtract(got, ref))) < 1e-5

    @pytest.mark.parametrize("value", [0.0, 0.7])
    def test_constant_driver_closed_form(self, value):
        # with lam frozen, v = -w/lam obeys K(v_T) = e^{-T} K(v_0) for the
        # Koebe function K(v) = v/(1-v)^2, and w'(z) = e^{-T} K'(v_0)/K'(v_T)
        cfg = small_cfg(horizon_T=2.0, dt=1e-3)
        z = np.array([0.5, 0.3 + 0.4j, -0.8, 0.85j])
        states = evolve(constant_driver(cfg, value), cfg, z)
        lam = np.exp(1j * value)
        v0, vT = -z / lam, -states.w[0] / lam

        def K(v):
            return v / (1 - v) ** 2

        def dK(v):
            return (1 + v) / (1 - v) ** 3

        assert np.max(np.abs(K(vT) - np.exp(-2.0) * K(v0))) < 1e-10
        fp = np.exp(-2.0) * dK(v0) / dK(vT)
        assert np.max(np.abs(np.exp(states.logderiv[0]) / fp - 1)) < 1e-10

    @pytest.mark.parametrize("T, dt", [(1.0, 0.3), (1.325, 0.01), (0.512, 1e-3),
                                       (1.3255, 1e-3), (8.0, 1e-3)])
    def test_ragged_step_and_partial_block(self, monkeypatch, T, dt):
        # 4 steps, the last 0.1 long; 133 steps, two blocks of 64 and a
        # third of 5, the last step 0.005 long; exactly one chunk of 512
        # steps; 1326 steps, two chunks and a third of 302 steps, its last
        # block of 46 and its last step 5e-4 long; 8000 steps, 16 chunks
        cfg = small_cfg(kappa=3.0, horizon_T=T, dt=dt, seed=13)
        path = sample_driver(cfg, n_paths=3)
        assert path.times[-1] == T
        pts = [0.2, 0.5j, -0.3 + 0.1j]
        states = evolve(path, cfg, pts)
        assert states.substeps == cfg.n_steps
        for got, ref in zip((states.w, states.logderiv, states.logratio),
                            reference_evolve(path, cfg, pts)):
            assert np.max(np.abs(got - ref)) < 1e-12
        # the ensemble draws the same drivers chunk by chunk, in batches of
        # paths 0-1 and 2
        monkeypatch.setattr(flow, "_BATCH_PATHS", 2)
        streamed = sample_ensemble(cfg, pts, 3)
        assert streamed.substeps == 2 * cfg.n_steps
        for name in ("w", "logderiv", "logratio"):
            assert same_bits(getattr(streamed, name), getattr(states, name))


class TestSubsteps:
    def test_one_substep_per_step_in_the_bulk(self):
        cfg = small_cfg(kappa=6.0, horizon_T=0.5, dt=1e-3)
        states = evolve(sample_driver(cfg, n_paths=4), cfg, [0.6, -0.6j, 0.3])
        assert states.substeps == cfg.n_steps

    def test_steps_split_near_the_circle(self, monkeypatch):
        # every step is one RK4 call on the whole batch; the path·points
        # near their driving point, never those at |z| = 0.5, are then
        # re-integrated as a smaller subset
        calls = []
        original = flow._rk4_substep

        def counting(w, *args):
            calls.append(w.size)
            return original(w, *args)

        monkeypatch.setattr(flow, "_rk4_substep", counting)
        cfg = small_cfg(kappa=6.0, horizon_T=0.5, dt=1e-3, r_max=0.99)
        states = evolve(sample_driver(cfg, n_paths=16), cfg, [0.97, 0.5])
        assert states.substeps > cfg.n_steps
        assert states.substeps == len(calls)
        split = [n for n in calls if n != 32]
        assert len(calls) - len(split) == cfg.n_steps
        assert split and max(split) <= 16

    def test_scan_stops_without_changing_a_bit(self, monkeypatch):
        # once every path·point of the ring has moved inside 1 - delta for
        # the steps left, no step can split and |w - lam| is not scanned
        # again; a slack too large for that bound ever to hold scans every
        # step and gives the same bits
        scans = []
        original = flow._near

        def recording(w, lam):
            scans.append(None)
            return original(w, lam)

        monkeypatch.setattr(flow, "_near", recording)
        cfg = small_cfg(kappa=6.0, horizon_T=3.0, dt=1e-3, seed=5, r_max=0.99)
        path = sample_driver(cfg, n_paths=16)
        stopped = evolve(path, cfg, RING)
        n_stopped = len(scans)
        scans.clear()
        monkeypatch.setattr(flow, "_MONOTONE_SLACK", 1.0)
        scanned = evolve(path, cfg, RING)
        assert len(scans) == cfg.n_steps
        assert 0 < n_stopped < cfg.n_steps and n_stopped % flow._BLOCK_STEPS == 0
        assert stopped.substeps == scanned.substeps > cfg.n_steps
        assert same_bits(states_of(stopped), states_of(scanned))

    def test_empty_batch_near_the_circle(self):
        # no path·point of an empty batch comes near its driving point
        cfg = small_cfg(kappa=6.0, horizon_T=0.1, dt=1e-3, r_max=0.99)
        states = evolve(sample_driver(cfg, n_paths=0), cfg, [0.95])
        assert states.w.shape == states.logderiv.shape == (0, 1)
        assert states.substeps == cfg.n_steps

    def test_rejected_substep_names_its_time(self, monkeypatch):
        # the point at |z| = 0.97 is split near its driving point lam = 1;
        # a second sub-step that doubles |w| is rejected at its own time,
        # inside the first macro step
        calls = []
        original = flow._rk4_substep

        def growing(*args):
            calls.append(None)
            w, ld, lr = original(*args)
            return (2 * w if len(calls) == 3 else w), ld, lr

        monkeypatch.setattr(flow, "_rk4_substep", growing)
        cfg = small_cfg(r_max=0.99)
        with pytest.raises(flow.SingularityError, match=r"\|w\| failed to decrease") as exc:
            evolve(constant_driver(cfg), cfg, [0.97])
        t = float(str(exc.value).split("t=")[1].split(";")[0])
        assert len(calls) == 3 and 0 < t < cfg.dt

    def test_collision_names_its_time(self, monkeypatch):
        # a floor above 1 - |z| makes the first sub-step a collision
        monkeypatch.setattr(flow, "_W_LAMBDA_FLOOR", 0.05)
        cfg = small_cfg(r_max=0.99)
        with pytest.raises(flow.SingularityError, match=r"driving singularity at t=0\.0$"):
            evolve(constant_driver(cfg), cfg, [0.3, 0.97])


def probe_driver(kappa, n_paths, T=2.0, dt=1e-3):
    """Driver angles with increments from default_rng(20150421), row after
    row: the first rows of the 64-path batch of perfbench's near-circle
    probe."""
    n = round(T / dt)
    times = dt * np.arange(n + 1)
    times[-1] = T
    incr = (np.random.default_rng(20150421).standard_normal((n_paths, n))
            * np.sqrt(kappa * np.diff(times)))
    theta = np.concatenate([np.zeros((n_paths, 1)), np.cumsum(incr, axis=1)], axis=1)
    return flow.DrivingPath(times=times, theta=theta)


def states_of(s):
    return np.stack([s.w, s.logderiv, s.logratio])


NEAR_POINTS = [0.97, 0.95j, 0.9, 0.97 * np.exp(0.3j)]
# eight points at |z| = 0.97, the ring of perfbench's near-circle ensemble
RING = 0.97 * np.exp(2j * np.pi * np.arange(8) / 8)


class TestNearCircleBatchInvariance:
    """Near the unit circle each path·point takes its own sub-steps, so its
    bits do not depend on the batch it is evolved in."""

    # the first case is perfbench's near-circle probe batch with two more points
    @pytest.mark.parametrize("kappa, T, n_paths, points, checked", [
        (6.0, 2.0, 64, NEAR_POINTS, (0, 1, 63)),
        (2.0, 1.0, 64, NEAR_POINTS[:2], (0, 5)),
        (6.0, 0.5, 7, [0.95, -0.97j, 0.9], range(7)),
        (2.0, 0.5, 7, [0.97], range(7)),
        (6.0, 0.5, 1, NEAR_POINTS[::-1], (0,)),
        (2.0, 0.5, 1, [-0.9, 0.95], (0,)),
        (6.0, 3.0, 16, RING, (0, 15)),
    ])
    def test_alone_equals_batch(self, kappa, T, n_paths, points, checked):
        path = probe_driver(kappa, n_paths, T)
        cfg = SimConfig(kappa=kappa, horizon_T=T, dt=1e-3, r_max=0.99)
        batch = states_of(evolve(path, cfg, points))
        for i in checked:
            for j, z in enumerate(points):
                alone = evolve(flow.DrivingPath(times=path.times, theta=path.theta[i]), cfg, [z])
                assert same_bits(states_of(alone)[:, 0, 0], batch[:, i, j].copy())

    @pytest.mark.parametrize("kappa", [2.0, 6.0])
    def test_adding_a_path_or_a_point_changes_no_other(self, kappa):
        path = probe_driver(kappa, 8, T=1.0)
        cfg = SimConfig(kappa=kappa, horizon_T=1.0, dt=1e-3, r_max=0.99)
        points = [0.95j, 0.9, 0.97 * np.exp(0.3j)]
        base = states_of(evolve(flow.DrivingPath(times=path.times, theta=path.theta[1:]),
                                cfg, points))
        more_paths = states_of(evolve(path, cfg, points))
        more_points = states_of(evolve(flow.DrivingPath(times=path.times, theta=path.theta[1:]),
                                       cfg, [0.97] + points))
        assert same_bits(more_paths[:, 1:].copy(), base)
        assert same_bits(more_points[:, :, 1:].copy(), base)

    def test_ensemble_near_the_circle_does_not_depend_on_batching(self, monkeypatch):
        cfg = small_cfg(kappa=6.0, horizon_T=0.5, dt=1e-3, r_max=0.99, seed=4)
        whole = states_of(sample_ensemble(cfg, [0.97, -0.95j], 12))
        monkeypatch.setattr(flow, "_BATCH_PATHS", 5)
        batched = states_of(sample_ensemble(cfg, [0.97, -0.95j], 12, workers=2))
        assert same_bits(batched, whole)


class TestSamples:
    def test_whole_plane_logs(self):
        cfg = small_cfg(horizon_T=3.0, dt=5e-3)
        s = evolve(sample_driver(cfg), cfg, [0.2, 0.2j])
        assert s.logf.shape == (1, 2)
        # log f - log z should stay bounded (f(z)/z -> derivative-like value)
        assert np.all(np.abs(s.logf - np.log(np.array([0.2, 0.2j]))) < 10)

    def test_point_index(self):
        cfg = small_cfg()
        s = evolve(sample_driver(cfg), cfg, [0.2, 0.3])
        assert s.point_index(0.3) == 1
        with pytest.raises(DomainError):
            s.point_index(0.4)

    def test_frozen_driver_whole_plane_limit(self):
        # theta == 0 limit map is z / (1 + z)^2; at T = 12 truncation
        # error is far below the tolerance
        cfg = small_cfg(horizon_T=12.0, dt=5e-3)
        z = 0.3 + 0.2j
        s = evolve(constant_driver(cfg), cfg, [z])
        f = np.exp(s.logf[0, 0])
        assert abs(f - z / (1 + z) ** 2) < 1e-4
        fp = np.exp(s.logfp[0, 0])
        assert abs(fp - (1 - z) / (1 + z) ** 3) < 1e-4

    def test_ensemble_deterministic(self):
        cfg = small_cfg(seed=3)
        a = sample_ensemble(cfg, [0.2], 25)
        b = sample_ensemble(cfg, [0.2], 25)
        assert np.array_equal(a.logf, b.logf)
        assert np.array_equal(a.logfp, b.logfp)

    def test_ensemble_worker_invariance(self, monkeypatch):
        monkeypatch.setattr(flow, "_BATCH_PATHS", 10)
        cfg = small_cfg(seed=3)
        a = sample_ensemble(cfg, [0.2], 25, workers=1)
        b = sample_ensemble(cfg, [0.2], 25, workers=4)
        assert np.array_equal(a.logf, b.logf)
        assert np.array_equal(a.logfp, b.logfp)

    def test_ensemble_counts(self, monkeypatch):
        # batches of 10, 10 and 5 paths, none of whose steps is split
        monkeypatch.setattr(flow, "_BATCH_PATHS", 10)
        cfg = small_cfg()
        s = sample_ensemble(cfg, [0.2], 25)
        assert s.n_samples == 25
        assert s.substeps == 3 * cfg.n_steps

    @pytest.mark.parametrize("batch", [1, 7, 1000])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_path_does_not_depend_on_batching(self, monkeypatch, batch, workers):
        # path i of the ensemble is path i of the per-path oracle, in any
        # batch and under any worker count, at |z| <= 0.9
        monkeypatch.setattr(flow, "_BATCH_PATHS", batch)
        cfg = small_cfg(kappa=6.0, seed=30, stream_id=2)
        pts = [0.5, 0.9j, -0.6 + 0.3j]
        s = sample_ensemble(cfg, pts, 20, workers=workers)
        assert s.n_samples == 20
        for i in range(20):
            alone = evolve(flow.DrivingPath(times=flow._time_grid(cfg),
                                            theta=whole_driver(cfg, first=i)), cfg, pts)
            for name in ("w", "logderiv", "logratio"):
                assert same_bits(getattr(s, name)[i], getattr(alone, name)[0])

    def test_bad_ensemble_size_rejected(self):
        with pytest.raises(ConfigError, match="n_samples must be >= 0"):
            sample_ensemble(small_cfg(), [0.2], -1)

    @pytest.mark.parametrize("workers, n_samples", [(1, 5), (2, 5), (2, 2)],
                             ids=["1", "2", "2-one-batch"])
    def test_one_worker_runs_in_the_calling_thread(self, monkeypatch, workers, n_samples):
        # a pool thread costs peak memory that one worker, or one batch,
        # does not need
        caller = threading.current_thread()
        in_caller = set()
        original = flow.evolve

        def recording(*args):
            in_caller.add(threading.current_thread() is caller)
            return original(*args)

        monkeypatch.setattr(flow, "evolve", recording)
        monkeypatch.setattr(flow, "_BATCH_PATHS", 2)
        sample_ensemble(small_cfg(horizon_T=0.1), [0.2], n_samples, workers=workers)
        assert in_caller == {workers == 1 or n_samples <= 2}

    @pytest.mark.parametrize("workers", [0, -3])
    def test_bad_worker_count_rejected(self, workers):
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            sample_ensemble(small_cfg(), [0.2], 5, workers=workers)

    @pytest.mark.parametrize("point, n_samples", [(0.95, 0), (complex("nan"), 0),
                                                  (complex("nan"), 1), (complex(0.1, np.nan), 3)])
    def test_points_checked_whatever_the_ensemble_size(self, point, n_samples):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"all \|z\| must be <= r_max=0.9"):
                sample_ensemble(small_cfg(), [0.2, point], n_samples)

    def test_empty_ensemble(self):
        cfg = small_cfg()
        s = sample_ensemble(cfg, [0.2], 0)
        assert s.n_samples == 0
