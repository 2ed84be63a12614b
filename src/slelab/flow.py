"""Reverse radial Loewner flow driven by Brownian motion on the circle.

The flow is integrated pathwise for each initial point ``z`` in the unit
disk, tracking the image ``w``, a continuous branch of ``log`` of the
derivative, and a continuous branch of ``log(w/z)``.  At a finite horizon
``T`` the rescaled map ``e^T * w`` approximates one realization of the
whole-plane random conformal map, and the tracked logarithms give branch
consistent values of ``log f(z)`` and ``log f'(z)``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

__all__ = [
    "ConfigError",
    "DomainError",
    "SingularityError",
    "SimConfig",
    "DrivingPath",
    "WholePlaneSample",
    "sample_driver",
    "constant_driver",
    "refine_driver",
    "evolve",
    "sample_ensemble",
]


class ConfigError(ValueError):
    """Invalid simulation configuration."""


class DomainError(ValueError):
    """An argument lies outside the operation's domain."""


class SingularityError(RuntimeError):
    """The flow came numerically too close to the driving point."""


@dataclass(frozen=True)
class SimConfig:
    kappa: float
    horizon_T: float = 8.0
    dt: float = 1e-3
    seed: int = 0
    stream_id: int = 0
    r_max: float = 0.9

    def __post_init__(self):
        if not 0 < self.kappa < np.inf:
            raise ConfigError(f"kappa must be finite and > 0, got {self.kappa}")
        if not 0 < self.horizon_T < np.inf:
            raise ConfigError(f"horizon_T must be finite and > 0, got {self.horizon_T}")
        if not 0 < self.dt <= self.horizon_T:
            raise ConfigError(f"dt must be in (0, horizon_T], got {self.dt}")
        if not 0 < self.r_max < 1:
            raise ConfigError("r_max must be in (0, 1)")

    @property
    def n_steps(self):
        return int(np.ceil(self.horizon_T / self.dt - 1e-12))


@dataclass(frozen=True)
class DrivingPath:
    """Sampled driving angle theta(t) on a uniform grid; theta[..., 0] == 0.

    ``theta`` has shape (..., N+1); a leading axis indexes independent
    Brownian paths, paths ``first``, ``first + 1``, ... of the ensemble.
    """

    times: np.ndarray
    theta: np.ndarray
    first: int = 0


def _rng(cfg: SimConfig, extra=()):
    return np.random.default_rng([cfg.seed & (2**64 - 1), cfg.stream_id & (2**64 - 1), *extra])


def _time_grid(cfg: SimConfig):
    n = cfg.n_steps
    times = np.minimum(cfg.dt * np.arange(n + 1), cfg.horizon_T)
    times[-1] = cfg.horizon_T
    return times


def _draw_chunks(cfg: SimConfig, n_paths: int, first: int):
    """Yield (c0, c1, cols): theta at steps c0 .. c1 of paths ``first``,
    ``first + 1``, ..., one chunk of at most ``_CHUNK_STEPS`` steps at a time.

    Path k's normals come from its own generator keyed by (seed, stream_id,
    first + k), drawn chunk after chunk: the same stream as one draw.
    Column 0 of a chunk carries the previous chunk's last theta, so the
    in-place cumsum adds left to right as over the whole row.  The chunks
    are views of one buffer that each chunk overwrites.
    """
    scale = np.sqrt(cfg.kappa * np.diff(_time_grid(cfg)))
    gens = [_rng(cfg, (first + k,)) for k in range(n_paths)]
    buf = np.zeros((n_paths, _CHUNK_STEPS + 1))
    for c0 in range(0, len(scale), _CHUNK_STEPS):
        c1 = min(c0 + _CHUNK_STEPS, len(scale))
        buf[:, 0] = buf[:, -1]                # every chunk before the last is full
        cols = buf[:, :c1 - c0 + 1]
        for gen, row in zip(gens, cols):
            gen.standard_normal(out=row[1:])
        cols[:, 1:] *= scale[c0:c1]
        np.cumsum(cols, axis=1, out=cols)
        yield c0, c1, cols


def sample_driver(cfg: SimConfig, n_paths: int | None = None, first: int = 0) -> DrivingPath:
    """Sample Brownian driving angles theta_k ~ sqrt(kappa) B_{t_k}.

    Row k is path ``first + k``, drawn from its own generator keyed by
    (seed, stream_id, first + k): a path is the same in any batch.  Each
    chunk is copied into the driver as it is drawn, so the driver is the
    one array of its size that the call allocates.
    """
    theta = np.zeros((1 if n_paths is None else n_paths, cfg.n_steps + 1))
    for c0, c1, cols in _draw_chunks(cfg, len(theta), first):
        theta[:, c0 + 1:c1 + 1] = cols[:, 1:]
    return DrivingPath(times=_time_grid(cfg), theta=theta[0] if n_paths is None else theta,
                       first=first)


@dataclass(frozen=True)
class _DrawnTheta:
    """The theta of paths ``first`` .. ``first + n_paths - 1``, drawn a chunk
    at a time whenever ``evolve`` reads it: a driver never held whole.
    ``shape`` and ``ndim`` are those of ``sample_driver``'s array."""

    cfg: SimConfig
    n_paths: int
    first: int
    ndim = 2

    @property
    def shape(self):
        return (self.n_paths, self.cfg.n_steps + 1)


def constant_driver(cfg: SimConfig, value: float = 0.0) -> DrivingPath:
    """Degenerate deterministic driver theta(t) == value (lambda frozen)."""
    times = _time_grid(cfg)
    return DrivingPath(times=times, theta=np.full_like(times, value))


def refine_driver(path: DrivingPath, cfg: SimConfig) -> tuple[DrivingPath, SimConfig]:
    """Insert Brownian-bridge midpoints, halving the driver step.

    Returns the refined path together with a config whose ``dt`` is halved,
    so the same underlying Brownian path can be integrated at finer
    resolution.  Each path's midpoints are drawn from a generator keyed by
    the path and the number of driver steps, and written into the odd
    columns of the refined array.
    """
    t = path.times
    th = np.atleast_2d(path.theta)
    dt = np.diff(t)
    std = np.sqrt(cfg.kappa * dt / 4)
    new_t = np.empty(2 * len(dt) + 1)
    new_t[0::2] = t
    new_t[1::2] = t[:-1] + dt / 2
    new_th = np.empty((th.shape[0], new_t.size))
    new_th[:, 0::2] = th
    z = np.empty(len(dt))
    for k, (row, mid) in enumerate(zip(th, new_th[:, 1::2])):
        _rng(cfg, (path.first + k, 0xB51D6E, len(dt))).standard_normal(out=z)
        z *= std
        np.add(row[:-1], row[1:], out=mid)
        mid *= 0.5
        mid += z                              # 0.5 * (a + b) + z * std
    if path.theta.ndim == 1:
        new_th = new_th[0]
    return (
        DrivingPath(times=new_t, theta=new_th, first=path.first),
        replace(cfg, dt=cfg.dt / 2),
    )


@dataclass(frozen=True)
class WholePlaneSample:
    """Flow states at the horizon: one whole-plane map per path, evaluated
    at the points ``z``.

    Arrays have shape (n_samples, n_points): ``w`` is the flow image,
    ``logderiv`` the tracked branch of log of the spatial derivative,
    ``logratio`` the tracked branch of log(w / z).  ``substeps`` counts
    the RK4 calls, summed over the batches: ``n_steps`` per batch, plus one
    per sub-step of the path·points split near the driving point.
    """

    z: np.ndarray
    w: np.ndarray
    logderiv: np.ndarray
    logratio: np.ndarray
    config: SimConfig
    substeps: int

    @cached_property
    def logf(self):
        """log f(z) = T + log(w / z) + log z of the horizon-T map."""
        with np.errstate(divide="ignore"):
            logz = np.log(self.z)
        return self.config.horizon_T + self.logratio + logz

    @cached_property
    def logfp(self):
        """log f'(z) = T + log w'(z) of the horizon-T map."""
        return self.config.horizon_T + self.logderiv

    @property
    def n_samples(self):
        return self.w.shape[0]

    def point_index(self, z):
        idx = np.flatnonzero(np.isclose(self.z, complex(z), rtol=0, atol=1e-12))
        if idx.size == 0:
            raise DomainError(f"point {z} is not among the sample points")
        return int(idx[0])


# distance to the driving point below which a step is split into sub-steps
_SINGULAR_DELTA = 0.1
# minimum admissible distance to the driving point before aborting
_W_LAMBDA_FLOOR = 1e-13
# slack allowed on the exact monotone decrease of |w|
_MONOTONE_SLACK = 1e-9
# macro steps whose driving points are computed together; each buffer of
# them holds (_BLOCK_STEPS + 1) * n_paths complex values, about 1 MB at
# 1000 paths
_BLOCK_STEPS = 64
# driver steps drawn together; fewer per draw cost more generator calls, and
# 1000 paths draw into a 4 MB buffer
_CHUNK_STEPS = 8 * _BLOCK_STEPS


def _unit(theta):
    """exp(1j * theta), from cos and sin (the same bits, at about half the cost)."""
    lam = np.empty(np.shape(theta), dtype=complex)
    np.cos(theta, out=lam.real)
    np.sin(theta, out=lam.imag)
    return lam


def _stage(wi, lam, tmp):
    """a = lam / (wi - lam) and the drift wi (1 + 2a) of w at one RK4 stage.

    NumPy rounds a complex product whose output is one of its inputs
    without the fused multiply-add of its other loops, for some array
    lengths, so every complex product goes to a fresh array: a path then
    gives the same bits alone and in any batch.
    """
    np.subtract(wi, lam, out=tmp)
    a = np.divide(lam, tmp)
    np.add(a, a, out=tmp)
    k = np.multiply(tmp, wi)
    k += wi
    return a, k


def _rk4_substep(w, ld, lr, lam0, lam_half, lam1, h):
    """One RK4 step of length h; returns the new (w, logderiv, logratio).

    With a = lam/(w - lam) the flow reads dw/dt = w (1 + 2a),
    d logderiv/dt = 1 - 2a^2 and d logratio/dt = 1 + 2a, so the two log
    increments are h -/+ (h/3) times the RK4-weighted sums of a^2 and a.
    """
    tmp = np.empty_like(w)
    a1, k1 = _stage(w, lam0, tmp)
    a2, k2 = _stage(k1 * (h / 2) + w, lam_half, tmp)
    a3, k3 = _stage(k2 * (h / 2) + w, lam_half, tmp)
    a4, k4 = _stage(k3 * h + w, lam1, tmp)
    k2 += k3
    k2 += k2
    k1 += k2
    k1 += k4
    k1 *= h / 6
    k1 += w                                   # w + h/6 (k1 + 2 k2 + 2 k3 + k4)
    sq = np.square(a2)
    sq += np.square(a3, out=tmp)
    sq += sq
    sq += np.square(a1, out=tmp)
    sq += np.square(a4, out=tmp)
    sq *= -h / 3
    sq += h
    sq += ld                                  # ld + h - h/3 (a1^2 + 2 a2^2 + 2 a3^2 + a4^2)
    a2 += a3
    a2 += a2
    a2 += a1
    a2 += a4
    a2 *= h / 3
    a2 += h
    a2 += lr                                  # lr + h + h/3 (a1 + 2 a2 + 2 a3 + a4)
    return k1, sq, a2


def _blocks(theta, n_steps):
    """Yield (b0, b1, thb): theta at steps b0 .. b1 of each block of
    ``_BLOCK_STEPS`` steps, as a contiguous (b1 - b0 + 1, n_paths, 1) array.
    An array driver gives slices of itself, a ``_DrawnTheta`` its chunks
    as they are drawn."""
    if isinstance(theta, _DrawnTheta):
        chunks = _draw_chunks(theta.cfg, theta.n_paths, theta.first)
    else:
        chunks = [(0, n_steps, np.atleast_2d(theta))]
    for c0, c1, cols in chunks:
        for b0 in range(c0, c1, _BLOCK_STEPS):
            b1 = min(b0 + _BLOCK_STEPS, c1)
            yield b0, b1, np.ascontiguousarray(cols[:, b0 - c0:b1 - c0 + 1].T)[..., None]


def _batch_shaped(lam, shape):
    """The driving points lam (n_paths, 1) copied to the batch's shape, so
    that no RK4 stage broadcasts them over an inner loop n_points long; a
    one-point batch has that shape already."""
    if lam.shape == shape:
        return lam
    out = np.empty(shape, dtype=complex)
    np.copyto(out, lam)
    return out


def _near(w, lam):
    """The (rows, cols) of the path·points within ``_SINGULAR_DELTA`` of
    their driving point."""
    return np.nonzero(np.abs(w - lam) < _SINGULAR_DELTA)


def _split_near(rows, cols, state, out, th0, slope, lam0, lam1, macro, t0):
    """Re-integrate the path·points (rows, cols) over one macro step from
    ``state`` into ``out``, both (w, logderiv, logratio, |w|); return the
    RK4 calls.  Each takes sub-steps of macro (d / delta)^2, d its own
    |w - lam|, with the arithmetic it has alone, until its step is done."""
    w, ld, lr, absw = (a[rows, cols] for a in state)
    th0, slope, lam0, lam1 = (a[rows, 0] for a in (th0, slope, lam0, lam1))
    elapsed = np.zeros(rows.size)
    calls = 0
    while rows.size:
        d = np.abs(w - lam0)
        if (d < _W_LAMBDA_FLOOR).any():
            raise SingularityError("flow point collided with the driving singularity "
                                   f"at t={float(t0 + elapsed[np.argmin(d)])!r}")
        h = np.minimum(macro * (d / _SINGULAR_DELTA) ** 2, macro - elapsed)
        lam_half = _unit(th0 + slope * (elapsed + h / 2))
        lam_end = np.where(elapsed + h >= macro - 1e-15, lam1, _unit(th0 + slope * (elapsed + h)))
        w, ld, lr = _rk4_substep(w, ld, lr, lam0, lam_half, lam_end, h)
        calls += 1
        ok = np.abs(w) <= absw + _MONOTONE_SLACK
        if not ok.all():
            t = float(t0 + elapsed[np.argmin(ok)])
            raise SingularityError(f"|w| failed to decrease at t={t!r}; integrator step rejected")
        absw = np.abs(w)
        for o, v in zip(out, (w, ld, lr, absw)):
            o[rows, cols] = v                     # final once an entry's step is done
        elapsed += h
        todo = elapsed < macro - 1e-15
        rows, cols, w, ld, lr, absw, elapsed, th0, slope, lam0, lam1 = (
            a[todo] for a in (rows, cols, w, ld, lr, absw, elapsed, th0, slope, lam_end, lam1))
    return calls


def _checked_points(cfg: SimConfig, points):
    """The points as a flat complex array, each with |z| <= r_max, which a NaN is not."""
    z0 = np.asarray(points, dtype=complex).reshape(-1)
    if not np.all(np.abs(z0) <= cfg.r_max + 1e-12):
        raise DomainError(f"all |z| must be <= r_max={cfg.r_max}")
    return z0


def evolve(path: DrivingPath, cfg: SimConfig, points) -> WholePlaneSample:
    """Integrate the conjugate reverse radial flow to t = horizon_T, where
    the driving path must end.

    The ODE for each point is dw/dt = w (w + lam)/(w - lam) with
    lam(t) = exp(i theta(t)), theta linearly interpolated inside each
    Brownian step; the log-derivative and log-ratio are integrated
    alongside so no complex logarithm is ever taken.

    Each macro step is one RK4 step of the batch, its driving points
    copied to the batch's shape; ``_split_near`` then re-integrates the
    path·points that start it within ``_SINGULAR_DELTA`` of their driving
    point, so each gives the same bits alone and in any batch.  At each
    block's start the distances to the driving point stop being scanned
    for good once the running bound 1 - max|w| - (steps left) *
    ``_MONOTONE_SLACK`` >= ``_SINGULAR_DELTA`` shows no step left can split.
    """
    z0 = _checked_points(cfg, points)
    t = path.times
    # logf and logfp add cfg.horizon_T to the states at the driver's end
    if abs(t[-1] - cfg.horizon_T) > 1e-12:
        raise DomainError(f"driving path ends at t={float(t[-1])!r}, "
                          f"not at cfg.horizon_T={cfg.horizon_T!r}")
    n_paths = 1 if np.ndim(path.theta) == 1 else np.shape(path.theta)[0]

    w = np.broadcast_to(z0, (n_paths, z0.size)).copy()
    ld = np.zeros_like(w)
    lr = np.zeros_like(w)
    absw = np.abs(w)
    shape = w.shape
    n_steps = len(t) - 1
    scan = True
    substeps = 0

    for b0, b1, thb in _blocks(path.theta, n_steps):
        # The monotone check below keeps |w| <= max|w| + (steps left) * slack,
        # and |w - lam| >= 1 - |w|: once that stays >= delta no step left can
        # be split, and the distances to the driving point are not computed
        # again.
        scan = scan and (1.0 - np.max(absw, initial=0.0) - (n_steps - b0) * _MONOTONE_SLACK
                         < _SINGULAR_DELTA)
        dt = np.diff(t[b0:b1 + 1])[:, None, None]
        slope = (thb[1:] - thb[:-1]) / dt
        lam = _unit(thb)
        lam_mid = _unit(thb[:-1] + slope * (dt / 2))
        lam1 = _batch_shaped(lam[0], shape)
        for j, macro in enumerate(dt.ravel().tolist()):
            state = w, ld, lr, absw
            lam0, lam1 = lam1, _batch_shaped(lam[j + 1], shape)
            # the half-step copy is freed with the stages that read it
            w, ld, lr = _rk4_substep(w, ld, lr, lam0, _batch_shaped(lam_mid[j], shape), lam1, macro)
            substeps += 1
            absw = np.abs(w)
            ok = absw <= state[3] + _MONOTONE_SLACK
            if scan:
                rows, cols = _near(state[0], lam0)
                ok[rows, cols] = True             # checked sub-step by sub-step
            if not ok.all():
                raise SingularityError(f"|w| failed to decrease at t={float(t[b0 + j])!r}; "
                                       "integrator step rejected")
            if scan and rows.size:
                substeps += _split_near(rows, cols, state, (w, ld, lr, absw), thb[j], slope[j],
                                        lam[j], lam[j + 1], macro, t[b0 + j])

    return WholePlaneSample(z=z0, w=w, logderiv=ld, logratio=lr, config=cfg, substeps=substeps)


# paths per evolve call: its cost per path-point-step bottoms out near 1000
# paths
_BATCH_PATHS = 1000


def sample_ensemble(cfg: SimConfig, points, n_samples: int, workers: int = 1) -> WholePlaneSample:
    """Monte Carlo batch of whole-plane map samples.

    Row i is driven by path i of ``sample_driver``, keyed by (seed,
    stream_id, i), so results are deterministic and independent of
    ``workers`` and of how the paths are split into batches.  Each batch's
    driver is drawn a chunk at a time inside ``evolve``, so memory does not
    grow with the number of steps.
    """
    if n_samples < 0:
        raise ConfigError(f"n_samples must be >= 0, got {n_samples}")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if n_samples == 0:
        z0 = _checked_points(cfg, points)
        empty = np.zeros((0, z0.size), dtype=complex)
        return WholePlaneSample(z=z0, w=empty, logderiv=empty.copy(), logratio=empty.copy(),
                                config=cfg, substeps=0)

    def run(first):
        count = min(_BATCH_PATHS, n_samples - first)
        return evolve(DrivingPath(times=_time_grid(cfg), theta=_DrawnTheta(cfg, count, first),
                                  first=first), cfg, points)

    firsts = range(0, n_samples, _BATCH_PATHS)
    # one worker or one batch: no thread, less memory
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list((pool.map if workers > 1 and len(firsts) > 1 else map)(run, firsts))
    w, ld, lr = (np.concatenate([getattr(p, name) for p in parts])
                 for name in ("w", "logderiv", "logratio"))
    return WholePlaneSample(z=parts[0].z, w=w, logderiv=ld, logratio=lr, config=cfg,
                            substeps=sum(p.substeps for p in parts))
