"""Workload definitions: inputs made from the seed, the calls of one round,
and the checks of one round's outputs.

A round is the same list of operations in every run:

* ``main``: the workload's own calls into slelab; the sum of their wall
  times is the round's ``wall_s``.
* ``entry``: one small call to every CLI subcommand and to the library,
  the same calls that set-up makes.  They keep every layer exercised in
  every workload and are checked like the rest.  On the Monte Carlo
  workloads two of them are also timed before and after every main step.
* ``probe``: a fixed batch of drivers integrated by ``flow.evolve``; a few
  path-point pairs are also integrated alone.  These inputs do not depend
  on the seed.  Their results are compared with ``reference.flow_reference``
  and with one another outside the timed region.

Functions named ``run_*`` execute in the worker process and import slelab;
``check_*`` functions execute in the parent and never import it.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time

import numpy as np

import checks
from checks import Check
from spans import Patches

WORKLOADS = ("mc_bulk", "mc_near_circle", "diagram")

# p = q = 2 lies on the kappa = 2 parabola at gamma = 1; (1.75, 1.5) on the
# kappa = 6 parabola at gamma = 1/2 -- the acceptance criteria's exponents
K2_GAMMA = 1.0
K6_GAMMA = 0.5
K6_P, K6_Q = checks.parabola_point(6.0, K6_GAMMA)

# Monte Carlo sizes: fractions of the 5e4-path acceptance ensembles
BULK_POINT_PATHS = 300       # 0.6 % per ensemble at kappa = 2 and kappa = 6
BULK_CIRCLE_PATHS = 2000     # 4 %: two 1000-path streams, one per worker
NEAR_PATHS = 700
NEAR_POINTS = 8
# the ring is fixed, so that only the drivers change with the seed: which
# point's variance sets time_to_tol_s would otherwise move with the ring.
# At 0.97 evolve's sub-stepping branch (|w - lambda| < singular_delta) adds
# about 11 % to the RK4 sub-steps of the round; at 0.96 it adds 5 %
NEAR_RADIUS = 0.97
NEAR_PHASE = math.pi / NEAR_POINTS
# near the circle the gamma = 1/2 weights are so heavy tailed that their sample
# variance changes severalfold between seeds; at gamma = 0.1 it is steady
NEAR_GAMMA = 0.1
NEAR_P, NEAR_Q = checks.parabola_point(6.0, NEAR_GAMMA)
# accuracy that time_to_tol_s projects to: standard error 1 % of the exact value
TARGET_REL_STDERR = 0.01

# fixed probe inputs; the near-circle batch is where flow.evolve's batch-wide
# sub-step shows (ROADMAP item 2)
PROBES = {
    "bulk": {"kappa": 6.0, "T": 2.0, "dt": 1e-3, "r_max": 0.9, "points": [0.6, 0.6j],
             "batch": 32, "paths": [0, 1], "driver_seed": 20150421, "known_fault": False},
    "near": {"kappa": 6.0, "T": 2.0, "dt": 1e-3, "r_max": 0.99, "points": [0.97, 0.95j],
             "batch": 64, "paths": [0, 1], "driver_seed": 20150421, "known_fault": True},
}
REF_BOUND = 1e-5     # |alone - reference| in w, log f', log(f/z); RK4 at dt = 1e-3 reads 4.5e-6 at |z| = 0.6
BATCH_BOUND = 1e-9   # |alone - in batch|


def _f(x):
    return repr(float(x))


def _c(z):
    z = complex(z)
    return f"{z.real!r}{z.imag:+}j" if z.imag else repr(z.real)


def make_spec(workload, seed, seconds):
    """All inputs of a run, made from the seed alone."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([0x5E1AB, seed])
    spec = {"workload": workload, "seed": seed, "seconds": seconds,
            "round_seeds": [int(s) for s in rng.integers(1, 2**31 - 1, size=64)],
            "probe": "near" if workload == "mc_near_circle" else "bulk"}
    if workload == "diagram":
        lo_p, hi_p, lo_q, hi_q = checks.phase_grid_bounds(6.0)
        spec["m"] = int(rng.choice([2, 3, 4]))
        spec["spectrum_p"] = [float(x) for x in rng.uniform(lo_p, hi_p, 8)]
        spec["spectrum_q"] = [float(x) for x in rng.uniform(lo_q, hi_q, 8)]
        spec["check_seed"] = int(rng.integers(0, 2**31 - 1))
    return spec


def near_points():
    ang = NEAR_PHASE + 2 * math.pi * np.arange(NEAR_POINTS) / NEAR_POINTS
    return [complex(z) for z in NEAR_RADIUS * np.exp(1j * ang)]


def probe_driver(name):
    """Driver angles of the probe batch, sampled here so slelab sees only inputs."""
    pr = PROBES[name]
    n = round(pr["T"] / pr["dt"])
    times = pr["dt"] * np.arange(n + 1)
    times[-1] = pr["T"]
    rng = np.random.default_rng(pr["driver_seed"])
    incr = rng.standard_normal((pr["batch"], n)) * np.sqrt(pr["kappa"] * np.diff(times))
    theta = np.concatenate([np.zeros((pr["batch"], 1)), np.cumsum(incr, axis=1)], axis=1)
    return times, theta


# ---------------------------------------------------------------------------
# calls of one round (worker side)


def _mc_args(kappa, seed, n, T=8.0, dt=1e-3, workers=2):
    return ["--kappa", _f(kappa), "--T", _f(T), "--dt", _f(dt), "--n-samples", str(n),
            "--workers", str(workers), "--seed", str(seed), "--no-header"]


def main_cli_steps(spec, seed):
    """(label, argv without --output, output file name) of the workload's CLI calls."""
    w = spec["workload"]
    if w == "mc_bulk":
        k2 = ["--p", "2.0", "--q", "2.0"]
        k6 = ["--p", _f(K6_P), "--q", _f(K6_Q)]
        pts = [a for z in (0.5, 0.3, 0.3 + 0.3j) for a in ("--z", _c(z))]
        n = BULK_POINT_PATHS
        return [
            ("k2_complex", ["moments", *_mc_args(2.0, seed, n), *k2, "--kind", "complex", *pts], "k2_complex.csv"),
            ("k2_moduli", ["moments", *_mc_args(2.0, seed + 1, n), *k2, "--kind", "moduli", "--z", "0.5"], "k2_moduli.csv"),
            ("k6_moduli", ["moments", *_mc_args(6.0, seed + 2, n), *k6, "--kind", "moduli", "--z", "0.5"], "k6_moduli.csv"),
            ("k6_complex", ["moments", *_mc_args(6.0, seed + 3, n), *k6, "--kind", "complex", "--z", "0.5"], "k6_complex.csv"),
            ("log_coeffs", ["log-coeffs", *_mc_args(2.0, seed + 4, BULK_CIRCLE_PATHS, dt=4e-3),
                            "--radius", "0.6", "--fft-size", "8", "--n-max", "2"], "log_coeffs.csv"),
        ]
    if w == "diagram":
        spec_pq = [a for p, q in zip(spec["spectrum_p"], spec["spectrum_q"])
                   for a in (f"--p={p!r}", f"--q={q!r}")]
        return [
            ("phase_diagram", ["phase-diagram", "--kappa", "6", "--no-header"], "pd.csv"),
            ("phase_diagram_mfold", ["phase-diagram", "--kappa", "6", "--m", str(spec["m"]),
                                     "--resolution", "120", "--no-header"], "pdm.csv"),
            ("xy_geometry", ["xy-geometry", "--kappa", "6", "--format", "json", "--no-header"], "xy.json"),
            ("spectrum", ["spectrum", "--kappa", "6", "--m", "1", "--no-header", *spec_pq], "spectrum.csv"),
            ("universal", ["universal", "--no-header"], "universal.csv"),
            ("means_scan", ["means-scan", "--kappa", "6", "--p", _f(K6_P), "--q", _f(K6_Q),
                            "--r-min", "0.9", "--r-max", "0.9999", "--no-header"], "means.csv"),
            ("check", ["check", "--suite", "all", "--kappa", "6", "--seed", str(spec["check_seed"])], "check.json"),
        ]
    return []


def _tiny(kappa):
    return ["--kappa", _f(kappa), "--T", "1.0", "--dt", "0.01", "--n-samples", "8", "--no-header"]


ENTRY_STEPS = [
    ("entry.spectrum", ["spectrum", "--kappa", "6", "--p", "0.0", "--q", "0.0", "--p", "1.0",
                        "--q", "3.0", "--no-header"], "spectrum.csv"),
    ("entry.phase_diagram", ["phase-diagram", "--kappa", "6", "--resolution", "60",
                             "--curve-points", "20", "--no-header"], "pd.csv"),
    ("entry.xy_geometry", ["xy-geometry", "--kappa", "6", "--resolution", "60", "--no-header"], "xy.csv"),
    ("entry.moments", ["moments", *_tiny(2.0), "--z", "0.5"], "moments.csv"),
    ("entry.two_point", ["two-point", *_tiny(2.0), "--z1", "0.3", "--z2", "0.25"], "two_point.csv"),
    ("entry.log_coeffs", ["log-coeffs", *_tiny(2.0), "--radius", "0.6", "--fft-size", "8",
                          "--n-max", "2"], "log_coeffs.csv"),
    ("entry.simulate", ["simulate", *_tiny(2.0), "--z", "0.5"], "simulate.csv"),
    ("entry.diagnose", ["diagnose", *_tiny(2.0), "--z", "0.5", "--T-list", "0.5", "--T-list", "1.0"],
     "diagnose.csv"),
    ("entry.means_scan", ["means-scan", "--kappa", "6", "--p", _f(K6_P), "--q", _f(K6_Q), "--n-r", "8",
                          "--no-header"], "means.csv"),
    ("entry.universal", ["universal", "--resolution", "20", "--no-header"], "universal.csv"),
    ("entry.check", ["check", "--suite", "all", "--kappa", "6"], "check.json"),
]


@contextlib.contextmanager
def capture(module, attr):
    """Keep the results of ``module.attr`` while the block runs.

    ``log-coeffs`` writes neither standard errors nor the adjacent cross
    moment, so the checks read them from the ``LogCoeffStats`` that
    ``moments.extract_log_coeffs`` returned to the CLI.
    """
    results = []

    def make(original):
        def wrapper(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]
        return wrapper

    patches = Patches()
    patches.wrap(module, attr, make)
    try:
        yield results
    finally:
        patches.restore()


def _span(tracer, label):
    return tracer.span(f"step:{label}") if tracer is not None else contextlib.nullcontext()


def run_cli(cli, label, argv, path, record, tracer=None):
    argv = [*argv, "--output", path]
    t0 = time.perf_counter()
    with _span(tracer, label):
        rc = cli.main(argv)
    record["seconds"][label] = time.perf_counter() - t0
    record["rc"][label] = rc
    record["files"][label] = path


def run_library_entry(record, tracer=None):
    """The library's entry point: a tiny near-circle ensemble and one estimate."""
    from slelab import flow, moments
    t0 = time.perf_counter()
    cfg = flow.SimConfig(kappa=6.0, horizon_T=1.0, dt=0.01, seed=7, r_max=0.99)
    with _span(tracer, "entry.library"):
        sample = flow.sample_ensemble(cfg, [0.96], 8)
        est = moments.estimate_moduli(sample, K6_P, K6_Q, 0.96)
    record["seconds"]["entry.library"] = time.perf_counter() - t0
    record["library"] = {"shape": list(sample.logf.shape),
                         "finite": bool(np.all(np.isfinite(sample.logf)) and np.all(np.isfinite(sample.logfp))),
                         "value": float(est.value.real), "stderr": float(est.stderr)}


# Sub-second calls vary by tens of percent on a shared machine, and the
# speed of pure-Python code drifts over seconds.  The Monte Carlo workloads
# report these two entry calls' mean time, so their rounds time them again,
# TIMED_ENTRY_REPS times each, before and after every main step, spreading
# the samples over the run.
TIMED_ENTRY = ("entry.phase_diagram", "entry.xy_geometry")
TIMED_ENTRY_REPS = 2


def run_entry(cli, outdir, record, tracer=None, only=None):
    for label, argv, fname in ENTRY_STEPS:
        if only is None or label in only:
            run_cli(cli, label, argv, os.path.join(outdir, "entry-" + fname), record, tracer)
            record.setdefault("reps", {}).setdefault(label, []).append(record["seconds"][label])
    if only is None:
        run_library_entry(record, tracer)


def run_main(spec, r, cli, outdir, record, tracer=None):
    """The workload's own calls; ``wall_s`` is the sum of their times."""
    seed = spec["round_seeds"][r]
    mc = spec["workload"] != "diagram"

    def between():
        for _ in range(TIMED_ENTRY_REPS if mc else 0):
            run_entry(cli, outdir, record, tracer, only=TIMED_ENTRY)

    between()
    if spec["workload"] == "mc_near_circle":
        from slelab import flow, moments
        cfg = flow.SimConfig(kappa=6.0, horizon_T=8.0, dt=1e-3, seed=seed, r_max=0.99)
        pts = near_points()
        t0 = time.perf_counter()
        try:
            with _span(tracer, "near_circle"):
                sample = flow.sample_ensemble(cfg, pts, NEAR_PATHS, workers=1)
                ests = [moments.estimate_moduli(sample, NEAR_P, NEAR_Q, z) for z in pts]
            record["near"] = {"z": [[z.real, z.imag] for z in pts],
                              "value": [float(e.value.real) for e in ests],
                              "stderr": [float(e.stderr) for e in ests],
                              "n": [int(e.n_samples) for e in ests],
                              "shape": list(sample.logf.shape),
                              "finite": bool(np.all(np.isfinite(sample.logfp)))}
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            # slelab's DomainError and SingularityError derive from these
            record["near"] = {"error": f"{type(exc).__name__}: {exc}"}
        record["seconds"]["near_circle"] = time.perf_counter() - t0
        between()
        labels = ["near_circle"]
    else:
        from slelab import moments
        labels = []
        for label, argv, fname in main_cli_steps(spec, seed):
            with capture(moments, "extract_log_coeffs") as captured:
                run_cli(cli, label, argv, os.path.join(outdir, fname), record, tracer)
            labels.append(label)
            if label == "log_coeffs" and len(captured) == 1:
                s = captured[0]
                record["log_coeffs"] = {
                    "mean_gamma": [[v.real, v.imag] for v in s.mean_gamma],
                    "mean_sq": [float(v) for v in s.mean_sq],
                    "cross": [[v.real, v.imag] for v in s.cross],
                    "stderr_gamma": [float(v) for v in s.stderr_gamma],
                    "stderr_sq": [float(v) for v in s.stderr_sq],
                    "stderr_cross": [float(v) for v in s.stderr_cross],
                    "n_samples": int(s.n_samples)}
            between()
    record["wall_s"] = sum(record["seconds"][label] for label in labels)


def run_probe(spec, record):
    from slelab import flow
    name = spec["probe"]
    pr = PROBES[name]
    times, theta = probe_driver(name)
    cfg = flow.SimConfig(kappa=pr["kappa"], horizon_T=pr["T"], dt=pr["dt"], r_max=pr["r_max"])

    def triple(st, i, j):
        return [[complex(v).real, complex(v).imag]
                for v in (st.w[i, j], st.logderiv[i, j], st.logratio[i, j])]

    out = []
    try:
        batch = flow.evolve(flow.DrivingPath(times=times, theta=theta), cfg, pr["points"])
        for i in pr["paths"]:
            for j, z in enumerate(pr["points"]):
                alone = flow.evolve(flow.DrivingPath(times=times, theta=theta[i]), cfg, [z])
                out.append({"path": i, "point": j, "batch": triple(batch, i, j),
                            "alone": triple(alone, 0, 0)})
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        record["probe_error"] = f"{type(exc).__name__}: {exc}"
    record["probe"] = out


def new_record(r, traced):
    return {"round": r, "traced": traced, "seconds": {}, "rc": {}, "files": {}}


# ---------------------------------------------------------------------------
# checks of one round (parent side)


def _read_moments(path):
    cols, rows = checks.read_csv(path)
    return checks.float_columns(cols, rows, ["z_re", "z_im", "estimate_re", "estimate_im",
                                             "stderr", "n", "closed_form_re", "closed_form_im"])


def _moment_checks(label, path, n_expected, exact_of_z, estimators):
    """One check per row: the closed-form column and the estimate."""
    out = []
    c = _read_moments(path)
    for i in range(len(c["z_re"])):
        z = complex(c["z_re"][i], c["z_im"][i])
        exact = exact_of_z(z)
        closed = complex(c["closed_form_re"][i], c["closed_form_im"][i])
        est = complex(c["estimate_re"][i], c["estimate_im"][i])
        chk = checks.check_estimate(f"{label}[z={z}]", est, c["stderr"][i], exact)
        closed_ok = abs(closed - exact) <= 1e-12 * max(1.0, abs(closed))
        ok = chk.ok and closed_ok and int(c["n"][i]) == n_expected
        out.append(Check(chk.name, ok, chk.detail + f" closed_form={closed:.6g} n={int(c['n'][i])}"))
        estimators.append({"name": chk.name, "stderr": float(c["stderr"][i]),
                           "n": int(c["n"][i]), "exact": abs(exact)})
    return out


def _rc_check(record, label):
    rc = record["rc"].get(label)
    return Check(f"{label}:exit", rc == 0, f"exit code {rc}")


def _guard(name, fn):
    """Run a check; a malformed output file fails it instead of stopping the run."""
    try:
        return fn()
    except (OSError, ValueError, KeyError, IndexError, TypeError, ArithmeticError) as exc:
        return [Check(name, False, f"{type(exc).__name__}: {exc}")]


def check_main(spec, record, estimators):
    w = spec["workload"]
    out = []
    f = record["files"]
    if w == "mc_bulk":
        n = BULK_POINT_PATHS
        one2 = lambda z: checks.one_point(z, K2_GAMMA)
        mod2 = lambda z: checks.moduli(z, 2.0, K2_GAMMA)
        one6 = lambda z: checks.one_point(z, K6_GAMMA)
        mod6 = lambda z: checks.moduli(z, 6.0, K6_GAMMA)
        # the moduli weights are heavy tailed: their sample variance changes
        # twofold between seeds at these sizes, so they are checked but do not
        # enter time_to_tol_s
        for label, exact, steady in (("k2_complex", one2, True), ("k2_moduli", mod2, False),
                                     ("k6_moduli", mod6, False), ("k6_complex", one6, True)):
            if record["rc"].get(label) != 0:
                out.append(_rc_check(record, label))
                continue
            # kappa = 2 complex: E = 1 - z; kappa = 2 moduli at 0.5: 1/3
            out += _guard(label, lambda: _moment_checks(label, f[label], n, exact,
                                                        estimators if steady else []))
        out += _guard("log_coeffs", lambda: _log_coeff_checks(record, estimators))
    elif w == "mc_near_circle":
        out += _near_checks(record, estimators)
    else:
        out += _guard("diagram", lambda: _diagram_checks(spec, record))
    return out


LOG_COEFF_CHECKS = ("table", "E|g1|^2", "E|g2|^2", "Eg1", "Eg1*conj(g2)")


def _log_coeff_checks(record, estimators):
    rc = record["rc"].get("log_coeffs")
    if rc != 0 or "log_coeffs" not in record:
        # every check of the call fails, so the count of operations stays the same
        why = f"exit code {rc}" if rc != 0 else "extract_log_coeffs not captured"
        return [Check(f"log_coeffs:{name}", False, why) for name in LOG_COEFF_CHECKS]
    cols, rows = checks.read_csv(record["files"]["log_coeffs"])
    c = checks.float_columns(cols, rows, ["n", "mean_re", "mean_im", "mean_sq", "theory"])
    s = record["log_coeffs"]
    N = s["n_samples"]
    out = []
    same = (list(c["n"]) == [1.0, 2.0]
            and np.allclose(c["mean_sq"], s["mean_sq"], rtol=0, atol=0)
            and np.allclose(c["mean_re"], [g[0] for g in s["mean_gamma"]], rtol=0, atol=0)
            and all(checks.rel_close(c["theory"], [checks.log_coeff_sq(1), checks.log_coeff_sq(2)], 1e-15))
            and N == BULK_CIRCLE_PATHS)
    out.append(Check("log_coeffs:table", bool(same), f"n={list(c['n'])} N={N}"))
    items = [
        (s["mean_sq"][0], s["stderr_sq"][0], checks.log_coeff_sq(1)),
        (s["mean_sq"][1], s["stderr_sq"][1], checks.log_coeff_sq(2)),
        (complex(*s["mean_gamma"][0]), s["stderr_gamma"][0], checks.LOG_COEFF_MEAN_1),
        (complex(*s["cross"][0]), s["stderr_cross"][0], checks.log_coeff_cross(1)),
    ]
    for label, (est, err, exact) in zip(LOG_COEFF_CHECKS[1:], items):
        name = f"log_coeffs:{label}"
        out.append(checks.check_estimate(name, est, err, exact))
        estimators.append({"name": name, "stderr": float(err), "n": N, "exact": abs(exact)})
    return out


def _near_checks(record, estimators):
    nr = record.get("near")
    if nr is None or "error" in nr:
        return [Check("near_circle", False, (nr or {}).get("error", "no result recorded"))]
    out = [Check("near_circle:sample", nr["shape"] == [NEAR_PATHS, NEAR_POINTS] and nr["finite"],
                 f"shape={nr['shape']} finite={nr['finite']}")]
    weight_sum = exact_sum = err_sum = 0.0
    for (zr, zi), v, err, n in zip(nr["z"], nr["value"], nr["stderr"], nr["n"]):
        z = complex(zr, zi)
        exact = checks.moduli(z, 6.0, NEAR_GAMMA)
        out.append(checks.check_estimate(f"near_circle:moduli[z={z:.4f}]", v, err, exact))
        estimators.append({"name": f"moduli[z={z:.4f}]", "stderr": err, "n": n, "exact": exact})
        r = abs(z)
        weight_sum += v
        exact_sum += exact
        err_sum += err
    # integral mean at one radius: (2 pi r / M) sum over the ring; the
    # estimates share drivers, so the sum of standard errors bounds its spread
    scale = 2 * math.pi * r / len(nr["z"])
    out.append(checks.check_estimate("near_circle:integral_mean", scale * weight_sum,
                                     scale * err_sum, scale * exact_sum))
    return out


def _diagram_checks(spec, record):
    f = record["files"]
    out = []
    lo_p, hi_p, lo_q, hi_q = checks.phase_grid_bounds(6.0)
    for label, m, res in (("phase_diagram", 1, 400), ("phase_diagram_mfold", spec["m"], 120)):
        out += _guard(label, lambda: _phase_checks(label, f[label], m, res, (lo_p, hi_p, lo_q, hi_q)))
    out += _guard("xy_geometry", lambda: _xy_checks("xy_geometry", f["xy_geometry"], 400, json_table=True))
    out += _guard("spectrum", lambda: _spectrum_checks("spectrum", f["spectrum"],
                                                      spec["spectrum_p"], spec["spectrum_q"]))
    out += _guard("universal", lambda: _universal_checks("universal", f["universal"], 1200))
    out += _guard("means_scan", lambda: _means_checks("means_scan", f["means_scan"], 40, slope=0.75))
    out += _guard("check", lambda: _report_checks("check", record))
    for label, _, _ in main_cli_steps(spec, 0):
        out.append(_rc_check(record, label))
    return out


def _phase_checks(label, path, m, res, bounds):
    cols, rows = checks.read_csv(path)
    c = checks.float_columns(cols, rows, ["p", "q", "kappa", "m", "beta"])
    region = checks.str_column(cols, rows, "region")
    lo_p, hi_p, lo_q, hi_q = bounds
    out = [checks.check_regions(f"{label}:regions", 6.0, c["p"], c["q"], c["m"], region, c["beta"]),
           checks.check_grid(f"{label}:p_grid", c["p"], lo_p, hi_p, res, res, 1),
           checks.check_grid(f"{label}:q_grid", c["q"], lo_q, hi_q, res, 1, res),
           Check(f"{label}:m", bool(np.all(c["m"] == m) and np.all(c["kappa"] == 6.0)), f"m={m}")]
    root, ext = os.path.splitext(path)
    ccols, crows = checks.read_csv(f"{root}.curves{ext}")
    cc = checks.float_columns(ccols, crows, ["p", "q"])
    out.append(checks.check_curves(f"{label}:curves", 6.0, m, checks.str_column(ccols, crows, "curve"),
                                   cc["p"], cc["q"]))
    return out


def _xy_checks(label, path, res, json_table=False):
    if json_table:
        cols, rows = checks.read_json_table(path)
    else:
        cols, rows = checks.read_csv(path)
    c = checks.float_columns(cols, rows, cols)
    return [checks.check_xy(f"{label}:identities", 6.0, c),
            checks.check_grid(f"{label}:x_grid", c["x"], 0.01, 10.0, res, res, 1),
            checks.check_grid(f"{label}:y_grid", c["y"], 0.01, 5.0, res, 1, res)]


def _spectrum_checks(label, path, ps, qs):
    cols, rows = checks.read_csv(path)
    c = checks.float_columns(cols, rows, ["p", "q", "m", "beta"])
    same_points = list(c["p"]) == list(ps) and list(c["q"]) == list(qs)
    return [checks.check_regions(f"{label}:regions", 6.0, c["p"], c["q"], c["m"],
                                 checks.str_column(cols, rows, "region"), c["beta"]),
            Check(f"{label}:points", same_points, f"{len(ps)} points")]


def _universal_checks(label, path, n_rows):
    cols, rows = checks.read_csv(path)
    chk = checks.check_universal(f"{label}:rows", rows)
    return [Check(chk.name, chk.ok and len(rows) == n_rows, chk.detail)]


def _means_checks(label, path, n_r, slope=None):
    cols, rows = checks.read_csv(path)
    c = checks.float_columns(cols, rows, ["r", "integral", "beta"])
    ok = len(c["r"]) == n_r and bool(np.all(np.diff(c["integral"]) > 0))
    detail = f"{len(c['r'])} radii, beta={c['beta'][0]!r}"
    if slope is not None:
        # the scan must recover the closed form's growth exponent within 1 %
        ok = ok and abs(c["beta"][0] - slope) <= 0.01 * slope
    else:
        ok = ok and bool(np.isfinite(c["beta"][0]))
    return [Check(f"{label}:slope", ok, detail)]


def _report_checks(label, record):
    with open(record["files"][label]) as fh:
        reports = json.load(fh)
    failing = [r.get("check") for r in reports if not r.get("pass")]
    return [Check(f"{label}:reports", record["rc"].get(label) == 0 and not failing and len(reports) > 0,
                  f"{len(reports)} reports, failing {failing}")]


def check_entry(record):
    """Checks of the small entry-point calls, the same in every workload."""
    f = record["files"]
    out = [_rc_check(record, label) for label, _, _ in ENTRY_STEPS]
    lo_p, hi_p, lo_q, hi_q = checks.phase_grid_bounds(6.0)
    out += _guard("entry.spectrum", lambda: _spectrum_checks("entry.spectrum", f["entry.spectrum"],
                                                            [0.0, 1.0], [0.0, 3.0]))
    out += _guard("entry.phase_diagram", lambda: _phase_checks("entry.phase_diagram", f["entry.phase_diagram"],
                                                              1, 60, (lo_p, hi_p, lo_q, hi_q)))
    out += _guard("entry.xy_geometry", lambda: _xy_checks("entry.xy_geometry", f["entry.xy_geometry"], 60))
    out += _guard("entry.universal", lambda: _universal_checks("entry.universal", f["entry.universal"], 60))
    out += _guard("entry.means_scan", lambda: _means_checks("entry.means_scan", f["entry.means_scan"], 8))
    out += _guard("entry.check", lambda: _report_checks("entry.check", record))
    out += _guard("entry.moments", lambda: _tiny_moment_checks(record))
    out += _guard("entry.tables", lambda: _tiny_table_checks(record))
    lib = record.get("library", {})
    out.append(Check("entry.library", lib.get("shape") == [8, 1] and lib.get("finite", False)
                     and np.isfinite(lib.get("value", np.nan)), str(lib)))
    return out


def _tiny_moment_checks(record):
    """Eight short paths: only the closed-form columns and the sizes are exact."""
    out = []
    for label, exact in (("entry.moments", lambda z: checks.one_point(z, K2_GAMMA)),
                         ("entry.two_point", lambda z: checks.two_point(z, 0.25, 2.0, K2_GAMMA))):
        c = _read_moments(record["files"][label])
        z = complex(c["z_re"][0], c["z_im"][0])
        closed = complex(c["closed_form_re"][0], c["closed_form_im"][0])
        ok = (len(c["z_re"]) == 1 and int(c["n"][0]) == 8 and np.isfinite(c["estimate_re"][0])
              and abs(closed - exact(z)) <= 1e-12)
        out.append(Check(f"{label}:row", bool(ok), f"closed_form={closed}"))
    return out


def _tiny_table_checks(record):
    f = record["files"]
    out = []
    cols, rows = checks.read_csv(f["entry.log_coeffs"])
    c = checks.float_columns(cols, rows, ["n", "mean_sq", "theory"])
    ok = list(c["n"]) == [1.0, 2.0] and bool(np.all(checks.rel_close(c["theory"], [0.5, 0.125], 1e-15)))
    out.append(Check("entry.log_coeffs:table", ok and bool(np.all(np.isfinite(c["mean_sq"]))), str(list(c["theory"]))))
    # simulate writes plain CSV without the schema line
    with open(f["entry.simulate"]) as fh:
        lines = fh.read().splitlines()
    body = [ln.split(",") for ln in lines[1:]]
    ok = (lines[0] == "stream_id,z_re,z_im,logf_re,logf_im,logfp_re,logfp_im" and len(body) == 8
          and all(np.isfinite([float(v) for v in row]).all() for row in body))
    out.append(Check("entry.simulate:table", bool(ok), f"{len(body)} rows"))
    cols, rows = checks.read_csv(f["entry.diagnose"])
    c = checks.float_columns(cols, rows, ["T", "estimate", "stderr"])
    ok = list(c["T"]) == [0.5, 1.0] and bool(np.all(np.isfinite(c["estimate"])))
    out.append(Check("entry.diagnose:table", ok, str(list(c["T"]))))
    return out


def check_probe(spec, record, reference):
    """Two checks per probed path-point: against the reference, and alone
    against inside its batch.  Near the circle both fail today: evolve takes
    its sub-step from the batch-wide minimum of |w - lambda| and has no
    error control."""
    pr = PROBES[spec["probe"]]
    out = []
    ref_err = batch_diff = 0.0
    for k, p in enumerate(record.get("probe", [])):
        alone = np.array([complex(*v) for v in p["alone"]])
        batch = np.array([complex(*v) for v in p["batch"]])
        e_ref = float(np.max(np.abs(alone - reference[k])))
        e_batch = float(np.max(np.abs(alone - batch)))
        ref_err, batch_diff = max(ref_err, e_ref), max(batch_diff, e_batch)
        tag = f"probe.{spec['probe']}[path={p['path']},z={pr['points'][p['point']]}]"
        out.append(Check(f"{tag}:reference", e_ref <= REF_BOUND, f"max abs err {e_ref:.3g} (bound {REF_BOUND:g})"))
        out.append(Check(f"{tag}:alone_vs_batch", e_batch <= BATCH_BOUND,
                         f"max abs diff {e_batch:.3g} (bound {BATCH_BOUND:g})"))
    # an evolve that raised fails both checks of every probe, so the count of
    # operations stays the same
    missing = 2 * len(pr["paths"]) * len(pr["points"]) - len(out)
    out += [Check(f"probe.{spec['probe']}:raised", False, record.get("probe_error", "no result"))] * missing
    return out, ref_err, batch_diff


def probe_reference(name):
    """Reference (w, log w', log(w/z)) of every probed path-point, in probe order."""
    import reference
    pr = PROBES[name]
    times, theta = probe_driver(name)
    rows, zs = [], []
    for i in pr["paths"]:
        for z in pr["points"]:
            rows.append(theta[i])
            zs.append(z)
    w, ld, lr = reference.flow_reference(times, np.array(rows), np.array(zs, dtype=complex))
    return [np.array([w[k], ld[k], lr[k]]) for k in range(len(zs))]
