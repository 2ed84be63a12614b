"""slelab benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload {mc_bulk,mc_near_circle,diagram} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout; this process never imports it.  Worker processes make every
call into slelab (see ``worker.py``); this process makes the inputs from the
seed, times set-up, checks every output and prints, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The full record of the run, with the machine it ran on, goes
to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_RUNS = 3
# every run must end within 180 s; the worker stops its rounds well before
WORKER_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "time_to_tol_s": "s",
                    "phase_diagram_s": "s", "xy_geometry_s": "s"}
LAYER_UNITS = {
    "flow.evolve_s": "s", "flow.evolve_ns_per_path_point_step": "ns", "flow.evolve_calls": "count",
    "flow.path_point_steps": "count", "flow.substeps_per_step": "1", "flow.sample_driver_s": "s", "flow.sample_ensemble_self_s": "s",
    "flow.ref_max_abs_err": "1", "flow.batch_max_abs_diff": "1", "moments.sd_per_sample": "1",
    "moments.estimate_s": "s", "moments.extract_log_coeffs_s": "s",
    "moments.integral_means_scan_s": "s", "spectrum.classify_s": "s",
    "spectrum.classify_calls": "count", "spectrum.classify_us_per_point": "us",
    "spectrum.lower_boundary_q_s": "s", "spectrum.lower_boundary_q_calls": "count",
    "spectrum.xy_s": "s", "spectrum.curve_eval_s": "s", "residuals.check_s": "s",
    "cli.emit_s": "s", "cli.emit_values": "count", "cli.emit_ns_per_value": "ns",
    "cli.self_s": "s", "trace.overhead_s": "s",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env.pop("SLE_LAB_THREADS", None)   # it would override --workers
    env.pop("PYTHONPATH", None)        # the worker imports slelab from ROOT/src only
    return env


def worker(args, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        fail(f"worker {' '.join(args[:1])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return elapsed


def machine_record(args):
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "seed": args.seed, "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace}


def accuracy(estimators):
    """(time-to-tolerance factor, relative sd per sample) of the estimators.

    The factor is the max over estimators of (stderr / target)^2, with the
    squared standard errors pooled over rounds and the target
    TARGET_REL_STDERR of the exact value.  The second figure is
    stderr * sqrt(N) / |exact| of the estimator that sets the factor.  A
    workload without Monte Carlo estimators reaches its accuracy in one
    pass: factor 1, and no sd.
    """
    if not estimators:
        return 1.0, 0.0
    pooled = {}
    for e in estimators:
        pooled.setdefault(e["name"], []).append(e)
    best = None
    for group in pooled.values():
        var = statistics.fmean(e["stderr"] ** 2 for e in group)
        exact = group[0]["exact"]
        factor = var / (workloads.TARGET_REL_STDERR * exact) ** 2
        sd = (statistics.fmean(e["stderr"] ** 2 * e["n"] for e in group)) ** 0.5 / exact
        if best is None or factor > best[0]:
            best = (factor, sd)
    return best


def reps(rounds, label):
    """Every timing of one step over the rounds."""
    return [t for rec in rounds for t in rec.get("reps", {}).get(label, [rec["seconds"][label]])]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "slelab", "__init__.py")):
        fail(f"no slelab sources under {os.path.join(ROOT, 'src')}; run from a checkout")

    out_dir = os.path.join(ROOT, ".perfbench_out")
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=tmp_root)
    try:
        report = run(args, tmp, out_dir)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(report))


def run(args, tmp, out_dir):
    t_start = time.perf_counter()
    spec = workloads.make_spec(args.workload, args.seed, args.seconds)
    spec_path = os.path.join(tmp, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)

    setup_times = []
    if not args.trace:
        for i in range(SETUP_RUNS):
            setup_times.append(worker(["setup", os.path.join(tmp, f"setup{i}")], 60))

    t_worker = time.perf_counter()
    run_dir = os.path.join(tmp, "run")
    os.makedirs(run_dir)
    budget = WORKER_TIMEOUT_S - (time.perf_counter() - t_start)
    worker(["run", spec_path, run_dir] + (["--trace"] if args.trace else []), budget)
    with open(os.path.join(run_dir, "result.json")) as fh:
        result = json.load(fh)

    # checks, outside every timed region
    t_checks = time.perf_counter()
    reference = workloads.probe_reference(spec["probe"])
    known = workloads.PROBES[spec["probe"]]["known_fault"]
    all_checks, estimators = [], []
    ref_err = batch_diff = 0.0
    for rec in result["rounds"]:
        round_checks = workloads.check_main(spec, rec, estimators)
        round_checks += workloads.check_entry(rec)
        probe_checks, e_ref, e_batch = workloads.check_probe(spec, rec, reference)
        ref_err, batch_diff = max(ref_err, e_ref), max(batch_diff, e_batch)
        all_checks += [(c, False) for c in round_checks] + [(c, known) for c in probe_checks]
    failed = [c for c, _ in all_checks if not c.ok]
    unexpected = [c for c, k in all_checks if not c.ok and not k]

    # means over the run: on a shared machine speed drifts over seconds, and
    # the mean over the whole measured window follows that drift least
    untraced = [rec for rec in result["rounds"] if not rec["traced"]]
    wall = statistics.fmean(rec["wall_s"] for rec in untraced)
    if args.trace:
        traced = [rec for rec in result["rounds"] if rec["traced"]]
        values = dict(result["layers"])
        values["flow.ref_max_abs_err"] = ref_err
        values["flow.batch_max_abs_diff"] = batch_diff
        values["moments.sd_per_sample"] = accuracy(estimators)[1]
        values["trace.overhead_s"] = statistics.fmean(rec["wall_s"] for rec in traced) - wall
        units = LAYER_UNITS
    else:
        on_diagram = args.workload == "diagram"
        pd_label = "phase_diagram" if on_diagram else "entry.phase_diagram"
        xy_label = "xy_geometry" if on_diagram else "entry.xy_geometry"
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "peak_rss_mb": result["peak_rss_mb"],
            "time_to_tol_s": wall * accuracy(estimators)[0],
            "phase_diagram_s": statistics.fmean(reps(untraced, pd_label)),
            "xy_geometry_s": statistics.fmean(reps(untraced, xy_label)),
        }
        units = END_TO_END_UNITS
    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}
    report = {"correct": not unexpected, "attempted": len(all_checks), "failed": len(failed),
              "metrics": metrics}

    record = {"machine": machine_record(args), "spec": spec, "report": report,
              "rounds": [{k: rec.get(k) for k in ("round", "traced", "wall_s", "seconds", "reps", "rc")}
                         for rec in result["rounds"]],
              "setup_times": setup_times, "estimators": estimators,
              "failed_checks": [{"name": c.name, "known_fault": k, "detail": c.detail}
                                for c, k in all_checks if not c.ok],
              "run_seconds": {"setup": t_worker - t_start, "worker": t_checks - t_worker,
                              "checks": time.perf_counter() - t_checks}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"result-{stem}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    spans = os.path.join(tmp, "run", "spans.npz")
    if os.path.exists(spans):
        shutil.move(spans, os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.npz"))
    for c in unexpected:
        print(f"FAILED {c.name}: {c.detail}", file=sys.stderr)
    return report


if __name__ == "__main__":
    main()
