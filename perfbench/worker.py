"""Worker process of the benchmark: set-up, or the rounds of one workload.

    python3 perfbench/worker.py setup OUTDIR
    python3 perfbench/worker.py run SPEC.json OUTDIR [--trace]

``setup`` imports slelab, builds the CLI parser and makes one small call to
every entry point, then exits; the parent times the whole process.  ``run``
repeats rounds until their main parts have taken ``seconds``, and writes
``OUTDIR/result.json``.  With ``--trace`` the rounds come in pairs, one
untraced and one traced on the same inputs, and the spans are written to
``OUTDIR/spans.npz``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import slelab  # noqa: E402
from slelab import cli, flow, moments, residuals, spectrum  # noqa: E402

import workloads  # noqa: E402
from spans import SpanTable, Tracer  # noqa: E402

# guard against importing an installed slelab instead of this checkout's
if not os.path.abspath(slelab.__file__).startswith(os.path.join(ROOT, "src")):
    raise ImportError(f"slelab imported from {slelab.__file__}, not from {ROOT}/src")

# hard stop for the rounds, whatever --seconds asks, so a run ends in time
ROUND_BUDGET_S = 110.0


def install_tracer(tracer):
    def evolve_units(path, cfg, points):
        n_paths = 1 if np.ndim(path.theta) == 1 else np.shape(path.theta)[0]
        return n_paths * np.size(points) * (len(path.times) - 1)

    def emit_units(args, columns, rows, suffix=""):
        return len(rows) * len(columns)

    def substep_units(w, *args):
        return w.size

    tracer.wrap(flow, "sample_driver", "flow.sample_driver")
    tracer.wrap(flow, "evolve", "flow.evolve", evolve_units)
    tracer.wrap(flow, "sample_ensemble", "flow.sample_ensemble")
    tracer.count(flow, "_rk4_substep", "flow.rk4_substep", substep_units)
    for name in ("estimate_one_point", "estimate_moduli", "estimate_two_point",
                 "extract_log_coeffs", "integral_means_scan"):
        tracer.wrap(moments, name, f"moments.{name}")
    for name in ("classify", "lower_boundary_q", "xy_inverse", "xy_spectra",
                 "quartic_hyperbola_residual", "curve_eval"):
        tracer.wrap(spectrum, name, f"spectrum.{name}")
    for name in ("abc_check", "duality_check", "ode_residual", "pde_residual",
                 "moduli_residual", "seed_systems"):
        tracer.wrap(residuals, name, f"residuals.{name}")
    tracer.wrap(cli, "_emit", "cli._emit", emit_units)
    for name in sorted(vars(cli)):
        if name.startswith("_cmd_"):
            tracer.wrap(cli, name, f"cli.{name}")


CMD_SPANS = tuple(f"cli.{n}" for n in sorted(vars(cli)) if n.startswith("_cmd_"))


def layer_metrics(table, counts, n_rounds):
    """Per-round means of the per-layer figures over the traced rounds."""
    per = 1.0 / n_rounds
    evolve_s = table.total("flow.evolve")
    pps = table.units("flow.evolve")
    substeps = counts.get("flow.rk4_substep", [0, 0])[1]
    classify_s = table.total("spectrum.classify")
    classify_n = table.calls("spectrum.classify")
    emit_s = table.total("cli._emit")
    emit_n = table.units("cli._emit")
    return {
        "flow.evolve_s": evolve_s * per,
        "flow.evolve_ns_per_path_point_step": evolve_s / pps * 1e9 if pps else 0.0,
        "flow.evolve_calls": table.calls("flow.evolve") * per,
        "flow.path_point_steps": pps * per,
        # RK4 sub-steps per macro step, each weighted by its batch size: 1 when
        # the sub-stepping branch never fires
        "flow.substeps_per_step": substeps / pps if pps else 0.0,
        "flow.sample_driver_s": table.total("flow.sample_driver") * per,
        "flow.sample_ensemble_self_s": table.self_time("flow.sample_ensemble") * per,
        "moments.estimate_s": table.total("moments.estimate_one_point", "moments.estimate_moduli",
                                          "moments.estimate_two_point") * per,
        "moments.extract_log_coeffs_s": table.total("moments.extract_log_coeffs") * per,
        "moments.integral_means_scan_s": table.total("moments.integral_means_scan") * per,
        "spectrum.classify_s": classify_s * per,
        "spectrum.classify_calls": classify_n * per,
        "spectrum.classify_us_per_point": classify_s / classify_n * 1e6 if classify_n else 0.0,
        "spectrum.lower_boundary_q_s": table.total("spectrum.lower_boundary_q") * per,
        "spectrum.lower_boundary_q_calls": table.calls("spectrum.lower_boundary_q") * per,
        "spectrum.xy_s": table.total("spectrum.xy_inverse", "spectrum.xy_spectra",
                                     "spectrum.quartic_hyperbola_residual") * per,
        "spectrum.curve_eval_s": table.total("spectrum.curve_eval") * per,
        "residuals.check_s": table.total(*(f"residuals.{n}" for n in (
            "abc_check", "duality_check", "ode_residual", "pde_residual",
            "moduli_residual", "seed_systems"))) * per,
        "cli.emit_s": emit_s * per,
        "cli.emit_values": emit_n * per,
        "cli.emit_ns_per_value": emit_s / emit_n * 1e9 if emit_n else 0.0,
        "cli.self_s": table.self_time(*CMD_SPANS) * per,
    }


def one_round(spec, r, outdir, tracer=None):
    tag = "t" if tracer is not None else "u"
    rdir = os.path.join(outdir, f"round{r:02d}{tag}")
    os.makedirs(rdir, exist_ok=True)
    record = workloads.new_record(r, tracer is not None)
    if tracer is not None:
        install_tracer(tracer)
    try:
        workloads.run_main(spec, r, cli, rdir, record, tracer)
        workloads.run_entry(cli, rdir, record, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    workloads.run_probe(spec, record)
    return record


def run(spec_path, outdir, trace):
    with open(spec_path) as fh:
        spec = json.load(fh)
    # let caches fill and lazy imports finish before anything is timed
    warm = workloads.new_record(-1, False)
    os.makedirs(os.path.join(outdir, "warmup"), exist_ok=True)
    workloads.run_entry(cli, os.path.join(outdir, "warmup"), warm)

    tracer = Tracer() if trace else None
    rounds = []
    measured = 0.0
    start = time.perf_counter()
    r = 0
    while r < len(spec["round_seeds"]):
        rounds.append(one_round(spec, r, outdir))
        if tracer is not None:
            rounds.append(one_round(spec, r, outdir, tracer))
        measured += sum(rec["wall_s"] for rec in rounds if rec["round"] == r)
        r += 1
        elapsed = time.perf_counter() - start
        if measured >= spec["seconds"] or elapsed * (r + 1) / r > ROUND_BUDGET_S:
            break

    result = {"rounds": rounds,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        arrays = tracer.arrays()
        np.savez_compressed(os.path.join(outdir, "spans.npz"), **arrays)
        n_traced = sum(1 for rec in rounds if rec["traced"])
        result["layers"] = layer_metrics(SpanTable(arrays), tracer.counts, n_traced)
        result["n_spans"] = len(arrays["start"])
    with open(os.path.join(outdir, "result.json"), "w") as fh:
        json.dump(result, fh)


def setup(outdir):
    cli.build_parser()
    os.makedirs(outdir, exist_ok=True)
    record = workloads.new_record(-1, False)
    workloads.run_entry(cli, outdir, record)
    bad = {k: v for k, v in record["rc"].items() if v != 0}
    if bad:
        raise SystemExit(f"entry-point calls failed: {bad}")


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "setup":
        setup(sys.argv[2])
    elif len(sys.argv) >= 4 and sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3], "--trace" in sys.argv[4:])
    else:
        raise SystemExit(__doc__)
