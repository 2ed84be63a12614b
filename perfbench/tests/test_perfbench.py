"""Fast tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q

Each checker must accept slelab's output and reject a deliberately wrong
one; the CLI's ``--no-header`` outputs must repeat byte for byte.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from reference import flow_reference  # noqa: E402
from spans import SpanTable, Tracer  # noqa: E402

from slelab import cli, flow, moments, spectrum  # noqa: E402


def run_cli(tmp_path, name, argv):
    path = str(tmp_path / name)
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main([*argv, "--no-header", "--output", path])
    assert rc == 0
    return path


# ---------------------------------------------------------------------------
# phase diagram


@pytest.mark.parametrize("kappa", [1.0, 2.0, 4.0, 6.0, 8.0, 12.0])
def test_lower_boundary_matches_program(kappa):
    d = checks.Diagram(kappa)
    ps = np.linspace(d.p0prime - 6, d.p0 + 6, 101)
    theirs = np.array([spectrum.lower_boundary_q(p, kappa) for p in ps])
    assert np.max(np.abs(d.lower_boundary(ps) - theirs)) < 1e-10


@pytest.fixture(scope="module")
def small_diagram(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pd")
    path = run_cli(tmp, "pd.csv", ["phase-diagram", "--kappa", "6", "--m", "3",
                                   "--resolution", "50", "--curve-points", "30"])
    cols, rows = checks.read_csv(path)
    c = checks.float_columns(cols, rows, ["p", "q", "m", "beta"])
    c["region"] = checks.str_column(cols, rows, "region")
    ccols, crows = checks.read_csv(str(tmp / "pd.curves.csv"))
    cc = checks.float_columns(ccols, crows, ["p", "q"])
    cc["curve"] = checks.str_column(ccols, crows, "curve")
    return c, cc


def test_regions_accept_program_output(small_diagram):
    c, _ = small_diagram
    assert set(c["region"]) == {"I", "II", "III", "IV"}
    assert checks.check_regions("pd", 6.0, c["p"], c["q"], c["m"], c["region"], c["beta"]).ok


@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_regions_reject_swapped_label(small_diagram, label):
    c, _ = small_diagram
    region = c["region"].copy()
    i = int(np.flatnonzero(region == label)[len(region[region == label]) // 2])
    region[i] = "II" if label == "IV" else "IV"
    assert not checks.check_regions("pd", 6.0, c["p"], c["q"], c["m"], region, c["beta"]).ok


def test_regions_reject_perturbed_beta_and_wrong_fold(small_diagram):
    c, _ = small_diagram
    beta = c["beta"].copy()
    beta[7] *= 1 + 1e-7
    assert not checks.check_regions("pd", 6.0, c["p"], c["q"], c["m"], c["region"], beta).ok
    assert not checks.check_regions("pd", 6.0, c["p"], c["q"], c["m"] * 0 + 2, c["region"], c["beta"]).ok


def test_curves_accept_program_output_and_reject_perturbations(small_diagram):
    _, cc = small_diagram
    assert checks.check_curves("curves", 6.0, 3, cc["curve"], cc["p"], cc["q"]).ok
    # wrong m-fold exponent
    assert not checks.check_curves("curves", 6.0, 2, cc["curve"], cc["p"], cc["q"]).ok
    for cid in checks.CURVE_IDS:
        # the vertical lines fix p; the other curves are moved off in q
        p, q = cc["p"].copy(), cc["q"].copy()
        moved = p if cid in ("D0", "D0prime", "Delta0") else q
        moved[np.flatnonzero(cc["curve"] == cid)[3]] += 1e-6
        assert not checks.check_curves("curves", 6.0, 3, cc["curve"], p, q).ok, cid
    assert not checks.check_curves("curves", 6.5, 3, cc["curve"], cc["p"], cc["q"]).ok


def test_grid_check():
    p = np.repeat(np.linspace(-1, 1, 5), 5)
    assert checks.check_grid("g", p, -1, 1, 5, 5, 1).ok
    assert not checks.check_grid("g", p[:-1], -1, 1, 5, 5, 1).ok
    assert not checks.check_grid("g", np.tile(np.linspace(-1, 1, 5), 5), -1, 1, 5, 5, 1).ok


# ---------------------------------------------------------------------------
# xy geometry, universal spectrum, means scan


@pytest.fixture(scope="module")
def xy_cols(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("xy")
    path = run_cli(tmp, "xy.json", ["xy-geometry", "--kappa", "6", "--resolution", "30",
                                    "--format", "json"])
    cols, rows = checks.read_json_table(path)
    return checks.float_columns(cols, rows, cols)


def test_xy_accepts_program_output(xy_cols):
    assert checks.check_xy("xy", 6.0, xy_cols).ok


@pytest.mark.parametrize("column", ["beta_1", "beta_0", "beta_tip", "beta_lin",
                                    "hyperbola_residual", "p", "q"])
def test_xy_rejects_perturbed_column(xy_cols, column):
    cols = dict(xy_cols)
    cols[column] = cols[column].copy()
    cols[column][11] += 1e-6 * max(1.0, abs(cols[column][11]))
    assert not checks.check_xy("xy", 6.0, cols).ok


def test_xy_rejects_wrong_kappa(xy_cols):
    assert not checks.check_xy("xy", 6.1, xy_cols).ok


def test_universal(tmp_path):
    path = run_cli(tmp_path, "u.csv", ["universal", "--resolution", "25"])
    _, rows = checks.read_csv(path)
    assert checks.check_universal("u", rows).ok
    bad = [list(r) for r in rows]
    bad[30][3] = repr(float(bad[30][3]) + 1e-6)
    assert not checks.check_universal("u", bad).ok
    bad = [list(r) for r in rows]
    bad[5][4] = str(1 - int(bad[5][4]))
    assert not checks.check_universal("u", bad).ok


def test_means_scan_slope(tmp_path):
    args = ["means-scan", "--kappa", "6", "--p", repr(workloads.K6_P), "--q", repr(workloads.K6_Q),
            "--r-min", "0.9", "--r-max", "0.9999"]
    path = run_cli(tmp_path, "m.csv", args)
    assert workloads._means_checks("m", path, 40, slope=0.75)[0].ok
    # a perturbed exponent moves the slope out of tolerance
    assert not workloads._means_checks("m", path, 40, slope=0.75 * 1.02)[0].ok


# ---------------------------------------------------------------------------
# Monte Carlo estimates


def test_closed_forms_agree():
    z = 0.3 + 0.2j
    assert checks.moduli(0.5, 2.0, 1.0) == pytest.approx(1 / 3, rel=1e-14)
    assert checks.one_point(z, 1.0) == pytest.approx(1 - z, rel=1e-14)
    assert checks.two_point(z, 0.0, 6.0, 0.5) == pytest.approx(checks.one_point(z, 0.5), rel=1e-14)
    assert checks.parabola_point(6.0, 0.5) == pytest.approx((1.75, 1.5), rel=1e-14)
    assert checks.parabola_point(2.0, 1.0) == pytest.approx((2.0, 2.0), rel=1e-14)


def test_estimate_check_rejects_perturbed_exponent():
    exact = checks.moduli(0.5, 6.0, 0.5)
    assert checks.check_estimate("m", exact + 0.002, 0.002, exact).ok
    # the same estimate held against the closed form at gamma + 0.05
    assert not checks.check_estimate("m", exact + 0.002, 0.002, checks.moduli(0.5, 6.0, 0.55)).ok
    assert not checks.check_estimate("m", exact, 0.0, exact).ok          # no error bar
    assert not checks.check_estimate("m", float("nan"), 0.01, exact).ok


def test_moment_rows_checked_against_closed_form(tmp_path):
    args = ["moments", "--kappa", "2", "--p", "2", "--q", "2", "--z", "0.5", "--z", "0.3",
            "--n-samples", "300", "--T", "6", "--dt", "2e-3", "--seed", "3"]
    path = run_cli(tmp_path, "m.csv", args)
    est = []
    good = workloads._moment_checks("m", path, 300, lambda z: checks.one_point(z, 1.0), est)
    assert all(c.ok for c in good) and len(est) == 2
    wrong = workloads._moment_checks("m", path, 300, lambda z: checks.one_point(z, 1.5), [])
    assert not any(c.ok for c in wrong)


def test_log_coeff_checks_fail_without_captured_stats(tmp_path):
    args = ["log-coeffs", "--kappa", "2", "--radius", "0.6", "--fft-size", "8", "--n-max", "2",
            "--n-samples", str(workloads.BULK_CIRCLE_PATHS), "--T", "0.5", "--dt", "0.01"]
    original = moments.extract_log_coeffs
    with workloads.capture(moments, "extract_log_coeffs") as captured:
        path = run_cli(tmp_path, "lc.csv", args)
    assert moments.extract_log_coeffs is original and len(captured) == 1
    s = captured[0]
    record = {"rc": {"log_coeffs": 0}, "files": {"log_coeffs": path}, "log_coeffs": {
        "mean_gamma": [[v.real, v.imag] for v in s.mean_gamma], "mean_sq": list(s.mean_sq),
        "cross": [[v.real, v.imag] for v in s.cross], "stderr_gamma": list(s.stderr_gamma),
        "stderr_sq": list(s.stderr_sq), "stderr_cross": list(s.stderr_cross),
        "n_samples": int(s.n_samples)}}
    # a short horizon: only the table must pass, but every check must run
    full = workloads._log_coeff_checks(record, [])
    assert len(full) == len(workloads.LOG_COEFF_CHECKS) and full[0].ok
    del record["log_coeffs"]
    missing = workloads._log_coeff_checks(record, [])
    assert len(missing) == len(full) and not any(c.ok for c in missing)
    record["rc"]["log_coeffs"] = 1
    failed = workloads._log_coeff_checks(record, [])
    assert len(failed) == len(full) and not any(c.ok for c in failed)


# ---------------------------------------------------------------------------
# flow probes


def test_reference_agrees_with_evolve_in_bulk():
    times, theta = workloads.probe_driver("bulk")
    pr = workloads.PROBES["bulk"]
    cfg = flow.SimConfig(kappa=pr["kappa"], horizon_T=pr["T"], dt=pr["dt"])
    st = flow.evolve(flow.DrivingPath(times=times, theta=theta[0]), cfg, [0.5])
    w, ld, lr = flow_reference(times, theta[:1], np.array([0.5 + 0j]))
    assert abs(st.w[0, 0] - w[0]) < workloads.REF_BOUND
    assert abs(st.logderiv[0, 0] - ld[0]) < workloads.REF_BOUND
    assert abs(st.logratio[0, 0] - lr[0]) < workloads.REF_BOUND


def test_probe_check_flags_differences():
    spec = {"probe": "bulk"}
    ref = [np.array([0.1 + 0.1j, 0.2j, 0.3]) for _ in range(4)]
    rec = {"probe": [{"path": i, "point": j,
                      "alone": [[v.real, v.imag] for v in ref[0]],
                      "batch": [[v.real, v.imag] for v in ref[0]]}
                     for i in (0, 1) for j in (0, 1)]}
    out, err, diff = workloads.check_probe(spec, rec, ref)
    assert all(c.ok for c in out) and len(out) == 8 and err == diff == 0.0
    rec["probe"][2]["batch"][1][0] += 1e-8
    rec["probe"][3]["alone"][0][1] += 1e-4
    out, err, diff = workloads.check_probe(spec, rec, ref)
    assert [c.ok for c in out] == [True] * 4 + [True, False] + [False, False]


# ---------------------------------------------------------------------------
# spans


def test_self_time_subtracts_union_of_children():
    tr = Tracer()
    tr._name_ids = {"parent": 0, "child": 1}
    tr.names, tr.parent = [0, 1, 1, 1], [-1, 0, 0, 0]
    tr.start, tr.end = [0.0, 1.0, 2.0, 6.0], [10.0, 4.0, 5.0, 7.0]
    tr.thread, tr.units = [1, 2, 3, 1], [0, 0, 0, 0]
    table = SpanTable(tr.arrays())
    assert table.self_time("parent") == pytest.approx(10 - 4 - 1)
    assert table.total("child") == pytest.approx(3 + 3 + 1)
    assert table.total("parent", "child") == pytest.approx(10)


def test_tracer_wraps_and_restores():
    tr = Tracer()
    original = spectrum.classify
    tr.wrap(spectrum, "classify", "spectrum.classify")
    tr.wrap(spectrum, "lower_boundary_q", "spectrum.lower_boundary_q")
    spectrum.classify(1.0, 0.0, 6.0)
    tr.uninstall()
    assert spectrum.classify is original
    table = SpanTable(tr.arrays())
    assert table.calls("spectrum.classify") == 1
    assert table.calls("spectrum.lower_boundary_q") == 1
    assert table.self_time("spectrum.classify") < table.total("spectrum.classify")


def test_tracer_counts_substeps_and_restores():
    tr = Tracer()
    original = flow._rk4_substep
    tr.count(flow, "_rk4_substep", "flow.rk4_substep", lambda w, *args: w.size)
    cfg = flow.SimConfig(kappa=2.0, horizon_T=0.05, dt=0.01)
    flow.evolve(flow.constant_driver(cfg), cfg, [0.5, 0.3])
    tr.uninstall()
    assert flow._rk4_substep is original
    # far from the circle: one sub-step per macro step, two points each
    assert tr.counts["flow.rk4_substep"] == [cfg.n_steps, 2 * cfg.n_steps]


# ---------------------------------------------------------------------------
# determinism of --no-header outputs


@pytest.mark.parametrize("argv", [
    ["phase-diagram", "--kappa", "6", "--resolution", "30"],
    ["xy-geometry", "--kappa", "6", "--resolution", "30", "--format", "json"],
    ["moments", "--kappa", "6", "--p", "1.75", "--q", "1.5", "--kind", "moduli", "--z", "0.5",
     "--n-samples", "1100", "--T", "0.5", "--dt", "0.01"],
    ["log-coeffs", "--kappa", "2", "--radius", "0.6", "--fft-size", "8", "--n-max", "2",
     "--n-samples", "1100", "--T", "0.5", "--dt", "0.01"],
])
def test_no_header_outputs_repeat_byte_for_byte(tmp_path, argv):
    outs = []
    for i, workers in enumerate(["1", "1", "2"]):
        path = run_cli(tmp_path, f"out{i}.txt", [*argv, "--workers", workers])
        with open(path, "rb") as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1] == outs[2]


# ---------------------------------------------------------------------------
# the command itself


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run([*command, "--workload", "diagram", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_spec_depends_only_on_seed():
    for w in workloads.WORKLOADS:
        assert workloads.make_spec(w, 5, 10) == workloads.make_spec(w, 5, 10)
        assert workloads.make_spec(w, 5, 10)["round_seeds"] != workloads.make_spec(w, 6, 10)["round_seeds"]
