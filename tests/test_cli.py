"""Tests for the batch command-line front-end."""

import argparse
import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from slelab import cli, flow, moments, residuals, spectrum


def run(argv):
    return cli.main(argv)


def _usage_error(argv, capsys):
    """The stderr of a run that must end in a usage error, exit 1."""
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 1
    return capsys.readouterr().err


def read_table(path):
    lines = path.read_text().strip().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    cols = data[0].split(",")
    rows = [dict(zip(cols, ln.split(","))) for ln in data[1:]]
    return cols, rows


class TestSpectrumCommand:
    def test_trivial_origin(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = run(["spectrum", "--kappa", "6", "--p", "0", "--q", "0",
                    "--no-header", "--output", str(out)])
        assert code == 0
        cols, rows = read_table(out)
        assert rows[0]["region"] == "II"
        assert float(rows[0]["beta"]) == 0.0

    def test_json_format(self, tmp_path):
        out = tmp_path / "s.json"
        code = run(["spectrum", "--kappa", "6", "--p", "1", "--q", "1",
                    "--format", "json", "--no-header", "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["columns"][:2] == ["p", "q"]
        assert "generated" not in payload

    @pytest.mark.parametrize("argv", [["spectrum"], ["spectrum", "--p", "1"]], ids=" ".join)
    def test_no_points_is_1(self, argv, tmp_path, capsys):
        # a --p/--q that is not given is no point, not the scalar default of moments
        out = tmp_path / "s.csv"
        assert run(argv + ["--no-header", "--output", str(out)]) == 1
        assert capsys.readouterr().err == "error: spectrum needs matching --p/--q lists\n"
        assert not out.exists()


class TestPhaseDiagram:
    def test_boundary_includes_P0(self, tmp_path):
        out = tmp_path / "pd.csv"
        code = run(["phase-diagram", "--kappa", "6", "--m", "1",
                    "--resolution", "8", "--curve-points", "40",
                    "--no-header", "--output", str(out)])
        assert code == 0
        _, rows = read_table(tmp_path / "pd.curves.csv")
        greens = [(float(r["p"]), float(r["q"])) for r in rows
                  if r["curve"] == "greenParabola"]
        best = min(abs(p - 1.5625) + abs(q - 35.0 / 24.0) for p, q in greens)
        assert best < 1e-6

    def test_grid_schema(self, tmp_path):
        out = tmp_path / "pd.csv"
        run(["phase-diagram", "--kappa", "2", "--resolution", "6",
             "--curve-points", "10", "--no-header", "--output", str(out)])
        cols, rows = read_table(out)
        assert cols == ["p", "q", "kappa", "m", "region", "beta"]
        assert len(rows) == 36
        assert {r["region"] for r in rows} <= {"I", "II", "III", "IV"}


class TestDeterminism:
    def test_byte_identical_with_no_header(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["moments", "--kappa", "2", "--p", "2", "--q", "2", "--z", "0.4",
                "--n-samples", "20", "--dt", "0.02", "--T", "1.0", "--no-header"]
        run(args + ["--output", str(a)])
        run(args + ["--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_invariance(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["moments", "--kappa", "2", "--p", "2", "--q", "2", "--z", "0.4",
                "--n-samples", "25", "--dt", "0.02", "--T", "1.0", "--no-header"]
        run(args + ["--workers", "1", "--output", str(a)])
        run(args + ["--workers", "4", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv, nan_columns", [
    (["moments", "--z", "0.5"], ("estimate_re", "estimate_im")),
    (["moments", "--z", "0.5", "--kind", "moduli"], ("estimate_re",)),
    (["two-point"], ("estimate_re", "estimate_im")),
    (["log-coeffs"], ("mean_re", "mean_im", "mean_sq")),
    (["diagnose", "--z", "0.5", "--T-list", "0.05", "--T-list", "0.1"], ("estimate",)),
])
def test_empty_ensemble_writes_nan_without_warnings(argv, nan_columns, tmp_path):
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--n-samples", "0", "--T", "0.1", "--dt", "0.01", "--no-header",
                           "--output", str(out)]) == 0
    _, rows = read_table(out)
    assert rows
    for row in rows:
        assert all(row[c] == "nan" for c in nan_columns)
        assert row.get("stderr", "0.0") == "0.0"


class TestConfigFile:
    def test_config_defaults_and_flag_override(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kappa": 6.0, "p": [0.0], "q": [0.0]}))
        out = tmp_path / "out.csv"
        code = run(["spectrum", "--config", str(cfgfile), "--no-header",
                    "--output", str(out)])
        assert code == 0
        _, rows = read_table(out)
        assert float(rows[0]["kappa"]) == 6.0
        # flag overrides the config file
        code = run(["spectrum", "--config", str(cfgfile), "--kappa", "2",
                    "--no-header", "--output", str(out)])
        _, rows = read_table(out)
        assert float(rows[0]["kappa"]) == 2.0

    def test_bad_config_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert run(["spectrum", "--p", "0", "--q", "0", "--config", str(bad)]) == 1

    def test_config_list_is_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{"kappa": 6.0}]))
        out = tmp_path / "out.csv"
        assert run(["spectrum", "--p", "0", "--q", "0", "--config", str(cfg),
                    "--output", str(out)]) == 1
        assert capsys.readouterr().err == "error: config file must hold a JSON object\n"
        assert not out.exists()

    @pytest.mark.parametrize("command,key", [("spectrum", "workers"), ("universal", "kappa"),
                                             ("check", "format"), ("means-scan", "integrand"),
                                             ("xy-geometry", "no-such-flag")])
    def test_key_of_no_flag_is_1(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps({key: 4}))
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg), "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: config key {key!r} names no flag of {command}")
        assert not out.exists()


class TestExitCodes:
    def test_validation_error_is_1(self):
        # z outside the admissible disk
        assert run(["moments", "--z", "0.99", "--n-samples", "2",
                    "--dt", "0.1", "--T", "0.5"]) == 1

    def test_unparseable_z_is_1(self):
        assert run(["moments", "--z", "fish", "--n-samples", "2"]) == 1

    def test_numerical_failure_is_2(self, tmp_path, capsys, monkeypatch):
        def singular(*args, **kwargs):
            raise flow.SingularityError("flow point collided with the driving singularity "
                                        "at t=0.5")

        monkeypatch.setattr(flow, "sample_ensemble", singular)
        out = tmp_path / "out.csv"
        assert run(["moments", "--z", "0.5", "--output", str(out)]) == 2
        assert capsys.readouterr().err == ("numerical failure: flow point collided with the "
                                           "driving singularity at t=0.5\n")
        assert not out.exists()

    def test_diagnose_second_point_is_1(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert run(["diagnose", "--kappa", "2", "--z", "0.3", "--z", "0.4", "--n-samples", "10",
                    "--dt", "0.05", "--T-list", "0.5", "--no-header",
                    "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: diagnose takes one --z point")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["moments", "--n-samples", "-5", "--z", "0.5"], "n_samples must be >= 0"),
        (["simulate", "--n-samples", "-1", "--z", "0.5"], "n_samples must be >= 0"),
        (["log-coeffs", "--n-samples", "4", "--fft-size", "0"], "a circle needs M >= 1"),
        (["log-coeffs", "--n-samples", "4", "--radius", "0"], "a circle needs M >= 1"),
        (["moments", "--n-samples", "4", "--workers", "0", "--z", "0.5"], "workers must be >= 1"),
        (["moments", "--n-samples", "4", "--workers", "-3", "--z", "0.5"], "workers must be >= 1"),
        (["diagnose", "--n-samples", "0", "--workers", "0", "--z", "0.5"], "workers must be >= 1"),
        *((["log-coeffs", "--n-samples", "4", f"--radius={r}"],
           f"a circle needs M >= 1 points and a finite radius r > 0, got M=32, r={r}")
          for r in ("inf", "nan")),
        (["simulate", "--n-samples", "2"], "simulate requires at least one --z point"),
        (["moments", "--n-samples", "2"], "moments requires at least one --z point"),
    ])
    def test_bad_ensemble_or_circle_is_1(self, argv, message, tmp_path, capsys):
        # rejected before any arithmetic on them, so without a NumPy warning
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv + ["--T", "0.1", "--dt", "0.01", "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["phase-diagram", "--resolution", "3", "--curve-points", "-1"],
         "curve-points must be an integer >= 0, got -1"),
        (["phase-diagram", "--resolution", "-1"], "resolution must be an integer >= 0, got -1"),
        (["xy-geometry", "--resolution", "-2"], "resolution must be an integer >= 0, got -2"),
        (["universal", "--resolution", "-1"], "resolution must be an integer >= 0, got -1"),
        (["phase-diagram", "--resolution", "3", "--curve-points", "3", "--m", "0"],
         "m must be a nonzero integer"),
    ])
    def test_bad_grid_is_1_before_any_output(self, argv, message, tmp_path, capsys):
        # the grids are computed while their file is open, so every input is
        # checked before the first file is opened
        out = tmp_path / "out.csv"
        assert run(argv + ["--no-header", "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_bad_grid_size_in_config_is_1(self, tmp_path, capsys):
        # a config value is parsed as its flag, so it is the same usage error
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"resolution": 2.5}))
        out = tmp_path / "out.csv"
        assert _usage_error(["xy-geometry", "--config", str(cfg), "--output", str(out)],
                            capsys) == _usage_error(["xy-geometry", "--resolution", "2.5"], capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["phase-diagram", "xy-geometry", "universal"])
    def test_resolution_0_writes_the_header_only(self, command, tmp_path):
        out = tmp_path / "out.csv"
        assert run([command, "--resolution", "0", "--no-header", "--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2

    @pytest.mark.parametrize("n_max, message", [
        ("0", "n_max must be >= 1, got 0"),
        ("-1", "n_max must be >= 1, got -1"),
        ("16", "aliasing guard: need n_max < M/2, got n_max=16, M=32"),
    ])
    def test_log_coeffs_sizes_checked_before_sampling(self, n_max, message, tmp_path, capsys,
                                                      monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("the ensemble was drawn")

        monkeypatch.setattr(flow, "sample_ensemble", no_sampling)
        out = tmp_path / "out.csv"
        assert run(["log-coeffs", "--n-max", n_max, "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "--kappa", "6", "--p=1", "--q=nan"], "q must be finite"),
        (["spectrum", "--kappa", "6", "--p=nan", "--q=1"], "p must be finite"),
        (["spectrum", "--kappa", "6", "--p=-inf", "--q=1"], "p must be finite"),
        (["spectrum", "--kappa", "6", "--m", "3", "--p=0", "--q=inf"], "q must be finite"),
        (["phase-diagram", "--kappa", "6", "--resolution", "4", "--curve-points", "4",
          "--q-max=inf"], "q must be finite"),
        (["phase-diagram", "--kappa", "6", "--resolution", "4", "--curve-points", "4",
          "--p-min=-inf"], "p must be finite"),
    ])
    def test_non_finite_exponents_are_1(self, argv, message, tmp_path, capsys):
        # rejected before any arithmetic on them, so without a NumPy warning
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv + ["--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["moments", "--z", "0.5", "--n-samples", "2", "--T", "inf"],
        ["simulate", "--z", "0.5", "--n-samples", "2", "--T", "inf"],
        ["diagnose", "--z", "0.5", "--n-samples", "2", "--T-list", "inf"],
    ])
    def test_non_finite_horizon_is_1(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv + ["--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: horizon_T must be finite and > 0")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["moments", "--z", "0.5", "--n-samples", "2", "--T", "0.01", "--dt", "1e-320"],
        ["simulate", "--z", "0.5", "--n-samples", "2", "--T", "0.01", "--dt", "5e-324"],
        ["diagnose", "--z", "0.5", "--n-samples", "2", "--T-list", "0.01", "--dt", "1e-320"],
    ])
    def test_step_count_overflow_is_1(self, argv, tmp_path, capsys):
        # T / dt is inf: a validation error, not a failure to count the steps
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv + ["--output", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: dt={float(argv[-1])} makes the step count "
                                           "horizon_T / dt overflow\n")
        assert not out.exists()

    @pytest.mark.parametrize("n_r", ["0", "1", "2"])
    def test_means_scan_short_radius_grid_is_1(self, n_r, tmp_path, capsys):
        out = tmp_path / "out.csv"
        # the default pair, and a tip-dominated one (gamma = -1 at kappa = 2)
        for pair in [[], ["--p", "-4", "--q", "-6"]]:
            assert run(["means-scan", *pair, "--n-r", n_r, "--output", str(out)]) == 1
            assert capsys.readouterr().err.startswith(
                f"error: the slope fit over the top half of r_grid needs at least 3 radii, "
                f"got {n_r}")
            assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["check", "--kappa", "0"],
        ["spectrum", "--kappa", "0", "--p", "0", "--q", "0"],
        ["phase-diagram", "--kappa", "0", "--resolution", "4", "--curve-points", "4"],
        ["xy-geometry", "--kappa", "0", "--resolution", "4"],
        ["check", "--kappa", "-1", "--suite", "algebra"],
        ["check", "--kappa", "nan"],
        ["spectrum", "--kappa", "inf", "--p", "0", "--q", "0"],
    ])
    def test_bad_kappa_is_1(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(argv + ["--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: kappa must be finite and > 0")
        assert not out.exists()

    def test_bad_kappa_in_config_is_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kappa": "six"}))
        out = tmp_path / "out.json"
        assert _usage_error(["check", "--config", str(cfg), "--output", str(out)],
                            capsys) == _usage_error(["check", "--kappa", "six"], capsys)
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--output", "--config"])
    def test_directory_path_is_1(self, flag, tmp_path, capsys):
        assert run(["spectrum", "--p", "0", "--q", "0", flag, str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_nan_exponent_is_off_the_parabola(self, tmp_path, capsys):
        with pytest.raises(flow.DomainError):
            moments.parabola_gamma_from_pq(2.0, float("nan"), 2.0)
        out = tmp_path / "out.csv"
        assert run(["means-scan", "--p", "nan", "--q", "2", "--output", str(out)]) == 1
        assert capsys.readouterr().err == "error: (p, q)=(nan, 2.0) does not lie on the parabola\n"
        assert not out.exists()
        # moments writes the estimate of an off-parabola pair with a NaN
        # closed form beside it
        assert run(["moments", "--p", "1", "--q", "3", "--z", "0.3", "--n-samples", "2",
                    "--dt", "0.1", "--T", "0.3", "--no-header", "--output", str(out)]) == 0
        _, rows = read_table(out)
        assert rows[0]["closed_form_re"] == rows[0]["closed_form_im"] == "nan"

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("flag", ["p", "q"])
    @pytest.mark.parametrize("command", [["moments", "--z", "0.5"], ["two-point"],
                                         ["diagnose", "--T-list", "0.05"]], ids=lambda c: c[0])
    def test_non_finite_moment_exponent_is_1(self, command, flag, value, tmp_path, capsys,
                                             monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("the ensemble was drawn")

        monkeypatch.setattr(flow, "sample_ensemble", no_sampling)
        monkeypatch.setattr(moments, "sample_ensemble", no_sampling)
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(command + [f"--{flag}={value}", "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {flag} must be finite, got {flag}={value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, n_samples", [
        *((argv, n) for n in ("0", "1") for argv in (
            ["moments", "--z", "nan"], ["moments", "--z", "0.3", "--z", "0.1+nanj"],
            ["simulate", "--z", "nan"], ["two-point", "--z1", "nan"],
            ["two-point", "--z2", "nan+0.1j"], ["diagnose", "--z", "nan", "--T-list", "0.05"])),
        (["moments", "--kappa", "2", "--z", "5"], "0"),
        (["moments", "--z", "0.95", "--kind", "moduli"], "0"),
        (["simulate", "--z", "0.95"], "0"),
        (["two-point", "--z2", "0.95"], "0"),
        (["log-coeffs", "--radius", "0.95"], "0"),
        (["diagnose", "--z", "0.95", "--T-list", "0.05"], "0"),
    ])
    def test_point_outside_r_max_is_1(self, argv, n_samples, tmp_path, capsys):
        # whatever the ensemble size, and a NaN point as well, without a
        # NumPy warning from the flow
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv + ["--n-samples", n_samples, "--T", "0.1", "--dt", "0.01",
                               "--output", str(out)]) == 1
        assert capsys.readouterr().err == "error: all |z| must be <= r_max=0.9\n"
        assert not out.exists()

    @pytest.mark.parametrize("bound", ["--r-min=nan", "--r-max=nan"])
    def test_means_scan_nan_radius_is_1(self, bound, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run(["means-scan", bound, "--output", str(out)]) == 1
        assert capsys.readouterr().err == "error: r_grid must be increasing and inside (0, 1)\n"
        assert not out.exists()

    def test_check_all_pass_exit_0(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["check", "--suite", "algebra", "--kappa", "6",
                    "--output", str(out)])
        assert code == 0
        reports = json.loads(out.read_text())
        assert reports and all(r["pass"] for r in reports)

    def test_check_seeds_suite(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["check", "--suite", "seeds", "--kappa", "2",
                    "--output", str(out)]) == 0

    @pytest.mark.parametrize("suite", residuals.SUITES)
    def test_check_writes_the_battery(self, tmp_path, suite):
        out = tmp_path / "r.json"
        assert run(["check", "--suite", suite, "--kappa", "6", "--seed", "5",
                    "--output", str(out)]) == 0
        reports = residuals.run_all_checks(6.0, suite=suite, seed=5)
        assert out.read_text() == json.dumps(reports, indent=2) + "\n"
        assert ("moduli_pde_gform" in [r["check"] for r in reports]) == \
            (suite in ("residuals", "all"))

    def test_check_writes_only_finite_numbers(self, tmp_path):
        # strict JSON: no NaN or Infinity token anywhere in the battery
        out = tmp_path / "r.json"
        assert run(["check", "--suite", "all", "--kappa", "6", "--output", str(out)]) == 0

        def reject(token):
            raise ValueError(f"non-finite JSON constant {token}")

        reports = json.loads(out.read_text(), parse_constant=reject)
        assert reports and all(r["pass"] for r in reports)

    @pytest.mark.parametrize("kappa", ["0.05", "0.1", "0.2", "0.5", "2", "6", "30", "120",
                                       "150", "1000"])
    def test_check_passes_across_kappa(self, kappa, tmp_path):
        out = tmp_path / "r.json"
        assert run(["check", "--suite", "all", "--kappa", kappa, "--output", str(out)]) == 0
        reports = json.loads(out.read_text())
        assert len(reports) == 22 and all(r["pass"] for r in reports)

    def test_check_out_of_float64_range_is_2(self, tmp_path, capsys):
        # at kappa = 0.01 the two-point closed form underflows to 0 near the circle
        out = tmp_path / "r.json"
        assert run(["check", "--suite", "all", "--kappa", "0.01", "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("numerical failure: the integrand leaves "
                                                  "float64 range")
        assert not out.exists()


# flags that some subcommands do not take, each with a valid rest of the line
_NOT_TAKEN = [
    ["universal", "--kappa", "50"],
    ["spectrum", "--seed", "9", "--p", "0", "--q", "0"],
    ["phase-diagram", "--workers", "4"],
    ["check", "--workers", "2"],
    ["check", "--format", "csv"],
    ["simulate", "--format", "json", "--z", "0.5"],
    ["means-scan", "--integrand", "mc"],
    ["means-scan", "--angular-m", "5"],
    ["universal", "--p-dagger", "3"],
    *([command, flag, "1"] for command in ("spectrum", "phase-diagram", "xy-geometry",
                                          "universal", "means-scan")
      for flag in ("--seed", "--workers")),
    ["spectrum", "--bogus"],
]


class TestUsageErrors:
    @pytest.mark.parametrize("argv", _NOT_TAKEN, ids=" ".join)
    def test_flag_not_taken_is_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: slelab ")
        assert f"error: unrecognized arguments: {argv[1]}" in err

    @pytest.mark.parametrize("argv", [[], ["nope"], ["check", "--suite", "nope"],
                                      ["spectrum", "--p", "x"], ["moments", "--z"]])
    def test_other_usage_errors_are_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 1
        assert capsys.readouterr().err.startswith("usage: slelab")

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
    def test_help_is_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: slelab")


# a small run of every subcommand
_SMALL = {
    "simulate": ["--z", "0.3", "--n-samples", "2", "--dt", "0.1", "--T", "0.3"],
    "moments": ["--z", "0.3", "--n-samples", "2", "--dt", "0.1", "--T", "0.3"],
    "two-point": ["--n-samples", "2", "--dt", "0.1", "--T", "0.3"],
    "log-coeffs": ["--fft-size", "8", "--n-max", "2", "--n-samples", "2", "--dt", "0.1",
                   "--T", "0.3"],
    "means-scan": ["--kappa", "6", "--p", "1.75", "--q", "1.5", "--n-r", "4"],
    "spectrum": ["--p", "0", "--q", "0"],
    "phase-diagram": ["--resolution", "4", "--curve-points", "4"],
    "xy-geometry": ["--resolution", "4"],
    "universal": ["--resolution", "4"],
    "check": ["--suite", "algebra"],
    "diagnose": ["--n-samples", "2", "--dt", "0.1", "--T-list", "0.2", "--T-list", "0.3"],
}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_every_declared_flag_is_read(command, tmp_path, monkeypatch):
    """Each flag of a subcommand's table entry is read by its handler (or,
    for --config, by main); --no-header is taken and ignored where no
    timestamp is written."""
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    name = cli._COMMANDS[command][1]
    handler, merge = getattr(cli, name), cli._merge_config
    monkeypatch.setattr(cli, name, lambda args: handler(Recording(**vars(args))))
    monkeypatch.setattr(cli, "_merge_config", lambda args: merge(Recording(**vars(args))))
    assert run([command, *_SMALL[command], "--output", str(tmp_path / "out")]) == 0
    declared = {f.replace("-", "_") for f in cli._flag_names(command)}
    assert declared - reads == ({"no_header"} if command in ("simulate", "check") else set())


def _outcome(argv, out, capsys):
    """What a run leaves: its exit code, its stderr and the bytes of every
    file it wrote in ``out``'s directory."""
    out.parent.mkdir()
    try:
        code = run(argv + ["--output", str(out)])
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err, {f.name: f.read_bytes() for f in out.parent.iterdir()}


def _as_config(command, argv):
    """The --config object of ``argv``'s flag-value pairs and --no-header:
    a JSON number where the text is one, a list for a repeatable flag."""
    repeatable = {f[:-1] for f in cli._COMMANDS[command][2] if f.endswith("+")}
    cfg = {"no-header": True}
    for flag, text in zip(argv[::2], argv[1::2]):
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        if flag[2:] in repeatable:
            cfg.setdefault(flag[2:], []).append(value)
        else:
            cfg[flag[2:]] = value
    return cfg


_MOMENTS = ["moments", "--n-samples", "2", "--dt", "0.1", "--T", "0.3", "--no-header"]
_SPECTRUM = ["spectrum", "--p", "0", "--q", "0", "--no-header"]

# (a run, a --config object, the flags that object stands for)
_CONFIG_AS_FLAGS = [
    (_SPECTRUM, {"kappa": 6}, ["--kappa", "6"]),
    (_SPECTRUM, {"kappa": True}, ["--kappa", "true"]),
    (_SPECTRUM, {"format": "xml"}, ["--format", "xml"]),
    (_SPECTRUM, {"no-header": "false"}, ["--no-header=false"]),
    (["spectrum", "--no-header"], {"p": 0.5, "q": [-1]}, ["--p", "0.5", "--q", "-1"]),
    (_MOMENTS, {"z": "0.5+0.1j"}, ["--z", "0.5+0.1j"]),
    (_MOMENTS, {"z": [0.5]}, ["--z", "0.5"]),
    (_MOMENTS + ["--z", "0.5"], {"seed": "x"}, ["--seed", "x"]),
    (_MOMENTS + ["--z", "0.5"], {"n-samples": 2.5}, ["--n-samples", "2.5"]),
    (_MOMENTS + ["--z", "0.5"], {"p": [1.0, 2.0]}, ["--p", "[1.0, 2.0]"]),
    (["diagnose", "--n-samples", "2", "--dt", "0.1", "--no-header"], {"T-list": 1.0},
     ["--T-list", "1.0"]),
    (["phase-diagram", "--resolution", "3", "--curve-points", "3", "--no-header"],
     {"p-min": None, "output": None}, []),
]


class TestConfigAsFlags:
    """A --config file is parsed as the flags it names."""

    @pytest.mark.parametrize("command", list(_SMALL))
    def test_config_writes_the_bytes_of_the_flags(self, command, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_as_config(command, _SMALL[command])))
        by_config = _outcome([command, "--config", str(cfg)], tmp_path / "a" / "out", capsys)
        by_flags = _outcome([command, *_SMALL[command], "--no-header"],
                            tmp_path / "b" / "out", capsys)
        assert by_config == by_flags
        assert by_config[0] == 0

    @pytest.mark.parametrize("argv, config, flags", _CONFIG_AS_FLAGS,
                             ids=[json.dumps(c) for _, c, _ in _CONFIG_AS_FLAGS])
    def test_config_runs_as_its_flags(self, argv, config, flags, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        by_config = _outcome(argv + ["--config", str(cfg)], tmp_path / "a" / "out", capsys)
        assert by_config == _outcome(argv + flags, tmp_path / "b" / "out", capsys)
        code, err, files = by_config
        assert (code, bool(files)) in ((0, True), (1, False))
        assert code == 0 or "error: argument --" in err

    def test_flag_replaces_the_config_list(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"z": ["0.1", "0.2"]}))
        by_flags = _outcome(_MOMENTS + ["--z", "0.3"], tmp_path / "b" / "out", capsys)
        assert _outcome(_MOMENTS + ["--config", str(cfg), "--z", "0.3"],
                        tmp_path / "a" / "out", capsys) == by_flags


class TestParserBuiltOnce:
    """main parses every call with one parser per process, and no call
    changes what a later call writes."""

    def test_built_once(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kappa": 6}))
        cli.build_parser.cache_clear()
        for argv in (_SPECTRUM, _SPECTRUM + ["--config", str(cfg)],
                     ["universal", "--resolution", "3", "--no-header"]):
            assert run(argv + ["--output", str(tmp_path / "out")]) == 0
        assert cli.build_parser.cache_info().misses == 1

    def test_handler_set_after_a_call_runs(self, tmp_path, monkeypatch):
        out = str(tmp_path / "out")
        assert run(_SPECTRUM + ["--output", out]) == 0
        seen = []
        monkeypatch.setattr(cli, "_cmd_spectrum", lambda args: seen.append(args.p) or 7)
        assert run(_SPECTRUM + ["--output", out]) == 7
        assert seen == [[0.0]]

    def test_no_call_leaks_into_the_next(self, tmp_path):
        spectrum_cfg = tmp_path / "spectrum.json"
        spectrum_cfg.write_text(json.dumps({"kappa": 6, "p": [0.5, 1.5], "q": [-1, 0]}))
        moments_cfg = tmp_path / "moments.json"
        moments_cfg.write_text(json.dumps({"kappa": 6, "z": ["0.1", "0.2"]}))
        tiny = ["--n-samples", "2", "--dt", "0.1", "--T", "0.3"]
        calls = [["spectrum", "--p", "1", "--q", "2"], ["spectrum", "--p", "3", "--q", "4"],
                 ["spectrum", "--config", str(spectrum_cfg)], ["spectrum", "--p", "0", "--q", "0"],
                 ["moments", "--config", str(moments_cfg), *tiny], ["moments", "--z", "0.3", *tiny],
                 ["diagnose", "--T-list", "0.2", "--T-list", "0.3", *tiny], ["diagnose", *tiny]]
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
        for i, argv in enumerate(calls):
            here, alone = tmp_path / f"here{i}.csv", tmp_path / f"alone{i}.csv"
            assert run(argv + ["--no-header", "--output", str(here)]) == 0
            subprocess.run([sys.executable, "-m", "slelab.cli", *argv, "--no-header",
                            "--output", str(alone)], env=env, check=True, timeout=300)
            assert here.read_bytes() == alone.read_bytes(), argv
        rows = [read_table(tmp_path / f"here{i}.csv")[1] for i in range(6)]
        assert [len(r) for r in rows] == [1, 1, 2, 1, 2, 1]
        assert [r[0]["kappa"] for r in rows] == ["2.0", "2.0", "6.0", "2.0", "6.0", "2.0"]


class TestOtherCommands:
    def test_simulate_dump(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = run(["simulate", "--kappa", "2", "--z", "0.3", "--z", "0.1+0.2j",
                    "--n-samples", "4", "--dt", "0.05", "--T", "0.5",
                    "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("stream_id")
        assert len(lines) == 1 + 4 * 2

    def test_csv_dump(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--kappa", "2", "--T", "1.0", "--dt", "0.02", "--seed", "11",
                    "--z", "0.2", "--z", "0.3", "--n-samples", "3", "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "stream_id"
        assert len(lines) == 1 + 3 * 2
        row = lines[1].split(",")
        assert float(row[1]) == 0.2

    def test_simulate_text_is_csv_writer_text(self, tmp_path, capsys):
        """simulate writes what csv.writer writes for the rows (stream_id, z,
        log f, log f'), \\r\\n line ends included, to the file or stdout;
        stream_id is the config's, on every row."""
        argv = ["simulate", "--kappa", "3", "--T", "0.3", "--dt", "0.1", "--seed", "4",
                "--z", "0.3", "--z", "0", "--z=-0.1-0.0j", "--n-samples", "1003"]
        pts = [0.3, 0, complex(-0.1, -0.0)]
        cfg = flow.SimConfig(kappa=3.0, horizon_T=0.3, dt=0.1, seed=4)
        sample = flow.sample_ensemble(cfg, pts, 1003)
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["stream_id", "z_re", "z_im", "logf_re", "logf_im", "logfp_re",
                         "logfp_im"])
        for i in range(sample.n_samples):
            for j, z in enumerate(sample.z):
                lf, lfp = sample.logf[i, j], sample.logfp[i, j]
                writer.writerow([cfg.stream_id] + [
                    repr(float(v)) for v in (z.real, z.imag, lf.real, lf.imag, lfp.real, lfp.imag)])
        expected = buf.getvalue().encode()
        assert b"\r\n" in expected and b"-inf" in expected and b"-0.0" in expected
        out = tmp_path / "sim.csv"
        assert run([*argv, "--output", str(out)]) == 0
        assert out.read_bytes() == expected
        capsys.readouterr()
        assert run(argv) == 0
        assert capsys.readouterr().out.encode() == expected

    def test_log_coeffs(self, tmp_path):
        out = tmp_path / "lc.csv"
        code = run(["log-coeffs", "--kappa", "2", "--radius", "0.5",
                    "--fft-size", "8", "--n-max", "3", "--n-samples", "30",
                    "--dt", "0.02", "--T", "2.0", "--no-header",
                    "--output", str(out)])
        assert code == 0
        cols, rows = read_table(out)
        assert cols == ["n", "mean_re", "mean_im", "mean_sq", "theory"]
        assert [int(r["n"]) for r in rows] == [1, 2, 3]
        assert float(rows[0]["theory"]) == 0.5

    def test_log_coeffs_theory_at_kappa6(self, tmp_path):
        # the theory column is the recursion's E|gamma_n|^2 at every kappa
        out = tmp_path / "lc.csv"
        assert run(["log-coeffs", "--kappa", "6", "--radius", "0.5", "--fft-size", "8",
                    "--n-max", "3", "--n-samples", "4", "--dt", "0.05", "--T", "0.5",
                    "--no-header", "--output", str(out)]) == 0
        _, rows = read_table(out)
        theory = [float(r["theory"]) for r in rows]
        assert theory == np.diagonal(moments.log_coeff_moments(6.0, 3)[1]).tolist()
        assert np.all(np.isfinite(theory)) and theory[0] == 0.25

    def test_means_scan(self, tmp_path):
        out = tmp_path / "ms.csv"
        code = run(["means-scan", "--kappa", "6", "--p", "1.75", "--q", "1.5",
                    "--r-min", "0.5", "--r-max", "0.999", "--n-r", "25",
                    "--no-header", "--output", str(out)])
        assert code == 0
        _, rows = read_table(out)
        beta = float(rows[0]["beta"])
        assert abs(beta - 0.75) < 0.05

    def test_two_point(self, tmp_path):
        out = tmp_path / "tp.csv"
        code = run(["two-point", "--kappa", "2", "--p", "2", "--q", "2",
                    "--z1", "0.3", "--z2", "0.2", "--n-samples", "20",
                    "--dt", "0.02", "--T", "1.0", "--no-header",
                    "--output", str(out)])
        assert code == 0
        _, rows = read_table(out)
        assert not np.isnan(float(rows[0]["closed_form_re"]))

    def test_xy_geometry(self, tmp_path):
        out = tmp_path / "xy.csv"
        code = run(["xy-geometry", "--kappa", "6", "--resolution", "4",
                    "--no-header", "--output", str(out)])
        assert code == 0
        cols, rows = read_table(out)
        assert "hyperbola_residual" in cols
        assert len(rows) == 16

    def test_universal(self, tmp_path):
        out = tmp_path / "u.csv"
        for n in (0, 1, 9, 25):
            code = run(["universal", "--resolution", str(n), "--no-header",
                        "--output", str(out)])
            assert code == 0
            cols, rows = read_table(out)
            assert cols == ["curve", "p", "q", "B", "feng_mcgregor"]
            assert [r["curve"] for r in rows] == ["tip"] * n + ["bulk"] * n + ["lin"] * n
            for r in rows:
                p, q = float(r["p"]), float(r["q"])
                assert float(r["B"]) == spectrum.universal_B(p, q)
                assert r["feng_mcgregor"] == str(int(spectrum.feng_mcgregor_domain(p, q)))

    def test_diagnose(self, tmp_path):
        out = tmp_path / "d.csv"
        code = run(["diagnose", "--kappa", "2", "--z", "0.3", "--n-samples", "10",
                    "--dt", "0.05", "--T-list", "0.5", "--T-list", "1.0",
                    "--no-header", "--output", str(out)])
        assert code == 0
        cols, rows = read_table(out)
        assert cols == ["T", "estimate", "stderr"]
        assert len(rows) == 2


def _expected_text(v):
    """A cell's text: repr of a float, str of anything else (a bool reads True)."""
    return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)


def _reference_csv(columns, rows):
    """A table as ``_emit`` writes it as CSV under --no-header, row by row."""
    lines = [f"# {cli.SCHEMA_VERSION}: {','.join(columns)}", ",".join(columns)]
    lines += [",".join(_expected_text(v) for v in r) for r in rows]
    return "".join(f"{line}\n" for line in lines)


def _reference_json(columns, rows):
    """A table as ``_emit`` writes it as JSON under --no-header."""
    return json.dumps({"schema": cli.SCHEMA_VERSION, "columns": list(columns),
                       "rows": [[_expected_text(v) for v in r] for r in rows]},
                      indent=2) + "\n"


def _row_tuples(rows):
    columns = rows.block(0, len(rows))
    return [tuple(c if np.isscalar(c) else c[i] for c in columns) for i in range(len(rows))]


class TestEmit:
    def emit(self, tmp_path, fmt, columns, rows):
        out = tmp_path / f"t.{fmt}"
        cli._emit(argparse.Namespace(output=str(out), format=fmt, no_header=True),
                  columns, rows)
        return out.read_text()

    def tables(self):
        """The same rows as row tuples and as a table of columns, one of them
        a scalar."""
        cols = ("f64", "f32", "py", "i", "i64", "s", "b", "k")
        n = 14
        f64 = np.array([0.1, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 2.5e-310,
                        1 / 3, -2.0, 7.0, 0.0, 123456789.125, 1e-7])
        f32 = np.array([0.3, -0.0, np.nan, np.inf, -np.inf, 1e-45, 3e38, 1e-40,
                        1 / 3, -2.0, 7.0, 0.0, 16777217.0, 1e-7], dtype=np.float32)
        py = [float(v) for v in f64[::-1]]
        ints = list(range(-5, n - 5))
        i64 = np.arange(n, dtype=np.int64) * 10**15
        strs = np.array(["I", "II", "III", "IV", "", "x"] * 3)[:n]
        bools = np.arange(n) % 3 == 0
        table = cli._Table(f64, f32, py, ints, i64, strs, bools, 6.0)
        rows = [tuple(c[i] for c in (f64, f32, py, ints, i64, strs, bools)) + (6.0,)
                for i in range(n)]
        return cols, table, rows

    def test_csv_text(self, tmp_path):
        cols, table, rows = self.tables()
        assert self.emit(tmp_path, "csv", cols, table) == _reference_csv(cols, rows)

    def test_json_text(self, tmp_path):
        cols, table, rows = self.tables()
        assert self.emit(tmp_path, "json", cols, table) == _reference_json(cols, rows)

    def test_empty_table(self, tmp_path):
        assert self.emit(tmp_path, "csv", ("a", "b"), cli._Table([], [])) == \
            f"# {cli.SCHEMA_VERSION}: a,b\na,b\n"
        assert self.emit(tmp_path, "json", ("a",), cli._Table([])) == json.dumps(
            {"schema": cli.SCHEMA_VERSION, "columns": ["a"], "rows": []}, indent=2) + "\n"

    def test_rows_span_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 3)
        x = np.linspace(0.0, 1.0, 10)
        text = self.emit(tmp_path, "csv", ("x", "m"), cli._Table(x, 2))
        assert text.splitlines()[2:] == [f"{v!r},2" for v in x.tolist()]
        cols, table, rows = self.tables()
        assert self.emit(tmp_path, "json", cols, table) == _reference_json(cols, rows)

    def test_json_generated_is_the_last_key(self, tmp_path):
        out = tmp_path / "t.json"
        cli._emit(argparse.Namespace(output=str(out), format="json", no_header=False),
                  ("a", "b"), cli._Table([0.5], ["x"]))
        text = out.read_text()
        payload = json.loads(text)
        assert list(payload) == ["schema", "columns", "rows", "generated"]
        assert text == json.dumps(payload, indent=2) + "\n"


def _nan(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


class TestDistinctValueFormatting:
    """``_emit`` formats each distinct value of an array column once; the
    text must still be what ``_expected_text`` writes for every cell."""

    def check(self, tmp_path, columns, table, header=False):
        rows = _row_tuples(table)
        for fmt, ref in (("csv", _reference_csv), ("json", _reference_json)):
            out = tmp_path / f"t.{fmt}"
            cli._emit(argparse.Namespace(output=str(out), format=fmt, no_header=not header),
                      columns, table)
            text = out.read_text()
            if header and fmt == "csv":
                assert text.startswith("# generated: ")
                text = text.split("\n", 1)[1]
            elif header:
                payload = json.loads(text)
                assert text == json.dumps(payload, indent=2) + "\n"
                del payload["generated"]
                text = json.dumps(payload, indent=2) + "\n"
            assert text == ref(columns, rows)

    def test_signed_zeros_and_repeats(self, tmp_path):
        x = np.array([0.0, -0.0, 1.5, 0.0, -0.0, 1.5, -0.0, 0.1])
        self.check(tmp_path, ("x", "k"), cli._Table(x, 6.0))
        texts = cli._column_text(x)
        assert texts.tolist() == [repr(v) for v in x.tolist()]
        # one text object per distinct bit pattern: -0.0 and 0.0 stay apart
        assert len({id(t) for t in texts}) == 4

    def test_nan_payloads_infinities_subnormals(self, tmp_path):
        nans = [_nan(0x7FF8000000000000), _nan(0xFFF8000000000000),
                _nan(0x7FF8000000000001), _nan(0x7FF0000000000001)]
        x = np.array(nans + [np.inf, -np.inf, 5e-324, -5e-324, 2.5e-310, np.inf] + nans)
        assert len(np.unique(x.view(np.uint64))) == 9
        f32 = np.array([1e-45, -1e-45, 1e-40, np.inf, -np.inf, np.nan] * 2, dtype=np.float32)
        self.check(tmp_path, ("x", "f32"), cli._Table(x[:12], f32))
        assert list(cli._column_text(x))[:4] == ["nan"] * 4

    def test_repeats_in_each_dtype(self, tmp_path):
        n = 40
        i = np.arange(n) % 5
        cols = {
            "f32": (i * 0.1).astype(np.float32),
            "f16": (i * 0.1 - 0.2).astype(np.float16),
            "i64": (i - 2).astype(np.int64) * 10**15,
            "u8": (i * 60).astype(np.uint8),
            "bool": i % 2 == 0,
            "str": np.array(["I", "II", "III", "IV", ""])[i],
            "py": [float(v) for v in i * 0.25],
        }
        self.check(tmp_path, tuple(cols), cli._Table(*cols.values()))

    def test_zero_stride_column(self, tmp_path):
        x = np.broadcast_to(np.float64(-1 / 3), (25,))
        assert x.strides == (0,)
        self.check(tmp_path, ("x", "i"), cli._Table(x, np.arange(25)))

    def test_repeats_span_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 4)
        x = np.array([0.1, -0.0, 0.0, 0.1, 0.1, 0.0, -0.0, 0.1, 0.1, 0.0, 7.0])
        s = np.array(["a", "b", "a", "b", "a", "b", "a", "b", "a", "b", "a"])
        self.check(tmp_path, ("x", "s", "m"), cli._Table(x, s, 2))
        # as the Monte Carlo handlers pass their rows
        self.check(tmp_path, ("x", "s", "m"), cli._Table(*zip(*[(a, b, 2) for a, b in zip(x, s)])))

    def test_all_distinct_column(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 64)
        x = np.random.default_rng(3).standard_normal(200) * 10.0 ** np.arange(-100, 100)
        self.check(tmp_path, ("x", "y"), cli._Table(x, x[::-1]))

    @pytest.mark.parametrize("header", [False, True])
    def test_empty_table(self, tmp_path, header):
        self.check(tmp_path, ("a", "b"), cli._Table(np.array([]), 2.0), header=header)
        self.check(tmp_path, ("a", "b"), cli._Table([], []), header=header)

    def test_header_with_rows(self, tmp_path):
        self.check(tmp_path, ("a", "b"), cli._Table(np.array([0.5, 0.5, -0.0]), "x"),
                   header=True)


# small runs of every subcommand that writes through _emit
_GUARDED = {
    "phase_diagram_m1": ["phase-diagram", "--kappa", "6", "--m", "1", "--resolution", "12",
                         "--curve-points", "20"],
    "phase_diagram_m3": ["phase-diagram", "--kappa", "2", "--m", "3", "--resolution", "12",
                         "--curve-points", "20"],
    "xy_geometry": ["xy-geometry", "--kappa", "6", "--resolution", "7"],
    "spectrum": ["spectrum", "--kappa", "6", "--m", "3", "--p", "0", "--q", "0",
                 "--p", "1.5", "--q", "-2", "--p", "1.5", "--q", "-2"],
    "universal": ["universal", "--resolution", "9"],
    "means_scan": ["means-scan", "--kappa", "6", "--p", "1.75", "--q", "1.5", "--n-r", "8"],
    "moments": ["moments", "--kappa", "2", "--z", "0.4", "--z", "0.1+0.2j", "--n-samples", "10",
                "--dt", "0.05", "--T", "0.5"],
    "log_coeffs": ["log-coeffs", "--kappa", "2", "--fft-size", "8", "--n-max", "3",
                   "--n-samples", "10", "--dt", "0.05", "--T", "0.5"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(_GUARDED))
def test_subcommand_output_matches_reference_writer(tmp_path, monkeypatch, name, fmt):
    """Whatever _emit does inside, each table it is given must be written as
    the row-by-row reference writes it."""
    calls = []
    emit = cli._emit

    def capture(args, columns, rows, suffix=""):
        calls.append((columns, rows, suffix))
        emit(args, columns, rows, suffix)

    monkeypatch.setattr(cli, "_emit", capture)
    out = tmp_path / f"out.{fmt}"
    assert run(_GUARDED[name] + ["--format", fmt, "--no-header", "--output", str(out)]) == 0
    assert [c[2] for c in calls] == (["", "curves"] if name.startswith("phase") else [""])
    reference = _reference_csv if fmt == "csv" else _reference_json
    for columns, rows, suffix in calls:
        path = tmp_path / (f"out.{suffix}.{fmt}" if suffix else f"out.{fmt}")
        assert path.read_text() == reference(columns, _row_tuples(rows))


def _whole_grid(a, b):
    """Every pair of entries of a and b, a varying slowest, as two flat arrays."""
    return [c.ravel() for c in np.meshgrid(a, b, indexing="ij")]


def _whole_phase_diagram(kappa, m, n, curve_points):
    """phase-diagram's two tables, each computed whole at once."""
    sp = spectrum.special_points(kappa)
    p, q = _whole_grid(np.linspace(sp.p0prime - 6, sp.p0 + 6, n),
                       np.linspace(sp.Q0[1] - 6, sp.P0[1] + 6, n))
    res = spectrum.classify_mfold(p, q, kappa, m)
    curves = []
    for cid, t in cli._curve_params(kappa, curve_points).items():
        cp, cq = spectrum.mfold_map_inv(m)(*spectrum.curve_eval(cid, kappa, t))
        curves += zip([cid] * len(t), t, np.broadcast_to(cp, t.shape), cq)
    return [(cli._SPEC_COLS, cli._Table(p, q, kappa, m, res.region, res.beta), ""),
            (("curve", "param", "p", "q"), cli._Table(*zip(*curves)), "curves")]


def _whole_xy_geometry(kappa, n):
    x, y = _whole_grid(np.linspace(0.01, 4 + kappa, n), np.linspace(0.01, kappa / 2 + 2, n))
    p, q = spectrum.xy_inverse(x, y, kappa)
    b1, b0, btip, blin = spectrum.xy_spectra(x, y, kappa)
    table = cli._Table(p, q, kappa, x, y, btip, b0, blin, b1,
                       spectrum.quartic_hyperbola_residual(x, y, kappa))
    return [(("p", "q", "kappa", "x", "y", "beta_tip", "beta_0", "beta_lin", "beta_1",
              "hyperbola_residual"), table, "")]


class TestStreamedGrids:
    """phase-diagram and xy-geometry compute their grids a block of rows at a
    time inside ``_emit``; the files must be those of the whole grid."""

    @pytest.mark.parametrize("block_rows, n", [(7, 13), (4096 + 3, 70), (None, 60)])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["pd_m1", "pd_m3", "xy"])
    def test_streamed_equals_whole_grid(self, tmp_path, monkeypatch, command, fmt,
                                        block_rows, n):
        if block_rows is not None:
            monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
        assert (n * n > cli._BLOCK_ROWS) == (block_rows is not None)
        if command == "xy":
            argv, tables = ["xy-geometry", "--kappa", "6"], _whole_xy_geometry(6.0, n)
        else:
            kappa, m = (6.0, 1) if command == "pd_m1" else (2.0, 3)
            argv = ["phase-diagram", "--kappa", str(kappa), "--m", str(m),
                    "--curve-points", "25"]
            tables = _whole_phase_diagram(kappa, m, n, 25)
        out = tmp_path / f"out.{fmt}"
        assert run(argv + ["--resolution", str(n), "--format", fmt, "--no-header",
                           "--output", str(out)]) == 0
        for columns, rows, suffix in tables:
            ref = tmp_path / f"ref.{fmt}"
            monkeypatch.setattr(cli, "_BLOCK_ROWS", len(rows) + 1)   # one block, whole
            cli._emit(argparse.Namespace(output=str(ref), format=fmt, no_header=True),
                      columns, rows)
            path = tmp_path / (f"out.{suffix}.{fmt}" if suffix else f"out.{fmt}")
            assert path.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("argv", [["xy-geometry", "--kappa", "6"],
                                      ["phase-diagram", "--kappa", "6"]])
    def test_memory_does_not_grow_with_the_resolution(self, tmp_path, argv):
        # a whole 600^2 grid's columns would be 20 MB or more above the 200^2
        # grid's; a block of rows is the same at both
        peaks = []
        for n in (200, 600):
            tracemalloc.start()
            try:
                assert run(argv + ["--resolution", str(n), "--no-header",
                                   "--output", str(tmp_path / "out.csv")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 8e6
        assert abs(peaks[1] - peaks[0]) <= 1e6
