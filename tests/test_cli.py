"""Tests for the batch command-line front-end."""

import argparse
import json

import numpy as np
import pytest

from slelab import cli


def run(argv):
    return cli.main(argv)


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

    def test_worker_count_invariance(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["moments", "--kappa", "2", "--p", "2", "--q", "2", "--z", "0.4",
                "--n-samples", "25", "--dt", "0.02", "--T", "1.0", "--no-header"]
        run(args + ["--workers", "1", "--output", str(a)])
        monkeypatch.setenv("SLE_LAB_THREADS", "4")
        run(args + ["--output", str(b)])
        assert a.read_bytes() == b.read_bytes()


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


class TestExitCodes:
    def test_validation_error_is_1(self):
        # z outside the admissible disk
        assert run(["moments", "--z", "0.99", "--n-samples", "2",
                    "--dt", "0.1", "--T", "0.5"]) == 1

    def test_unparseable_z_is_1(self):
        assert run(["moments", "--z", "fish", "--n-samples", "2"]) == 1

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
        code = run(["universal", "--resolution", "9", "--no-header",
                    "--output", str(out)])
        assert code == 0
        _, rows = read_table(out)
        assert {r["curve"] for r in rows} == {"tip", "bulk", "lin"}

    def test_diagnose(self, tmp_path):
        out = tmp_path / "d.csv"
        code = run(["diagnose", "--kappa", "2", "--z", "0.3", "--n-samples", "10",
                    "--dt", "0.05", "--T-list", "0.5", "--T-list", "1.0",
                    "--no-header", "--output", str(out)])
        assert code == 0
        cols, rows = read_table(out)
        assert cols == ["T", "estimate", "stderr"]
        assert len(rows) == 2


# one value of each kind _emit must write: floats as repr(float(v)), integers
# as str(int(v)), anything else as str(v)
_MIXED = [np.float64(0.1), np.float32(0.1), 0.1, 3, np.int64(-7), "IV", float("nan"),
          float("inf"), -np.inf, -0.0, 5e-324, np.float64(2.5e-310), np.uint8(200), True]


def _expected_text(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


class TestEmit:
    def emit(self, tmp_path, fmt, columns, rows):
        out = tmp_path / f"t.{fmt}"
        cli._emit(argparse.Namespace(output=str(out), format=fmt, no_header=True),
                  columns, rows)
        return out.read_text()

    def tables(self):
        """The same rows as row tuples and as column arrays with scalars."""
        cols = ("f64", "f32", "py", "i", "i64", "s", "mixed", "k")
        n = len(_MIXED)
        f64 = np.array([0.1, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 2.5e-310,
                        1 / 3, -2.0, 7.0, 0.0, 123456789.125, 1e-7])
        f32 = np.array([0.3, -0.0, np.nan, np.inf, -np.inf, 1e-45, 3e38, 1e-40,
                        1 / 3, -2.0, 7.0, 0.0, 16777217.0, 1e-7], dtype=np.float32)
        py = [float(v) for v in f64[::-1]]
        ints = list(range(-5, n - 5))
        i64 = np.arange(n, dtype=np.int64) * 10**15
        strs = np.array(["I", "II", "III", "IV", "", "x"] * 3)[:n]
        table = cli._Table(f64, f32, py, ints, i64, strs, _MIXED, 6.0)
        rows = [tuple(c[i] for c in (f64, f32, py, ints, i64, strs, _MIXED)) + (6.0,)
                for i in range(n)]
        want = [[_expected_text(v) for v in r] for r in rows]
        return cols, table, rows, want

    def test_csv_text(self, tmp_path):
        cols, table, rows, want = self.tables()
        text = "".join(f"{line}\n" for line in
                       [f"# {cli.SCHEMA_VERSION}: {','.join(cols)}", ",".join(cols)]
                       + [",".join(r) for r in want])
        assert self.emit(tmp_path, "csv", cols, rows) == text
        assert self.emit(tmp_path, "csv", cols, table) == text

    def test_json_text(self, tmp_path):
        cols, table, rows, want = self.tables()
        text = json.dumps({"schema": cli.SCHEMA_VERSION, "columns": list(cols),
                           "rows": want}, indent=2) + "\n"
        assert self.emit(tmp_path, "json", cols, rows) == text
        assert self.emit(tmp_path, "json", cols, table) == text

    def test_empty_table(self, tmp_path):
        assert self.emit(tmp_path, "csv", ("a", "b"), []) == \
            f"# {cli.SCHEMA_VERSION}: a,b\na,b\n"
        assert self.emit(tmp_path, "json", ("a",), []) == json.dumps(
            {"schema": cli.SCHEMA_VERSION, "columns": ["a"], "rows": []}, indent=2) + "\n"

    def test_rows_span_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 3)
        x = np.linspace(0.0, 1.0, 10)
        text = self.emit(tmp_path, "csv", ("x", "m"), cli._Table(x, 2))
        assert text.splitlines()[2:] == [f"{v!r},2" for v in x.tolist()]
        cols, table, rows, want = self.tables()
        text = json.dumps({"schema": cli.SCHEMA_VERSION, "columns": list(cols),
                           "rows": want}, indent=2) + "\n"
        assert self.emit(tmp_path, "json", cols, rows) == text
        assert self.emit(tmp_path, "json", cols, table) == text

    def test_json_generated_is_the_last_key(self, tmp_path):
        out = tmp_path / "t.json"
        cli._emit(argparse.Namespace(output=str(out), format="json", no_header=False),
                  ("a", "b"), [(0.5, "x")])
        text = out.read_text()
        payload = json.loads(text)
        assert list(payload) == ["schema", "columns", "rows", "generated"]
        assert text == json.dumps(payload, indent=2) + "\n"
