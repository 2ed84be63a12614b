"""Batch command-line front-end.

Every subcommand emits CSV (default) or JSON with a fixed, versioned
column schema declared in a header comment line, so figures can be
reproduced by any external plotting tool.  Re-running a subcommand with
identical configuration yields byte-identical files apart from a
timestamp comment that ``--no-header`` suppresses.  Two subcommands
write one format of their own: ``simulate`` a CSV table whose first
line is its plain header row, and ``check`` a JSON list of reports.
Neither writes a timestamp, so both accept ``--no-header`` and it does
nothing there.

Each subcommand takes only the flags it reads; ``--config`` names a JSON
file of defaults for them, which the flags given override.  Each key of
the file names a flag and is parsed as that flag is: a list gives a
repeatable flag once per entry, ``true`` sets ``--no-header`` and
``false`` leaves it, ``null`` leaves the flag's default, and any other
value is the flag's text.  A config file therefore writes the same bytes
as the same flags.

Exit codes: 0 success, 1 validation or usage error, 2 numerical failure,
3 failed residual/acceptance check in ``check``.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
import json
import math
import os
import sys

import numpy as np

from . import flow, moments, residuals, spectrum
from .flow import ConfigError, DomainError, SimConfig, SingularityError

SCHEMA_VERSION = "slelab-csv v1"


# ---------------------------------------------------------------------------
# output plumbing


class _Table:
    """The table ``_emit`` writes, which it asks ``block(start, stop)`` for
    the columns of rows start..stop-1, a block of rows at a time.

    Each column is an array (a list or tuple is stored as one) with one
    entry per row, or a scalar that every row repeats.  ``len()`` counts rows.
    """

    def __init__(self, *columns):
        self.columns = [c if np.isscalar(c) else np.asarray(c) for c in columns]
        self.n_rows = next(len(c) for c in self.columns if not np.isscalar(c))

    def __len__(self):
        return self.n_rows

    def block(self, start, stop):
        return [c if np.isscalar(c) else c[start:stop] for c in self.columns]


class _Grid(_Table):
    """Every pair (a[i], b[j]), a varying slowest, as rows whose columns
    ``columns_of(a_values, b_values)`` computes one block of pairs at a time."""

    def __init__(self, a, b, columns_of):
        self.a, self.b, self.columns_of, self.n_rows = a, b, columns_of, len(a) * len(b)

    def block(self, start, stop):
        i = np.arange(start, stop)
        return self.columns_of(self.a[i // len(self.b)], self.b[i % len(self.b)])


def _column_text(column, enc=None):
    """The text of each entry of an array column of numbers, bools or
    strings, passed through ``enc`` when given: ``repr`` of a float and
    ``str`` of anything else (a bool reads ``True``).  A scalar column is
    formatted as a one-entry array.  Each distinct value is formatted once,
    told apart by bit pattern so that -0.0 and 0.0 (or two NaN payloads)
    stay apart, and the texts are mapped back to the entries.
    """
    column = np.atleast_1d(column)
    kind = column.dtype.kind
    if kind == "U":
        distinct, inverse = np.unique(column, return_inverse=True)
        texts = distinct.tolist()
    else:
        bits, inverse = np.unique(column.view(f"u{column.dtype.itemsize}"), return_inverse=True)
        texts = list(map(repr if kind == "f" else str, bits.view(column.dtype).tolist()))
    if enc:
        texts = list(map(enc, texts))
    return np.array(texts, dtype=object)[inverse]


_BLOCK_ROWS = 1 << 12   # rows computed and formatted at a time, bounding the memory held


def _text_blocks(rows, sep, end, last, enc=None):
    """The text of every row, a block of rows at a time: each cell as
    ``_column_text`` writes it, ``sep`` between cells, ``end`` after each
    row and ``last`` after the table's last row."""
    n = len(rows)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        cols = rows.block(start, stop)
        cells = np.empty((stop - start, 2 * len(cols)), dtype=object)
        cells[:, 1::2] = sep
        cells[:, -1] = end
        if stop == n:
            cells[-1, -1] = last
        for j, column in enumerate(cols):
            cells[:, 2 * j] = _column_text(column, enc)
        yield "".join(cells.ravel().tolist())


def _write_json(fh, columns, rows, generated):
    """The text of ``json.dump(payload, fh, indent=2)`` for the payload
    {"schema", "columns" (never empty), "rows" (each row a list of cell
    strings) and, when given, "generated"}, written a block of rows at a time."""
    enc = json.encoder.encode_basestring_ascii
    cell = "\n      "   # the indent=2 break before a cell of a row
    names = ",\n    ".join(map(enc, columns))
    fh.write(f'{{\n  "schema": {enc(SCHEMA_VERSION)},\n'
             f'  "columns": [\n    {names}\n  ],\n  "rows": ['
             + (f"\n    [{cell}" if len(rows) else "]"))
    for text in _text_blocks(rows, f",{cell}", f"\n    ],\n    [{cell}", "\n    ]\n  ]", enc):
        fh.write(text)
    if generated is not None:
        fh.write(f',\n  "generated": {enc(generated)}')
    fh.write("\n}\n")


def _open_output(path):
    """The file at ``path``, opened for writing, or stdout when no path is given."""
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


def _emit(args, columns, rows, suffix=""):
    """Write a table as CSV or JSON to the output path (or stdout).

    ``rows`` is a ``_Table``, whose blocks are computed while the file is
    open: a handler checks its inputs first.
    """
    out = args.output
    if out and suffix:
        root, ext = os.path.splitext(out)
        out = f"{root}.{suffix}{ext or '.csv'}"
    with _open_output(out) as fh:
        stamp = None
        if not args.no_header:
            stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        if args.format == "json":
            _write_json(fh, columns, rows, stamp)
            return
        if stamp is not None:
            fh.write(f"# generated: {stamp}\n")
        fh.write(f"# {SCHEMA_VERSION}: {','.join(columns)}\n")
        fh.write(",".join(columns) + "\n")
        for text in _text_blocks(rows, ",", "\n", "\n"):
            fh.write(text)


def _parse_complex(s):
    try:
        return complex(s.replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex number {s!r}") from exc


def _sim_config(args):
    return SimConfig(kappa=args.kappa, horizon_T=args.T, dt=args.dt, seed=args.seed)


def _require_finite_pq(args):
    """Reject a non-finite --p or --q before any path is drawn."""
    for name in ("p", "q"):
        spectrum._require_finite(name, np.array(getattr(args, name)))


def _ensemble(args, points):
    cfg = _sim_config(args)
    return flow.sample_ensemble(cfg, points, args.n_samples, workers=args.workers)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_simulate(args):
    zs = [_parse_complex(s) for s in args.z]
    if not zs:
        raise ConfigError("simulate requires at least one --z point")
    sample = _ensemble(args, zs)
    n = sample.n_samples
    lf, lfp = sample.logf.ravel(), sample.logfp.ravel()
    rows = _Table(sample.config.stream_id, np.tile(sample.z.real, n),
                  np.tile(sample.z.imag, n), lf.real, lf.imag, lfp.real, lfp.imag)
    with _open_output(args.output) as fh:
        fh.write("stream_id,z_re,z_im,logf_re,logf_im,logfp_re,logfp_im\r\n")
        for text in _text_blocks(rows, ",", "\r\n", "\r\n"):
            fh.write(text)
    return 0


_MOMENT_COLS = ("z_re", "z_im", "p", "q", "kappa", "estimate_re", "estimate_im",
                "stderr", "n", "closed_form_re", "closed_form_im")


def _closed_or_nan(kind, z, z2, kappa, p, q):
    try:
        g = moments.parabola_gamma_from_pq(kappa, p, q)
    except DomainError:
        return complex(np.nan, np.nan)
    if kind == "complex":
        return complex(moments.closed_one_point(z, kappa, g))
    if kind == "moduli":
        return complex(moments.closed_moduli(z, kappa, g))
    return complex(moments.closed_two_point(z, np.conj(z2), kappa, g))


def _moment_row(args, kind, est, z, z2=None):
    """A row of _MOMENT_COLS: the estimate at z and the closed form beside it."""
    closed = _closed_or_nan(kind, z, z2, args.kappa, args.p, args.q)
    return (z.real, z.imag, args.p, args.q, args.kappa, est.value.real, est.value.imag,
            est.stderr, est.n_samples, closed.real, closed.imag)


def _cmd_moments(args):
    zs = [_parse_complex(s) for s in args.z]
    if not zs:
        raise ConfigError("moments requires at least one --z point")
    _require_finite_pq(args)
    sample = _ensemble(args, zs)
    estimate = moments.estimate_moduli if args.kind == "moduli" else moments.estimate_one_point
    rows = [_moment_row(args, args.kind, estimate(sample, args.p, args.q, z), z) for z in zs]
    _emit(args, _MOMENT_COLS, _Table(*zip(*rows)))
    return 0


def _cmd_two_point(args):
    z1 = _parse_complex(args.z1)
    z2 = _parse_complex(args.z2)
    _require_finite_pq(args)
    sample = _ensemble(args, [z1, z2] if z1 != z2 else [z1])
    est = moments.estimate_two_point(sample, args.p, args.q, z1, z2)
    _emit(args, _MOMENT_COLS, _Table(*zip(*[_moment_row(args, "two-point", est, z1, z2)])))
    return 0


def _cmd_log_coeffs(args):
    pts = moments.circle_points(args.radius, args.fft_size)
    moments._check_log_coeff_sizes(args.n_max, args.fft_size)
    stats = moments.extract_log_coeffs(_ensemble(args, pts), args.n_max)
    theory = np.diagonal(moments.log_coeff_moments(args.kappa, args.n_max)[1])
    _emit(args, ("n", "mean_re", "mean_im", "mean_sq", "theory"),
          _Table(np.arange(1, args.n_max + 1), stats.mean_gamma.real, stats.mean_gamma.imag,
                 stats.mean_sq, theory))
    return 0


def _cmd_means_scan(args):
    r_grid = np.linspace(args.r_min, args.r_max, args.n_r)
    scan = moments.integral_means_scan("closed", args.p, args.q, args.kappa, r_grid)
    _emit(args, ("r", "integral", "beta"), _Table(scan.r_grid, scan.integrals, scan.beta))
    return 0


_SPEC_COLS = ("p", "q", "kappa", "m", "region", "beta")


def _spec_columns(args, p, q):
    res = spectrum.classify_mfold(p, q, args.kappa, args.m)
    return p, q, args.kappa, args.m, res.region, res.beta


def _cmd_spectrum(args):
    if not args.p or len(args.p) != len(args.q):
        raise ConfigError("spectrum needs matching --p/--q lists")
    _emit(args, _SPEC_COLS, _Table(*_spec_columns(args, args.p, args.q)))
    return 0


def _curve_params(kappa, n):
    """Parameter grids per curve, pinning the exact special-point values."""
    sp = spectrum.special_points(kappa)
    g_lo, g_hi = 0.25 + 1 / kappa, 1 + 2 / kappa
    green = np.unique(np.concatenate([np.linspace(g_lo - 0.5, g_hi + 0.5, n),
                                      [g_lo, g_hi, 1 / kappa]]))
    red = np.unique(np.concatenate([np.linspace(-0.5, 2 / kappa + 1.0, n),
                                    [1 / kappa, 2 / kappa + 0.5]]))
    quart = np.unique(np.concatenate([np.linspace(g_hi, g_hi + 4.0, n), [g_hi]]))
    line_q = np.linspace(sp.Q0[1] - 6, sp.P0[1] + 6, n)
    line_p = np.linspace(sp.p0prime - 6, sp.p0 + 6, n)
    return {"redParabola": red, "greenParabola": green, "blueQuartic": quart,
            "D0": line_q, "D0prime": line_q, "Delta0": line_q,
            "D1": line_p, "Delta1": line_p}


def _cmd_phase_diagram(args):
    Tinv = spectrum.mfold_map_inv(args.m)   # rejects m = 0 before any output
    sp = spectrum.special_points(args.kappa)
    p_lo = args.p_min if args.p_min is not None else sp.p0prime - 6
    p_hi = args.p_max if args.p_max is not None else sp.p0 + 6
    q_lo = args.q_min if args.q_min is not None else sp.Q0[1] - 6
    q_hi = args.q_max if args.q_max is not None else sp.P0[1] + 6
    spectrum._require_finite("p", np.array([p_lo, p_hi], dtype=float))
    spectrum._require_finite("q", np.array([q_lo, q_hi], dtype=float))
    _emit(args, _SPEC_COLS, _Grid(np.linspace(p_lo, p_hi, args.resolution),
                                  np.linspace(q_lo, q_hi, args.resolution),
                                  lambda p, q: _spec_columns(args, p, q)))

    curves = []
    for cid, t in _curve_params(args.kappa, args.curve_points).items():
        cp, cq = Tinv(*spectrum.curve_eval(cid, args.kappa, t))
        curves.append((np.full(t.shape, cid), t, np.broadcast_to(cp, t.shape), cq))
    _emit(args, ("curve", "param", "p", "q"),
          _Table(*map(np.concatenate, zip(*curves))), suffix="curves")
    return 0


def _cmd_xy_geometry(args):
    k = args.kappa

    def columns_of(x, y):
        b1, b0, btip, blin = spectrum.xy_spectra(x, y, k)
        return (*spectrum.xy_inverse(x, y, k), k, x, y, btip, b0, blin, b1,
                spectrum.quartic_hyperbola_residual(x, y, k))

    _emit(args, ("p", "q", "kappa", "x", "y", "beta_tip", "beta_0",
                 "beta_lin", "beta_1", "hyperbola_residual"),
          _Grid(np.linspace(0.01, 4 + k, args.resolution),
                np.linspace(0.01, k / 2 + 2, args.resolution), columns_of))
    return 0


def _cmd_universal(args):
    curves = []
    for name, seg in spectrum.universal_partition().items():
        p = np.linspace(*np.clip(seg["p_range"], -6.0, 6.0), args.resolution)
        curves.append((np.full(p.shape, name), p, seg["q_of_p"](p)))
    name, p, q = map(np.concatenate, zip(*curves))
    _emit(args, ("curve", "p", "q", "B", "feng_mcgregor"),
          _Table(name, p, q, spectrum.universal_B(p, q),
                 spectrum.feng_mcgregor_domain(p, q).astype(int)))
    return 0


def _cmd_check(args):
    reports = residuals.run_all_checks(args.kappa, suite=args.suite, seed=args.seed)
    with _open_output(args.output) as fh:
        fh.write(json.dumps(reports, indent=2, default=float) + "\n")
    return 0 if all(r["pass"] for r in reports) else 3


def _cmd_diagnose(args):
    if len(args.z) > 1:
        raise ConfigError(f"diagnose takes one --z point, got {len(args.z)}")
    cfg = _sim_config(args)
    z = _parse_complex(args.z[0]) if args.z else 0.5 + 0j
    T_list = sorted(args.T_list) if args.T_list else [2.0, 4.0, 6.0, 8.0]
    _require_finite_pq(args)
    rows = moments.stationarity_diagnostic(cfg, z, T_list, args.n_samples,
                                           p=args.p, q=args.q, workers=args.workers)
    _emit(args, ("T", "estimate", "stderr"), _Table(*zip(*rows)))
    return 0


# ---------------------------------------------------------------------------
# argument parsing

# Every flag, by name: its argparse keywords and its default.  Flag --a-b
# sets args.a_b, and a --config file sets it by the key "a-b" or "a_b".  A
# repeatable flag that is not given is an empty list, whatever its default.
_FLAGS = {
    "kappa": ({"type": float}, 2.0),
    "seed": ({"type": int}, 0),
    "workers": ({"type": int}, 1),
    "T": ({"type": float}, 8.0),
    "dt": ({"type": float}, 1e-3),
    "n-samples": ({"type": int}, 1000),
    "p": ({"type": float}, 2.0),
    "q": ({"type": float}, 2.0),
    "z": ({}, None),
    "kind": ({"choices": ("complex", "moduli")}, "complex"),
    "z1": ({}, "0.3"),
    "z2": ({}, "0.25"),
    "radius": ({"type": float}, 0.7),
    "fft-size": ({"type": int}, 32),
    "n-max": ({"type": int}, 5),
    "r-min": ({"type": float}, 0.5),
    "r-max": ({"type": float}, 0.99),
    "n-r": ({"type": int}, 40),
    "m": ({"type": int}, 1),
    "resolution": ({"type": int}, 400),
    "curve-points": ({"type": int}, 200),
    "p-min": ({"type": float}, None),
    "p-max": ({"type": float}, None),
    "q-min": ({"type": float}, None),
    "q-max": ({"type": float}, None),
    "suite": ({"choices": residuals.SUITES}, "all"),
    "T-list": ({"type": float}, None),
    "output": ({}, None),
    "format": ({"choices": ("csv", "json")}, "csv"),
    "no-header": ({"action": "store_true"}, False),
    "config": ({"help": "JSON file of defaults, overridden by flags"}, None),
}

_SIM = ("kappa", "seed", "workers", "T", "dt", "n-samples")
_OUT = ("output", "format", "no-header", "config")

# Every subcommand: its help text, the name of its handler and the flags the
# handler reads.  A trailing "+" makes a flag repeatable, each use appending
# to a list.  ``main`` looks the handler up by name on this module when the
# subcommand runs, not when the parser is built, so a wrapper set on this
# module at any time before a call is the one that call runs.
_COMMANDS = {
    "simulate": ("dump whole-plane samples as CSV", "_cmd_simulate",
                 (*_SIM, "z+", "output", "no-header", "config")),
    "moments": ("MC moment estimates vs closed forms", "_cmd_moments",
                (*_SIM, "p", "q", "z+", "kind", *_OUT)),
    "two-point": ("two-point moment estimate", "_cmd_two_point",
                  (*_SIM, "p", "q", "z1", "z2", *_OUT)),
    "log-coeffs": ("logarithmic coefficient statistics", "_cmd_log_coeffs",
                   (*_SIM, "radius", "fft-size", "n-max", *_OUT)),
    "means-scan": ("integral means growth scan", "_cmd_means_scan",
                   ("kappa", "p", "q", "r-min", "r-max", "n-r", *_OUT)),
    "spectrum": ("spectrum value and region at points", "_cmd_spectrum",
                 ("kappa", "p+", "q+", "m", *_OUT)),
    "phase-diagram": ("region grid and separatrix curves", "_cmd_phase_diagram",
                      ("kappa", "m", "resolution", "curve-points",
                       "p-min", "p-max", "q-min", "q-max", *_OUT)),
    "xy-geometry": ("conic-coordinate spectra grid", "_cmd_xy_geometry",
                    ("kappa", "resolution", *_OUT)),
    "universal": ("universal spectrum partition data", "_cmd_universal",
                  ("resolution", *_OUT)),
    "check": ("residual and algebra check suite", "_cmd_check",
              ("kappa", "seed", "suite", "output", "no-header", "config")),
    "diagnose": ("stationarity diagnostic over horizons", "_cmd_diagnose",
                 (*_SIM, "p", "q", "z+", "T-list+", *_OUT)),
}


def _flag_names(command):
    """The names of the flags of a subcommand, without the "+" marks."""
    return [f.rstrip("+") for f in _COMMANDS[command][2]]


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, the validation-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser():
    """The parser of every subcommand, built once per process and shared by
    every call, so no caller may change it.  It holds each handler's name,
    which ``main`` looks up when the subcommand runs."""
    parser = _Parser(prog="slelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, handler, flags) in _COMMANDS.items():
        s = sub.add_parser(command, help=help_text)
        for flag in flags:
            name = flag.rstrip("+")
            kwargs = dict(_FLAGS[name][0], default=argparse.SUPPRESS)
            if flag != name:
                kwargs["action"] = "append"
            s.add_argument(f"--{name}", **kwargs)
        s.set_defaults(func=handler)
    return parser


def _merge_config(args):
    """The flags given, over the --config file's keys, over the defaults of
    the subcommand's flags.  Each key becomes the flag it names, as the
    module docstring says, and is parsed as the command line is."""
    flags = _COMMANDS[args.command][2]
    names = _flag_names(args.command)
    merged = {f.rstrip("+").replace("-", "_"): [] if f.endswith("+") else _FLAGS[f][1]
              for f in flags}
    path = getattr(args, "config", None)
    if path:
        with open(path) as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"bad config file {path}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        tokens = [args.command]
        for key, value in file_cfg.items():
            name = key.replace("_", "-")
            if name not in names:
                raise ConfigError(f"config key {key!r} names no flag of {args.command}; "
                                  f"its flags: {', '.join(names)}")
            if value is None:   # as when the flag is not given
                continue
            if _FLAGS[name][0].get("action") == "store_true" and isinstance(value, bool):
                tokens += [f"--{name}"] if value else []
                continue
            repeats = f"{name}+" in flags and isinstance(value, list)
            tokens += [f"--{name}={v if isinstance(v, str) else json.dumps(v)}"
                       for v in (value if repeats else [value])]
        merged.update(vars(build_parser().parse_args(tokens)))
    merged.update(vars(args))
    return argparse.Namespace(**merged)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args = _merge_config(args)
        if hasattr(args, "kappa") and not 0 < args.kappa < math.inf:
            raise ConfigError(f"kappa must be finite and > 0, got {args.kappa!r}")
        for name in ("resolution", "curve_points"):   # checked before any output is opened
            if (n := getattr(args, name, 0)) < 0:
                raise ConfigError(f"{name.replace('_', '-')} must be an integer >= 0, got {n!r}")
        return globals()[args.func](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SingularityError, FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
