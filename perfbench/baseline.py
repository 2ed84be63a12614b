"""Re-measure the ROADMAP Baseline figures (about 2 minutes on 2 cores).

    python3 perfbench/baseline.py

Prints one line per figure: ``evolve`` run directly at the acceptance
settings, the sub-steps it takes per macro step, ``sample_ensemble`` with
one and two workers, and the CLI subcommands the Baseline names.  Not part
of the benchmark command; the figures go into README.md by hand.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from slelab import cli, flow  # noqa: E402

from spans import Patches  # noqa: E402


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def evolve_direct(kappa, points, n_paths):
    cfg = flow.SimConfig(kappa=kappa, horizon_T=8.0, dt=1e-3, seed=0)
    path = flow.sample_driver(cfg, n_paths=n_paths)
    calls = [0]

    def counting(substep):
        def wrapper(*args):
            calls[0] += 1
            return substep(*args)
        return wrapper

    patches = Patches()
    patches.wrap(flow, "_rk4_substep", counting)
    try:
        seconds, _ = timed(flow.evolve, path, cfg, points)
    finally:
        patches.restore()
    pps = n_paths * len(points) * cfg.n_steps
    print(f"evolve kappa={kappa:g} points={len(points)} paths={n_paths}: {seconds:.1f} s, "
          f"{seconds / pps * 1e9:.0f} ns per path-point-step, "
          f"{calls[0] / cfg.n_steps:.3f} sub-steps per macro step")


def main():
    evolve_direct(2.0, [0.5, 0.3, 0.3 + 0.3j], 2000)
    evolve_direct(6.0, [0.5], 2000)
    cfg = flow.SimConfig(kappa=2.0, horizon_T=8.0, dt=1e-3, seed=0)
    for workers in (1, 2):
        seconds, _ = timed(flow.sample_ensemble, cfg, [0.5], 4000, workers=workers)
        print(f"sample_ensemble kappa=2 1 point 4000 paths workers={workers}: {seconds:.1f} s")
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for argv in (["phase-diagram", "--kappa", "6"], ["xy-geometry", "--kappa", "6"],
                     ["xy-geometry", "--kappa", "6", "--format", "json"],
                     ["check", "--suite", "all", "--kappa", "6"],
                     ["means-scan", "--kappa", "6", "--p", "1.75", "--q", "1.5"]):
            with contextlib.redirect_stdout(io.StringIO()):
                seconds, rc = timed(cli.main, [*argv, "--no-header", "--output",
                                               os.path.join(tmp, "out.txt")])
            print(f"slelab {' '.join(argv)}: {seconds:.2f} s (exit {rc})")


if __name__ == "__main__":
    main()
