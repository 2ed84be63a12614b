"""Rules on the package source that CI enforces."""

import ast
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import slelab
from slelab import cli, flow

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "slelab"


def test_no_assert_statements():
    # invariants must raise real exceptions: `python -O` strips asserts
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/slelab: {found}"


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_scipy_imports():
    # importing SciPy costs 0.5-0.7 s and about 49 MB at start-up; it is a
    # test dependency only, and imports inside functions count too
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}: {name}"
             for path in paths
             for name in _imported_modules(ast.parse(path.read_text(), filename=str(path)))
             if name.split(".")[0] == "scipy"]
    assert not found, f"scipy imports in src/slelab: {found}"


# NumPy's random API, Python's random module among it
_RNG_NAMES = {"random", "default_rng", "Generator", "SeedSequence", "BitGenerator", "RandomState",
              "MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64"}
# the functions that may use it: flow._rng keys every Monte Carlo draw by
# (seed, stream_id, path), and the check battery draws its algebra test points
_RNG_HOMES = {("flow.py", "_rng"), ("residuals.py", "run_all_checks")}


def _rng_uses(node, func=None):
    """(enclosing function, line) of every name, attribute or import of ``_RNG_NAMES``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _rng_uses(child, child.name)
            continue
        if isinstance(child, ast.Name):
            names = {child.id}
        elif isinstance(child, ast.Attribute):
            names = {child.attr}
        elif isinstance(child, (ast.Import, ast.ImportFrom)):
            names = {part for alias in child.names for part in alias.name.split(".")}
            names.update((getattr(child, "module", None) or "").split("."))
        else:
            names = set()
        if names & _RNG_NAMES:
            yield func, child.lineno
        yield from _rng_uses(child, func)


def test_random_draws_only_through_the_key():
    # a generator made anywhere else could bypass the per-path key, and a
    # sample would then depend on how the paths are batched
    paths = sorted(SRC.glob("*.py"))
    uses = {(path.name, func, line)
            for path in paths
            for func, line in _rng_uses(ast.parse(path.read_text(), filename=str(path)))}
    assert {(name, func) for name, func, _ in uses} >= {("flow.py", "_rng")}
    stray = sorted(f"{name}:{line} in {func}" for name, func, line in uses
                   if (name, func) not in _RNG_HOMES)
    assert not stray, f"random draws outside flow._rng: {stray}"


def test_every_flag_is_taken():
    # a flag that no subcommand takes is a dead knob
    taken = {name for command in cli._COMMANDS for name in cli._flag_names(command)}
    assert set(cli._FLAGS) - taken == set()


def test_every_handler_is_a_function_of_cli():
    # main looks a handler up by name only when its subcommand runs, so a
    # misspelt name would otherwise show only when that subcommand is called
    missing = [name for _, name, _ in cli._COMMANDS.values()
               if not callable(getattr(cli, name, None))]
    assert missing == []


def test_readme_quotes_the_flow_buffer_sizes():
    # README gives each batch and buffer size as "N steps" or "N paths"
    # before the constant's name, so none can change without its doc
    text = (SRC.parents[1] / "README.md").read_text()
    for name in ("_BLOCK_STEPS", "_CHUNK_STEPS", "_BATCH_PATHS"):
        quoted = re.findall(rf"(\d+) (?:steps|paths)(?: at a\s+time)?\s+\(`{name}`", text)
        assert len(quoted) == text.count(f"`{name}`") > 0, name
        assert {int(n) for n in quoted} == {getattr(flow, name)}, name


_CLI_CALLS = [
    ["check", "--suite", "all", "--kappa", "6"],
    ["spectrum", "--kappa", "6", "--p", "0", "--q", "0"],
    ["phase-diagram", "--kappa", "6", "--resolution", "8", "--curve-points", "10"],
    ["xy-geometry", "--kappa", "6", "--resolution", "8"],
    ["universal", "--resolution", "8"],
    ["means-scan", "--kappa", "6", "--p", "1.75", "--q", "1.5", "--n-r", "5"],
    ["moments", "--kappa", "2", "--z", "0.3", "--n-samples", "2", "--dt", "0.1", "--T", "0.5"],
    ["simulate", "--kappa", "2", "--z", "0.3", "--n-samples", "2", "--dt", "0.1", "--T", "0.5"],
    ["two-point", "--kappa", "2", "--n-samples", "2", "--dt", "0.1", "--T", "0.5"],
    ["log-coeffs", "--kappa", "2", "--fft-size", "8", "--n-max", "3", "--n-samples", "2",
     "--dt", "0.1", "--T", "0.5"],
    ["diagnose", "--kappa", "2", "--z", "0.3", "--n-samples", "2", "--dt", "0.1",
     "--T-list", "0.5"],
]


_SCRIPT = """
import json, os, sys
from slelab import cli
for i, argv in enumerate(json.loads(sys.argv[1])):
    rc = cli.main(argv + ["--no-header", "--output", os.path.join(sys.argv[2], f"out{i}.csv")])
    if rc != 0:
        sys.exit(f"{argv} exited {rc}")
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cli_runs_without_scipy(tmp_path):
    # a fresh interpreter, so that no test module has imported SciPy yet, in
    # which a NumPy RuntimeWarning is an error; one call of every subcommand
    assert {argv[0] for argv in _CLI_CALLS} == set(cli._COMMANDS)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", _SCRIPT,
                           json.dumps(_CLI_CALLS), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert all((tmp_path / f"out{i}.csv").stat().st_size for i in range(len(_CLI_CALLS)))


DEMOS = sorted((SRC.parents[1] / "demos").glob("*.py"))


@pytest.mark.slow
@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    # each demo in a fresh interpreter, as a user runs it; no other test
    # calls the demos, so a changed library signature would break them unseen
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=600)
    assert proc.returncode == 0, proc.stderr


_TRACER_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import worker
from spans import Tracer
tracer = Tracer()
worker.install_tracer(tracer)
wrapped = list(tracer._patches._saved)
tracer.uninstall()
restored = all(getattr(module, attr) is original for module, attr, original in wrapped)
print(len(wrapped), restored)
"""


def test_perfbench_tracer_wraps_resolve():
    # the benchmark's traced runs wrap slelab functions by name; a renamed or
    # deleted one makes install_tracer raise AttributeError
    bench = SRC.parents[1] / "perfbench"
    proc = subprocess.run([sys.executable, "-c", _TRACER_SCRIPT, str(bench)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    n_wrapped, restored = proc.stdout.split()
    assert int(n_wrapped) > 0 and restored == "True"


REEXPORTED = ("flow", "moments", "spectrum", "residuals")


def test_init_star_imports_each_module():
    # each module's __all__ is its one list of public names
    tree = ast.parse((SRC / "__init__.py").read_text())
    imports = [(node.module, [alias.name for alias in node.names])
               for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports == [(module, ["*"]) for module in REEXPORTED]


def test_every_public_name_is_reexported():
    missing = [f"{module}.{name}" for module in REEXPORTED
               for name in importlib.import_module(f"slelab.{module}").__all__
               if not hasattr(slelab, name)]
    assert not missing, f"in a submodule's __all__ but not an attribute of slelab: {missing}"


def test_a_name_listed_twice_is_one_object():
    # a later star import would silently shadow a different object of the
    # same name; today moments and spectrum both list parabola_point
    shadowed = [f"{module}.{name}" for module in REEXPORTED
                for mod in [importlib.import_module(f"slelab.{module}")]
                for name in mod.__all__
                if getattr(mod, name) is not getattr(slelab, name, None)]
    assert not shadowed, f"not the object slelab exports under that name: {shadowed}"
