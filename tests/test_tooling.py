"""Rules on the package source that CI enforces."""

import ast
import pathlib

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
