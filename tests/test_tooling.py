"""Repository rules that the tests enforce."""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "mechwords"


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so no invariant may live in one
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src: {found}"
