"""The test suite's own layout: every shared helper and oracle is defined
once, in ``oracles.py``, and imported from there."""

import ast
from collections import defaultdict
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def top_level_helpers(path):
    """Names of the module-level functions of ``path`` that pytest does not collect."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("test")}


def test_no_helper_is_defined_in_two_test_files():
    paths = sorted(TESTS.glob("*.py"))
    assert TESTS / "oracles.py" in paths
    homes = defaultdict(list)
    for path in paths:
        for name in top_level_helpers(path):
            homes[name].append(path.name)
    twice = {name: files for name, files in homes.items() if len(files) > 1}
    assert not twice, f"define these once, in oracles.py: {twice}"
