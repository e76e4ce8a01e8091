"""Every public module-level function in the package has a caller.

A public function counts as used when its name appears somewhere other
than its own definition: as a name, an attribute or an import in any
Python file under src/, tests/ or demos/, or anywhere in pyproject.toml.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mixerlab"


def _named(node):
    """Every identifier the subtree mentions as a name, attribute or import."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]


def test_every_public_function_is_named_outside_its_definition():
    paths = [path for d in ("src", "tests", "demos") for path in sorted((ROOT / d).rglob("*.py"))]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    mentions = Counter(name for tree in trees.values() for name in _named(tree))
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            own = Counter(_named(node))[node.name]
            if mentions[node.name] > own or re.search(rf"\b{node.name}\b", pyproject):
                continue
            unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, "public functions nothing names: " + ", ".join(unused)
