"""Every public module-level function in the package has a caller, and every
dataclass field a reader.

A public function counts as used when its name appears somewhere other
than its own definition: as a name, an attribute or an import in any
Python file under src/, tests/ or demos/, or anywhere in pyproject.toml.
A dataclass field counts as read when some Python file under src/,
tests/, demos/ or bench/ loads it as an attribute (`x.field`); a field
that is only ever assigned is dead output.
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


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    paths = [path for d in ("src", "tests", "demos", "bench") for path in sorted((ROOT / d).rglob("*.py"))]
    read = {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef) or not _is_dataclass(cls):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in read:
                    unread.append(f"{path.name}:{stmt.lineno} {cls.name}.{stmt.target.id}")
    assert not unread, "dataclass fields nothing reads: " + ", ".join(unread)
