"""Every public module-level function in the package has a caller, every
dataclass field, module-level constant and class attribute a reader, and
every module-level import a use.

A public function counts as used when its name appears somewhere other
than its own definition: as a name, an attribute or an import in any
Python file under src/, tests/ or demos/, or anywhere in pyproject.toml.
A dataclass field counts as read when some Python file under src/,
tests/, demos/ or bench/ loads it as an attribute (`x.field`); a field
that is only ever assigned is dead output. A name a module or a class
body assigns counts as read when some Python file in those four trees
loads it as a name or an attribute, or imports it; dunder names such as
`__all__` and `__slots__` are exempt. A defaulted parameter of a
public function or method counts as set when some call of that name in
those four trees passes it, by keyword or by position (a call of a public
class's name counts for its `__init__`); one nothing passes
is a setting no caller chooses, better kept as a module constant. Every
field of a `*Config` class is set by some call under src/ or bench/, by
keyword or by position: one only tests or demos set is no choice the lab
itself makes. A module-level import counts as used when the name it binds
appears as a name in the same file; the package's `__init__.py` is
exempt, since its imports are re-exports. Every flag of a CLI subcommand is read by the
handler that runs it. The count of settable values (fields of `*Config`
classes, defaulted parameters of public functions and methods, flags of
every subcommand) is pinned, so a new knob has to retire an old one or
move the pin in the same change.
"""

import ast
import re
from collections import Counter, defaultdict
from pathlib import Path

from mixerlab import cli

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


def _assigned_names(body):
    """(line, name) of every plain name an `=` statement of `body` binds."""
    for stmt in body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        yield stmt.lineno, node.id


def test_every_module_constant_and_class_attribute_is_read():
    paths = [path for d in ("src", "tests", "demos", "bench") for path in sorted((ROOT / d).rglob("*.py"))]
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.rsplit(".", 1)[-1])
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [("", tree.body)] + [(f"{node.name}.", node.body) for node in tree.body if isinstance(node, ast.ClassDef)]
        for prefix, body in scopes:
            unread += [
                f"{path.name}:{line} {prefix}{name}" for line, name in _assigned_names(body)
                if name not in read and not (name.startswith("__") and name.endswith("__"))
            ]
    assert not unread, "module constants and class attributes nothing reads: " + ", ".join(unread)


def _bound_names(node):
    """Names a module-level import statement binds."""
    for alias in node.names:
        yield (alias.asname or alias.name).split(".", 1)[0]


def test_every_module_level_import_is_used():
    paths = [path for d in ("src", "tests", "demos") for path in sorted((ROOT / d).rglob("*.py"))]
    unused = []
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.relative_to(ROOT)}:{node.lineno} {name}" for name in _bound_names(node) if name not in used]
    assert not unused, "imports nothing uses: " + ", ".join(unused)


def _public_functions(tree):
    """(function node, leading parameters its callers do not pass, name its calls use) of every
    public function and method, and of the `__init__` of every public class, whose calls name the class.
    """
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node, 0, node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    yield fn, 1, node.name
                elif isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                    yield fn, 0 if static else 1, fn.name


def _passes(call, name, index):
    """Whether `call` passes parameter `name`, which is positional number `index` or keyword-only (None).

    A `**kwargs` argument may pass any keyword. A `*args` argument is taken
    to fill no more than one position: `f(x, *pair)` does not reach a
    fourth parameter by this count.
    """
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return index is not None and len(call.args) > index


def _calls_by_name(dirs):
    """Every call in the Python files under `dirs`, keyed by the name or attribute it calls."""
    calls = defaultdict(list)
    for path in [path for d in dirs for path in sorted((ROOT / d).rglob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                callee = node.func
                calls[callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)].append(node)
    return calls


def test_every_defaulted_parameter_of_a_public_function_is_passed():
    calls = _calls_by_name(("src", "tests", "demos", "bench"))
    unpassed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn, skip, callee in _public_functions(ast.parse(path.read_text(encoding="utf-8"))):
            positional = (fn.args.posonlyargs + fn.args.args)[skip:]
            defaulted = [(a.arg, i) for i, a in enumerate(positional)][len(positional) - len(fn.args.defaults):]
            defaulted += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            for name, index in defaulted:
                if not any(_passes(call, name, index) for call in calls[callee]):
                    unpassed.append(f"{path.name}:{fn.lineno} {fn.name}({name}=)")
    assert not unpassed, "defaulted parameters no call passes: " + ", ".join(unpassed)


def _reads(fn, param, defs):
    """Attributes of `fn`'s parameter `param` that it reads, as `param.x` or `getattr(param, "x", ...)`,
    directly or through a function of `defs` it passes `param` to by position.
    """
    reads = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == param:
            reads.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            passed = [i for i, arg in enumerate(node.args) if isinstance(arg, ast.Name) and arg.id == param]
            if node.func.id == "getattr" and passed == [0] and isinstance(node.args[1], ast.Constant):
                reads.add(node.args[1].value)
            elif node.func.id in defs:
                callee = defs[node.func.id]
                for i in passed:
                    reads |= _reads(callee, callee.args.args[i].arg, defs)
    return reads


def test_every_flag_of_a_subcommand_is_read_by_its_handler():
    # `_echo_config` writes every flag to config.json, so it shows nothing
    # about which flags take effect; `_parse_args` reads `--config` before
    # any handler runs
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name != "_echo_config"}
    parsed = {
        node.attr for node in ast.walk(defs["_parse_args"])
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args"
    }
    _, parsers = cli.build_parser()
    unread = []
    for command, parser in parsers.items():
        handler = defs[cli.HANDLERS.get(command, cli._run_training).__name__]
        reads = parsed | _reads(handler, handler.args.args[0].arg, defs)
        unread += [
            f"{command} {action.option_strings[0]}" for action in parser._actions
            if action.option_strings and action.dest != "help" and action.dest not in reads
        ]
    assert not unread, "flags no handler reads: " + ", ".join(unread)


def _config_fields():
    """(class name, [field names in declaration order]) of every `*Config` class in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and node.name.endswith("Config"):
                yield node.name, [stmt.target.id for stmt in node.body if isinstance(stmt, ast.AnnAssign)]


def test_every_config_field_is_set_outside_tests():
    """A field that only tests or demos set is a choice no run of the lab makes: a constant, not a setting.

    A field counts as set when some call of its class under src/ or bench/
    passes it by keyword or by position. A `**` argument counts for no
    field, since its keys are not in the call.
    """
    calls = _calls_by_name(("src", "bench"))
    unset = [
        f"{cls}.{name}"
        for cls, fields in _config_fields()
        for index, name in enumerate(fields)
        if not any(any(k.arg == name for k in call.keywords) or len(call.args) > index for call in calls[cls])
    ]
    assert not unset, "config fields no call under src/ or bench/ sets: " + ", ".join(unset)


# 31 config fields + 34 defaulted parameters + 164 subcommand flags
SETTABLE_VALUES = 229


def test_settable_values_do_not_grow():
    fields = sum(len(names) for _, names in _config_fields())
    params = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for fn, _, _ in _public_functions(ast.parse(path.read_text(encoding="utf-8"))):
            params += len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)
    _, parsers = cli.build_parser()
    flags = sum(
        bool(action.option_strings) and action.dest != "help" for parser in parsers.values() for action in parser._actions
    )
    total = fields + params + flags
    assert total == SETTABLE_VALUES, (
        f"{total} settable values ({fields} config fields + {params} defaulted parameters + {flags} flags), "
        f"pinned at {SETTABLE_VALUES}"
    )
