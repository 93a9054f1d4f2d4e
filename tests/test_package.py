"""The package module holds only its version, and every definition in the
package is reached from what runs it as a user would: the CLI, the
benchmark or the CLI tests.  Acceptance criteria and unit tests are not
callers; the lemma helpers that only they need live in ``tests/lemmas.py``."""

import ast
import pathlib

import pytest

import ssrmlab
from test_benchmark_hooks import perfbench_module

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_package_holds_only_its_version():
    # Callers import each name from the module that defines it, so the
    # package module re-exports nothing: its body is its docstring and
    # __version__.
    tree = ast.parse((_ROOT / "src" / "ssrmlab" / "__init__.py").read_text(encoding="utf-8"))
    docstring, *rest = tree.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert [ast.unparse(node) for node in rest] == [f"__version__ = {ssrmlab.__version__!r}"]
    with pytest.raises(AttributeError):
        ssrmlab.lcd


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        ssrmlab.no_such_name
    assert not hasattr(ssrmlab, "no_such_name")


def _identifiers(tree) -> set[str]:
    """Every name, attribute and imported name in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def _src_trees() -> list:
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted((_ROOT / "src" / "ssrmlab").glob("*.py"))]


def _user_trees() -> list:
    """The code that uses the package as a user would: the benchmark and the
    CLI tests."""
    paths = [*sorted((_ROOT / "perfbench").glob("*.py")), _ROOT / "tests" / "test_cli.py"]
    return [ast.parse(path.read_text(encoding="utf-8")) for path in paths]


def _is_method(node) -> bool:
    """A def in a class body, other than a dunder (the class's own machinery
    calls those)."""
    return isinstance(node, ast.FunctionDef) and not (node.name.startswith("__") and node.name.endswith("__"))


def _definitions(tree):
    """(qualified name, node) for each top-level def and class, and each
    method or property of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body if _is_method(item))


def test_every_definition_is_reached():
    # A top-level def or class, or a method or property, must be reached from
    # module-level code (the CLI's dispatch tables and entry point), the
    # benchmark (its code, or a name in its tracer's TRACED table, which
    # Tracer.install needs to exist) or a CLI test, directly or through the
    # bodies of other reached definitions.  Names are matched alone, whatever
    # the receiver: a method counts as reached when reached code loads an
    # attribute of its name.  A class's body reaches its dunder methods, not
    # its other methods.  A re-export is not a caller, and what only its own
    # unit tests or an acceptance criterion call is dead code.
    trees = _src_trees()
    bodies = {}
    reached = set()
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)):
                reached |= _identifiers(node)
        for _, node in _definitions(tree):
            if isinstance(node, ast.ClassDef):
                parts = [part for part in (*node.bases, *node.decorator_list, *node.body) if not _is_method(part)]
            else:
                parts = [node]
            bodies.setdefault(node.name, set()).update(*map(_identifiers, parts))
    for tree in _user_trees():
        reached |= _identifiers(tree)
    reached |= {part for _, attr in perfbench_module("tracer").TRACED for part in attr.split(".")}
    todo = list(reached)
    while todo:
        new = bodies.get(todo.pop(), set()) - reached
        reached |= new
        todo += new
    dead = sorted(q for tree in trees for q, node in _definitions(tree) if node.name not in reached and not node.name.startswith("__"))
    assert not dead, f"not reached from the CLI, the benchmark or the CLI tests: {', '.join(dead)}"


def _passed(calls) -> dict:
    """Callee name -> the keyword names its calls pass, and the most positional
    arguments any of them passes; ``None`` where a call spreads ``*`` or ``**``."""
    passed = {}
    for node in calls:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
        if name is None or passed.get(name, ()) is None:
            continue
        if any(isinstance(arg, ast.Starred) for arg in node.args) or any(kw.arg is None for kw in node.keywords):
            passed[name] = None
            continue
        keywords, positional = passed.get(name, (set(), 0))
        passed[name] = (keywords | {kw.arg for kw in node.keywords}, max(positional, len(node.args)))
    return passed


def test_every_keyword_default_is_passed():
    # A parameter with a default that no call in src/, the benchmark or the
    # CLI tests passes is a knob nobody turns:
    # every run takes the default.  Calls are matched by the callee's name
    # alone, and a call that spreads * or ** counts as passing every
    # parameter.  A method's first positional parameter is its receiver.
    calls = [node for tree in _src_trees() + _user_trees() for node in ast.walk(tree) if isinstance(node, ast.Call)]
    passed = _passed(calls)
    unturned = []
    for tree in _src_trees():
        for qualname, node in _definitions(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            seen = passed.get(node.name, (set(), 0))
            if seen is None:
                continue
            keywords, positional = seen
            args = node.args.posonlyargs + node.args.args
            offset = 1 if "." in qualname else 0
            first_default = len(args) - len(node.args.defaults)
            for k, arg in enumerate(args[first_default:], first_default):
                if arg.arg not in keywords and k - offset >= positional:
                    unturned.append(f"{qualname}({arg.arg})")
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None and arg.arg not in keywords:
                    unturned.append(f"{qualname}({arg.arg})")
    assert not unturned, f"defaults no caller overrides: {', '.join(unturned)}"


# Classes whose fields are settable knobs: a config key, a CLI flag or a
# constructor argument.
_KNOB_CLASSES = ("StructureConstants", "EntryDistribution", "EnsembleParams", "ExperimentConfig", "RngStream")


def _bases(cls) -> list[str]:
    return [ast.unparse(base) for base in cls.bases]


def _records(trees) -> list:
    """Every record class in src/, a NamedTuple by its base, as (the name its
    callers use, its fields, the ids of the nodes of its constructor checks).
    The fields of a checked record are a NamedTuple base's, and the checks
    are the ``__new__`` of the subclass that extends it and takes its name."""
    classes = [node for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)]
    records = []
    for cls in classes:
        if "NamedTuple" not in _bases(cls):
            continue
        name, checks = cls.name, set()
        for sub in classes:
            if cls.name in _bases(sub):
                name = sub.name
                checks |= {id(node) for f in sub.body if isinstance(f, ast.FunctionDef) and f.name == "__new__" for node in ast.walk(f)}
        records.append((name, [f.target.id for f in cls.body if isinstance(f, ast.AnnAssign)], checks))
    return records


def test_every_knob_is_read():
    # A field that nothing reads outside its own class's constructor checks
    # can be set, and checked, but cannot change any result.  Reads are
    # matched by attribute name only, whatever the receiver: a field counts
    # as read when any object's attribute of that name is loaded anywhere in
    # src/, so a common name (n, p, kind) can hide an unread field.  This
    # catches only a field whose name no code loads at all.
    trees = _src_trees()
    knobs = [record for record in _records(trees) if record[0] in _KNOB_CLASSES]
    assert sorted(name for name, _, _ in knobs) == sorted(_KNOB_CLASSES)
    unread = []
    for name, fields, checks in knobs:
        reads = {
            node.attr
            for tree in trees
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in checks
        }
        unread += [f"{name}.{field}" for field in fields if field not in reads]
    assert not unread, f"fields no result reads: {', '.join(unread)}"


# Records written whole, by ``harness`` into a CSV row or a sidecar (as
# ``json_text`` writes a named tuple) or by ``cli`` into a record
# (``_asdict``): each field is read there, by no attribute name.
_ASDICT_CLASSES = (
    "SlopeFit", "SpectralSummary", "StructureReport", "LcdResult",
    "TailRow", "ScalingCell", "NormBoundRow", "DistanceExperimentRow", "QuadraticRow",
)

# Records read by unpacking, by position: ``spectra._certified_extremes``'s result.
_UNPACKED_CLASSES = ("_Extremes",)


def test_every_result_field_is_read():
    # A record field that nothing loads, outside its record's constructor
    # checks, is carried by every result and read by no CLI kind,
    # benchmark workload or CLI test.  Reads are matched by
    # attribute name only, whatever the receiver, in src/ and in the code
    # that uses the package as a user would.
    trees = _src_trees()
    nodes = (node for tree in trees + _user_trees() for node in ast.walk(tree))
    loads = [node for node in nodes if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    records = _records(trees)
    assert set(_ASDICT_CLASSES) | set(_UNPACKED_CLASSES) <= {name for name, _, _ in records}
    unread = []
    for name, fields, checks in records:
        if name in _ASDICT_CLASSES or name in _UNPACKED_CLASSES:
            continue
        reads = {node.attr for node in loads if id(node) not in checks}
        unread += [f"{name}.{field}" for field in fields if field not in reads]
    assert not unread, f"fields nothing reads: {', '.join(unread)}"


def _functions(node, prefix=""):
    """(qualified name, node) for every def under ``node``, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = f"{prefix}{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _functions(child, f"{name}.")
        else:
            yield from _functions(child, prefix)


def test_every_parameter_is_read():
    # A parameter that its function's body never loads cannot change what
    # the function returns: every caller passes a value that is dropped.
    unused = []
    for tree in _src_trees():
        for qualname, node in _functions(tree):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]
            loaded = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unused += [f"{qualname}({arg.arg})" for arg in params if arg.arg not in loaded]
    assert not unused, f"parameters no body reads: {', '.join(unused)}"


def test_each_kind_is_named_once():
    # A kind's facts live in its one harness._KINDS record, so its name is a
    # string constant exactly once in src/: the record's key.
    from ssrmlab import harness

    trees = _src_trees()
    named = [node.value for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Constant) and node.value in harness._KINDS]
    table = next(
        node.value
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["_KINDS"]
    )
    keys = [key.value for key in table.keys]
    assert keys == list(harness._KINDS)
    assert sorted(named) == sorted(keys), f"kind names outside the _KINDS keys: {sorted(set(named) - set(keys)) or named}"


def test_only_the_reducing_routes_densify():
    # Every kernel hands spectra its sparse realization, and only the three
    # routes that reduce or invert a matrix densify it, each into the one
    # buffer LAPACK works on: no kernel holds an n x n array of its own beside
    # it.  Each .to_dense() call in src/ is named by its innermost enclosing def.
    owners = []
    for path in sorted((_ROOT / "src" / "ssrmlab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(node): f"{path.stem}.{name}" for name, fn in _functions(tree) for node in ast.walk(fn)}
        owners += [
            owner.get(id(node), path.stem)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "to_dense"
        ]
    want = ["inverse_geometry.all_column_distances", "spectra.full_symmetric_spectrum", "spectra._certified_extremes"]
    assert owners == want, f".to_dense() called from {owners}"
