"""The package's lazy re-exports behave like plain module attributes, and
every definition in it has a caller outside its own unit tests."""

import ast
import importlib
import pathlib

import pytest

import ssrmlab


@pytest.mark.parametrize("name", ssrmlab.__all__)
def test_export_is_the_defining_modules_object(name):
    value = getattr(ssrmlab, name)
    module = importlib.import_module(value.__module__)
    assert module.__name__.startswith("ssrmlab.")
    assert getattr(module, name) is value


def test_dir_lists_all_and_every_export():
    names = dir(ssrmlab)
    assert "__all__" in names and "__version__" in names
    assert set(ssrmlab.__all__) <= set(names)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        ssrmlab.no_such_name
    assert not hasattr(ssrmlab, "no_such_name")


def test_star_import():
    namespace = {}
    exec("from ssrmlab import *", namespace)
    assert {name: namespace[name] for name in ssrmlab.__all__} == {name: getattr(ssrmlab, name) for name in ssrmlab.__all__}


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


def test_every_definition_is_reached():
    # A top-level def or class must be reached from a re-export, module-level
    # code (the CLI's dispatch tables and entry point), a benchmark workload, an
    # acceptance criterion or a CLI test, directly or through the bodies of other
    # reached definitions.  What only its own unit tests call is dead code.
    root = pathlib.Path(__file__).resolve().parents[1]
    bodies = {}
    reached = set(ssrmlab._EXPORTS)
    for path in sorted((root / "src" / "ssrmlab").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies[node.name] = _identifiers(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reached |= _identifiers(node)
    users = [*sorted((root / "perfbench").glob("*.py")), root / "tests" / "test_acceptance.py", root / "tests" / "test_cli.py"]
    for path in users:
        reached |= _identifiers(ast.parse(path.read_text(encoding="utf-8")))
    todo = list(reached)
    while todo:
        new = bodies.get(todo.pop(), set()) - reached
        reached |= new
        todo += new
    dead = sorted(name for name in bodies if name not in reached and not name.startswith("__"))
    assert not dead, f"no caller outside their own unit tests: {', '.join(dead)}"


# Classes whose fields are settable knobs: a config key, a CLI flag or a
# constructor argument.
_KNOB_CLASSES = ("StructureConstants", "EntryDistribution", "EnsembleParams", "ExperimentConfig", "RngStream")


def test_every_knob_is_read():
    # A field that nothing reads outside its own class's __post_init__ can be
    # set, and checked, but cannot change any result.  Reads are matched by
    # attribute name only, whatever the receiver: a field counts as read when
    # any object's attribute of that name is loaded anywhere in src/, so a
    # common name (n, p, kind) can hide an unread field.  This catches only a
    # field whose name no code loads at all.
    root = pathlib.Path(__file__).resolve().parents[1]
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted((root / "src" / "ssrmlab").glob("*.py"))]
    classes = {node.name: node for tree in trees for node in tree.body if isinstance(node, ast.ClassDef) and node.name in _KNOB_CLASSES}
    assert sorted(classes) == sorted(_KNOB_CLASSES)
    unread = []
    for name, cls in classes.items():
        checks = {id(node) for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "__post_init__" for node in ast.walk(f)}
        reads = {
            node.attr
            for tree in trees
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in checks
        }
        unread += [f"{name}.{f.target.id}" for f in cls.body if isinstance(f, ast.AnnAssign) and f.target.id not in reads]
    assert not unread, f"fields no result reads: {', '.join(unread)}"
