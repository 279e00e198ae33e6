"""Every top-level function and class in ``src/urcd``, public or private,
and every public method of its classes, has a caller.

A name counts as used when some code in ``src/`` or ``perfbench/`` other
than its own definition refers to it: by name or as an attribute, or, in
``src/`` alone, as a string constant.  A string in ``perfbench/`` does not
count: ``perfbench/tracer.py`` names what it traces in strings, and a name
it traces still needs a caller in the program.  Tests do not count, so
code that only its own tests call shows up here, and so does a private
helper left behind when its last caller goes.  An ``__all__`` listing
calls nothing and does not count either: every export of ``urcd`` needs a
real caller.

Every module-level import in ``src/urcd`` is read by its module, too.  And
every field of a config dataclass can be set from outside the program: a
CLI setting fills it, or a ``perfbench/run.py`` workload sets it, so no
field holds a value that only a default or a test ever gives it.
"""

import ast
import dataclasses
import pathlib
from collections import Counter

from urcd.cli import _COMMANDS
from urcd.datagen import GeneratorConfig
from urcd.dnm import RateParams
from urcd.harness import HarnessConfig
from urcd.neural import NetConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "urcd"


def _references(node, strings: bool = True) -> Counter:
    """How often each name is referred to anywhere under node, string
    constants included when ``strings`` is set."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            found[n.value] += 1
    return found


def _is_export_list(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _unused(definitions) -> list:
    """The (path, node) definitions nothing outside them refers to."""
    trees = [(ast.parse(path.read_text()), folder == "src")
             for folder in ("src", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    everywhere = sum((_references(node, strings) for tree, strings in trees
                      for node in tree.body if not _is_export_list(node)),
                     Counter())
    # references inside the definition itself (recursion) do not count
    return [f"{path.name}:{node.lineno} {node.name}"
            for path, node in definitions
            if everywhere[node.name] == _references(node)[node.name]]


def _module_bodies():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            yield path, node


def _module_definitions(private: bool):
    return ((path, node) for path, node in _module_bodies()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private)


def test_every_public_definition_has_a_caller():
    unused = _unused(_module_definitions(private=False))
    assert not unused, f"defined but never used outside tests: {unused}"


def test_every_private_definition_has_a_caller():
    unused = _unused(_module_definitions(private=True))
    assert not unused, f"private, and never used outside tests: {unused}"


def test_every_public_method_has_a_caller():
    unused = _unused((path, method) for path, node in _module_bodies()
                     if isinstance(node, ast.ClassDef)
                     for method in node.body
                     if isinstance(method, ast.FunctionDef)
                     and not method.name.startswith("_"))
    assert not unused, f"methods never used outside tests: {unused}"


def test_every_module_level_import_is_read():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        # names the module reads, and strings it lists (``__all__``)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | {
            n.value for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        for node in tree.body:
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, f"imported but never read: {unused}"


def _workload_settings() -> set:
    """The keywords of the ``harness`` and ``generator`` dicts of
    ``perfbench/run.py``'s WORKLOADS, read from its syntax tree, so that
    perfbench is not imported."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    workloads = next(node.value for node in tree.body
                     if isinstance(node, ast.Assign) and any(
                         isinstance(t, ast.Name) and t.id == "WORKLOADS"
                         for t in node.targets))
    return {keyword.arg for workload in workloads.values
            for key, value in zip(workload.keys, workload.values)
            if key.value in ("harness", "generator")
            for keyword in value.keywords}


def test_every_config_field_can_be_set_from_outside():
    settable = {s.name for _, _, table in _COMMANDS.values() for s in table}
    settable |= _workload_settings()
    unset = [f"{config.__name__}.{field.name}"
             for config in (NetConfig, HarnessConfig, GeneratorConfig,
                            RateParams)
             for field in dataclasses.fields(config)
             if field.name not in settable]
    assert not unset, f"no CLI setting or perfbench workload sets: {unset}"
