"""Every name ``perfbench/tracer.py`` traces exists in ``urcd``.

The tracer looks its targets up with ``getattr`` when a traced run starts,
so a function or sampler class renamed or deleted in ``urcd`` would break
``perfbench/run.py --trace 1`` while every other test passes.  The names
are read from the tracer's source (its ``TRACED`` and ``SAMPLER_CLASSES``
literals) without importing it.
"""

import ast
import importlib
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _literal(name: str):
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER.name} defines no {name}")


def test_traced_functions_exist():
    traced = _literal("TRACED")
    assert traced
    missing = [f"{module}.{function}" for module, functions in traced.items()
               for function in functions
               if not callable(getattr(importlib.import_module(module),
                                       function, None))]
    assert missing == []


def test_traced_sampler_classes_have_draw():
    classes = _literal("SAMPLER_CLASSES")
    assert classes
    datagen = importlib.import_module("urcd.datagen")
    missing = [name for name in classes
               if not callable(getattr(getattr(datagen, name, None), "draw", None))]
    assert missing == []
