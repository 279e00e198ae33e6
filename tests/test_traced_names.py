"""Every name ``perfbench/tracer.py`` traces exists in ``urcd``, and a run
calls every traced function.

The tracer looks its targets up with ``getattr`` when a traced run starts,
so a function or sampler class renamed or deleted in ``urcd`` would break
``perfbench/run.py --trace 1`` while every other test passes.  A traced
function that the program no longer calls, because it calls a twin under
another name, would read 0 in every trace.  The names are read from the
tracer's source (its ``TRACED`` and ``SAMPLER_CLASSES`` literals) without
importing it.
"""

import ast
import functools
import importlib
import pathlib
import sys
from collections import Counter

from urcd import harness
from urcd.datagen import GeneratorConfig
from urcd.harness import HarnessConfig

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


def _counting_calls(monkeypatch, traced) -> Counter:
    """Count calls of each traced function, rebound as the tracer rebinds
    it: in every ``urcd`` module that holds it."""
    calls = Counter()
    modules = [mod for name, mod in list(sys.modules.items())
               if mod is not None and (name == "urcd" or name.startswith("urcd."))]
    for module, functions in traced.items():
        for function in functions:
            original = getattr(importlib.import_module(module), function)
            name = f"{module}.{function}"

            @functools.wraps(original)
            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for mod in modules:
                for attribute, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attribute, counted)
    return calls


def test_every_traced_function_is_called_by_a_run(monkeypatch):
    traced = _literal("TRACED")
    calls = _counting_calls(monkeypatch, traced)
    # serial, so every call is made in this process
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    h = HarnessConfig(n_centers=2, hidden_dims=(4,), epochs=5, n_test=3,
                      bootstrap_b=100, mdn_components=2)
    hetero = GeneratorConfig(task="heteroscedastic", d=1, size=8, S=10)
    # D = 2, so the scoring goes through w1_exact
    dropout = GeneratorConfig(task="mc_dropout", d=2, D=2, size=8, S=10,
                              base_width=5)
    # through the module, whose run_experiment is the counted one
    harness.run_experiment(hetero, ["dnm", "const", "mdn", "dgn", "mean"],
                           seed=3, harness=h)
    harness.run_experiment(dropout, ["dnm"], seed=3, harness=h)
    uncalled = [f"{module}.{function}" for module, functions in traced.items()
                for function in functions
                if calls[f"{module}.{function}"] == 0]
    assert uncalled == []
