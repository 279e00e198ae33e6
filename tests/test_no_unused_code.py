"""Every top-level public function and class in ``src/urcd`` has a caller.

A name counts as used when some code in ``src/`` or ``perfbench/`` other
than its own definition refers to it: by name, as an attribute, or as a
string constant (``perfbench/tracer.py`` names what it traces in strings).
Tests do not count, so code that only its own tests call shows up here.
The package's exports and a few diagnostics kept for the tests are exempt.
"""

import ast
import pathlib
from collections import Counter

import urcd

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "urcd"
# diagnostics that only the tests exercise, kept on purpose
TEST_DIAGNOSTICS = {
    "gmm_log_likelihood", "conditional_expectation", "localization_contains",
    "covering_radius", "projection_slack", "grad_check", "parse_report_csv",
    "dgn_predict_params",
}


def _references(node) -> Counter:
    """How often each name is referred to anywhere under node."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            found[n.value] += 1
    return found


def test_every_public_definition_has_a_caller():
    trees = [ast.parse(path.read_text())
             for folder in (ROOT / "src", ROOT / "perfbench")
             for path in sorted(folder.rglob("*.py"))]
    everywhere = sum((_references(tree) for tree in trees), Counter())
    exempt = set(urcd.__all__) | TEST_DIAGNOSTICS
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or node.name in exempt):
                continue
            # references inside the definition itself (recursion) do not count
            if everywhere[node.name] == _references(node)[node.name]:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, f"defined but never used outside tests: {unused}"
