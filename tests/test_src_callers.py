"""Every function, method and class in ``src/ftqec`` has a caller there.

A definition counts as referenced when its name appears anywhere in the
package as a name, an attribute or an import, so the check is a name
count: it cannot tell two same-named methods apart, and it errs toward
calling a definition used.  The allowlist below names what the package
keeps without a caller of its own; an entry that gains a caller (or goes)
fails the test too, so the list only shrinks.
"""
import ast
from pathlib import Path

import ftqec

SRC = Path(ftqec.__file__).parent

# module.qualname -> why it stays without a caller in the package
UNCALLED = {
    # wrapped by perfbench/spans.py and resolved by tests/test_trace_targets.py
    "simulator.SimEngine.attempt_preparation": "perfbench span target",
    "simulator.SimEngine.data_syndromes": "perfbench span target",
    "codes.CosetDecoder.leader_vector": "perfbench span target",
    # the row-space oracle of the standard-form tests
    "gf2.same_row_space": "test oracle",
    # checks the MC census against the model's p_ws floor; its caller is
    # the model-MC tallies still to come
    "stats.repeated_error_collision": "waiting for the model-MC tallies",
}


def _uncalled() -> set[str]:
    defined: dict[str, list[str]] = {}
    used: set[str] = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = scope + [child.name]
                defined.setdefault(child.name, []).append(".".join([module] + qual))
                visit(child, module, qual)
                continue
            if isinstance(child, ast.Name):
                used.add(child.id)
            elif isinstance(child, ast.Attribute):
                used.add(child.attr)
            elif isinstance(child, ast.alias):
                used.add(child.asname or child.name)
            visit(child, module, scope)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, [])
    return {qual for name, quals in defined.items()
            if name not in used and not name.startswith("__") for qual in quals}


def test_every_definition_has_a_caller_in_src():
    assert _uncalled() == set(UNCALLED)
