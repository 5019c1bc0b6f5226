"""Every function the package exports is read somewhere inside the package.

An exported function that only tests and demos call is a second public copy
of a formula the engine runs through another path.  This walks the source
with ``ast`` so that such twins cannot grow back unnoticed.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "advot"

# Exported functions that no module of the package reads, each with its reason.
UNREAD = {
    "stage_adversary_best_response": (
        "the benchmark's tracer wraps advot.dynamic_game.stage_adversary_best_response by name"
    ),
    "replay": "the entry point that rebuilds a run from its written message log",
}


TREES = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}


def _exported_functions():
    """(name, defining module, definition) of each function ``__init__`` re-exports."""
    for node in TREES["__init__"].body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            defs = {d.name: d for d in TREES[node.module].body if isinstance(d, ast.FunctionDef)}
            for alias in node.names:
                if alias.name in defs:
                    yield alias.name, node.module, defs[alias.name]


def _is_read(name: str, module: str, definition: ast.FunctionDef) -> bool:
    """Whether a module other than ``__init__`` loads ``name`` or reads it as an attribute.

    Reads inside the function's own body do not count.
    """
    own_body = {id(node) for node in ast.walk(definition)}
    for stem, tree in TREES.items():
        if stem == "__init__":
            continue
        for node in ast.walk(tree):
            if stem == module and id(node) in own_body:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name:
                return True
            if isinstance(node, ast.Attribute) and node.attr == name:
                return True
    return False


def test_every_exported_function_has_a_reader_in_the_package():
    exported = list(_exported_functions())
    assert len(exported) > len(UNREAD)
    unread = {name for name, module, definition in exported if not _is_read(name, module, definition)}
    assert unread == set(UNREAD)
