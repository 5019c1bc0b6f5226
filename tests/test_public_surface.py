"""Every function the package exports, and every public method of a class it exports, is read somewhere inside the package.

An exported function that only tests and demos call is a second public copy
of a formula the engine runs through another path; a public method that
nothing in the package calls is the same kind of surface on a class.  This
walks the source with ``ast`` so that such twins cannot grow back unnoticed.
A method counts as read wherever an attribute of its name is, so the check
can miss a dead method that shares a name with a live one, but never flags
a live one.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "advot"

# Exported functions and public methods that no module of the package reads, each with its reason.
UNREAD = {
    "stage_adversary_best_response": (
        "the benchmark's tracer wraps advot.dynamic_game.stage_adversary_best_response by name"
    ),
    "replay": "the entry point that rebuilds a run from its written message log",
    "MessageLog.from_text": (
        "reads a written message log back; the benchmark and anyone replaying a log call it"
    ),
    "BipartiteNetwork.plan_matrix": (
        "shows a per-edge vector as a source-by-target matrix; the demos print plans with it"
    ),
}


TREES = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _exported_definitions():
    """(name, bare name, defining module, definition) of each exported function and public method.

    A method is named ``Class.method``; its class must be re-exported by ``__init__``.
    """
    for node in TREES["__init__"].body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            defs = {d.name: d for d in TREES[node.module].body
                    if isinstance(d, (*FUNCTIONS, ast.ClassDef))}
            for alias in node.names:
                definition = defs.get(alias.name)
                if isinstance(definition, FUNCTIONS):
                    yield alias.name, alias.name, node.module, definition
                elif isinstance(definition, ast.ClassDef):
                    for method in definition.body:
                        if isinstance(method, FUNCTIONS) and not method.name.startswith("_"):
                            name = f"{alias.name}.{method.name}"
                            yield name, method.name, node.module, method


def _is_read(name: str, module: str, definition) -> bool:
    """Whether a module other than ``__init__`` loads ``name`` or reads it as an attribute.

    Reads inside the definition's own body do not count.
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


def test_every_exported_function_and_method_has_a_reader_in_the_package():
    exported = list(_exported_definitions())
    assert any("." in name for name, *_ in exported)
    assert len(exported) > len(UNREAD)
    unread = {name for name, bare, module, definition in exported
              if not _is_read(bare, module, definition)}
    assert unread == set(UNREAD)
