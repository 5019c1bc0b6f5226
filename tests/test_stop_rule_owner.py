"""The equilibrium loop and the distributed hub stop by one rule: one function calls ``_anderson_step``.

The stop rule of a best-response round (the plan and ``g - x`` each move at
most ``PROFILE_TOL``) and the Anderson step taken when it does not hold are
owned by ``static_game._next_trial``; ``stage_equilibrium`` and
``run_distributed`` call it.  A second caller of ``_anderson_step`` would be a
second copy of the rule, free to stop elsewhere, as the hub once did.  This
walks the source with ``ast`` and collects each function that calls
``_anderson_step``, by name or as an attribute.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "advot"


class _Callers(ast.NodeVisitor):
    """The innermost enclosing function of each call of ``_anderson_step``."""

    def __init__(self, module: str):
        self.module = module
        self.scope: list[str] = []
        self.callers: set[str] = set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "_anderson_step":
            self.callers.add(f"{self.module}:{'.'.join(self.scope) or '<module>'}")
        self.generic_visit(node)


def _anderson_step_callers() -> list[str]:
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        visitor = _Callers(path.name)
        visitor.visit(ast.parse(path.read_text()))
        callers |= visitor.callers
    return sorted(callers)


def test_the_scan_finds_the_stop_rule():
    assert "static_game.py:_next_trial" in _anderson_step_callers()


def test_one_function_calls_anderson_step():
    assert len(_anderson_step_callers()) == 1, _anderson_step_callers()
