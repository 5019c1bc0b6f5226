"""Every parameter with a default, of a function or public method the package exports, is passed by a caller inside the package.

A default that no call of the package overrides is an option no run
varies: each one doubles the configurations the tests must cover, and a
value only tests set is one nothing checks.  This walks the source with
``ast``, as ``test_public_surface.py`` does, and looks for a call of the
definition's name that passes the parameter, by keyword or by position.
A call is matched by name alone, so the check can miss a dead option whose
name is shared with a live call (``append``), but never flags a live one.
"""

from __future__ import annotations

import ast

from test_public_surface import TREES, _exported_definitions

# Defaulted parameters that no call in the package passes, each with its reason.
UNPASSED: dict[str, str] = {}


def _defaulted(definition) -> list[tuple[int | None, str]]:
    """Each defaulted parameter's position among the caller's arguments (None if keyword-only) and name.

    The first parameter of a method, ``self`` or ``cls``, is not the caller's to pass.
    """
    args = definition.args
    positional = [*args.posonlyargs, *args.args]
    skip = int(bool(positional) and positional[0].arg in ("self", "cls"))
    first_default = len(positional) - len(args.defaults)
    named = [(k - skip, arg.arg) for k, arg in enumerate(positional) if k >= first_default]
    named += [(None, arg.arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
              if default is not None]
    return named


def _calls(bare: str, module: str, definition):
    """Every call in the package of the name ``bare``, outside the definition's own body."""
    own_body = {id(node) for node in ast.walk(definition)}
    for stem, tree in TREES.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or (stem == module and id(node) in own_body):
                continue
            func = node.func
            if ((isinstance(func, ast.Name) and func.id == bare)
                    or (isinstance(func, ast.Attribute) and func.attr == bare)):
                yield node


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    if any(keyword.arg in (name, None) for keyword in call.keywords):  # None is a ** unpacking
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(arg, ast.Starred) for arg in call.args)


def _unpassed() -> list[str]:
    unpassed = []
    for name, bare, module, definition in _exported_definitions():
        calls = list(_calls(bare, module, definition))
        for position, parameter in _defaulted(definition):
            if not any(_passes(call, position, parameter) for call in calls):
                unpassed.append(f"{name}({parameter})")
    return unpassed


def test_the_scan_finds_defaulted_parameters():
    found = {name: [p for _, p in _defaulted(definition)]
             for name, _, _, definition in _exported_definitions()}
    assert found["run_command"] == ["emit"]
    assert found["deviation_check"] == ["belief", "xi_prev", "tau"]
    assert found["MessageLog.append"] == ["index", "value", "value2"]


def test_every_defaulted_parameter_has_a_caller_that_passes_it():
    assert sorted(_unpassed()) == sorted(UNPASSED)
