"""Each input rule is checked in one place: no message text is raised at two sites in the package.

A rule that two functions check on their own is two copies that can drift
apart (one raises ``ValidationError``, the other ``DimensionMismatch``), and
a public function that needs the rule and has no copy of its own skips it.
The owner of a rule is the one function that raises its message; every
other caller calls it.  This walks the source with ``ast`` and collects the
text of each ``raise``: a string literal argument, or an f-string with each
field read as ``{}``.  A message kept in a named constant is deliberately
shared and is not collected.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "advot"

# Message texts that may be raised at more than one site, each with its reason.
SHARED = {
    "actions must be finite": (
        "check_strategy raises it after the cap check, so +inf reports the cap, while "
        "belief_update raises it before the floor check; tests pin both orders"
    ),
}


def _text(node) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in node.values)
    return None


def _raised_messages() -> dict[str, list[str]]:
    """Each message text raised in the package, with the ``file:line`` of every site."""
    sites = defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                for arg in node.exc.args:
                    if (text := _text(arg)) is not None:
                        sites[text].append(f"{path.name}:{node.lineno}")
    return sites


def test_the_scan_finds_the_package_messages():
    sites = _raised_messages()
    assert sites["tau must be >= 0"]
    assert sites["{} must be >= {}"]  # the count rule: stages, max_ticks and seed
    assert sites["{} must be finite"]  # the per-edge vector rule: weights and plans
    assert set(SHARED) <= set(sites)


def test_no_message_is_raised_at_two_sites():
    repeated = {text: where for text, where in _raised_messages().items()
                if len(where) > 1 and text not in SHARED}
    assert repeated == {}
