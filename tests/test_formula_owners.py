"""Each formula of the model is computed in one place: only ``transport.py`` calls ``exp`` or ``log``.

The closed-form plan ``exp((m - p)/lam - 1)`` and the entropy term ``x log x``
are the transport layer's.  The certificate, the hub and its agents compute
with that layer's kernels, so a second spelling of either, which could round
differently or handle ``0 log 0`` differently, cannot grow back unnoticed.
This walks the source with ``ast`` and collects every call of ``exp`` or
``log`` on ``np``, ``numpy`` or ``math``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "advot"

OWNER = "transport.py"


def _exp_and_log_calls() -> list[str]:
    """The ``file:line`` of each call of ``exp`` or ``log`` in the package."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("exp", "log")
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy", "math")):
                sites.append(f"{path.name}:{node.lineno}")
    return sites


def test_the_scan_finds_the_transport_kernels():
    assert any(site.startswith(f"{OWNER}:") for site in _exp_and_log_calls())


def test_only_transport_calls_exp_or_log():
    assert [site for site in _exp_and_log_calls() if not site.startswith(f"{OWNER}:")] == []
