"""Each engine value is checked once: kernels check nothing, and a round adds a fixed set of checks.

Public functions check their inputs and call private kernels, which check
nothing; the equilibrium loop checks the anchor and the belief once per
stage, and each round's best response checks ``tau`` and that round's plan.
A kernel that checks is a second copy of its caller's check, paid again in
every round that calls it.  The first test walks the engine's
source with ``ast``; the second counts the checks the loop makes per round.
"""

from __future__ import annotations

import ast
import dataclasses
from collections import Counter
from pathlib import Path

import pytest

import advot.network
import advot.static_game
import advot.transport
from advot import PERTURBATION_FLOOR, SolverSettings, solve_regularized_ot
from advot.static_game import stage_equilibrium

SRC = Path(__file__).resolve().parents[1] / "src" / "advot"

# The engine's modules; scenario.py and cli.py read files and flags, and check what they read.
ENGINE = ("transport.py", "static_game.py", "dynamic_game.py", "distributed.py", "network.py")


def _is_check(name: str | None) -> bool:
    return name is not None and name.startswith(("check_", "_check_"))


def _checking_kernels(sources: dict[str, str]) -> list[str]:
    """``file:function:check`` for each call of a check inside a private function not itself a check."""
    found = []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or not node.name.startswith("_") or node.name.startswith(("__", "_check"))):
                continue
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    func = call.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if _is_check(called):
                        found.append(f"{name}:{node.name}:{called}")
    return found


def test_the_scan_finds_a_checking_kernel():
    """A scan that misses every call would pass vacuously."""
    source = (
        "def _kernel(plan):\n    return network.check_plan(plan)\n"
        "def _check_rule(x):\n    check_tau(x)\n"
        "def public(x):\n    _check_count(x)\n"
        "def __post_init__(self):\n    check_belief(x)\n"
    )
    assert _checking_kernels({"example.py": source}) == ["example.py:_kernel:check_plan"]


def test_no_private_engine_function_calls_a_check():
    assert _checking_kernels({name: (SRC / name).read_text() for name in ENGINE}) == []


# (module, name) of each counted function, at the binding its callers look up.
COUNTED = [
    (advot.static_game, "check_tau"),
    (advot.static_game, "check_plan"),
    (advot.static_game, "check_belief"),
    (advot.static_game, "check_strategy"),
    (advot.static_game, "_check_anchor"),
    (advot.static_game, "threshold_phi"),
    (advot.static_game, "check_edge_vector"),
    (advot.network, "check_edge_vector"),
    (advot.transport, "check_edge_vector"),
]

# What each extra round adds: the solve checks its weights, the best response tau and its plan.
PER_ROUND = {"check_tau": 1, "check_plan": 1, "check_edge_vector": 2, "check_belief": 0,
             "check_strategy": 0, "_check_anchor": 0, "threshold_phi": 0}


def _counts(spec, plan, rounds: int, record_trace: bool, monkeypatch) -> Counter:
    """The calls of each counted function in one stage cut at ``rounds`` rounds."""
    counts: Counter = Counter()

    def counting(fn, name):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(advot.static_game, "MAX_ROUNDS", rounds)
        for module, name in COUNTED:
            patch.setattr(module, name, counting(getattr(module, name), name))
        profile = stage_equilibrium(spec, spec.belief, PERTURBATION_FLOOR, 0.0, plan,
                                    record_trace=record_trace)
    assert profile.iterations == rounds and not profile.converged  # cut at the cap
    return counts


@pytest.mark.parametrize("record_trace", [False, True])
def test_each_round_checks_tau_and_its_plan_once(paper_spec, monkeypatch, record_trace):
    """The paper game at ``lam = 0.3`` runs to the round cap; 18 more rounds add 18 rounds' checks."""
    spec = dataclasses.replace(paper_spec, settings=SolverSettings(lam=0.3))
    plan = solve_regularized_ot(spec.network, spec.weights, spec.settings).plan
    short, long = (_counts(spec, plan, rounds, record_trace, monkeypatch) for rounds in (2, 20))
    assert {name: long[name] - short[name] for name in PER_ROUND} == {
        name: 18 * count for name, count in PER_ROUND.items()
    }
