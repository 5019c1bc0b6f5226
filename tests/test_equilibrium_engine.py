"""The shared equilibrium engine: its certificate, its failure reporting, its tracing hooks."""

from __future__ import annotations

import dataclasses
import importlib.util
import logging
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import advot.cli  # the tracer wraps the CLI too
from advot import (
    PERTURBATION_FLOOR,
    PerturbationBelowFloor,
    StageNotConverged,
    best_response_strategy,
    deviation_check,
    effective_weights,
    run_dynamic_game,
    solve_bayesian_equilibrium,
    solve_regularized_ot,
    threshold_phi,
)
from conftest import SCENARIO_DIR, make_random_spec
from oracles import loop_deviation_gap

ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# array-op certificate against the per-coordinate loops


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_sources=st.integers(1, 4),
    n_targets=st.integers(1, 5),
    tau=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    staged=st.booleans(),
    saturated=st.booleans(),
    decided_by=st.sampled_from(("dispatcher", "adversary", "neither", "either")),
)
def test_certificate_equals_loop_reference(
    seed, n_sources, n_targets, tau, staged, saturated, decided_by
):
    """``==``, not ``allclose``: the array ops must round exactly as the loops do.

    The gap is the larger of the two players' improvements, so a rounding
    change on one side shows only where that side decides it: a player that
    best responds to the other has improvements of about 0.  Near 0 the
    last bit of a grid point also reaches the gap.
    """
    rng = np.random.default_rng(seed)
    spec = make_random_spec(rng, n_sources, n_targets)
    network = spec.network
    caps = spec.caps()
    floor = np.full(caps.shape, PERTURBATION_FLOOR)
    for _ in range(4):
        belief, xi_prev = spec.belief, floor
        if staged:
            minor = rng.uniform(0.0, 1.0, n_targets)
            belief = np.stack([minor, 1.0 - minor], axis=1)
            xi_prev = floor + rng.uniform(0.0, 1.0, caps.shape) * (caps - floor)
        # some actions sit at their cap, where a grid point coincides with them
        xi = np.where(
            rng.random(caps.shape) < 0.2,
            caps,
            floor + rng.uniform(0.0, 1.0, caps.shape) * (caps - floor),
        )
        plan = rng.uniform(0.0, 1.0, network.n_edges)
        if saturated:
            # source 0 ships its whole capacity over one edge: zero slack, so
            # each of its other edges has an empty grid (hi == 0)
            edges = network.edges_from(0)
            plan[edges] = 0.0
            plan[edges[0]] = network.capacities[0]
        if decided_by in ("adversary", "neither"):
            w_eff = effective_weights(
                network, spec.weights, threshold_phi(xi, xi_prev, tau), belief
            )
            plan = solve_regularized_ot(network, w_eff, spec.settings).plan
        if decided_by in ("dispatcher", "neither"):
            xi = best_response_strategy(spec, plan, xi_prev, tau)
        expected = loop_deviation_gap(spec, plan, xi, belief, xi_prev, tau)
        assert deviation_check(spec, plan, xi, belief, xi_prev, tau) == expected


def test_certificate_defaults_pose_the_static_game(paper_spec):
    profile = solve_bayesian_equilibrium(paper_spec)
    floor = np.full((3, 2), PERTURBATION_FLOOR)
    expected = loop_deviation_gap(
        paper_spec, profile.plan, profile.strategy, paper_spec.belief, floor, 0.0
    )
    assert profile.deviation_gap == expected
    assert deviation_check(paper_spec, profile.plan, profile.strategy) == expected


# ---------------------------------------------------------------------------
# an unconverged inner solve is never hidden


@pytest.fixture
def starved_spec(paper_spec):
    """The paper game with too few inner iterations for the transport solve."""
    return dataclasses.replace(
        paper_spec, settings=dataclasses.replace(paper_spec.settings, max_iter=20)
    )


def test_static_profile_reports_unconverged_inner_solve(starved_spec, caplog):
    with caplog.at_level(logging.INFO, logger="advot.static_game"):
        profile = solve_bayesian_equilibrium(starved_spec)
    # the outer loop settles and the located gap is tiny, but the last
    # transport solve stopped at its iteration limit
    assert profile.deviation_gap <= 1e-4
    assert not profile.converged
    assert "last inner solve converged=False" in caplog.text


def test_dynamic_stage_with_unconverged_inner_solve_raises(starved_spec):
    with pytest.raises(StageNotConverged) as excinfo:
        run_dynamic_game(starved_spec, stages=2, tau=0.5)
    assert excinfo.value.stage == 1


def test_caps_below_the_action_floor_are_rejected(paper_spec):
    # no action can respect a cap below the floor, so no game can be posed
    with pytest.raises(PerturbationBelowFloor):
        dataclasses.replace(paper_spec, lower_caps=np.full(3, 0.5 * PERTURBATION_FLOOR))


# ---------------------------------------------------------------------------
# the benchmark tracer can wrap every entry point it names


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_entry_point(tmp_path):
    tracer = _load_tracer().Tracer(advot, timed=False)
    original = advot.static_game.deviation_check
    config = str(SCENARIO_DIR / "paper_2x3.json")
    with tracer.installed(0):
        for op in ("static-eq", "dynamic-sim"):
            assert advot.cli.main([op, "--config", config, "--out", str(tmp_path / op)]) == 0
    assert advot.static_game.deviation_check is original
    assert tracer.counts["static_game.rounds"] > 0
    assert tracer.counts["dynamic_game.stages"] > 0
    assert tracer.counts["transport.unconverged"] == 0
