"""The shared equilibrium engine: its certificate, its failure reporting, its tracing hooks."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import logging
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import advot.cli  # the tracer wraps the CLI too
from advot import (
    PERTURBATION_FLOOR,
    AdversaryCostParams,
    DimensionMismatch,
    PerturbationBelowFloor,
    SolverSettings,
    StageNotConverged,
    ValidationError,
    best_response_strategy,
    deviation_check,
    parse_scenario,
    run_dynamic_game,
    solve_bayesian_equilibrium,
    solve_regularized_ot,
    stage_adversary_best_response,
    threshold_phi,
)
from advot.static_game import DEVIATION_TOL, _perceived, stage_equilibrium
from conftest import SCENARIO_DIR, make_random_spec
from oracles import (
    edges_from,
    exact_nash_gap,
    loop_deviation_gap,
    per_type_stage_response,
    plain_best_response_iteration,
)

ROOT = Path(__file__).resolve().parents[1]


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# both types' best responses in one pass against the per-type reference


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_sources=st.integers(1, 4),
    n_targets=st.integers(1, 6),
    tau=st.one_of(st.just(0.0), st.floats(0.0, 3.0), st.just(np.inf)),
    beta1=st.floats(0.0, 1.0),
    beta2=st.floats(0.0, 1.0),
)
def test_adversary_response_equals_the_per_type_reference(
    seed, n_sources, n_targets, tau, beta1, beta2
):
    """Both columns of the one-pass response are bit for bit the per-type composition.

    Every example has a target without flow (the first, when there are
    several targets), previous actions above the floor, and a target whose
    previous action sits at its cap, so the cap is below ``xi_prev + tau``
    whenever ``tau > 0``.
    """
    rng = np.random.default_rng(seed)
    spec = make_random_spec(rng, n_sources, n_targets)
    params = AdversaryCostParams(spec.cost_params.punishment_coeff, beta1, beta2)
    spec = dataclasses.replace(spec, cost_params=params)
    network, caps = spec.network, spec.caps()
    plan = rng.uniform(0.0, 2.0, network.n_edges)
    idle = rng.random(n_targets) < 0.3
    idle[0] = n_targets > 1
    plan[idle[network.edge_target]] = 0.0
    floor = PERTURBATION_FLOOR
    xi_prev = np.where(
        rng.random(caps.shape) < 0.2,
        floor,
        floor + rng.uniform(0.0, 1.0, caps.shape) * (caps - floor),
    )
    xi_prev[-1] = caps[-1]
    both = best_response_strategy(spec, plan, xi_prev, tau)
    for t in (1, 2):
        args = (network, plan, params, caps[:, t - 1], t, xi_prev[:, t - 1], tau)
        expected = per_type_stage_response(*args)
        assert np.array_equal(both[:, t - 1], expected)
        assert np.array_equal(stage_adversary_best_response(*args), expected)


# ---------------------------------------------------------------------------
# the certificate against the exact Nash gap's oracle and a coarse grid


def _assert_matches_exact_gap(gap, spec, plan, xi, belief, xi_prev, tau):
    """``gap`` is the larger of the oracle's halves: the adversary's to 1e-12, the dispatcher's to 1e-5.

    Both tolerances are relative to the gap once it exceeds 1.
    """
    dispatcher, adversary = exact_nash_gap(spec, plan, xi, belief, xi_prev, tau)
    tol_adversary, tol_dispatcher = (tol * max(1.0, abs(gap)) for tol in (1e-12, 1e-5))
    assert gap >= adversary - tol_adversary and gap >= dispatcher - tol_dispatcher
    assert gap <= max(adversary + tol_adversary, dispatcher + tol_dispatcher)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_sources=st.integers(1, 4),
    n_targets=st.integers(1, 5),
    tau=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    staged=st.booleans(),
    saturated=st.booleans(),
    decided_by=st.sampled_from(("dispatcher", "adversary", "neither", "either")),
)
def test_certificate_bounds_and_matches_grid_references(
    seed, n_sources, n_targets, tau, staged, saturated, decided_by
):
    """The gap meets the exact Nash gap's oracle and, within capacity, bounds the 21-point grid's.

    The gap is the larger of the two players' improvements, so an error on
    one side shows only where that side decides it: a player that best
    responds to the other has improvements of about 0.  The grid moves one
    coordinate at a time inside its row's slack; for a plan over capacity
    that reaches points outside the capacity polytope, which are not
    deviations, so the bound holds only for a plan within capacity.
    """
    rng = np.random.default_rng(seed)
    spec = make_random_spec(rng, n_sources, n_targets)
    network = spec.network
    caps = spec.caps()
    floor = np.full(caps.shape, PERTURBATION_FLOOR)
    for _ in range(3):
        belief, xi_prev = spec.belief, floor
        if staged:
            minor = rng.uniform(0.0, 1.0, n_targets)
            belief = np.stack([minor, 1.0 - minor], axis=1)
            xi_prev = floor + rng.uniform(0.0, 1.0, caps.shape) * (caps - floor)
        # some actions sit at their cap, the end of their range
        xi = np.where(
            rng.random(caps.shape) < 0.2,
            caps,
            floor + rng.uniform(0.0, 1.0, caps.shape) * (caps - floor),
        )
        plan = rng.uniform(0.0, 1.0, network.n_edges)
        if saturated:
            # source 0 ships its whole capacity over one edge: zero slack, so
            # each of its other edges can only stay at 0
            edges = edges_from(network, 0)
            plan[edges] = 0.0
            plan[edges[0]] = network.capacities[0]
        if decided_by in ("adversary", "neither"):
            w_eff = _perceived(network, spec.weights, threshold_phi(xi, xi_prev, tau), belief)
            plan = solve_regularized_ot(network, w_eff, spec.settings).plan
        if decided_by in ("dispatcher", "neither"):
            xi = best_response_strategy(spec, plan, xi_prev, tau)
        exact = deviation_check(spec, plan, xi, belief, xi_prev, tau)
        _assert_matches_exact_gap(exact, spec, plan, xi, belief, xi_prev, tau)
        if np.all(network.row_sums(plan) <= network.capacities):
            coarse = loop_deviation_gap(spec, plan, xi, belief, xi_prev, tau)
            assert exact >= coarse - 1e-12 * max(1.0, abs(coarse))


def test_certificate_rejects_mass_on_the_wrong_edge_of_a_full_row(paper_spec):
    """0.01 moved from each row's second edge to its first is a misallocation the gap sees.

    Both rows of the paper profile are full, so no single plan coordinate
    can move: the dispatcher gains only by moving mass back between edges.
    """
    profile = solve_bayesian_equilibrium(paper_spec)
    network = paper_spec.network
    plan = profile.plan.copy()
    for j in range(network.n_sources):
        first, second = edges_from(network, j)[:2]
        plan[first] += 0.01
        plan[second] -= 0.01
    gap = deviation_check(paper_spec, plan, profile.strategy)
    assert gap >= 7.2e-4 > DEVIATION_TOL
    _assert_matches_exact_gap(gap, paper_spec, plan, profile.strategy, paper_spec.belief,
                              PERTURBATION_FLOOR, 0.0)


def test_unsettled_static_game_reports_its_exact_gap(paper_spec):
    """At ``lam`` 0.03 the paper game stops at the round cap, and its gap says how far off it is."""
    spec = dataclasses.replace(paper_spec, settings=SolverSettings(lam=0.03))
    profile = solve_bayesian_equilibrium(spec)
    assert not profile.converged
    assert profile.deviation_gap == pytest.approx(45.92, abs=5e-3)
    _assert_matches_exact_gap(profile.deviation_gap, spec, profile.plan, profile.strategy,
                              spec.belief, PERTURBATION_FLOOR, 0.0)


def test_unsettled_dynamic_stage_reports_its_exact_gap(paper_spec):
    """At ``lam`` 0.1 and ``tau`` 0.2 stage 2 alone stops at the round cap, with its exact gap."""
    spec = dataclasses.replace(paper_spec, settings=SolverSettings(lam=0.1))
    outcomes = run_dynamic_game(spec, 5, 0.2, abort_on_failure=False)
    assert [o.profile.converged for o in outcomes] == [True, False, True, True, True]
    xi_prev = PERTURBATION_FLOOR
    for outcome in outcomes:
        profile = outcome.profile
        _assert_matches_exact_gap(profile.deviation_gap, spec, profile.plan, profile.strategy,
                                  outcome.state.belief, xi_prev, 0.2)
        xi_prev = profile.strategy
    assert outcomes[1].profile.deviation_gap == pytest.approx(0.0694, abs=5e-5)


def test_certificate_defaults_pose_the_static_game(paper_spec):
    profile = solve_bayesian_equilibrium(paper_spec)
    floor = np.full((3, 2), PERTURBATION_FLOOR)
    explicit = deviation_check(
        paper_spec, profile.plan, profile.strategy, paper_spec.belief, floor, 0.0
    )
    assert profile.deviation_gap == explicit
    assert deviation_check(paper_spec, profile.plan, profile.strategy) == explicit


# ---------------------------------------------------------------------------
# the accelerated loop against the plain best-response iteration


def _random_stage(seed, staged):
    """A random game's stage: the static one, or one with a random belief, anchor and ``tau``."""
    rng = np.random.default_rng(seed)
    spec = make_random_spec(rng, int(rng.integers(1, 5)), int(rng.integers(1, 7)))
    if not staged:
        return spec, spec.belief, PERTURBATION_FLOOR, 0.0
    caps = spec.caps()
    minor = rng.uniform(0.0, 1.0, len(caps))
    belief = np.stack([minor, 1.0 - minor], axis=1)
    xi_prev = PERTURBATION_FLOOR + rng.uniform(0.0, 1.0, caps.shape) * (caps - PERTURBATION_FLOOR)
    return spec, belief, xi_prev, float(rng.uniform(0.0, 3.0))


def _free_plan(spec):
    return solve_regularized_ot(spec.network, spec.weights, spec.settings).plan


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), staged=st.booleans())
def test_accelerated_loop_meets_the_plain_iteration(seed, staged):
    """The accelerated profile is the plain iteration's fixed point, and certified.

    The plain iteration runs to a change of 1e-12, far below the loop's
    ``PROFILE_TOL``, so it stands for the exact fixed point.
    """
    spec, belief, xi_prev, tau = _random_stage(seed, staged)
    plan = _free_plan(spec)
    profile = stage_equilibrium(spec, belief, xi_prev, tau, plan)
    ref_plan, ref_xi, _ = plain_best_response_iteration(
        spec, belief, xi_prev, tau, plan, tol=1e-12
    )
    assert profile.converged
    assert profile.deviation_gap <= DEVIATION_TOL
    assert np.max(np.abs(profile.plan - ref_plan)) <= 1e-6
    assert np.max(np.abs(profile.strategy - ref_xi)) <= 1e-6


def test_sparse_static_game_takes_at_most_two_thirds_of_the_plain_rounds():
    generate = _load_perfbench("generate")
    spec = parse_scenario(generate.scenario_text(generate.sparse_pool(1, 1)[0])).game_spec()
    profile = solve_bayesian_equilibrium(spec)
    _, _, plain_rounds = plain_best_response_iteration(
        spec, spec.belief, PERTURBATION_FLOOR, 0.0, _free_plan(spec)
    )
    assert profile.converged
    assert 3 * profile.iterations <= 2 * plain_rounds


@pytest.mark.parametrize("seed", [2158, 4630])
def test_safeguards_keep_the_accelerated_loop_in_the_box(seed, monkeypatch):
    """Steps that leave ``[floor, caps]`` are clipped, and a growing residual keeps the history.

    On these stages both happen: some extrapolated step leaves the box, and
    some residual grows, after which the step still fits the earlier rounds'
    differences rather than falling back to the plain ``x = g``.  The loop
    converges all the same, and every action it plays stays in the box.  The
    extrapolation before the step's clip is refitted here from the history
    the step kept.  The loop thresholds its trial action through ``_phi``
    once per round, and the certificate once more, through ``threshold_phi``.
    """
    spec, belief, xi_prev, tau = _random_stage(seed, staged=True)
    caps = spec.caps()
    steps, kept_after_growth, played = [], [], []
    step, phi = advot.static_game._anderson_step, advot.static_game._phi

    def recording_step(history, g, f, caps):
        grew = bool(history) and np.linalg.norm(f) > np.linalg.norm(history[-1][1])
        x = step(history, g, f, caps)
        if grew:
            kept_after_growth.append(len(history))
        g_hist, f_hist = (np.array(column).T for column in zip(*history))
        gamma = np.linalg.lstsq(np.diff(f_hist, axis=1), f.ravel(), rcond=None)[0]
        extrapolated = g - (np.diff(g_hist, axis=1) @ gamma).reshape(g.shape)
        assert np.array_equal(x, np.clip(extrapolated, PERTURBATION_FLOOR, caps))
        steps.append(extrapolated)
        return x

    def recording_phi(xi, *args):
        played.append(np.array(xi, dtype=float))
        return phi(xi, *args)

    monkeypatch.setattr(advot.static_game, "_anderson_step", recording_step)
    monkeypatch.setattr(advot.static_game, "_phi", recording_phi)
    profile = stage_equilibrium(spec, belief, xi_prev, tau, _free_plan(spec))
    assert any(np.any((x < PERTURBATION_FLOOR) | (x > caps)) for x in steps)
    assert kept_after_growth and min(kept_after_growth) >= 2
    assert profile.converged and profile.deviation_gap <= DEVIATION_TOL
    assert len(played) == profile.iterations + 1
    for xi in played:
        assert np.all(xi >= PERTURBATION_FLOOR) and np.all(xi <= caps)


@pytest.mark.parametrize("staged", [False, True])
def test_loop_first_plays_the_best_response_to_the_handed_plan(staged, monkeypatch):
    """Round 1 prices the adversary's stage best response to ``plan``, not the caps."""
    spec, belief, xi_prev, tau = _random_stage(7, staged)
    plan = _free_plan(spec)
    solved = []
    solve = advot.static_game.solve_regularized_ot

    def recording(network, weights, *args, **kwargs):
        solved.append(np.array(weights))
        return solve(network, weights, *args, **kwargs)

    monkeypatch.setattr(advot.static_game, "solve_regularized_ot", recording)
    stage_equilibrium(spec, belief, xi_prev, tau, plan)
    first = threshold_phi(best_response_strategy(spec, plan, xi_prev, tau), xi_prev, tau)
    assert not np.allclose(first, threshold_phi(spec.caps(), xi_prev, tau))
    np.testing.assert_array_equal(
        solved[0], _perceived(spec.network, spec.weights, first, belief)
    )


# ---------------------------------------------------------------------------
# small lam: the loop settles through a flip, on the exact Nash gap


def _assert_exact_equilibrium(spec, plan, xi, belief, xi_prev, tau):
    dispatcher, adversary = exact_nash_gap(spec, plan, xi, belief, xi_prev, tau)
    assert dispatcher <= DEVIATION_TOL and adversary <= DEVIATION_TOL, (dispatcher, adversary)


@pytest.mark.parametrize("lam", [0.5, 0.3, 0.1])
def test_paper_static_game_settles_at_small_lam(paper_spec, lam):
    spec = dataclasses.replace(paper_spec, settings=SolverSettings(lam=lam))
    profile = solve_bayesian_equilibrium(spec)
    assert profile.converged
    _assert_exact_equilibrium(spec, profile.plan, profile.strategy, spec.belief,
                              PERTURBATION_FLOOR, 0.0)


@pytest.mark.parametrize("lam", [0.5, 0.3])
def test_paper_dynamic_game_settles_every_stage_at_small_lam(paper_spec, lam):
    spec = dataclasses.replace(paper_spec, settings=SolverSettings(lam=lam))
    xi_prev = PERTURBATION_FLOOR
    for outcome in run_dynamic_game(spec, 5, 0.5):  # a stage that does not settle raises
        profile = outcome.profile
        _assert_exact_equilibrium(spec, profile.plan, profile.strategy, outcome.state.belief,
                                  xi_prev, 0.5)
        xi_prev = profile.strategy


def _sweep_game(seed):
    """A random static game of up to 4x4 with ``lam`` log-uniform on [1e-3, 10)."""
    rng = np.random.default_rng(seed)
    n_sources, n_targets = rng.integers(1, 5, size=2)
    lam = 10 ** rng.uniform(-3, 1)
    return make_random_spec(rng, int(n_sources), int(n_targets), lam)


def test_seeded_sweep_settles_every_game_with_lam_from_a_tenth_to_one():
    """Seeds 10,000-10,399 draw 103 games with ``lam`` in [0.1, 1); each one settles."""
    specs = [spec for spec in map(_sweep_game, range(10_000, 10_400))
             if 0.1 <= spec.settings.lam < 1.0]
    assert len(specs) == 103
    for spec in specs:
        profile = solve_bayesian_equilibrium(spec)
        assert profile.converged, spec.settings.lam
        _assert_exact_equilibrium(spec, profile.plan, profile.strategy, spec.belief,
                                  PERTURBATION_FLOOR, 0.0)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_sources=st.integers(1, 4),
    n_targets=st.integers(1, 4),
    lam=st.floats(0.1, 1.0),
)
def test_a_converged_profile_has_an_exact_gap_within_tolerance(seed, n_sources, n_targets, lam):
    spec = make_random_spec(np.random.default_rng(seed), n_sources, n_targets, lam)
    profile = solve_bayesian_equilibrium(spec)
    if profile.converged:
        _assert_exact_equilibrium(spec, profile.plan, profile.strategy, spec.belief,
                                  PERTURBATION_FLOOR, 0.0)


# ---------------------------------------------------------------------------
# an unconverged inner solve is never hidden


@pytest.fixture
def starved_spec(paper_spec, monkeypatch):
    """The paper game, with every transport solve of the engine reported unconverged.

    Started from exact prices, the solve converges in one step whatever its
    budget, so the failure is injected: each report is the real one with
    ``converged=False``.
    """
    solve = advot.static_game.solve_regularized_ot

    def unconverged(*args, **kwargs):
        return dataclasses.replace(solve(*args, **kwargs), converged=False)

    monkeypatch.setattr(advot.static_game, "solve_regularized_ot", unconverged)
    return paper_spec


def test_static_profile_reports_unconverged_inner_solve(starved_spec, caplog):
    with caplog.at_level(logging.INFO, logger="advot.static_game"):
        profile = solve_bayesian_equilibrium(starved_spec)
    # the outer loop settles and the located gap is tiny, but the last
    # transport solve did not converge
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


@pytest.mark.parametrize(
    ("anchor", "tau", "error", "message"),
    [
        (0.0, 0.5, PerturbationBelowFloor, "actions must stay >= "),
        (5e-7, 0.5, PerturbationBelowFloor, "actions must stay >= "),
        (5e-7, 0.0, PerturbationBelowFloor, "actions must stay >= "),
        (np.nan, 0.5, ValidationError, "actions must be finite"),
        (np.full((5, 2), 1.0), 0.5, DimensionMismatch, r"shape \(5, 2\)"),
        (9.0, 0.5, ValidationError, "an action exceeds its per-type cap"),
    ],
    ids=["zero", "below-floor", "below-floor-static", "nan", "wrong-shape", "above-a-cap"],
)
def test_stage_rejects_an_anchor_outside_the_action_box(
    paper_spec, anchor, tau, error, message
):
    """The anchor ``xi_prev`` is checked on entry, before any round is played.

    Unchecked, an anchor below the floor leaves thresholded actions where the
    penalty ``z**(-beta2)`` is not meant to be evaluated, yet the profile
    can come back converged; a NaN anchor gives a NaN gap.  An anchor that
    does not broadcast to ``(n_targets, 2)`` is a ``DimensionMismatch``.
    """
    plan = _free_plan(paper_spec)
    with pytest.raises(error, match=message) as excinfo:
        stage_equilibrium(paper_spec, paper_spec.belief, anchor, tau, plan)
    assert excinfo.type is error


# ---------------------------------------------------------------------------
# every transport solve of the engine is one exact pricing pass


@pytest.fixture
def engine_solves(monkeypatch):
    """Reports of every transport solve the static and the multistage game make."""
    reports = []
    for module in (advot.static_game, advot.dynamic_game):

        def recording(*args, _solve=module.solve_regularized_ot, **kwargs):
            report = _solve(*args, **kwargs)
            reports.append(report)
            return report

        monkeypatch.setattr(module, "solve_regularized_ot", recording)
    return reports


def _play(config):
    """Static rounds and per-stage rounds of a scenario at its own stage settings."""
    spec = config.game_spec()
    stages, tau, _ = config.dynamic_params()
    static = solve_bayesian_equilibrium(spec)
    outcomes = run_dynamic_game(spec, stages, tau)
    assert static.converged and all(o.profile.converged for o in outcomes)
    return static.iterations, [o.profile.iterations for o in outcomes]


def test_paper_equilibrium_prices_each_solve_in_one_pass(engine_solves):
    config = parse_scenario((SCENARIO_DIR / "paper_2x3.json").read_text())
    assert _play(config) == (5, [5, 2, 2, 2, 2])
    # a base solve per game and one solve per round
    assert len(engine_solves) == (1 + 5) + (1 + 13)
    assert all(r.iterations == 1 and r.converged for r in engine_solves)


def test_sparse_equilibrium_prices_each_solve_in_one_pass(engine_solves):
    generate = _load_perfbench("generate")
    config = parse_scenario(generate.scenario_text(generate.sparse_pool(1, 1)[0]))
    assert max(np.bincount(config.network.edge_source)) == generate.SPARSE_MAX_DEGREE
    _play(config)
    assert all(r.iterations == 1 and r.converged for r in engine_solves)


# ---------------------------------------------------------------------------
# the benchmark tracer can wrap every entry point it names


def test_tracer_installs_on_every_entry_point(tmp_path):
    """Every op of the benchmark still calls the names the tracer wraps.

    A refactor that bypassed them would zero their per-layer metrics
    instead of failing.
    """
    tracer = _load_perfbench("tracer").Tracer(advot, timed=True)
    original = advot.static_game.deviation_check
    config = str(SCENARIO_DIR / "paper_2x3.json")
    distributed = advot.distributed
    with tracer.installed(0):
        for op in ("solve-ot", "static-eq", "dynamic-sim", "distributed-sim"):
            assert advot.cli.main([op, "--config", config, "--out", str(tmp_path / op)]) == 0
        log_text = (tmp_path / "distributed-sim" / "messages.log").read_text()
        assert distributed.replay(distributed.MessageLog.from_text(log_text)).converged
    # one append per logged record, and the bytes written are the file's
    report = json.loads((tmp_path / "distributed-sim" / "report.json").read_text())
    assert tracer.counts["distributed.messages"] == report["messages"]
    assert tracer.counts["distributed.log_bytes"] == (
        (tmp_path / "distributed-sim" / "messages.log").stat().st_size
    )
    assert advot.static_game.deviation_check is original
    assert tracer.counts["static_game.rounds"] > 0
    assert tracer.counts["dynamic_game.stages"] > 0
    assert tracer.counts["transport.unconverged"] == 0
    times = tracer.layer_times()
    for name in (
        "scenario.trace_records_s", "scenario.emit_s", "transport.self_s",
        "static_game.self_s", "static_game.adversary_br_s", "static_game.cert_s",
        "dynamic_game.self_s", "distributed.replay_s",
        "distributed.agent_tick_s", "distributed.refresh_br_s", "distributed.log_append_s",
        "distributed.log_write_s", "distributed.log_read_s",
    ):
        assert times[name] > 0, name
