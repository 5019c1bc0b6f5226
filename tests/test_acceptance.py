"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single ``[PASS]``/``[FAIL]`` line for its criterion (run
pytest with ``-s`` to see them inline), then asserts.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from advot import (
    PERTURBATION_FLOOR,
    Schedule,
    minimize_node_cost,
    parse_scenario,
    planner_objective,
    replay,
    run_distributed,
    run_dynamic_game,
    solve_bayesian_equilibrium,
    solve_regularized_ot,
    threshold_phi,
    uniform_belief,
    unregularized_solve,
)
from advot.cli import main as cli_main
from advot.dynamic_game import belief_update
from conftest import SCENARIO_DIR, make_random_spec, perceived_solve
from oracles import grid_min_cost, slsqp_regularized_plan
from test_distributed import logged_iterates, reference_sync_run

PAPER = SCENARIO_DIR / "paper_2x3.json"


def _verdict(name: str, failures: list[str]) -> None:
    print(f"[{'FAIL' if failures else 'PASS'}] {name}")
    assert not failures, "; ".join(failures)


@pytest.fixture(scope="module")
def paper_config():
    return parse_scenario(PAPER.read_text())


@pytest.fixture(scope="module")
def paper_game(paper_config):
    return paper_config.game_spec()


@pytest.fixture(scope="module")
def paper_equilibrium(paper_game):
    return solve_bayesian_equilibrium(paper_game)


def test_criterion_regularized_ot_correctness(paper_config):
    failures = []
    network, weights = paper_config.network, paper_config.weights
    settings = paper_config.settings()
    started = time.perf_counter()
    report = solve_regularized_ot(network, weights, settings)
    elapsed = time.perf_counter() - started
    oracle = slsqp_regularized_plan(network, weights, settings.lam)
    worst = float(np.max(np.abs(report.plan - oracle)))
    if worst > 1e-4:
        failures.append(f"plan deviates from oracle by {worst:.2e} > 1e-4")
    stationarity = np.max(np.abs(
        weights - settings.lam * (1.0 + np.log(report.plan))
        - report.prices[network.edge_source]
    ))
    slack = network.capacities - network.row_sums(report.plan)
    comp_slack = float(np.max(np.abs(report.prices * slack)))
    primal_violation = float(max(0.0, -slack.min(), -report.plan.min()))
    kkt = max(float(stationarity), comp_slack, primal_violation)
    if kkt > 1e-6:
        failures.append(f"KKT residual {kkt:.2e} > 1e-6")
    if elapsed >= 1.0:
        failures.append(f"solve took {elapsed:.2f}s >= 1s")
    if not report.converged:
        failures.append("solver did not converge")
    _verdict("regularized OT matches brute-force oracle with tight KKT residuals", failures)


def test_criterion_smoothing_claim(paper_config):
    failures = []
    network, weights = paper_config.network, paper_config.weights
    sparse = network.plan_matrix(unregularized_solve(network, weights))
    for j in range(network.n_sources):
        row = sparse[j]
        nonzero = np.flatnonzero(row)
        if len(nonzero) != 1:
            failures.append(f"lam=0 row {j} has {len(nonzero)} nonzeros")
        elif row[nonzero[0]] != network.capacities[j]:
            failures.append(f"lam=0 row {j} does not ship its full capacity")
    smooth = solve_regularized_ot(network, weights, paper_config.settings()).plan
    if not np.all(smooth > 0.01):
        failures.append(f"lam=3 has entries <= 0.01 (min {smooth.min():.4f})")
    _verdict("smoothing: lam=0 concentrates per row, lam=3 spreads everywhere", failures)


def test_criterion_adversary_closed_form():
    failures = []
    rng = np.random.default_rng(1234)
    checked_derivatives = 0
    for k in range(1000):
        scale = rng.uniform(0.05, 5.0)
        flow = rng.uniform(0.05, 5.0)
        bound = rng.uniform(0.5, 10.0)
        beta2 = 0.5
        closed = minimize_node_cost(scale, flow, beta2, bound)[0]
        grid_point, grid_value = grid_min_cost(scale, flow, beta2, PERTURBATION_FLOOR, bound)
        if abs(closed - grid_point) > 1e-4:
            failures.append(
                f"case {k}: closed form {closed:.6f} vs grid {grid_point:.6f}"
            )
            break
        if PERTURBATION_FLOOR * 2 < closed < bound - 1e-3:
            derivative = -beta2 * scale * closed ** (-beta2 - 1.0) + flow
            h = 1e-6
            cost = lambda z: scale * z ** (-beta2) + flow * z
            central = (cost(closed + h) - cost(closed - h)) / (2 * h)
            # relative to the scale of the two balanced derivative terms
            # (the derivative itself vanishes at an interior optimum)
            term_scale = flow + beta2 * scale * closed ** (-beta2 - 1.0)
            if abs(derivative - central) / term_scale > 1e-5:
                failures.append(f"case {k}: derivative mismatch")
                break
            checked_derivatives += 1
    if checked_derivatives == 0:
        failures.append("no interior cases exercised the derivative check")
    _verdict(
        "adversary closed form matches 1e-5 grid search and finite differences",
        failures,
    )


def test_criterion_bayesian_equilibrium_certificate(paper_game):
    failures = []
    profile = solve_bayesian_equilibrium(paper_game)
    if not profile.converged or profile.iterations > 500:
        failures.append("reference scenario did not converge within 500 rounds")
    if profile.deviation_gap > 1e-4:
        failures.append(f"reference scenario gap {profile.deviation_gap:.2e} > 1e-4")
    rng = np.random.default_rng(31337)
    for k in range(100):
        spec = make_random_spec(rng)
        result = solve_bayesian_equilibrium(spec)
        if not result.converged or result.iterations > 500:
            failures.append(f"random instance {k} failed to converge")
            break
        if result.deviation_gap > 1e-4:
            failures.append(f"random instance {k} gap {result.deviation_gap:.2e}")
            break
    _verdict(
        "equilibrium certificate holds on the reference and 100 random instances",
        failures,
    )


def test_criterion_attack_degrades_utility(paper_game, paper_equilibrium):
    failures = []
    network = paper_game.network
    weights = paper_game.weights
    lam = paper_game.settings.lam
    free_plan = solve_regularized_ot(network, weights, paper_game.settings).plan
    utility_free = planner_objective(free_plan, weights, lam)
    utility_eq = planner_objective(paper_equilibrium.plan, weights, lam)
    worst_plan = perceived_solve(paper_game, paper_game.caps()).plan
    utility_worst = planner_objective(worst_plan, weights, lam)
    if not utility_eq > utility_worst:
        failures.append(
            f"equilibrium utility {utility_eq:.6f} not above worst-case {utility_worst:.6f}"
        )
    if not (utility_free > utility_eq and utility_free > utility_worst):
        failures.append(f"adversary-free utility {utility_free:.6f} is not the upper bound")
    _verdict("attack degrades the dispatcher's utility, adversary-free bounds both", failures)


def test_criterion_dynamic_consistency(paper_game):
    failures = []
    static = solve_bayesian_equilibrium(paper_game)
    single = run_dynamic_game(paper_game, stages=1, tau=0.0)[0]
    plan_gap = float(np.max(np.abs(single.profile.plan - static.plan)))
    action_gap = float(np.max(np.abs(single.profile.strategy - static.strategy)))
    if max(plan_gap, action_gap) > 1e-6:
        failures.append(f"single-stage run differs from static by {max(plan_gap, action_gap):.2e}")
    outcomes = run_dynamic_game(paper_game, stages=20, tau=0.5)
    for outcome in outcomes:
        drift = float(np.max(np.abs(outcome.belief_after.sum(axis=1) - 1.0)))
        if drift > 1e-12:
            failures.append(f"stage {outcome.state.stage}: belief drift {drift:.2e}")
            break
    updated = belief_update(uniform_belief(1), np.array([[2.0, 6.0]]))
    if updated.tolist() != [[0.25, 0.75]]:
        failures.append(f"hand-computed update came out as {updated.tolist()}")
    _verdict("dynamic play is consistent with the static game and keeps beliefs normalized", failures)


def test_criterion_thresholding_properties():
    failures = []
    rng = np.random.default_rng(777)
    xi_t = rng.uniform(0.0, 10.0, size=10_000)
    xi_prev = rng.uniform(0.0, 10.0, size=10_000)
    tau = rng.uniform(0.0, 5.0, size=10_000)
    out = threshold_phi(xi_t, xi_prev, tau)
    if not np.all(out >= xi_prev):
        failures.append("phi dropped below the previous action")
    step = 1e-4
    bumped = threshold_phi(xi_t + step, xi_prev, tau)
    if not np.all(bumped - out >= 0.0):
        failures.append("phi is not nondecreasing")
    if not np.all(bumped - out <= step + 1e-12):
        failures.append("phi is not 1-Lipschitz")
    left = threshold_phi(xi_prev + tau - 1e-13, xi_prev, tau)
    right = threshold_phi(xi_prev + tau + 1e-13, xi_prev, tau)
    if not np.all(np.abs(left - right) <= 1e-12):
        failures.append("phi is discontinuous at the knee")
    _verdict("thresholding property suite over 10,000 random triples", failures)


def test_criterion_distributed_centralized_equivalence(paper_game, paper_equilibrium):
    failures = []
    for seed in range(1, 11):
        started = time.perf_counter()
        schedule = Schedule(mode="random-subset", activation=0.5, seed=seed)
        report, log = run_distributed(paper_game, schedule)
        elapsed = time.perf_counter() - started
        if elapsed >= 10.0:
            failures.append(f"seed {seed} took {elapsed:.1f}s >= 10s")
        if not report.converged:
            failures.append(f"seed {seed} did not converge")
            break
        gap = float(np.max(np.abs(report.plan - paper_equilibrium.plan)))
        if gap > 1e-3:
            failures.append(f"seed {seed} ended {gap:.2e} away from centralized")
            break
        rebuilt = replay(log)
        if not (
            np.array_equal(rebuilt.plan, report.plan)
            and np.array_equal(rebuilt.prices, report.prices)
            and rebuilt.trace == report.trace
            and rebuilt.residual == report.residual
        ):
            failures.append(f"seed {seed} replay is not bit-identical")
            break

    # synchronous schedule against an independent dense-loop reference
    import dataclasses

    max_ticks = 100
    pinned = dataclasses.replace(
        paper_game, settings=dataclasses.replace(paper_game.settings, tol=1e-300)
    )
    report, log = run_distributed(
        pinned, Schedule(mode="synchronous", seed=0, max_ticks=max_ticks)
    )
    ref_prices, ref_rates, _ = reference_sync_run(pinned, max_ticks)
    ticks = report.iterations
    if ticks != len(ref_prices):
        failures.append(f"synchronous run stopped at tick {ticks}, the reference at {len(ref_prices)}")
    got_prices, got_rates, sent = logged_iterates(pinned, log, ticks)
    if sent != list(range(1, ticks + 1)):
        failures.append(f"synchronous agents sent at ticks {sent}, not at every refresh")
    for tick in range(1, min(ticks, len(ref_prices)) + 1):
        if got_prices[tick - 1] != list(ref_prices[tick - 1]) or (
            got_rates[tick - 1] != list(ref_rates[tick - 1])
        ):
            failures.append(f"synchronous iterates diverge from centralized at tick {tick}")
            break
    _verdict(
        "distributed runs meet the centralized fixed point; sync is tick-exact; replay is bit-identical",
        failures,
    )


def test_criterion_trace_determinism(tmp_path):
    failures = []
    jobs = [
        ("solve-ot", ()),
        ("static-eq", ()),
        ("dynamic-sim", ("--stages", "3")),
        ("distributed-sim", ("--seed", "6")),
    ]
    for command, extra in jobs:
        dirs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{command}-{attempt}"
            code = cli_main(
                [command, "--config", str(PAPER), "--out", str(out), *extra]
            )
            if code != 0:
                failures.append(f"{command} exited {code}")
            dirs.append(out)
        names = ["trace.csv", "report.json", "config_echo.json"]
        if command == "distributed-sim":
            names.append("messages.log")
        for name in names:
            if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                failures.append(f"{command}: {name} differs between identical runs")
    _verdict("identical config and seed reproduce byte-identical outputs", failures)
