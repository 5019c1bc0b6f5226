from __future__ import annotations

import dataclasses
import json
import re
import tracemalloc
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from advot import (
    AdversaryCostParams,
    CorruptLog,
    GameSpec,
    MessageLog,
    NonFiniteIterate,
    PERTURBATION_FLOOR,
    Schedule,
    SolverSettings,
    SourceAgent,
    ValidationError,
    best_response_strategy,
    build_network,
    deviation_check,
    parse_scenario,
    replay,
    run_distributed,
    solve_bayesian_equilibrium,
    uniform_belief,
)
from advot import distributed
from advot.distributed import FINAL, PRICE, RATE, SCHEDULE_MODES, STRATEGY, TOPOLOGY, TRACE, WEIGHT
from advot.static_game import DEVIATION_TOL, PROFILE_TOL
from advot.transport import row_prices, solve_regularized_ot
from conftest import load_perfbench, make_random_spec
from oracles import agent_tick, edges_from, edges_into, exact_nash_gap, reference_log_text


def reference_sync_run(spec: GameSpec, max_ticks: int):
    """Plain all-rows numpy loop mirroring the synchronous protocol.

    Written independently of the agent/scheduler machinery: dense arrays and
    explicit per-row and per-target updates.  Under the synchronous schedule
    every agent prices its weights at each tick, so the hub refreshes after
    every tick: each target's best response ``g`` to the rates, then a
    type-II Anderson step (memory 5, the history kept whether ``|f|`` grows
    or not) on ``f = g - xi``, clipped into the caps.  The agents first
    price the adversary-free weights, and the first refresh holds ``xi = g``
    with no step.  Sums add one term at a time in edge order, as
    ``np.bincount`` does.  The loop stops after the first refresh past the
    first at which neither the rates nor ``g - xi`` moves more than 1e-7,
    and that refresh mails ``g`` itself.  Returns each tick's prices and
    rates and each refresh's mailed action.
    """
    network = spec.network
    lam = spec.settings.lam
    caps = np.stack([spec.lower_caps, spec.upper_caps], axis=1)
    coeff = spec.cost_params.punishment_coeff
    beta1, beta2 = spec.cost_params.beta1, spec.cost_params.beta2

    def perceived(xi):
        delta = spec.belief[:, 0] * 1.0 * xi[:, 0] + spec.belief[:, 1] * 2.0 * xi[:, 1]
        return spec.weights + delta[network.edge_target]

    xi = None
    weights = spec.weights.copy()
    prices = np.zeros(network.n_sources)
    plan = np.zeros(network.n_edges)
    best, residuals = [], []  # the Anderson memory, oldest first
    price_history, rate_history, actions = [], [], []
    settled = False
    for _ in range(max_ticks):
        for j in range(network.n_sources):
            idx = edges_from(network, j)
            exponent = weights[idx] / lam - 1.0
            shift = np.max(exponent)
            mass = 0.0
            for term in np.exp(exponent - shift):
                mass += term
            prices[j] = max(0.0, lam * (shift + np.log(mass) - np.log(network.capacities[j])))
            plan[idx] = np.exp((weights[idx] - prices[j]) / lam - 1.0)
        price_history.append(prices.copy())
        rate_history.append(plan.copy())

        g = np.empty_like(caps)
        for q in range(network.n_targets):
            idx = edges_into(network, q)
            scale = flow = 0.0
            # the ufunc's pow, as in the library's array code: the scalar
            # ``**`` can differ from it in the last bit
            for penalty, rate in zip(coeff[idx] * plan[idx] ** beta1, plan[idx]):
                scale += penalty
                flow += rate
            for t in (1, 2):
                b = t * flow
                if b <= 0:
                    g[q, t - 1] = caps[q, t - 1]
                else:
                    stationary = np.power(beta2 * scale / b, 1.0 / (1.0 + beta2))
                    g[q, t - 1] = min(max(stationary, PERTURBATION_FLOOR), caps[q, t - 1])
        if xi is None:
            xi = g
        elif max(np.max(np.abs(plan - rate_history[-2])), np.max(np.abs(g - xi))) <= 1e-7:
            xi, settled = g, True
        else:
            f = g - xi
            best.append(g.ravel())
            residuals.append(f.ravel())
            del best[:-6], residuals[:-6]
            step = g
            if len(best) > 1:
                d_g = np.diff(np.array(best).T, axis=1)
                d_f = np.diff(np.array(residuals).T, axis=1)
                gamma = np.linalg.lstsq(d_f, f.ravel(), rcond=None)[0]
                step = g - (d_g @ gamma).reshape(g.shape)
            xi = np.clip(step, PERTURBATION_FLOOR, caps)
        actions.append(xi.copy())
        weights = perceived(xi)
        if settled:
            break
    return price_history, rate_history, actions


def single_edge_spec(lam=3.0):
    net = build_network(["s"], ["t"], [("s", "t")], [1.5])
    return GameSpec(
        network=net,
        weights=np.array([2.0]),
        lower_caps=np.array([1.0]),
        upper_caps=np.array([4.0]),
        cost_params=AdversaryCostParams(np.array([2.0]), 0.5, 0.5),
        belief=uniform_belief(1),
        settings=SolverSettings(lam=lam),
    )


# ---------------------------------------------------------------------------
# agents


def make_agent(capacity=5.0, weights=(1.0, 2.0), price=0.0, lam=3.0):
    w = np.array(weights, dtype=float)
    return SourceAgent(
        capacity=capacity, lam=lam, weights=w, rates=np.zeros(len(w)), price=price,
    )


def test_agent_tick_with_slack_keeps_price_at_zero():
    agent = make_agent(capacity=5.0)
    agent_tick(agent)
    np.testing.assert_allclose(
        agent.rates, np.exp((np.array([1.0, 2.0]) - 0.0) / 3.0 - 1.0), atol=1e-15
    )
    assert agent.price == 0.0


def test_agent_tick_overloaded_fills_its_capacity():
    agent = make_agent(capacity=0.1)
    agent_tick(agent)
    assert agent.price > 0
    assert float(np.sum(agent.rates)) == pytest.approx(0.1, rel=1e-12, abs=0)


def test_agent_tick_is_noop_at_fixed_point():
    # one tick sets the exact price; ticking again with no new weights changes nothing
    for capacity in (2.0, 0.1):
        agent = make_agent(capacity=capacity, weights=(1.0, 2.0))
        agent_tick(agent)
        rates_before, price_before = agent.rates.copy(), agent.price
        agent_tick(agent)
        np.testing.assert_array_equal(agent.rates, rates_before)
        assert agent.price == price_before


@settings(max_examples=100, deadline=None)
@given(
    n_edges=st.integers(1, 400),
    top=st.floats(-10.0, 1000.0),  # the row's largest m/lam
    lam=st.floats(0.01, 10.0),
    log_capacity=st.floats(-5.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_edges=400, top=1000.0, lam=3.0, log_capacity=0.0, seed=0)  # priced, m/lam = 1000
@example(n_edges=400, top=-10.0, lam=3.0, log_capacity=5.0, seed=0)  # slack
def test_agent_one_tick_price_is_the_exact_capacity_price(n_edges, top, lam, log_capacity, seed):
    ratio = top - np.random.default_rng(seed).uniform(0.0, 20.0, n_edges)
    ratio[0] = top
    weights = lam * ratio
    capacity = float(np.exp(log_capacity))
    targets = [f"t{i}" for i in range(n_edges)]
    net = build_network(["s"], targets, [("s", t) for t in targets], [capacity])
    expected = float(row_prices(weights, net.edge_source, net.capacities, lam)[0])
    agent = agent_tick(make_agent(capacity=capacity, weights=weights, lam=lam))
    assert agent.price == pytest.approx(expected, rel=1e-12, abs=0)
    assert np.all(np.isfinite(agent.rates))


def test_agent_applies_delivered_weights():
    agent = make_agent()
    agent_tick(agent, weights=np.array([5.0, 5.0]))
    np.testing.assert_array_equal(agent.weights, [5.0, 5.0])


def test_agent_state_is_strictly_local():
    # locality by interface: an agent carries nothing but its own row,
    # price, capacity and smoothing weight -- no network, no peers
    field_names = {f.name for f in dataclasses.fields(SourceAgent)}
    assert field_names == {"capacity", "lam", "weights", "rates", "price"}


# ---------------------------------------------------------------------------
# schedules


def test_schedule_validation():
    with pytest.raises(ValidationError):
        Schedule(mode="everything-at-once")
    with pytest.raises(ValidationError):
        Schedule(activation=0.0)


def test_schedule_rejects_a_negative_seed():
    # numpy's generator would raise a bare ValueError at the start of the run
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        Schedule(seed=-1)


@pytest.mark.parametrize(
    ("make", "field", "value"),
    [
        (Schedule, "max_ticks", 2.5),
        (Schedule, "max_ticks", True),
        (Schedule, "seed", 1.5),
    ],
)
def test_counts_must_be_integers(make, field, value):
    # a float count would otherwise fail mid-run, from range or default_rng
    with pytest.raises(ValidationError, match=f"{field} must be an integer"):
        make(**{field: value})
    assert getattr(make(**{field: np.int64(3)}), field) == 3


# ---------------------------------------------------------------------------
# runs


def logged_iterates(spec: GameSpec, log: MessageLog, ticks: int):
    """The hub's view after each tick, and the ticks at which any agent sent.

    Per tick, the latest logged price of each source in source order and the
    latest rate of each edge in edge order.  An agent that stays silent keeps
    the values it last sent; one that has never sent reads ``None``.
    """
    source_slot = {sid: i for i, sid in enumerate(spec.network.source_ids)}
    edge_slot = {edge: i for i, edge in enumerate(spec.network.edges)}
    sent: dict[int, list] = {}
    for message in log:
        if message.kind in ("price", "rate"):
            sent.setdefault(message.tick, []).append(message.payload)
    latest_prices = [None] * spec.network.n_sources
    latest_rates = [None] * spec.network.n_edges
    prices, rates = [], []
    for tick in range(1, ticks + 1):
        for payload in sent.get(tick, ()):
            if "price" in payload:
                latest_prices[source_slot[payload["source"]]] = payload["price"]
            else:
                latest_rates[edge_slot[(payload["source"], payload["target"])]] = payload["rate"]
        prices.append(list(latest_prices))
        rates.append(list(latest_rates))
    return prices, rates, sorted(sent)


SYNC_MAX_TICKS = 200


def assert_synchronous_run_matches_reference(spec: GameSpec):
    """A synchronous run, with a tolerance too tiny to meet, equals the reference bit for bit.

    Both stop after the refresh at which the equilibrium loop settles, one
    past its last round, well before ``SYNC_MAX_TICKS``: ``tol`` does not
    set the run's length.  Every tick refreshes, so every tick sends.
    """
    spec = dataclasses.replace(spec, settings=dataclasses.replace(spec.settings, tol=1e-300))
    schedule = Schedule(mode="synchronous", seed=0, max_ticks=SYNC_MAX_TICKS)
    report, log = run_distributed(spec, schedule)
    ref_prices, ref_rates, ref_actions = reference_sync_run(spec, SYNC_MAX_TICKS)
    ticks = report.iterations
    assert not report.converged and ticks == len(ref_prices)
    assert ticks == solve_bayesian_equilibrium(spec).iterations + 1 < SYNC_MAX_TICKS
    prices, rates, sent = logged_iterates(spec, log, ticks)
    assert sent == list(range(1, ticks + 1))
    # the first refresh records no trace row
    assert [row["tick"] for row in report.trace] == sent[1:]
    strategies = [m for m in log if m.kind == "strategy"]
    assert strategies[0].tick == 1
    for tick in range(1, ticks + 1):
        assert prices[tick - 1] == list(ref_prices[tick - 1]), f"price mismatch at tick {tick}"
        assert rates[tick - 1] == list(ref_rates[tick - 1]), f"rate mismatch at tick {tick}"
        action = ref_actions[tick - 1]
        mailed = [(m.payload["minor"], m.payload["major"]) for m in strategies if m.tick == tick]
        assert mailed == list(zip(action[:, 0], action[:, 1])), f"action mismatch at tick {tick}"
        if tick > 1:
            row = report.trace[tick - 2]
            assert (row["xi_minor"], row["xi_major"]) == (
                tuple(action[:, 0]), tuple(action[:, 1])
            ), f"traced action mismatch at tick {tick}"
    assert_replays_exactly(MessageLog.from_text(log.to_text()), report)


@pytest.mark.parametrize("lam", [3.0, 0.3])
def test_synchronous_run_matches_reference_tick_for_tick(paper_spec, lam):
    # at 0.3 the residual grows on some refreshes, and both keep their Anderson history
    assert_synchronous_run_matches_reference(
        dataclasses.replace(paper_spec, settings=SolverSettings(lam=lam))
    )


def test_synchronous_run_on_wide_targets_matches_reference():
    # 9 edges into every target: the refresh's per-target sums see more than
    # 8 terms, where np.sum's pairwise order would move the last bits
    assert_synchronous_run_matches_reference(make_random_spec(np.random.default_rng(20), 9, 3))


def uneven_spec(seed: int) -> GameSpec:
    """A random 6x8 game on a sparse network whose sources have unequal degrees.

    Each source keeps about a third of the targets, and every node keeps at
    least one edge.
    """
    rng = np.random.default_rng(seed)
    keep = rng.random((6, 8)) < 0.35
    keep[rng.integers(6, size=8), np.arange(8)] = True  # every target
    keep[np.arange(6), rng.integers(8, size=6)] = True  # every source
    edges = [(f"s{j}", f"t{q}") for j, q in zip(*np.nonzero(keep))]
    spec = make_random_spec(rng, 6, 8, edges=edges)
    assert len(set(np.bincount(spec.network.edge_source).tolist())) > 1
    return spec


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_synchronous_run_on_uneven_source_degrees_matches_reference(seed):
    # each agent's row is its own block of the canonical edge order, and rows
    # of unequal width make a wrong block offset or slot show
    assert_synchronous_run_matches_reference(uneven_spec(seed))


def test_random_subset_converges_to_centralized(paper_spec):
    central = solve_bayesian_equilibrium(paper_spec)
    schedule = Schedule(mode="random-subset", activation=0.5, seed=42)
    report, _ = run_distributed(paper_spec, schedule)
    assert report.converged
    assert np.max(np.abs(report.plan - central.plan)) <= 1e-3


def test_round_robin_converges_to_centralized(paper_spec):
    central = solve_bayesian_equilibrium(paper_spec)
    report, _ = run_distributed(paper_spec, Schedule(mode="round-robin", seed=3))
    assert report.converged
    assert np.max(np.abs(report.plan - central.plan)) <= 1e-3


def test_single_source_network_matches_centralized():
    spec = single_edge_spec()
    central = solve_bayesian_equilibrium(spec)
    for mode in ("synchronous", "random-subset", "round-robin"):
        report, _ = run_distributed(spec, Schedule(mode=mode, seed=1))
        assert report.converged
        assert np.max(np.abs(report.plan - central.plan)) <= 1e-6


@pytest.mark.parametrize("mode", SCHEDULE_MODES)
def test_paper_game_at_small_lam_settles_under_every_schedule(paper_spec, mode):
    """At ``lam`` 0.3 the hub settles on the loop's profile in 1,099 messages, far below the cap.

    The cap of 3,000 ticks ends a run that cycles after at most 54,001
    messages, so a regression fails fast.
    """
    spec = dataclasses.replace(paper_spec, settings=SolverSettings(lam=0.3))
    report, log = run_distributed(spec, Schedule(mode, max_ticks=3000))
    assert report.converged and len(log) == 1099
    central = solve_bayesian_equilibrium(spec)
    assert np.array_equal(report.plan, central.plan)
    last = report.trace[-1]
    xi = np.column_stack([last["xi_minor"], last["xi_major"]])
    assert np.array_equal(xi, central.strategy)
    gap = exact_nash_gap(spec, report.plan, xi, spec.belief, PERTURBATION_FLOOR, 0.0)
    assert max(gap) <= DEVIATION_TOL
    assert_replays_exactly(MessageLog.from_text(log.to_text()), report)


def first_activations(schedule: Schedule, n: int) -> list[int]:
    """The tick at which each agent first activates, drawn as the scheduler draws."""
    if schedule.mode == "synchronous":
        return [1] * n
    if schedule.mode == "round-robin":
        return list(range(1, n + 1))
    rng = np.random.default_rng(schedule.seed)
    first = [0] * n
    tick = 0
    while 0 in first:
        tick += 1
        for j in np.flatnonzero(rng.random(n) < schedule.activation):
            first[j] = first[j] or tick
    return first


@pytest.mark.parametrize("mode", SCHEDULE_MODES)
@pytest.mark.parametrize("dense", [False, True], ids=["paper", "dense-5x10"])
def test_an_agent_prices_only_at_its_first_activation_or_after_new_weights(
    paper_spec, dense, mode
):
    generate = load_perfbench("generate")
    spec = (
        parse_scenario(generate.scenario_text(generate.dense_pool(5, 10, 7, 1)[0])).game_spec()
        if dense else paper_spec
    )
    sources = spec.network.source_ids
    for seed in (0, 7, 42):
        schedule = Schedule(mode=mode, seed=seed)
        _, log = run_distributed(spec, schedule)
        first_price: dict[str, int] = {}
        new_weights = dict.fromkeys(sources, False)  # since the source's last price
        for message in log:
            if message.kind == "weight":
                new_weights[message.payload["source"]] = True
            elif message.kind == "price":
                sid = message.payload["source"]
                if sid in first_price:
                    assert new_weights[sid], f"{sid} resent its price at tick {message.tick}"
                first_price.setdefault(sid, message.tick)
                new_weights[sid] = False
        assert [first_price[sid] for sid in sources] == first_activations(schedule, len(sources))


def test_price_nonnegative_at_every_tick(paper_spec):
    _, log = run_distributed(paper_spec, Schedule(mode="random-subset", seed=7))
    prices = [m.payload["price"] for m in log if m.kind == "price"]
    assert prices and all(p >= 0.0 for p in prices)


def test_plan_assembles_from_agent_rows(paper_spec):
    report, log = run_distributed(paper_spec, Schedule(mode="random-subset", seed=5))
    last_rate: dict[tuple, float] = {}
    for message in log:
        if message.kind == "rate":
            last_rate[(message.payload["source"], message.payload["target"])] = (
                message.payload["rate"]
            )
    assembled = [last_rate[edge] for edge in paper_spec.network.edges]
    assert assembled == list(report.plan)


# ---------------------------------------------------------------------------
# determinism, logs, replay


def test_same_seed_reproduces_identical_log(paper_spec):
    schedule = Schedule(mode="random-subset", activation=0.5, seed=42)
    report_a, log_a = run_distributed(paper_spec, schedule)
    report_b, log_b = run_distributed(paper_spec, schedule)
    assert log_a == log_b
    assert list(report_a.plan) == list(report_b.plan)
    assert log_a.to_text() == log_b.to_text()


def test_log_serialization_round_trip(paper_spec):
    _, log = run_distributed(paper_spec, Schedule(mode="round-robin", seed=9))
    restored = MessageLog.from_text(log.to_text())
    assert restored == log


def test_replay_reconstructs_report_exactly(paper_spec):
    report, log = run_distributed(paper_spec, Schedule(mode="random-subset", seed=42))
    rebuilt = replay(log)
    assert np.array_equal(rebuilt.plan, report.plan)
    assert np.array_equal(rebuilt.prices, report.prices)
    assert rebuilt.iterations == report.iterations
    assert rebuilt.residual == report.residual
    assert rebuilt.converged == report.converged
    assert rebuilt.trace == report.trace


def test_replay_of_serialized_log(paper_spec):
    report, log = run_distributed(paper_spec, Schedule(mode="random-subset", seed=2))
    rebuilt = replay(MessageLog.from_text(log.to_text()))
    assert np.array_equal(rebuilt.plan, report.plan)
    assert rebuilt.trace == report.trace


def test_replay_rejects_truncated_log(paper_spec):
    _, log = run_distributed(paper_spec, Schedule(mode="random-subset", seed=2))
    truncated = MessageLog.from_text("".join(log.to_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(CorruptLog):
        replay(truncated)


def test_replay_rejects_garbage():
    with pytest.raises(CorruptLog):
        MessageLog.from_text("not json\n")
    with pytest.raises(CorruptLog):
        replay(MessageLog.from_text(""))


def assert_replays_exactly(log, report):
    rebuilt = replay(log)
    assert np.array_equal(rebuilt.plan, report.plan)
    assert np.array_equal(rebuilt.prices, report.prices)
    assert rebuilt.iterations == report.iterations
    assert rebuilt.residual == report.residual
    assert rebuilt.converged == report.converged
    assert rebuilt.trace == report.trace


# ids that JSON must escape, or that would break a hand-rolled encoder
NODE_ID = st.one_of(
    st.integers(-3, 10**6),
    st.text(alphabet='ab9\u00e9\u4e16\U0001f600\\%{}:", _\n', min_size=1, max_size=4),
)


@settings(max_examples=60, deadline=None)
@given(
    sources=st.lists(NODE_ID, min_size=1, max_size=3, unique=True),
    targets=st.lists(NODE_ID, min_size=1, max_size=3, unique=True),
    mode=st.sampled_from(SCHEDULE_MODES),
    seed=st.integers(0, 2**32 - 1),
    max_ticks=st.integers(1, 60),
)
def test_log_text_matches_reference_and_round_trips(sources, targets, mode, seed, max_ticks):
    spec = make_random_spec(np.random.default_rng(seed), len(sources), len(targets))
    net = spec.network
    network = build_network(
        sources, targets,
        [(sources[j], targets[q]) for j, q in zip(net.edge_source, net.edge_target)],
        net.capacities,
    )
    spec = dataclasses.replace(spec, network=network)
    schedule = Schedule(mode=mode, seed=seed, max_ticks=max_ticks)
    report, log = run_distributed(spec, schedule)
    text = log.to_text()
    assert text == reference_log_text(log)
    restored = MessageLog.from_text(text)
    assert restored == log
    assert_replays_exactly(restored, report)


def test_run_stopped_before_its_first_refresh_logs_infinite_residual(paper_spec):
    # round-robin ticks one of the two agents at tick 1, so the hub still waits
    report, log = run_distributed(paper_spec, Schedule(mode="round-robin", max_ticks=1))
    assert not report.converged and report.residual == float("inf") and not report.trace
    text = log.to_text()
    assert text == reference_log_text(log)
    assert text.splitlines()[-1] == (
        '{"kind":"final","payload":{"converged":false,"residual":Infinity,"ticks":1},'
        '"receiver":"hub","sender":"hub","tick":1}'
    )
    assert_replays_exactly(MessageLog.from_text(text), report)


def assert_same_bits(a, b):
    assert np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def test_non_finite_values_are_logged_as_json_constants():
    # exact prices keep every run finite, so the non-finite path is fed by hand
    inf, nan = float("inf"), float("nan")
    log = MessageLog()
    log.append(0, TOPOLOGY, value=(["j"], ["a", "b"], [("j", "a"), ("j", "b")]))
    log.append(0, STRATEGY, 0, 4.0, 6.0)
    log.append(0, STRATEGY, 1, 4.0, 6.0)
    log.append(1, PRICE, 0, inf)
    log.append(1, RATE, 0, inf)
    log.append(1, RATE, 1, nan)
    log.append(2, PRICE, 0, nan)
    log.append(2, RATE, 0, -inf)
    log.append(2, PRICE, 0, -inf)
    log.append(2, WEIGHT, 0, inf)
    log.append(2, WEIGHT, 1, -inf)
    log.append(2, WEIGHT, 0, nan)
    log.append(2, TRACE, 0, nan, -inf)
    log.append(2, FINAL, 0, inf, False)
    text = log.to_text()
    for kind in ("price", "rate", "weight"):
        for constant in ("Infinity", "-Infinity", "NaN"):
            assert re.search(rf'"{kind}":{constant}[,}}]', text), (kind, constant)
    assert text == reference_log_text(log)

    restored = MessageLog.from_text(text)
    assert restored.to_text() == text
    assert restored == log
    assert (restored.topology, restored.ticks, restored.kinds, restored.index, restored.final) == (
        log.topology, log.ticks, log.kinds, log.index, log.final
    )
    assert_same_bits(restored.value, log.value)
    assert_same_bits(restored.value2, log.value2)
    original, rebuilt = replay(log), replay(restored)
    for name in ("plan", "prices"):
        assert_same_bits(getattr(rebuilt, name), getattr(original, name))
    assert (rebuilt.iterations, rebuilt.residual, rebuilt.converged) == (
        original.iterations, original.residual, original.converged
    )
    assert repr(rebuilt.trace) == repr(original.trace)


def test_a_log_holding_nan_equals_its_read_back():
    nan = float("nan")
    log = MessageLog()
    log.append(0, TOPOLOGY, value=(["j"], ["a"], [("j", "a")]))
    log.append(1, RATE, 0, nan)
    log.append(1, FINAL, 0, nan, False)
    restored = MessageLog.from_text(log.to_text())
    assert restored == log
    restored.final = (1, nan, True)
    assert restored != log
    restored.final = (1, 0.5, False)
    assert restored != log
    restored.final = None
    assert restored != log and log != restored
    restored = MessageLog.from_text(log.to_text())
    restored.value[0] = 0.5
    assert restored != log


def overflow_spec():
    # exp(3000/3 - 1) overflows: an unshifted price or rate would be inf
    net = build_network(["j"], ["a", "b"], [("j", "a"), ("j", "b")], [1.0])
    return GameSpec(
        network=net,
        weights=np.array([3000.0, 2990.0]),
        lower_caps=np.array([4.0, 4.0]),
        upper_caps=np.array([6.0, 6.0]),
        cost_params=AdversaryCostParams(np.array([1.0, 1.0]), 0.5, 0.5),
        belief=uniform_belief(2),
        settings=SolverSettings(lam=3.0),
    )


def applied_weights(spec: GameSpec, log: MessageLog) -> np.ndarray:
    """The weights the single agent of ``spec`` held at its last tick, read from the log.

    The agent first holds the adversary-free weights.
    """
    weights = spec.weights.copy()
    last_tick = max(t for t, kind in zip(log.ticks, log.kinds) if kind == PRICE)
    for tick, kind, e, value in zip(log.ticks, log.kinds, log.index, log.value):
        if kind == WEIGHT and tick < last_tick:
            weights[e] = value
    return weights


@pytest.mark.parametrize("mode", SCHEDULE_MODES)
def test_overflow_input_converges_with_the_exact_finite_price(mode):
    spec = overflow_spec()
    central = solve_bayesian_equilibrium(spec)
    report, log = run_distributed(spec, Schedule(mode=mode, seed=1, max_ticks=3000))
    assert report.converged
    price = float(report.prices[0])
    assert np.isfinite(price) and price > 0
    weights = applied_weights(spec, log)
    network = spec.network
    expected = float(row_prices(weights, network.edge_source, network.capacities, spec.settings.lam)[0])
    assert price == pytest.approx(expected, rel=1e-12, abs=0)
    assert np.max(np.abs(report.plan - central.plan)) <= 1e-6
    assert_replays_exactly(MessageLog.from_text(log.to_text()), report)


@pytest.mark.parametrize("mode", ["synchronous", "random-subset"])
def test_source_with_400_edges_converges_to_centralized(mode):
    spec = make_random_spec(np.random.default_rng(400), 1, 400)
    central = solve_bayesian_equilibrium(spec)
    report, _ = run_distributed(spec, Schedule(mode=mode, seed=4, max_ticks=3000))
    assert report.converged
    assert np.max(np.abs(report.plan - central.plan)) <= 1e-6


@pytest.fixture(scope="module")
def paper_log_lines(paper_spec):
    _, log = run_distributed(paper_spec, Schedule(mode="random-subset", seed=2))
    return log.to_text().splitlines()


def _first_rate_line(lines) -> int:
    return next(
        i for i, line in enumerate(lines)
        if line.startswith('{"kind":"rate"') and '"source":"j1"' in line
    )


REJECTED_EDITS = {
    "unknown-source": lambda line: line.replace("j1", "j9"),
    "sender-not-source": lambda line: line.replace('"sender":"src:j1"', '"sender":"src:j2"'),
    "spaces": lambda line: json.dumps(json.loads(line), sort_keys=True),
    "unknown-kind": lambda line: line.replace('"kind":"rate"', '"kind":"gossip"'),
    "malformed-json": lambda line: line[:-1],
    "non-canonical-float": lambda line: line.replace('"rate":', '"rate":0', 1),
    "python-inf": lambda line: re.sub(r'"rate":[^,]+', '"rate":inf', line, count=1),
    "python-nan": lambda line: re.sub(r'"rate":[^,]+', '"rate":nan', line, count=1),
    "python-minus-inf": lambda line: re.sub(r'"rate":[^,]+', '"rate":-inf', line, count=1),
}


@pytest.mark.parametrize("edit", REJECTED_EDITS.values(), ids=REJECTED_EDITS.keys())
def test_reader_rejects_a_non_canonical_line(paper_log_lines, edit):
    lines = list(paper_log_lines)
    i = _first_rate_line(lines)
    assert edit(lines[i]) != lines[i]
    lines[i] = edit(lines[i])
    with pytest.raises(CorruptLog, match=rf"line {i + 1}\b"):
        MessageLog.from_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("edge", ['[3,"q"]', '[true,"q"]', '[1.0,"q"]'])
def test_reader_rejects_a_topology_edge_that_names_no_listed_id(edge):
    # 3 is not a source; true and 1.0 equal the source 1 but are not its text
    log = MessageLog()
    log.append(0, TOPOLOGY, value=([1, 2], ["q"], [(1, "q"), (2, "q")]))
    log.append(1, RATE, 0, 0.5)
    text = log.to_text()
    assert MessageLog.from_text(text) == log
    assert text.count('[1,"q"]') == 1
    with pytest.raises(CorruptLog, match=r"line 1\b"):
        MessageLog.from_text(text.replace('[1,"q"]', edge))


@pytest.mark.parametrize(
    "line",
    ['{"kind":"rate","payload":{"rate":0.5},"receiver":"hub","sender":"hub","tick":0}', "[1]"],
    ids=["a-rate-record", "a-list"],
)
def test_reader_rejects_a_first_line_that_is_not_the_topology(line):
    with pytest.raises(CorruptLog, match=r"^log line 1 is not a topology record$"):
        MessageLog.from_text(line + "\n")


# Edits of a final marker that the final-line pattern still matches.
FINAL_EDITS = {
    "ticks-not-its-tick": lambda line: re.sub(r'"ticks":(\d+)', lambda m: f'"ticks":{int(m[1]) + 1}', line),
    "non-canonical-residual": lambda line: line.replace('"residual":', '"residual":0', 1),
}


@pytest.mark.parametrize("edit", FINAL_EDITS.values(), ids=FINAL_EDITS.keys())
def test_reader_rejects_a_non_canonical_final_marker(paper_log_lines, edit):
    lines = list(paper_log_lines)
    assert lines[-1].startswith('{"kind":"final"') and edit(lines[-1]) != lines[-1]
    lines[-1] = edit(lines[-1])
    with pytest.raises(CorruptLog, match=rf"^log line {len(lines)} is not a canonical record of its topology$"):
        MessageLog.from_text("\n".join(lines) + "\n")


def test_an_empty_log_writes_no_text_and_equals_no_other_type():
    log = MessageLog()
    assert log.to_text() == ""
    assert MessageLog.from_text("") == log
    assert log.__eq__("") is NotImplemented and log != ""


def test_reader_rejects_a_first_line_nested_past_the_decoder_depth():
    with pytest.raises(CorruptLog, match=r"line 1\b.*nests too deeply"):
        MessageLog.from_text("[" * 200_000 + "]" * 200_000 + "\n")


def test_reader_rejects_records_after_the_final_marker(paper_log_lines):
    lines = paper_log_lines + [paper_log_lines[_first_rate_line(paper_log_lines)]]
    with pytest.raises(CorruptLog, match=rf"line {len(lines)}\b"):
        MessageLog.from_text("\n".join(lines) + "\n")


def seed42_log_lines(paper_spec) -> list[str]:
    """The paper run's log at random-subset seed 42: 109 lines, its last refresh at tick 18."""
    _, log = run_distributed(paper_spec, Schedule(mode="random-subset", seed=42))
    lines = log.to_text().splitlines()
    assert len(lines) == 109 and lines[97].startswith('{"kind":"rate"') and lines[97].endswith(':18}')
    return lines


def test_reader_rejects_a_record_whose_tick_goes_back(paper_spec):
    # the tick-18 rate record moved up to line 2; the tick-1 record after it goes back in time
    lines = seed42_log_lines(paper_spec)
    lines.insert(1, lines.pop(97))
    with pytest.raises(CorruptLog, match=r"line 3 goes back in time"):
        MessageLog.from_text("\n".join(lines) + "\n")


def test_reader_rejects_a_final_marker_below_the_last_tick(paper_spec):
    lines = seed42_log_lines(paper_spec)
    assert lines[-1].count(":18") == 2
    lines[-1] = lines[-1].replace(":18", ":3")
    with pytest.raises(CorruptLog, match=r"line 109 goes back in time"):
        MessageLog.from_text("\n".join(lines) + "\n")


def paper_topology_log(rows: int, seed: int = 0) -> MessageLog:
    """A canonical log over the paper's topology with ``rows`` rows, ten a tick.

    Each tick, source j1 and then j2 sends its price and the rates of its
    three edges, one target sends its strategy and the hub a trace row; the
    values are seeded draws.  At 2,000 rows its text spans several of the
    reader's blocks.
    """
    rng = np.random.default_rng(seed)
    log = MessageLog()
    log.append(0, TOPOLOGY, value=(["j1", "j2"], ["q1", "q2", "q3"],
                                   [(s, t) for s in ("j1", "j2") for t in ("q1", "q2", "q3")]))
    for row in range(rows):
        tick, slot = divmod(row, 10)
        value, value2 = rng.lognormal(size=2).tolist()
        j, k = divmod(slot, 4)
        if slot == 8:
            log.append(tick + 1, STRATEGY, tick % 3, value, value2)
        elif slot == 9:
            log.append(tick + 1, TRACE, 0, value, value2)
        elif k == 0:
            log.append(tick + 1, PRICE, j, value)
        else:
            log.append(tick + 1, RATE, 3 * j + k - 1, value)
    log.append(rows // 10 + 1, FINAL, 0, 1e-9, True)
    return log


@pytest.fixture(scope="module")
def multi_block_lines():
    lines = paper_topology_log(2000).to_text().splitlines()
    assert sum(map(len, lines)) > 3 * distributed._BLOCK_CHARS
    return lines


def _first_line_past_the_first_block(lines) -> int:
    """The index of the first line that starts after the reader's first block."""
    offsets = accumulate(len(line) + 1 for line in lines)  # where each next line starts
    return next(i for i, end in enumerate(offsets) if end > distributed._BLOCK_CHARS) + 1


def _first_rate_line_past_the_first_block(lines) -> int:
    past = _first_line_past_the_first_block(lines)
    return past + _first_rate_line(lines[past:])


@pytest.mark.parametrize("edit", REJECTED_EDITS.values(), ids=REJECTED_EDITS.keys())
def test_reader_rejects_a_non_canonical_line_past_the_first_block(multi_block_lines, edit):
    lines = list(multi_block_lines)
    assert MessageLog.from_text("\n".join(lines) + "\n") == paper_topology_log(2000)
    i = _first_rate_line_past_the_first_block(lines)
    lines[i] = edit(lines[i])
    with pytest.raises(CorruptLog, match=rf"line {i + 1}\b"):
        MessageLog.from_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("kind, key", [("strategy", '"major":'), ("trace", '"objective":')])
def test_reader_rejects_a_misspelled_second_value_past_the_first_block(multi_block_lines, kind, key):
    lines = list(multi_block_lines)
    past = _first_line_past_the_first_block(lines)
    i = next(k for k in range(past, len(lines)) if lines[k].startswith(f'{{"kind":"{kind}"'))
    lines[i] = lines[i].replace(key, key + "0", 1)  # a leading zero: the same float, misspelled
    with pytest.raises(CorruptLog, match=rf"line {i + 1}\b"):
        MessageLog.from_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("gap", [1, 3, 1000])
@pytest.mark.parametrize("float_first", [True, False])
def test_reader_names_the_earlier_of_a_float_and_a_structural_fault(
    multi_block_lines, gap, float_first
):
    # a gap of 1000 lines puts the second fault in a later block
    lines = list(multi_block_lines)
    i = _first_rate_line_past_the_first_block(lines)
    bad_float, unknown_kind = REJECTED_EDITS["non-canonical-float"], REJECTED_EDITS["unknown-kind"]
    first, second = (bad_float, unknown_kind) if float_first else (unknown_kind, bad_float)
    j = i + gap + _first_rate_line(lines[i + gap:])
    lines[i], lines[j] = first(lines[i]), second(lines[j])
    with pytest.raises(CorruptLog, match=rf"line {i + 1}\b"):
        MessageLog.from_text("\n".join(lines) + "\n")


# the float spellings at the edges of repr's forms, and the non-finite constants
SPELLINGS = [
    float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e-05, 0.0001, 1e16, 9999999999999998.0,
]


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.tuples(st.sampled_from(SPELLINGS), st.sampled_from(SPELLINGS)), min_size=1, max_size=40
    ),
    block_chars=st.sampled_from([1, 300, distributed._BLOCK_CHARS]),
)
def test_float_spellings_round_trip_across_blocks(values, block_chars):
    # kinds cycle through every row kind; blocks of 1 character hold one line each
    log = MessageLog()
    log.append(0, TOPOLOGY, value=(["j"], ["a", "b"], [("j", "a"), ("j", "b")]))
    for row, (value, value2) in enumerate(values):
        kind = (STRATEGY, PRICE, RATE, WEIGHT, TRACE)[row % 5]
        two = kind in (STRATEGY, TRACE)  # the kinds with a second value
        log.append(row // 5, kind, row % 2 if kind in (STRATEGY, RATE, WEIGHT) else 0, value,
                   value2 if two else 0.0)
    log.append(len(values) // 5, FINAL, 0, values[-1][0], False)
    text = log.to_text()
    with mock.patch.object(distributed, "_BLOCK_CHARS", block_chars):
        restored = MessageLog.from_text(text)
    assert restored.to_text() == text
    assert (restored.topology, restored.ticks, restored.kinds, restored.index) == (
        log.topology, log.ticks, log.kinds, log.index
    )
    assert_same_bits(restored.value, log.value)
    assert_same_bits(restored.value2, log.value2)
    assert_same_bits(restored.final[1], log.final[1])
    if not any(np.isnan(values).ravel()):
        assert restored == log


def test_hub_delivers_each_agent_one_row_per_refresh(monkeypatch):
    spec = dense_pool_specs(5, 10, 7, 1)[0]
    network = spec.network
    delivered = []
    deliver = SourceAgent.deliver

    def recording(agent, weights):
        delivered.append(np.array(weights, copy=True))
        deliver(agent, weights)

    monkeypatch.setattr(SourceAgent, "deliver", recording)
    report, log = run_distributed(spec, Schedule(mode="random-subset", seed=3))
    mailed = {}  # edge -> weight, per refresh
    refreshes = []
    for kind, e, value in zip(log.kinds, log.index, log.value):
        if kind == WEIGHT:
            mailed[e] = value
            if len(mailed) == network.n_edges:
                refreshes.append([mailed.pop(edge) for edge in range(network.n_edges)])
    assert refreshes and len(delivered) == len(refreshes) * network.n_sources
    start = network.row_starts
    for r, weights in enumerate(refreshes):
        for j in range(network.n_sources):
            row = delivered[r * network.n_sources + j]
            assert row.tolist() == weights[start[j]:start[j + 1]]


# tracemalloc peaks, in bytes, on dense_pool(20, 50, 11, 1)[0] at schedule seed
# 3 (18,640 records, 2.5 MB of text) under the per-edge weight delivery and
# the reader that split the whole text and checked each float on its own:
# run_distributed's, and from_text's above what it started from
RUN_PEAK, READ_PEAK = 1_841_132, 5_442_687


def test_run_and_read_peaks_stay_at_or_below_the_per_edge_forms():
    spec = dense_pool_specs(20, 50, 11, 1)[0]
    schedule = Schedule(seed=3)
    run_distributed(spec, schedule)  # imports and caches are not the run's
    tracemalloc.start()
    try:
        _, log = run_distributed(spec, schedule)
        run_peak = tracemalloc.get_traced_memory()[1]
        text = log.to_text()
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        restored = MessageLog.from_text(text)
        read_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert restored == log
    assert len(text) > 30 * distributed._BLOCK_CHARS
    assert run_peak <= RUN_PEAK, f"run_distributed peaked at {run_peak} bytes"
    assert read_peak <= READ_PEAK, f"from_text peaked at {read_peak} bytes"


def test_schedule_independence_of_the_limit(paper_spec):
    central = solve_bayesian_equilibrium(paper_spec)
    plans = []
    for schedule in (
        Schedule(mode="synchronous", seed=0),
        Schedule(mode="random-subset", activation=0.3, seed=11),
        Schedule(mode="random-subset", activation=0.9, seed=12),
        Schedule(mode="round-robin", seed=0),
    ):
        report, _ = run_distributed(paper_spec, schedule)
        assert report.converged
        plans.append(report.plan)
        assert np.max(np.abs(report.plan - central.plan)) <= 1e-3
    spread = np.max(np.abs(np.ptp(np.stack(plans), axis=0)))
    assert spread <= 2e-3


def held_state_at_each_refresh(spec: GameSpec, log: MessageLog):
    """Per refresh, each edge's weight mailed before it, last rate and its source's last price.

    The weights start at the adversary-free ones.  A refresh starts with the
    strategy record of the first target, before it mails any weight.
    """
    mailed = spec.weights.copy()
    rates = np.full(spec.network.n_edges, np.nan)
    prices = np.full(spec.network.n_sources, np.nan)
    states = []
    for kind, i, value in zip(log.kinds, log.index, log.value):
        if kind == WEIGHT:
            mailed[i] = value
        elif kind == RATE:
            rates[i] = value
        elif kind == PRICE:
            prices[i] = value
        elif kind == STRATEGY and i == 0:
            states.append((mailed.copy(), rates.copy(), prices[spec.network.edge_source]))
    return states


@pytest.mark.parametrize("mode", SCHEDULE_MODES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stationarity_term_is_exactly_zero_at_every_refresh(mode, seed):
    """The hub refreshes only once every agent has priced its latest weights.

    So at each refresh every rate the hub holds is ``exp((w - p)/lam - 1)``
    of the last weights mailed to its edge and its source's last price, bit
    for bit.  13 sources make round-robin take 13 ticks per refresh.
    """
    spec = make_random_spec(np.random.default_rng(seed), n_sources=13, n_targets=4)
    report, log = run_distributed(spec, Schedule(mode=mode, seed=seed))
    assert report.converged
    states = held_state_at_each_refresh(spec, log)
    assert len(states) == len(report.trace) + 1 > 2
    for weights, rates, price in states:
        fixed_point = np.exp((weights - price) / spec.settings.lam - 1.0)
        assert np.max(np.abs(rates - fixed_point)) == 0.0


def messages_at_each_refresh(spec: GameSpec, log: MessageLog):
    """Per traced refresh: the last rates and prices sent, the action held and the logged residual.

    The action held is the one the previous refresh mailed.  The first
    refresh holds none and logs no trace record.
    """
    rates = np.full(spec.network.n_edges, np.nan)
    prices = np.full(spec.network.n_sources, np.nan)
    held, mailed = None, np.full((spec.network.n_targets, 2), np.nan)
    states = []
    for kind, i, value, value2 in zip(log.kinds, log.index, log.value, log.value2):
        if kind == RATE:
            rates[i] = value
        elif kind == PRICE:
            prices[i] = value
        elif kind == STRATEGY:
            if i == 0:  # a refresh starts mailing
                held = mailed.copy()
            mailed[i] = (value, value2)
        elif kind == TRACE:
            states.append((rates.copy(), prices.copy(), held, value))
    return states


@pytest.mark.parametrize("mode", SCHEDULE_MODES)
@pytest.mark.parametrize("game", ["paper", "uneven0", "uneven1", "uneven2", "large-capacity"])
def test_residual_follows_from_the_logged_messages(paper_spec, game, mode):
    """Each logged residual is the complementary slackness of the logged prices and rates.

    The stop decision can be rechecked from the log and the spec alone: the
    run ends at the first traced refresh where neither the rates nor ``g -
    xi`` moved more than ``PROFILE_TOL``, ``g`` being the targets' best
    response to the logged rates and ``xi`` the action held.
    """
    if game == "paper":
        spec = paper_spec
    elif game == "large-capacity":
        spec = large_capacity_spec()
    else:
        spec = uneven_spec(int(game[-1]))
    report, log = run_distributed(spec, Schedule(mode=mode, seed=1))
    network = spec.network
    states = messages_at_each_refresh(spec, log)
    assert len(states) == len(report.trace) > 1
    seen = [rates for _, rates, _ in held_state_at_each_refresh(spec, log)]
    settled = []
    for (rates, prices, held, logged), before in zip(states, seen):
        slackness = max(
            abs(min(price, capacity - float(np.sum(rates[network.edge_source == j]))))
            for j, (price, capacity) in enumerate(zip(prices.tolist(), network.capacities.tolist()))
        )
        assert slackness.hex() == logged.hex()
        change = max(float(np.max(np.abs(rates - before))),
                     float(np.max(np.abs(best_response_strategy(spec, rates) - held))))
        settled.append(change <= PROFILE_TOL)
    assert settled == [False] * (len(states) - 1) + [True]


def large_capacity_spec() -> GameSpec:
    """``dense_pool(5, 10, 7, 1)[0]`` with every weight raised by 60 and every capacity x1e8.

    At these capacities float64 cannot meet the default ``tol`` on the
    absolute slack, so the run reaches the targets' fixed point unconverged.
    """
    generate = load_perfbench("generate")
    data = generate.dense_pool(5, 10, 7, 1)[0]
    data["weights"] = [w + 60 for w in data["weights"]]
    data["network"]["capacities"] = [c * 1e8 for c in data["network"]["capacities"]]
    return parse_scenario(generate.scenario_text(data)).game_spec()


@pytest.mark.parametrize(
    ("mode", "ticks"), [("synchronous", 5), ("random-subset", 20), ("round-robin", 25)]
)
def test_a_run_whose_state_stops_changing_ends_unconverged(mode, ticks, caplog):
    # it used to refresh until max_ticks (50,000 ticks) with the same residual;
    # it now settles where the equilibrium loop does, with the slackness above tol
    spec = large_capacity_spec()
    static = solve_bayesian_equilibrium(spec)
    with caplog.at_level("WARNING", logger="advot.distributed"):
        report, log = run_distributed(spec, Schedule(mode=mode, seed=3))
    assert not report.converged and not static.converged
    assert spec.settings.tol < report.residual < 2e-6
    # the settled refresh mails the profile's strategy
    last = report.trace[-1]
    assert (last["xi_minor"], last["xi_major"]) == (
        tuple(static.strategy[:, 0]), tuple(static.strategy[:, 1])
    )
    assert len(report.trace) == static.iterations == 4 and len(log) == 581
    assert report.iterations == ticks
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == [f"distributed run settled at tick {ticks} with slackness "
                        f"{report.residual:.3e} above tol {spec.settings.tol:.3e}"]
    assert_replays_exactly(MessageLog.from_text(log.to_text()), report)


@pytest.mark.parametrize("mode", SCHEDULE_MODES)
def test_large_capacity_residual_bits_are_pinned(mode):
    # rows of 10 edges, where a sum in another order than each row's np.sum
    # moves the slackness that sets this residual (9.5367431640625e-07)
    report, _ = run_distributed(large_capacity_spec(), Schedule(mode=mode, seed=3))
    assert report.residual == float.fromhex("0x1.1p-20")  # 1.0132789611816406e-06


@pytest.mark.parametrize("mode", SCHEDULE_MODES)
def test_non_finite_rates_raise_at_the_hub(paper_spec, mode):
    # at lam = 1e-300 no row can fill its capacity; the run used to cycle
    # for max_ticks with finite prices
    spec = dataclasses.replace(
        paper_spec, settings=dataclasses.replace(paper_spec.settings, lam=1e-300)
    )
    with np.errstate(over="ignore"), pytest.raises(NonFiniteIterate, match="rates"):
        run_distributed(spec, Schedule(mode=mode, seed=1))


def refresh_count(log: MessageLog) -> int:
    """The hub's refreshes: each logs one strategy record per target, first target first."""
    return sum(kind == STRATEGY and i == 0 for kind, i in zip(log.kinds, log.index))


def without_ticks(report) -> list:
    return [{k: v for k, v in row.items() if k != "tick"} for row in report.trace]


@settings(max_examples=40, deadline=None)
@given(
    n_sources=st.integers(1, 6),
    n_targets=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    activation=st.floats(0.05, 1.0),
)
def test_every_schedule_meets_the_same_iterates(n_sources, n_targets, seed, activation):
    # each refresh sees every agent's answer to the last weights: exact Jacobi iterates
    spec = make_random_spec(np.random.default_rng(seed), n_sources, n_targets)
    runs = [
        run_distributed(spec, Schedule(mode=mode, seed=seed, activation=activation))
        for mode in SCHEDULE_MODES
    ]
    (first, first_log), *others = runs
    assert first.converged
    gap = deviation_check(spec, first.plan, best_response_strategy(spec, first.plan))
    assert gap <= DEVIATION_TOL
    # the hub stops where the equilibrium loop does, on the loop's plan
    static = solve_bayesian_equilibrium(spec)
    assert refresh_count(first_log) == static.iterations + 1
    assert_same_bits(first.plan, static.plan)
    assert first.converged == static.converged
    for report, log in others:
        assert_same_bits(report.plan, first.plan)
        assert_same_bits(report.prices, first.prices)
        assert (report.residual, report.converged) == (first.residual, first.converged)
        assert repr(without_ticks(report)) == repr(without_ticks(first))
        assert len(log) == len(first_log)


# ---------------------------------------------------------------------------
# the hub's refreshes are the equilibrium loop's rounds at tau = 0


def dense_pool_specs(n_sources: int, n_targets: int, seed: int, count: int) -> list[GameSpec]:
    generate = load_perfbench("generate")
    return [
        parse_scenario(generate.scenario_text(data)).game_spec()
        for data in generate.dense_pool(n_sources, n_targets, seed, count)
    ]


@pytest.mark.parametrize("mode", SCHEDULE_MODES)
@pytest.mark.parametrize(
    "game", ["paper", "uneven0", "uneven1", "uneven2", "dense0", "dense1", "dense20x50"]
)
def test_each_refresh_sees_the_plan_of_the_loop_round_before(paper_spec, game, mode):
    """Refresh ``k + 1`` sees the rates of the static loop's round ``k``, bit for bit.

    The first refresh sees the adversary-free plan the loop starts from, and
    mails the loop's first trial action, the targets' best response to it.
    Every later refresh takes the loop's clipped Anderson step and stops by
    the loop's rule, so the hub refreshes once per round and once more, ends
    on the loop's plan and mails the profile's strategy last.
    """
    if game == "paper":
        spec = paper_spec
    elif game == "dense20x50":
        spec = dense_pool_specs(20, 50, 11, 2)[1]
    elif game.startswith("dense"):
        spec = dense_pool_specs(5, 10, 7, 2)[int(game[-1])]
    else:
        spec = uneven_spec(int(game[-1]))
    static = solve_bayesian_equilibrium(spec)
    report, log = run_distributed(spec, Schedule(mode=mode, seed=1))
    assert report.converged and static.converged
    seen = [rates for _, rates, _ in held_state_at_each_refresh(spec, log)]
    base = solve_regularized_ot(spec.network, spec.weights, spec.settings).plan
    assert np.array_equal(seen[0], base)
    mailed = [(m.payload["minor"], m.payload["major"]) for m in log if m.kind == "strategy"]
    n_targets = spec.network.n_targets
    assert np.array_equal(mailed[:n_targets], best_response_strategy(spec, base))
    assert len(seen) == len(static.trace) + 1 == static.iterations + 1 >= 5
    for k in range(1, len(seen)):
        assert np.array_equal(seen[k], static.trace[k - 1]["plan"]), f"refresh {k + 1}"
    assert_same_bits(report.plan, static.plan)
    assert_same_bits(mailed[-n_targets:], static.strategy)


# refreshes per game of dense_pool(5, 10, 7, 4), the distributed-5x10 pool of
# the benchmark, at schedule seed 3; the hub started at the caps took 9, 8, 8, 8
DENSE_POOL_REFRESHES = [7, 7, 7, 7]


@pytest.mark.parametrize("mode", SCHEDULE_MODES)
def test_benchmark_pool_refresh_counts_are_pinned(mode):
    refreshes = []
    for spec in dense_pool_specs(5, 10, 7, 4):
        report, log = run_distributed(spec, Schedule(mode=mode, seed=3))
        assert report.converged
        assert_replays_exactly(MessageLog.from_text(log.to_text()), report)
        refreshes.append(refresh_count(log))
        assert refreshes[-1] == len(report.trace) + 1
    assert refreshes == DENSE_POOL_REFRESHES
