from __future__ import annotations

import dataclasses
import json
import re

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
from advot.distributed import FINAL, PRICE, RATE, SCHEDULE_MODES, STRATEGY, TOPOLOGY, TRACE, WEIGHT
from advot.static_game import DEVIATION_TOL, _perceived
from advot.transport import row_prices
from conftest import load_perfbench, make_random_spec
from oracles import agent_tick, edges_from, edges_into, reference_log_text


def reference_sync_run(spec: GameSpec, max_ticks: int):
    """Plain all-rows numpy loop mirroring the synchronous protocol.

    Written independently of the agent/scheduler machinery: dense arrays and
    explicit per-row and per-target updates.  Under the synchronous schedule
    every agent prices its weights at each tick, so the hub refreshes after
    every tick: each target's best response ``g`` to the rates, then a
    type-II Anderson step (memory 5, history cleared when ``|f|`` grows) on
    ``f = g - xi``, clipped into the caps.  Sums add one term at a time in
    edge order, as ``np.bincount`` does.  The loop stops after the refresh
    at which ``g`` equals ``xi``; with ``tol`` below every nonzero residual
    that is where the run stops too.  Returns each tick's prices and rates
    and each refresh's mailed action.
    """
    network = spec.network
    lam = spec.settings.lam
    caps = np.stack([spec.lower_caps, spec.upper_caps], axis=1)
    coeff = spec.cost_params.punishment_coeff
    beta1, beta2 = spec.cost_params.beta1, spec.cost_params.beta2

    def perceived(xi):
        delta = spec.belief[:, 0] * 1.0 * xi[:, 0] + spec.belief[:, 1] * 2.0 * xi[:, 1]
        return spec.weights + delta[network.edge_target]

    xi = caps.copy()
    weights = perceived(xi)
    prices = np.zeros(network.n_sources)
    plan = np.zeros(network.n_edges)
    best, residuals = [], []  # the Anderson memory, oldest first
    price_history, rate_history, actions = [], [], []
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

        g = np.empty_like(xi)
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
        f = g - xi
        if residuals and np.linalg.norm(f) > np.linalg.norm(residuals[-1]):
            best.clear()
            residuals.clear()
        best.append(g.ravel())
        residuals.append(f.ravel())
        del best[:-6], residuals[:-6]
        step = g
        if len(best) > 1:
            d_g = np.diff(np.array(best).T, axis=1)
            d_f = np.diff(np.array(residuals).T, axis=1)
            gamma = np.linalg.lstsq(d_f, f.ravel(), rcond=None)[0]
            step = g - (d_g @ gamma).reshape(g.shape)
        stalled = np.array_equal(g, xi)
        xi = np.clip(step, PERTURBATION_FLOOR, caps)
        actions.append(xi.copy())
        weights = perceived(xi)
        if stalled:
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
    # price, capacity, smoothing weight and inbox -- no network, no peers
    field_names = {f.name for f in dataclasses.fields(SourceAgent)}
    assert field_names == {"capacity", "lam", "weights", "rates", "price", "inbox"}


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

    Both stop where the targets' best response equals the action held, or
    at ``SYNC_MAX_TICKS``; every tick refreshes, so every tick sends.
    """
    spec = dataclasses.replace(spec, settings=dataclasses.replace(spec.settings, tol=1e-300))
    schedule = Schedule(mode="synchronous", seed=0, max_ticks=SYNC_MAX_TICKS)
    report, log = run_distributed(spec, schedule)
    ref_prices, ref_rates, ref_actions = reference_sync_run(spec, SYNC_MAX_TICKS)
    ticks = report.iterations
    assert not report.converged and ticks == len(ref_prices)
    prices, rates, sent = logged_iterates(spec, log, ticks)
    assert sent == list(range(1, ticks + 1))
    assert [row["tick"] for row in report.trace] == sent
    for tick in range(1, ticks + 1):
        assert prices[tick - 1] == list(ref_prices[tick - 1]), f"price mismatch at tick {tick}"
        assert rates[tick - 1] == list(ref_rates[tick - 1]), f"rate mismatch at tick {tick}"
        row, action = report.trace[tick - 1], ref_actions[tick - 1]
        assert (row["xi_minor"], row["xi_major"]) == (
            tuple(action[:, 0]), tuple(action[:, 1])
        ), f"action mismatch at tick {tick}"
    assert_replays_exactly(MessageLog.from_text(log.to_text()), report)


def test_synchronous_run_matches_reference_tick_for_tick(paper_spec):
    assert_synchronous_run_matches_reference(paper_spec)


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
    """The weights the single agent of ``spec`` held at its last tick, read from the log."""
    caps = spec.caps()
    weights = _perceived(spec.network, spec.weights, caps, spec.belief)
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


def test_reader_rejects_records_after_the_final_marker(paper_log_lines):
    lines = paper_log_lines + [paper_log_lines[_first_rate_line(paper_log_lines)]]
    with pytest.raises(CorruptLog, match=rf"line {len(lines)}\b"):
        MessageLog.from_text("\n".join(lines) + "\n")


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

    The weights start at those of the caps.
    """
    held = _perceived(spec.network, spec.weights, spec.caps(), spec.belief)
    mailed = held.copy()
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
        elif kind == TRACE:
            states.append((held, rates.copy(), prices[spec.network.edge_source]))
            held = mailed.copy()
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
    assert len(states) == len(report.trace) > 1
    for weights, rates, price in states:
        fixed_point = np.exp((weights - price) / spec.settings.lam - 1.0)
        assert np.max(np.abs(rates - fixed_point)) == 0.0


def messages_at_each_refresh(spec: GameSpec, log: MessageLog):
    """Per refresh: the last rates and prices sent, the action held and the logged residual.

    The action held is the one the previous refresh mailed, the caps before
    the first.
    """
    rates = np.full(spec.network.n_edges, np.nan)
    prices = np.full(spec.network.n_sources, np.nan)
    held, mailed = spec.caps(), spec.caps()
    states = []
    for kind, i, value, value2 in zip(log.kinds, log.index, log.value, log.value2):
        if kind == RATE:
            rates[i] = value
        elif kind == PRICE:
            prices[i] = value
        elif kind == STRATEGY:
            mailed[i] = (value, value2)
        elif kind == TRACE:
            states.append((rates.copy(), prices.copy(), held, value))
            held = mailed.copy()
    return states


@pytest.mark.parametrize("mode", SCHEDULE_MODES)
@pytest.mark.parametrize("game", ["paper", "uneven0", "uneven1", "uneven2", "large-capacity"])
def test_residual_follows_from_the_logged_messages(paper_spec, game, mode):
    """Each logged residual is the slackness of the logged prices and rates and max|g - xi|.

    ``g`` is the targets' best response to the logged rates, so the stop
    decision can be rechecked from the log and the spec alone.  On the
    large-capacity input the slackness is the larger term.
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
    for rates, prices, held, logged in states:
        slackness = max(
            abs(min(price, capacity - float(np.sum(rates[network.edge_source == j]))))
            for j, (price, capacity) in enumerate(zip(prices.tolist(), network.capacities.tolist()))
        )
        action_change = float(np.max(np.abs(best_response_strategy(spec, rates) - held)))
        assert max(slackness, action_change).hex() == logged.hex()


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
    ("mode", "ticks"), [("synchronous", 7), ("random-subset", 27), ("round-robin", 35)]
)
def test_a_run_whose_state_stops_changing_ends_unconverged(mode, ticks, caplog):
    # it used to refresh until max_ticks (50,000 ticks) with the same residual
    spec = large_capacity_spec()
    with caplog.at_level("WARNING", logger="advot.distributed"):
        report, log = run_distributed(spec, Schedule(mode=mode, seed=3))
    assert not report.converged
    assert spec.settings.tol < report.residual < 2e-6
    last, before = report.trace[-1], report.trace[-2]
    # the mailed action repeats the one held, so every later tick would repeat the state
    assert (last["xi_minor"], last["xi_major"]) == (before["xi_minor"], before["xi_major"])
    assert len(report.trace) == 7 and len(log) == 824
    assert report.iterations == ticks
    assert any("stalled" in r.getMessage() and r.levelname == "WARNING" for r in caplog.records)
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
    for report, log in others:
        assert_same_bits(report.plan, first.plan)
        assert_same_bits(report.prices, first.prices)
        assert (report.residual, report.converged) == (first.residual, first.converged)
        assert repr(without_ticks(report)) == repr(without_ticks(first))
        assert len(log) == len(first_log)
