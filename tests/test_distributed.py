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
    PERTURBATION_FLOOR,
    Schedule,
    SolverSettings,
    SourceAgent,
    ValidationError,
    build_network,
    capacity_prices,
    effective_weights,
    replay,
    run_distributed,
    solve_bayesian_equilibrium,
    uniform_belief,
)
from advot.distributed import FINAL, PRICE, RATE, SCHEDULE_MODES, STRATEGY, TOPOLOGY, TRACE, WEIGHT
from conftest import make_random_spec
from oracles import agent_tick, reference_log_text


def reference_sync_run(spec: GameSpec, max_ticks: int, refresh_every: int):
    """Plain all-rows numpy loop mirroring the synchronous protocol.

    Written independently of the agent/scheduler machinery: dense arrays,
    explicit per-row updates, periodic per-node action refresh.
    """
    network = spec.network
    lam = spec.settings.lam
    caps = np.stack([spec.lower_caps, spec.upper_caps], axis=1)
    beta1, beta2 = spec.cost_params.beta1, spec.cost_params.beta2
    xi = caps.copy()
    delta = spec.belief[:, 0] * 1.0 * xi[:, 0] + spec.belief[:, 1] * 2.0 * xi[:, 1]
    weights = spec.weights + delta[network.edge_target]
    prices = np.zeros(network.n_sources)
    plan = np.zeros(network.n_edges)
    price_history, rate_history = [], []
    for tick in range(1, max_ticks + 1):
        for j in range(network.n_sources):
            idx = network.edges_from(j)
            exponent = weights[idx] / lam - 1.0
            shift = np.max(exponent)
            mass = np.sum(np.exp(exponent - shift))
            prices[j] = max(0.0, lam * (shift + np.log(mass) - np.log(network.capacities[j])))
            plan[idx] = np.exp((weights[idx] - prices[j]) / lam - 1.0)
        price_history.append(prices.copy())
        rate_history.append(plan.copy())
        if tick % refresh_every == 0:
            for q in range(network.n_targets):
                idx = network.edges_into(q)
                seen = plan[idx]
                scale = float(np.sum(spec.cost_params.punishment_coeff[idx] * seen ** beta1))
                flow = float(np.sum(seen))
                for t in (1, 2):
                    b = t * flow
                    if b <= 0:
                        xi[q, t - 1] = caps[q, t - 1]
                    else:
                        # the ufunc's pow, as in the library's array code: the
                        # scalar ``**`` can differ from it in the last bit
                        stationary = np.power(beta2 * scale / b, 1.0 / (1.0 + beta2))
                        xi[q, t - 1] = min(max(stationary, PERTURBATION_FLOOR), caps[q, t - 1])
                node_delta = float(
                    spec.belief[q, 0] * 1.0 * xi[q, 0] + spec.belief[q, 1] * 2.0 * xi[q, 1]
                )
                for e in idx:
                    weights[e] = float(spec.weights[e] + node_delta)
    return price_history, rate_history


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
    expected = float(capacity_prices(net, weights, lam)[0])
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


# ---------------------------------------------------------------------------
# runs


def logged_iterates(spec: GameSpec, log: MessageLog, ticks: int):
    """Per tick, the logged prices in source order and rates in edge order."""
    prices_by_tick: dict[int, dict[str, float]] = {}
    rates_by_tick: dict[int, dict[tuple, float]] = {}
    for message in log:
        if message.kind == "price":
            prices_by_tick.setdefault(message.tick, {})[message.payload["source"]] = (
                message.payload["price"]
            )
        elif message.kind == "rate":
            key = (message.payload["source"], message.payload["target"])
            rates_by_tick.setdefault(message.tick, {})[key] = message.payload["rate"]
    prices = [
        [prices_by_tick[tick][sid] for sid in spec.network.source_ids]
        for tick in range(1, ticks + 1)
    ]
    rates = [
        [rates_by_tick[tick][edge] for edge in spec.network.edges]
        for tick in range(1, ticks + 1)
    ]
    return prices, rates


def synchronous_run(spec: GameSpec, ticks: int):
    """A synchronous run of ``ticks`` ticks, with a tolerance too tiny to stop it early."""
    spec = dataclasses.replace(spec, settings=dataclasses.replace(spec.settings, tol=1e-300))
    schedule = Schedule(mode="synchronous", seed=0, max_ticks=ticks, refresh_every=10)
    report, log = run_distributed(spec, schedule)
    assert report.iterations == ticks
    return spec, report, log


def test_synchronous_run_matches_reference_tick_for_tick(paper_spec):
    ticks = 120
    spec, _, log = synchronous_run(paper_spec, ticks)
    ref_prices, ref_rates = reference_sync_run(spec, ticks, 10)
    prices, rates = logged_iterates(spec, log, ticks)
    for tick in range(1, ticks + 1):
        assert prices[tick - 1] == list(ref_prices[tick - 1]), f"price mismatch at tick {tick}"
        assert rates[tick - 1] == list(ref_rates[tick - 1]), f"rate mismatch at tick {tick}"


def test_synchronous_run_on_wide_targets_matches_reference():
    # 9 edges into every target: the refresh's per-target sums see more
    # than 8 terms, where summation order can move the last bits
    ticks = 120
    wide = make_random_spec(np.random.default_rng(20), 9, 3)
    spec, report, log = synchronous_run(wide, ticks)
    ref_prices, ref_rates = reference_sync_run(spec, ticks, 10)
    prices, rates = logged_iterates(spec, log, ticks)
    np.testing.assert_allclose(prices, ref_prices, rtol=1e-12, atol=0)
    np.testing.assert_allclose(rates, ref_rates, rtol=1e-12, atol=0)
    assert_replays_exactly(log, report)
    assert_replays_exactly(MessageLog.from_text(log.to_text()), report)


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
    refresh_every=st.integers(1, 12),
)
def test_log_text_matches_reference_and_round_trips(
    sources, targets, mode, seed, max_ticks, refresh_every
):
    spec = make_random_spec(np.random.default_rng(seed), len(sources), len(targets))
    net = spec.network
    network = build_network(
        sources, targets,
        [(sources[j], targets[q]) for j, q in zip(net.edge_source, net.edge_target)],
        net.capacities,
    )
    spec = dataclasses.replace(spec, network=network)
    schedule = Schedule(mode=mode, seed=seed, max_ticks=max_ticks, refresh_every=refresh_every)
    report, log = run_distributed(spec, schedule)
    text = log.to_text()
    assert text == reference_log_text(log)
    restored = MessageLog.from_text(text)
    assert restored == log
    assert_replays_exactly(restored, report)


def test_run_stopped_before_its_first_refresh_logs_infinite_residual(paper_spec):
    report, log = run_distributed(paper_spec, Schedule(seed=3, max_ticks=4, refresh_every=10))
    assert not report.converged and report.residual == float("inf")
    text = log.to_text()
    assert text == reference_log_text(log)
    assert text.splitlines()[-1] == (
        '{"kind":"final","payload":{"converged":false,"residual":Infinity,"ticks":4},'
        '"receiver":"hub","sender":"hub","tick":4}'
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
    weights = effective_weights(spec.network, spec.weights, caps, spec.belief)
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
    expected = float(capacity_prices(spec.network, applied_weights(spec, log), spec.settings.lam)[0])
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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_first_refresh_residual_is_the_unticked_agents_stationarity_term(seed):
    """With more sources than ``refresh_every``, round-robin leaves agents unticked.

    Such an agent has rates 0 and price 0, so its stationarity term is
    ``max exp(w/lam - 1)`` over its row of the starting effective weights.
    The term is not 0, and it is what the first refresh logs.
    """
    spec = make_random_spec(np.random.default_rng(seed), n_sources=13, n_targets=4)
    schedule = Schedule(mode="round-robin", seed=seed, refresh_every=10)
    report, _ = run_distributed(spec, schedule)
    network = spec.network
    weights = effective_weights(network, spec.weights, spec.caps(), spec.belief)
    unticked = np.isin(network.edge_source, np.arange(schedule.refresh_every, network.n_sources))
    term = float(np.max(np.exp(weights[unticked] / spec.settings.lam - 1.0)))
    first = report.trace[0]
    assert first["tick"] == schedule.refresh_every
    assert term > 1.0
    assert first["residual"] == term
