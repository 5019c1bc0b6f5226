from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from advot import (
    DimensionMismatch,
    NonFiniteIterate,
    SolverSettings,
    ValidationError,
    ZeroLambda,
    build_network,
    planner_objective,
    primal_update,
    solve_regularized_ot,
    unregularized_solve,
)
from advot.transport import row_prices
from conftest import all_edges
from oracles import edges_from, lp_plan, slsqp_regularized_plan

E_INV = 0.36787944117144233  # exp(-1)


def one_edge_network(capacity=10.0):
    return build_network(["s"], ["t"], [("s", "t")], [capacity])


# ---------------------------------------------------------------------------
# primal update


def test_primal_update_stationary_point():
    net = one_edge_network()
    x = primal_update(net, np.zeros(1), np.zeros(1), lam=1.0)
    assert x[0] == pytest.approx(E_INV, abs=1e-12)


def test_primal_update_cancellation():
    net = one_edge_network()
    x = primal_update(net, np.array([1.0]), np.array([1.0]), lam=3.0)
    assert x[0] == pytest.approx(E_INV, abs=1e-12)


def test_primal_update_paper_row():
    # row weights (1, 3, 5) priced at 2 with lam=3; evaluated independently
    # at high precision beforehand
    net = build_network(["s"], ["a", "b", "c"], all_edges(["s"], ["a", "b", "c"]), [4.0])
    x = primal_update(net, np.array([1.0, 3.0, 5.0]), np.array([2.0]), lam=3.0)
    np.testing.assert_allclose(
        x, [0.263597138115727, 0.513417119032592, 1.0], atol=1e-12
    )


def test_primal_update_rejects_zero_lambda():
    net = one_edge_network()
    with pytest.raises(ZeroLambda):
        primal_update(net, np.zeros(1), np.zeros(1), lam=0.0)


# ---------------------------------------------------------------------------
# exact capacity prices


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        # (edges leaving the source, level of m/lam on them)
        st.tuples(st.integers(1, 400), st.floats(-10.0, 1000.0)), min_size=1, max_size=4
    ),
    spread=st.floats(0.0, 20.0),
    lam=st.floats(0.05, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=[(1, 999.0)], spread=0.0, lam=3.0, seed=0)  # single edge, overflow range
@example(rows=[(1, -5.0), (400, -10.0)], spread=0.0, lam=1.0, seed=0)  # slack sources
@example(rows=[(400, 1000.0), (1, 0.0)], spread=20.0, lam=3.0, seed=1)  # mixed
def test_capacity_prices_satisfy_kkt(rows, spread, lam, seed):
    rng = np.random.default_rng(seed)
    degrees = [degree for degree, _ in rows]
    sources = [f"s{j}" for j in range(len(rows))]
    targets = [f"t{q}" for q in range(max(degrees))]
    edges = [(sources[j], targets[q]) for j, degree in enumerate(degrees) for q in range(degree)]
    net = build_network(sources, targets, edges, 10.0 ** rng.uniform(-2.0, 2.0, len(rows)))
    level = np.repeat([level for _, level in rows], degrees)
    weights = lam * (level + spread * rng.uniform(-1.0, 1.0, net.n_edges))

    prices = row_prices(weights, net.edge_source, net.capacities, lam)
    assert np.all(np.isfinite(prices))
    assert np.all(prices >= 0)
    plan = primal_update(net, weights, prices, lam)
    slack = net.capacities - net.row_sums(plan)
    assert np.all(slack >= -1e-12 * net.capacities)
    # complementary slackness: a priced source ships its whole capacity
    priced = prices > 0
    assert np.all(np.abs(slack[priced]) <= 1e-12 * net.capacities[priced])


def test_capacity_prices_single_edge_closed_form():
    # exp(-p - 1) = 0.1  =>  p = -1 - ln(0.1); a capacity of 10 is slack
    one_edge = one_edge_network().edge_source
    np.testing.assert_allclose(
        row_prices(np.zeros(1), one_edge, np.array([0.1]), 1.0), [1.3025850929940457], rtol=1e-15
    )
    assert row_prices(np.zeros(1), one_edge, np.array([10.0]), 1.0)[0] == 0.0


def test_solve_rejects_zero_lambda():
    with pytest.raises(ZeroLambda):
        solve_regularized_ot(one_edge_network(), np.zeros(1), SolverSettings(lam=0.0))


# ---------------------------------------------------------------------------
# regularized solve


def test_solve_1x1_capacity_slack():
    net = one_edge_network(capacity=10.0)
    report = solve_regularized_ot(net, np.zeros(1), SolverSettings(lam=1.0))
    assert report.converged
    assert report.plan[0] == pytest.approx(E_INV, abs=1e-8)
    assert report.prices[0] == 0.0


def test_solve_1x1_capacity_binding():
    net = one_edge_network(capacity=0.1)
    report = solve_regularized_ot(net, np.zeros(1), SolverSettings(lam=1.0))
    assert report.converged
    assert report.plan[0] == pytest.approx(0.1, abs=1e-7)
    # closed form: exp(-p - 1) = 0.1  =>  p = -1 - ln(0.1)
    assert report.prices[0] == pytest.approx(1.3025850929940457, abs=1e-6)


def test_solve_paper_scenario_matches_oracle(paper_network, paper_edge_weights):
    report = solve_regularized_ot(paper_network, paper_edge_weights, SolverSettings())
    assert report.converged
    oracle = slsqp_regularized_plan(paper_network, paper_edge_weights, 3.0)
    np.testing.assert_allclose(report.plan, oracle, atol=1e-4)


def test_solve_kkt_conditions(paper_network, paper_edge_weights):
    settings = SolverSettings()
    report = solve_regularized_ot(paper_network, paper_edge_weights, settings)
    lam, tol = settings.lam, settings.tol
    # stationarity: m - lam*(1 + log x) - p_j vanishes on every edge
    stationarity = (
        paper_edge_weights
        - lam * (1.0 + np.log(report.plan))
        - report.prices[paper_network.edge_source]
    )
    assert np.max(np.abs(stationarity)) <= 10 * tol
    # complementary slackness
    slack = paper_network.capacities - paper_network.row_sums(report.plan)
    assert np.max(report.prices * slack) <= 10 * tol
    # primal feasibility and interiority
    assert np.all(slack >= -tol)
    assert np.all(report.plan > 0)


def test_solve_objective_matches_oracle_in_one_iteration(paper_network, paper_edge_weights):
    # started from the exact prices, the trace holds the one checking step
    report = solve_regularized_ot(paper_network, paper_edge_weights, record_trace=True)
    assert report.iterations == 1
    (row,) = report.trace
    assert row["objective"] == pytest.approx(
        planner_objective(report.plan, paper_edge_weights, 3.0), abs=1e-6
    )
    oracle = slsqp_regularized_plan(paper_network, paper_edge_weights, 3.0)
    assert row["objective"] == pytest.approx(
        planner_objective(oracle, paper_edge_weights, 3.0), abs=1e-6
    )


def test_solve_reports_not_converged_below_the_exact_residual(paper_network, paper_edge_weights):
    # the exact prices leave a residual of rounding size, which tol = 1e-300 is below
    exact = solve_regularized_ot(paper_network, paper_edge_weights)
    report = solve_regularized_ot(paper_network, paper_edge_weights, SolverSettings(tol=1e-300))
    assert not report.converged
    assert report.iterations == 1
    assert report.residual == exact.residual > 1e-300
    np.testing.assert_array_equal(report.plan, exact.plan)
    np.testing.assert_array_equal(report.prices, exact.prices)


@pytest.mark.parametrize(
    ("settings_", "converged"),
    [(SolverSettings(), True), (SolverSettings(tol=1e-300), False)],
    ids=["exact-start", "below-residual"],
)
def test_solve_computes_one_plan_per_iteration(
    monkeypatch, paper_network, paper_edge_weights, settings_, converged
):
    import advot.transport

    calls = []

    def counting(*args):
        calls.append(1)
        return primal_update(*args)

    monkeypatch.setattr(advot.transport, "primal_update", counting)
    report = solve_regularized_ot(paper_network, paper_edge_weights, settings_)
    assert report.converged is converged
    assert len(calls) == report.iterations


def test_solve_refuses_non_finite_prices():
    # m/lam is about 3e303: the exact price rounds, and the plan overflows at once
    net = build_network(["j"], ["a", "b"], [("j", "a"), ("j", "b")], [1.0])
    with np.errstate(over="ignore"), pytest.raises(NonFiniteIterate) as excinfo:
        solve_regularized_ot(net, np.array([3000.0, 2990.0]), SolverSettings(lam=1e-300))
    assert excinfo.value.iteration == 1


def test_solve_refuses_nan_prices_before_the_primal_update():
    # m/lam overflows to inf, so the log-space prices are NaN: still the solve's own error
    net = build_network(["j"], ["a", "b"], [("j", "a"), ("j", "b")], [1.0])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteIterate) as excinfo:
        solve_regularized_ot(net, np.array([3000.0, 2990.0]), SolverSettings(lam=1e-306))
    assert excinfo.value.iteration == 1


def test_primal_update_rejects_non_finite_prices():
    # unchecked, NaN prices gave an all-NaN plan
    net = build_network(["j"], ["a", "b"], [("j", "a"), ("j", "b")], [1.0])
    with pytest.raises(ValidationError, match="prices must be finite"):
        primal_update(net, np.array([1.0, 2.0]), np.array([np.nan]), lam=3.0)


def test_solve_overflow_input_converges_with_the_exact_price():
    # m/lam is about 1000: the unpriced plan exp(m/lam - 1) overflows
    net = build_network(["j"], ["a", "b"], [("j", "a"), ("j", "b")], [1.0])
    weights = np.array([3000.0, 2990.0])
    report = solve_regularized_ot(net, weights, SolverSettings(lam=3.0))
    assert report.converged and report.iterations == 1
    assert np.isfinite(report.prices[0])
    assert report.prices[0] == pytest.approx(row_prices(weights, net.edge_source, net.capacities, 3.0)[0], rel=1e-12, abs=0)
    assert net.row_sums(report.plan)[0] == pytest.approx(1.0, abs=1e-12)


def test_solve_converges_on_a_source_with_400_edges():
    # from zero prices the default step ran 50,000 iterations unconverged here
    targets = [f"t{q}" for q in range(400)]
    net = build_network(["s"], targets, [("s", t) for t in targets], [200.0])
    weights = np.random.default_rng(3).uniform(1.0, 5.0, 400)
    settings = SolverSettings()
    report = solve_regularized_ot(net, weights, settings)
    assert report.converged
    assert report.residual <= settings.tol
    lam, tol = settings.lam, settings.tol
    stationarity = weights - lam * (1.0 + np.log(report.plan)) - report.prices[0]
    assert np.max(np.abs(stationarity)) <= tol
    slack = net.capacities - net.row_sums(report.plan)
    assert np.all(slack >= -tol)
    assert np.max(np.abs(report.prices * slack)) <= tol


@settings(max_examples=100, deadline=None)
@given(
    n_edges=st.integers(1, 400),
    top=st.floats(-10.0, 1000.0),  # the row's largest m/lam
    lam=st.floats(0.01, 10.0),
    capacity=st.floats(0.1, 500.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_edges=400, top=1000.0, lam=3.0, capacity=0.1, seed=0)  # priced, m/lam = 1000
@example(n_edges=400, top=-10.0, lam=3.0, capacity=500.0, seed=0)  # slack
def test_solve_is_the_exact_price_plan_in_one_iteration(n_edges, top, lam, capacity, seed):
    ratio = top - np.random.default_rng(seed).uniform(0.0, 20.0, n_edges)
    ratio[0] = top
    weights = lam * ratio
    targets = [f"t{q}" for q in range(n_edges)]
    net = build_network(["s"], targets, [("s", t) for t in targets], [capacity])
    report = solve_regularized_ot(net, weights, SolverSettings(lam=lam))
    assert report.converged and report.iterations == 1
    prices = row_prices(weights, net.edge_source, net.capacities, lam)
    exact = primal_update(net, weights, prices, lam)
    np.testing.assert_array_equal(report.plan, exact)


def test_solver_matches_oracle_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(12):
        n, m = rng.choice([1, 2]), rng.choice([1, 2])
        sources = [f"s{i}" for i in range(n)]
        targets = [f"t{i}" for i in range(m)]
        net = build_network(
            sources, targets, all_edges(sources, targets), rng.uniform(0.5, 5.0, n)
        )
        weights = rng.uniform(0.0, 5.0, net.n_edges)
        for lam in (0.5, 1.0, 3.0):
            report = solve_regularized_ot(net, weights, SolverSettings(lam=lam))
            assert report.converged
            oracle = slsqp_regularized_plan(net, weights, lam)
            np.testing.assert_allclose(report.plan, oracle, atol=1e-4)
            prices = row_prices(weights, net.edge_source, net.capacities, lam)
            exact = primal_update(net, weights, prices, lam)
            np.testing.assert_allclose(exact, oracle, atol=1e-4)


# ---------------------------------------------------------------------------
# unregularized baseline


def test_unregularized_paper_scenario(paper_network, paper_edge_weights):
    plan = unregularized_solve(paper_network, paper_edge_weights)
    expected = paper_network.edge_vector([[0, 0, 4.0], [0, 3.0, 0]])
    np.testing.assert_array_equal(plan, expected)
    oracle = lp_plan(paper_network, paper_edge_weights)
    np.testing.assert_allclose(plan, oracle, atol=1e-9)


def test_unregularized_tie_breaks_canonically():
    net = build_network(["s"], ["a", "b"], [("s", "a"), ("s", "b")], [2.0])
    plan = unregularized_solve(net, np.array([3.0, 3.0]))
    np.testing.assert_array_equal(plan, [2.0, 0.0])


def test_unregularized_negative_weights_ship_nothing(paper_network):
    weights = -np.ones(paper_network.n_edges)
    plan = unregularized_solve(paper_network, weights)
    np.testing.assert_array_equal(plan, np.zeros(6))
    oracle = lp_plan(paper_network, weights)
    np.testing.assert_allclose(plan, oracle, atol=1e-9)


def test_unregularized_matches_lp_on_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(10):
        sources, targets = ["s1", "s2"], ["t1", "t2", "t3"]
        net = build_network(
            sources, targets, all_edges(sources, targets), rng.uniform(1, 4, 2)
        )
        weights = rng.uniform(0.5, 5.0, net.n_edges)  # distinct a.s.
        np.testing.assert_allclose(
            unregularized_solve(net, weights), lp_plan(net, weights), atol=1e-8
        )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_unregularized_matches_a_per_source_scan(data):
    """Uneven rows, weights with ties and signs: each row's first largest positive edge ships."""
    n_sources, n_targets = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    sources, targets = [f"s{j}" for j in range(n_sources)], [f"t{q}" for q in range(n_targets)]
    rows = [
        data.draw(st.sets(st.sampled_from(targets), min_size=1)) for _ in sources
    ]
    rows[0] |= set(targets)  # every target has an edge
    edges = [(s, t) for s, row in zip(sources, rows) for t in sorted(row)]
    net = build_network(sources, targets, edges[::-1], np.arange(1.0, n_sources + 1))
    weights = np.array(data.draw(st.lists(
        st.sampled_from([-1.0, 0.0, 2.0, 3.0]), min_size=net.n_edges, max_size=net.n_edges
    )))
    expected = np.zeros(net.n_edges)
    for j in range(n_sources):
        idx = edges_from(net, j)
        best = idx[int(np.argmax(weights[idx]))]
        if weights[best] > 0:
            expected[best] = net.capacities[j]
    np.testing.assert_array_equal(unregularized_solve(net, weights), expected)


# ---------------------------------------------------------------------------
# objective


def test_objective_zero_plan_uses_continuous_extension():
    assert planner_objective(np.zeros(3), np.array([1.0, 2.0, 3.0]), 3.0) == 0.0


def test_objective_log_one_vanishes():
    assert planner_objective(np.array([1.0]), np.array([2.0]), 3.0) == pytest.approx(2.0)


def test_objective_at_e():
    assert planner_objective(np.array([np.e]), np.array([0.0]), 1.0) == pytest.approx(
        -np.e, abs=1e-12
    )


@pytest.mark.parametrize(
    ("plan", "error", "message"),
    [
        # unchecked, a NaN plan gave a NaN utility and a plan of 3 entries numpy's bare ValueError
        ([np.nan, 1.0], ValidationError, "plans must be finite"),
        ([1.0, 1.0, 1.0], DimensionMismatch, r"weights have shape \(2,\), expected \(3,\)"),
        ([-1.0, 1.0], ValidationError, "plans must be elementwise nonnegative"),
    ],
)
def test_objective_rejects_a_plan_it_cannot_score(plan, error, message):
    with pytest.raises(error, match=message) as excinfo:
        planner_objective(np.array(plan), np.array([1.0, 2.0]), 3.0)
    assert excinfo.type is error


def test_smoothing_spreads_allocations(paper_network, paper_edge_weights):
    sparse = unregularized_solve(paper_network, paper_edge_weights)
    assert np.count_nonzero(paper_network.plan_matrix(sparse), axis=1).tolist() == [1, 1]
    smooth = solve_regularized_ot(paper_network, paper_edge_weights, SolverSettings()).plan
    assert np.all(smooth > 0.01)


@pytest.mark.parametrize("field", ["lam", "tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_settings_reject_non_finite_values(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        SolverSettings(**{field: value})


@pytest.mark.parametrize("field", ["gamma", "max_iter"])
def test_settings_have_no_ascent_fields(field):
    # a solve takes no steps, so it has no step size and no step budget
    with pytest.raises(TypeError, match=field):
        SolverSettings(**{field: 1})
