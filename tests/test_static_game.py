from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from advot import (
    PERTURBATION_FLOOR,
    AdversaryCostParams,
    GameSpec,
    PerturbationBelowFloor,
    SolverSettings,
    ValidationError,
    best_response_strategy,
    build_network,
    deviation_check,
    minimize_node_cost,
    primal_update,
    solve_bayesian_equilibrium,
    solve_regularized_ot,
    uniform_belief,
)
from advot.static_game import _aggregates, _perceived, stage_payoffs
from conftest import make_random_spec, perceived_solve
from oracles import (
    adversary_best_response,
    bisection_1x1_equilibrium,
    edges_from,
    enumerated_expected_utility,
    grid_min_cost,
    per_edge_adversary_cost,
    slsqp_regularized_plan,
)

XI_STAR_UNIT = 0.6299605249474366  # (1/2)**(2/3), single-edge closed form


def one_edge_game(m=2.0, c=1.5, lower=1.0, upper=4.0, coeff=2.0, lam=3.0):
    net = build_network(["s"], ["t"], [("s", "t")], [c])
    return GameSpec(
        network=net,
        weights=np.array([m]),
        lower_caps=np.array([lower]),
        upper_caps=np.array([upper]),
        cost_params=AdversaryCostParams(np.array([coeff]), 0.5, 0.5),
        belief=uniform_belief(1),
        settings=SolverSettings(lam=lam),
    )


# ---------------------------------------------------------------------------
# effective weights and expected utility


def test_effective_weights_direct_arithmetic():
    net = build_network(["s"], ["t"], [("s", "t")], [1.0])
    xi = np.array([[2.0, 4.0]])
    out = _perceived(net, np.array([1.0]), xi, uniform_belief(1))
    assert out[0] == pytest.approx(6.0)


def test_effective_weights_floor_case():
    net = build_network(["s"], ["t"], [("s", "t")], [1.0])
    xi = np.full((1, 2), PERTURBATION_FLOOR)
    out = _perceived(net, np.array([1.0]), xi, uniform_belief(1))
    assert out[0] == pytest.approx(1.0 + 1.5e-6, abs=1e-12)


def test_effective_weights_degenerate_belief():
    net = build_network(["s"], ["t"], [("s", "t")], [1.0])
    xi = np.array([[3.0, 7.0]])
    belief = np.array([[1.0, 0.0]])
    out = _perceived(net, np.array([1.0]), xi, belief)
    assert out[0] == pytest.approx(4.0)  # major action ignored entirely


def test_expected_utility_zero_plan(paper_spec):
    xi = paper_spec.caps()
    value = stage_payoffs(paper_spec, paper_spec.belief, np.zeros(6), xi)[0]
    assert value == 0.0


def test_expected_utility_single_edge_log_one():
    spec = one_edge_game(m=1.0, c=2.0)
    xi = np.array([[2.0, 4.0]])
    value = stage_payoffs(spec, spec.belief, np.array([1.0]), xi)[0]
    assert value == pytest.approx(6.0)


def test_expected_utility_matches_type_enumeration(paper_spec):
    rng = np.random.default_rng(11)
    for _ in range(5):
        plan = rng.uniform(0.0, 2.0, size=6)
        xi = np.stack(
            [rng.uniform(1e-6, paper_spec.lower_caps), rng.uniform(1e-6, paper_spec.upper_caps)],
            axis=1,
        )
        direct = stage_payoffs(paper_spec, paper_spec.belief, plan, xi)[0]
        enumerated = enumerated_expected_utility(
            paper_spec.network, plan, paper_spec.weights, xi, paper_spec.belief, 3.0
        )
        assert direct == pytest.approx(enumerated, abs=1e-10)


def test_expected_utility_at_equilibrium_matches_enumeration(paper_spec):
    profile = solve_bayesian_equilibrium(paper_spec)
    direct = stage_payoffs(paper_spec, paper_spec.belief, profile.plan, profile.strategy)[0]
    enumerated = enumerated_expected_utility(
        paper_spec.network, profile.plan, paper_spec.weights,
        profile.strategy, paper_spec.belief, 3.0,
    )
    assert direct == pytest.approx(enumerated, abs=1e-10)


def test_game_spec_validation(paper_spec):
    with pytest.raises(Exception):
        dataclasses.replace(paper_spec, lower_caps=np.array([6.0, np.nan, 4.0]))
    with pytest.raises(Exception):
        dataclasses.replace(paper_spec, upper_caps=np.array([1.0, 1.0, 1.0]))  # below lower
    with pytest.raises(Exception):
        dataclasses.replace(paper_spec, weights=np.full(6, np.inf))
    with pytest.raises(Exception):
        dataclasses.replace(paper_spec, belief=np.tile([0.7, 0.7], (3, 1)))


# ---------------------------------------------------------------------------
# adversary cost and best response


def test_adversary_cost_zero_plan(paper_spec):
    xi = paper_spec.caps()
    _, minor, major = stage_payoffs(paper_spec, paper_spec.belief, np.zeros(6), xi)
    assert minor == major == 0.0


def test_adversary_cost_unit_case():
    spec = one_edge_game(m=1.0, c=2.0, coeff=1.0)
    _, minor, major = stage_payoffs(spec, spec.belief, np.array([1.0]), np.array([[1.0, 1.0]]))
    assert minor == pytest.approx(3.0)
    assert major == pytest.approx(4.0)


def test_adversary_cost_matches_independent_evaluation(paper_spec):
    rng = np.random.default_rng(3)
    plan = rng.uniform(0.0, 2.0, size=6)
    xi = np.stack(
        [rng.uniform(0.5, paper_spec.lower_caps), rng.uniform(0.5, paper_spec.upper_caps)],
        axis=1,
    )
    _, *costs = stage_payoffs(paper_spec, paper_spec.belief, plan, xi)
    for t, got in zip((1, 2), costs):
        expected = per_edge_adversary_cost(
            paper_spec.network, plan, paper_spec.weights, xi, np.full(3, t), paper_spec.cost_params
        )
        assert got == pytest.approx(expected, abs=1e-10)


def test_best_response_single_edge_interior():
    net = build_network(["s"], ["t"], [("s", "t")], [2.0])
    params = AdversaryCostParams(np.array([1.0]), 0.5, 0.5)
    xi = adversary_best_response(net, np.array([1.0]), params, np.array([10.0]), 1)
    assert xi[0] == pytest.approx(XI_STAR_UNIT, abs=1e-12)
    grid_point, _ = grid_min_cost(1.0, 1.0, 0.5, PERTURBATION_FLOOR, 10.0)
    assert xi[0] == pytest.approx(grid_point, abs=1e-4)


def test_best_response_box_clipping():
    net = build_network(["s"], ["t"], [("s", "t")], [2.0])
    params = AdversaryCostParams(np.array([1.0]), 0.5, 0.5)
    xi = adversary_best_response(net, np.array([1.0]), params, np.array([0.5]), 1)
    assert xi[0] == 0.5


def test_best_response_no_flow_hits_cap():
    net = build_network(["s"], ["t"], [("s", "t")], [2.0])
    params = AdversaryCostParams(np.array([1.0]), 0.5, 0.5)
    xi = adversary_best_response(net, np.array([0.0]), params, np.array([7.0]), 2)
    assert xi[0] == 7.0


def test_best_response_stationarity_and_finite_difference():
    rng = np.random.default_rng(17)
    for _ in range(25):
        scale = rng.uniform(0.1, 5.0)
        flow = rng.uniform(0.1, 5.0)
        beta2 = rng.uniform(0.1, 1.0)
        cap = rng.uniform(2.0, 12.0)
        out = minimize_node_cost(scale, flow, beta2, cap)[0]
        interior = PERTURBATION_FLOOR < out < cap
        if not interior:
            continue
        derivative = -beta2 * scale * out ** (-beta2 - 1.0) + flow
        assert abs(derivative) <= 1e-8 * max(1.0, flow)
        h = 1e-6
        cost = lambda z: scale * z ** (-beta2) + flow * z
        central = (cost(out + h) - cost(out - h)) / (2 * h)
        assert central == pytest.approx(derivative, abs=1e-5 * max(1.0, abs(central)))


def test_best_response_convexity_of_node_cost():
    # strict convexity on z > 0 whenever both terms are present
    z = np.linspace(0.05, 5.0, 200)
    cost = 2.0 * z ** -0.5 + 1.5 * z
    second_diff = np.diff(cost, 2)
    assert np.all(second_diff > 0)


def test_monotone_coupling_of_primal_update():
    net = build_network(["s"], ["t1", "t2"], [("s", "t1"), ("s", "t2")], [5.0])
    prices = np.array([0.7])
    low = primal_update(net, np.array([1.0, 2.0]), prices, lam=3.0)
    high = primal_update(net, np.array([1.5, 2.0]), prices, lam=3.0)
    assert high[0] > low[0]
    assert high[1] == low[1]


# ---------------------------------------------------------------------------
# dispatcher best response


def test_dispatcher_response_at_floor_matches_adversary_free(paper_spec):
    xi = np.full((3, 2), PERTURBATION_FLOOR)
    response = perceived_solve(paper_spec, xi)
    free = solve_regularized_ot(paper_spec.network, paper_spec.weights, paper_spec.settings)
    np.testing.assert_allclose(response.plan, free.plan, atol=1e-4)


def test_dispatcher_response_at_caps_follows_heaviest_link(paper_spec):
    xi = paper_spec.caps()
    response = perceived_solve(paper_spec, xi)
    assert response.converged
    w_eff = _perceived(paper_spec.network, paper_spec.weights, xi, paper_spec.belief)
    oracle = slsqp_regularized_plan(paper_spec.network, w_eff, 3.0)
    np.testing.assert_allclose(response.plan, oracle, atol=1e-4)
    plan_matrix = paper_spec.network.plan_matrix(response.plan)
    weight_matrix = paper_spec.network.plan_matrix(w_eff)
    for j in range(2):
        assert np.argmax(plan_matrix[j]) == np.argmax(weight_matrix[j])


def test_dispatcher_response_degenerate_belief_minor_floor(paper_spec):
    spec = dataclasses.replace(paper_spec, belief=np.tile([1.0, 0.0], (3, 1)))
    xi = np.full((3, 2), PERTURBATION_FLOOR)
    response = perceived_solve(spec, xi)
    free = solve_regularized_ot(spec.network, spec.weights, spec.settings)
    np.testing.assert_allclose(response.plan, free.plan, atol=1e-4)


# ---------------------------------------------------------------------------
# equilibrium


def test_equilibrium_1x1_matches_bisection_oracle():
    spec = one_edge_game()
    profile = solve_bayesian_equilibrium(spec)
    assert profile.converged
    oracle_x = bisection_1x1_equilibrium(
        m=2.0, c=1.5, lam=3.0, lower=1.0, upper=4.0, coeff=2.0,
        beta1=0.5, beta2=0.5, belief=(0.5, 0.5),
    )
    assert profile.plan[0] == pytest.approx(oracle_x, abs=1e-6)
    assert profile.deviation_gap <= 1e-4


def test_equilibrium_paper_scenario(paper_spec):
    profile = solve_bayesian_equilibrium(paper_spec)
    assert profile.converged
    assert profile.iterations <= 500
    assert profile.deviation_gap <= 1e-4
    # actions settle at the per-node closed form given the equilibrium plan
    np.testing.assert_allclose(
        profile.strategy, best_response_strategy(paper_spec, profile.plan), atol=1e-9
    )
    # interior here: well below caps, above the floor
    assert np.all(profile.strategy[:, 0] < paper_spec.lower_caps)
    assert np.all(profile.strategy[:, 1] < paper_spec.upper_caps)
    assert np.all(profile.strategy > PERTURBATION_FLOOR)


def test_equilibrium_with_pinned_adversary_recovers_free_plan(paper_spec):
    tiny = np.full(3, PERTURBATION_FLOOR)
    spec = dataclasses.replace(paper_spec, lower_caps=tiny, upper_caps=tiny)
    profile = solve_bayesian_equilibrium(spec)
    assert profile.converged
    free = solve_regularized_ot(spec.network, spec.weights, spec.settings)
    np.testing.assert_allclose(profile.plan, free.plan, atol=1e-4)


def test_best_response_idempotence_at_equilibrium(paper_spec):
    profile = solve_bayesian_equilibrium(paper_spec)
    replayed_plan = perceived_solve(paper_spec, profile.strategy).plan
    replayed_xi = best_response_strategy(paper_spec, replayed_plan)
    assert np.max(np.abs(replayed_plan - profile.plan)) <= 1e-6
    assert np.max(np.abs(replayed_xi - profile.strategy)) <= 1e-6


def test_equilibrium_on_random_small_instances():
    rng = np.random.default_rng(99)
    for _ in range(20):
        spec = make_random_spec(rng)
        profile = solve_bayesian_equilibrium(spec)
        assert profile.converged, "alternating best response failed to settle"
        assert profile.deviation_gap <= 1e-4


# ---------------------------------------------------------------------------
# deviation check


def test_deviation_plan_perturbation_lowers_utility(paper_spec):
    profile = solve_bayesian_equilibrium(paper_spec)
    base = stage_payoffs(paper_spec, paper_spec.belief, profile.plan, profile.strategy)[0]
    bumped = profile.plan.copy()
    bumped[0] *= 1.1
    # rescale the touched row back into feasibility
    j = int(paper_spec.network.edge_source[0])
    idx = edges_from(paper_spec.network, j)
    row_sum = bumped[idx].sum()
    bumped[idx] *= paper_spec.network.capacities[j] / row_sum
    perturbed = stage_payoffs(paper_spec, paper_spec.belief, bumped, profile.strategy)[0]
    assert perturbed < base


def test_deviation_action_perturbation_raises_cost(paper_spec):
    profile = solve_bayesian_equilibrium(paper_spec)
    base = stage_payoffs(paper_spec, paper_spec.belief, profile.plan, profile.strategy)[1]
    for delta in (0.1, -0.1):
        shifted = profile.strategy.copy()
        shifted[:, 0] += delta
        cost = stage_payoffs(paper_spec, paper_spec.belief, profile.plan, shifted)[1]
        assert cost > base


def test_deviation_check_finds_the_dispatcher_optimum_between_grid_points():
    spec = one_edge_game()
    lam, capacity, plan = 3.0, 1.5, np.array([0.1])
    # the adversary best responds, so its improvement is exactly 0
    xi = best_response_strategy(spec, plan)
    w = float(_perceived(spec.network, spec.weights, xi, spec.belief)[0])
    best = math.exp(w / lam - 1.0)
    # the plan row can grow to the capacity; the best point lies inside,
    # strictly between two points of a 21-point grid on [0, capacity]
    assert 0.0 < best < capacity
    steps = best / (capacity / 20)
    assert 0.1 < steps - math.floor(steps) < 0.9
    utility = lambda y: w * y - lam * y * math.log(y)
    expected = utility(best) - utility(float(plan[0]))
    assert expected > 1e-3
    assert abs(deviation_check(spec, plan, xi) - expected) <= 1e-12


def test_deviation_check_flags_suboptimal_profiles(paper_spec):
    profile = solve_bayesian_equilibrium(paper_spec)
    gap = deviation_check(paper_spec, profile.plan, profile.strategy)
    assert gap <= 1e-4
    # a visibly off-equilibrium action table must show a large gap
    bad = np.minimum(profile.strategy + 2.0, paper_spec.caps())
    assert deviation_check(paper_spec, profile.plan, bad) > 0.1


@pytest.mark.parametrize(
    ("value", "error", "message"),
    [
        (np.nan, ValidationError, "actions must be finite"),
        (-np.inf, PerturbationBelowFloor, "actions must stay >= "),
        (np.inf, ValidationError, "an action exceeds its per-type cap"),
    ],
    ids=["nan", "-inf", "inf"],
)
def test_deviation_check_rejects_non_finite_actions(paper_spec, value, error, message):
    """A NaN action raises instead of certifying; the infinities keep the floor and cap rules."""
    profile = solve_bayesian_equilibrium(paper_spec)
    xi = profile.strategy.copy()
    xi[0, 0] = value
    with pytest.raises(error, match=message) as excinfo:
        deviation_check(paper_spec, profile.plan, xi)
    assert excinfo.type is error


def test_equilibrium_on_sparse_network():
    # targets with unequal degree: t1 fed by both sources, t3 by s2 only
    net = build_network(
        ["s1", "s2"],
        ["t1", "t2", "t3"],
        [("s1", "t1"), ("s1", "t2"), ("s2", "t1"), ("s2", "t3")],
        [3.0, 2.0],
    )
    spec = GameSpec(
        network=net,
        weights=np.array([2.0, 4.0, 3.0, 1.0]),
        lower_caps=np.array([5.0, 5.0, 5.0]),
        upper_caps=np.array([9.0, 9.0, 9.0]),
        cost_params=AdversaryCostParams(np.full(4, 2.0), 0.5, 0.5),
        belief=uniform_belief(3),
        settings=SolverSettings(),
    )
    profile = solve_bayesian_equilibrium(spec)
    assert profile.converged
    assert profile.deviation_gap <= 1e-4
    w_eff = _perceived(net, spec.weights, profile.strategy, spec.belief)
    oracle = slsqp_regularized_plan(net, w_eff, 3.0)
    np.testing.assert_allclose(profile.plan, oracle, atol=1e-4)
    np.testing.assert_allclose(
        profile.strategy, best_response_strategy(spec, profile.plan), atol=1e-9
    )


def test_node_cost_aggregates_consistency(paper_spec):
    rng = np.random.default_rng(1)
    plan = rng.uniform(0.1, 1.5, size=6)
    scale, flow = _aggregates(paper_spec.network, plan, paper_spec.cost_params)
    matrix = paper_spec.network.plan_matrix(plan)
    coeff = paper_spec.network.plan_matrix(paper_spec.cost_params.punishment_coeff)
    for q in range(3):
        assert scale[q] == pytest.approx(np.sum(coeff[:, q] * matrix[:, q] ** 0.5))
        assert flow[q] == pytest.approx(matrix[:, q].sum())


def test_stage_payoffs_match_enumeration_and_the_per_edge_costs():
    """The trace's payoffs, against the joint-type enumeration and the per-edge cost loop."""
    rng = np.random.default_rng(4)
    for _ in range(20):
        spec = make_random_spec(rng, 3, 4)
        network, weights = spec.network, spec.weights
        plan = np.where(rng.random(network.n_edges) < 0.2, 0.0, rng.uniform(0, 2, network.n_edges))
        effective = rng.uniform(PERTURBATION_FLOOR, 6.0, (4, 2))
        minor = rng.uniform(0, 1, 4)
        belief = np.stack([minor, 1.0 - minor], axis=1)
        utility, *costs = stage_payoffs(spec, belief, plan, effective)
        assert utility == pytest.approx(
            enumerated_expected_utility(network, plan, weights, effective, belief, spec.settings.lam),
            rel=1e-12, abs=1e-12,
        )
        for t, cost in zip((1, 2), costs):
            expected = per_edge_adversary_cost(
                network, plan, weights, effective, np.full(4, t), spec.cost_params
            )
            assert cost == pytest.approx(expected, rel=1e-12)
