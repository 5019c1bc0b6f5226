from __future__ import annotations

import numpy as np
import pytest

import advot.static_game
from advot import (
    PERTURBATION_FLOOR,
    AdversaryCostParams,
    PerturbationBelowFloor,
    StageNotConverged,
    ValidationError,
    belief_update,
    best_response_strategy,
    build_network,
    deviation_check,
    run_dynamic_game,
    solve_bayesian_equilibrium,
    stage_adversary_best_response,
    threshold_phi,
    uniform_belief,
)
from conftest import make_random_spec
from oracles import grid_min_thresholded_cost

FLOOR = PERTURBATION_FLOOR


# ---------------------------------------------------------------------------
# thresholding map


def test_phi_flat_branch():
    assert threshold_phi(2.5, 2.0, 1.0) == 2.0


def test_phi_shifted_branch():
    assert threshold_phi(4.0, 2.0, 1.0) == 3.0


def test_phi_zero_tau_is_running_maximum():
    for value, prev in [(0.5, 2.0), (2.0, 2.0), (3.7, 2.0)]:
        assert threshold_phi(value, prev, 0.0) == max(value, prev)


@pytest.mark.parametrize("tau", [float("nan"), -1.0, np.array([0.5, -1.0])])
def test_phi_rejects_a_negative_or_nan_tau(tau):
    # unchecked, tau = nan gave NaN and tau = -1 lifted the action 2.0 to 3.0
    with pytest.raises(ValidationError, match="tau must be >= 0"):
        threshold_phi(np.array([2.0, 2.0]), np.array([1.0, 1.0]), tau)


def test_phi_property_suite():
    rng = np.random.default_rng(123)
    xi_t = rng.uniform(0.0, 10.0, size=10_000)
    xi_prev = rng.uniform(0.0, 10.0, size=10_000)
    tau = rng.uniform(0.0, 5.0, size=10_000)
    out = threshold_phi(xi_t, xi_prev, tau)
    # never drops below the anchor
    assert np.all(out >= xi_prev)
    # nondecreasing and 1-Lipschitz in the action
    bumped = threshold_phi(xi_t + 1e-3, xi_prev, tau)
    assert np.all(bumped - out >= 0.0)
    assert np.all(bumped - out <= 1e-3 + 1e-12)
    # continuity at the knee
    left = threshold_phi(xi_prev + tau - 1e-13, xi_prev, tau)
    right = threshold_phi(xi_prev + tau + 1e-13, xi_prev, tau)
    assert np.all(np.abs(left - right) <= 1e-12)


# ---------------------------------------------------------------------------
# stage best response


def stage_setup(plan_value=1.0, coeff=1.0):
    net = build_network(["s"], ["t"], [("s", "t")], [2.0])
    params = AdversaryCostParams(np.array([coeff]), 0.5, 0.5)
    return net, params, np.array([plan_value])


def test_stage_response_above_threshold_shifts_by_tau():
    net, params, plan = stage_setup()
    # static optimum 0.63 sits above prev + tau = 0.3
    xi = stage_adversary_best_response(
        net, plan, params, caps=np.array([10.0]), type_value=1,
        xi_prev=np.array([0.2]), tau=0.1,
    )
    grid_point, _ = grid_min_thresholded_cost(1.0, 1.0, 0.5, 0.2, 0.1, FLOOR, 10.0)
    assert xi[0] == pytest.approx(0.6299605249474366 + 0.1, abs=1e-9)
    assert xi[0] == pytest.approx(grid_point, abs=1e-4)


def test_stage_response_stays_put_in_flat_region():
    net, params, plan = stage_setup()
    # static optimum 0.63 below prev: no incentive to move
    xi = stage_adversary_best_response(
        net, plan, params, caps=np.array([10.0]), type_value=1,
        xi_prev=np.array([2.0]), tau=0.5,
    )
    assert xi[0] == 2.0


def test_stage_response_fully_damped_when_tau_exceeds_cap():
    net, params, plan = stage_setup()
    xi = stage_adversary_best_response(
        net, plan, params, caps=np.array([3.0]), type_value=1,
        xi_prev=np.array([1.0]), tau=5.0,
    )
    assert xi[0] == 1.0


def test_stage_response_matches_grid_oracle_randomized():
    rng = np.random.default_rng(21)
    net, _, _ = stage_setup()
    for _ in range(30):
        coeff = rng.uniform(0.2, 3.0)
        plan = np.array([rng.uniform(0.0, 2.0)])
        params = AdversaryCostParams(np.array([coeff]), 0.5, 0.5)
        prev = rng.uniform(FLOOR, 3.0)
        tau = rng.uniform(0.0, 1.5)
        cap = rng.uniform(prev + 0.1, 8.0)
        got = stage_adversary_best_response(
            net, plan, params, np.array([cap]), 1, np.array([prev]), tau
        )[0]
        scale = coeff * plan[0] ** 0.5
        flow = plan[0]
        _, best_value = grid_min_thresholded_cost(scale, flow, 0.5, prev, tau, FLOOR, cap)
        got_value = scale * threshold_phi(got, prev, tau) ** -0.5 + flow * threshold_phi(got, prev, tau)
        assert got_value <= best_value + 1e-6
        # cheaper than 50 random feasible alternatives
        alternatives = rng.uniform(FLOOR, cap, size=50)
        alt_z = threshold_phi(alternatives, prev, tau)
        alt_values = scale * alt_z ** -0.5 + flow * alt_z
        assert got_value <= np.min(alt_values) + 1e-9


# ---------------------------------------------------------------------------
# belief updates


def test_belief_update_hand_computed():
    updated = belief_update(uniform_belief(1), np.array([[2.0, 6.0]]))
    np.testing.assert_allclose(updated, [[0.25, 0.75]], atol=1e-15)


def test_belief_update_uninformative_when_actions_match():
    belief = np.array([[0.3, 0.7]])
    updated = belief_update(belief, np.array([[1.7, 1.7]]))
    np.testing.assert_allclose(updated, belief, atol=1e-15)


def test_belief_update_degenerate_is_absorbing():
    belief = np.array([[1.0, 0.0]])
    updated = belief_update(belief, np.array([[2.0, 9.0]]))
    np.testing.assert_allclose(updated, belief, atol=1e-15)


def test_belief_update_scale_invariant():
    belief = np.array([[0.4, 0.6], [0.2, 0.8]])
    xi = np.array([[1.0, 3.0], [2.0, 5.0]])
    a = belief_update(belief, xi)
    b = belief_update(belief, 7.5 * xi)
    np.testing.assert_allclose(a, b, atol=1e-14)


@pytest.mark.parametrize(
    ("actions", "error", "message"),
    [
        ([[0.0, 1.0]], PerturbationBelowFloor, "belief update needs actions >= the floor"),
        ([[1.0, 1.0], [1.0, 1.0]], ValidationError, "belief and action tables must have matching shape"),
    ],
    ids=["below-the-floor", "wrong-shape"],
)
def test_belief_update_rejects_bad_inputs(actions, error, message):
    with pytest.raises(error, match=f"^{message}$") as excinfo:
        belief_update(uniform_belief(1), np.array(actions))
    assert excinfo.type is error


@pytest.mark.parametrize("belief", [[[0.0, 1.0]], [[0.5, 0.5]]], ids=["degenerate", "uniform"])
@pytest.mark.parametrize("actions", [[5.0, np.nan], [np.nan, np.nan], [np.inf, 5.0]],
                         ids=["one-nan", "all-nan", "inf"])
def test_belief_update_rejects_non_finite_actions(belief, actions):
    """A NaN action used to be reported as a zero normalizer, and an infinite one gave NaN beliefs."""
    with pytest.raises(ValidationError, match="actions must be finite") as excinfo:
        belief_update(np.array(belief), np.array([actions]))
    assert excinfo.type is ValidationError


def test_beliefs_stay_normalized_over_long_runs(paper_spec):
    outcomes = run_dynamic_game(paper_spec, stages=20, tau=0.5)
    for outcome in outcomes:
        sums = outcome.belief_after.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12
        assert np.all(outcome.belief_after >= 0)


# ---------------------------------------------------------------------------
# full dynamic runs


def test_single_stage_zero_tau_equals_static(paper_spec):
    static = solve_bayesian_equilibrium(paper_spec)
    outcomes = run_dynamic_game(paper_spec, stages=1, tau=0.0)
    assert len(outcomes) == 1
    stage = outcomes[0]
    assert stage.profile.converged
    # one engine: the first stage at tau = 0 is the static solve, bit for bit
    np.testing.assert_array_equal(stage.profile.plan, static.plan)
    np.testing.assert_array_equal(stage.profile.strategy, static.strategy)
    assert stage.profile.deviation_gap == static.deviation_gap
    assert stage.profile.iterations == static.iterations


def test_large_tau_freezes_actions(paper_spec):
    outcomes = run_dynamic_game(paper_spec, stages=3, tau=50.0)
    frozen = np.full((3, 2), FLOOR)
    for outcome in outcomes:
        np.testing.assert_allclose(outcome.profile.strategy, frozen, atol=1e-15)
        # equal actions across types keep the belief uniform
        np.testing.assert_allclose(outcome.belief_after, uniform_belief(3), atol=1e-14)


def test_five_stage_run_matches_independent_stage_script(paper_spec):
    """Re-derive the belief path stage by stage from the recorded actions."""
    outcomes = run_dynamic_game(paper_spec, stages=5, tau=0.5)
    belief = paper_spec.belief
    for outcome in outcomes:
        xi = outcome.profile.strategy
        weighted = belief * xi
        expected = weighted / weighted.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(outcome.belief_after, expected, atol=1e-12)
        belief = expected


def test_belief_trajectories_monotone_under_persistent_ordering(paper_spec):
    outcomes = run_dynamic_game(paper_spec, stages=5, tau=0.5)
    majors = np.stack([o.belief_after[:, 1] for o in outcomes])
    # on this scenario the minor action stays above the major one throughout,
    # so the major-type belief decays monotonically at every node
    for outcome in outcomes:
        assert np.all(outcome.profile.strategy[:, 0] > outcome.profile.strategy[:, 1])
    assert np.all(np.diff(majors, axis=0) < 0)
    assert np.all(majors[0] < 0.5)


def test_stage_actions_respect_interval_structure(paper_spec):
    outcomes = run_dynamic_game(paper_spec, stages=4, tau=0.5)
    prev = np.full((3, 2), FLOOR)
    caps = paper_spec.caps()
    for outcome in outcomes:
        xi = outcome.profile.strategy
        effective = outcome.effective_action
        assert np.all(xi <= caps + 1e-12)
        assert np.all(xi >= FLOOR)
        # the effective action never drops below the anchor
        assert np.all(effective >= prev - 1e-15)
        np.testing.assert_allclose(effective, threshold_phi(xi, prev, 0.5), atol=0)
        prev = xi


def test_stage_failure_raises_with_partial_outcomes(paper_spec, monkeypatch):
    monkeypatch.setattr(advot.static_game, "MAX_ROUNDS", 2)
    with pytest.raises(StageNotConverged) as excinfo:
        run_dynamic_game(paper_spec, stages=2, tau=0.5)
    assert excinfo.value.stage == 1
    assert excinfo.value.outcomes == []
    # the failed stage's own profile rides along, so a report can show it
    profile = excinfo.value.profile
    assert (profile.iterations, profile.converged) == (2, False)
    assert profile.plan.shape == (paper_spec.network.n_edges,)


def test_stage_failure_can_continue(paper_spec, monkeypatch):
    monkeypatch.setattr(advot.static_game, "MAX_ROUNDS", 1)
    outcomes = run_dynamic_game(paper_spec, stages=2, tau=0.5, abort_on_failure=False)
    assert len(outcomes) == 2
    assert not any(o.profile.converged for o in outcomes)


def test_stage_response_rejects_a_type_value_that_is_no_type():
    net, params, plan = stage_setup()
    with pytest.raises(ValidationError, match=r"^type_value must be 1 \(minor\) or 2 \(major\)$"):
        stage_adversary_best_response(net, plan, params, np.array([3.0]), 3, np.array([1.0]), 0.5)


def test_nan_tau_is_rejected(paper_spec):
    net, params, plan = stage_setup()
    nan = float("nan")
    with pytest.raises(ValidationError, match="tau"):
        stage_adversary_best_response(net, plan, params, np.array([3.0]), 1, np.array([1.0]), nan)
    profile = solve_bayesian_equilibrium(paper_spec)
    with pytest.raises(ValidationError, match="tau"):
        best_response_strategy(paper_spec, profile.plan, FLOOR, nan)
    with pytest.raises(ValidationError, match="tau"):
        deviation_check(paper_spec, profile.plan, profile.strategy, tau=nan)
    with pytest.raises(ValidationError, match="tau"):
        run_dynamic_game(paper_spec, stages=1, tau=nan)


def test_infinite_tau_keeps_every_action_at_the_floor(paper_spec):
    # infinite inertia: phi is flat everywhere, so no stage ever moves its action
    outcomes = run_dynamic_game(paper_spec, stages=2, tau=float("inf"))
    for outcome in outcomes:
        assert outcome.profile.converged
        np.testing.assert_array_equal(outcome.profile.strategy, FLOOR)
        np.testing.assert_array_equal(outcome.effective_action, FLOOR)


@pytest.mark.parametrize("stages", [2.5, True])
def test_non_integer_stages_are_rejected_before_any_solve(stages, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the stage count was checked")

    monkeypatch.setattr("advot.dynamic_game.solve_regularized_ot", no_solve)
    spec = make_random_spec(np.random.default_rng(0), 2, 3)
    with pytest.raises(ValidationError, match="stages must be an integer"):
        run_dynamic_game(spec, stages, 0.5)


@pytest.mark.parametrize("stages", [np.int64(2), np.int32(2)])
def test_numpy_integer_stages_are_accepted(paper_spec, stages):
    outcomes = run_dynamic_game(paper_spec, stages, 0.5)
    assert [o.state.stage for o in outcomes] == [1, 2]
