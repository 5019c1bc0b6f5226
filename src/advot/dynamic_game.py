"""Multistage play: thresholded adversary actions and Bayesian belief updates.

Each stage runs the shared equilibrium engine
(:func:`advot.static_game.stage_equilibrium`), except the adversary's action
passes through an inertial thresholding map anchored at the previous stage's
action, and between stages the dispatcher reweights its per-target belief
using the revealed actions as likelihoods.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator, PerturbationBelowFloor, StageNotConverged, ValidationError
from .network import PERTURBATION_FLOOR, check_belief
from .static_game import (
    MAX_ROUNDS,
    EquilibriumProfile,
    GameSpec,
    stage_adversary_best_response,  # the benchmark's tracer wraps it by this name
    stage_equilibrium,
    stage_payoffs,
    threshold_phi,
)
from .transport import _check_integer, solve_regularized_ot

logger = logging.getLogger(__name__)


def belief_update(belief: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Reweight each target's type belief by the revealed scalar actions.

    ``mu'(t) = mu(t)*xi(t) / sum_t' mu(t')*xi(t')`` per target node; the
    positivity floor on actions keeps the normalizer away from zero.
    """
    belief = check_belief(belief, len(belief))
    xi = np.asarray(xi, dtype=float)
    if xi.shape != belief.shape:
        raise ValidationError("belief and action tables must have matching shape")
    if np.any(xi < PERTURBATION_FLOOR):
        raise PerturbationBelowFloor("belief update needs actions >= the floor")
    weighted = belief * xi
    denom = weighted.sum(axis=1)
    if not np.all(denom > 0):
        raise DegenerateDenominator("belief-weighted actions did not sum to a positive value")
    return weighted / denom[:, None]


@dataclass(frozen=True)
class StageState:
    """What the stage sees before play: its index and belief."""

    stage: int
    belief: np.ndarray


@dataclass
class StageOutcome:
    """One stage's equilibrium, its effective (thresholded) action and payoffs."""

    state: StageState
    profile: EquilibriumProfile
    effective_action: np.ndarray  # phi(xi_t) per target and type
    dispatcher_utility: float
    adversary_cost_minor: float
    adversary_cost_major: float
    belief_after: np.ndarray


def run_dynamic_game(
    spec: GameSpec,
    stages: int,
    tau: float,
    max_rounds: int = MAX_ROUNDS,
    abort_on_failure: bool = True,
) -> list[StageOutcome]:
    """Play the game for ``stages`` stages, updating beliefs between stages.

    Play starts with the previous action at the floor.  Each stage solves its
    fixed point against the belief it inherited, starting from the previous
    stage's plan (stage 1 from the adversary-free plan) and the adversary's
    stage best response to it; the dispatcher's weights use the thresholded
    action, the revealed (raw) action then drives the belief update.  A
    stage that fails to settle raises :class:`StageNotConverged`, which
    carries that stage's profile, unless ``abort_on_failure`` is False, in
    which case the stage is recorded as-is and play continues.
    """
    _check_integer(stages, "stages")
    if stages < 1:
        raise ValidationError("stages must be >= 1")
    if not tau >= 0:  # also rejects NaN
        raise ValidationError("tau must be >= 0")
    xi_prev = np.full((spec.network.n_targets, 2), PERTURBATION_FLOOR)
    belief = spec.belief
    outcomes: list[StageOutcome] = []
    plan = solve_regularized_ot(spec.network, spec.weights, spec.settings).plan
    for stage in range(1, stages + 1):
        state = StageState(stage=stage, belief=belief)
        profile = stage_equilibrium(spec, belief, xi_prev, tau, plan, max_rounds)
        if not profile.converged:
            logger.warning("stage %d failed to converge (gap %.3e)", stage, profile.deviation_gap)
            if abort_on_failure:
                raise StageNotConverged(stage, outcomes=outcomes, profile=profile)
        effective = threshold_phi(profile.strategy, xi_prev, tau)
        utility, cost_minor, cost_major = stage_payoffs(spec, belief, profile.plan, effective)
        belief_after = belief_update(belief, profile.strategy)
        outcomes.append(
            StageOutcome(
                state=state,
                profile=profile,
                effective_action=effective,
                dispatcher_utility=utility,
                adversary_cost_minor=cost_minor,
                adversary_cost_major=cost_major,
                belief_after=belief_after,
            )
        )
        plan = profile.plan
        xi_prev = profile.strategy
        belief = belief_after
    return outcomes
