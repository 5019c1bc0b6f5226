"""Static game between the dispatcher and a typed adversary.

The dispatcher maximizes expected utility under a per-target belief over the
adversary's binary type; each adversary type minimizes its own cost, which is
separable across target nodes and admits a closed-form per-node minimizer.
The equilibrium is the fixed point of the two best responses in turn, found
by Anderson-accelerated iteration and then certified with each coordinate's
exact best deviation.

One pass over the plan, :func:`_stage_response`, gives both types' cost
tables and thresholded minimizers; the loop's adversary best response and
the certificate's adversary half both read it.

One engine, :func:`stage_equilibrium`, serves both the static game and every
stage of the multistage game: the static game is the stage game whose
previous action sits at the floor and whose threshold ``tau`` is 0, where the
thresholding map is the identity.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, PerturbationBelowFloor, ValidationError
from .network import (
    PERTURBATION_FLOOR,
    AdversaryCostParams,
    BipartiteNetwork,
    _frozen,
    check_belief,
    check_plan,
    check_strategy,
)
from .transport import SolverSettings, planner_objective, solve_regularized_ot

logger = logging.getLogger(__name__)

DEVIATION_TOL = 1e-4  # largest coordinate improvement a converged profile may leave
PROFILE_TOL = 1e-7  # largest round-to-round profile change that counts as settled
MAX_ROUNDS = 500  # default round limit of the best-response loop
ANDERSON_MEMORY = 5  # residual differences the accelerated step fits


@dataclass(frozen=True)
class GameSpec:
    """Everything needed to pose the static game.

    ``belief`` rows are per-target (minor, major) probabilities; ``lower_caps``
    bounds the minor type's action, ``upper_caps`` the major type's.
    """

    network: BipartiteNetwork
    weights: np.ndarray  # (n_edges,)
    lower_caps: np.ndarray  # (n_targets,)
    upper_caps: np.ndarray  # (n_targets,)
    cost_params: AdversaryCostParams
    belief: np.ndarray  # (n_targets, 2)
    settings: SolverSettings = SolverSettings()

    def __post_init__(self):
        n_targets = self.network.n_targets
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape != (self.network.n_edges,):
            raise ValidationError("weights must be a per-edge vector")
        if not np.all(np.isfinite(weights)):
            raise ValidationError("weights must be finite")
        lower = np.asarray(self.lower_caps, dtype=float)
        upper = np.asarray(self.upper_caps, dtype=float)
        if lower.shape != (n_targets,) or upper.shape != (n_targets,):
            raise ValidationError("caps must cover every target node")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValidationError("caps must be finite")
        if np.any(lower < PERTURBATION_FLOOR) or np.any(upper < PERTURBATION_FLOOR):
            raise PerturbationBelowFloor(f"caps must be >= the action floor {PERTURBATION_FLOOR}")
        if np.any(lower > upper):
            raise ValidationError("lower caps must not exceed upper caps")
        if self.cost_params.punishment_coeff.shape != (self.network.n_edges,):
            raise ValidationError("cost params do not match the network's edges")
        if self.settings.lam <= 0:
            raise ValidationError("the game needs a positive smoothing weight lam")
        belief = check_belief(self.belief, n_targets)
        for name, value in (("weights", weights), ("lower_caps", lower),
                            ("upper_caps", upper), ("belief", belief)):
            object.__setattr__(self, name, _frozen(value))

    def caps(self) -> np.ndarray:
        """Per-target (minor, major) action caps as an (n_targets, 2) array."""
        return np.stack([self.lower_caps, self.upper_caps], axis=1)


@dataclass
class EquilibriumProfile:
    """Fixed point of the two best responses in turn, with its certificate.

    ``deviation_gap`` is the largest improvement either player gains by
    moving one coordinate to its best value; it is >= 0 up to rounding, and
    values at or below the certification tolerance mean neither player has
    a profitable coordinate deviation.
    """

    plan: np.ndarray
    strategy: np.ndarray  # (n_targets, 2): minor and major actions
    iterations: int
    converged: bool
    deviation_gap: float
    trace: list[dict] = field(default_factory=list)


def _perceived(network, weights, xi, belief) -> np.ndarray:
    """Belief-averaged perception per edge: ``m + mu1*xi_minor + 2*mu2*xi_major``.

    The type multiplies its own action (major counts twice), so this is the
    expected per-edge coefficient the dispatcher actually optimizes against.
    """
    node_term = belief[:, 0] * 1.0 * xi[:, 0] + belief[:, 1] * 2.0 * xi[:, 1]
    return weights + node_term[network.edge_target]


def _edge_cost(params, plan, powered, weights, theta_e, xi_e) -> float:
    """Adversary cost ``sum coeff*xi_e**(-beta2)*powered + (m + theta_e*xi_e)*x``.

    Per edge: expected punishment plus handed-over revenue, with ``powered =
    x**beta1`` and ``theta_e``, ``xi_e`` the type and action at its target.
    """
    penalty = params.punishment_coeff * xi_e ** (-params.beta2) * powered
    revenue = (weights + theta_e * xi_e) * plan
    return float(np.sum(penalty + revenue))


def _aggregates(network, plan, params) -> tuple[np.ndarray, np.ndarray]:
    """Per-target penalty scale ``A_q = sum coeff*x**beta1`` and flow ``S_q = sum x``."""
    penalty = params.punishment_coeff * plan ** params.beta1
    return tuple(np.bincount(network.edge_target, w, network.n_targets) for w in (penalty, plan))


def minimize_node_cost(
    penalty_scale: np.ndarray,
    flow_term: np.ndarray,
    beta2: float,
    caps: np.ndarray,
) -> np.ndarray:
    """Minimizer of ``f(xi) = A*xi**(-beta2) + B*xi`` on ``[floor, cap]`` per node.

    For ``B > 0`` the objective is strictly convex on xi > 0 with unique
    stationary point ``(beta2*A/B)**(1/(1+beta2))``, clipped into the box.
    With no flow (``B == 0``) the objective only decays, so the cap is optimal.
    ``A``, ``B`` and the caps broadcast against each other.
    """
    scale = np.asarray(penalty_scale, dtype=float)
    flow = np.atleast_1d(np.asarray(flow_term, dtype=float))
    caps = np.asarray(caps, dtype=float)
    # The stationary point is not used where there is no flow, so its 0/0 is silenced.
    with np.errstate(divide="ignore", invalid="ignore"):
        stationary = (beta2 * scale / flow) ** (1.0 / (1.0 + beta2))
    return np.where(flow <= 0, caps, np.clip(stationary, PERTURBATION_FLOOR, caps))


def threshold_phi(xi_t, xi_prev, tau: float):
    """Inertial thresholding of an action against the previous stage's.

    Flat at ``xi_prev`` while ``xi_t < xi_prev + tau``, then shifted-linear
    ``xi_t - tau``; the knee itself belongs to the linear branch, where both
    branches agree, so the map is continuous, nondecreasing and 1-Lipschitz.
    """
    xi_t = np.asarray(xi_t, dtype=float)
    xi_prev = np.asarray(xi_prev, dtype=float)
    out = np.where(xi_t < xi_prev + tau, xi_prev, xi_t - tau)
    return float(out) if out.ndim == 0 else out


TYPE_VALUES = np.array([1.0, 2.0])  # minor and major: the type multiplies its action


def _stage_response(network, plan, params, caps, xi_prev, tau: float):
    """Per-target, per-type tables of the stage cost ``A*z**(-beta2) + B*z`` and its minimizer.

    ``A`` is the penalty scale, one column, and ``B = type*S`` the flow
    term, one column per entry of ``TYPE_VALUES``; ``caps`` and ``xi_prev``
    broadcast to ``(n_targets, 2)``.  ``z`` minimizes the cost over the
    thresholded actions ``z = phi(xi)``: as ``xi`` ranges over ``[floor,
    cap]``, ``phi(xi)`` covers exactly ``[xi_prev, max(xi_prev, cap - tau)]``,
    and by convexity the minimizer there is the static one on ``[floor,
    max(xi_prev, cap - tau)]`` raised to ``xi_prev``.
    """
    if not tau >= 0:  # also rejects NaN
        raise ValidationError("tau must be >= 0")
    scale, flow = _aggregates(network, check_plan(network, plan), params)
    scale, flow_term = scale[:, None], flow[:, None] * TYPE_VALUES
    z_hi = np.maximum(xi_prev, np.asarray(caps, dtype=float) - tau)
    z = np.maximum(minimize_node_cost(scale, flow_term, params.beta2, z_hi), xi_prev)
    return scale, flow_term, z


def stage_adversary_best_response(
    network: BipartiteNetwork,
    plan: np.ndarray,
    params: AdversaryCostParams,
    caps: np.ndarray,
    type_value: int,
    xi_prev: np.ndarray,
    tau: float,
) -> np.ndarray:
    """Per-target stage action of one type, minimizing the thresholded cost.

    The type's column of :func:`best_response_strategy`: the minimizer
    ``z`` over the range of ``phi`` (see :func:`_stage_response`) maps back
    through ``xi = z + tau``, except that minimizers stuck at the range's
    lower end stay at the previous action (no incentive to move inside the
    flat region).  Nothing in the package calls it: it stays only because
    the benchmark's tracer wraps it by name in :mod:`advot.dynamic_game`.
    """
    if type_value not in (1, 2):
        raise ValidationError("type_value must be 1 (minor) or 2 (major)")
    caps, xi_prev = (np.reshape(np.asarray(a, dtype=float), (-1, 1)) for a in (caps, xi_prev))
    _, _, z = _stage_response(network, plan, params, caps, xi_prev, tau)
    return np.where(z > xi_prev, z + tau, xi_prev)[:, type_value - 1]


def best_response_strategy(
    spec: GameSpec, plan: np.ndarray, xi_prev=PERTURBATION_FLOOR, tau: float = 0.0
) -> np.ndarray:
    """Both types' stage best responses as an (n_targets, 2) table, in one pass.

    Each column is what :func:`stage_adversary_best_response` plays for its
    type.  The defaults, previous action at the floor and ``tau = 0``, pose
    the static game.
    """
    xi_prev = np.asarray(xi_prev, dtype=float)
    _, _, z = _stage_response(spec.network, plan, spec.cost_params, spec.caps(), xi_prev, tau)
    return np.where(z > xi_prev, z + tau, xi_prev)


def deviation_check(
    spec: GameSpec,
    plan: np.ndarray,
    xi: np.ndarray,
    belief: np.ndarray | None = None,
    xi_prev=PERTURBATION_FLOOR,
    tau: float = 0.0,
) -> float:
    """Largest unilateral improvement from moving one coordinate to its best value.

    For the dispatcher, one plan coordinate moves inside its row's remaining
    slack, over ``[0, hi]`` with ``hi = max(plan_e + slack_j, 0)``; the
    utility ``w*y - lam*y*log(y)`` is concave, so the best point is
    ``min(hi, exp(w/lam - 1))``.  For the adversary, one per-node action per
    type moves over ``[floor, cap]``, and its best thresholded action is the
    one :func:`best_response_strategy` plays.  Payoffs are the
    stage's: both players see the action thresholded against ``xi_prev``,
    and the dispatcher weighs it under ``belief`` (default: the spec's
    prior).  The defaults pose the static game.  The result is >= 0 up to
    rounding; a value <= ``DEVIATION_TOL`` certifies the profile.
    """
    network, lam = spec.network, spec.settings.lam
    plan = check_plan(network, plan)
    xi = check_strategy(xi, spec.lower_caps, spec.upper_caps)
    belief = check_belief(spec.belief if belief is None else belief, network.n_targets)
    xi_prev = np.asarray(xi_prev, dtype=float)
    effective = threshold_phi(xi, xi_prev, tau)

    w_eff = _perceived(network, spec.weights, effective, belief)
    slack = network.capacities - network.row_sums(plan)
    hi = np.maximum(plan + slack[network.edge_source], 0.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        y = np.stack([np.minimum(hi, np.exp(w_eff / lam - 1.0)), plan])
        utility = w_eff * y - lam * np.where(y > 0, y * np.log(y), 0.0)
    gain = utility[0] - utility[1]

    scale, flow_term, best = _stage_response(
        network, plan, spec.cost_params, spec.caps(), xi_prev, tau
    )
    z = np.stack([effective, best])
    cost = scale * z ** (-spec.cost_params.beta2) + flow_term * z
    reduction = cost[0] - cost[1]
    return max(float(gain.max()), float(reduction.max()))


def stage_payoffs(
    spec: GameSpec, belief: np.ndarray, plan: np.ndarray, effective: np.ndarray
) -> tuple[float, float, float]:
    """Dispatcher utility and the minor and major types' costs against the effective action."""
    network, weights, params, lam = spec.network, spec.weights, spec.cost_params, spec.settings.lam
    plan = check_plan(network, plan)
    belief = check_belief(belief, network.n_targets)
    utility = planner_objective(plan, _perceived(network, weights, effective, belief), lam)
    powered = plan ** params.beta1
    costs = (_edge_cost(params, plan, powered, weights, t, effective[network.edge_target, t - 1])
             for t in (1, 2))
    return (utility, *costs)


def _anderson_step(history: list, g: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Next trial action of type-II Anderson mixing (Walker & Ni 2011), before clipping.

    ``history`` holds the last rounds' ``(g, f)``: the best response and its
    residual ``f = g - x``.  A residual larger than the last one clears it,
    and with no history left the step is the plain ``x = g``.  Otherwise
    ``dG`` and ``dF`` are the differences of the last ``ANDERSON_MEMORY + 1``
    entries, and the step is ``g - dG @ gamma`` with ``gamma`` the
    least-squares fit of ``dF @ gamma`` to ``f``.
    """
    if history and np.linalg.norm(f) > np.linalg.norm(history[-1][1]):
        history.clear()
    history.append((g.ravel(), f.ravel()))
    del history[:-(ANDERSON_MEMORY + 1)]
    g_hist, f_hist = (np.array(column).T for column in zip(*history))
    d_g, d_f = np.diff(g_hist, axis=1), np.diff(f_hist, axis=1)
    gamma = np.linalg.lstsq(d_f, f.ravel(), rcond=None)[0]
    return g - (d_g @ gamma).reshape(g.shape)


def stage_equilibrium(
    spec: GameSpec,
    belief: np.ndarray,
    xi_prev,
    tau: float,
    plan: np.ndarray,
    max_rounds: int = MAX_ROUNDS,
    record_trace: bool = False,
) -> EquilibriumProfile:
    """Iterate both best responses of one stage, Anderson-accelerated, until they settle.

    The adversary's trial action ``x`` starts at its stage best response
    (:func:`best_response_strategy`) to the handed ``plan``, and the
    dispatcher at ``plan``.  Each round solves the dispatcher's transport
    problem at ``x`` thresholded against ``xi_prev`` and weighed under
    ``belief``, then takes the adversary's best response ``g`` to that plan.
    The loop stops when neither the plan nor the residual ``g - x`` moves
    more than ``PROFILE_TOL``; otherwise the next ``x`` is
    :func:`_anderson_step` clipped into ``[floor, caps]``.  The anchor
    ``xi_prev``, broadcast to ``(n_targets, 2)``, and the belief are checked
    once, on entry: with the anchor in ``[floor, caps]`` every thresholded
    trial action lies there too.  The profile is the last plan and
    ``g``, and a traced round records them with the payoffs at ``phi(g)``.
    :func:`deviation_check` then certifies the profile; ``converged``
    requires the loop to settle, the last transport solve to converge and
    the deviation gap to be within tolerance.
    """
    network, weights, settings, caps = spec.network, spec.weights, spec.settings, spec.caps()
    try:
        anchor = np.broadcast_to(np.asarray(xi_prev, dtype=float), caps.shape)
    except ValueError:
        raise DimensionMismatch(
            f"anchor has shape {np.shape(xi_prev)}, which does not broadcast to {caps.shape}"
        ) from None
    check_strategy(anchor, spec.lower_caps, spec.upper_caps)
    x = xi = best_response_strategy(spec, plan, xi_prev, tau)
    belief = check_belief(belief, network.n_targets)
    history: list = []
    trace: list[dict] = []
    settled = inner_converged = False
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        w_eff = _perceived(network, weights, threshold_phi(x, xi_prev, tau), belief)
        report = solve_regularized_ot(network, w_eff, settings)
        plan_new, inner_converged = report.plan, report.converged
        xi = best_response_strategy(spec, plan_new, xi_prev, tau)
        residual = xi - x
        change = max(float(np.max(np.abs(plan_new - plan))), float(np.max(np.abs(residual))))
        plan = plan_new
        if record_trace:
            utility, minor, major = stage_payoffs(spec, belief, plan, threshold_phi(xi, xi_prev, tau))
            trace.append({"round": rounds, "plan": plan, "xi_minor": xi[:, 0], "xi_major": xi[:, 1],
                          "dispatcher_utility": utility, "adversary_cost_minor": minor,
                          "adversary_cost_major": major})
        if change <= PROFILE_TOL:
            settled = True
            break
        x = np.clip(_anderson_step(history, xi, residual), PERTURBATION_FLOOR, caps)
    gap = deviation_check(spec, plan, xi, belief, xi_prev, tau)
    converged = settled and inner_converged and gap <= DEVIATION_TOL
    if not converged:
        logger.info(
            "equilibrium search stopped after %d rounds "
            "(settled=%s, last inner solve converged=%s, gap=%.3e)",
            rounds, settled, inner_converged, gap,
        )
    return EquilibriumProfile(
        plan=plan,
        strategy=xi,
        iterations=rounds,
        converged=converged,
        deviation_gap=gap,
        trace=trace,
    )


def solve_bayesian_equilibrium(
    spec: GameSpec, record_trace: bool = False
) -> EquilibriumProfile:
    """The static equilibrium: one stage with the previous action at the floor and ``tau = 0``.

    The dispatcher starts from the adversary-free plan.
    """
    base = solve_regularized_ot(spec.network, spec.weights, spec.settings)
    return stage_equilibrium(
        spec, spec.belief, PERTURBATION_FLOOR, 0.0, base.plan, record_trace=record_trace
    )
