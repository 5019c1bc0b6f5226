"""Independent reference computations used only by the test suite.

Each oracle here deliberately takes a different route than the library:
general-purpose NLP/LP solvers, dense grid search, bisection on composed
maps, brute-force enumeration of the joint type space, per-coordinate
loops over a grid certificate's rows, one type at a time through the stage
best response's steps, the unaccelerated best-response iteration, a joint
type's adversary cost one edge at a time, one ``json.dumps`` per
message-log record, and the per-edge loop that builds a network.  Where an
oracle needs the perceived weights or the per-target cost aggregates as a
building block, it calls the kernel the engine runs,
``advot.static_game._perceived`` or ``_aggregates``.  Thin helpers that
only tests call, ``adversary_best_response``, ``agent_tick``,
``edges_from`` and ``edges_into``, live here too.
"""

from __future__ import annotations

import json
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

import numpy as np
from scipy import optimize

from advot import (
    PERTURBATION_FLOOR,
    BipartiteNetwork,
    DanglingEdge,
    DuplicateEdge,
    IsolatedNode,
    NonpositiveCapacity,
    ValidationError,
    check_belief,
    minimize_node_cost,
    solve_regularized_ot,
    stage_adversary_best_response,
    threshold_phi,
)
from advot.static_game import PROFILE_TOL, _aggregates, _perceived


@contextmanager
def _quiet_scipy():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        warnings.simplefilter("ignore", UserWarning)
        yield


def slsqp_regularized_plan(network, weights, lam, x0=None):
    """Maximize sum(m*x) - lam*sum(x*log x) under row capacities via SLSQP."""
    w = np.asarray(weights, dtype=float)

    def neg_obj(x):
        xs = np.clip(x, 1e-300, None)
        return -(w @ x - lam * np.sum(x * np.log(xs)))

    constraints = []
    for j in range(network.n_sources):
        idx = edges_from(network, j)
        cj = float(network.capacities[j])
        constraints.append(
            {"type": "ineq", "fun": lambda x, idx=idx, cj=cj: cj - x[idx].sum()}
        )
    spread = network.capacities[network.edge_source] / np.bincount(
        network.edge_source, minlength=network.n_sources
    )[network.edge_source]
    starts = [np.full(network.n_edges, 0.2), 0.5 * spread]
    if x0 is not None:
        starts.insert(0, np.asarray(x0, float))
    with _quiet_scipy():
        for start in starts:
            res = optimize.minimize(
                neg_obj,
                start,
                method="SLSQP",
                bounds=[(1e-12, None)] * network.n_edges,
                constraints=constraints,
                options={"ftol": 1e-14, "maxiter": 2000},
            )
            if res.success:
                return res.x
        # SLSQP can abort its line search on flat regions; fall back
        incidence = np.zeros((network.n_sources, network.n_edges))
        incidence[network.edge_source, np.arange(network.n_edges)] = 1.0
        res = optimize.minimize(
            neg_obj,
            starts[-1],
            method="trust-constr",
            bounds=optimize.Bounds(np.full(network.n_edges, 1e-12), np.inf),
            constraints=[optimize.LinearConstraint(incidence, -np.inf, network.capacities)],
            options={"gtol": 1e-12, "xtol": 1e-14, "maxiter": 5000},
        )
    assert res.status in (1, 2), res.message
    return res.x


def lp_plan(network, weights):
    """Linear-program optimum (lam == 0 case) via scipy's HiGHS backend."""
    A = np.zeros((network.n_sources, network.n_edges))
    A[network.edge_source, np.arange(network.n_edges)] = 1.0
    res = optimize.linprog(
        -np.asarray(weights, dtype=float),
        A_ub=A,
        b_ub=np.asarray(network.capacities, dtype=float),
        bounds=[(0, None)] * network.n_edges,
        method="highs",
    )
    assert res.status == 0, res.message
    return res.x


def grid_min_cost(scale, flow, beta2, lower, upper, step=1e-5):
    """Dense-grid minimizer of f(z) = A*z**(-beta2) + B*z on [lower, upper]."""
    count = int(np.floor((upper - lower) / step)) + 1
    grid = lower + step * np.arange(count)
    if grid[-1] < upper:
        grid = np.append(grid, upper)
    values = scale * grid ** (-beta2) + flow * grid
    k = int(np.argmin(values))
    return float(grid[k]), float(values[k])


def grid_min_thresholded_cost(scale, flow, beta2, xi_prev, tau, lower, upper, step=1e-5):
    """Grid minimizer of the stage cost composed with the thresholding map."""
    count = int(np.floor((upper - lower) / step)) + 1
    grid = lower + step * np.arange(count)
    if grid[-1] < upper:
        grid = np.append(grid, upper)
    z = np.where(grid < xi_prev + tau, xi_prev, grid - tau)
    values = scale * z ** (-beta2) + flow * z
    k = int(np.argmin(values))
    return float(grid[k]), float(values[k])


def bisection_1x1_equilibrium(
    m, c, lam, lower, upper, coeff, beta1, beta2, belief, floor=1e-6
):
    """Fixed point of the composed best-response map on a one-edge network.

    The composed map x -> dispatcher_BR(adversary_BR(x)) is continuous and
    decreasing, so its fixed point is the unique root of g(x) = map(x) - x.
    """

    def adversary(x, tval, cap):
        a = coeff * x ** beta1
        b = tval * x
        if b <= 0:
            return cap
        return min(max((beta2 * a / b) ** (1.0 / (1.0 + beta2)), floor), cap)

    def g(x):
        xi1 = adversary(x, 1, lower)
        xi2 = adversary(x, 2, upper)
        m_eff = m + belief[0] * xi1 + 2.0 * belief[1] * xi2
        return min(np.exp(m_eff / lam - 1.0), c) - x

    a, b = 1e-9, c + 1.0
    assert g(a) > 0 > g(b)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if g(mid) > 0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def enumerated_expected_utility(network, plan, weights, xi, belief, lam):
    """Expected dispatcher utility by summing over the full joint type space."""
    plan = np.asarray(plan, dtype=float)
    weights = np.asarray(weights, dtype=float)
    total = 0.0
    for theta in product((1, 2), repeat=network.n_targets):
        prob = float(np.prod([belief[q, t - 1] for q, t in enumerate(theta)]))
        value = 0.0
        for e in range(network.n_edges):
            q = int(network.edge_target[e])
            t = theta[q]
            value += (weights[e] + t * xi[q, t - 1]) * plan[e]
        total += prob * value
    entropy = float(np.sum(plan[plan > 0] * np.log(plan[plan > 0])))
    return total - lam * entropy


def per_edge_adversary_cost(network, plan, weights, xi, theta, params):
    """A joint type's cost, one edge at a time: expected punishment plus handed-over revenue.

    The edge ``e`` into target ``q`` of type ``t = theta[q]``, acting at
    ``a = xi[q, t - 1]``, costs ``coeff_e * a**(-beta2) * x_e**beta1 +
    (m_e + t*a) * x_e``.
    """
    total = 0.0
    for e in range(network.n_edges):
        q = int(network.edge_target[e])
        t = int(theta[q])
        action, x = float(xi[q, t - 1]), float(plan[e])
        total += params.punishment_coeff[e] * action ** -params.beta2 * x ** params.beta1
        total += (weights[e] + t * action) * x
    return total


def loop_deviation_gap(spec, plan, xi, belief, xi_prev, tau, grid_points=21):
    """Coordinate-wise grid certificate, one ``np.linspace`` row at a time.

    A reference for ``deviation_check``: the same stage payoffs, sampled on
    ``grid_points`` values per coordinate, looping in Python over every
    edge and every (target, type) pair.  Each grid is a subset of the
    coordinate's range, so the result bounds the exact gap from below and
    approaches it as the grid is refined.
    """
    effective = threshold_phi(xi, xi_prev, tau)
    belief = check_belief(belief, spec.network.n_targets)
    w_eff = _perceived(spec.network, spec.weights, effective, belief)
    rows = spec.network.row_sums(plan)
    slack = spec.network.capacities - rows
    lam = spec.settings.lam
    best = -np.inf
    for e in range(spec.network.n_edges):
        hi = max(plan[e] + slack[spec.network.edge_source[e]], 0.0)
        grid = np.linspace(0.0, hi, grid_points)
        ent = np.where(grid > 0, grid * np.log(np.where(grid > 0, grid, 1.0)), 0.0)
        base = w_eff[e] * plan[e] - lam * (plan[e] * np.log(plan[e]) if plan[e] > 0 else 0.0)
        best = max(best, float(np.max(w_eff[e] * grid - lam * ent - base)))
    scale, flow = _aggregates(spec.network, plan, spec.cost_params)
    beta2 = spec.cost_params.beta2
    caps = spec.caps()
    for q in range(spec.network.n_targets):
        for t in (1, 2):
            b = t * flow[q]
            cost = lambda raw: (
                scale[q] * threshold_phi(raw, xi_prev[q, t - 1], tau) ** (-beta2)
                + b * threshold_phi(raw, xi_prev[q, t - 1], tau)
            )
            grid = np.linspace(PERTURBATION_FLOOR, caps[q, t - 1], grid_points)
            best = max(best, float(np.max(cost(xi[q, t - 1]) - cost(grid))))
    return best


def per_type_stage_response(network, plan, params, caps, type_value, xi_prev, tau):
    """One type's stage best response, composed step by step on 1-d arrays.

    The aggregates ``A`` and ``S``; the static minimizer of ``A*z**(-beta2) +
    type*S*z`` on ``[floor, max(xi_prev, cap - tau)]``; raised to
    ``xi_prev``; and mapped back through ``xi = z + tau`` wherever it moved
    above ``xi_prev``.
    """
    scale, flow = _aggregates(network, plan, params)
    xi_prev = np.asarray(xi_prev, dtype=float)
    z_hi = np.maximum(xi_prev, np.asarray(caps, dtype=float) - tau)
    z = np.maximum(minimize_node_cost(scale, type_value * flow, params.beta2, z_hi), xi_prev)
    return np.where(z > xi_prev, z + tau, xi_prev)


def plain_best_response_iteration(spec, belief, xi_prev, tau, plan, tol=PROFILE_TOL):
    """The unaccelerated equilibrium loop ``xi <- BR(plan(xi))``, one type at a time.

    Starts with the actions at their caps and the given plan, not where the
    library's loop does (the adversary's best response to that plan), so it
    stays an independent reference.  Each round solves transport at the
    thresholded actions, takes each type's response with
    :func:`per_type_stage_response`, and the loop stops once neither the
    plan nor the actions move more than ``tol``.
    Returns ``(plan, xi, rounds)``.
    """
    caps = spec.caps()
    xi_prev = np.broadcast_to(np.asarray(xi_prev, dtype=float), caps.shape)
    belief = check_belief(belief, spec.network.n_targets)
    xi = caps
    for rounds in range(1, 10_001):
        effective = threshold_phi(xi, xi_prev, tau)
        w_eff = _perceived(spec.network, spec.weights, effective, belief)
        new_plan = solve_regularized_ot(spec.network, w_eff, spec.settings).plan
        new_xi = np.stack([
            per_type_stage_response(
                spec.network, new_plan, spec.cost_params, caps[:, t - 1], t,
                xi_prev[:, t - 1], tau,
            )
            for t in (1, 2)
        ], axis=1)
        change = max(np.max(np.abs(new_plan - plan)), np.max(np.abs(new_xi - xi)))
        plan, xi = new_plan, new_xi
        if change <= tol:
            return plan, xi, rounds
    raise AssertionError("the plain best-response iteration did not settle")


def incidence(network) -> np.ndarray:
    """0-1 source-by-edge matrix: entry (j, e) is 1 iff edge e leaves source j.

    Each column holds exactly one 1; row j holds one 1 per edge leaving j.
    """
    mat = np.zeros((network.n_sources, network.n_edges))
    mat[network.edge_source, np.arange(network.n_edges)] = 1.0
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True)
class TypeSpace:
    """Binary adversary types per target node: 1 = minor, 2 = major offender.

    The joint type space is the Cartesian product over targets, so it has
    2**n_targets elements; enumeration is mostly useful for brute-force
    expectation checks on small networks.
    """

    n_targets: int

    def __len__(self) -> int:
        return 2 ** self.n_targets

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return product((1, 2), repeat=self.n_targets)

    def joint_probability(self, theta: Sequence[int], belief: np.ndarray) -> float:
        """Probability of a joint type under a per-target belief table."""
        belief = check_belief(belief, self.n_targets)
        probs = [belief[q, t - 1] for q, t in enumerate(theta)]
        return float(np.prod(probs))


def adversary_best_response(network, plan, params, caps, type_value):
    """Per-target cost-minimizing action for one type branch of the static game.

    The static game's stage: previous action at the floor, ``tau = 0``.
    """
    return stage_adversary_best_response(
        network, plan, params, caps, type_value, PERTURBATION_FLOOR, 0.0
    )


def agent_tick(agent, weights=None):
    """Run one local update of a source agent, optionally delivering fresh weights first."""
    if weights is not None:
        for local_edge, weight in enumerate(np.asarray(weights, dtype=float)):
            agent.deliver(local_edge, float(weight))
    agent.tick()
    return agent


def reference_log_text(log) -> str:
    """A message log as text, one ``json.dumps`` per record of ``iter(log)``."""
    lines = [
        json.dumps(
            {
                "tick": m.tick,
                "sender": m.sender,
                "receiver": m.receiver,
                "kind": m.kind,
                "payload": m.payload,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        for m in log
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def edges_from(network, source_index: int) -> np.ndarray:
    """Edge indices leaving the given source, in canonical order."""
    return np.flatnonzero(network.edge_source == source_index)


def edges_into(network, target_index: int) -> np.ndarray:
    """Edge indices entering the given target, in canonical order."""
    return np.flatnonzero(network.edge_target == target_index)


def _frozen(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def reference_build_network(sources, targets, edges, capacities):
    """``build_network`` as a per-edge loop with a set and a sort of index pairs.

    Returns the network and its edges, built here from the sorted pairs.
    """
    source_ids = tuple(sources)
    target_ids = tuple(targets)
    if not source_ids or not target_ids:
        raise ValidationError("source and target node sets must be nonempty")
    if len(set(source_ids)) != len(source_ids):
        raise ValidationError("duplicate source ids")
    if len(set(target_ids)) != len(target_ids):
        raise ValidationError("duplicate target ids")
    if not edges:
        raise IsolatedNode("network has no edges")

    cap = np.asarray(list(capacities), dtype=float)
    if cap.shape != (len(source_ids),):
        raise ValidationError(
            f"capacities has {cap.size} entries for {len(source_ids)} sources"
        )
    if not np.all(np.isfinite(cap)) or np.any(cap <= 0):
        raise NonpositiveCapacity("capacities must be finite and strictly positive")

    source_pos = {s: i for i, s in enumerate(source_ids)}
    target_pos = {t: i for i, t in enumerate(target_ids)}
    indexed: list[tuple[int, int]] = []
    for edge in edges:
        j, q = edge
        if j not in source_pos or q not in target_pos:
            raise DanglingEdge(f"edge {tuple(edge)!r} references an unknown node id")
        indexed.append((source_pos[j], target_pos[q]))
    if len(set(indexed)) != len(indexed):
        raise DuplicateEdge("edge list contains duplicates")

    indexed.sort()
    used_sources = {j for j, _ in indexed}
    used_targets = {q for _, q in indexed}
    for j in range(len(source_ids)):
        if j not in used_sources:
            raise IsolatedNode(f"source {source_ids[j]!r} has no edges")
    for q in range(len(target_ids)):
        if q not in used_targets:
            raise IsolatedNode(f"target {target_ids[q]!r} has no edges")

    network = BipartiteNetwork(
        source_ids=source_ids,
        target_ids=target_ids,
        capacities=_frozen(cap),
        edge_source=_frozen([j for j, _ in indexed], dtype=np.intp),
        edge_target=_frozen([q for _, q in indexed], dtype=np.intp),
    )
    return network, tuple((source_ids[j], target_ids[q]) for j, q in indexed)
