"""Entropic-regularized transport over a bipartite network.

The dispatcher maximizes ``sum(m*x) - lam*sum(x*log x)`` subject to per-source
capacities ``Bx <= c`` and ``x >= 0``.  With ``lam > 0`` the primal update has
a closed form per edge.  The capacity constraints are per source, so the dual
splits by source and each optimal price has a closed form too
(:func:`capacity_prices`, one-marginal Sinkhorn scaling).
:func:`solve_regularized_ot` starts from those prices and runs projected
subgradient ascent on them: its first step checks the KKT conditions, and
further steps only run when the exact prices miss ``tol``.  ``lam == 0``
degenerates to a linear program whose vertex solution is computed greedily.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import DimensionMismatch, NonFiniteIterate, ValidationError, ZeroLambda
from .network import BipartiteNetwork, check_plan

logger = logging.getLogger(__name__)


def _check_integer(value, name: str) -> None:
    """Reject a count that is not a Python or numpy integer (bool included)."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError(f"{name} must be an integer")


@dataclass(frozen=True)
class SolverSettings:
    """Knobs for the dual-pricing loop.

    ``lam`` is the smoothing weight, ``gamma`` the dual step size, ``tol``
    bounds both the complementary-slackness residual and the primal change at
    convergence.
    """

    lam: float = 3.0
    gamma: float = 0.05
    tol: float = 1e-8
    max_iter: int = 50_000

    def __post_init__(self):
        # Written so that NaN, which fails every comparison, is rejected too.
        if not 0 <= self.lam < np.inf:
            raise ValidationError("lam must be finite and >= 0")
        if not 0 < self.gamma < np.inf:
            raise ValidationError("gamma must be finite and > 0")
        if not 0 < self.tol < np.inf:
            raise ValidationError("tol must be finite and > 0")
        _check_integer(self.max_iter, "max_iter")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be a positive integer")


@dataclass
class SolveReport:
    """Outcome of a dual-pricing run.

    ``converged`` implies ``residual <= tol``.  ``trace`` holds one record per
    iteration when tracing was requested, else stays empty.
    """

    plan: np.ndarray
    prices: np.ndarray
    iterations: int
    residual: float
    converged: bool
    trace: list[dict] = field(default_factory=list)


def entropy_sum(plan: np.ndarray) -> float:
    """sum(x*log x) with the continuous extension 0*log 0 = 0."""
    x = np.asarray(plan, dtype=float)
    out = np.zeros_like(x)
    positive = x > 0
    out[positive] = x[positive] * np.log(x[positive])
    return float(out.sum())


def planner_objective(plan: np.ndarray, weights: np.ndarray, lam: float) -> float:
    """Dispatcher utility ``sum(m*x) - lam*sum(x*log x)`` of a plan."""
    plan = np.asarray(plan, dtype=float)
    if np.any(plan < 0):
        raise ValidationError("plans must be elementwise nonnegative")
    return float(np.dot(np.asarray(weights, float), plan)) - lam * entropy_sum(plan)


def _check_weights(network: BipartiteNetwork, weights) -> np.ndarray:
    arr = np.asarray(weights, dtype=float)
    if arr.shape != (network.n_edges,):
        raise DimensionMismatch(
            f"weights have shape {arr.shape}, expected ({network.n_edges},)"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError("weights must be finite")
    return arr


def primal_update(
    network: BipartiteNetwork, weights: np.ndarray, prices: np.ndarray, lam: float
) -> np.ndarray:
    """Closed-form plan given prices: ``x = exp((m - p_j)/lam - 1)`` per edge.

    Always strictly positive; undefined at ``lam == 0``.
    """
    if lam <= 0:
        raise ZeroLambda("primal update needs lam > 0; use unregularized_solve")
    w = _check_weights(network, weights)
    p = np.asarray(prices, dtype=float)
    if p.shape != (network.n_sources,):
        raise DimensionMismatch(
            f"prices have shape {p.shape}, expected ({network.n_sources},)"
        )
    return np.exp((w - p[network.edge_source]) / lam - 1.0)


def dual_update(
    network: BipartiteNetwork, prices: np.ndarray, plan: np.ndarray, gamma: float
) -> np.ndarray:
    """Projected price ascent: ``p_j <- max(0, p_j + gamma*(row_sum_j - c_j))``.

    The projection keeps every capacity price nonnegative, so overloaded
    sources get more expensive and slack sources drift back to zero.
    """
    x = check_plan(network, plan)
    rows = network.row_sums(x)
    return np.maximum(0.0, prices + gamma * (rows - network.capacities))


def capacity_prices(network: BipartiteNetwork, weights: np.ndarray, lam: float) -> np.ndarray:
    """Optimal capacity prices: ``p_j = max(0, lam*(logsumexp_e(m_e/lam - 1) - log c_j))``.

    The logsumexp runs over the edges leaving source ``j``.  At that price
    the closed-form plan ``exp((m - p_j)/lam - 1)`` fills the capacity
    exactly, or the price is 0 because the unpriced plan already fits; either
    way the KKT conditions hold.  Each source's exponents are shifted by
    their maximum, so the prices stay finite when ``m/lam`` is large.  This
    is the one-marginal case of Sinkhorn scaling.
    """
    if lam <= 0:
        raise ZeroLambda("capacity prices need lam > 0; use unregularized_solve")
    w = _check_weights(network, weights)
    return row_prices(w, network.edge_source, network.capacities, lam)


def row_prices(weights, edge_source, capacities, lam: float) -> np.ndarray:
    """:func:`capacity_prices` on bare arrays: edge ``e`` leaves source ``edge_source[e]``."""
    exponent = weights / lam - 1.0
    shift = np.full(len(capacities), -np.inf)
    np.maximum.at(shift, edge_source, exponent)
    mass = np.bincount(edge_source, np.exp(exponent - shift[edge_source]), len(capacities))
    return np.maximum(0.0, lam * (shift + np.log(mass) - np.log(capacities)))


def solve_regularized_ot(
    network: BipartiteNetwork,
    weights: np.ndarray,
    settings: SolverSettings = SolverSettings(),
    record_trace: bool = False,
) -> SolveReport:
    """Start from the exact capacity prices and alternate primal and dual updates.

    The prices start at :func:`capacity_prices` of ``weights``, where the KKT
    conditions hold up to rounding, so the first ascent step is a check and
    the solve converges in one iteration unless ``tol`` is below what those
    prices reach.  Further steps take the projected ascent with step
    ``settings.gamma``.

    Parameters
    ----------
    network : BipartiteNetwork
    weights : ndarray, shape (n_edges,)
        Perceived intensity per edge (utility per resource unit).
    settings : SolverSettings
        Requires ``settings.lam > 0``.
    record_trace : bool
        Keep one record per iteration in the report's ``trace``.

    Returns
    -------
    SolveReport
        ``plan`` is feasible within ``tol`` and strictly positive; ``residual``
        is the worst complementary-slackness violation ``|min(p_j, slack_j)|``.
        When the iteration budget runs out the report comes back with
        ``converged=False`` rather than raising.

    Raises
    ------
    NonFiniteIterate
        At the first iteration whose prices are not finite (the plan
        overflowed, as when ``lam`` is tiny against the weights), instead of
        returning them.
    """
    if settings.lam <= 0:
        raise ZeroLambda("solve_regularized_ot needs lam > 0; use unregularized_solve")
    w = _check_weights(network, weights)
    prices = row_prices(w, network.edge_source, network.capacities, settings.lam)

    trace: list[dict] = []
    x = None
    for iteration in range(1, settings.max_iter + 1):
        x_new = primal_update(network, w, prices, settings.lam)
        prices = dual_update(network, prices, x_new, settings.gamma)
        if not np.all(np.isfinite(prices)):
            raise NonFiniteIterate(iteration)
        rows = network.row_sums(x_new)
        residual = float(np.max(np.abs(np.minimum(prices, network.capacities - rows))))
        # iteration 1 has no earlier plan to compare with
        primal_change = 0.0 if x is None else float(np.max(np.abs(x_new - x)))
        x = x_new
        if record_trace:
            trace.append(
                {
                    "iteration": iteration,
                    "plan": x,
                    "prices": prices,
                    "residual": residual,
                    "objective": planner_objective(x, w, settings.lam),
                }
            )
        if residual <= settings.tol and primal_change <= settings.tol:
            logger.debug("dual pricing converged in %d iterations", iteration)
            return SolveReport(x, prices, iteration, residual, True, trace)
    logger.info(
        "dual pricing hit max_iter=%d with residual %.3e", settings.max_iter, residual
    )
    return SolveReport(x, prices, settings.max_iter, residual, False, trace)


def unregularized_solve(network: BipartiteNetwork, weights: np.ndarray) -> np.ndarray:
    """Vertex solution of the ``lam == 0`` linear program.

    Each source pushes its full capacity onto its maximum-weight edge when
    that weight is positive (ties broken by canonical edge order) and ships
    nothing otherwise.
    """
    w = _check_weights(network, weights)
    plan = np.zeros(network.n_edges)
    for j in range(network.n_sources):
        idx = network.edges_from(j)
        best = idx[int(np.argmax(w[idx]))]
        if w[best] > 0:
            plan[best] = network.capacities[j]
    return plan
