"""Entropic-regularized transport over a bipartite network.

The dispatcher maximizes ``sum(m*x) - lam*sum(x*log x)`` subject to per-source
capacities ``Bx <= c`` and ``x >= 0``.  With ``lam > 0`` the plan at given
prices has a closed form per edge (:func:`_plan`).  The capacity constraints
are per source, so the dual splits by source and each optimal price has a
closed form too (:func:`row_prices`, one-marginal Sinkhorn scaling).
:func:`solve_regularized_ot` is one pass: the plan at those prices, and the
complementary-slackness residual that checks it against ``tol``.  ``lam == 0``
degenerates to a linear program whose vertex solution is computed greedily.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import NonFiniteIterate, ValidationError, ZeroLambda
from .network import BipartiteNetwork, check_edge_vector

logger = logging.getLogger(__name__)


def _check_count(value, name: str, minimum: int) -> None:
    """Reject a count that is not a Python or numpy integer (bool included) or is below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError(f"{name} must be an integer")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}")


def _check_lam(lam) -> None:
    """Reject a smoothing weight that is not finite and >= 0; NaN fails every comparison."""
    if not 0 <= lam < np.inf:
        raise ValidationError("lam must be finite and >= 0")


@dataclass(frozen=True)
class SolverSettings:
    """Settings of a transport solve.

    ``lam`` is the smoothing weight; ``tol`` bounds the complementary-slackness
    residual a solve must reach to count as converged.
    """

    lam: float = 3.0
    tol: float = 1e-8

    def __post_init__(self):
        _check_lam(self.lam)
        if not 0 < self.tol < np.inf:
            raise ValidationError("tol must be finite and > 0")


@dataclass
class SolveReport:
    """Outcome of a solve: a transport solve, or a distributed run's last refresh.

    ``converged`` implies ``residual <= tol``.  ``iterations`` is 1 for a
    transport solve and the tick count for a distributed run.  ``trace``
    holds a distributed run's refreshes, one record each; a transport solve,
    one pass, leaves it empty, as its report is its one step.
    """

    plan: np.ndarray
    prices: np.ndarray
    iterations: int
    residual: float  # the worst complementary-slackness violation, also for a distributed run
    converged: bool
    trace: list[dict] = field(default_factory=list)


def _plan(weights, prices, lam: float) -> np.ndarray:
    """The closed-form plan at given prices, ``exp((m - p)/lam - 1)``, each price at its edges."""
    return np.exp((weights - prices) / lam - 1.0)


def _entropy(plan) -> np.ndarray:
    """``x*log x`` per entry, with ``0*log 0 = 0``: the log never sees a zero."""
    return plan * np.log(np.where(plan > 0, plan, 1.0))


def _utility(plan, weights, lam: float) -> float:
    """:func:`planner_objective` of a plan and weights the caller has already checked."""
    return float(np.dot(weights, plan)) - lam * float(_entropy(plan).sum())


def _slackness(network: BipartiteNetwork, prices, plan) -> float:
    """Worst complementary-slackness violation ``|min(p_j, c_j - row_sum_j)|`` over the sources."""
    return float(np.abs(np.minimum(prices, network.capacities - network.row_sums(plan))).max())


def planner_objective(plan: np.ndarray, weights: np.ndarray, lam: float) -> float:
    """Dispatcher utility ``sum(m*x) - lam*sum(x*log x)`` of a plan, with ``0*log 0 = 0``.

    The weights and the plan must be finite vectors of one length, the plan nonnegative; ``lam`` >= 0.
    """
    weights = check_edge_vector(weights, np.size(plan), "weights")
    plan = check_edge_vector(plan, len(weights), "plans", nonnegative=True)
    _check_lam(lam)
    return _utility(plan, weights, lam)


def row_prices(weights, edge_source, capacities, lam: float) -> np.ndarray:
    """Optimal capacity prices: ``p_j = max(0, lam*(logsumexp_e(m_e/lam - 1) - log c_j))``.

    The logsumexp runs over the edges leaving source ``j``, edge ``e`` leaving
    ``edge_source[e]``.  At that price the closed-form plan ``exp((m -
    p_j)/lam - 1)`` fills the capacity exactly, or the price is 0 because the
    unpriced plan already fits; either way the KKT conditions hold.  Each
    source's exponents are shifted by their maximum, so the prices stay
    finite when ``m/lam`` is large: one-marginal Sinkhorn scaling.
    """
    exponent = weights / lam - 1.0
    shift = np.full(len(capacities), -np.inf)
    np.maximum.at(shift, edge_source, exponent)
    mass = np.bincount(edge_source, np.exp(exponent - shift[edge_source]), len(capacities))
    return np.maximum(0.0, lam * (shift + np.log(mass) - np.log(capacities)))


def solve_regularized_ot(
    network: BipartiteNetwork,
    weights: np.ndarray,
    settings: SolverSettings = SolverSettings(),
) -> SolveReport:
    """The plan at the exact capacity prices, checked against ``settings.tol``.

    The prices are :func:`row_prices` of ``weights`` and the plan is the
    closed form ``exp((m - p_j)/lam - 1)`` at them, so stationarity holds by
    construction and primal feasibility and complementary slackness hold up
    to rounding.  The
    solve reports how far: its residual is the worst complementary-slackness
    violation ``|min(p_j, c_j - row_sum_j)|``.

    Parameters
    ----------
    network : BipartiteNetwork
    weights : ndarray, shape (n_edges,)
        Perceived intensity per edge (utility per resource unit).
    settings : SolverSettings
        Requires ``settings.lam > 0``.

    Returns
    -------
    SolveReport
        One iteration; ``plan`` is strictly positive, and ``converged`` is
        ``residual <= settings.tol``.  A ``tol`` below the rounding of the
        exact prices comes back with ``converged=False`` rather than raising.

    Raises
    ------
    NonFiniteIterate
        When the prices or the plan are not finite (the plan overflowed, as
        when ``lam`` is tiny against the weights), instead of returning them.
    """
    if settings.lam <= 0:
        raise ZeroLambda("solve_regularized_ot needs lam > 0; use unregularized_solve")
    w = check_edge_vector(weights, network.n_edges, "weights")
    prices = row_prices(w, network.edge_source, network.capacities, settings.lam)
    if not (np.isfinite(prices).all()
            and np.isfinite(plan := _plan(w, prices[network.edge_source], settings.lam)).all()):
        raise NonFiniteIterate(1, "prices or plan became non-finite at iteration 1")
    residual = _slackness(network, prices, plan)
    converged = residual <= settings.tol
    if not converged:
        logger.info("exact prices leave a residual of %.3e above tol", residual)
    return SolveReport(plan, prices, 1, residual, converged)


def unregularized_solve(network: BipartiteNetwork, weights: np.ndarray) -> np.ndarray:
    """Vertex solution of the ``lam == 0`` linear program.

    Each source pushes its full capacity onto its maximum-weight edge when
    that weight is positive (ties broken by canonical edge order) and ships
    nothing otherwise.
    """
    w = check_edge_vector(weights, network.n_edges, "weights")
    plan = np.zeros(network.n_edges)
    start = network.row_starts
    for j, (a, b) in enumerate(zip(start, start[1:])):
        best = a + int(np.argmax(w[a:b]))
        if w[best] > 0:
            plan[best] = network.capacities[j]
    return plan
