"""Bipartite network model: validation and canonical edge ordering.

Every solver in the package works on flat per-edge vectors.  The canonical
edge order is row-major by (source index, target index) and is fixed here,
at construction time, so plans, weights and trace columns all line up
without further bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from typing import Hashable, Iterable, Sequence

import numpy as np

from .errors import (
    DanglingEdge,
    DimensionMismatch,
    DuplicateEdge,
    IsolatedNode,
    NonpositiveCapacity,
    PerturbationBelowFloor,
    ValidationError,
)

#: Positivity floor for adversary perturbations.  The adversary cost carries
#: a xi**(-beta2) term and the belief update divides by belief-weighted
#: actions, so actions must stay strictly positive.
PERTURBATION_FLOOR = 1e-6

#: Absolute tolerance for belief normalization checks.
BELIEF_ATOL = 1e-12


def _frozen(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class BipartiteNetwork:
    """Validated bipartite network with a canonical edge ordering.

    Instances are immutable value objects (arrays are read-only) and safe to
    share across concurrent solver runs.  Construct via :func:`build_network`.
    """

    source_ids: tuple[Hashable, ...]
    target_ids: tuple[Hashable, ...]
    capacities: np.ndarray  # (n_sources,)
    edge_source: np.ndarray  # (n_edges,) source index of each edge
    edge_target: np.ndarray  # (n_edges,) target index of each edge

    @property
    def n_sources(self) -> int:
        return len(self.source_ids)

    @property
    def n_targets(self) -> int:
        return len(self.target_ids)

    @property
    def n_edges(self) -> int:
        return len(self.edge_source)

    @property
    def edges(self) -> tuple[tuple[Hashable, Hashable], ...]:
        """Each edge's (source id, target id) in canonical order, built on each access."""
        # object arrays keep each id whole, a tuple id included
        sources = np.fromiter(self.source_ids, object, self.n_sources)[self.edge_source]
        targets = np.fromiter(self.target_ids, object, self.n_targets)[self.edge_target]
        return tuple(zip(sources.tolist(), targets.tolist()))

    @property
    def row_starts(self) -> list[int]:
        """Source ``j``'s edges are ``row_starts[j]:row_starts[j + 1]`` of the canonical order.

        The running sums of the source degrees, from 0: the order is
        row-major, so each source's edges form one block.
        """
        return [0, *accumulate(np.bincount(self.edge_source, minlength=self.n_sources).tolist())]

    def row_sums(self, plan: np.ndarray) -> np.ndarray:
        """Per-source totals of a per-edge vector (equals incidence @ plan)."""
        return np.bincount(self.edge_source, weights=plan, minlength=self.n_sources)

    def plan_matrix(self, plan: np.ndarray) -> np.ndarray:
        """Dense (n_sources, n_targets) view of a per-edge vector."""
        out = np.zeros((self.n_sources, self.n_targets))
        out[self.edge_source, self.edge_target] = plan
        return out

    def edge_vector(self, matrix: np.ndarray) -> np.ndarray:
        """Per-edge vector extracted from a dense (n_sources, n_targets) array."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (self.n_sources, self.n_targets):
            raise DimensionMismatch(
                f"expected a {self.n_sources}x{self.n_targets} matrix, got {matrix.shape}"
            )
        return matrix[self.edge_source, self.edge_target]


def build_network(
    sources: Sequence[Hashable],
    targets: Sequence[Hashable],
    edges: Iterable[tuple[Hashable, Hashable]],
    capacities: Sequence[float],
) -> BipartiteNetwork:
    """Validate the raw description and return a canonical network.

    Edges may arrive in any order; the result is always sorted row-major by
    (source index, target index), so identical inputs yield identical
    networks regardless of input ordering.  The edges may be any iterable,
    read once.  Each edge is a list or tuple of two ids, and the capacities
    are numbers; other input raises :class:`ValidationError`.
    """
    source_ids, target_ids, edges = tuple(sources), tuple(targets), list(edges)
    n, m = len(source_ids), len(target_ids)
    if not source_ids or not target_ids:
        raise ValidationError("source and target node sets must be nonempty")
    if len(set(source_ids)) != n:
        raise ValidationError("duplicate source ids")
    if len(set(target_ids)) != m:
        raise ValidationError("duplicate target ids")
    if not edges:
        raise IsolatedNode("network has no edges")

    try:
        cap = np.asarray(list(capacities), dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError("capacities must be numeric") from None
    if cap.shape != (n,):
        raise ValidationError(f"capacities has {cap.size} entries for {n} sources")
    if not np.all(np.isfinite(cap)) or np.any(cap <= 0):
        raise NonpositiveCapacity("capacities must be finite and strictly positive")

    source_pos, target_pos = dict(zip(source_ids, range(n))), dict(zip(target_ids, range(m)))
    try:
        if not all(map(isinstance, edges, repeat((list, tuple)))) or set(map(len, edges)) != {2}:
            raise TypeError("an edge is not a pair")
        # one flat list: zip(*edges) would keep an iterator per edge alive for the GC to walk
        ends = list(chain.from_iterable(edges))
        j = np.fromiter(map(source_pos.__getitem__, ends[0::2]), np.intp, len(edges))
        q = np.fromiter(map(target_pos.__getitem__, ends[1::2]), np.intp, len(edges))
    except (KeyError, TypeError):
        # the first edge, in input order, that is not a pair of listed ids names the fault
        for edge in edges:
            if not isinstance(edge, (list, tuple)) or len(edge) != 2:
                raise ValidationError("every edge must be a [source, target] pair") from None
            head, tail = edge
            try:
                listed = head in source_pos and tail in target_pos
            except TypeError:  # an unhashable end cannot be a listed id
                listed = False
            if not listed:
                raise DanglingEdge(f"edge {tuple(edge)!r} references an unknown node id") from None
        raise
    # row-major order is the order of j * m + q, and a duplicate equals its neighbour
    keys = np.sort(j * m + q)
    if np.any(keys[1:] == keys[:-1]):
        raise DuplicateEdge("edge list contains duplicates")
    edge_source, edge_target = (_frozen(index, np.intp) for index in np.divmod(keys, m))
    for kind, ids, index in zip(("source", "target"), (source_ids, target_ids),
                                (edge_source, edge_target)):
        isolated = np.flatnonzero(np.bincount(index, minlength=len(ids)) == 0)
        if isolated.size:
            raise IsolatedNode(f"{kind} {ids[isolated[0]]!r} has no edges")
    return BipartiteNetwork(
        source_ids=source_ids,
        target_ids=target_ids,
        capacities=_frozen(cap),
        edge_source=edge_source,
        edge_target=edge_target,
    )


def check_edge_vector(values, n_edges: int, name: str, nonnegative: bool = False) -> np.ndarray:
    """Coerce to a float vector of shape ``(n_edges,)``, raising unless every entry is finite.

    ``name`` is the plural noun the messages use (``"weights"``, ``"plans"``);
    with ``nonnegative`` a negative entry raises too.
    """
    arr = np.asarray(values, dtype=float)
    if arr.shape != (n_edges,):
        raise DimensionMismatch(f"{name} have shape {arr.shape}, expected ({n_edges},)")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be finite")
    if nonnegative and (arr < 0).any():
        raise ValidationError(f"{name} must be elementwise nonnegative")
    return arr


def check_plan(network: BipartiteNetwork, plan: np.ndarray) -> np.ndarray:
    """Coerce to a per-edge float vector: finite and nonnegative, raising otherwise."""
    return check_edge_vector(plan, network.n_edges, "plans", nonnegative=True)


def uniform_belief(n_targets: int) -> np.ndarray:
    """Per-target (minor, major) probabilities, all set to one half."""
    return np.full((n_targets, 2), 0.5)


def check_belief(belief: np.ndarray, n_targets: int) -> np.ndarray:
    """Validate a per-target belief table: rows finite, nonnegative, summing to one."""
    arr = np.asarray(belief, dtype=float)
    if arr.shape != (n_targets, 2):
        raise DimensionMismatch(
            f"belief has shape {arr.shape}, expected ({n_targets}, 2)"
        )
    if not np.isfinite(arr).all():
        raise ValidationError("belief entries must be finite")
    if (arr < 0).any():
        raise ValidationError("belief entries must be nonnegative")
    if (np.abs(arr.sum(axis=1) - 1.0) > BELIEF_ATOL).any():
        raise ValidationError("belief rows must sum to 1")
    return arr


def check_strategy(
    xi: np.ndarray, lower_caps: np.ndarray, upper_caps: np.ndarray
) -> np.ndarray:
    """Validate a finite per-target, per-type action table against floor and caps.

    Column 0 holds the minor type's action (capped by ``lower_caps``),
    column 1 the major type's (capped by ``upper_caps``).
    """
    arr = np.asarray(xi, dtype=float)
    n = len(lower_caps)
    if arr.shape != (n, 2):
        raise DimensionMismatch(f"strategy has shape {arr.shape}, expected ({n}, 2)")
    if (arr < PERTURBATION_FLOOR).any():
        raise PerturbationBelowFloor(
            f"actions must stay >= {PERTURBATION_FLOOR} to keep costs finite"
        )
    if ((arr[:, 0] > np.asarray(lower_caps, float) * (1 + 1e-12)).any()
            or (arr[:, 1] > np.asarray(upper_caps, float) * (1 + 1e-12)).any()):
        raise ValidationError("an action exceeds its per-type cap")
    if not np.isfinite(arr).all():  # last, so that only NaN reaches it
        raise ValidationError("actions must be finite")
    return arr


def check_betas(*betas) -> None:
    """Reject a cost exponent outside ``[0, 1]``, or NaN, which fails every comparison."""
    if not all(0.0 <= beta <= 1.0 for beta in betas):
        raise ValidationError("beta exponents must lie in [0, 1]")


@dataclass(frozen=True)
class AdversaryCostParams:
    """Per-edge punishment coefficients and the two cost exponents.

    The adversary's expected penalty on an edge is
    ``coeff * xi**(-beta2) * x**beta1``; both exponents live in [0, 1].
    """

    punishment_coeff: np.ndarray  # (n_edges,)
    beta1: float
    beta2: float

    def __post_init__(self):
        coeff = _frozen(self.punishment_coeff)
        if coeff.ndim != 1:
            raise ValidationError("punishment_coeff must be a flat per-edge vector")
        if not np.all(np.isfinite(coeff)) or np.any(coeff <= 0):
            raise ValidationError("punishment coefficients must be positive and finite")
        check_betas(self.beta1, self.beta2)
        object.__setattr__(self, "punishment_coeff", coeff)

    @classmethod
    def for_network(
        cls, network: BipartiteNetwork, coeff, beta1: float, beta2: float
    ) -> "AdversaryCostParams":
        """Broadcast a scalar, per-target vector or dense matrix to per-edge form.

        A 1-D vector of length n_targets is read per-target; use the
        (n_sources, n_targets) matrix form for genuinely per-edge control.
        """
        arr = np.asarray(coeff, dtype=float)
        if arr.ndim == 0:
            per_edge = np.full(network.n_edges, float(arr))
        elif arr.ndim == 1 and arr.shape == (network.n_targets,):
            per_edge = arr[network.edge_target]
        elif arr.ndim == 1 and arr.shape == (network.n_edges,):
            per_edge = arr
        elif arr.ndim == 2:
            per_edge = network.edge_vector(arr)
        else:
            raise ValidationError(
                f"cannot map punishment coefficients of shape {arr.shape} onto edges"
            )
        return cls(punishment_coeff=per_edge, beta1=float(beta1), beta2=float(beta2))
