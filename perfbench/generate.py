"""Seeded scenario generator for the benchmark workloads.

Two shapes, both drawn from the test suite's reference ranges
(capacities, weights and caps as in ``tests/conftest.py::make_random_spec``):

* ``dense``: every source is joined to every target;
* ``sparse``: source degrees are log-spaced from ``SPARSE_MIN_DEGREE`` to
  ``SPARSE_MAX_DEGREE`` (tens to a few hundred), each source's targets are drawn at
  random, and every target is given at least one edge by construction.

The same seed gives a byte-identical file.  Instances are never filtered or
re-drawn: whatever the seed produces is what the benchmark runs.

Parameters are drawn jointly for a pool of instances (see ``_stratified``).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SPARSE_SOURCES = 80
SPARSE_TARGETS = 500
SPARSE_MIN_DEGREE = 20
SPARSE_MAX_DEGREE = 400


def _r(values) -> list[float]:
    return [round(float(v), 6) for v in values]


def _stratified(rng: np.random.Generator, low: float, high: float, size: int, count: int) -> np.ndarray:
    """``count`` vectors of ``size`` uniform draws on [low, high), stratified.

    The range is cut into ``size`` equal strata and each vector takes one
    value from every stratum, in random order; within a stratum the ``count``
    vectors take distinct sub-strata.  Every value is still marginally uniform
    on the range, as in the reference ranges, but the extremes that set a
    run's cost (such as the smallest capacity) vary far less between seeds,
    both within one instance and across a pool of instances.
    """
    sub = np.argsort(rng.random((size, count)), axis=1)
    cells = (np.arange(size)[:, None] * count + sub + rng.random((size, count))) / (size * count)
    values = low + (high - low) * cells.T
    return np.stack([rng.permutation(row) for row in values])


def _pool(sources, topologies, rng: np.random.Generator, n_targets: int) -> list[dict]:
    """One scenario per topology, parameters drawn jointly across the pool.

    ``topologies`` lists canonical-order (source index, target index) edges;
    every topology has the same number of edges.
    """
    count, n_edges, n_sources = len(topologies), len(topologies[0]), len(sources)
    targets = [f"t{q}" for q in range(n_targets)]
    capacities = _stratified(rng, 1.0, 5.0, n_sources, count)
    weights = _stratified(rng, 1.0, 5.0, n_edges, count)
    lower = _stratified(rng, 3.0, 6.0, n_targets, count)
    upper = lower + _stratified(rng, 1.0, 5.0, n_targets, count)
    coeff = _stratified(rng, 1.0, 3.0, n_edges, count)
    schedule_seeds = rng.integers(0, 2**31, size=count)
    return [
        {
            "network": {
                "sources": sources,
                "targets": targets,
                "edges": [[sources[j], targets[q]] for j, q in edges],
                "capacities": _r(capacities[k]),
            },
            "weights": _r(weights[k]),
            "adversary": {
                "lower_caps": _r(lower[k]),
                "upper_caps": _r(upper[k]),
                "punishment_coeff": _r(coeff[k]),
                "beta1": 0.5,
                "beta2": 0.5,
                "prior": "uniform",
            },
            "solver": {"lambda": 3.0, "gamma": 0.05, "tol": 1e-8, "max_iter": 50000},
            "dynamic": {"stages": 5, "tau": 0.5, "on_failure": "abort"},
            "distributed": {"mode": "random-subset", "seed": int(schedule_seeds[k])},
        }
        for k, edges in enumerate(topologies)
    ]


def dense_pool(n_sources: int, n_targets: int, seed: int, count: int) -> list[dict]:
    """``count`` complete bipartite games of ``n_sources`` x ``n_targets``."""
    rng = np.random.default_rng([seed, n_sources, n_targets, count])
    sources = [f"s{j}" for j in range(n_sources)]
    edges = [(j, q) for j in range(n_sources) for q in range(n_targets)]
    return _pool(sources, [edges] * count, rng, n_targets)


def sparse_degrees() -> np.ndarray:
    """Log-spaced source degrees; their sum (the edge count) does not depend on the seed."""
    return np.rint(np.geomspace(SPARSE_MIN_DEGREE, SPARSE_MAX_DEGREE, SPARSE_SOURCES)).astype(int)


def _sparse_topology(rng: np.random.Generator) -> list[tuple[int, int]]:
    degrees = rng.permutation(sparse_degrees())
    # Targets are first dealt round-robin to sources with room left, so no
    # target is isolated; the rest of each source's row is drawn at random.
    chosen: list[set[int]] = [set() for _ in range(SPARSE_SOURCES)]
    slot = 0
    for q in rng.permutation(SPARSE_TARGETS):
        while len(chosen[slot % SPARSE_SOURCES]) >= degrees[slot % SPARSE_SOURCES]:
            slot += 1
        chosen[slot % SPARSE_SOURCES].add(int(q))
        slot += 1
    for j, row in enumerate(chosen):
        free = np.setdiff1d(np.arange(SPARSE_TARGETS), sorted(row))
        row.update(int(q) for q in rng.choice(free, size=degrees[j] - len(row), replace=False))
    return [(j, q) for j, row in enumerate(chosen) for q in sorted(row)]


def sparse_pool(seed: int, count: int) -> list[dict]:
    """``count`` sparse games with uneven source degrees and a fixed edge count."""
    rng = np.random.default_rng([seed, SPARSE_SOURCES, SPARSE_TARGETS, count])
    sources = [f"s{j}" for j in range(SPARSE_SOURCES)]
    topologies = [_sparse_topology(rng) for _ in range(count)]
    return _pool(sources, topologies, rng, SPARSE_TARGETS)


def scenario_text(data: dict) -> str:
    return json.dumps(data, indent=1) + "\n"


def write_pool(pool: list[dict], out_dir: Path, stem: str) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, data in enumerate(pool):
        path = out_dir / f"{stem}-{k}.json"
        path.write_text(scenario_text(data), encoding="utf-8")
        paths.append(path)
    return paths
