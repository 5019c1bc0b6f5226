from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from advot import (
    AdversaryCostParams,
    GameSpec,
    SolverSettings,
    build_network,
    solve_regularized_ot,
    uniform_belief,
)
from advot.static_game import _perceived

ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = ROOT / "scenarios"


def load_perfbench(name: str):
    """A module of the benchmark's ``perfbench/`` directory, which is not a package."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PAPER_WEIGHTS = np.array([[1.0, 3.0, 5.0], [2.0, 5.0, 1.0]])
PAPER_CAPACITIES = (4.0, 3.0)
PAPER_LOWER = np.array([6.0, 4.0, 4.0])
PAPER_UPPER = np.array([8.0, 10.0, 10.0])
PAPER_COEFF = np.array([1.0, 2.0, 3.0])


def all_edges(sources, targets):
    return [(j, q) for j in sources for q in targets]


@pytest.fixture(scope="session")
def paper_network():
    sources = ["j1", "j2"]
    targets = ["q1", "q2", "q3"]
    return build_network(sources, targets, all_edges(sources, targets), PAPER_CAPACITIES)


@pytest.fixture(scope="session")
def paper_edge_weights(paper_network):
    return paper_network.edge_vector(PAPER_WEIGHTS)


@pytest.fixture(scope="session")
def paper_spec(paper_network, paper_edge_weights):
    return GameSpec(
        network=paper_network,
        weights=paper_edge_weights,
        lower_caps=PAPER_LOWER,
        upper_caps=PAPER_UPPER,
        cost_params=AdversaryCostParams.for_network(paper_network, PAPER_COEFF, 0.5, 0.5),
        belief=uniform_belief(3),
        settings=SolverSettings(),
    )


def make_random_spec(rng, n_sources=2, n_targets=2, lam=3.0, edges=None):
    """Small random game instance with parameters in the reference ranges.

    ``edges`` lists ``(s<i>, t<k>)`` id pairs; by default every source is
    joined to every target.
    """
    sources = [f"s{i}" for i in range(n_sources)]
    targets = [f"t{i}" for i in range(n_targets)]
    network = build_network(
        sources,
        targets,
        all_edges(sources, targets) if edges is None else edges,
        rng.uniform(1.0, 5.0, size=n_sources),
    )
    weights = rng.uniform(1.0, 5.0, size=network.n_edges)
    lower = rng.uniform(3.0, 6.0, size=n_targets)
    upper = lower + rng.uniform(1.0, 5.0, size=n_targets)
    coeff = rng.uniform(1.0, 3.0, size=network.n_edges)
    return GameSpec(
        network=network,
        weights=weights,
        lower_caps=lower,
        upper_caps=upper,
        cost_params=AdversaryCostParams(punishment_coeff=coeff, beta1=0.5, beta2=0.5),
        belief=uniform_belief(n_targets),
        settings=SolverSettings(lam=lam),
    )


def perceived_solve(spec, xi):
    """The dispatcher's transport solve against the actions ``xi``, weighed under the spec's prior."""
    weights = _perceived(spec.network, spec.weights, xi, spec.belief)
    return solve_regularized_ot(spec.network, weights, spec.settings)
