from __future__ import annotations

import numpy as np
import pytest

from advot import (
    AdversaryCostParams,
    DanglingEdge,
    DimensionMismatch,
    DuplicateEdge,
    IsolatedNode,
    NonpositiveCapacity,
    ValidationError,
    build_network,
    feasibility_check,
    uniform_belief,
)
from advot.network import check_belief
from oracles import TypeSpace, incidence


def test_paper_network_is_valid(paper_network):
    assert paper_network.n_sources == 2
    assert paper_network.n_targets == 3
    assert paper_network.n_edges == 6


def test_minimal_network():
    net = build_network(["a"], ["b"], [("a", "b")], [1.0])
    assert net.n_edges == 1
    assert incidence(net).tolist() == [[1.0]]


def test_zero_capacity_rejected():
    with pytest.raises(NonpositiveCapacity):
        build_network(["a", "b"], ["c"], [("a", "c"), ("b", "c")], [0.0, 3.0])


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdge):
        build_network(["a"], ["b"], [("a", "b"), ("a", "b")], [1.0])


def test_dangling_edge_rejected():
    with pytest.raises(DanglingEdge):
        build_network(["a"], ["b"], [("a", "zzz")], [1.0])


def test_isolated_node_rejected():
    with pytest.raises(IsolatedNode):
        build_network(["a", "b"], ["c"], [("a", "c")], [1.0, 1.0])
    with pytest.raises(IsolatedNode):
        build_network(["a"], ["b", "c"], [("a", "b")], [1.0])


def test_capacity_length_mismatch_rejected():
    with pytest.raises(ValidationError):
        build_network(["a"], ["b"], [("a", "b")], [1.0, 2.0])


def test_canonical_order_is_input_independent():
    sources, targets = ["s1", "s2"], ["t1", "t2"]
    edges = [("s2", "t2"), ("s1", "t2"), ("s2", "t1"), ("s1", "t1")]
    reference = build_network(sources, targets, list(reversed(edges)), [1.0, 2.0])
    shuffled = build_network(sources, targets, edges, [1.0, 2.0])
    assert reference.edges == shuffled.edges
    assert reference.edges == (("s1", "t1"), ("s1", "t2"), ("s2", "t1"), ("s2", "t2"))
    np.testing.assert_array_equal(reference.edge_source, shuffled.edge_source)


def test_incidence_matches_paper_structure(paper_network):
    expected = [
        [1.0, 1.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
    ]
    assert incidence(paper_network).tolist() == expected


def test_incidence_diagonal_structure():
    net = build_network(["s1", "s2"], ["t1", "t2"], [("s1", "t1"), ("s2", "t2")], [1, 1])
    assert incidence(net).tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_incidence_columns_have_one_entry(paper_network):
    mat = incidence(paper_network)
    np.testing.assert_array_equal(mat.sum(axis=0), np.ones(paper_network.n_edges))


def test_row_sums_match_incidence_product(paper_network):
    rng = np.random.default_rng(7)
    for _ in range(20):
        plan = rng.uniform(0, 2, size=paper_network.n_edges)
        via_matrix = incidence(paper_network) @ plan
        np.testing.assert_allclose(paper_network.row_sums(plan), via_matrix, atol=1e-12)


def test_feasibility_zero_plan(paper_network):
    ok, slack = feasibility_check(np.zeros(6), paper_network)
    assert ok
    np.testing.assert_array_equal(slack, paper_network.capacities)


def test_feasibility_at_capacity_boundary(paper_network):
    plan = paper_network.edge_vector([[4.0, 0, 0], [0, 3.0, 0]])
    ok, slack = feasibility_check(plan, paper_network)
    assert ok
    np.testing.assert_allclose(slack, [0.0, 0.0], atol=1e-12)


def test_feasibility_detects_overload(paper_network):
    plan = paper_network.edge_vector([[4.1, 0, 0], [0, 3.0, 0]])
    ok, slack = feasibility_check(plan, paper_network, tol=1e-9)
    assert not ok
    assert slack[0] == pytest.approx(-0.1)


def test_feasibility_dimension_mismatch(paper_network):
    with pytest.raises(DimensionMismatch):
        feasibility_check(np.zeros(5), paper_network)


def test_network_arrays_are_immutable(paper_network):
    with pytest.raises(ValueError):
        paper_network.capacities[0] = 99.0
    with pytest.raises(ValueError):
        incidence(paper_network)[0, 0] = 2.0


def test_plan_matrix_round_trip(paper_network):
    plan = np.arange(6, dtype=float)
    matrix = paper_network.plan_matrix(plan)
    np.testing.assert_array_equal(paper_network.edge_vector(matrix), plan)


def test_type_space_size_and_probabilities():
    space = TypeSpace(3)
    assert len(space) == 8
    belief = uniform_belief(3)
    probs = [space.joint_probability(theta, belief) for theta in space]
    assert probs == pytest.approx([1 / 8] * 8)


def test_belief_validation():
    check_belief(uniform_belief(2), 2)
    with pytest.raises(ValidationError):
        check_belief(np.array([[0.6, 0.6], [0.5, 0.5]]), 2)
    with pytest.raises(ValidationError):
        check_belief(np.array([[1.2, -0.2], [0.5, 0.5]]), 2)


@pytest.mark.parametrize("row", [[np.nan, np.nan], [np.nan, 1.0], [0.5, np.nan]])
def test_belief_rejects_non_finite_entries(row):
    # NaN fails every comparison, so only an explicit finiteness check catches it
    with pytest.raises(ValidationError, match="finite"):
        check_belief(np.array([[0.5, 0.5], row]), 2)


def test_cost_params_broadcasting(paper_network):
    per_target = AdversaryCostParams.for_network(paper_network, [1.0, 2.0, 3.0], 0.5, 0.5)
    np.testing.assert_array_equal(per_target.punishment_coeff, [1, 2, 3, 1, 2, 3])
    scalar = AdversaryCostParams.for_network(paper_network, 2.0, 0.5, 0.5)
    np.testing.assert_array_equal(scalar.punishment_coeff, np.full(6, 2.0))
    matrix = AdversaryCostParams.for_network(paper_network, np.arange(6).reshape(2, 3) + 1.0, 0.5, 0.5)
    np.testing.assert_array_equal(matrix.punishment_coeff, [1, 2, 3, 4, 5, 6])


def test_cost_params_validation(paper_network):
    with pytest.raises(ValidationError):
        AdversaryCostParams.for_network(paper_network, -1.0, 0.5, 0.5)
    with pytest.raises(ValidationError):
        AdversaryCostParams.for_network(paper_network, 1.0, 1.5, 0.5)
