from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from advot import (
    AdversaryCostParams,
    DanglingEdge,
    DimensionMismatch,
    DuplicateEdge,
    IsolatedNode,
    NonpositiveCapacity,
    ValidationError,
    build_network,
    uniform_belief,
)
from advot.network import check_belief, check_plan
from oracles import TypeSpace, incidence, reference_build_network


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


def test_an_unhashable_endpoint_is_a_dangling_edge():
    # a list id is no listed id; the lookup raised a bare TypeError: unhashable type: 'list'
    with pytest.raises(DanglingEdge, match=r"edge \(\['a'\], 'b'\) references an unknown node id"):
        build_network(["a"], ["b"], [(["a"], "b")], [1.0])


def test_isolated_node_rejected():
    with pytest.raises(IsolatedNode):
        build_network(["a", "b"], ["c"], [("a", "c")], [1.0, 1.0])
    with pytest.raises(IsolatedNode):
        build_network(["a"], ["b", "c"], [("a", "b")], [1.0])


def test_capacity_length_mismatch_rejected():
    with pytest.raises(ValidationError):
        build_network(["a"], ["b"], [("a", "b")], [1.0, 2.0])


@pytest.mark.parametrize("capacities", [["x"], [[1.0, "x"]], 4.0])
def test_non_numeric_capacities_rejected(capacities):
    # ["x"] raised numpy's bare ValueError
    with pytest.raises(ValidationError, match="capacities must be numeric"):
        build_network(["a"], ["b"], [("a", "b")], capacities)


@pytest.mark.parametrize("edge", [("a",), ("a", "b", "c"), "ab", 5, None])
def test_an_edge_that_is_not_a_pair_rejected(edge):
    # a 1- or 3-tuple raised a bare TypeError or ValueError, and "ab" read as the edge a -> b
    with pytest.raises(ValidationError, match=r"every edge must be a \[source, target\] pair"):
        build_network(["a"], ["b"], [("a", "b"), edge], [1.0])


def test_canonical_order_is_input_independent():
    sources, targets = ["s1", "s2"], ["t1", "t2"]
    edges = [("s2", "t2"), ("s1", "t2"), ("s2", "t1"), ("s1", "t1")]
    reference = build_network(sources, targets, list(reversed(edges)), [1.0, 2.0])
    shuffled = build_network(sources, targets, edges, [1.0, 2.0])
    assert reference.edges == shuffled.edges
    assert reference.edges == (("s1", "t1"), ("s1", "t2"), ("s2", "t1"), ("s2", "t2"))
    np.testing.assert_array_equal(reference.edge_source, shuffled.edge_source)


# ids of both JSON kinds, with 1 beside "1" and 0 beside "0"
NODE_IDS = st.one_of(st.integers(-1, 3), st.sampled_from(["0", "1", "a", "a_b", "b"]))


@st.composite
def raw_networks(draw):
    """Shuffled edge lists with duplicates, dangling ends, isolated nodes and odd shapes."""
    sources = draw(st.lists(NODE_IDS, min_size=1, max_size=4, unique=True))
    targets = draw(st.lists(NODE_IDS, min_size=1, max_size=5, unique=True))
    pairs = [(s, t) for s in sources for t in targets]
    keep = draw(st.lists(st.integers(0, 5), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, k in zip(pairs, keep) if k]  # dropped pairs leave isolated nodes
    # each kind of fault joins when its draw is 3
    faults = draw(st.lists(st.integers(0, 3), min_size=3, max_size=3))
    edges += draw(st.lists(st.sampled_from(pairs), max_size=2)) if faults[0] == 3 else []
    edges += [draw(st.tuples(NODE_IDS, NODE_IDS))] if faults[1] == 3 else []  # perhaps dangling
    edges += [draw(st.sampled_from([("a",), ("a", "b", "c")]))] if faults[2] == 3 else []
    edges = draw(st.permutations(edges))
    # JSON gives lists, direct callers tuples
    edges = [list(edge) if draw(st.booleans()) else edge for edge in edges]
    return sources, targets, edges, [1.0 + k for k in range(len(sources))]


def _build_outcome(build, raw):
    try:
        net, edges = build(*raw)
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)
    arrays = (net.capacities, net.edge_source, net.edge_target)
    assert not any(arr.flags.writeable for arr in arrays)
    return edges, *(arr.dtype for arr in arrays), *(arr.tolist() for arr in arrays)


def _library_build(*raw):
    network = build_network(*raw)
    return network, network.edges


@settings(max_examples=400, deadline=None)
@given(raw_networks())
@example(([1, "1"], [0, "0"], [("1", 0), (1, "0"), [1, 0], ("1", "0")], [1.0, 2.0]))
@example(([1, "1"], ["t"], [("1", "t"), [1, "t"], (1, "t")], [1.0, 2.0]))
@example((["a", "b"], ["t"], [("a", "t"), ("c", "t"), ("a", "t")], [1.0, 2.0]))
@example((["a", "b"], ["t", "u"], [("a", "t"), ("a", "t"), ("a", "u")], [1.0, 2.0]))
def test_build_network_matches_the_loop_reference(raw):
    assert _build_outcome(_library_build, raw) == _build_outcome(reference_build_network, raw)


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


# (sources, targets, edges, capacities) and the row_starts each must give
ROW_STARTS = {
    "one-edge": ((["j"], ["t"], [("j", "t")], [1.0]), [0, 1]),
    "one-wide-source": ((["s"], list("vwxyz"), [("s", t) for t in "zyxwv"], [1.0]), [0, 5]),
    "complete-2x3": (
        (["j1", "j2"], ["q1", "q2", "q3"],
         [(j, q) for q in ("q3", "q1", "q2") for j in ("j2", "j1")], [1.0, 2.0]),
        [0, 3, 6],
    ),
    "uneven-shuffled": (
        (["a", "b", "c"], ["x", "y", "z"],
         [("c", "z"), ("b", "y"), ("a", "x"), ("b", "z"), ("c", "y"), ("b", "x")],
         [1.0, 2.0, 3.0]),
        [0, 1, 4, 6],
    ),
}


@pytest.mark.parametrize("name", sorted(ROW_STARTS))
def test_row_starts_bound_each_sources_block(name):
    raw, expected = ROW_STARTS[name]
    network = build_network(*raw)
    starts = network.row_starts
    assert starts == expected
    for j, (a, b) in enumerate(zip(starts, starts[1:])):
        assert network.edge_source[a:b].tolist() == [j] * (b - a)


def test_feasibility_zero_plan(paper_network):
    slack = paper_network.capacities - paper_network.row_sums(np.zeros(6))
    np.testing.assert_array_equal(slack, paper_network.capacities)


def test_feasibility_at_capacity_boundary(paper_network):
    plan = paper_network.edge_vector([[4.0, 0, 0], [0, 3.0, 0]])
    slack = paper_network.capacities - paper_network.row_sums(plan)
    np.testing.assert_allclose(slack, [0.0, 0.0], atol=1e-12)


def test_feasibility_detects_overload(paper_network):
    plan = paper_network.edge_vector([[4.1, 0, 0], [0, 3.0, 0]])
    slack = paper_network.capacities - paper_network.row_sums(plan)
    assert slack[0] == pytest.approx(-0.1)
    assert slack[1] == pytest.approx(0.0, abs=1e-12)


def test_feasibility_dimension_mismatch(paper_network):
    with pytest.raises(DimensionMismatch):
        check_plan(paper_network, np.zeros(5))


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
