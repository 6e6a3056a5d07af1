"""Graph construction, canonicalization, serialization, and neighbor fractions."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contagion_games import (
    BLUE,
    RED,
    UNINFECTED,
    Graph,
    GraphValidationError,
    ValidationError,
    load_graph,
    neighbor_fractions,
    serialize_graph,
    state_name,
)


def test_state_constants_are_distinct():
    assert len({UNINFECTED, RED, BLUE}) == 3
    assert state_name(UNINFECTED) == "U"
    assert state_name(RED) == "R"
    assert state_name(BLUE) == "B"


def test_edges_are_sorted_canonically():
    g = Graph(n=4, edges=((3, 0), (1, 2), (0, 3), (1, 0)))
    assert g.edges == ((0, 3), (1, 0), (1, 2), (3, 0))


def test_undirected_edges_normalize_endpoint_order():
    g = Graph(n=3, edges=((2, 0), (2, 1)), directed=False)
    assert g.edges == ((0, 2), (1, 2))


def test_duplicate_edge_rejected():
    with pytest.raises(GraphValidationError, match="duplicate"):
        Graph(n=3, edges=((0, 1), (0, 1)))


def test_undirected_reversed_duplicate_rejected():
    with pytest.raises(GraphValidationError, match="duplicate"):
        Graph(n=3, edges=((0, 1), (1, 0)), directed=False)


def test_directed_reversed_pair_is_allowed():
    g = Graph(n=2, edges=((0, 1), (1, 0)))
    assert g.edges == ((0, 1), (1, 0))


def test_self_loop_rejected():
    with pytest.raises(GraphValidationError, match="self-loop"):
        Graph(n=2, edges=((1, 1),))


def test_out_of_range_endpoint_rejected():
    with pytest.raises(GraphValidationError, match="outside"):
        Graph(n=2, edges=((0, 2),))


def test_non_integer_endpoint_rejected():
    with pytest.raises(GraphValidationError, match="non-integer"):
        Graph(n=2, edges=((0, 1.5),))


@pytest.mark.parametrize("edge", [(True, 0), (0, False)])
def test_boolean_endpoint_rejected(edge):
    with pytest.raises(GraphValidationError, match="non-integer"):
        Graph(n=2, edges=(edge,))


def test_non_pair_edge_rejected():
    with pytest.raises(GraphValidationError, match="not a pair"):
        Graph(n=3, edges=((0, 1, 2),))


@pytest.mark.parametrize("bad_n", [0, -1, 2.5, "3"])
def test_bad_vertex_count_rejected(bad_n):
    with pytest.raises(GraphValidationError, match="positive integer"):
        Graph(n=bad_n, edges=())


def test_neighbor_lists_directed():
    g = Graph(n=4, edges=((0, 2), (1, 2), (2, 3)))
    assert g.in_neighbors[2] == (0, 1)
    assert g.in_neighbors[0] == ()
    assert g.out_neighbors[2] == (3,)
    assert g.in_degree(2) == 2
    assert g.in_degree(0) == 0


def test_neighbor_lists_undirected_count_both_directions():
    g = Graph(n=3, edges=((0, 1), (1, 2)), directed=False)
    assert set(g.in_neighbors[1]) == {0, 2}
    assert set(g.out_neighbors[1]) == {0, 2}
    assert g.in_degree(0) == 1


def test_load_graph_from_dict_and_text():
    doc = {"n": 3, "directed": True, "edges": [[2, 0], [0, 1]]}
    g1 = load_graph(doc)
    g2 = load_graph(json.dumps(doc))
    assert g1 == g2
    assert g1.edges == ((0, 1), (2, 0))


def test_load_graph_missing_fields():
    with pytest.raises(GraphValidationError, match="missing fields"):
        load_graph({"n": 3, "edges": []})


@pytest.mark.parametrize("doc, match", [
    ({"n": True, "directed": True, "edges": []}, "positive integer, got True"),
    ({"n": False, "directed": True, "edges": []}, "positive integer, got False"),
    ({"n": 3, "directed": True, "edges": [[True, 2]]}, "non-integer"),
    ({"n": 3, "directed": False, "edges": [[0, 1], [1, False]]}, "non-integer"),
])
def test_load_graph_rejects_boolean_vertex_ids(doc, match):
    with pytest.raises(GraphValidationError, match=match):
        load_graph(doc)


def test_load_graph_directed_must_be_boolean():
    with pytest.raises(GraphValidationError, match="boolean"):
        load_graph({"n": 3, "directed": 1, "edges": []})


def test_load_graph_rejects_bad_json_text():
    with pytest.raises(GraphValidationError, match="not valid JSON"):
        load_graph("{not json")


def test_load_graph_rejects_non_object():
    with pytest.raises(GraphValidationError, match="JSON object"):
        load_graph("[1, 2]")


def test_serialization_is_canonical_under_edge_permutation():
    a = Graph(n=4, edges=((0, 1), (2, 3), (1, 3)))
    b = Graph(n=4, edges=((1, 3), (0, 1), (2, 3)))
    assert serialize_graph(a) == serialize_graph(b)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    directed = draw(st.booleans())
    possible = [(u, v) for u in range(n) for v in range(n)
                if u != v and (directed or u < v)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
                 if possible else st.just([]))
    return Graph(n=n, edges=tuple(edges), directed=directed)


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_serialize_load_round_trip(g):
    assert load_graph(serialize_graph(g)) == g


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_in_and_out_neighbor_lists_agree(g):
    in_pairs = {(u, v) for v in range(g.n) for u in g.in_neighbors[v]}
    out_pairs = {(u, v) for u in range(g.n) for v in g.out_neighbors[u]}
    assert in_pairs == out_pairs


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_csr_arrays_hold_the_neighbor_lists(g):
    for (indptr, indices, degree), lists in ((g.in_csr, g.in_neighbors),
                                             (g.out_csr, g.out_neighbors)):
        assert degree.tolist() == [len(l) for l in lists]
        assert [indices[indptr[v]:indptr[v + 1]].tolist() for v in range(g.n)] == \
            [list(l) for l in lists]


def test_neighbor_fractions_hand_case():
    g = Graph(n=5, edges=((0, 4), (1, 4), (2, 4), (3, 4)))
    state = [RED, RED, BLUE, UNINFECTED, UNINFECTED]
    assert neighbor_fractions(g, state, 4) == (0.5, 0.25)


def test_neighbor_fractions_need_an_in_neighbor():
    g = Graph(n=2, edges=((0, 1),))
    with pytest.raises(ValidationError, match="no in-neighbors"):
        neighbor_fractions(g, [RED, UNINFECTED], 0)
