"""Graph construction, canonicalization, serialization, and neighbor fractions."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
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


@pytest.mark.parametrize("flag", ["false", 0, 1, None, np.bool_(True)])
def test_directed_must_be_a_boolean(flag):
    # A truthy non-bool used to make a directed graph whose serialized
    # "directed" field load_graph refused.
    with pytest.raises(GraphValidationError, match=f"'directed' must be a boolean, got {flag!r}"):
        Graph(n=2, edges=((0, 1),), directed=flag)


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


@pytest.mark.parametrize("edges, message", [
    ([[0, 1], [True, 2]], "edge (True, 2) has non-integer endpoints"),
    ([[0, 1], "ab"], "edge ('a', 'b') has non-integer endpoints"),
    ([[0, 1], [0, 1, 2]], "'edges' must be a list of [u, v] pairs"),
    ([[0, 1], 5], "'edges' must be a list of [u, v] pairs"),
    ([[2, 1], [1, 2], [2, 1]], "duplicate edge (2, 1)"),
])
def test_load_graph_names_faults_as_it_did_on_tuple_pairs(edges, message):
    # load_graph turns every decoded pair into a tuple before Graph checks it.
    with pytest.raises(GraphValidationError) as got:
        load_graph({"n": 3, "directed": True, "edges": edges})
    assert str(got.value) == message


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


def test_graph_is_immutable():
    g = Graph(n=2, edges=((0, 1),))
    with pytest.raises(AttributeError):
        g.n = 3
    with pytest.raises(ValueError):
        g.edge_array[0, 0] = 1


def test_array_input_is_copied_and_canonicalized():
    arr = np.array([[2, 0], [0, 1]], dtype=np.int32)
    g = Graph(n=3, edges=arr, directed=False)
    arr[0, 0] = 1
    assert g.edge_array.dtype == np.int64
    assert g.edges == ((0, 1), (0, 2))
    assert g == Graph(n=3, edges=((0, 2), (1, 0)), directed=False)
    assert Graph(n=1, edges=np.empty((0, 2), dtype=np.uint8)).edges == ()


@pytest.mark.parametrize("arr", [np.zeros(4, dtype=np.int64), np.zeros((2, 3), dtype=np.int64),
                                 np.array([[0.0, 1.0]]), np.array([[False, True]])])
def test_edge_arrays_must_be_m_by_2_integers(arr):
    with pytest.raises(GraphValidationError, match=r"edge array must be \(m, 2\) integers"):
        Graph(n=2, edges=arr)


def test_unsigned_endpoints_beyond_int64_are_out_of_range():
    with pytest.raises(GraphValidationError, match=f"edge \\(0, {2**63 + 5}\\) references"):
        Graph(n=2, edges=np.array([[0, 2**63 + 5]], dtype=np.uint64))
    with pytest.raises(GraphValidationError, match=f"edge \\({-2**70}, 0\\) references"):
        Graph(n=2, edges=((0, 1), (-2**70, 0)))


def test_an_edge_with_no_length_is_named_after_the_edges_before_it():
    with pytest.raises(GraphValidationError, match="self-loop at vertex 0"):
        Graph(n=2, edges=((0, 0), None))
    with pytest.raises(TypeError, match="has no len"):
        Graph(n=2, edges=((0, 1), None))
    with pytest.raises(TypeError, match="has no len"):
        Graph(n=2, edges=[[0, 1], 1, (2, 0)])


# ---------------------------------------------------------------------------
# Parity with the per-edge construction that the array checks replaced.
# ---------------------------------------------------------------------------


def reference_graph(n, edges, directed):
    """The per-edge loop `Graph` used to run, kept as the reference: the
    canonical edges and the in- and out-neighbour tuples, or its error."""
    if type(n) is not int or n < 1:
        raise GraphValidationError(f"vertex count must be a positive integer, got {n!r}")
    seen, canon = set(), []
    for e in edges:
        if len(e) != 2:
            raise GraphValidationError(f"edge {e!r} is not a pair")
        u, v = e
        if type(u) is not int or type(v) is not int:
            raise GraphValidationError(f"edge {e!r} has non-integer endpoints")
        if not (0 <= u < n) or not (0 <= v < n):
            raise GraphValidationError(f"edge ({u}, {v}) references a vertex outside 0..{n - 1}")
        if u == v:
            raise GraphValidationError(f"self-loop at vertex {u} is not allowed")
        if not directed and u > v:
            u, v = v, u
        if (u, v) in seen:
            raise GraphValidationError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        canon.append((u, v))
    canon.sort()
    in_lists, out_lists = [[] for _ in range(n)], [[] for _ in range(n)]
    for u, v in canon:
        in_lists[v].append(u)
        out_lists[u].append(v)
        if not directed:
            in_lists[u].append(v)
            out_lists[v].append(u)
    return tuple(canon), tuple(map(tuple, in_lists)), tuple(map(tuple, out_lists))


def reference_csr(lists):
    degree = np.array([len(l) for l in lists], dtype=np.intp)
    indptr = np.concatenate(([0], np.cumsum(degree))).astype(np.intp)
    return indptr, np.array([u for l in lists for u in l], dtype=np.intp), degree


@st.composite
def edge_inputs(draw):
    """(n, edges, directed): edge tuples that are mostly pairs of in-range
    ints, with repeats, self-loops, out-of-range and ill-typed edges mixed in."""
    n = draw(st.integers(min_value=1, max_value=6))
    vertex = st.integers(min_value=0, max_value=n - 1)
    pair = st.tuples(vertex, vertex)
    wild = st.one_of(
        st.tuples(st.integers(min_value=-2, max_value=n + 1), st.integers(min_value=-2, max_value=n + 1)),
        st.tuples(vertex, st.booleans()),
        st.tuples(st.floats(min_value=0, max_value=n - 1), vertex),
        st.tuples(vertex, vertex, vertex),
        st.tuples(vertex),
        vertex.map(lambda u: (np.int64(u), 0)),
        st.just((2**64, 0)),
        st.none(),
        vertex,
    )
    edge = st.one_of(pair, pair, pair, wild) if draw(st.booleans()) else pair
    return n, tuple(draw(st.lists(edge, max_size=12))), draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(st.one_of(edge_inputs(), small_graphs().map(lambda g: (g.n, g.edges[::-1], g.directed))),
       st.booleans())
def test_graph_matches_the_per_edge_reference(case, as_array):
    n, edges, directed = case
    if as_array:
        assume(all(isinstance(e, tuple) and len(e) == 2 and all(type(x) is int and x < 2**63 for x in e)
                   for e in edges))
        edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
        pairs = tuple(map(tuple, edges.tolist()))
    else:
        pairs = edges
    try:
        canon, in_lists, out_lists = reference_graph(n, pairs, directed)
    except (GraphValidationError, TypeError) as exc:  # TypeError: an edge with no length
        with pytest.raises(type(exc)) as got:
            Graph(n=n, edges=edges, directed=directed)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    g = Graph(n=n, edges=edges, directed=directed)
    assert g.edges == canon
    assert g.edge_array.tolist() == [list(e) for e in canon]
    assert (g.in_neighbors, g.out_neighbors) == (in_lists, out_lists)
    for got, lists in ((g.in_csr, in_lists), (g.out_csr, out_lists)):
        for a, b in zip(got, reference_csr(lists)):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()
    assert all(g.in_degree(v) == len(in_lists[v]) for v in range(n))
    assert serialize_graph(g) == json.dumps(
        {"n": n, "directed": directed, "edges": [list(e) for e in canon]}, sort_keys=True)
    twin = Graph(n=n, edges=pairs[::-1], directed=directed)
    assert twin == g and hash(twin) == hash(g)
    assert g != Graph(n=n + 1, edges=canon, directed=directed)
    if not canon:
        assert g != Graph(n=n, edges=canon, directed=not directed)
