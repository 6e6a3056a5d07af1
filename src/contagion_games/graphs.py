"""Directed-graph substrate and vertex-state bookkeeping for contagion runs.

Vertices are integers 0..n-1.  A directed edge (u, v) means u can influence v,
so u appears among v's in-neighbors.  Undirected graphs store each edge once as
an unordered pair and expose it in both directions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, takewhile

import numpy as np

from .errors import GraphValidationError, ValidationError, decode_document

# Vertex states. Infected vertices never change color again.
UNINFECTED = 0
RED = 1
BLUE = 2

_STATE_NAMES = {UNINFECTED: "U", RED: "R", BLUE: "B"}


def state_name(s: int) -> str:
    return _STATE_NAMES[s]


@dataclass(frozen=True, init=False, eq=False)
class Graph:
    """Immutable graph; its canonical edges are one sorted, read-only (m, 2)
    int64 array, `edge_array` (undirected ones as u < v).  `edges` takes (u, v)
    pairs of exactly-`int` endpoints or an (m, 2) integer array."""

    n: int
    directed: bool
    edge_array: np.ndarray

    def __init__(self, n: int, edges, directed: bool = True):
        # Exactly int, here and for endpoints: booleans are not vertex ids.
        if type(n) is not int or n < 1:
            raise GraphValidationError(f"vertex count must be a positive integer, got {n!r}")
        if type(directed) is not bool:
            raise GraphValidationError(f"'directed' must be a boolean, got {directed!r}")
        if isinstance(edges, np.ndarray):
            if edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype.kind not in "iu":
                raise GraphValidationError(
                    f"edge array must be (m, 2) integers, got shape {edges.shape} of {edges.dtype}")
            pairs, arr = edges, edges.astype(np.int64)
        else:
            pairs, arr = _int_pairs(edges)
        u, v = arr[:, 0], arr[:, 1]
        canon = arr if directed else np.column_stack((np.minimum(u, v), np.maximum(u, v)))
        bad = (arr < 0).any(axis=1) | (arr >= n).any(axis=1) | (u == v)
        lo, hi = canon[:, 0], canon[:, 1]
        # Strictly increasing edges, as the builders pass, need no sort.
        if not ((lo[1:] > lo[:-1]) | ((lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1]))).all():
            order = np.lexsort((hi, lo))  # stable: each repeat follows its first occurrence
            canon = canon[order]
            bad[order[1:][(canon[1:] == canon[:-1]).all(axis=1)]] = True
        if bad.any():  # the first bad edge in input order, as a per-edge check names it
            a, b = pairs[int(bad.argmax())]
            if not (0 <= a < n and 0 <= b < n):
                raise GraphValidationError(f"edge ({a}, {b}) references a vertex outside 0..{n - 1}")
            if a == b:
                raise GraphValidationError(f"self-loop at vertex {a} is not allowed")
            raise GraphValidationError(f"duplicate edge ({a}, {b})" if directed else
                                       f"duplicate edge ({min(a, b)}, {max(a, b)})")
        if len(arr) < len(pairs):  # the edge that ends the checked prefix
            e = pairs[len(arr)]  # with no length, len(e) raises TypeError, as the per-edge check did
            raise GraphValidationError(
                f"edge {e!r} " + ("is not a pair" if len(e) != 2 else "has non-integer endpoints"))
        canon.setflags(write=False)
        self.__dict__.update(n=n, directed=directed, edge_array=canon)

    def _key(self):
        return self.n, self.directed, self.edge_array.tobytes()

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """`edge_array` as (u, v) tuples, built on first use."""
        return tuple(map(tuple, self.edge_array.tolist()))

    @cached_property
    def in_neighbors(self) -> tuple[tuple[int, ...], ...]:
        return _neighbor_tuples(self.in_csr)

    @cached_property
    def out_neighbors(self) -> tuple[tuple[int, ...], ...]:
        return _neighbor_tuples(self.out_csr)

    @cached_property
    def in_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, indices, in_degree): in-neighbor lists as numpy CSR arrays;
        vertex v's in-neighbors are indices[indptr[v]:indptr[v + 1]], ascending."""
        e = self.edge_array
        return _csr(self.n, e[:, 1], e[:, 0]) if self.directed else self.out_csr

    @cached_property
    def out_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, indices, out_degree): out-neighbor lists as numpy CSR
        arrays, laid out as `in_csr`."""
        # Undirected: reversed pairs first, so smaller neighbours precede larger ones.
        e = self.edge_array if self.directed else np.concatenate((self.edge_array[:, ::-1],
                                                                 self.edge_array))
        return _csr(self.n, e[:, 0], e[:, 1])

    def in_degree(self, v: int) -> int:
        return int(self.in_csr[2][v])


def _int_pairs(edges) -> tuple:
    """`edges` as a sequence, and the (p, 2) int64 array of its longest prefix
    of pairs of exactly-`int` endpoints."""
    pairs = edges if isinstance(edges, (tuple, list)) else tuple(edges)
    fast = set(map(type, pairs)) <= {tuple, list} and set(map(len, pairs)) <= {2}
    flat = list(chain.from_iterable(pairs)) if fast else []
    if not fast or set(map(type, flat)) - {int}:  # a per-edge pass finds the prefix
        flat = list(chain.from_iterable(takewhile(_is_int_pair, pairs)))
    try:
        arr = np.array(flat, dtype=np.int64)
    except OverflowError:  # beyond int64 is outside 0..n-1, as -1 is
        arr = np.array([x if -2**63 <= x < 2**63 else -1 for x in flat], dtype=np.int64)
    return pairs, arr.reshape(-1, 2)


def _is_int_pair(e) -> bool:
    return hasattr(e, "__len__") and len(e) == 2 and tuple(map(type, e)) == (int, int)


def _csr(n: int, key: np.ndarray, other: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, indices, degree): `other` grouped by `key`, each group in input order."""
    degree = np.bincount(key, minlength=n)
    return np.concatenate(([0], np.cumsum(degree))), other[np.argsort(key, kind="stable")], degree


def _neighbor_tuples(csr) -> tuple[tuple[int, ...], ...]:
    flat, bounds = csr[1].tolist(), csr[0].tolist()
    return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))


def load_graph(document: str | dict) -> Graph:
    """Parse a graph document (JSON text or an already-decoded dict)."""
    obj = decode_document(document, GraphValidationError, "graph")
    if not isinstance(obj, dict):
        raise GraphValidationError("graph document must be a JSON object")
    missing = {"n", "directed", "edges"} - obj.keys()
    if missing:
        raise GraphValidationError(f"graph document missing fields: {sorted(missing)}")
    n = obj["n"]
    directed = obj["directed"]
    edges = obj["edges"]
    if not isinstance(directed, bool):
        raise GraphValidationError(f"'directed' must be a boolean, got {directed!r}")
    if not isinstance(edges, list):
        raise GraphValidationError("'edges' must be a list of [u, v] pairs")
    try:
        edge_tuples = tuple((u, v) for u, v in edges)
    except (TypeError, ValueError):
        raise GraphValidationError("'edges' must be a list of [u, v] pairs") from None
    return Graph(n=n, edges=edge_tuples, directed=directed)


def serialize_graph(graph: Graph) -> str:
    """Canonical JSON: fixed key order, edges sorted lexicographically."""
    return json.dumps({"n": graph.n, "directed": graph.directed, "edges": graph.edge_array.tolist()},
                      sort_keys=True)


def neighbor_fractions(graph: Graph, state, v: int) -> tuple[float, float]:
    """Return (alpha_red, alpha_blue): infected fractions of v's in-neighborhood."""
    nbrs = graph.in_neighbors[v]
    d = len(nbrs)
    if d == 0:
        raise ValidationError(f"vertex {v} has no in-neighbors; its infected fractions are undefined")
    r = b = 0
    for u in nbrs:
        s = state[u]
        if s == RED:
            r += 1
        elif s == BLUE:
            b += 1
    return r / d, b / d
