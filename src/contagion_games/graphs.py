"""Directed-graph substrate and vertex-state bookkeeping for contagion runs.

Vertices are integers 0..n-1.  A directed edge (u, v) means u can influence v,
so u appears among v's in-neighbors.  Undirected graphs store each edge once as
an unordered pair and expose it in both directions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GraphValidationError, ValidationError

# Vertex states. Infected vertices never change color again.
UNINFECTED = 0
RED = 1
BLUE = 2

_STATE_NAMES = {UNINFECTED: "U", RED: "R", BLUE: "B"}


def state_name(s: int) -> str:
    return _STATE_NAMES[s]


@dataclass(frozen=True)
class Graph:
    """Immutable graph with canonical (sorted, deduplicated-checked) edges."""

    n: int
    edges: tuple[tuple[int, int], ...]
    directed: bool = True

    def __post_init__(self):
        # Exactly int, here and for endpoints: booleans are not vertex ids.
        if type(self.n) is not int or self.n < 1:
            raise GraphValidationError(f"vertex count must be a positive integer, got {self.n!r}")
        seen: set[tuple[int, int]] = set()
        canon = []
        for e in self.edges:
            if len(e) != 2:
                raise GraphValidationError(f"edge {e!r} is not a pair")
            u, v = e
            if type(u) is not int or type(v) is not int:
                raise GraphValidationError(f"edge {e!r} has non-integer endpoints")
            if not (0 <= u < self.n) or not (0 <= v < self.n):
                raise GraphValidationError(f"edge ({u}, {v}) references a vertex outside 0..{self.n - 1}")
            if u == v:
                raise GraphValidationError(f"self-loop at vertex {u} is not allowed")
            if not self.directed and u > v:
                u, v = v, u
            if (u, v) in seen:
                raise GraphValidationError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            canon.append((u, v))
        canon.sort()
        object.__setattr__(self, "edges", tuple(canon))

    @cached_property
    def in_neighbors(self) -> tuple[tuple[int, ...], ...]:
        lists: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            lists[v].append(u)
            if not self.directed:
                lists[u].append(v)
        return tuple(tuple(l) for l in lists)

    @cached_property
    def out_neighbors(self) -> tuple[tuple[int, ...], ...]:
        lists: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            lists[u].append(v)
            if not self.directed:
                lists[v].append(u)
        return tuple(tuple(l) for l in lists)

    @cached_property
    def in_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, indices, in_degree): in-neighbor lists as numpy CSR arrays;
        vertex v's in-neighbors are indices[indptr[v]:indptr[v + 1]]."""
        return _csr(self.in_neighbors)

    @cached_property
    def out_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, indices, out_degree): out-neighbor lists as numpy CSR
        arrays, laid out as `in_csr`."""
        return _csr(self.out_neighbors)

    def in_degree(self, v: int) -> int:
        return len(self.in_neighbors[v])


def _csr(nbrs: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    degree = np.fromiter(map(len, nbrs), dtype=np.intp, count=len(nbrs))
    indptr = np.zeros(len(nbrs) + 1, dtype=np.intp)
    np.cumsum(degree, out=indptr[1:])
    indices = np.fromiter((u for l in nbrs for u in l), dtype=np.intp, count=int(indptr[-1]))
    return indptr, indices, degree


def load_graph(document: str | dict) -> Graph:
    """Parse a graph document (JSON text or an already-decoded dict)."""
    if isinstance(document, str):
        try:
            obj = json.loads(document)
        except json.JSONDecodeError as exc:
            raise GraphValidationError(f"graph document is not valid JSON: {exc}") from None
    else:
        obj = document
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
    doc = {
        "n": graph.n,
        "directed": graph.directed,
        "edges": [list(e) for e in graph.edges],
    }
    return json.dumps(doc, sort_keys=True)


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
