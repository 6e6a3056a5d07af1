"""Exact payoffs on layered directed graphs via a per-layer dynamic program.

A layered graph is a disjoint union of components, each a sequence of vertex
layers with complete bipartite edges from every layer to the next.  Every
vertex in layer i+1 has the whole of layer i as its in-neighborhood, so given
the (red, blue) totals of layer i, the layer i+1 update outcomes are i.i.d.
three-way draws and their counts follow a multinomial.  Tracking the joint
distribution of per-layer (red, blue) totals therefore gives exact expected
payoffs in time polynomial in the layer sizes — graphs far beyond the reach of
the branch-enumeration oracle.

The final layer of each component never influences anything downstream, so
only its expectation is needed, which keeps components with enormous terminal
layers cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .dynamics import AdoptionFunction, LayerOrder
from .engine import (
    EXACT_LAYERED_DP,
    Allocation,
    PayoffEstimate,
    StrategyProfile,
    _replication_rng,
    _sample_support,
    monte_carlo_estimate,
)
from .errors import ValidationError
from .graphs import Graph

DEFAULT_PRUNE = 1e-15


@dataclass(frozen=True)
class LayeredStructure:
    """Layer sizes per component; vertex ids run consecutively through
    component 0 layer 0, component 0 layer 1, ..., component 1 layer 0, ..."""

    component_layer_sizes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        comps = tuple(tuple(int(s) for s in comp) for comp in self.component_layer_sizes)
        if not comps:
            raise ValidationError("layered structure needs at least one component")
        for comp in comps:
            if not comp:
                raise ValidationError("every component needs at least one layer")
            for s in comp:
                if s < 1:
                    raise ValidationError(f"layer sizes must be positive, got {s}")
        object.__setattr__(self, "component_layer_sizes", comps)

    @property
    def n(self) -> int:
        return sum(sum(comp) for comp in self.component_layer_sizes)

    @property
    def n_edges(self) -> int:
        return sum(a * b for comp in self.component_layer_sizes for a, b in zip(comp, comp[1:]))

    def layer_ranges(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per component, per layer: (first vertex id, size)."""
        out = []
        start = 0
        for comp in self.component_layer_sizes:
            ranges = []
            for size in comp:
                ranges.append((start, size))
                start += size
            out.append(tuple(ranges))
        return tuple(out)

    def depth_schedule(self) -> LayerOrder:
        """Updates every depth-d layer (d >= 2) across components in step d."""
        max_depth = max(len(c) for c in self.component_layer_sizes)
        ranges = self.layer_ranges()
        phases = []
        for d in range(1, max_depth):
            phase: list[int] = []
            for comp in ranges:
                if d < len(comp):
                    start, size = comp[d]
                    phase.extend(range(start, start + size))
            if phase:
                phases.append(tuple(phase))
        return LayerOrder(tuple(phases))

    def build_graph(self, max_edges: int = 5_000_000) -> Graph:
        """Materialize the explicit edge list (guarded, for modest sizes)."""
        if self.n_edges > max_edges:
            raise ValidationError(
                f"materializing {self.n_edges} edges exceeds the cap of {max_edges}; "
                "use the layered oracle directly")
        edges = []
        for comp in self.layer_ranges():
            for (s0, m0), (s1, m1) in zip(comp, comp[1:]):
                for u in range(s0, s0 + m0):
                    for v in range(s1, s1 + m1):
                        edges.append((u, v))
        return Graph(n=self.n, edges=tuple(edges), directed=True)


def validate_layered_graph(graph: Graph, structure: LayeredStructure) -> None:
    """Check that `graph` is exactly the layered graph the structure describes."""
    if graph.n != structure.n:
        raise ValidationError(
            f"graph has {graph.n} vertices, structure describes {structure.n}")
    if not graph.directed:
        raise ValidationError("layered graphs are directed")
    if len(graph.edges) != structure.n_edges:
        raise ValidationError(
            f"graph has {len(graph.edges)} edges, structure describes {structure.n_edges}")
    expected = set()
    for comp in structure.layer_ranges():
        for (s0, m0), (s1, m1) in zip(comp, comp[1:]):
            for u in range(s0, s0 + m0):
                for v in range(s1, s1 + m1):
                    expected.add((u, v))
    if set(graph.edges) != expected:
        raise ValidationError("graph edges do not match the layered structure")


# ---------------------------------------------------------------------------
# Seed bookkeeping.
# ---------------------------------------------------------------------------


def _layer_seeds(red: Allocation, blue: Allocation, start: int, size: int):
    """(sure red, sure blue, contested red-win probabilities) in one layer.

    Walks the sparse seeded-vertex lists rather than the layer itself, so the
    cost scales with the budgets, not with layers of millions of vertices.
    """
    sr = 0
    contested: list[float] = []
    end = start + size
    blue_here = {v for v in blue.seeded_vertices() if start <= v < end}
    for v in red.seeded_vertices():
        if not (start <= v < end):
            continue
        ar = red.counts[v]
        if v in blue_here:
            ab = blue.counts[v]
            contested.append(ar / (ar + ab))
            blue_here.discard(v)
        else:
            sr += 1
    return sr, len(blue_here), contested


def _seed_branches(sr: int, sb: int, contested: list[float]):
    """Distribution over (red, blue) seed totals for one layer."""
    branches = [(sr, sb, 1.0)]
    for p_red in contested:
        branches = [(r + 1, b, p * p_red) for r, b, p in branches] + \
                   [(r, b + 1, p * (1.0 - p_red)) for r, b, p in branches]
    return branches


# ---------------------------------------------------------------------------
# Exact DP.
# ---------------------------------------------------------------------------


def _transition_support(m: int, pa: float, prune: float):
    """Pruned support and probabilities of Binom(m, pa)."""
    t = np.arange(m + 1)
    if pa <= 0.0:
        return np.array([0]), np.array([1.0])
    if pa >= 1.0:
        return np.array([m]), np.array([1.0])
    logp = (gammaln(m + 1) - gammaln(t + 1) - gammaln(m - t + 1)
            + t * np.log(pa) + (m - t) * np.log1p(-pa))
    probs = np.exp(logp)
    keep = probs > prune
    if not keep.any():
        keep[int(round(m * pa))] = True
    return t[keep], probs[keep]


def _split_matrix(ts: np.ndarray, q: float, prune: float):
    """Rows: P(x red | total t, q) for each t in ts; columns x = 0..max(ts)."""
    tmax = int(ts.max())
    x = np.arange(tmax + 1)
    if q <= 0.0:
        mat = np.zeros((len(ts), tmax + 1))
        mat[:, 0] = 1.0
        return mat
    if q >= 1.0:
        mat = np.zeros((len(ts), tmax + 1))
        mat[np.arange(len(ts)), ts] = 1.0
        return mat
    tcol = ts[:, None]
    with np.errstate(invalid="ignore"):
        logp = (gammaln(tcol + 1) - gammaln(x + 1) - gammaln(tcol - x + 1)
                + x * np.log(q) + (tcol - x) * np.log1p(-q))
    mat = np.where(x <= tcol, np.exp(logp), 0.0)
    mat[mat <= prune] = 0.0
    return mat


def _component_expectation(sizes: tuple[int, ...], ranges, dyn: AdoptionFunction,
                           red: Allocation, blue: Allocation, prune: float):
    """Exact (E red, E blue) totals over one component, plus dropped mass."""
    er = eb = 0.0
    dropped = 0.0

    # Seed totals per layer are state-independent; count them directly.
    layer_seed_branches = []
    for start, size in ranges:
        sr, sb, contested = _layer_seeds(red, blue, start, size)
        branches = _seed_branches(sr, sb, contested)
        layer_seed_branches.append(branches)
        er += sum(p * r for r, b, p in branches)
        eb += sum(p * b for r, b, p in branches)

    size0 = sizes[0]
    dist: dict[tuple[int, int], float] = {}
    for r, b, p in layer_seed_branches[0]:
        dist[(r, b)] = dist.get((r, b), 0.0) + p

    for depth in range(1, len(sizes)):
        m_layer = sizes[depth]
        seeded_here = sum(
            1 for v in range(ranges[depth][0], ranges[depth][0] + m_layer)
            if red.counts[v] > 0 or blue.counts[v] > 0)
        m = m_layer - seeded_here
        last = depth == len(sizes) - 1
        prev_size = sizes[depth - 1]

        if last:
            for (r, b), p in dist.items():
                pr, pb, _ = dyn.update_probs(r / prev_size, b / prev_size)
                er += p * m * pr
                eb += p * m * pb
            break

        nxt: dict[tuple[int, int], float] = {}
        seed_branches = layer_seed_branches[depth]
        for (r, b), p in dist.items():
            if p <= prune:
                dropped += p
                continue
            pr, pb, pu = dyn.update_probs(r / prev_size, b / prev_size)
            pa = pr + pb
            q = pr / pa if pa > 0.0 else 0.0
            ts, t_probs = _transition_support(m, pa, prune / max(p, prune))
            split = _split_matrix(ts, q, 0.0)
            joint = t_probs[:, None] * split  # joint[i, x] = P(total ts[i], x red)
            ti, xi = np.nonzero(joint > prune / max(p, prune))
            vals = joint[ti, xi] * p
            xs = xi
            ys = ts[ti] - xi
            for sr2, sb2, sp in seed_branches:
                for x, y, val in zip(xs + sr2, ys + sb2, vals * sp):
                    key = (int(x), int(y))
                    nxt[key] = nxt.get(key, 0.0) + float(val)
        total = sum(nxt.values())
        dropped += max(0.0, 1.0 - total)
        # Update-count expectations for this layer (seeds were counted already).
        er += sum(p * r for (r, b), p in nxt.items()) - sum(
            sp * sr2 for sr2, sb2, sp in seed_branches) * total
        eb += sum(p * b for (r, b), p in nxt.items()) - sum(
            sp * sb2 for sr2, sb2, sp in seed_branches) * total
        dist = nxt

    return er, eb, dropped


def layered_exact_payoffs(structure: LayeredStructure, dyn: AdoptionFunction,
                          profile: StrategyProfile,
                          prune: float = DEFAULT_PRUNE) -> PayoffEstimate:
    """Exact expected payoffs on a layered graph.

    `prune` drops probability-mass below the threshold while propagating layer
    distributions; with prune=0 the computation is exact up to float rounding.
    """
    ranges = structure.layer_ranges()
    er = eb = 0.0
    for p, red, blue in profile.support_pairs():
        if p == 0.0:
            continue
        if red.n != structure.n or blue.n != structure.n:
            raise ValidationError("allocation length does not match the layered structure")
        for comp_sizes, comp_ranges in zip(structure.component_layer_sizes, ranges):
            r, b, _ = _component_expectation(comp_sizes, comp_ranges, dyn, red, blue, prune)
            er += p * r
            eb += p * b
    return PayoffEstimate(pi_R=er, pi_B=eb, method=EXACT_LAYERED_DP,
                          n_trials=0, stderr_R=0.0, stderr_B=0.0)


# ---------------------------------------------------------------------------
# Aggregated Monte Carlo sampler.
# ---------------------------------------------------------------------------


def _sample_component(sizes, ranges, dyn, red, blue, rng):
    chi_r = chi_b = 0
    prev_r = prev_b = 0
    for depth, (start, size) in enumerate(ranges):
        sr, sb, contested = _layer_seeds(red, blue, start, size)
        for p_red in contested:
            if rng.random() < p_red:
                sr += 1
            else:
                sb += 1
        if depth == 0:
            r_here, b_here = sr, sb
        else:
            m = size - (sr + sb)
            pr, pb, _ = dyn.update_probs(prev_r / sizes[depth - 1], prev_b / sizes[depth - 1])
            pa = pr + pb
            total = rng.binomial(m, pa) if (m > 0 and pa > 0.0) else 0
            x = rng.binomial(total, pr / pa) if (total > 0 and pa > 0.0) else 0
            r_here, b_here = sr + x, sb + (total - x)
        chi_r += r_here
        chi_b += b_here
        prev_r, prev_b = r_here, b_here
    return chi_r, chi_b


def sample_layered_counts(structure: LayeredStructure, dyn: AdoptionFunction,
                          red: Allocation, blue: Allocation, rng) -> tuple[int, int]:
    """One Monte Carlo run, drawing whole layers at once.

    Given layer totals, individual update outcomes are i.i.d. three-way draws,
    so binomial layer draws reproduce the per-vertex process's distribution of
    (red, blue) totals exactly.
    """
    chi_r = chi_b = 0
    ranges = structure.layer_ranges()
    for comp_sizes, comp_ranges in zip(structure.component_layer_sizes, ranges):
        r, b = _sample_component(comp_sizes, comp_ranges, dyn, red, blue, rng)
        chi_r += r
        chi_b += b
    return chi_r, chi_b


def layered_estimate_payoffs(structure: LayeredStructure, dyn: AdoptionFunction,
                             profile: StrategyProfile, n_trials: int = 10_000,
                             master_seed: int = 0) -> PayoffEstimate:
    """Monte Carlo over aggregated layer draws; same replication-seed scheme
    as the per-vertex estimator."""
    if not (isinstance(n_trials, int) and n_trials >= 1):
        raise ValidationError(f"n_trials must be a positive integer, got {n_trials!r}")
    pairs = profile.support_pairs()
    chi_r = np.empty(n_trials)
    chi_b = np.empty(n_trials)
    for i in range(n_trials):
        rng = _replication_rng(master_seed, i)
        red, blue = _sample_support(pairs, rng)
        chi_r[i], chi_b[i] = sample_layered_counts(structure, dyn, red, blue, rng)
    return monte_carlo_estimate(chi_r, chi_b)
