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

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .dynamics import AdoptionFunction, LayerOrder
from .engine import (
    EXACT_LAYERED_DP,
    Allocation,
    PayoffEstimate,
    StrategyProfile,
    _is_integer,
    _one_at_a_time,
    _require_master_seed,
    _seed_keys,
    monte_carlo_estimate,
    split_seeds,
)
from .errors import StateSpaceCapError, ValidationError
from .graphs import Graph

DEFAULT_PRUNE = 1e-15

# Largest edge list a layered or chain gadget materializes by default.
DEFAULT_GRAPH_EDGE_CAP = 5_000_000


@dataclass(frozen=True)
class LayeredStructure:
    """Layer sizes per component; vertex ids run consecutively through
    component 0 layer 0, component 0 layer 1, ..., component 1 layer 0, ..."""

    component_layer_sizes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        comps = tuple(tuple(comp) for comp in self.component_layer_sizes)
        if not comps:
            raise ValidationError("layered structure needs at least one component")
        for comp in comps:
            if not comp:
                raise ValidationError("every component needs at least one layer")
            for s in comp:
                if not _is_integer(s):
                    raise ValidationError(f"layer sizes must be integers, got {s!r}")
                if s < 1:
                    raise ValidationError(f"layer sizes must be positive, got {s}")
        comps = tuple(tuple(int(s) for s in comp) for comp in comps)
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
            phases.append([(comp[d][0], comp[d][0] + comp[d][1])
                           for comp in ranges if d < len(comp)])
        return LayerOrder.from_runs(phases)

    def build_graph(self, max_edges: int = DEFAULT_GRAPH_EDGE_CAP) -> Graph:
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
    if set(graph.edges) != set(structure.build_graph(max_edges=structure.n_edges).edges):
        raise ValidationError("graph edges do not match the layered structure")


# ---------------------------------------------------------------------------
# Seed bookkeeping.
# ---------------------------------------------------------------------------


def _seeds_by_layer(seeds, ranges) -> list[tuple[int, int, list[float]]]:
    """(sure red, sure blue, contested red-win probabilities) of each layer
    (start, size), from `split_seeds`' ascending lists; the cost scales with
    the budgets, not with layers of millions of vertices."""
    red_only, blue_only, contested = seeds
    where = [v for v, _ in contested]
    out = []
    for start, size in ranges:
        end = start + size
        out.append((bisect_left(red_only, end) - bisect_left(red_only, start),
                    bisect_left(blue_only, end) - bisect_left(blue_only, start),
                    [p for _, p in contested[bisect_left(where, start):bisect_left(where, end)]]))
    return out


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


# Cells, (state, outcome) pairs, that one vectorised step of the DP holds at
# most: memory then grows with neither the states nor the layer size, and a
# step's dozen or so arrays stay small enough for the CPU caches.
_CHUNK_CELLS = 1 << 15

# Cells that one per-layer array of the DP, the state box or the table of log
# factorials, may hold (512 MiB of float64): gadgets are built from their
# structure alone, so this is where the size of a layer meets memory.
MAX_DP_CELLS = 1 << 26


def _check_cells(cells: int, what: str) -> None:
    if cells > MAX_DP_CELLS:
        raise StateSpaceCapError(
            f"the layered DP's {what} would hold {cells} cells, above the cap of "
            f"{MAX_DP_CELLS}; the layer sizes are infeasible for an exact payoff")


def _log_binom_pmf(log_fact: np.ndarray, n, k, p) -> np.ndarray:
    """log Binom(n, p) pmf at k <= n, broadcast, from log_fact[i] = log(i!)."""
    from scipy.special import xlog1py, xlogy

    return log_fact[n] - log_fact[k] - log_fact[n - k] + xlogy(k, p) + xlog1py(n - k, -p)


def _hoeffding_band(n, cut) -> np.ndarray:
    """Half-width around the mean n p outside which the Binom(n, p) pmf is at
    most cut / 2: the pmf at k is at most exp(-2 (k - n p)^2 / n) (Hoeffding),
    and the slack of 2 covers float rounding in the pmf.  Infinite at cut 0,
    except that n = 0 has the single outcome 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        band = np.sqrt(0.5 * n * np.log(2.0 / cut))
    return np.where(n > 0, band, 0.0)


def _pmf_window(log_fact: np.ndarray, m: int, prob: np.ndarray, cut: np.ndarray):
    """First and last k with Binom(m, prob) pmf above cut, per row of prob and
    cut; the last is before the first in a row with none."""
    band = _hoeffding_band(m, cut)
    start = np.ceil(np.maximum(m * prob - band, 0.0)).astype(np.int64)
    width = int((np.floor(np.minimum(m * prob + band, m)) - start).max()) + 1
    k = np.minimum(start[:, None] + np.arange(max(width, 1)), m)
    above = np.exp(_log_binom_pmf(log_fact, m, k, prob[:, None])) > cut[:, None]
    rows = np.arange(len(k))
    lo = k[rows, above.argmax(axis=1)]
    hi = k[rows, k.shape[1] - 1 - above[:, ::-1].argmax(axis=1)]
    return lo, np.where(above.any(axis=1), hi, lo - 1)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of arange(start, start + count) over the pairs."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts - starts, counts)


def _seed_box(x_lo: int, x_hi: int, y_lo: int, y_hi: int, branches):
    """A zero distribution over the outcome box [x_lo, x_hi] x [y_lo, y_hi]
    shifted by every seed branch, and its (red, blue) offset."""
    r0 = x_lo + min(r for r, _, _ in branches)
    b0 = y_lo + min(b for _, b, _ in branches)
    shape = (x_hi + max(r for r, _, _ in branches) - r0 + 1,
             y_hi + max(b for _, b, _ in branches) - b0 + 1)
    _check_cells(shape[0] * shape[1], f"state box {shape}")
    return np.zeros(shape), r0, b0


def _scatter(dist: np.ndarray, r0: int, b0: int, xs, ys, vals, branches) -> None:
    """Add outcomes (xs, ys) of mass vals, shifted by every seed branch, to dist."""
    flat = dist.reshape(-1)
    for r, b, sp in branches:
        np.add.at(flat, (xs + (r - r0)) * dist.shape[1] + (ys + (b - b0)), vals * sp)


def _layer_transition(p: np.ndarray, pr: np.ndarray, pb: np.ndarray, m: int, prune: float,
                      branches):
    """Distribution of the next layer's (red, blue) totals, its offset, and the
    expected (red, blue) update counts among its m unseeded vertices.
    Raises StateSpaceCapError when a layer needs more than MAX_DP_CELLS cells.

    The states have masses p and one-step probabilities pr and pb.  From a
    state of mass p the m outcomes are a multinomial: Binom(m, pr + pb)
    adopters t, of whom Binom(t, pr / (pr + pb)) turn red.  Outcomes whose
    conditional probability is at most prune / p are dropped.
    """
    from scipy.special import gammaln

    _check_cells(m + 1, "log-factorial table")
    pa = np.minimum(pr + pb, 1.0)
    q = np.divide(pr, pa, out=np.zeros_like(pr), where=pa > 0.0)
    # q is 0 only where pr is 0 and 1 only where pb is 0; the red and blue
    # count windows below then pin x to 0 or to t, so the log of 0 that the
    # split's pmf would multiply by 0 there is replaced by 0.
    log_q = np.log(np.where(q > 0.0, q, 1.0))
    log_1mq = np.log1p(-np.where(q < 1.0, q, 0.0))
    thr = prune / p
    log_fact = gammaln(np.arange(m + 1) + 1)

    def chunked(row_cells: int):
        rows = max(1, _CHUNK_CELLS // row_cells)
        return [slice(lo, min(lo + rows, len(p))) for lo in range(0, len(p), rows)]

    # Per state: the totals t above thr (an outcome is never likelier than
    # its total), and windows of red and blue counts outside which the
    # marginal, hence every outcome, is at most thr.  The count windows use
    # half of thr, so float rounding cannot leave a kept outcome outside them.
    # A window row spans at most 2 band + 2 counts, and never more than m + 1.
    band = float(np.max(_hoeffding_band(m, 0.5 * thr), initial=0.0))
    win = np.empty((6, len(p)), dtype=np.int64)
    for chunk in chunked(int(min(m + 1, 2 * band + 2))):
        for w, (prob, cut) in enumerate(((pa, thr), (pr, 0.5 * thr), (pb, 0.5 * thr))):
            win[2 * w:2 * w + 2, chunk] = _pmf_window(log_fact, m, prob[chunk], cut[chunk])
    t_lo, t_hi, x_lo, x_hi, y_lo, y_hi = win
    n_t = np.where((x_hi >= x_lo) & (y_hi >= y_lo), np.maximum(t_hi - t_lo + 1, 0), 0)
    live = n_t > 0
    if not live.any():
        return np.zeros((0, 0)), 0, 0, 0.0, 0.0

    nxt, nr0, nb0 = _seed_box(int(x_lo[live].min()), int(x_hi[live].max()),
                              int(y_lo[live].min()), int(y_hi[live].max()), branches)
    er = eb = 0.0
    for chunk in chunked(m + 1):
        if not live[chunk].any():
            continue
        # The chunk's (state, total) pairs, each with its window of red counts
        # (where an outcome tp * Binom(t, q) can exceed thr), cut into runs of
        # at most about _CHUNK_CELLS cells.
        s_i = np.repeat(np.arange(chunk.start, chunk.stop), n_t[chunk])
        t_i = _ranges(t_lo[chunk], n_t[chunk])
        tp = np.exp(_log_binom_pmf(log_fact, m, t_i, pa[s_i]))
        mean = t_i * q[s_i]
        band = _hoeffding_band(t_i, thr[s_i] / tp)
        lo = np.maximum(np.maximum(x_lo[s_i], t_i - y_hi[s_i]),
                        np.ceil(np.maximum(mean - band, 0.0)).astype(np.int64))
        hi = np.minimum(np.minimum(x_hi[s_i], t_i - y_lo[s_i]),
                        np.floor(np.minimum(mean + band, t_i)).astype(np.int64))
        counts = np.maximum(hi - lo + 1, 0)
        ends = np.cumsum(counts)
        cuts = np.searchsorted(ends, np.arange(_CHUNK_CELLS, ends[-1], _CHUNK_CELLS), side="right")
        for a, b in zip([0, *cuts], [*cuts, len(counts)]):
            if a == b:
                continue
            pair = np.repeat(np.arange(a, b), counts[a:b])
            xs = _ranges(lo[a:b], counts[a:b])
            ts, ss = t_i[pair], s_i[pair]
            joint = tp[pair] * np.exp(log_fact[ts] - log_fact[xs] - log_fact[ts - xs]
                                      + xs * log_q[ss] + (ts - xs) * log_1mq[ss])
            keep = joint > thr[ss]
            xs, ys, vals = xs[keep], ts[keep] - xs[keep], joint[keep] * p[ss[keep]]
            er += float(vals @ xs)
            eb += float(vals @ ys)
            _scatter(nxt, nr0, nb0, xs, ys, vals, branches)
    return nxt, nr0, nb0, er, eb


def _component_expectation(sizes: tuple[int, ...], ranges, dyn: AdoptionFunction,
                           seeds, prune: float):
    """Exact (E red, E blue) totals over one component, plus the probability
    mass pruning dropped: one minus the mass of the distribution that reaches
    the final layer."""
    er = eb = 0.0

    # Seed totals per layer are state-independent; count them directly.
    layer_seeds = _seeds_by_layer(seeds, ranges)
    layer_seed_branches = []
    for seeds in layer_seeds:
        branches = _seed_branches(*seeds)
        layer_seed_branches.append(branches)
        er += sum(p * r for r, b, p in branches)
        eb += sum(p * b for r, b, p in branches)

    dist, r0, b0 = _seed_box(0, 0, 0, 0, layer_seed_branches[0])
    zero = np.zeros(1, dtype=np.int64)
    _scatter(dist, r0, b0, zero, zero, np.ones(1), layer_seed_branches[0])

    for depth in range(1, len(sizes)):
        sr, sb, contested = layer_seeds[depth]
        m = sizes[depth] - (sr + sb + len(contested))
        last = depth == len(sizes) - 1
        # States at or below `prune` are dropped, except before the final
        # layer, where dropping saves nothing.
        ri, bi = np.nonzero(dist > (0.0 if last else prune))
        p = dist[ri, bi]
        pr, pb = dyn.update_probs_array((ri + r0) / sizes[depth - 1],
                                        (bi + b0) / sizes[depth - 1])
        if last:
            er += m * float(p @ pr)
            eb += m * float(p @ pb)
            break
        dist, r0, b0, dr, db = _layer_transition(p, pr, pb, m, prune,
                                                 layer_seed_branches[depth])
        # Update-count expectations for this layer (seeds were counted already).
        er += dr
        eb += db

    return er, eb, max(0.0, 1.0 - float(dist.sum()))


def layered_exact_payoffs(structure: LayeredStructure, dyn: AdoptionFunction,
                          profile: StrategyProfile,
                          prune: float = DEFAULT_PRUNE) -> PayoffEstimate:
    """Exact expected payoffs on a layered graph.

    `prune` drops probability-mass below the threshold while propagating layer
    distributions; with prune=0 the computation is exact up to float rounding.
    The estimate's `pruned_mass` is the dropped mass, weighted by profile
    probability; each payoff is within `pruned_mass * structure.n` of the
    unpruned value.
    """
    if not (isinstance(prune, (int, float)) and 0.0 <= prune < 1.0):
        raise ValidationError(f"prune must be a finite number in [0, 1), got {prune!r}")
    ranges = structure.layer_ranges()
    er = eb = dropped = 0.0
    for p, red, blue in profile.support_pairs():
        if p == 0.0:
            continue
        if red.n != structure.n or blue.n != structure.n:
            raise ValidationError("allocation length does not match the layered structure")
        seeds = split_seeds(red, blue)
        for comp_sizes, comp_ranges in zip(structure.component_layer_sizes, ranges):
            r, b, d = _component_expectation(comp_sizes, comp_ranges, dyn, seeds, prune)
            er += p * r
            eb += p * b
            dropped += p * d
    return PayoffEstimate(pi_R=er, pi_B=eb, method=EXACT_LAYERED_DP,
                          n_trials=0, stderr_R=0.0, stderr_B=0.0, pruned_mass=dropped)


# ---------------------------------------------------------------------------
# Aggregated Monte Carlo sampler.
# ---------------------------------------------------------------------------


def _layer_plan(structure: LayeredStructure, red: Allocation, blue: Allocation):
    """Per component, per layer: (size, sure red, sure blue, contested
    red-win probabilities), the state-independent part of a run."""
    if red.n != structure.n or blue.n != structure.n:
        raise ValidationError("allocation length does not match the layered structure")
    seeds = split_seeds(red, blue)
    return [[(size, *layer) for (_, size), layer in zip(ranges, _seeds_by_layer(seeds, ranges))]
            for ranges in structure.layer_ranges()]


class _LayerProbs(dict):
    """(P[any adoption], P[red | adoption]) of a layer whose predecessor of
    the given size holds r red and b blue, keyed on (r, b, size): the scalar
    `update_probs(r / size, b / size)`, called once per key."""

    def __init__(self, dyn: AdoptionFunction):
        super().__init__()
        self.dyn = dyn

    def __missing__(self, key):
        r, b, size = key
        pr, pb, _ = self.dyn.update_probs(r / size, b / size)
        pa = pr + pb
        value = self[key] = (pa, pr / pa if pa > 0.0 else 0.0)
        return value


def _sample_plan(plan, probs: _LayerProbs, rng) -> tuple[int, int]:
    """One run's (red, blue) totals: per component and layer, one uniform per
    contested seed, then Binom(m, P[any]) adopters among the m unseeded
    vertices, of whom Binom(adopters, P[red | adoption]) turn red."""
    chi_r = chi_b = 0
    for layers in plan:
        prev = None
        for size, sr, sb, contested in layers:
            for p_red in contested:
                if rng.random() < p_red:
                    sr += 1
                else:
                    sb += 1
            if prev is not None:
                pa, q = probs[prev]
                m = size - (sr + sb)
                total = rng.binomial(m, pa) if (m > 0 and pa > 0.0) else 0
                x = rng.binomial(total, q) if total > 0 else 0
                sr, sb = sr + x, sb + (total - x)
            chi_r += sr
            chi_b += sb
            prev = (sr, sb, size)
    return chi_r, chi_b


def sample_layered_counts(structure: LayeredStructure, dyn: AdoptionFunction,
                          red: Allocation, blue: Allocation, rng) -> tuple[int, int]:
    """One Monte Carlo run, drawing whole layers at once.

    Given layer totals, individual update outcomes are i.i.d. three-way draws,
    so binomial layer draws reproduce the per-vertex process's distribution of
    (red, blue) totals exactly.
    """
    return _sample_plan(_layer_plan(structure, red, blue), _LayerProbs(dyn), rng)


def layered_estimate_payoffs(structure: LayeredStructure, dyn: AdoptionFunction,
                             profile: StrategyProfile, n_trials: int = 10_000,
                             master_seed: int = 0) -> PayoffEstimate:
    """Monte Carlo over aggregated layer draws; same replication-seed scheme
    as the per-vertex estimator.  Replication i draws what the support draw
    and `sample_layered_counts` draw from a fresh PCG64 generator keyed by
    (master_seed, i) (`engine._keyed_generators`); each support pair's layer
    plan is built once, and `update_probs` is called once per distinct input
    for the whole estimate."""
    if not (_is_integer(n_trials) and n_trials >= 1):
        raise ValidationError(f"n_trials must be a positive integer, got {n_trials!r}")
    _require_master_seed(master_seed)
    pairs = profile.support_pairs()
    plans = {(id(red), id(blue)): _layer_plan(structure, red, blue) for _, red, blue in pairs}
    probs = _LayerProbs(dyn)
    return monte_carlo_estimate(*_one_at_a_time(
        (pairs,), lambda red, blue, rng: _sample_plan(plans[id(red), id(blue)], probs, rng),
        _seed_keys([master_seed]), n_trials, 0, n_trials))
