"""Exact payoffs on layered directed graphs via a per-layer dynamic program.

A layered graph is a disjoint union of components, each a sequence of vertex
layers with complete bipartite edges from every layer to the next.  Every
vertex in layer i+1 has the whole of layer i as its in-neighborhood, so given
the (red, blue) totals of layer i, the layer i+1 update outcomes are i.i.d.
three-way draws and their counts follow a multinomial.  Tracking the joint
distribution of per-layer (red, blue) totals therefore gives exact expected
payoffs in time polynomial in the layer sizes — graphs far beyond the reach of
the branch-enumeration oracle.

Under linear selection, g(x) = x, a `SwitchSelectAdoption` layer's adopter
total depends on the previous layer's total T alone, and each adopter is red
with probability X / T, X being that layer's red count.  Every payoff is then
linear in X, so the DP carries one vector over totals, P(T) with the red mass
E[X 1{T}], instead of the (red, blue) box: the chain is lumpable on totals
(Kemeny and Snell, *Finite Markov Chains*, 1960), and the step is exact.  Its
pruning drops states of mass at most `prune` and, within a state of mass p,
adopter counts whose pmf is at most prune / p; the box step keeps the same
rule for its red and blue counts.

The final layer of each component never influences anything downstream, so
only its expectation is needed, which keeps components with enormous terminal
layers cheap.
"""

from __future__ import annotations

import numbers
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import engine
from .dynamics import AdoptionFunction, LayerOrder, SwitchSelectAdoption, TullockSelection
from .engine import (
    EXACT_LAYERED_DP,
    Allocation,
    PayoffEstimate,
    StrategyProfile,
    _binomial,
    _draw_contests,
    _draw_supports,
    _Draws,
    _is_integer,
    _ProbTable,
    _require_count,
    _seed_keys,
    monte_carlo_estimate,
    split_seeds,
)
from .errors import StateSpaceCapError, ValidationError
from .graphs import RED, Graph

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
        # Complete bipartite layer pairs; consecutive ids keep them in sorted order.
        blocks = [np.column_stack((np.arange(s0, s0 + m0).repeat(m1), np.tile(np.arange(s1, s1 + m1), m0)))
                  for comp in self.layer_ranges() for (s0, m0), (s1, m1) in zip(comp, comp[1:])]
        return Graph(n=self.n, edges=np.concatenate([np.empty((0, 2), np.int64)] + blocks), directed=True)


def validate_layered_graph(graph: Graph, structure: LayeredStructure) -> None:
    """Check that `graph` is exactly the layered graph the structure describes."""
    if graph.n != structure.n:
        raise ValidationError(
            f"graph has {graph.n} vertices, structure describes {structure.n}")
    if not graph.directed:
        raise ValidationError("layered graphs are directed")
    if len(graph.edge_array) != structure.n_edges:
        raise ValidationError(
            f"graph has {len(graph.edge_array)} edges, structure describes {structure.n_edges}")
    expected = structure.build_graph(max_edges=structure.n_edges).edge_array
    if not np.array_equal(graph.edge_array, expected):
        raise ValidationError("graph edges do not match the layered structure")


# ---------------------------------------------------------------------------
# Seed bookkeeping.
# ---------------------------------------------------------------------------


def _seeds_by_layer(seeds, ranges) -> list[tuple[int, int, tuple[float, ...]]]:
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
                    tuple(p for _, p in
                          contested[bisect_left(where, start):bisect_left(where, end)])))
    return out


def _seed_branches(sr: int, sb: int, contested):
    """Distribution over (red, blue) seed totals for one layer: the c + 1
    red counts of its c contested seeds, by one convolution per seed."""
    pmf = np.ones(1)
    for p_red in contested:
        pmf = np.append(pmf * (1.0 - p_red), 0.0) + np.append(0.0, pmf * p_red)
    return [(sr + k, sb + len(pmf) - 1 - k, float(w)) for k, w in enumerate(pmf)]


# ---------------------------------------------------------------------------
# Exact DP.
# ---------------------------------------------------------------------------


# Cells that one array of a block's factors, U or V, or one chunk of pmf rows
# holds at most, unless a row is longer: memory then grows with neither the
# states nor the layer size.
_CHUNK_CELLS = 1 << 15

# Cells that one per-layer array of the DP, the state box or the table of log
# factorials, may hold (512 MiB of float64): gadgets are built from their
# structure alone, so this is where the size of a layer meets memory.
MAX_DP_CELLS = 1 << 26

# Counts that one step of a window search evaluates over all its entries.
_WINDOW_CELLS = 1 << 12

# Largest log weight, in nats, that a state may carry in a block (see
# `_layer_transition`): far enough below float overflow (709) that a block's
# sums stay finite, and its cells lose no accuracy where exp(R) underflows.
_LOG_WEIGHT_CAP = 600.0

# A block grows while its box, times its states, stays within this many times
# its states' own windows, plus a fixed slack that pays for a block's setup.
_BOX_WASTE = 16
_BOX_SLACK = 1 << 18


def _check_cells(cells: int, what: str) -> None:
    if cells > MAX_DP_CELLS:
        raise StateSpaceCapError(
            f"the layered DP's {what} would hold {cells} cells, above the cap of "
            f"{MAX_DP_CELLS}; the layer sizes are infeasible for an exact payoff")


def _log_factorials(m: int) -> np.ndarray:
    """log k! for k = 0..m, a table of m + 1 cells under `_check_cells`."""
    from scipy.special import gammaln

    _check_cells(m + 1, "log-factorial table")
    return gammaln(np.arange(m + 1) + 1)


def _log_binom_pmf(log_fact: np.ndarray, n, k, p) -> np.ndarray:
    """log Binom(n, p) pmf at k <= n, broadcast, from log_fact[i] = log(i!)."""
    from scipy.special import xlog1py, xlogy

    return log_fact[n] - log_fact[k] - log_fact[n - k] + xlogy(k, p) + xlog1py(n - k, -p)


def _pmf_window(log_fact: np.ndarray, m: int, prob: np.ndarray, cut: np.ndarray):
    """First and last k with Binom(m, prob) pmf above cut, per entry of prob
    and cut; the last is before the first where there is none.

    The pmf is unimodal, with its peak at the larger of floor((m + 1) prob)
    and the count below it.  So each end is the first count above the cut on
    the way in from 0 or from m to the peak, where the pmf rises.  Each step
    evaluates K - 1 counts evenly spread over every range still open, with K
    as large as _WINDOW_CELLS allows (a few entries take one dense step, many
    a bisection), and keeps the part that holds the first count above it."""
    n = len(prob)
    prob2, cut2 = np.concatenate([prob, prob]), np.concatenate([cut, cut])
    mode = np.minimum(np.floor((m + 1) * prob), m).astype(np.int64)
    below = np.maximum(mode - 1, 0)
    at = _log_binom_pmf(log_fact, m, np.concatenate([below, mode]), prob2)
    peak = np.where(at[:n] > at[n:], below, mode)
    found = np.exp(np.maximum(at[:n], at[n:])) > cut
    # Distances d in from each end, the count d on the left and m - d on the
    # right; every range [lo, hi] ends at a count above the cut when found.
    left = (np.arange(2 * n) < n)[:, None]
    lo = np.zeros(2 * n, dtype=np.int64)
    hi = np.concatenate([peak, m - peak])
    k = min(m + 1, max(2, _WINDOW_CELLS // max(2 * n, 1)))
    rows = np.arange(2 * n)
    while (hi > lo).any():
        d = lo[:, None] + (hi - lo)[:, None] * np.arange(1, k) // k
        log_pmf = _log_binom_pmf(log_fact, m, np.where(left, d, m - d), prob2[:, None])
        ok = np.exp(log_pmf) > cut2[:, None]
        first = np.where(ok.any(axis=1), ok.argmax(axis=1), k - 1)
        lo, hi = (np.where(first > 0, d[rows, first - 1] + 1, lo),
                  np.where(first < k - 1, d[rows, np.minimum(first, k - 2)], hi))
    return lo[:n], np.where(found, m - lo[n:], lo[:n] - 1)


def _binom_mixture(log_fact: np.ndarray, m: int, prob: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray, weights: np.ndarray):
    """The counts ks from min(lo) to max(hi), and weights @ M, where row i of
    M is the Binom(m, prob[i]) pmf at ks inside [lo[i], hi[i]] and 0 outside;
    M is formed a chunk of rows at a time."""
    ks = np.arange(lo.min(), hi.max() + 1)
    out = np.zeros((len(weights), len(ks)))
    rows = max(1, _CHUNK_CELLS // len(ks))
    for c in range(0, len(prob), rows):
        q = slice(c, c + rows)
        _check_cells(len(prob[q]) * len(ks), f"pmf rows {(len(prob[q]), len(ks))}")
        inside = (ks >= lo[q, None]) & (ks <= hi[q, None])
        log_pmf = _log_binom_pmf(log_fact, m, ks, prob[q, None])
        out += weights[:, q] @ np.exp(np.where(inside, log_pmf, -np.inf))
    return ks, out


def _seed_box(x_lo: int, x_hi: int, y_lo: int, y_hi: int, branches):
    """A zero distribution over the outcome box [x_lo, x_hi] x [y_lo, y_hi]
    shifted by every seed branch, and its (red, blue) offset."""
    r0 = x_lo + min(r for r, _, _ in branches)
    b0 = y_lo + min(b for _, b, _ in branches)
    shape = (x_hi + max(r for r, _, _ in branches) - r0 + 1,
             y_hi + max(b for _, b, _ in branches) - b0 + 1)
    _check_cells(shape[0] * shape[1], f"state box {shape}")
    return np.zeros(shape), r0, b0


def _add_box(dist: np.ndarray, r0: int, b0: int, x0: int, y0: int, box: np.ndarray,
             branches) -> None:
    """Add box, whose cell [0, 0] is the outcome (x0, y0), to dist shifted by
    every seed branch."""
    for r, b, sp in branches:
        i, j = x0 + r - r0, y0 + b - b0
        dist[i:i + box.shape[0], j:j + box.shape[1]] += sp * box


def _peak(log_fact: np.ndarray, tilt: np.ndarray, k_lo: np.ndarray, k_hi: np.ndarray):
    """max over k in [k_lo, k_hi] of k tilt - log k!, which is concave in k
    with its top at floor(e^tilt) (e^700 is below float overflow)."""
    top = np.floor(np.exp(np.minimum(tilt, 700.0)))
    k = np.minimum(np.maximum(top, k_lo), k_hi).astype(np.int64)
    return k * tilt - log_fact[k]


def _factor(log_fact: np.ndarray, ks: np.ndarray, tilt: np.ndarray, top: np.ndarray,
            k_lo: np.ndarray, k_hi: np.ndarray) -> np.ndarray:
    """exp(k tilt - log k! - top) per row at the counts ks, 0 outside the
    row's window [k_lo, k_hi]."""
    inside = (ks >= k_lo[:, None]) & (ks <= k_hi[:, None])
    return np.exp(np.where(inside, ks * tilt[:, None] - log_fact[ks] - top[:, None], -np.inf))


def _grid_boxes(log_fact: np.ndarray, m: int, p: np.ndarray, probs: np.ndarray,
                lo: np.ndarray, hi: np.ndarray):
    """Yield (x0, y0, box) over blocks of states with pa < 1, box[i, j] being
    the probability of x0 + i red and y0 + j blue adopters summed over the
    block.  probs, lo and hi hold each state's (red, blue) probabilities and
    count windows in two rows; see `_layer_transition`."""
    order = np.argsort(probs.sum(axis=0), kind="stable")
    p, probs, lo, hi = p[order], probs[:, order], lo[:, order], hi[:, order]
    log_1m = np.log1p(-np.minimum(probs.sum(axis=0), 1.0))
    # a(x) and b(y) before λ; a probability of 0 has the window [0, 0].
    tilt = np.log(np.where(probs > 0.0, probs, 1.0)) - log_1m
    base = m * log_1m + np.log(p)
    ts = np.arange(m + 1)
    lk = log_fact[m] - log_fact[m - ts]
    areas = (hi - lo + 1).prod(axis=0)
    start = 0
    while start < len(p):
        # The block takes its first state's best λ, log(m (1 - pa)), and ends
        # before the first later state whose weight would pass the cap, or
        # whose box would waste more than _BOX_WASTE times the block's own
        # windows.
        lam = float(np.log(m) + log_1m[start])
        shift = lk - lam * ts
        top = float(shift.max())
        s = slice(start, None)
        peaks = _peak(log_fact, tilt[:, s] + lam, lo[:, s], hi[:, s])
        log_w = peaks.sum(axis=0) + base[s] + top
        box = (np.maximum.accumulate(hi[:, s], axis=1)
               - np.minimum.accumulate(lo[:, s], axis=1) + 1).prod(axis=0)
        waste = np.arange(1, len(box) + 1) * box - _BOX_WASTE * np.cumsum(areas[s])
        ok = (log_w <= _LOG_WEIGHT_CAP) & (waste <= _BOX_SLACK)
        ok[0] = True
        size = len(ok) if ok.all() else int(ok.argmin())
        b = slice(start, start + size)
        b_lo, b_hi = lo[:, b], hi[:, b]
        (x0, y0), (x1, y1) = b_lo.min(axis=1), b_hi.max(axis=1)
        xs, ys = np.arange(x0, x1 + 1), np.arange(y0, y1 + 1)
        tilts, peaks, w = tilt[:, b] + lam, peaks[:, :size], np.exp(log_w[:size])
        prod = np.zeros((len(xs), len(ys)))
        rows = max(1, _CHUNK_CELLS // max(len(xs), len(ys)))
        for c in range(0, size, rows):
            q = slice(c, c + rows)
            u, v = (_factor(log_fact, ks, tilts[i, q], peaks[i, q], b_lo[i, q], b_hi[i, q])
                    for i, ks in enumerate((xs, ys)))
            prod += (u * w[q, None]).T @ v
        # exp(R[x + y]) as a Hankel view over the box, 0 past m.
        tt = np.arange(x0 + y0, x1 + y1 + 1)
        e_r = np.where(tt <= m, np.exp(shift[np.minimum(tt, m)] - top), 0.0)
        prod *= np.lib.stride_tricks.sliding_window_view(e_r, len(ys))
        yield int(x0), int(y0), prod
        start += size


def _layer_transition(p: np.ndarray, pr: np.ndarray, pb: np.ndarray, m: int, prune: float,
                      branches):
    """Distribution of the next layer's (red, blue) totals, its offset, and the
    expected (red, blue) update counts among its m unseeded vertices.
    Raises StateSpaceCapError, before any product is formed, when a layer
    needs more than MAX_DP_CELLS cells.

    The states have masses p and one-step probabilities pr and pb, with pa =
    pr + pb.  From a state the m outcomes are a multinomial: x red, y blue and
    m - x - y failed updates.  Within a state of mass p, an outcome is dropped
    when the Binom(m, pr) pmf at x or the Binom(m, pb) pmf at y is at most
    prune / p: an outcome is never likelier than either marginal.

    With LK[t] = log m!/(m - t)! and any λ, the log probability of (x, y) is
    R[x + y] + a(x) + b(y) + c, where a(x) = x (log pr - log(1 - pa) + λ) -
    log x!, b(y) is the same with pb, c = m log(1 - pa) + K + log p, and R[t] =
    LK[t] - λ t - K with K = max_t (LK[t] - λ t), so that R <= 0.  R is the same
    for every state.  So over states that share λ the next layer's box is
    exp(R[x + y]) times the matrix product U^T diag(w) V, where U = exp(a - α)
    and V = exp(b - β) are shifted by their maxima over each state's window,
    and w = exp(c + α + β).  A state's best λ is log(m (1 - pa)); states sorted
    by pa share λ in blocks small enough that no weight passes
    _LOG_WEIGHT_CAP and no box grows far past its states' own windows
    (`_grid_boxes`).  States with pa = 1 have no failures: x is Binom(m, pr /
    pa) on the line x + y = m.  Each seed branch adds a shifted copy.
    """
    log_fact = _log_factorials(m)
    n = len(p)
    probs = np.stack([pr, pb])
    pa = np.minimum(pr + pb, 1.0)
    thr = prune / p
    lo, hi = (k.reshape(2, n) for k in _pmf_window(log_fact, m, probs.ravel(),
                                                     np.concatenate([thr, thr])))
    # Rows are (red, blue) windows.  Outcomes have x + y <= m, and those on
    # the line x + y = m, where each count also fixes the other.
    line = (pa >= 1.0) | (m == 0)
    lo, hi = np.where(line, np.maximum(lo, m - hi[::-1]), lo), np.minimum(hi, m - lo[::-1])
    live = (hi >= lo).all(axis=0)
    if not live.any():
        return np.zeros((0, 0)), 0, 0, 0.0, 0.0
    (x_lo, y_lo), (x_hi, y_hi) = lo[:, live].min(axis=1), hi[:, live].max(axis=1)
    nxt, r0, b0 = _seed_box(int(x_lo), int(x_hi), int(y_lo), int(y_hi), branches)
    er = eb = 0.0

    s = np.flatnonzero(live & line)
    if len(s):
        # Each state's Binom(m, pr / pa) pmf over its window, on the counts
        # of the line.
        share = np.divide(pr[s], pa[s], out=np.zeros(len(s)), where=pa[s] > 0.0)
        xs, (mass,) = _binom_mixture(log_fact, m, share, lo[0, s], hi[0, s], p[s][None])
        er += float(mass @ xs)
        eb += float(mass @ (m - xs))
        for r, b, sp in branches:
            nxt[xs + (r - r0), m - xs + (b - b0)] += sp * mass

    s = np.flatnonzero(live & ~line)
    for x0, y0, box in _grid_boxes(log_fact, m, p[s], probs[:, s], lo[:, s], hi[:, s]):
        er += float(box.sum(axis=1) @ np.arange(x0, x0 + box.shape[0]))
        eb += float(box.sum(axis=0) @ np.arange(y0, y0 + box.shape[1]))
        _add_box(nxt, r0, b0, x0, y0, box, branches)
    return nxt, r0, b0, er, eb


def _lumped_transition(p: np.ndarray, pa: np.ndarray, share: np.ndarray, m: int, prune: float,
                       seeds: int, red_seeds: float):
    """Under linear selection: the next layer's distribution over its totals,
    its red mass E[X 1{T}] at each total, its smallest total, and the expected
    (red, blue) update counts among its m unseeded vertices.
    Raises StateSpaceCapError when its table of log factorials or a chunk of
    pmf rows needs more than MAX_DP_CELLS cells; the next state, m + 1
    totals at most, is no larger than the table.

    The states are the previous layer's totals, with masses p, adoption
    probabilities pa and red shares E[X | T] / T.  From a state, A ~ Binom(m,
    pa) vertices adopt, each red with the state's red share, so the next total
    is seeds + A and its red mass gains red_seeds (sure red seeds plus the
    contested seeds' red-win probabilities) plus A times the share.  Within a
    state of mass p, an A whose pmf is at most prune / p is dropped."""
    log_fact = _log_factorials(m)
    lo, hi = _pmf_window(log_fact, m, pa, prune / p)
    live = hi >= lo
    if not live.any():
        return np.zeros(0), np.zeros(0), 0, 0.0, 0.0
    ks, (mass, red) = _binom_mixture(log_fact, m, pa[live], lo[live], hi[live],
                                     np.stack([p, p * share])[:, live])
    red *= ks
    er = float(red.sum())
    return mass, red_seeds * mass + red, seeds + int(ks[0]), er, float(mass @ ks) - er


class LayeredDP:
    """Exact payoffs of profiles on one layered structure, dynamics and prune.

    Under linear selection a layer's state is its distribution over totals
    with its red mass (`_lumped_transition`), otherwise its distribution of
    (red, blue) totals (`_layer_transition`).  A component's state entering
    layer d depends only on its seeded prefix: the sizes and seeds (sure red,
    sure blue, contested red-win probabilities) of its layers 0 through d.
    The object keeps each step's output under that prefix, and whether layer
    d is the component's last, for its lifetime, so every profile and
    component that reaches the prefix shares one step.
    The arithmetic is that of a fresh evaluation: no output moves by a bit."""

    def __init__(self, structure: LayeredStructure, dyn: AdoptionFunction,
                 prune: float = DEFAULT_PRUNE):
        if isinstance(prune, bool) or not (isinstance(prune, numbers.Real) and 0.0 <= prune < 1.0):
            raise ValidationError(f"prune must be a finite number in [0, 1), got {prune!r}")
        self.structure, self.dyn, self.prune = structure, dyn, float(prune)
        self._ranges = structure.layer_ranges()
        self._steps = {}
        # Linear selection: every step reads only the layer totals.
        self._lumped = (isinstance(dyn, SwitchSelectAdoption)
                        and isinstance(dyn.selection, TullockSelection)
                        and dyn.selection.exponent == 1)

    def payoffs(self, profile: StrategyProfile) -> PayoffEstimate:
        """`layered_exact_payoffs` of the profile."""
        er = eb = dropped = 0.0
        for p, red, blue in profile.support_pairs():
            if p == 0.0:
                continue
            if red.n != self.structure.n or blue.n != self.structure.n:
                raise ValidationError("allocation length does not match the layered structure")
            seeds = split_seeds(red, blue)
            for comp_sizes, comp_ranges in zip(self.structure.component_layer_sizes,
                                               self._ranges):
                r, b, d = self._component_expectation(comp_sizes, comp_ranges, seeds)
                er += p * r
                eb += p * b
                dropped += p * d
        return PayoffEstimate(pi_R=er, pi_B=eb, method=EXACT_LAYERED_DP,
                              n_trials=0, stderr_R=0.0, stderr_B=0.0, pruned_mass=dropped)

    def _component_expectation(self, sizes: tuple[int, ...], ranges, seeds):
        """Exact (E red, E blue) totals over one component, plus the probability
        mass pruning dropped: one minus the mass of the distribution that
        reaches the final layer."""
        # Seed totals per layer are state-independent; count them directly.
        layer_seeds = _seeds_by_layer(seeds, ranges)
        red_seeds = [sr + sum(contested) for sr, _, contested in layer_seeds]
        er = sum(red_seeds)
        eb = sum(sb + sum(1.0 - p for p in contested) for _, sb, contested in layer_seeds)
        sr, sb, contested = layer_seeds[0]
        if self._lumped:
            # The layer's distribution over totals T, its red mass E[X 1{T}]
            # and its smallest total.
            state = (np.ones(1), np.array([red_seeds[0]]), sr + sb + len(contested))
        else:
            # The layer's distribution over (red, blue) totals and its offset.
            branches = _seed_branches(sr, sb, contested)
            dist, r0, b0 = _seed_box(0, 0, 0, 0, branches)
            _add_box(dist, r0, b0, 0, 0, np.ones((1, 1)), branches)
            state = (dist, r0, b0)

        for depth in range(1, len(sizes)):
            sr, sb, contested = layer_seeds[depth]
            m = sizes[depth] - (sr + sb + len(contested))
            last = depth == len(sizes) - 1
            # The seeded prefix, and whether it ends the component: all that
            # the step into this layer reads.
            key = (last, sizes[:depth + 1], *layer_seeds[:depth + 1])
            step = self._steps.get(key)
            if step is None:
                # States at or below `prune` are dropped, except before the
                # final layer, where dropping saves nothing.
                cut, size = 0.0 if last else self.prune, sizes[depth - 1]
                if self._lumped:
                    mass, red, t0 = state
                    keep = np.flatnonzero(mass > cut)
                    p, totals = mass[keep], t0 + keep
                    pa, _ = self.dyn.update_probs_array(totals / size, np.zeros(len(keep)))
                    share = np.divide(red[keep], p * totals, out=np.zeros(len(keep)),
                                      where=totals > 0)
                    pr, pb = pa * share, pa * (1.0 - share)
                else:
                    dist, r0, b0 = state
                    ri, bi = np.nonzero(dist > cut)
                    p = dist[ri, bi]
                    pr, pb = self.dyn.update_probs_array((ri + r0) / size, (bi + b0) / size)
                if last:
                    # The state entering the final layer is the mass that reaches it.
                    step = (*state, m * float(p @ pr), m * float(p @ pb))
                elif self._lumped:
                    step = _lumped_transition(p, pa, share, m, self.prune,
                                              sr + sb + len(contested), red_seeds[depth])
                else:
                    step = _layer_transition(p, pr, pb, m, self.prune,
                                             _seed_branches(sr, sb, contested))
                self._steps[key] = step
            *state, dr, db = step
            # Update-count expectations for this layer (seeds were counted already).
            er += dr
            eb += db

        return er, eb, max(0.0, 1.0 - float(state[0].sum()))


def layered_exact_payoffs(structure: LayeredStructure, dyn: AdoptionFunction,
                          profile: StrategyProfile,
                          prune: float = DEFAULT_PRUNE) -> PayoffEstimate:
    """Exact expected payoffs on a layered graph.

    `prune` drops probability-mass below the threshold while propagating layer
    distributions; with prune=0 the computation is exact up to float rounding.
    The estimate's `pruned_mass` is the dropped mass, weighted by profile
    probability; each payoff is within `pruned_mass * structure.n` of the
    unpruned value.  This evaluates the profile alone, on a fresh `LayeredDP`;
    one `LayeredDP` evaluating many profiles of the structure shares their
    layer distributions and gives the same outputs bit for bit.
    """
    return LayeredDP(structure, dyn, prune).payoffs(profile)


# ---------------------------------------------------------------------------
# Aggregated Monte Carlo sampler.
# ---------------------------------------------------------------------------


def _layer_plan(structure: LayeredStructure, pairs):
    """Per component, per layer: its size, the sure red and sure blue seeds
    there of each support pair (arrays over pairs), and (pair, contested
    red-win probabilities) for each pair that contests vertices there; the
    state-independent part of a run."""
    ranges = structure.layer_ranges()
    by_pair = []
    for _, red, blue in pairs:
        if red.n != structure.n or blue.n != structure.n:
            raise ValidationError("allocation length does not match the layered structure")
        seeds = split_seeds(red, blue)
        by_pair.append([_seeds_by_layer(seeds, comp) for comp in ranges])
    plan = []
    for c, sizes in enumerate(structure.component_layer_sizes):
        layers = []
        for depth, size in enumerate(sizes):
            sure_red, sure_blue, contested = zip(*(seeds[c][depth] for seeds in by_pair))
            layers.append((size, np.array(sure_red), np.array(sure_blue),
                           [(k, np.array(p_red)) for k, p_red in enumerate(contested) if p_red]))
        plan.append(layers)
    return plan


def _layer_table(structure: LayeredStructure, dyn: AdoptionFunction) -> _ProbTable:
    """The update probabilities of every layer after the first, in component
    and layer order, each looked up by its index here and keyed on its
    predecessor's (size, red, blue)."""
    return _ProbTable(dyn, np.array([size for comp in structure.component_layer_sizes
                                     for size in comp[:-1]], dtype=np.intp))


def _sample_block(plan, table: _ProbTable, which: np.ndarray, draws: _Draws):
    """chi_R and chi_B of a block of runs, run together: row j runs support
    pair which[j] of the plan (`_layer_plan`) and draws from draws' row j.

    Per component and layer, every row draws its pair's contested seeds
    there (`engine._draw_contests`).  Then, after the first layer, with (P[Red], P[Red or Blue]) at the predecessor's (size,
    red, blue) from the table, Binom(m, P[Red or Blue]) of the m unseeded
    vertices adopt, of whom Binom(adopters, P[Red] / P[Red or Blue]) turn red
    (`engine._binomial`)."""
    rows = np.arange(len(which))
    chi_r = np.zeros(len(rows), dtype=np.int64)
    chi_b = np.zeros(len(rows), dtype=np.int64)
    slot = 0
    for layers in plan:
        for depth, (size, sure_red, sure_blue, contests) in enumerate(layers):
            red, blue = sure_red[which], sure_blue[which]
            for k, p_win in contests:
                at = np.flatnonzero(which == k)
                won = np.count_nonzero(_draw_contests(draws, at, p_win) == RED, axis=1)
                red[at] += won
                blue[at] += len(p_win) - won
            if depth:
                p_red, p_any = table.lookup(np.full(len(rows), slot), red_before, blue_before)
                slot += 1
                adopters = _binomial(draws, rows, size - red - blue, p_any)
                share = np.divide(p_red, p_any, out=np.zeros(len(rows)), where=p_any > 0.0)
                x = _binomial(draws, rows, adopters, share)
                red += x
                blue += adopters - x
            chi_r += red
            chi_b += blue
            red_before, blue_before = red, blue
    return chi_r, chi_b


def sample_layered_counts(structure: LayeredStructure, dyn: AdoptionFunction,
                          red: Allocation, blue: Allocation, rng) -> tuple[int, int]:
    """One Monte Carlo run, drawing whole layers at once.

    Given layer totals, individual update outcomes are i.i.d. three-way draws,
    so binomial layer draws reproduce the per-vertex process's distribution of
    (red, blue) totals exactly.  The run is one row of
    `layered_estimate_payoffs`' block step, with no support draw, on the
    SplitMix64 stream keyed by one uint64 that it draws from rng, a numpy
    `Generator` or a seed for one.
    """
    plan = _layer_plan(structure, [(1.0, red, blue)])
    keys = np.array([np.random.default_rng(rng).integers(2**64, dtype=np.uint64)])
    chi_r, chi_b = _sample_block(plan, _layer_table(structure, dyn), np.zeros(1, dtype=np.intp),
                                 _Draws(keys))
    return int(chi_r[0]), int(chi_b[0])


# Runs that one block step of the layer sampler advances together; a full
# block peaks at about 7 MB under tracemalloc.
_SAMPLER_BLOCK = 1 << 14


def layered_estimate_payoffs(structure: LayeredStructure, dyn: AdoptionFunction,
                             profile: StrategyProfile, n_trials: int = 10_000,
                             master_seed: int = 0) -> PayoffEstimate:
    """Monte Carlo over aggregated layer draws, with `estimate_payoffs`'
    replication keys: replication i draws from the SplitMix64
    stream keyed by (master_seed, i) (`engine._replication_words`,
    `engine._Draws`), and a block of replications advances through each
    component's layers together (`_sample_block`).

    A replication takes its uniforms in this order: its support pair, where
    the profile has more than one (`engine._draw_supports`); then per
    component, per layer, its contested seeds, followed by the draws of the
    layer's adopter binomial and then of its red binomial, rejected BTRS
    attempts included (`engine._binomial`).  So its result depends only on
    its key.  Each support pair's layer plan is built once, and
    `update_probs_array` is called once per distinct (predecessor size, red,
    blue) for the whole estimate."""
    _require_count(n_trials, "n_trials", 1)
    _require_count(master_seed, "master_seed", 0)
    pairs = profile.support_pairs()
    plan = _layer_plan(structure, pairs)
    table = _layer_table(structure, dyn)
    cumulative = np.cumsum([p for p, _, _ in pairs])

    def run(keys: np.ndarray, jobs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        draws = _Draws(keys)
        which = np.zeros(len(keys), dtype=np.intp)
        if len(pairs) > 1:
            which = _draw_supports(draws, np.arange(len(keys)), cumulative)
        return _sample_block(plan, table, which, draws)

    return monte_carlo_estimate(*engine._fill(run, _seed_keys([master_seed]), n_trials, 0,
                                              n_trials, _SAMPLER_BLOCK))
