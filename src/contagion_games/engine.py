"""Seed allocations, strategy profiles, and expected-payoff computation.

Payoffs can be computed three ways: Monte Carlo replication (`estimate_payoffs`),
exhaustive enumeration of every stochastic branch (`exact_payoffs`), and — for
layered graphs — the dynamic program in `layered.py`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .dynamics import (
    AdoptionFunction,
    UpdateSchedule,
    batched_form,
    run_contagion,
)
from .errors import StateSpaceCapError, ValidationError, decode_document, real_number
from .graphs import BLUE, RED, UNINFECTED, Graph

EXACT_ENUMERATION = "exact-enumeration"
EXACT_LAYERED_DP = "exact-layered-dp"
MONTE_CARLO = "monte-carlo"

DEFAULT_TRIALS = 20_000
# The enumeration oracle explores at most this many tree nodes before giving up
# (22 binary branchings' worth of outcomes).
DEFAULT_NODE_CAP = 1 << 22


# ---------------------------------------------------------------------------
# Allocations and profiles.
# ---------------------------------------------------------------------------


def _is_integer(value) -> bool:
    """An integer, numpy's included, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _seed_vertex(v, n: int) -> int:
    if _is_integer(v) and 0 <= v < n:
        return int(v)
    raise ValidationError(f"seed vertex {v!r} is not a vertex id in 0..{n - 1}")


@dataclass(frozen=True, init=False)
class Allocation:
    """One player's seeds: the vertex count n and the sorted (vertex, count)
    pairs of the seeded vertices.

    `Allocation(counts)` takes a dense per-vertex count sequence; `counts`
    gives it back.  Two allocations are equal exactly when their dense counts
    are, and hash alike.
    """

    n: int
    seeds: tuple[tuple[int, int], ...]

    def __init__(self, counts: Sequence[int]):
        try:
            dense = list(counts)
        except TypeError:
            raise ValidationError(f"allocation counts must be a sequence, got {counts!r}") from None
        seeds = []
        for v, c in enumerate(dense):
            if isinstance(c, np.integer):
                c = int(c)
            # Exactly int: booleans are not counts.
            if type(c) is not int or c < 0:
                raise ValidationError(
                    f"allocation count at vertex {v} must be a nonnegative integer, got {c!r}")
            if c:
                seeds.append((v, c))
        self._set(len(dense), tuple(seeds))

    @classmethod
    def _of(cls, n: int, counts: dict[int, int]) -> "Allocation":
        """The allocation with the given positive counts on valid vertices."""
        alloc = object.__new__(cls)
        alloc._set(n, tuple(sorted(counts.items())))
        return alloc

    def _set(self, n: int, seeds: tuple[tuple[int, int], ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "seeds", seeds)
        # Hashed once: the payoff oracle hashes its keys on every lookup.
        object.__setattr__(self, "_hash", hash((n, seeds)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Allocation._of, (self.n, dict(self.seeds))

    @property
    def counts(self) -> tuple[int, ...]:
        """The dense per-vertex counts, built on each call."""
        dense = [0] * self.n
        for v, c in self.seeds:
            dense[v] = c
        return tuple(dense)

    @property
    def budget(self) -> int:
        return sum(c for _, c in self.seeds)

    def seeded_vertices(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.seeds)

    @staticmethod
    def empty(n: int) -> "Allocation":
        return Allocation._of(n, {})

    @staticmethod
    def from_seeds(n: int, vertices: Sequence[int]) -> "Allocation":
        return Allocation._of(n, Counter(_seed_vertex(v, n) for v in vertices))

    def move_seed(self, src: int, dst: int) -> "Allocation":
        """A copy with one seed relocated from src to dst."""
        src, dst = _seed_vertex(src, self.n), _seed_vertex(dst, self.n)
        counts = Counter(dict(self.seeds))
        if counts[src] < 1:
            raise ValidationError(f"no seed at vertex {src} to move")
        counts[src] -= 1
        counts[dst] += 1
        return Allocation._of(self.n, +counts)


@dataclass(frozen=True)
class MixedAllocation:
    """Finite-support distribution over allocations of equal budget."""

    entries: tuple[tuple[float, Allocation], ...]

    def __post_init__(self):
        entries = tuple((real_number(p, "mixed-allocation probability"), a)
                        for p, a in self.entries)
        if not entries:
            raise ValidationError("a mixed allocation needs at least one entry")
        total = 0.0
        n = entries[0][1].n
        budget = entries[0][1].budget
        for p, a in entries:
            if not (0.0 <= p <= 1.0):
                raise ValidationError(f"mixed-allocation probability {p} outside [0, 1]")
            if a.n != n:
                raise ValidationError("mixed-allocation entries disagree on vertex count")
            if a.budget != budget:
                raise ValidationError("mixed-allocation entries disagree on budget")
            total += p
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"mixed-allocation probabilities sum to {total}, not 1")
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return self.entries[0][1].n

    @property
    def budget(self) -> int:
        return self.entries[0][1].budget


PlayerStrategy = Union[Allocation, MixedAllocation]


@dataclass(frozen=True)
class StrategyProfile:
    red: PlayerStrategy
    blue: PlayerStrategy

    def __post_init__(self):
        if self.red.n != self.blue.n:
            raise ValidationError("the two players' strategies disagree on vertex count")

    @property
    def is_pure(self) -> bool:
        return isinstance(self.red, Allocation) and isinstance(self.blue, Allocation)

    def support_pairs(self) -> tuple[tuple[float, Allocation, Allocation], ...]:
        """(probability, red allocation, blue allocation) over the joint support."""
        reds = ((1.0, self.red),) if isinstance(self.red, Allocation) else self.red.entries
        blues = ((1.0, self.blue),) if isinstance(self.blue, Allocation) else self.blue.entries
        return tuple((pr * pb, ar, ab) for pr, ar in reds for pb, ab in blues)

    def to_json_dict(self) -> dict:
        def side(strategy: PlayerStrategy):
            if isinstance(strategy, Allocation):
                return {"counts": list(strategy.counts)}
            return [{"p": p, "counts": list(a.counts)} for p, a in strategy.entries]

        return {"red": side(self.red), "blue": side(self.blue)}


def _parse_strategy(doc, side: str) -> PlayerStrategy:
    if isinstance(doc, dict):
        counts = doc.get("counts")
        if not isinstance(counts, list):
            raise ValidationError(f"profile side '{side}' needs a 'counts' list")
        return Allocation(counts)
    if isinstance(doc, list):
        entries = []
        for item in doc:
            if not isinstance(item, dict) or "p" not in item or "counts" not in item:
                raise ValidationError(
                    f"profile side '{side}' entries need 'p' and 'counts' fields")
            entries.append((item["p"], Allocation(item["counts"])))
        return MixedAllocation(tuple(entries))
    raise ValidationError(
        f"profile side '{side}' must be an object with counts or a list of weighted entries")


def load_profile(document: str | dict) -> StrategyProfile:
    """Parse a profile document: each side is {"counts": [...]} for a pure
    allocation or [{"p": 0.5, "counts": [...]}, ...] for a mixed one."""
    obj = decode_document(document, ValidationError, "profile")
    if not isinstance(obj, dict) or "red" not in obj or "blue" not in obj:
        raise ValidationError("profile document needs 'red' and 'blue' sides")
    return StrategyProfile(_parse_strategy(obj["red"], "red"),
                           _parse_strategy(obj["blue"], "blue"))


@dataclass(frozen=True)
class GameSpec:
    graph: Graph
    dynamics: AdoptionFunction
    schedule: UpdateSchedule
    budget_red: int
    budget_blue: int

    def __post_init__(self):
        for name, k in (("budget_red", self.budget_red), ("budget_blue", self.budget_blue)):
            if not (_is_integer(k) and k >= 1):
                raise ValidationError(f"{name} must be a positive integer, got {k!r}")


@dataclass(frozen=True)
class PayoffEstimate:
    pi_R: float
    pi_B: float
    method: str
    n_trials: int
    stderr_R: float
    stderr_B: float
    # Probability mass an approximate back end dropped (the layered DP's
    # pruning); kept out of the JSON and CSV forms.
    pruned_mass: float = 0.0

    CSV_HEADER = ("pi_R", "pi_B", "method", "n_trials", "stderr_R", "stderr_B")

    @property
    def joint(self) -> float:
        return self.pi_R + self.pi_B

    def to_json_dict(self) -> dict:
        return {
            "pi_R": self.pi_R,
            "pi_B": self.pi_B,
            "method": self.method,
            "n_trials": self.n_trials,
            "stderr_R": self.stderr_R,
            "stderr_B": self.stderr_B,
        }

    def to_csv_row(self) -> tuple:
        return (self.pi_R, self.pi_B, self.method, self.n_trials, self.stderr_R, self.stderr_B)


# ---------------------------------------------------------------------------
# Seed resolution and single-run evaluation.
# ---------------------------------------------------------------------------


def split_seeds(red: Allocation, blue: Allocation
                ) -> tuple[list[int], list[int], list[tuple[int, float]]]:
    """Who seeded what: the vertices only red seeds, those only blue seeds,
    and the contested vertices with red's chance of winning each (its share
    of the seeds there), all in ascending vertex order."""
    if red.n != blue.n:
        raise ValidationError("allocations disagree on vertex count")
    blue_only = dict(blue.seeds)
    red_only: list[int] = []
    contested: list[tuple[int, float]] = []
    for v, ar in red.seeds:
        ab = blue_only.pop(v, 0)
        if ab:
            contested.append((v, ar / (ar + ab)))
        else:
            red_only.append(v)
    return red_only, list(blue_only), contested


def resolve_contested_seeds(red: Allocation, blue: Allocation, rng) -> list[int]:
    """Initial state vector: seeded vertices infected, contested ones resolved
    proportionally to seed counts, independently across vertices."""
    red_only, blue_only, contested = split_seeds(red, blue)
    state = [UNINFECTED] * red.n
    for v in red_only:
        state[v] = RED
    for v in blue_only:
        state[v] = BLUE
    for v, p_red in contested:
        state[v] = RED if rng.random() < p_red else BLUE
    return state


def _require_master_seed(master_seed) -> None:
    if not (_is_integer(master_seed) and master_seed >= 0):
        raise ValidationError(f"master_seed must be a nonnegative integer, got {master_seed!r}")


# SplitMix64 (Steele, Lea and Flood, "Fast splittable pseudorandom number
# generators", OOPSLA 2014): its increment, the golden gamma, and its output
# mix.  Every replication's random stream is SplitMix64's from a 64-bit key.
_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _mix64(z):
    """SplitMix64's output mix of z, an int below 2**64 or a uint64 array."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _fold(key: int, *words: int) -> int:
    """A 64-bit key with words folded in, one SplitMix64 step each: the key
    becomes mix64(key + word + γ), word by word (mod 2**64)."""
    for word in words:
        key = _mix64((key + word + _GAMMA) & _MASK64)
    return key


def _seed_key(master_seed: int, stream: tuple[int, ...] = ()) -> int:
    """The key of a master seed's stream family: the seed's 64-bit words (low
    first) and their count folded in, then the stream tags."""
    words = [master_seed >> s & _MASK64 for s in range(0, max(master_seed.bit_length(), 1), 64)]
    return _fold(0, *words, len(words), *stream)


def _seed_keys(master_seeds, stream: tuple[int, ...] = ()) -> np.ndarray:
    """`_seed_key` of each master seed under the stream tags, as uint64s."""
    return np.array([_seed_key(int(s), stream) for s in master_seeds], dtype=np.uint64)


def _replication_words(seed_keys: np.ndarray, jobs: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """The keys of replications reps[k] (uint64) of jobs jobs[k]: replication
    i of job j is keyed `_fold(seed_keys[j], i)`, where seed_keys[j] is the
    job's `_seed_key`.  SplitMix64 from a key is its stream (`_Draws`)."""
    return _mix64(seed_keys[jobs] + reps + _GAMMA)


def _fill(run, seed_keys: np.ndarray, n_trials: int, lo: int, hi: int, block: int) -> np.ndarray:
    """Rows lo..hi-1 of n_trials replications of each job, job by job: row
    j * n_trials + i is replication i of job j (`_replication_words`).
    `run(keys, jobs)` computes at most `block` rows at a time, as equal-length
    outputs, which fill the rows of one (outputs, hi - lo) float array."""
    out = None
    for a in range(lo, hi, block):
        rows = np.arange(a, min(a + block, hi))
        jobs = rows // n_trials
        reps = (rows - jobs * n_trials).astype(np.uint64)
        part = run(_replication_words(seed_keys, jobs, reps), jobs)
        if out is None:
            out = np.empty((len(part), hi - lo))
        out[:, a - lo:a - lo + len(rows)] = part
    return out


# A block of batched replications holds at most about this many state cells
# (replications times vertices plus edges), so memory does not grow with the
# trial count.  Under parallel rounds a vertex counts 9 cells: its int8 state
# and its two int32 in-neighbor counts.
_BLOCK_CELLS = 1 << 20
# ... and at most this many replications: each holds a row of every
# per-candidate array of a phase.
_BLOCK_ROWS = 1 << 8
# A kernel's probability table holds at most about this many entries.
_TABLE_CELLS = _BLOCK_CELLS


class _Draws:
    """Each replication's uniform stream, handed out in order.

    A row's stream is SplitMix64's from the row's key: its draw k (from 0)
    is mix64(key + (k + 1)·γ) >> 11 times 2**-53, the (k + 1)-th double of
    a scalar SplitMix64 generator started at the key.  So `take` computes
    exactly the cells it hands out, and a row keeps only its key and how many
    draws it has used.

    Two rows draw from the same SplitMix64 states only if their keys differ
    by j·γ (mod 2**64) for some |j| below the draws w they use.  γ is odd, so
    those are 2w - 1 of the 2**64 differences: about 2·w/2**64 per pair of
    rows with independent keys.
    """

    def __init__(self, keys: np.ndarray):
        self.keys = keys
        self.used = np.zeros(len(keys), dtype=np.intp)

    def take(self, rows: np.ndarray, per_row: np.ndarray, row_of: np.ndarray) -> np.ndarray:
        """The next per_row[j] draws of each replication rows[j], concatenated
        in row order; row_of gives each draw's index into rows."""
        first = self.used[rows]
        self.used[rows] = first + per_row
        # Cell j is draw first + j - start of its row, where the row's cells
        # start: its state is key + (first + 1 - start + j)·γ.
        start = np.cumsum(per_row) - per_row
        base = self.keys[rows] + (first + 1 - start).astype(np.uint64) * _GAMMA
        z = _mix64(base[row_of] + np.arange(len(row_of), dtype=np.uint64) * _GAMMA)
        return (z >> 11) * (1.0 / 9007199254740992.0)


def _draw_supports(draws: _Draws, rows: np.ndarray, cumulative: np.ndarray) -> np.ndarray:
    """The support pair of each replication rows[j] of a mixed profile: one
    uniform u, and the first pair whose cumulative probability passes u (the
    last pair where rounding leaves u past them all)."""
    u = draws.take(rows, np.ones(len(rows), dtype=np.intp), np.arange(len(rows)))
    return np.minimum(np.searchsorted(cumulative, u, side="right"), len(cumulative) - 1)


def _draw_contests(draws: _Draws, rows: np.ndarray, p_red: np.ndarray) -> np.ndarray:
    """The color, RED or BLUE, each replication rows[j] gives each contested
    seed, as a (rows, seeds) array: one uniform per seed in vertex order, red
    winning below its share p_red of the seeds there, as
    `resolve_contested_seeds` draws them one at a time."""
    c = len(p_red)
    u = draws.take(rows, np.full(len(rows), c), np.repeat(np.arange(len(rows)), c))
    return np.where(u.reshape(len(rows), c) < p_red, RED, BLUE)


# The bit generator every `_Stream` is built on; none of them draws from it.
_NO_BITS = np.random.PCG64(0)


class _Stream(np.random.Generator):
    """One replication's stream as a scalar numpy `Generator`, for
    `run_contagion`, going on after the `used` draws the row has taken from
    `_Draws`.  `random()` is the row's next double u, and `integers(k)` is
    floor(k·u) of the next u; no other method draws from the stream."""

    def __init__(self, key: int, used: int):
        super().__init__(_NO_BITS)
        self.key = key
        self.used = used

    def random(self) -> float:
        self.used += 1
        return (_mix64((self.key + self.used * _GAMMA) & _MASK64) >> 11) / 2.0**53

    def integers(self, k: int) -> int:
        return int(k * self.random())


# A binomial whose smaller-side mean n·min(p, 1 - p) is below this is drawn by
# inversion; BTRS holds from a mean of 10 up.
_INVERSION_MEAN = 10.0

# fc(k) = log k! - (k + 1/2) log(k + 1) + k + 1 - log(2π)/2, the remainder of
# Stirling's formula, for k below 10; `_stirling_tail` sums its series above.
_STIRLING_TAIL = np.array([math.lgamma(k + 1) - (k + 0.5) * math.log(k + 1) + (k + 1)
                           - 0.5 * math.log(2.0 * math.pi) for k in range(10)])


def _stirling_tail(k: np.ndarray) -> np.ndarray:
    """fc(k) at whole-number floats k >= 0: the table below 10, and above it
    1/12 - 1/(360 K^2) + 1/(1260 K^4), over K = k + 1."""
    k1 = k + 1.0
    sq = k1 * k1
    series = (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / 1260.0 / sq) / sq) / k1
    return np.where(k < 10.0, _STIRLING_TAIL[np.minimum(k, 9.0).astype(np.intp)], series)


def _binomial(draws: _Draws, rows: np.ndarray, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """One Binom(n[j], p[j]) draw for each replication rows[j] (rows
    distinct), exact in distribution, from the rows' own streams.

    With q = min(p, 1 - p), each draws X ~ Binom(n, q) and returns X, or n - X
    where p > 1/2.  A row whose outcome is certain (n = 0 or q = 0) takes no
    draw.  Below `_INVERSION_MEAN` for n·q a row takes one uniform u and
    returns the least k with u < P[X <= k], stepping the pmf up from k = 0 by
    its ratio; the walk ends early only where the pmf underflows to 0 or k
    reaches n.  Otherwise it takes two uniforms per attempt of Hörmann's
    transformed rejection with squeeze, BTRS ("The generation of binomial
    random variates", J. Statist. Comput. Simul. 46, 1993), until an attempt
    is accepted; `_btrs` states the attempt.
    """
    p = np.minimum(p, 1.0)
    q = np.minimum(p, 1.0 - p)
    x = np.zeros(len(rows), dtype=np.int64)
    drawn = np.flatnonzero((n > 0) & (q > 0.0))
    small = n[drawn] * q[drawn] < _INVERSION_MEAN
    for at, sample in ((drawn[small], _inversion), (drawn[~small], _btrs)):
        if len(at):
            x[at] = sample(draws, rows[at], n[at], q[at])
    return np.where(p > 0.5, n - x, x)


def _inversion(draws: _Draws, rows: np.ndarray, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Binom(n, p) by inversion, one uniform a row: see `_binomial`."""
    u = draws.take(rows, np.ones(len(rows), dtype=np.intp), np.arange(len(rows)))
    ratio = p / (1.0 - p)
    pmf = np.exp(n * np.log1p(-p))
    k = np.zeros(len(rows), dtype=np.int64)
    live = np.flatnonzero(u >= pmf)
    while len(live):
        u[live] -= pmf[live]
        k[live] += 1
        pmf[live] *= (n[live] - k[live] + 1) / k[live] * ratio[live]
        live = live[(u[live] >= pmf[live]) & (pmf[live] > 0.0) & (k[live] < n[live])]
    return k


def _btrs(draws: _Draws, rows: np.ndarray, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Binom(n, p) for p <= 1/2 and n·p >= 10 by BTRS, two uniforms (U, V) an
    attempt.  An attempt sets u = U - 1/2, u_s = 1/2 - |u| and k = floor((2a
    / u_s + b) u + c); it is rejected for k outside [0, n], accepted by the
    squeeze u_s >= 0.07 and V <= v_r, and otherwise accepted when log(V α /
    (a / u_s^2 + b)) <= log f(k) / f(m), f the pmf and m its mode, computed in
    Stirling's form through `_stirling_tail`."""
    spq = np.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    v_r = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    ratio = p / (1.0 - p)
    m = np.floor((n + 1) * p)
    nm = n - m + 1.0
    h = (m + 0.5) * np.log((m + 1.0) / (ratio * nm)) + _stirling_tail(m) + _stirling_tail(n - m)
    x = np.empty(len(rows), dtype=np.int64)
    live = np.arange(len(rows))
    while len(live):
        uv = draws.take(rows[live], np.full(len(live), 2), np.repeat(np.arange(len(live)), 2))
        u, v = uv[0::2] - 0.5, uv[1::2]
        us = 0.5 - np.abs(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            k = np.floor((2.0 * a[live] / us + b[live]) * u + c[live])
        accept = (k >= 0.0) & (k <= n[live])
        test = np.flatnonzero(accept & ~((us >= 0.07) & (v <= v_r[live])))
        if len(test):
            j, kt, nt = live[test], k[test], n[live[test]]
            nk = nt - kt + 1.0
            bound = (h[j] + (nt + 1.0) * np.log(nm[j] / nk)
                     + (kt + 0.5) * np.log(nk * ratio[j] / (kt + 1.0))
                     - _stirling_tail(kt) - _stirling_tail(nt - kt))
            with np.errstate(divide="ignore"):
                hat = np.log(v[test] * alpha[j] / (a[j] / (us[test] * us[test]) + b[j]))
            accept[test] = hat <= bound
        x[live[accept]] = k[accept]
        live = live[~accept]
    return x


def _neighbor_slots(indptr: np.ndarray, verts: np.ndarray,
                    degree: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR positions of the verts' neighbor lists, concatenated, and where
    each list starts in the concatenation."""
    starts = np.cumsum(degree) - degree
    return np.repeat(indptr[verts] - starts, degree) + np.arange(int(degree.sum())), starts


def _nonzero(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A 2-D mask's true cells in row-major order: their flat indices, rows
    and columns (cheaper than `np.nonzero` on two axes)."""
    flat = np.flatnonzero(mask)
    row = flat // mask.shape[1]
    return flat, row, flat - row * mask.shape[1]


class _ProbTable:
    """(P[Red], P[Red or Blue]) of `update_probs` at fractions (r/d, b/d),
    kept under the integer key (in-degree d, red count r, blue count b).

    In-degree d's row holds (d + 1)^2 slots, r * (d + 1) + b.  Rows exist
    for the in-degrees the graph has, smallest first, as many as fit in
    `_TABLE_CELLS` slots.  An entry is filled when a lookup first meets it,
    by one `update_probs_array` call per lookup on the distinct new keys, so
    each key is evaluated once per table; keys of larger in-degrees are
    evaluated on their fractions at every lookup.  Lookups name d by a vertex
    of that in-degree."""

    def __init__(self, dyn: AdoptionFunction, in_degree: np.ndarray):
        self.dyn = dyn
        self.in_degree = in_degree
        self.stride = in_degree + 1
        vertices = np.bincount(in_degree, minlength=1)
        vertices[0] = 0
        degrees = np.flatnonzero(vertices)
        sizes = (degrees + 1) ** 2
        ends = np.cumsum(sizes)
        rows = int(np.searchsorted(ends, _TABLE_CELLS, side="right"))
        by_degree = np.full(len(vertices), -1, dtype=np.intp)
        by_degree[degrees[:rows]] = ends[:rows] - sizes[:rows]
        self.start = by_degree[in_degree]
        self.complete = rows == len(degrees)
        # NaN marks an entry not filled yet: filled ones are probabilities.
        self.p_red = np.full(int(ends[rows - 1]) if rows else 0, np.nan)
        self.p_any = np.empty(len(self.p_red))

    def _evaluate(self, v, r, b) -> tuple[np.ndarray, np.ndarray]:
        d = self.in_degree[v]
        p_red, p_blue = self.dyn.update_probs_array(r / d, b / d)
        return p_red, p_red + p_blue

    def lookup(self, v: np.ndarray, r: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(P[Red], P[Red or Blue]) at each key (in-degree of v[j], r[j], b[j])."""
        start = self.start[v]
        if not self.complete:
            direct = start < 0
            if direct.any():
                p_red, p_any = np.empty(len(v)), np.empty(len(v))
                p_red[direct], p_any[direct] = self._evaluate(v[direct], r[direct], b[direct])
                kept = ~direct
                p_red[kept], p_any[kept] = self.lookup(v[kept], r[kept], b[kept])
                return p_red, p_any
        index = start + r * self.stride[v] + b
        p_red = self.p_red[index]
        new = np.flatnonzero(np.isnan(p_red))
        if len(new):
            keys, first = np.unique(index[new], return_index=True)
            j = new[first]
            self.p_red[keys], self.p_any[keys] = self._evaluate(v[j], r[j], b[j])
            p_red = self.p_red[index]
        return p_red, self.p_any[index]


class _BatchedPhases:
    """What the batched kernels share: a `_ProbTable` of update
    probabilities, and the red and blue in-neighbor counts their candidates
    read.

    A one-shot schedule's phases (a single pass's groups, or layers) are
    index arrays over the graph's in-edges, and each phase pulls its
    vertices' counts from the state: a run reads each in-edge once.  Phases
    keep their vertices' order, which is the order in which their candidates
    draw.  Under parallel rounds (`phases` None) the kernels keep every
    cell's counts instead, push each round's new infections along their
    out-edges, and take a round's candidates over whole rows, drawing in
    ascending vertex order."""

    def __init__(self, graph: Graph, dyn: AdoptionFunction, phases=None):
        self.n = graph.n
        indptr, indices, self.in_degree = graph.in_csr
        self.table = _ProbTable(dyn, self.in_degree)
        self.phases = []
        if phases is None:
            self.vertices = np.arange(graph.n)
            self.out_csr = graph.out_csr
            cells = 9 * graph.n + len(indices)
        else:
            for phase in phases:
                verts = np.asarray(phase, dtype=np.intp)
                # A vertex without in-neighbors is never a candidate.
                verts = verts[self.in_degree[verts] > 0]
                if len(verts):
                    edges, starts = _neighbor_slots(indptr, verts, self.in_degree[verts])
                    self.phases.append((verts, indices[edges], starts))
            cells = graph.n + len(indices)
        self.block = max(1, min(_BLOCK_CELLS // cells, _BLOCK_ROWS))

    @staticmethod
    def _neighbor_counts(state: np.ndarray, phase) -> tuple[np.ndarray, np.ndarray]:
        """Red and blue in-neighbor counts of the phase's vertices in each row."""
        _, sources, starts = phase
        nbrs = state[:, sources]
        return (np.add.reduceat(nbrs == RED, starts, axis=1, dtype=np.int32),
                np.add.reduceat(nbrs == BLUE, starts, axis=1, dtype=np.int32))

    def _counts(self, state: np.ndarray) -> np.ndarray:
        """Every cell's red and blue in-neighbor counts in `state`, as a (2, R,
        n) array to push later infections into."""
        counts = np.zeros((2,) + state.shape, dtype=np.int32)
        self._push(counts, state, *np.nonzero(state))
        return counts

    def _push(self, counts: np.ndarray, state: np.ndarray, rows: np.ndarray,
              verts: np.ndarray) -> None:
        """Add the infected cells (rows[j], verts[j]) of `state` to the red and
        blue in-neighbor counts, a (2, R, n) array, of their out-neighbors."""
        indptr, indices, out_degree = self.out_csr
        degree = out_degree[verts]
        edges, _ = _neighbor_slots(indptr, verts, degree)
        if len(edges) == 0:
            return
        plane = state[rows, verts].astype(np.intp) - RED
        cells = np.repeat((plane * len(state) + rows) * self.n, degree) + indices[edges]
        flat = counts.reshape(-1)
        flat += np.bincount(cells, minlength=len(flat))


class _ReplicationKernel(_BatchedPhases):
    """Monte Carlo replications of one game, a block at a time, as an (R, n)
    int8 state matrix: the one Monte Carlo path for graph games.

    The kernel runs jobs, one per support (each job's support pairs), and
    each row of a block is one replication of one job.  A row draws from the
    SplitMix64 stream of its key (`_replication_words`, `_Draws`): its
    support pair where its job has more than one (`_draw_supports`), then its
    contested seeds (`_draw_contests`).  Under a schedule with a batched
    form (`batched_form`), rows then run together, drawing one per update
    candidate in phase order, with `update_probs`'s probabilities from the
    kernel's table, which every block shares; under any other, each row
    finishes with `run_contagion` on the rest of its stream (`_Stream`).
    Both give what `run_contagion` gives on the row's `_Stream` after its
    seeds are resolved, bit for bit, whatever else the block runs.
    """

    def __init__(self, game: GameSpec, *supports):
        graph, schedule = game.graph, game.schedule
        schedule.validate_for_graph(graph)
        self.form = batched_form(schedule)
        self.one_by_one = self.form is None
        super().__init__(graph, game.dynamics, () if self.one_by_one else schedule.phases(graph))
        self.game, self.schedule = game, schedule

        # Each distinct support pair's base state, its uncontested seeds placed,
        # and its contested vertices with red's chances (`split_seeds`).  A job
        # of one pair starts every replication from it; -1 marks a mixed job,
        # whose replications draw theirs by its cumulative pair probabilities.
        pair_index = {}
        for pairs in supports:
            for _, red, blue in pairs:
                if (id(red), id(blue)) not in pair_index:
                    if red.n != graph.n:
                        raise ValidationError(
                            f"initial state has length {red.n}, graph has {graph.n} vertices")
                    pair_index[id(red), id(blue)] = (len(pair_index), red, blue)
        self.job_pair = np.full(len(supports), -1, dtype=np.intp)
        self.mixtures = {}
        for j, pairs in enumerate(supports):
            at = [pair_index[id(ar), id(ab)][0] for _, ar, ab in pairs]
            if len(pairs) == 1:
                self.job_pair[j] = at[0]
            else:
                self.mixtures[j] = (np.cumsum([p for p, _, _ in pairs]), np.array(at))
        self.bases = np.zeros((len(pair_index), graph.n), dtype=np.int8)
        self.contests = []
        for k, red, blue in pair_index.values():
            red_only, blue_only, contested = split_seeds(red, blue)
            # Row views: indexing a row with a list costs a third of a 2-D index.
            self.bases[k][red_only] = RED
            self.bases[k][blue_only] = BLUE
            if contested:
                self.contests.append((k, *map(np.array, zip(*contested))))

    def run(self, keys: np.ndarray, jobs=0) -> tuple[np.ndarray, np.ndarray]:
        """chi_R and chi_B of a block of replications, run together: one per
        key (as `_replication_words` gives them), of job jobs[k], or of job
        `jobs` for an int."""
        draws = _Draws(keys)
        jobs = np.broadcast_to(jobs, len(keys))
        which = self.job_pair[jobs]
        for j in np.unique(jobs[which < 0]).tolist():
            rows = np.flatnonzero(jobs == j)
            cumulative, pairs = self.mixtures[j]
            which[rows] = pairs[_draw_supports(draws, rows, cumulative)]
        state = self.bases[which]
        for k, contested, p_red in self.contests:
            rows = np.flatnonzero(which == k)
            if len(rows):
                state[np.ix_(rows, contested)] = _draw_contests(draws, rows, p_red)

        if self.one_by_one:
            return self._run_each(keys, draws, state)
        all_rows = np.arange(len(which))
        if self.form == "rounds":
            self._run_rounds(state, draws, all_rows)
        else:
            for phase in self.phases:
                red, blue = self._neighbor_counts(state, phase)
                cand = (state[:, phase[0]] == UNINFECTED) & ((red + blue) > 0)
                self._update(state, None, draws, all_rows, phase[0], red, blue, cand)
        return (np.count_nonzero(state == RED, axis=1).astype(np.float64),
                np.count_nonzero(state == BLUE, axis=1).astype(np.float64))

    def _run_each(self, keys: np.ndarray, draws: _Draws, state: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
        """chi_R and chi_B of each row run by `run_contagion` from its state,
        on the rest of its stream."""
        graph, dyn = self.game.graph, self.game.dynamics
        chi = np.empty((2, len(keys)))
        for row, (key, used) in enumerate(zip(keys.tolist(), draws.used.tolist())):
            out = run_contagion(graph, state[row].tolist(), dyn, self.schedule, _Stream(key, used))
            chi[:, row] = out.chi_R, out.chi_B
        return chi[0], chi[1]

    def _run_rounds(self, state, draws: _Draws, rows: np.ndarray) -> None:
        """Parallel rounds, in place, on pushed in-neighbor counts."""
        immune = np.zeros(state.shape, dtype=bool) if self.schedule.immunity else None
        counts = self._counts(state)
        for _ in range(self.schedule.max_rounds):
            red, blue = counts[:, rows]
            cand = (state[rows] == UNINFECTED) & ((red + blue) > 0)
            if immune is not None:
                cand &= ~immune[rows]
            row_of, verts, infected = self._update(
                state, immune, draws, rows, self.vertices, red, blue, cand)
            self._push(counts, state, rows[row_of[infected]], verts[infected])
            # A round without candidates or without any infection ends the run.
            tried = np.bincount(row_of, minlength=len(rows))
            moved = np.bincount(row_of[infected], minlength=len(rows))
            rows = rows[(tried > 0) & (moved > 0)]
            if len(rows) == 0:
                break

    def _update(self, state, immune, draws: _Draws, rows, verts, red, blue, cand):
        """One snapshot update of the candidates `cand` over (rows, verts),
        whose in-neighbor counts are red and blue.  Returns the candidates'
        indices into rows, their vertices, and which of them were infected."""
        flat, row_of, col = _nonzero(cand)
        target_verts = verts[col]
        if len(row_of) == 0:
            return row_of, target_verts, np.zeros(0, dtype=bool)
        p_red, p_any = self.table.lookup(target_verts, red.ravel()[flat], blue.ravel()[flat])
        z = draws.take(rows, np.bincount(row_of, minlength=len(rows)), row_of)
        to_red = z < p_red
        to_blue = ~to_red & (z < p_any)
        target_rows = rows[row_of]
        state[target_rows[to_red], target_verts[to_red]] = RED
        state[target_rows[to_blue], target_verts[to_blue]] = BLUE
        infected = to_red | to_blue
        if immune is not None:
            immune[target_rows[~infected], target_verts[~infected]] = True
        return row_of, target_verts, infected


def _mc_chunk(game: GameSpec, supports, seed_keys: np.ndarray, n_trials: int, lo: int,
              hi: int) -> np.ndarray:
    """chi_R and chi_B of rows lo..hi-1 of a `_fill` of n_trials replications
    of each job, as a (2, hi - lo) float array: job j runs the support pairs
    supports[j] under the seed key seed_keys[j]."""
    kernel = _ReplicationKernel(game, *supports)
    return _fill(kernel.run, seed_keys, n_trials, lo, hi, kernel.block)


def sample_many(game: GameSpec, jobs: Sequence[tuple[StrategyProfile, int]], n_trials: int,
                threads: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-replication chi_R and chi_B of n_trials runs of each (profile,
    master seed) job, all run through one replication kernel: (jobs,
    n_trials) arrays, one row per job.

    Replication i of a job draws from the random stream keyed by (its master
    seed, i) (`_replication_words`), so each job's row equals
    `sample_payoffs(game, profile, n_trials, master_seed)` bit for bit,
    whatever the other jobs and `threads`.  `threads` splits the
    replications of all jobs across worker processes.
    """
    if not (_is_integer(n_trials) and n_trials >= 1):
        raise ValidationError(f"n_trials must be a positive integer, got {n_trials!r}")
    if threads is not None and not (_is_integer(threads) and threads >= 1):
        raise ValidationError(f"threads must be a positive integer, got {threads!r}")
    for _, master_seed in jobs:
        _require_master_seed(master_seed)
    if not jobs:
        return np.empty((0, n_trials)), np.empty((0, n_trials))
    supports = [profile.support_pairs() for profile, _ in jobs]
    seed_keys = _seed_keys(master_seed for _, master_seed in jobs)
    rows = len(jobs) * n_trials
    if threads is not None and threads > 1 and rows >= 64:
        from concurrent.futures import ProcessPoolExecutor

        bounds = np.linspace(0, rows, threads + 1).astype(int)
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chi = np.concatenate(list(pool.map(
                _mc_chunk, *zip(*[(game, supports, seed_keys, n_trials, int(lo), int(hi))
                                  for lo, hi in zip(bounds, bounds[1:]) if hi > lo]))), axis=1)
    else:
        chi = _mc_chunk(game, supports, seed_keys, n_trials, 0, rows)
    return chi[0].reshape(len(jobs), n_trials), chi[1].reshape(len(jobs), n_trials)


def sample_payoffs(game: GameSpec, profile: StrategyProfile, n_trials: int,
                   master_seed: int = 0, threads: Optional[int] = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per-replication (chi_R, chi_B) arrays of n_trials independent runs.

    Replication i draws from the random stream keyed by (master_seed, i), so
    results are bit-identical for a given master seed regardless of `threads`.
    """
    chi_r, chi_b = sample_many(game, [(profile, master_seed)], n_trials, threads)
    return chi_r[0], chi_b[0]


def monte_carlo_estimates(chi_r: np.ndarray, chi_b: np.ndarray) -> list[PayoffEstimate]:
    """Sample means and standard errors of per-replication payoffs, one
    estimate per row of (jobs, replications) arrays."""
    n = chi_r.shape[1]

    def stderr(samples) -> list[float]:
        if n < 2:
            return [0.0] * len(samples)
        return (np.std(samples, axis=1, ddof=1) / math.sqrt(n)).tolist()

    return [PayoffEstimate(pi_R=r, pi_B=b, method=MONTE_CARLO, n_trials=n,
                           stderr_R=sr, stderr_B=sb)
            for r, b, sr, sb in zip(np.mean(chi_r, axis=1).tolist(), np.mean(chi_b, axis=1).tolist(),
                                    stderr(chi_r), stderr(chi_b))]


def monte_carlo_estimate(chi_r: np.ndarray, chi_b: np.ndarray) -> PayoffEstimate:
    """Sample means and standard errors of per-replication payoffs."""
    return monte_carlo_estimates(np.reshape(chi_r, (1, -1)), np.reshape(chi_b, (1, -1)))[0]


def estimate_payoffs(game: GameSpec, profile: StrategyProfile, n_trials: int = DEFAULT_TRIALS,
                     master_seed: int = 0, threads: Optional[int] = None) -> PayoffEstimate:
    """Monte Carlo payoff estimate over independent replications.

    Replication i draws from the random stream keyed by (master_seed, i), so
    results are bit-identical for a given master seed regardless of `threads`.
    """
    return monte_carlo_estimate(*sample_payoffs(game, profile, n_trials, master_seed, threads))


# ---------------------------------------------------------------------------
# Exact enumeration oracle.
# ---------------------------------------------------------------------------


def _over_cap() -> StateSpaceCapError:
    return StateSpaceCapError("exact enumeration exceeded the configured state-space cap; "
                              "fall back to Monte Carlo (estimate_payoffs)")


def _combinations(weight: float, choices, nodes: int) -> tuple[list[tuple[float, tuple]], int]:
    """Every way to pick one outcome from each of the independent `choices`,
    each a sequence of (probability, outcome) pairs, in lexicographic order of
    the picks, and the node count left.  A combination's weight is `weight`
    times its outcomes' probabilities, multiplied in pick order; outcomes of
    probability 0 are skipped.  Spends one of `nodes` per partial combination
    of one or more picks, and raises StateSpaceCapError when they run out."""
    combos = [(weight, ())]
    for options in choices:
        options = [(p, outcome) for p, outcome in options if p > 0.0]
        nodes -= len(combos) * len(options)
        if nodes < 0:
            raise _over_cap()
        combos = [(w * p, picked + (outcome,)) for w, picked in combos for p, outcome in options]
    return combos, nodes


def _adopt(state: list[int], picked, cr: int, cb: int) -> tuple[list[int], int, int]:
    """The state after the picked (vertex, color) outcomes, and the red and
    blue counts with those adoptions.  An UNINFECTED pick changes nothing;
    when nothing changes, `state` itself comes back."""
    new_state = state
    for v, color in picked:
        if color == UNINFECTED:
            continue
        if new_state is state:
            new_state = list(state)
        new_state[v] = color
        if color == RED:
            cr += 1
        else:
            cb += 1
    return new_state, cr, cb


class _Enumerator:
    """Exact expected payoffs of one game's profiles, by exhaustive
    enumeration of every contested-seed resolution and every stochastic
    update outcome under the schedule.

    The constructor does the per-game work once: it validates the schedule,
    lists the snapshot phases of a schedule run by them (`batched_form`),
    so a single pass branches one group of consecutive vertices at a time,
    and each of their vertices' out-neighbours that update in a later phase;
    other schedules are walked by `phase_options`.  `payoffs(profile)` walks
    one profile's tree and raises StateSpaceCapError when it exceeds
    `node_cap` nodes.  Wherever a vertex's outcome cannot influence anything
    downstream (for example, a vertex whose later-updating out-neighbours are
    all infected in a one-shot schedule, or any candidate in the final
    round), its expectation is accumulated marginally instead of branching,
    which keeps the common fixtures branch-free.

    Each pure pair of the profile's support is walked with one stack of
    phase-start entries (weight, state, immune, cursor, red count, blue
    count, red marginal, blue marginal), seeded with the combinations of the
    contested non-sink seeds' colors.  Popping an entry combines, for each
    phase option, its branching candidates' outcomes into the next entries.
    A round that changes nothing stops the run: its entry, with cursor None,
    is a leaf, and a leaf adds its weighted tally when popped.  Children are
    pushed in lexicographic order of their outcomes (RED, BLUE, stay) and so
    pop in reverse: leaves are summed in one fixed depth-first order, which
    keeps every payoff the same to the bit.  The tree has one node per
    partial combination, per phase option, and per entry that is not a leaf.
    `dyn.update_probs` runs once per distinct in-neighbour fraction pair in
    the enumerator's life; later candidates with that pair, in any profile,
    reuse its result.
    """

    def __init__(self, game: GameSpec, node_cap: int = DEFAULT_NODE_CAP):
        graph, schedule = game.graph, game.schedule
        schedule.validate_for_graph(graph)
        self.game = game
        self.node_cap = node_cap
        form = batched_form(schedule)
        self.is_parallel = form == "rounds"
        # A one-shot schedule updates each vertex in one phase at most; a
        # vertex branches only while one of these out-neighbours is clean.
        self.plan = self.later = None
        if form and not self.is_parallel:
            self.plan = [phase.tolist() for phase in schedule.phases(graph)]
            phase_of = np.full(graph.n, -1)
            for k, phase in enumerate(self.plan):
                phase_of[phase] = k
            self.later = [[u for u in graph.out_neighbors[v] if phase_of[u] > phase_of[v]]
                          for v in range(graph.n)]
        self.update_probs: dict[tuple[float, float], tuple[float, float, float]] = {}

    def payoffs(self, profile: StrategyProfile) -> PayoffEstimate:
        nodes = self.node_cap  # tree nodes left, counted down at every expansion
        graph, dyn, schedule = self.game.graph, self.game.dynamics, self.game.schedule
        in_neighbors = graph.in_neighbors
        plan, later, update_probs = self.plan, self.later, self.update_probs
        is_parallel = self.is_parallel
        n = graph.n
        er = eb = 0.0
        for p, red, blue in profile.support_pairs():
            if p == 0.0:
                continue
            if red.n != n or blue.n != n:
                raise ValidationError("allocation length does not match the graph")
            red_only, blue_only, seed_contests = split_seeds(red, blue)
            base = [UNINFECTED] * n
            for v in red_only:
                base[v] = RED
            for v in blue_only:
                base[v] = BLUE
            contests = []
            mr0 = mb0 = 0.0
            for v, p_red in seed_contests:
                if not graph.out_neighbors[v]:
                    # The color of a sink seed affects only the final tally.
                    base[v] = RED
                    mr0 += p_red
                    mb0 += 1.0 - p_red
                else:
                    contests.append(((p_red, (v, RED)), (1.0 - p_red, (v, BLUE))))
            stack = []
            combos, nodes = _combinations(1.0, contests, nodes)
            for w, picked in combos:
                state, cr, cb = _adopt(base, picked, len(red_only), len(blue_only))
                stack.append((w, state, (False,) * n, schedule.initial_cursor(), cr, cb, mr0, mb0))
            nodes -= len(stack)
            if nodes < 0:
                raise _over_cap()

            total_r = total_b = 0.0
            while stack:
                w, state, immune, cursor, cr, cb, mr, mb = stack.pop()
                if cursor is not None and plan is None:
                    options = schedule.phase_options(graph, state, immune, cursor)
                elif cursor is not None and cursor < len(plan):
                    options = [(1.0, plan[cursor], cursor + 1)]
                else:
                    options = None
                if options is None:
                    total_r += w * (cr + mr)
                    total_b += w * (cb + mb)
                    continue
                for opt_prob, phase, nxt in options:
                    nodes -= 1
                    if nodes < 0:
                        raise _over_cap()
                    final_round = is_parallel and nxt >= schedule.max_rounds
                    mr2, mb2 = mr, mb
                    choices = []
                    sure_failures = []
                    # One scan per phase vertex: a candidate is clean, not
                    # immune, and has an infected in-neighbour.
                    for v in phase:
                        if state[v] != UNINFECTED or immune[v]:
                            continue
                        nbrs = in_neighbors[v]
                        r = b = 0
                        for u in nbrs:
                            s = state[u]
                            if s == RED:
                                r += 1
                            elif s == BLUE:
                                b += 1
                        if not (r or b):
                            continue
                        d = len(nbrs)
                        fractions = (r / d, b / d)
                        probs = update_probs.get(fractions)
                        if probs is None:
                            probs = update_probs[fractions] = dyn.update_probs(*fractions)
                        pr, pb, pu = probs
                        if pr == 0.0 and pb == 0.0:
                            sure_failures.append(v)
                        elif final_round or (later is not None
                                             and all(state[u] != UNINFECTED for u in later[v])):
                            mr2 += pr
                            mb2 += pb
                        else:
                            choices.append(((pr, (v, RED)), (pb, (v, BLUE)),
                                            (pu, (v, UNINFECTED))))
                    may_stop = schedule.stop_on_no_change and (choices or sure_failures)
                    combos, nodes = _combinations(w * opt_prob, choices, nodes)
                    for w2, picked in combos:
                        new_state, cr2, cb2 = _adopt(state, picked, cr, cb)
                        if may_stop and new_state is state:
                            stack.append((w2, state, immune, None, cr, cb, mr2, mb2))
                            continue
                        new_immune = immune
                        if schedule.immunity:
                            failed = set(sure_failures).union(v for v, c in picked
                                                              if c == UNINFECTED)
                            new_immune = tuple(im or v in failed for v, im in enumerate(immune))
                        stack.append((w2, new_state, new_immune, nxt, cr2, cb2, mr2, mb2))
                        nodes -= 1
                        if nodes < 0:
                            raise _over_cap()
            er += p * total_r
            eb += p * total_b
        return PayoffEstimate(pi_R=er, pi_B=eb, method=EXACT_ENUMERATION,
                              n_trials=0, stderr_R=0.0, stderr_B=0.0)


def exact_payoffs(game: GameSpec, profile: StrategyProfile,
                  node_cap: int = DEFAULT_NODE_CAP) -> PayoffEstimate:
    """Exact expected payoffs of the profile, by one walk of a fresh
    `_Enumerator`, which describes the walk.  Raises StateSpaceCapError when
    the outcome tree exceeds `node_cap` nodes."""
    return _Enumerator(game, node_cap).payoffs(profile)
