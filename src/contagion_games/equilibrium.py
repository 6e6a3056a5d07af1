"""Pure Nash equilibria, best responses, and inefficiency measures.

Strategy spaces are enumerated exhaustively (with a hard cap on their size),
so every result here is a statement about pure strategies only.  Payoffs come
from a cached oracle that can run any of the three payoff back ends.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .dynamics import RandomSequential, UpdateSchedule, batched_form
from .engine import (
    DEFAULT_NODE_CAP,
    DEFAULT_TRIALS,
    EXACT_ENUMERATION,
    MONTE_CARLO,
    Allocation,
    GameSpec,
    PayoffEstimate,
    StrategyProfile,
    _Enumerator,
    _fold,
    _require_count,
    _seed_key,
    estimate_payoffs,
    monte_carlo_estimates,
    sample_many,
)
from .errors import AllocationSpaceCapError, ValidationError, real_number
from .graphs import Graph

DEFAULT_ALLOCATION_CAP = 200_000
DEFAULT_PAIR_CAP = 2_000_000
EXACT_EPS = 1e-9
TIE_EPS = 1e-12


def allocation_count(n: int, budget: int) -> int:
    """Number of ways to place `budget` indistinguishable seeds on n vertices."""
    return math.comb(n + budget - 1, budget)


def enumerate_allocations(n: int, budget: int,
                          cap: int = DEFAULT_ALLOCATION_CAP) -> list[Allocation]:
    """All seed allocations, first vertex's count descending (so (2,0) before
    (1,1) before (0,2)): strictly descending in the lexicographic order of
    dense counts.  Raises AllocationSpaceCapError beyond `cap`."""
    if n < 1 or budget < 0:
        raise ValidationError(f"need n >= 1 and budget >= 0, got n={n}, budget={budget}")
    count = allocation_count(n, budget)
    if count > cap:
        raise AllocationSpaceCapError(
            f"{count} allocations of {budget} seeds on {n} vertices exceeds the cap of {cap}; "
            "raise the cap or use gadget-specific deviation checks")
    return [Allocation.from_seeds(n, c)
            for c in itertools.combinations_with_replacement(range(n), budget)]


def _seed_pairs(alloc: Allocation) -> list[list[int]]:
    """The JSON form of an allocation in reports: its [vertex, count] pairs."""
    return [list(seed) for seed in alloc.seeds]


# ---------------------------------------------------------------------------
# Cached payoff oracle.
# ---------------------------------------------------------------------------


def twin_classes(graph: Graph, schedule: UpdateSchedule) -> list[tuple[int, ...]]:
    """The vertex classes, of two or more vertices each, whose members the
    schedule treats alike: vertices with equal in- and out-neighbour sets
    (twins), in ascending order.

    Swapping two twins maps the graph onto itself, so it maps every run to a
    run of equal payoffs when it also maps the schedule onto itself.  Under
    parallel rounds and exactly `RandomSequential` all twins merge.  Under a
    single pass or a layer order twins merge only within one of its phases,
    or when neither is in any (`batched_form`).  Under any other schedule,
    subclasses included, no vertices merge.
    """
    form = batched_form(schedule)
    if form == "rounds" or type(schedule) is RandomSequential:
        slot = [0] * graph.n
    elif form:
        schedule.validate_for_graph(graph)
        slot = np.full(graph.n, -1)
        for k, phase in enumerate(schedule.phases(graph)):
            slot[phase] = k
    else:
        return []
    in_ptr, in_idx, _ = graph.in_csr
    out_ptr, out_idx, _ = graph.out_csr
    groups: dict[tuple, list[int]] = {}
    for v in range(graph.n):
        key = (slot[v], in_idx[in_ptr[v]:in_ptr[v + 1]].tobytes(),
               out_idx[out_ptr[v]:out_ptr[v + 1]].tobytes())
        groups.setdefault(key, []).append(v)
    return [tuple(members) for members in groups.values() if len(members) > 1]


def _swapped(est: PayoffEstimate) -> PayoffEstimate:
    """The estimate with the players' roles exchanged."""
    return PayoffEstimate(pi_R=est.pi_B, pi_B=est.pi_R, method=est.method,
                          n_trials=est.n_trials, stderr_R=est.stderr_B, stderr_B=est.stderr_R,
                          pruned_mass=est.pruned_mass)


class PayoffOracle:
    """Evaluates and caches pure-profile payoffs.

    Each profile takes the payoffs of one key (`_key`), maybe swapped, and
    each key is computed once.  The dynamics treat the two colors
    identically, so with `use_symmetry` a profile and its swap share the key
    that ranks higher (`_above`).  An exact oracle also keys on twin classes
    (`twin_classes`, found on its first evaluation, with the game's
    `engine._Enumerator`): profiles that differ only by permuting twins have
    equal payoffs and share their class representative (`_representative`).
    Monte Carlo keys and seeds, and `payoff_fn` oracles, ignore twins; a
    Monte Carlo key's seed derives from its contents.  So results are
    independent of evaluation order, and of whether `fill` estimates them
    together or `evaluate` one by one.

    The exhaustive searches read one table per oracle (`_table`), filled on
    first use, so searches on one oracle evaluate each profile once.
    """

    def __init__(self, game: GameSpec, method: str = EXACT_ENUMERATION,
                 n_trials: int = DEFAULT_TRIALS, master_seed: int = 0,
                 node_cap: int = DEFAULT_NODE_CAP, threads: Optional[int] = None,
                 use_symmetry: bool = True,
                 payoff_fn: Optional[Callable[[Allocation, Allocation], PayoffEstimate]] = None):
        if payoff_fn is None and method not in (EXACT_ENUMERATION, MONTE_CARLO):
            raise ValidationError(f"unknown oracle method {method!r}")
        self.game = game
        self.method = method
        self.n_trials = n_trials
        self.master_seed = master_seed
        self.node_cap = node_cap
        self.threads = threads
        self.use_symmetry = use_symmetry
        self._payoff_fn = payoff_fn
        self._cache: dict[tuple, PayoffEstimate] = {}
        # Each vertex's twin class (absent for a class of one), the classes'
        # members and the game's enumerator; None until the first exact
        # evaluation.
        self._class_of: Optional[dict[int, int]] = None
        self._members: list[tuple[int, ...]] = []
        self._enumerator: Optional[_Enumerator] = None
        self._pure: Optional[tuple] = None  # `_table`'s, once filled

    @property
    def statistical(self) -> bool:
        return self._payoff_fn is None and self.method == MONTE_CARLO

    def _profile_seed(self, red: Allocation, blue: Allocation) -> int:
        """The master seed of the profile's Monte Carlo estimate: the key of
        the oracle's master seed with the profile's seeds folded in
        (`engine._fold`), red's count of seeded vertices, then red's and
        blue's (vertex, count) pairs."""
        _require_count(self.master_seed, "master_seed", 0)
        return _fold(_seed_key(int(self.master_seed)), len(red.seeds),
                     *itertools.chain(*red.seeds, *blue.seeds))

    def _representative(self, red: Allocation, blue: Allocation
                        ) -> tuple[Allocation, Allocation]:
        """The fixed profile of (red, blue)'s twin class.  Within each class,
        the seeded members' (red count, blue count) pairs go, sorted in
        descending order, to the class's lowest vertices; other vertices keep
        their counts."""
        reds, blues = dict(red.seeds), dict(blue.seeds)
        pairs: dict[int, list[tuple[int, int]]] = {}
        for v in reds.keys() | blues.keys():
            c = self._class_of.get(v)
            if c is not None:
                pairs.setdefault(c, []).append((reds.pop(v, 0), blues.pop(v, 0)))
        if not pairs:
            return red, blue
        for c, seeded in pairs.items():
            for v, (r, b) in zip(self._members[c], sorted(seeded, reverse=True)):
                if r:
                    reds[v] = r
                if b:
                    blues[v] = b
        return Allocation._of(red.n, reds), Allocation._of(blue.n, blues)

    def _above(self, red: Allocation, blue: Allocation,
               red2: Allocation, blue2: Allocation) -> bool:
        """Whether (red, blue) ranks strictly above (red2, blue2): first on
        whether its budgets are the game's (a tie when the game's are
        equal), then on its dense counts, red then blue, in lexicographic
        order.  Product-order searches meet the higher-ranked of a profile
        and its swap first."""
        kr, kb = self.game.budget_red, self.game.budget_blue
        if kr != kb:
            ours = (red.budget, blue.budget) == (kr, kb)
            if ours != ((red2.budget, blue2.budget) == (kr, kb)):
                return ours
        for seeds, seeds2 in ((red.seeds, red2.seeds), (blue.seeds, blue2.seeds)):
            # Dense counts compare at the first seeded vertex where they differ.
            for (v, c), (v2, c2) in zip(seeds, seeds2):
                if v != v2:
                    return v < v2
                if c != c2:
                    return c > c2
            if len(seeds) != len(seeds2):
                return len(seeds) > len(seeds2)
        return False

    def _compute(self, red: Allocation, blue: Allocation) -> PayoffEstimate:
        if self._payoff_fn is not None:
            return self._payoff_fn(red, blue)
        if self.method == EXACT_ENUMERATION:
            return self._enumerator.payoffs(StrategyProfile(red, blue))
        return estimate_payoffs(self.game, StrategyProfile(red=red, blue=blue),
                                n_trials=self.n_trials,
                                master_seed=self._profile_seed(red, blue), threads=self.threads)

    def _key(self, red: Allocation, blue: Allocation
             ) -> tuple[tuple[Allocation, Allocation], bool]:
        """The profile whose payoffs (red, blue) takes, and whether it takes
        them swapped.  With `use_symmetry`, a profile ranked below its swap
        (`_above`) turns into the swap.  An exact oracle on a graph with twins
        then takes that profile's class representative or, with
        `use_symmetry`, its swap's when that one ranks higher."""
        swapped = self.use_symmetry and self._above(blue, red, red, blue)
        if swapped:
            red, blue = blue, red
        if self._class_of is None and self._payoff_fn is None and self.method == EXACT_ENUMERATION:
            self._members = twin_classes(self.game.graph, self.game.schedule)
            self._enumerator = _Enumerator(self.game, self.node_cap)
            self._class_of = {v: c for c, members in enumerate(self._members) for v in members}
        if not self._members:
            return (red, blue), swapped
        # A memoised representative, key or profile, holds its class's payoffs.
        rep = self._representative(red, blue)
        if rep in self._cache:
            return rep, swapped
        other = self._representative(blue, red)
        if self.use_symmetry and self._above(*other, *rep):
            return other, not swapped
        return rep, swapped

    def evaluate(self, red: Allocation, blue: Allocation) -> PayoffEstimate:
        """The payoffs of (red, blue): the memoised ones, the swap of its
        swap's (with `use_symmetry`), or those of its key (`_key`), each key
        computed once."""
        est = self._cache.get((red, blue))
        if est is not None:
            return est
        swap = self._cache.get((blue, red)) if self.use_symmetry else None
        if swap is not None:
            est = _swapped(swap)
        else:
            key, swapped = self._key(red, blue)
            if key not in self._cache:
                self._cache[key] = self._compute(*key)
            est = _swapped(self._cache[key]) if swapped else self._cache[key]
        self._cache[red, blue] = est
        return est

    def fill(self, profiles: Iterable[tuple[Allocation, Allocation]]) -> list[PayoffEstimate]:
        """`evaluate` of each (red, blue) profile, in order.

        A Monte Carlo oracle first estimates the keys (`_key`) of those it has
        not memoised, in one `sample_many` call.  Each keeps the stream of its
        profile seed, so its estimate is the one `evaluate` would make."""
        if self.statistical:
            profiles = list(profiles)
            todo = {key: None for key, _ in itertools.starmap(self._key, profiles)
                    if key not in self._cache}
            if todo:
                jobs = [(StrategyProfile(red=red, blue=blue), self._profile_seed(red, blue))
                        for red, blue in todo]
                estimates = monte_carlo_estimates(*sample_many(self.game, jobs, self.n_trials,
                                                               self.threads))
                self._cache.update(zip(todo, estimates))
        return [self.evaluate(red, blue) for red, blue in profiles]

    def _table(self, allocation_cap: int, pair_cap: int
               ) -> tuple[list[Allocation], list[Allocation], list[PayoffEstimate]]:
        """The game's pure-profile table: both players' allocations and the
        payoffs of each (red, blue) pair, row-major, filled once per oracle.
        Either cap refuses it on every call."""
        n, kr, kb = self.game.graph.n, self.game.budget_red, self.game.budget_blue
        sizes = [allocation_count(n, kr), allocation_count(n, kb)]
        if self._pure is None or max(sizes) > allocation_cap:  # enumeration refuses
            reds = enumerate_allocations(n, kr, cap=allocation_cap)
            blues = reds if kb == kr else enumerate_allocations(n, kb, cap=allocation_cap)
        if sizes[0] * sizes[1] > pair_cap:
            raise AllocationSpaceCapError(
                f"{sizes[0]}x{sizes[1]} profile pairs exceed the cap of {pair_cap}")
        if self._pure is None:
            self._pure = (reds, blues, self.fill(itertools.product(reds, blues)))
        return self._pure

    def payoffs(self, red: Allocation, blue: Allocation) -> tuple[float, float]:
        est = self.evaluate(red, blue)
        return est.pi_R, est.pi_B

    def max_stderr(self) -> float:
        if not self._cache:
            return 0.0
        return max(max(e.stderr_R, e.stderr_B) for e in self._cache.values())


# ---------------------------------------------------------------------------
# Reports.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NashReport:
    equilibria: tuple[tuple[Allocation, Allocation, PayoffEstimate], ...]
    eps: float
    method: str
    n_red_strategies: int
    n_blue_strategies: int
    statistical: bool
    caveats: tuple[str, ...]

    @property
    def found(self) -> bool:
        return bool(self.equilibria)

    def joint_values(self) -> list[float]:
        return [est.joint for _, _, est in self.equilibria]

    def to_json_dict(self) -> dict:
        return {
            "equilibria": [
                {"red": _seed_pairs(a), "blue": _seed_pairs(b), "payoffs": est.to_json_dict()}
                for a, b, est in self.equilibria
            ],
            "eps": self.eps,
            "method": self.method,
            "n_red_strategies": self.n_red_strategies,
            "n_blue_strategies": self.n_blue_strategies,
            "statistical": self.statistical,
            "caveats": list(self.caveats),
        }


@dataclass(frozen=True)
class JointOptimum:
    red: Allocation
    blue: Allocation
    value: float
    exhaustive: bool

    def to_json_dict(self) -> dict:
        return {"red": _seed_pairs(self.red), "blue": _seed_pairs(self.blue),
                "value": self.value, "exhaustive": self.exhaustive}


@dataclass(frozen=True)
class EfficiencyReport:
    kind: str  # "poa" or "bm"
    value: float
    statistical: bool
    infinite: bool
    n_equilibria: int
    eps: float
    caveats: tuple[str, ...]
    worst_nash_joint: Optional[float] = None
    best_nash_joint: Optional[float] = None
    max_joint: Optional[float] = None
    optimum: Optional[JointOptimum] = None

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "value": ("inf" if self.infinite else self.value),
            "statistical": self.statistical,
            "infinite": self.infinite,
            "n_equilibria": self.n_equilibria,
            "eps": self.eps,
            "caveats": list(self.caveats),
        }
        for key in ("worst_nash_joint", "best_nash_joint", "max_joint"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        if self.optimum is not None:
            out["optimum"] = self.optimum.to_json_dict()
        return out


# ---------------------------------------------------------------------------
# Search.
# ---------------------------------------------------------------------------


def _check_eps(eps: Optional[float]) -> None:
    """An eps, where given, is a real number (`errors.real_number`), finite and >= 0."""
    if eps is not None and not 0.0 <= real_number(eps, "eps") < math.inf:
        raise ValidationError(f"eps must be a finite number >= 0, got {eps!r}")


def _resolve_eps(oracle: PayoffOracle, eps: Optional[float]) -> tuple[float, list[str]]:
    _check_eps(eps)
    caveats: list[str] = []
    if oracle.statistical:
        floor = 6.0 * oracle.max_stderr()
        resolved = max(eps if eps is not None else 0.0, floor)
        caveats.append(
            f"payoffs are Monte Carlo estimates; equilibria are eps-approximate with eps={resolved:.6g} "
            "(at least six standard errors)")
        return resolved, caveats
    return (EXACT_EPS if eps is None else eps), caveats


def find_pure_nash(game: GameSpec, oracle: Optional[PayoffOracle] = None,
                   eps: Optional[float] = None,
                   allocation_cap: int = DEFAULT_ALLOCATION_CAP,
                   pair_cap: int = DEFAULT_PAIR_CAP) -> NashReport:
    """All pure (eps-)Nash profiles of the oracle's table: each player is
    within eps of its best response."""
    oracle = oracle or PayoffOracle(game)
    reds, blues, estimates = oracle._table(allocation_cap, pair_cap)
    pi_r = np.array([est.pi_R for est in estimates]).reshape(len(reds), len(blues))
    pi_b = np.array([est.pi_B for est in estimates]).reshape(len(reds), len(blues))

    resolved_eps, caveats = _resolve_eps(oracle, eps)
    stable = ((pi_r >= pi_r.max(axis=0) - resolved_eps)
              & (pi_b >= pi_b.max(axis=1, keepdims=True) - resolved_eps))
    equilibria = [(reds[i], blues[j], estimates[i * len(blues) + j])
                  for i, j in zip(*np.nonzero(stable))]
    caveats.append("pure strategies only; mixed equilibria are out of scope")
    return NashReport(
        equilibria=tuple(equilibria), eps=resolved_eps, method=oracle.method,
        n_red_strategies=len(reds), n_blue_strategies=len(blues),
        statistical=oracle.statistical, caveats=tuple(caveats),
    )


def best_response(game: GameSpec, side: str, opponent: Allocation,
                  oracle: Optional[PayoffOracle] = None,
                  allocation_cap: int = DEFAULT_ALLOCATION_CAP) -> tuple[Allocation, float]:
    """The payoff-maximizing allocation against a fixed opponent.

    Ties go to the lexicographically smallest counts tuple: candidates come
    in strictly descending counts order, so a later tied candidate replaces
    the incumbent.
    """
    if side not in ("red", "blue"):
        raise ValidationError(f"side must be 'red' or 'blue', got {side!r}")
    oracle = oracle or PayoffOracle(game)
    budget = game.budget_red if side == "red" else game.budget_blue
    cands = enumerate_allocations(game.graph.n, budget, cap=allocation_cap)
    if side == "red":
        pays = [est.pi_R for est in oracle.fill((cand, opponent) for cand in cands)]
    else:
        pays = [est.pi_B for est in oracle.fill((opponent, cand) for cand in cands)]
    best: Optional[Allocation] = None
    best_pay = -math.inf
    for cand, pay in zip(cands, pays):
        if pay >= best_pay - TIE_EPS:
            best, best_pay = cand, max(pay, best_pay)
    assert best is not None
    return best, best_pay


def max_joint_payoff(game: GameSpec, oracle: Optional[PayoffOracle] = None,
                     mode: str = "exhaustive",
                     allocation_cap: int = DEFAULT_ALLOCATION_CAP,
                     pair_cap: int = DEFAULT_PAIR_CAP,
                     starts: Sequence[tuple[Allocation, Allocation]] = (),
                     restarts: int = 8, master_seed: int = 0) -> JointOptimum:
    """Maximize pi_R + pi_B over profile pairs.

    "exhaustive" scans every pair; "hill_climb" relocates one seed at a time
    from given or random starting profiles and returns a lower bound.
    """
    oracle = oracle or PayoffOracle(game)
    n = game.graph.n
    if mode == "exhaustive":
        reds, blues, estimates = oracle._table(allocation_cap, pair_cap)
        best, best_val = None, -math.inf
        for k, est in enumerate(estimates):
            if est.joint > best_val + TIE_EPS:
                best, best_val = k, est.joint
        assert best is not None
        return JointOptimum(red=reds[best // len(blues)], blue=blues[best % len(blues)],
                            value=best_val, exhaustive=True)

    if mode != "hill_climb":
        raise ValidationError(f"unknown optimization mode {mode!r}")

    def climb(a: Allocation, b: Allocation) -> tuple[Allocation, Allocation, float]:
        val = sum(oracle.payoffs(a, b))
        improved = True
        while improved:
            improved = False
            for who in ("red", "blue"):
                alloc = a if who == "red" else b
                for src in alloc.seeded_vertices():
                    for dst in range(n):
                        if dst == src:
                            continue
                        cand = alloc.move_seed(src, dst)
                        pair = (cand, b) if who == "red" else (a, cand)
                        cand_val = sum(oracle.payoffs(*pair))
                        if cand_val > val + TIE_EPS:
                            a, b = pair
                            val = cand_val
                            improved = True
        return a, b, val

    candidates = list(starts)
    for k in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(k,)))
        ra = Allocation.from_seeds(n, rng.integers(0, n, size=game.budget_red))
        rb = Allocation.from_seeds(n, rng.integers(0, n, size=game.budget_blue))
        candidates.append((ra, rb))
    best_a, best_b, best_val = None, None, -math.inf
    for a0, b0 in candidates:
        a, b, val = climb(a0, b0)
        if val > best_val:
            best_a, best_b, best_val = a, b, val
    assert best_a is not None
    return JointOptimum(red=best_a, blue=best_b, value=best_val, exhaustive=False)


def _nash_of(game: GameSpec, oracle: Optional[PayoffOracle], nash: Optional[NashReport],
             eps: Optional[float], allocation_cap: int, pair_cap: int
             ) -> tuple[PayoffOracle, NashReport]:
    """The oracle, an exact one by default, and the pure Nash report on it, if not given."""
    oracle = oracle or PayoffOracle(game)
    return oracle, nash or find_pure_nash(game, oracle, eps, allocation_cap, pair_cap)


def _efficiency(kind: str, nash: NashReport, caveats: list[str], value: float, infinite: bool,
                **fields) -> EfficiencyReport:
    """The `kind` report of `value` over nash's equilibria, or of nan where
    it found none."""
    joints = nash.joint_values()
    if joints:
        fields.update(worst_nash_joint=min(joints), best_nash_joint=max(joints))
    else:
        caveats.append("no pure Nash equilibrium found")
        value, infinite = math.nan, False
    return EfficiencyReport(kind=kind, value=value, statistical=nash.statistical,
                            infinite=infinite, n_equilibria=len(joints), eps=nash.eps,
                            caveats=tuple(caveats), **fields)


def price_of_anarchy(game: GameSpec, oracle: Optional[PayoffOracle] = None,
                     nash: Optional[NashReport] = None,
                     eps: Optional[float] = None,
                     allocation_cap: int = DEFAULT_ALLOCATION_CAP,
                     pair_cap: int = DEFAULT_PAIR_CAP) -> EfficiencyReport:
    """max joint payoff over all profiles, divided by the worst pure-Nash joint."""
    oracle, nash = _nash_of(game, oracle, nash, eps, allocation_cap, pair_cap)
    optimum = max_joint_payoff(game, oracle, allocation_cap=allocation_cap, pair_cap=pair_cap)
    worst = min(nash.joint_values(), default=math.nan)
    infinite = worst <= 0.0
    return _efficiency("poa", nash, list(nash.caveats),
                       math.inf if infinite else optimum.value / worst, infinite,
                       max_joint=optimum.value, optimum=optimum)


def _profile_bm(budget_red: int, budget_blue: int, est: PayoffEstimate) -> tuple[float, bool]:
    """Per-seed payoff ratio of the richer player over the poorer one, and
    whether it is unbounded, where the ratio is math.inf."""
    red, blue = est.pi_R / budget_red, est.pi_B / budget_blue
    if budget_red == budget_blue:
        red, blue = max(red, blue), min(red, blue)
    hi, lo = (blue, red) if budget_blue > budget_red else (red, blue)
    if lo <= 0.0:
        return math.inf, True
    return hi / lo, False


def budget_multiplier(game: GameSpec, oracle: Optional[PayoffOracle] = None,
                      nash: Optional[NashReport] = None,
                      eps: Optional[float] = None,
                      allocation_cap: int = DEFAULT_ALLOCATION_CAP,
                      pair_cap: int = DEFAULT_PAIR_CAP) -> EfficiencyReport:
    """Worst-case (over pure Nash) per-seed payoff advantage of the player
    with the larger budget; with equal budgets, of the better-off player."""
    oracle, nash = _nash_of(game, oracle, nash, eps, allocation_cap, pair_cap)
    caveats = list(nash.caveats)
    if game.budget_red == game.budget_blue:
        caveats.append("budgets are equal; the ratio compares the better-off player to the other")
    ratios = [_profile_bm(game.budget_red, game.budget_blue, est) for _, _, est in nash.equilibria]
    infinite = any(flag for _, flag in ratios)
    if infinite:
        caveats.append("some equilibrium gives the poorer player zero payoff; ratio is unbounded")
    return _efficiency("bm", nash, caveats, max((bm for bm, _ in ratios), default=math.nan),
                       infinite)


# ---------------------------------------------------------------------------
# Restricted deviation checks (for structured instances too large to enumerate).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeviationRecord:
    player: str
    allocation: Allocation
    payoff: float
    improvement: float
    label: str = ""

    def to_json_dict(self) -> dict:
        return {"player": self.player, "label": self.label,
                "allocation": _seed_pairs(self.allocation),
                "payoff": self.payoff, "improvement": self.improvement}


@dataclass(frozen=True)
class DeviationReport:
    designated: PayoffEstimate
    records: tuple[DeviationRecord, ...]
    eps: float
    equilibrium_ok: bool
    restriction_note: str

    def best_improvement(self, player: Optional[str] = None) -> float:
        vals = [r.improvement for r in self.records if player is None or r.player == player]
        return max(vals) if vals else 0.0

    def to_json_dict(self) -> dict:
        return {
            "designated_payoffs": self.designated.to_json_dict(),
            "deviations": [r.to_json_dict() for r in self.records],
            "eps": self.eps,
            "equilibrium_ok": self.equilibrium_ok,
            "restriction_note": self.restriction_note,
        }


def verify_profile_deviations(
        payoff_fn: Callable[[Allocation, Allocation], PayoffEstimate],
        red: Allocation, blue: Allocation,
        red_deviations: Sequence[tuple[str, Allocation]],
        blue_deviations: Sequence[tuple[str, Allocation]],
        eps: float = EXACT_EPS) -> DeviationReport:
    """Check a designated profile against explicit lists of labeled deviations.

    This certifies equilibrium only relative to the supplied deviation sets,
    which the report states explicitly.
    """
    _check_eps(eps)
    designated = payoff_fn(red, blue)
    records: list[DeviationRecord] = []
    for label, alt in red_deviations:
        est = payoff_fn(alt, blue)
        records.append(DeviationRecord(
            player="red", allocation=alt, payoff=est.pi_R,
            improvement=est.pi_R - designated.pi_R, label=label))
    for label, alt in blue_deviations:
        est = payoff_fn(red, alt)
        records.append(DeviationRecord(
            player="blue", allocation=alt, payoff=est.pi_B,
            improvement=est.pi_B - designated.pi_B, label=label))
    ok = all(r.improvement <= eps for r in records)
    return DeviationReport(
        designated=designated, records=tuple(records), eps=eps, equilibrium_ok=ok,
        restriction_note=(
            "equilibrium verified only against the listed deviations, not the full strategy space"),
    )
