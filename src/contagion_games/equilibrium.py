"""Pure Nash equilibria, best responses, and inefficiency measures.

Strategy spaces are enumerated exhaustively (with a hard cap on their size),
so every result here is a statement about pure strategies only.  Payoffs come
from a cached oracle that can run any of the three payoff back ends.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .engine import (
    DEFAULT_NODE_CAP,
    DEFAULT_TRIALS,
    EXACT_ENUMERATION,
    MONTE_CARLO,
    Allocation,
    GameSpec,
    PayoffEstimate,
    StrategyProfile,
    estimate_payoffs,
    exact_payoffs,
)
from .errors import AllocationSpaceCapError, ValidationError

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


class PayoffOracle:
    """Evaluates and caches pure-profile payoffs.

    The dynamics treat the two colors identically, so swapping the players'
    allocations swaps their payoffs; the cache exploits that to halve the work
    (`use_symmetry`).  Monte Carlo evaluations derive their seed from the
    profile's contents, making results independent of evaluation order.
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

    @property
    def statistical(self) -> bool:
        return self._payoff_fn is None and self.method == MONTE_CARLO

    def _profile_seed(self, red: Allocation, blue: Allocation) -> int:
        key = red.counts + (2**31 - 1,) + blue.counts
        ss = np.random.SeedSequence(entropy=self.master_seed, spawn_key=key)
        return ss

    def evaluate(self, red: Allocation, blue: Allocation) -> PayoffEstimate:
        key = (red, blue)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if self.use_symmetry:
            swapped = self._cache.get((blue, red))
            if swapped is not None:
                est = PayoffEstimate(pi_R=swapped.pi_B, pi_B=swapped.pi_R,
                                     method=swapped.method, n_trials=swapped.n_trials,
                                     stderr_R=swapped.stderr_B, stderr_B=swapped.stderr_R,
                                     pruned_mass=swapped.pruned_mass)
                self._cache[key] = est
                return est
        profile = StrategyProfile(red=red, blue=blue)
        if self._payoff_fn is not None:
            est = self._payoff_fn(red, blue)
        elif self.method == EXACT_ENUMERATION:
            est = exact_payoffs(self.game, profile, node_cap=self.node_cap)
        else:
            rng_seed = int(self._profile_seed(red, blue).generate_state(1)[0])
            est = estimate_payoffs(self.game, profile, n_trials=self.n_trials,
                                   master_seed=rng_seed, threads=self.threads)
        self._cache[key] = est
        return est

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
        if self.worst_nash_joint is not None:
            out["worst_nash_joint"] = self.worst_nash_joint
        if self.best_nash_joint is not None:
            out["best_nash_joint"] = self.best_nash_joint
        if self.max_joint is not None:
            out["max_joint"] = self.max_joint
        if self.optimum is not None:
            out["optimum"] = self.optimum.to_json_dict()
        return out


# ---------------------------------------------------------------------------
# Search.
# ---------------------------------------------------------------------------


def _resolve_eps(oracle: PayoffOracle, eps: Optional[float]) -> tuple[float, list[str]]:
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
    """All pure (eps-)Nash profiles by exhaustive enumeration."""
    oracle = oracle or PayoffOracle(game)
    n = game.graph.n
    reds = enumerate_allocations(n, game.budget_red, cap=allocation_cap)
    blues = (reds if game.budget_blue == game.budget_red
             else enumerate_allocations(n, game.budget_blue, cap=allocation_cap))
    if len(reds) * len(blues) > pair_cap:
        raise AllocationSpaceCapError(
            f"{len(reds)}x{len(blues)} profile pairs exceed the cap of {pair_cap}")

    pi_r = np.empty((len(reds), len(blues)))
    pi_b = np.empty((len(reds), len(blues)))
    for i, a in enumerate(reds):
        for j, b in enumerate(blues):
            pi_r[i, j], pi_b[i, j] = oracle.payoffs(a, b)

    resolved_eps, caveats = _resolve_eps(oracle, eps)
    best_red = pi_r.max(axis=0)   # per blue strategy
    best_blue = pi_b.max(axis=1)  # per red strategy
    equilibria = []
    for i, a in enumerate(reds):
        for j, b in enumerate(blues):
            if (pi_r[i, j] >= best_red[j] - resolved_eps
                    and pi_b[i, j] >= best_blue[i] - resolved_eps):
                equilibria.append((a, b, oracle.evaluate(a, b)))
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
    best: Optional[Allocation] = None
    best_pay = -math.inf
    for cand in enumerate_allocations(game.graph.n, budget, cap=allocation_cap):
        if side == "red":
            pay = oracle.payoffs(cand, opponent)[0]
        else:
            pay = oracle.payoffs(opponent, cand)[1]
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
        reds = enumerate_allocations(n, game.budget_red, cap=allocation_cap)
        blues = (reds if game.budget_blue == game.budget_red
                 else enumerate_allocations(n, game.budget_blue, cap=allocation_cap))
        if len(reds) * len(blues) > pair_cap:
            raise AllocationSpaceCapError(
                f"{len(reds)}x{len(blues)} profile pairs exceed the cap of {pair_cap}")
        best = None
        best_val = -math.inf
        for a in reds:
            for b in blues:
                val = sum(oracle.payoffs(a, b))
                if val > best_val + TIE_EPS:
                    best, best_val = (a, b), val
        assert best is not None
        return JointOptimum(red=best[0], blue=best[1], value=best_val, exhaustive=True)

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


def price_of_anarchy(game: GameSpec, oracle: Optional[PayoffOracle] = None,
                     nash: Optional[NashReport] = None,
                     eps: Optional[float] = None,
                     allocation_cap: int = DEFAULT_ALLOCATION_CAP,
                     pair_cap: int = DEFAULT_PAIR_CAP) -> EfficiencyReport:
    """max joint payoff over all profiles, divided by the worst pure-Nash joint."""
    oracle = oracle or PayoffOracle(game)
    nash = nash or find_pure_nash(game, oracle, eps=eps,
                                  allocation_cap=allocation_cap, pair_cap=pair_cap)
    optimum = max_joint_payoff(game, oracle, allocation_cap=allocation_cap, pair_cap=pair_cap)
    caveats = list(nash.caveats)
    if not optimum.exhaustive:
        caveats.append("max joint payoff is a hill-climbing lower bound")
    if not nash.found:
        return EfficiencyReport(kind="poa", value=math.nan, statistical=nash.statistical,
                                infinite=False, n_equilibria=0, eps=nash.eps,
                                caveats=tuple(caveats + ["no pure Nash equilibrium found"]),
                                max_joint=optimum.value, optimum=optimum)
    joints = nash.joint_values()
    worst, best = min(joints), max(joints)
    infinite = worst <= 0.0
    value = math.inf if infinite else optimum.value / worst
    return EfficiencyReport(kind="poa", value=value, statistical=nash.statistical,
                            infinite=infinite, n_equilibria=len(joints), eps=nash.eps,
                            caveats=tuple(caveats), worst_nash_joint=worst,
                            best_nash_joint=best, max_joint=optimum.value, optimum=optimum)


def _profile_bm(budget_red: int, budget_blue: int, est: PayoffEstimate) -> tuple[float, bool]:
    """Per-seed payoff ratio of the richer player over the poorer one."""
    if budget_red > budget_blue:
        hi, lo = est.pi_R / budget_red, est.pi_B / budget_blue
    elif budget_blue > budget_red:
        hi, lo = est.pi_B / budget_blue, est.pi_R / budget_red
    else:
        hi = max(est.pi_R, est.pi_B) / budget_red
        lo = min(est.pi_R, est.pi_B) / budget_blue
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
    oracle = oracle or PayoffOracle(game)
    nash = nash or find_pure_nash(game, oracle, eps=eps,
                                  allocation_cap=allocation_cap, pair_cap=pair_cap)
    caveats = list(nash.caveats)
    if game.budget_red == game.budget_blue:
        caveats.append("budgets are equal; the ratio compares the better-off player to the other")
    if not nash.found:
        return EfficiencyReport(kind="bm", value=math.nan, statistical=nash.statistical,
                                infinite=False, n_equilibria=0, eps=nash.eps,
                                caveats=tuple(caveats + ["no pure Nash equilibrium found"]))
    value = -math.inf
    infinite = False
    for _, _, est in nash.equilibria:
        bm, inf_flag = _profile_bm(game.budget_red, game.budget_blue, est)
        if inf_flag:
            infinite = True
        value = max(value, bm)
    if infinite:
        caveats.append("some equilibrium gives the poorer player zero payoff; ratio is unbounded")
    joints = nash.joint_values()
    return EfficiencyReport(kind="bm", value=value, statistical=nash.statistical,
                            infinite=infinite, n_equilibria=len(nash.equilibria),
                            eps=nash.eps, caveats=tuple(caveats),
                            worst_nash_joint=min(joints), best_nash_joint=max(joints))


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
