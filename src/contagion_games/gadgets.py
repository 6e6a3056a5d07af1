"""Benchmark graph families bundled with designated strategy profiles,
declared deviation sets, and closed-form predictions.

Each builder returns a :class:`GadgetSpec` described by a layered structure or
a replicated-chain layout; its size, schedule, graph and exact payoffs (layered
dynamic program or chain forward pass) follow from that description, and
:func:`verify_gadget` recomputes every declared quantity and reports
predicted-versus-measured rows plus equilibrium checks against the declared
deviation sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ValidationError, real_number
from .graphs import BLUE, RED, UNINFECTED, Graph
from .dynamics import (
    AdoptionFunction,
    LayerOrder,
    PowerSwitch,
    SwitchSelectAdoption,
    ThresholdSwitch,
    TullockSelection,
    linear_selection,
    load_dynamics,
)
from .engine import (
    EXACT_LAYERED_DP,
    Allocation,
    GameSpec,
    PayoffEstimate,
    StrategyProfile,
    _binomial,
    _draw_contests,
    _Draws,
    _fill,
    _is_integer,
    _ProbTable,
    _require_master_seed,
    _seed_keys,
    split_seeds,
)
from .equilibrium import (
    EXACT_EPS,
    DeviationReport,
    _profile_bm,
    _seed_pairs,
    verify_profile_deviations,
)
from .layered import (_SAMPLER_BLOCK, DEFAULT_GRAPH_EDGE_CAP, LayeredDP, LayeredStructure,
                      layered_exact_payoffs)

PREDICTION_CHECKS = ("equal", "at-least", "within-band", "report")


def _integer(name: str, value) -> int:
    """An integer gadget parameter, numpy's included; a bool, a float or a
    string is refused, never truncated or parsed."""
    if not _is_integer(value):
        raise ValidationError(f"gadget parameter {name} must be an integer, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# Declarative pieces carried by a gadget.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Prediction:
    """A named closed-form value with the rule for comparing it to measurement.

    check:
      equal        |measured - predicted| <= tol
      at-least     measured >= predicted - tol
      within-band  |measured/predicted - 1| <= tol
      report       informational only, never pass/fail
    """

    name: str
    predicted: float
    formula: str
    check: str = "equal"
    tol: float = 1e-9
    measure_key: Optional[str] = None

    def __post_init__(self):
        if self.check not in PREDICTION_CHECKS:
            raise ValidationError(
                f"prediction check must be one of {PREDICTION_CHECKS}, got {self.check!r}")
        if self.check == "within-band" and self.predicted == 0:
            raise ValidationError("within-band predictions need a nonzero predicted value")
        if self.tol < 0:
            raise ValidationError("prediction tolerance must be nonnegative")

    @property
    def key(self) -> str:
        return self.measure_key if self.measure_key is not None else self.name

    def judge(self, measured: Optional[float]) -> Optional[bool]:
        if self.check == "report":
            return None
        if measured is None:
            return False
        if self.check == "equal":
            return abs(measured - self.predicted) <= self.tol
        if self.check == "at-least":
            return measured >= self.predicted - self.tol
        return abs(measured / self.predicted - 1.0) <= self.tol

    def to_json_dict(self) -> dict:
        return {"name": self.name, "predicted": self.predicted, "formula": self.formula,
                "check": self.check, "tol": self.tol, "measure_key": self.key}


@dataclass(frozen=True)
class ProfileCase:
    """A named strategy profile with its declared deviation set."""

    label: str
    red: Allocation
    blue: Allocation
    red_deviations: tuple[tuple[str, Allocation], ...] = ()
    blue_deviations: tuple[tuple[str, Allocation], ...] = ()
    expect_equilibrium: bool = True

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "red_seeds": _seed_pairs(self.red),
            "blue_seeds": _seed_pairs(self.blue),
            "red_deviations": [label for label, _ in self.red_deviations],
            "blue_deviations": [label for label, _ in self.blue_deviations],
            "expect_equilibrium": self.expect_equilibrium,
        }


def _side(n: int, seeds: Sequence[int], moves=(), wholes=()
          ) -> tuple[Allocation, tuple[tuple[str, Allocation], ...]]:
    """One player's allocation, seeds on `seeds`, and its labelled deviations
    in order: each `(label, vertex)` of `moves` relocates the seed on
    `seeds[0]` to `vertex`, and each `(label, vertices)` of `wholes` seeds
    `vertices` instead."""
    alloc = Allocation.from_seeds(n, seeds)
    return alloc, (tuple((label, alloc.move_seed(seeds[0], v)) for label, v in moves)
                   + tuple((label, Allocation.from_seeds(n, vs)) for label, vs in wholes))


# ---------------------------------------------------------------------------
# Replicated-chain layout and its exact evaluator.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainLayout:
    """Shared input vertices feeding independent chain-plus-terminal blocks.

    Vertices 0..n_inputs-1 are the shared inputs.  Block j holds a chain of
    ``chain_len`` vertices (each with exactly two in-neighbors: one input and
    the previous chain vertex) followed by ``n_terminal`` terminal vertices
    hanging off the last chain vertex.
    """

    chain_steps: int
    replications: int
    n_terminal: int
    head_seeds: int = 1

    def __post_init__(self):
        for name in ("chain_steps", "replications", "n_terminal", "head_seeds"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be at least 1")

    @property
    def n_inputs(self) -> int:
        return self.chain_steps + self.head_seeds

    @property
    def chain_len(self) -> int:
        return self.n_inputs - 1

    @property
    def block_size(self) -> int:
        return self.chain_len + self.n_terminal

    @property
    def n(self) -> int:
        return self.n_inputs + self.replications * self.block_size

    @property
    def n_edges(self) -> int:
        return self.replications * (2 * self.chain_len + self.n_terminal)

    def block_base(self, j: int) -> int:
        return self.n_inputs + j * self.block_size

    def chain_vertex(self, j: int, depth: int) -> int:
        """Chain vertex at 1-based depth within block j."""
        if not (1 <= depth <= self.chain_len):
            raise ValidationError(f"chain depth must lie in 1..{self.chain_len}, got {depth}")
        return self.block_base(j) + depth - 1

    def terminal_range(self, j: int) -> tuple[int, int]:
        return self.block_base(j) + self.chain_len, self.n_terminal

    def owner_block(self, v: int) -> Optional[int]:
        if v < self.n_inputs:
            return None
        return (v - self.n_inputs) // self.block_size

    def build_graph(self, max_edges: int = DEFAULT_GRAPH_EDGE_CAP) -> Graph:
        if self.n_edges > max_edges:
            raise ValidationError(
                f"materializing {self.n_edges} edges exceeds the cap of {max_edges}")
        # Sorted: input i feeds each block's depth-max(i, 1) chain vertex; in a
        # block, vertex k >= 1 hangs off vertex min(k, chain_len) - 1.
        bases = self.block_base(0) + self.block_size * np.arange(self.replications)[:, None]
        inputs, local = np.arange(self.n_inputs), np.arange(1, self.block_size)
        edges = np.concatenate((
            np.column_stack((inputs.repeat(self.replications),
                             (bases.T + np.maximum(inputs, 1)[:, None] - 1).ravel())),
            np.column_stack(((bases + np.minimum(local, self.chain_len) - 1).ravel(),
                             (bases + local).ravel()))))
        return Graph(n=self.n, edges=edges, directed=True)

    def depth_schedule(self) -> LayerOrder:
        """Updates the depth-d chain vertices of every block in step d, then
        every terminal."""
        first, step = self.block_base(0), self.block_size
        end = first + self.replications * step
        phases = [[(v, v + 1) for v in range(first + d, end, step)] for d in range(self.chain_len)]
        phases.append([(v, v + self.n_terminal)
                       for v in range(first + self.chain_len, end, step)])
        return LayerOrder.from_runs(phases)


def _pair_probs(dyn: AdoptionFunction, n_red: int, n_blue: int) -> tuple[float, float]:
    """(red, blue) update probabilities for a vertex with two in-neighbors."""
    pr, pb, _ = dyn.update_probs(n_red / 2.0, n_blue / 2.0)
    return pr, pb


# The (uninfected, red, blue) law of a vertex no one seeds.
_UNSEEDED = (1.0, 0.0, 0.0)


def _chain_forward(layout: ChainLayout, dyn: AdoptionFunction, red: Allocation,
                   blue: Allocation) -> tuple[float, float, tuple[float, float, float]]:
    """Expected (red, blue) totals, plus the final chain vertex's
    (uninfected, red, blue) law in block 0.

    Each seeded vertex carries its own color law, a contested one red with
    its share of the seeds there, independently of every other vertex.  A
    chain vertex at depth d reads input d, which nothing before depth d
    reads, so it is independent of the chain vertex it also reads, and the
    pair's law is the product of theirs.  Expectations add across blocks, so
    each block runs on the inputs' laws alone."""
    red_only, blue_only, contested = split_seeds(red, blue)
    laws = dict.fromkeys(red_only, (0.0, 1.0, 0.0)) | dict.fromkeys(blue_only, (0.0, 0.0, 1.0))
    laws.update((v, (0.0, p_red, 1.0 - p_red)) for v, p_red in contested)
    er = sum(law[RED] for law in laws.values())
    eb = sum(law[BLUE] for law in laws.values())
    first_dist: tuple[float, float, float] = _UNSEEDED
    # Group non-input seeds by block so identical blocks are computed once.
    block_overrides: dict[int, dict[int, tuple[float, float, float]]] = {}
    for v, law in laws.items():
        j = layout.owner_block(v)
        if j is not None:
            block_overrides.setdefault(j, {})[v] = law
    plain_result: Optional[tuple[float, float, tuple[float, float, float]]] = None
    for j in range(layout.replications):
        overrides = block_overrides.get(j)
        if overrides is None and plain_result is not None:
            r, b, dist = plain_result
        else:
            r, b, dist = _block_expectation(layout, dyn, laws, j, overrides or {})
            if overrides is None:
                plain_result = (r, b, dist)
        er += r
        eb += b
        if j == 0:
            first_dist = dist
    return er, eb, first_dist


def _block_expectation(layout: ChainLayout, dyn: AdoptionFunction,
                       laws: dict[int, tuple[float, float, float]], j: int,
                       overrides: dict[int, tuple[float, float, float]]):
    """Expected unseeded (red, blue) totals of one block and the final chain
    vertex's law, from the seeded vertices' laws; `overrides` holds those of
    the block's own seeds."""
    er = eb = 0.0
    # The law of the in-neighbour a chain vertex reads besides its own input:
    # input 0 at depth 1, then the chain vertex one depth up.
    dist = laws.get(0, _UNSEEDED)
    for depth in range(1, layout.chain_len + 1):
        forced = overrides.get(layout.chain_vertex(j, depth))
        if forced is not None:
            dist = forced
            continue
        pr = pb = 0.0
        for input_state, input_weight in enumerate(laws.get(depth, _UNSEEDED)):
            if input_weight == 0.0:
                continue
            for state, weight in enumerate(dist):
                if weight == 0.0:
                    continue
                wr, wb = _pair_probs(dyn, (input_state == RED) + (state == RED),
                                     (input_state == BLUE) + (state == BLUE))
                pr += input_weight * weight * wr
                pb += input_weight * weight * wb
        er += pr
        eb += pb
        dist = (1.0 - pr - pb, pr, pb)
    start, size = layout.terminal_range(j)
    seeded_here = sum(1 for v in overrides if v >= start)
    unseeded = size - seeded_here
    if unseeded > 0:
        solo_red_r, solo_red_b = dyn.update_probs(1.0, 0.0)[:2]
        solo_blue_r, solo_blue_b = dyn.update_probs(0.0, 1.0)[:2]
        er += unseeded * (dist[RED] * solo_red_r + dist[BLUE] * solo_blue_r)
        eb += unseeded * (dist[RED] * solo_red_b + dist[BLUE] * solo_blue_b)
    return er, eb, dist


def chain_exact_payoffs(layout: ChainLayout, dyn: AdoptionFunction,
                        profile: StrategyProfile) -> PayoffEstimate:
    """Exact expected payoffs on a replicated-chain graph.

    Each chain vertex updates exactly once in depth order, so one forward
    pass over per-depth color laws gives the exact expectation
    (`_chain_forward`), whatever the number of contested seeds.
    """
    er = eb = 0.0
    for p, red, blue in profile.support_pairs():
        if p == 0.0:
            continue
        if red.n != layout.n or blue.n != layout.n:
            raise ValidationError("allocation length does not match the chain layout")
        r, b, _ = _chain_forward(layout, dyn, red, blue)
        er += p * r
        eb += p * b
    return PayoffEstimate(pi_R=er, pi_B=eb, method=EXACT_LAYERED_DP,
                          n_trials=0, stderr_R=0.0, stderr_B=0.0)


def chain_final_vertex_distribution(layout: ChainLayout, dyn: AdoptionFunction,
                                    red: Allocation, blue: Allocation,
                                    ) -> tuple[float, float, float]:
    """(uninfected, red, blue) distribution of block 0's last chain vertex."""
    _, _, dist = _chain_forward(layout, dyn, red, blue)
    return dist


def sample_chain_block(layout: ChainLayout, dyn: AdoptionFunction,
                       red: Allocation, blue: Allocation, n_runs: int,
                       master_seed: int = 0, block: int = 0):
    """Monte Carlo draws of one block's (chain+terminal) color counts.

    Supports profiles whose seeds all sit on the shared inputs; returns
    integer arrays (red_counts, blue_counts) of length n_runs.  Run i draws
    from the SplitMix64 stream keyed by (master_seed, stream tag block, i)
    (`engine._replication_words`, `engine._Draws`), in this order: its
    contested inputs (`engine._draw_contests`); one uniform per chain depth;
    then, behind an infected final chain vertex, Binom(n_terminal, P[Red])
    red terminals and Binom(n_terminal - reds, P[Blue] / (1 - P[Red])) blue
    ones (`engine._binomial`).  Every chain vertex has in-degree 2, so one
    `engine._ProbTable` row gives each run's (P[Red], P[Red or Blue]) at a
    depth in one lookup.
    """
    if not (_is_integer(n_runs) and n_runs >= 1):
        raise ValidationError(f"n_runs must be a positive integer, got {n_runs!r}")
    _require_master_seed(master_seed)
    if not (_is_integer(block) and block >= 0):
        raise ValidationError(f"block must be a nonnegative integer, got {block!r}")
    if any(v >= layout.n_inputs for v, _ in red.seeds + blue.seeds):
        raise ValidationError("the block sampler supports seeds on shared inputs only")
    red_only, blue_only, contested = split_seeds(red, blue)
    contested_inputs = [v for v, _ in contested]
    p_win = np.array([p_red for _, p_red in contested])
    inputs = np.full(layout.n_inputs, UNINFECTED, dtype=np.int8)
    inputs[red_only] = RED
    inputs[blue_only] = BLUE
    table = _ProbTable(dyn, np.array([2]))
    # Terminal (P[Red], P[Blue] / (1 - P[Red])), by the final chain vertex's color.
    terminal = np.zeros((2, 3))
    for color, (pr, pb) in ((RED, _pair_probs(dyn, 2, 0)), (BLUE, _pair_probs(dyn, 0, 2))):
        terminal[:, color] = pr, pb / (1.0 - pr) if pr < 1.0 else 0.0

    def run(keys: np.ndarray, jobs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        draws = _Draws(keys)
        rows = np.arange(len(keys))
        colors = np.repeat(inputs[None, :], len(rows), axis=0)
        colors[:, contested_inputs] = _draw_contests(draws, rows, p_win)
        red_count = np.zeros(len(rows), dtype=np.int64)
        blue_count = np.zeros(len(rows), dtype=np.int64)
        # The chain vertex at depth d reads input d and the vertex before it,
        # input 0 at depth 1.
        state = colors[:, 0]
        for depth in range(1, layout.chain_len + 1):
            ins = colors[:, depth]
            n_red = (ins == RED).astype(np.intp) + (state == RED)
            n_blue = (ins == BLUE).astype(np.intp) + (state == BLUE)
            p_red, p_any = table.lookup(np.zeros(len(rows), dtype=np.intp), n_red, n_blue)
            z = draws.take(rows, np.ones(len(rows), dtype=np.intp), rows)
            state = np.where(z < p_red, RED, np.where(z < p_any, BLUE, UNINFECTED))
            red_count += state == RED
            blue_count += state == BLUE
        # An uninfected final vertex leaves both probabilities 0: no draw.
        p_red, p_blue = terminal[:, state]
        reds = _binomial(draws, rows, np.full(len(rows), layout.n_terminal), p_red)
        others = _binomial(draws, rows, layout.n_terminal - reds, p_blue)
        return red_count + reds, blue_count + others

    counts = _fill(run, _seed_keys([master_seed], (block,)), n_runs, 0, n_runs, _SAMPLER_BLOCK)
    return counts[0].astype(np.int64), counts[1].astype(np.int64)


# ---------------------------------------------------------------------------
# GadgetSpec and verification report.
# ---------------------------------------------------------------------------


@dataclass
class GadgetSpec:
    """A generated benchmark instance: a layered structure or a chain layout,
    dynamics, budgets, named profiles with deviation sets, and predictions.
    The size, schedule, graph and exact payoffs follow from the layout.

    Builders state each player of a profile once, through `_side`: its seeds,
    then its labelled deviations in order, relocations of the seed on its
    first listed vertex before whole allocations.  `verify_gadget` calls
    `extra_measure(spec, fn, measured)`, when set, after every profile is
    checked: `fn` is the verification's payoff function, which evaluates
    each (red, blue) pair once per verification, and `measured` the
    measurements made so far, which it reads and does not change; the
    entries it returns are added to them."""

    kind: str
    params: dict
    dynamics: AdoptionFunction
    budget_red: int
    budget_blue: int
    profiles: dict[str, ProfileCase]
    predictions: tuple[Prediction, ...]
    vertex_classes: dict[str, tuple[int, int]] = field(default_factory=dict)
    flags: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()
    structure: Optional[LayeredStructure] = None
    chain: Optional[ChainLayout] = None
    extra_measure: Optional[Callable[["GadgetSpec", Callable, dict], dict]] = None

    def __post_init__(self):
        if (self.structure is None) == (self.chain is None):
            raise ValidationError("a gadget needs exactly one of a layered structure "
                                  "and a chain layout")

    @property
    def layout(self):
        """The gadget's LayeredStructure or ChainLayout."""
        return self.chain if self.structure is None else self.structure

    @property
    def n_vertices(self) -> int:
        return self.layout.n

    @property
    def n_edges(self) -> int:
        return self.layout.n_edges

    @cached_property
    def schedule(self) -> LayerOrder:
        return self.layout.depth_schedule()

    def payoff_fn(self) -> Callable[[Allocation, Allocation], PayoffEstimate]:
        profile_fn = self.profile_payoff_fn()
        return lambda red, blue: profile_fn(StrategyProfile(red, blue))

    def profile_payoff_fn(self) -> Callable[[StrategyProfile], PayoffEstimate]:
        """The gadget's own exact back end, on pure or mixed profiles.  A layered
        gadget's is a fresh `LayeredDP`'s: the profiles one function evaluates
        share each component's layer distributions, keyed by its leading layer
        sizes and their seeds, for as long as the function lives (one
        verification, or one `payoff` verb call), with outputs bit-identical to
        separate `layered_exact_payoffs` calls."""
        if self.chain is not None:
            return partial(chain_exact_payoffs, self.chain, self.dynamics)
        return LayeredDP(self.structure, self.dynamics).payoffs

    def build_graph(self, max_edges: int = DEFAULT_GRAPH_EDGE_CAP) -> Graph:
        return self.layout.build_graph(max_edges=max_edges)

    def game(self, max_edges: int = DEFAULT_GRAPH_EDGE_CAP) -> GameSpec:
        return GameSpec(graph=self.build_graph(max_edges=max_edges),
                        dynamics=self.dynamics, schedule=self.schedule,
                        budget_red=self.budget_red, budget_blue=self.budget_blue)

    def schedule_summary(self) -> dict:
        return {"kind": "layer_order", "n_phases": len(self.schedule.runs),
                "phase_sizes": self.schedule.layer_sizes()}

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "n_vertices": self.n_vertices,
            "n_edges": self.n_edges,
            "budget_red": self.budget_red,
            "budget_blue": self.budget_blue,
            "dynamics": self.dynamics.to_json_dict(),
            "schedule": self.schedule_summary(),
            "profiles": {label: case.to_json_dict() for label, case in self.profiles.items()},
            "predictions": [p.to_json_dict() for p in self.predictions],
            "vertex_classes": {k: list(v) for k, v in self.vertex_classes.items()},
            "flags": list(self.flags),
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class PredictionRow:
    name: str
    predicted: float
    measured: Optional[float]
    check: str
    tol: float
    ok: Optional[bool]
    formula: str

    def to_json_dict(self) -> dict:
        return {"name": self.name, "predicted": self.predicted, "measured": self.measured,
                "check": self.check, "tol": self.tol, "ok": self.ok, "formula": self.formula}


VERIFICATION_CSV_HEADER = ["record", "name", "predicted", "measured", "check", "tol", "ok",
                           "detail"]


@dataclass
class GadgetVerification:
    kind: str
    params: dict
    profile_reports: dict[str, DeviationReport]
    profile_expected: dict[str, bool]
    prediction_rows: tuple[PredictionRow, ...]
    measured: dict
    flags: tuple[str, ...]
    notes: tuple[str, ...]
    ok: bool

    def profile_ok(self, label: str) -> bool:
        return self.profile_reports[label].equilibrium_ok == self.profile_expected[label]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "ok": self.ok,
            "profiles": {
                label: {
                    "expected_equilibrium": self.profile_expected[label],
                    "ok": self.profile_ok(label),
                    "report": report.to_json_dict(),
                }
                for label, report in self.profile_reports.items()
            },
            "predictions": [row.to_json_dict() for row in self.prediction_rows],
            "measured": {k: v for k, v in sorted(self.measured.items())},
            "flags": list(self.flags),
            "notes": list(self.notes),
        }

    def csv_rows(self) -> list[list]:
        rows = [list(VERIFICATION_CSV_HEADER)]
        for row in self.prediction_rows:
            rows.append(["prediction", row.name, row.predicted,
                         "" if row.measured is None else row.measured,
                         row.check, row.tol, "" if row.ok is None else row.ok, row.formula])
        for label, report in sorted(self.profile_reports.items()):
            rows.append(["profile", label, self.profile_expected[label],
                         report.equilibrium_ok, "equilibrium", report.eps,
                         self.profile_ok(label),
                         f"best_improvement={report.best_improvement():.6g}"])
        for text in self.flags:
            rows.append(["flag", "flag", "", "", "", "", False, text])
        rows.append(["summary", self.kind, "", "", "", "", self.ok, ""])
        return rows


def verify_gadget(spec: GadgetSpec, eps: float = EXACT_EPS,
                  payoff_fn: Optional[Callable] = None) -> GadgetVerification:
    """Recompute a gadget's declared quantities and compare against predictions.

    Never raises on mismatches: failed checks become report entries, and the
    overall ``ok`` is False when any profile or non-report prediction fails or
    the builder raised a flag.  Each distinct (red, blue) pair is evaluated
    once per call.  On a layered gadget's own back end (`spec.payoff_fn()`)
    the pairs share one `LayeredDP`: a component's layer distributions, keyed
    by its leading layer sizes and their seeds, are computed once per call,
    and the outputs are bit-identical to separate evaluations.
    """
    fn = cache(payoff_fn if payoff_fn is not None else spec.payoff_fn())
    reports: dict[str, DeviationReport] = {}
    expected: dict[str, bool] = {}
    measured: dict = {"vertex_count": float(spec.n_vertices),
                      "edge_count": float(spec.n_edges)}
    for label, case in spec.profiles.items():
        report = verify_profile_deviations(fn, case.red, case.blue,
                                           case.red_deviations, case.blue_deviations,
                                           eps=eps)
        reports[label] = report
        expected[label] = case.expect_equilibrium
        measured[f"{label}_pi_R"] = report.designated.pi_R
        measured[f"{label}_pi_B"] = report.designated.pi_B
        measured[f"{label}_joint"] = report.designated.joint
        for record in report.records:
            measured[f"{label}_{record.player}_dev_{record.label}"] = record.payoff
    if "designated" in reports and "best_joint" in reports:
        worst = reports["designated"].designated.joint
        best = reports["best_joint"].designated.joint
        if worst > 0:
            measured["poa_vs_designated"] = best / worst
    if "designated" in reports:
        measured["bm_designated"], _ = _profile_bm(spec.budget_red, spec.budget_blue,
                                                   reports["designated"].designated)
    if spec.extra_measure is not None:
        measured.update(spec.extra_measure(spec, fn, measured))
    rows = []
    for pred in spec.predictions:
        got = measured.get(pred.key)
        rows.append(PredictionRow(name=pred.name, predicted=pred.predicted,
                                  measured=got, check=pred.check, tol=pred.tol,
                                  ok=pred.judge(got), formula=pred.formula))
    ok = (all(reports[label].equilibrium_ok == expected[label] for label in reports)
          and all(row.ok for row in rows if row.ok is not None)
          and not spec.flags)
    return GadgetVerification(kind=spec.kind, params=spec.params,
                              profile_reports=reports, profile_expected=expected,
                              prediction_rows=tuple(rows), measured=measured,
                              flags=spec.flags, notes=spec.notes, ok=ok)


# ---------------------------------------------------------------------------
# Hub-and-followers components.
# ---------------------------------------------------------------------------


def influencer_components(sizes: Sequence[int], hubs_per_component: int,
                          dynamics: Optional[AdoptionFunction] = None,
                          budget_red: int = 1, budget_blue: int = 1) -> GadgetSpec:
    """Disjoint components, each a layer of hub vertices linked to every other
    vertex of their component, a layer of followers that update once."""
    sizes = tuple(_integer("sizes", s) for s in sizes)
    hubs = _integer("hubs_per_component", hubs_per_component)
    budget_red = _integer("budget_red", budget_red)
    budget_blue = _integer("budget_blue", budget_blue)
    if not sizes:
        raise ValidationError("at least one component size is required")
    if hubs < 1 or budget_red < 1 or budget_blue < 1:
        raise ValidationError("hubs_per_component and both budgets must be at least 1")
    for s in sizes:
        if s < hubs:
            raise ValidationError(
                f"component size {s} is smaller than hubs_per_component={hubs}")
    if dynamics is None:
        dynamics = SwitchSelectAdoption(PowerSwitch(1.0), linear_selection())
    structure = LayeredStructure(tuple((hubs, s - hubs) if s > hubs else (hubs,) for s in sizes))
    n = structure.n
    offsets = [comp[0][0] for comp in structure.layer_ranges()]
    classes: dict[str, tuple[int, int]] = {}
    for c, (start, size) in enumerate(zip(offsets, sizes)):
        classes[f"component{c}_hubs"] = (start, hubs)
        classes[f"component{c}_followers"] = (start + hubs, size - hubs)

    biggest = max(range(len(sizes)), key=lambda c: (sizes[c], -c))
    hub_ids = list(range(offsets[biggest], offsets[biggest] + hubs))
    if budget_red + budget_blue > hubs:
        raise ValidationError(
            "designated profile needs budget_red + budget_blue hubs in the largest component")
    followers = sizes[biggest] - hubs
    first_follower = offsets[biggest] + hubs

    def moves(opponent_home: int) -> list[tuple[str, int]]:
        out = [("contest_opponent_hub", opponent_home)]
        out += [(f"hub_of_component{c}", offsets[c]) for c in range(len(sizes)) if c != biggest]
        if followers:
            out.append(("follower_same_component", first_follower))
        return out

    red_seeds, blue_seeds = hub_ids[:budget_red], hub_ids[budget_red:budget_red + budget_blue]
    red, red_devs = _side(n, red_seeds, moves(blue_seeds[0]))
    # Blue alone declares moving every seed, when its budget of 2 or more
    # fits among the followers.
    blue, blue_devs = _side(n, blue_seeds, moves(red_seeds[0]), wholes=(
        [("all_seeds_to_followers", range(first_follower, first_follower + budget_blue))]
        if 2 <= budget_blue <= followers else ()))
    designated = ProfileCase("designated", red, blue, red_devs, blue_devs)
    predictions = (
        Prediction("edge_count", float(hubs * sum(s - hubs for s in sizes)),
                   "hubs_per_component * sum(size - hubs_per_component)",
                   check="equal", tol=0.0),
        Prediction("vertex_count", float(sum(sizes)), "sum(sizes)", check="equal", tol=0.0),
    )
    return GadgetSpec(
        kind="influencer_components",
        params={"sizes": list(sizes), "hubs_per_component": hubs,
                "budget_red": budget_red, "budget_blue": budget_blue,
                "dynamics": dynamics.to_json_dict()},
        dynamics=dynamics, budget_red=budget_red, budget_blue=budget_blue,
        profiles={"designated": designated},
        predictions=predictions, vertex_classes=classes, structure=structure,
        notes=("designated profile seeds the hubs of the largest component",),
    )


# ---------------------------------------------------------------------------
# Two-component threshold gadget.
# ---------------------------------------------------------------------------


def threshold_two_layer(layer1_size: int, final_small: int, final_large: int,
                        threshold: float) -> GadgetSpec:
    """Two components, each a complete bipartite first-to-second layer with the
    same first-layer size; adoption switches on only at the given threshold
    fraction, so payoffs are deterministic totals with a stochastic color split.
    """
    m = _integer("layer1_size", layer1_size)
    n1, n2 = _integer("final_small", final_small), _integer("final_large", final_large)
    threshold = real_number(threshold, "gadget parameter threshold")
    if m < 2 or n1 < 1 or n2 < 1:
        raise ValidationError("layer sizes must be positive (first layer at least 2)")
    if not (0.0 < threshold < 1.0):
        raise ValidationError("threshold must lie strictly inside (0, 1)")
    budget_real = threshold * m / 2.0
    budget = round(budget_real)
    if abs(budget_real - budget) > 1e-9 or budget < 1:
        raise ValidationError(
            f"threshold * layer1_size / 2 = {budget_real} is not a positive integer; "
            "budgets must be integral")
    structure = LayeredStructure(((m, n1), (m, n2)))
    n = structure.n
    dynamics = SwitchSelectAdoption(ThresholdSwitch(threshold), linear_selection())
    c2_base = m + n1
    classes = {"component1_layer1": (0, m), "component1_layer2": (m, n1),
               "component2_layer1": (c2_base, m), "component2_layer2": (c2_base + m, n2)}

    half = (budget + 1) // 2

    def case_for(base: int, other_base: int, other_l2: int, own_l2: int,
                 label: str) -> ProfileCase:
        def side(home: int, other_home: int, opponent: int):
            return _side(n, range(home, home + budget), moves=(
                ("one_seed_to_own_layer2", own_l2),
                ("one_seed_to_other_layer1", other_home),
                ("one_seed_to_other_layer2", other_l2),
                ("contest_opponent_seed", opponent),
            ), wholes=(
                ("all_seeds_to_other_layer1", range(other_home, other_home + budget)),
                ("split_across_components", [*range(home, home + budget - half),
                                             *range(other_home, other_home + half)]),
            ))

        red, red_devs = side(base, other_base, base + budget)
        blue, blue_devs = side(base + budget, other_base + budget, base)
        return ProfileCase(label, red, blue, red_devs, blue_devs)

    designated = case_for(0, c2_base, c2_base + m, m, "designated")
    best_joint = case_for(c2_base, 0, m, c2_base + m, "best_joint")
    seeds_total = 2 * budget

    def split_layer2(spec: GadgetSpec, fn: Callable, measured: dict) -> dict:
        case = spec.profiles["designated"]
        split_red = dict(case.red_deviations)["split_across_components"]
        return {"split_seeds_layer2_infections": fn(split_red, case.blue).joint - seeds_total}

    predictions = (
        Prediction("worst_nash_joint", float(seeds_total + n1),
                   "threshold*layer1_size + final_small",
                   check="equal", tol=1e-9, measure_key="designated_joint"),
        Prediction("max_joint", float(seeds_total + n2),
                   "threshold*layer1_size + final_large",
                   check="equal", tol=1e-9, measure_key="best_joint_joint"),
        Prediction("poa_exact", (seeds_total + n2) / (seeds_total + n1),
                   "(threshold*layer1_size + final_large) / (threshold*layer1_size + final_small)",
                   check="equal", tol=1e-9, measure_key="poa_vs_designated"),
        Prediction("poa_large_population_approx", n2 / n1, "final_large / final_small",
                   check="report"),
        Prediction("split_seeds_layer2_infections", 0.0,
                   "splitting either player's seeds across components leaves both "
                   "first layers below the threshold", check="equal", tol=1e-9),
    )
    return GadgetSpec(
        kind="threshold_two_layer",
        params={"layer1_size": m, "final_small": n1, "final_large": n2,
                "threshold": threshold, "budget_each": budget},
        dynamics=dynamics, budget_red=budget, budget_blue=budget,
        profiles={"designated": designated, "best_joint": best_joint},
        predictions=predictions, vertex_classes=classes, structure=structure,
        extra_measure=split_layer2,
        notes=("the large-population ratio final_large/final_small is reported "
               "alongside the exact joint-payoff ratio",),
    )


# ---------------------------------------------------------------------------
# Convexity-amplifying flower pair.
# ---------------------------------------------------------------------------


def convexity_amplifier(base_size: int, depth: int, switch_exponent: float,
                        final_small: int, final_large: Optional[int] = None,
                        budget: int = 1) -> GadgetSpec:
    """Two layered components whose middle layers grow as a power tower, so a
    superlinear switching function compounds across depth; the small component
    hosts the designated profile and the large one the high-payoff profile."""
    l1, N = _integer("base_size", base_size), _integer("depth", depth)
    r = real_number(switch_exponent, "gadget parameter switch_exponent")
    k = _integer("budget", budget)
    final_small = _integer("final_small", final_small)
    if N < 2:
        raise ValidationError("depth must be at least 2")
    if r <= 1.0:
        raise ValidationError("switch_exponent must exceed 1")
    if k < 1:
        raise ValidationError("budget must be at least 1")
    if l1 < 2 * k:
        raise ValidationError("base_size must fit both players' seeds: need base_size >= 2*budget")
    middles = []
    prev = 0
    try:
        for i in range(1, N):
            size = max(round(l1 ** (r ** (i - 1))), prev, 1)
            middles.append(size)
            prev = size
        tower = r ** (N - 1)
        poa_predicted = 2.0 ** (tower - 1.0)
        if final_large is None:
            final_large = round(2.0 ** tower * final_small / 2.0)
    except OverflowError:
        raise ValidationError(
            f"depth {N} with switch_exponent {r} gives layer sizes beyond float range; "
            "lower the depth") from None
    final_large = _integer("final_large", final_large)
    if final_small < 1 or final_large < 1:
        raise ValidationError("final layer sizes must be positive")
    small_sizes = tuple(middles) + (final_small,)
    large_sizes = tuple(middles) + (final_large,)
    structure = LayeredStructure((small_sizes, large_sizes))
    n = structure.n
    dynamics = SwitchSelectAdoption(PowerSwitch(r), linear_selection())
    big_base = sum(small_sizes)
    classes = {}
    ranges = structure.layer_ranges()
    for comp, comp_name in ((0, "small"), (1, "large")):
        for d, (start, size) in enumerate(ranges[comp]):
            classes[f"{comp_name}_layer{d + 1}"] = (start, size)

    def case_for(base: int, other: int, label: str) -> ProfileCase:
        def side(home: int, opponent: int, other_home: int):
            return _side(n, range(home, home + k), moves=(
                ("one_seed_cross_component", other),
                ("one_seed_to_own_layer2", base + middles[0]),
                ("contest_opponent_seed", opponent),
            ), wholes=[("all_seeds_cross_component", range(other_home, other_home + k))]
                if k > 1 else ())

        red, red_devs = side(base, base + k, other)
        blue, blue_devs = side(base + k, base, other + k)
        return ProfileCase(label, red, blue, red_devs, blue_devs)

    designated = case_for(0, big_base, "designated")
    best_joint = case_for(big_base, 0, "best_joint")
    alpha = 2 * k / middles[0]

    def final_fraction(spec: GadgetSpec, fn: Callable, measured: dict) -> dict:
        truncated = LayeredStructure((small_sizes[:-1], large_sizes[:-1]))
        red = Allocation.from_seeds(truncated.n, list(range(k)))
        blue = Allocation.from_seeds(truncated.n, list(range(k, 2 * k)))
        part = layered_exact_payoffs(truncated, spec.dynamics, StrategyProfile(red, blue))
        return {"final_fraction_small_designated":
                (measured["designated_joint"] - part.joint) / final_small}

    predictions = (
        Prediction("poa_vs_designated", poa_predicted,
                   "2**(switch_exponent**(depth-1) - 1)",
                   check="within-band", tol=0.2),
        Prediction("final_fraction_small_designated", alpha ** tower,
                   "(2*budget/base_size)**(switch_exponent**(depth-1)): layer-by-layer "
                   "composition ignoring finite-size variance", check="report"),
        Prediction("cross_component_red_payoff_composed",
                   (alpha / 2.0) ** tower * final_large,
                   "(budget/base_size)**(switch_exponent**(depth-1)) * final_large: "
                   "composed value of the lone cross-component deviation, which equals "
                   "the composed stay payoff when final_large is at its default",
                   check="report",
                   measure_key="designated_red_dev_one_seed_cross_component"),
    )
    return GadgetSpec(
        kind="convexity_amplifier",
        params={"base_size": l1, "depth": N, "switch_exponent": r,
                "final_small": final_small, "final_large": final_large, "budget": k},
        dynamics=dynamics, budget_red=k, budget_blue=k,
        profiles={"designated": designated, "best_joint": best_joint},
        predictions=predictions, vertex_classes=classes, structure=structure,
        extra_measure=final_fraction,
        notes=("finite-size variance compounds through the superlinear switch, so "
               "exact layer expectations exceed the composed fractions; the "
               "verification report shows both",),
    )


# ---------------------------------------------------------------------------
# Polarization-amplifying two-component gadget.
# ---------------------------------------------------------------------------


def polarization_closed_form_small_final(big_final_size: int, stages: int,
                                         selection_exponent: float) -> int:
    """Composed-dampening estimate for the small component's final layer."""
    # The minority share (1/3)**e / ((1/3)**e + (2/3)**e) is 1 / (1 + 2**e),
    # e = selection_exponent**(stages + 1); it is 0 once 2**e leaves float range.
    try:
        return round(big_final_size / (1.0 + 2.0 ** (selection_exponent ** (stages + 1))))
    except OverflowError:
        return 0


def polarization_amplifier(stages: int, middle_size: int, big_final_size: int,
                           selection_exponent: float,
                           small_final_size: Optional[int] = None) -> GadgetSpec:
    """A deep chain of complete bipartite layers (4, middle, ..., middle, big)
    against a one-hub star; a polarizing selection function dampens the
    minority color through every layer.

    The red player has budget 3 and the blue player budget 1.  When
    ``small_final_size`` is omitted it is set to the smallest star size that
    makes staying in the star weakly better for blue than its best declared
    deviation into the deep component (those payoffs do not depend on the star
    size, so the fixed point is well defined).
    """
    k, n_mid = _integer("stages", stages), _integer("middle_size", middle_size)
    n_big = _integer("big_final_size", big_final_size)
    s = real_number(selection_exponent, "gadget parameter selection_exponent")
    if k < 1:
        raise ValidationError("stages must be at least 1")
    if n_mid < 1 or n_big < 1:
        raise ValidationError("layer sizes must be positive")
    if s <= 1.0:
        raise ValidationError("selection_exponent must exceed 1")
    deep_sizes = (4,) + (n_mid,) * (k - 1) + (n_big,)
    dynamics = SwitchSelectAdoption(PowerSwitch(1.0), TullockSelection(s))

    def build_cases(n2: int):
        structure = LayeredStructure((deep_sizes, (1, n2)))
        n = structure.n
        hub = sum(deep_sizes)
        ranges = structure.layer_ranges()
        red, red_devs = _side(n, [0, 1, 2], moves=(
            ("one_seed_to_deep_layer2", ranges[0][1][0]),
            ("one_seed_to_final_deep_layer", ranges[0][k][0]),
            ("one_seed_contest_star_hub", hub),
            ("one_seed_to_star_leaf", hub + 1),
        ), wholes=[("all_seeds_contest_star_hub", [hub, hub, hub])])
        # Blue's one seed is its hub seed: each deviation moves it.
        blue, blue_devs = _side(n, [hub], moves=[
            ("invade_free_first_layer_vertex", 3),
            ("contest_red_seed", 0),
            *((f"seed_deep_layer{d + 1}", ranges[0][d][0]) for d in range(1, k + 1)),
            ("move_to_own_leaf", hub + 1),
        ])
        return structure, ProfileCase("designated", red, blue, red_devs, blue_devs)

    closed_form = polarization_closed_form_small_final(n_big, k, s)
    if small_final_size is None:
        probe_structure, probe = build_cases(1)
        best = 0.0
        for _, alt in probe.blue_deviations:
            if any(v - sum(deep_sizes) in (0, 1) for v in alt.seeded_vertices()):
                continue  # star-side moves depend on the star size; skip in the probe
            est = layered_exact_payoffs(probe_structure, dynamics,
                                        StrategyProfile(probe.red, alt))
            best = max(best, est.pi_B)
        small_final_size = max(1, math.ceil(best - 1.0 - 1e-9))
    n2 = _integer("small_final_size", small_final_size)
    if n2 < 1:
        raise ValidationError(
            "small_final_size < 1: parameters are too aggressive for a valid star")
    structure, designated = build_cases(n2)
    classes = {}
    ranges = structure.layer_ranges()
    for d, (start, size) in enumerate(ranges[0]):
        classes[f"deep_layer{d + 1}"] = (start, size)
    classes["star_hub"] = (ranges[1][0][0], 1)
    classes["star_leaves"] = (ranges[1][1][0], n2)

    red_exact = 3.0 + 0.75 * n_mid * (k - 1) + 0.75 * n_big
    predictions = (
        Prediction("bm_designated", n_big / (4.0 * n2),
                   "big_final_size / (4 * small_final_size)", check="at-least", tol=1e-9),
        Prediction("designated_pi_R", red_exact,
                   "3 + (3/4)*middle_size*(stages-1) + (3/4)*big_final_size",
                   check="within-band", tol=1e-12),
        Prediction("designated_pi_B", 1.0 + n2, "1 + small_final_size",
                   check="equal", tol=1e-9),
        Prediction("small_final_closed_form", float(closed_form),
                   "round(big_final_size * q/(q+p)) with q=(1/3)**(s**(stages+1)), "
                   "p=(2/3)**(s**(stages+1))", check="report"),
        Prediction("small_final_used", float(n2),
                   "smallest star size under which blue's best declared deviation "
                   "into the deep component is non-improving", check="report"),
    )
    return GadgetSpec(
        kind="polarization_amplifier",
        params={"stages": k, "middle_size": n_mid, "big_final_size": n_big,
                "selection_exponent": s, "small_final_size": n2,
                "small_final_closed_form": closed_form},
        dynamics=dynamics, budget_red=3, budget_blue=1,
        profiles={"designated": designated},
        predictions=predictions, vertex_classes=classes, structure=structure,
        notes=("the composed-dampening star size is reported for reference; the "
               "generated star uses the equilibrium-consistent size computed from "
               "exact deviation payoffs",),
    )


# ---------------------------------------------------------------------------
# Replicated-chain gadget.
# ---------------------------------------------------------------------------


def chain_replication(chain_steps: int, replications: int, n_terminal: int,
                      head_seeds: int = 1) -> GadgetSpec:
    """Shared inputs feeding many identical chain-plus-terminal blocks.

    Adoption fires only when both in-neighbors are infected, so a chain stays
    alive only while every input is seeded; blue's head start at the front of
    the chain survives each of the last ``chain_steps`` links with probability
    one half.
    """
    layout = ChainLayout(chain_steps, replications, n_terminal, head_seeds)
    if layout.chain_steps + max(layout.head_seeds, layout.n_terminal).bit_length() > 1024:
        # The closed forms below divide 2**chain_steps * n_terminal by about
        # 2**chain_steps * head_seeds, as floats.
        raise ValidationError(
            f"chain_steps {layout.chain_steps} puts 2**chain_steps * max(head_seeds, n_terminal) "
            "beyond float range; lower chain_steps")
    dynamics = SwitchSelectAdoption(ThresholdSwitch(0.75), linear_selection())
    n = layout.n
    first_terminal = layout.terminal_range(0)[0]
    last_chain = layout.chain_vertex(0, layout.chain_len)
    blue, blue_devs = _side(n, range(layout.head_seeds), moves=(
        ("head_to_final_chain_vertex", last_chain),
        ("head_to_terminal", first_terminal),
        ("head_to_first_chain_vertex", layout.chain_vertex(0, 1)),
        ("contest_red_input", layout.head_seeds),
    ))
    red, red_devs = _side(n, range(layout.head_seeds, layout.n_inputs), moves=(
        ("one_seed_to_terminal", first_terminal),
        ("one_seed_to_final_chain_vertex", last_chain),
        ("contest_blue_head", 0),
    ))
    designated = ProfileCase("designated", red, blue, red_devs, blue_devs)
    two_k = 2.0 ** layout.chain_steps
    flags = ()
    if layout.replications <= two_k:
        flags = ((f"replications={layout.replications} does not exceed "
                  f"2**chain_steps={int(two_k)}; the designated profile is not "
                  "certified as an equilibrium at this replication count"),)
    threshold_repl = math.ceil(
        two_k * layout.n_terminal
        / (two_k * layout.head_seeds - 1.0 + layout.n_terminal))

    def measure(spec: GadgetSpec, fn: Callable, measured: dict) -> dict:
        case = spec.profiles["designated"]
        dist = chain_final_vertex_distribution(spec.chain, spec.dynamics,
                                               case.red, case.blue)
        return {"blue_final_chain_share": dist[2]}

    predictions = (
        Prediction("blue_final_chain_share", 2.0 ** -layout.chain_steps,
                   "1/2**chain_steps: blue's head start survives each of the last "
                   "chain_steps links with probability 1/2",
                   check="equal", tol=1e-12),
        Prediction("bm_designated",
                   (1.0 - 2.0 ** -layout.chain_steps) * two_k
                   * layout.head_seeds / layout.chain_steps,
                   "(1 - 1/2**chain_steps) * 2**chain_steps * head_seeds / chain_steps",
                   check="within-band", tol=0.1),
        Prediction("equilibrium_threshold_replications", float(threshold_repl),
                   "ceil(2**chain_steps * n_terminal / (2**chain_steps*head_seeds - 1 "
                   "+ n_terminal)): smallest replication count at which blue's best "
                   "relocation (seeding a final chain vertex directly) stops improving",
                   check="report"),
    )
    classes = {"inputs": (0, layout.n_inputs),
               "block0_chain": (layout.block_base(0), layout.chain_len),
               "block0_terminals": layout.terminal_range(0)}
    return GadgetSpec(
        kind="chain_replication",
        params={"chain_steps": layout.chain_steps, "replications": layout.replications,
                "n_terminal": layout.n_terminal, "head_seeds": layout.head_seeds},
        dynamics=dynamics, budget_red=layout.chain_steps, budget_blue=layout.head_seeds,
        profiles={"designated": designated},
        predictions=predictions, vertex_classes=classes, chain=layout,
        flags=flags, extra_measure=measure,
        notes=("every unseeded input leaves all chains below the adoption threshold, "
               "so relocations off the inputs abandon the blocks entirely",),
    )


# ---------------------------------------------------------------------------
# Builder registry for config-driven construction.
# ---------------------------------------------------------------------------


GADGET_BUILDERS: dict[str, Callable[..., GadgetSpec]] = {
    "influencer_components": influencer_components,
    "threshold_two_layer": threshold_two_layer,
    "convexity_amplifier": convexity_amplifier,
    "polarization_amplifier": polarization_amplifier,
    "chain_replication": chain_replication,
}


def build_gadget(kind: str, params: dict) -> GadgetSpec:
    """Construct a gadget from a JSON-friendly parameter mapping."""
    builder = GADGET_BUILDERS.get(kind)
    if builder is None:
        raise ValidationError(
            f"unknown gadget kind {kind!r}; expected one of {sorted(GADGET_BUILDERS)}")
    params = dict(params)
    if "dynamics" in params and not isinstance(params["dynamics"], AdoptionFunction):
        params["dynamics"] = load_dynamics(params["dynamics"])
    try:
        return builder(**params)
    except TypeError as exc:
        raise ValidationError(f"bad parameters for gadget {kind!r}: {exc}") from None
