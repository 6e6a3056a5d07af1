"""Coupled contagion processes sharing randomness, with monitored invariants.

Every mode couples the two-player (joint) process with a second, "solo"
process on the same graph.  Both read one shared uniform draw per vertex
that is a candidate in either of them, and each on its own is the
standalone process it stands for.

- "solo-vs-joint": the solo process is red's spread from its seeds alone.
  Every vertex the joint process colors red is also red in the solo run.
  Needs a competitive adoption function with an additive total.
- "joint-total": the same pair.  Every vertex infected in the solo run is
  infected (either color) in the joint run.  Needs an additive total.
- "attribution": the solo process is a one-color spread of both seed sets
  whose infections copy the color label of a uniformly chosen infected
  in-neighbor.  A vertex with r red-labelled and b blue-labelled infected
  in-neighbors, out of d, is infected iff its draw z < p = P[any]((r+b)/d, 0),
  and takes the red label iff z < p*r/(r+b): the donor is the one with index
  floor(z/p*(r+b)), red labels first.  The invariant is that every vertex's
  joint color equals its solo label, which holds run by run when the total is
  additive and the color split is proportional to the red share of infected
  in-neighbors; a non-additive total or a non-linear split breaks it.

The inequality modes need a one-shot schedule (single pass or layer order).
Attribution also runs under parallel rounds, with or without immunity: each
process keeps its own immune set and stops after a round that gives it no
candidate or no infection, as it would alone.  Every other schedule, subclasses
included, is refused (`dynamics.batched_form`): under a random order the two
processes would not agree on which vertex a draw belongs to.

All modes run on arrays (`_CoupledKernel`): a block of replications advances
as two (R, n) state matrices, and replication i reads its draws from its own
random stream, which both processes share, in ascending vertex order within a
layer or a round and in listed order along a single pass.  Invariant
violations are counted after every phase or round.  `couple_test`'s
standalone replications run through `engine`'s Monte Carlo replication loop.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .dynamics import (
    AdoptionFunction,
    SimOutcome,
    UpdateSchedule,
    _grid_and_points,
    batched_form,
    check_additive,
    check_competitive,
    run_ids,
)
from .engine import (
    Allocation,
    GameSpec,
    StrategyProfile,
    _BatchedPhases,
    _Draws,
    _fill,
    _is_integer,
    _mc_chunk,
    _nonzero,
    _require_count,
    _seed_keys,
    _seed_vertex,
)
from .errors import CouplingHypothesisError, ValidationError
from .graphs import BLUE, RED, UNINFECTED, Graph

MODE_SOLO_VS_JOINT = "solo-vs-joint"
MODE_JOINT_TOTAL = "joint-total"
MODE_ATTRIBUTION = "attribution"
ALL_MODES = (MODE_SOLO_VS_JOINT, MODE_JOINT_TOTAL, MODE_ATTRIBUTION)

# Accepted spellings for the CLI / config surface.
MODE_ALIASES = {
    "lemma1": MODE_SOLO_VS_JOINT,
    "lemma2": MODE_JOINT_TOTAL,
    "lemma3": MODE_ATTRIBUTION,
    MODE_SOLO_VS_JOINT: MODE_SOLO_VS_JOINT,
    MODE_JOINT_TOTAL: MODE_JOINT_TOTAL,
    MODE_ATTRIBUTION: MODE_ATTRIBUTION,
}

LINEARITY_TOL = 1e-9


def canonical_mode(mode: str) -> str:
    try:
        return MODE_ALIASES[mode]
    except KeyError:
        raise ValidationError(
            f"unknown coupling mode {mode!r}; expected one of {sorted(set(MODE_ALIASES))}") from None


# ---------------------------------------------------------------------------
# Hypothesis preflight.
# ---------------------------------------------------------------------------


def _check_points(graph: Graph) -> tuple[tuple[float, float], ...]:
    from .dynamics import realizable_fraction_pairs

    if graph.in_csr[2].max(initial=0) <= 64:
        return realizable_fraction_pairs(graph)
    return ()


def check_linear_split(dyn: AdoptionFunction,
                       points: Sequence[tuple[float, float]] = (),
                       grid_step: float = 1.0 / 64.0,
                       tol: float = LINEARITY_TOL) -> list[tuple[float, float, float]]:
    """Points where the red share of the infection probability differs from
    the red share of infected in-neighbors.  Empty result means the color
    split is proportional (so copying a uniform infected in-neighbor's color
    reproduces it)."""
    a, b = _grid_and_points(grid_step, points)
    live = a + b > 0.0
    a, b = a[live], b[live]
    got, total = dyn._prob_arrays(a, b)
    gap = got - total * (a / (a + b))
    bad = np.abs(gap) > tol
    return list(zip(a[bad].tolist(), b[bad].tolist(), gap[bad].tolist()))


def require_mode_hypotheses(mode: str, dyn: AdoptionFunction, graph: Graph) -> None:
    """Raise CouplingHypothesisError unless the dynamics satisfy what the
    requested coupling needs to maintain its invariant."""
    mode = canonical_mode(mode)
    points = _check_points(graph)
    additive = check_additive(dyn, extra_points=points)
    if additive:
        v = additive[0]
        raise CouplingHypothesisError(
            f"coupling mode {mode!r} needs the total infection probability to depend only on "
            f"the combined infected fraction, but at (a={v.a:.6g}, b={v.b:.6g}) the total "
            f"{v.total_prob:.6g} differs from the one-color value {v.reference_prob:.6g}")
    if mode == MODE_SOLO_VS_JOINT:
        competitive = check_competitive(dyn, extra_points=points)
        if competitive:
            v = competitive[0]
            raise CouplingHypothesisError(
                f"coupling mode {mode!r} needs an opponent never to raise one's infection "
                f"probability, but at (a={v.a:.6g}, b={v.b:.6g}) the probability "
                f"{v.prob_with_opponent:.6g} exceeds the solo value {v.prob_alone:.6g}")
    if mode == MODE_ATTRIBUTION:
        nonlinear = check_linear_split(dyn, points=points)
        if nonlinear:
            a, b, gap = nonlinear[0]
            raise CouplingHypothesisError(
                f"coupling mode {mode!r} copies a uniform infected in-neighbor's color, which is "
                f"faithful only when the color split is proportional to the red share; at "
                f"(a={a:.6g}, b={b:.6g}) it is off by {gap:.3g}")


def _require_schedule(mode: str, schedule: UpdateSchedule) -> str:
    """The schedule's `batched_form`.  Attribution runs on all three forms.

    The two inequality couplings are sound only when every vertex updates at
    one fixed phase.  Under parallel rounds, a failed candidate retries, and
    the early stop on a no-change round can freeze one process while the other
    keeps retrying; the comparison inequalities themselves fail on small
    instances under that semantics, so such schedules are refused outright."""
    form, name = batched_form(schedule), type(schedule).__name__
    if mode == MODE_ATTRIBUTION:
        if form is None:
            raise ValidationError(
                "coupled runs need exactly a single_pass, layer_order or parallel schedule, "
                f"not a subclass; random_sequential is not supported; got {name}")
    elif form not in ("single_pass", "layer_order"):
        raise ValidationError(
            "this coupling mode needs a one-shot schedule, exactly single_pass or layer_order; "
            f"got {name}: with retrying schedules the early stop on a no-change round "
            "desynchronizes the two processes and the comparison inequality itself can fail")
    return form


def _seed_state(graph: Graph, red_seeds: Sequence[int], blue_seeds: Sequence[int]) -> np.ndarray:
    state = np.full(graph.n, UNINFECTED, dtype=np.int8)
    for v in red_seeds:
        state[_seed_vertex(v, graph.n)] = RED
    for v in blue_seeds:
        v = _seed_vertex(v, graph.n)
        if state[v] == RED:
            raise ValidationError(f"vertex {v} is seeded by both players; coupled runs need disjoint seed sets")
        state[v] = BLUE
    return state


# ---------------------------------------------------------------------------
# Coupled two-process runs.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoupledRunResult:
    mode: str
    joint: SimOutcome
    solo: SimOutcome
    invariant_violations: int


class _CoupledKernel(_BatchedPhases):
    """Coupled runs of the joint process and the mode's solo process, a block
    of replications at a time, as two (R, n) int8 state matrices.  Solo
    states hold red in the inequality modes and color labels in attribution
    mode.

    Each phase or round draws one uniform per vertex that is a candidate in
    either running process, from the replication's stream (`_Draws`), in
    the phase's vertex order: ascending within a layer or a round, listed
    order along a single pass (in the schedule's snapshot groups,
    `SinglePassOrder.phases`).  Probabilities come from the kernel's table of
    `update_probs` values: the joint process's at key (d, r, b), and the
    solo process's at (d, r + b, 0), where it takes P[Red] in the inequality
    modes and P[Red or Blue] in attribution mode.
    """

    def __init__(self, graph: Graph, red_seeds: Sequence[int], blue_seeds: Sequence[int],
                 dyn: AdoptionFunction, schedule: UpdateSchedule, mode: str):
        form = _require_schedule(mode, schedule)
        schedule.validate_for_graph(graph)
        self.joint0 = _seed_state(graph, red_seeds, blue_seeds)
        self.solo0 = self.joint0 if mode == MODE_ATTRIBUTION else _seed_state(graph, red_seeds, ())
        self.rounds = schedule if form == "rounds" else None
        # On a one-shot schedule every vertex updates in one phase at most and
        # keeps its colors from then on, so a vertex that breaks the invariant
        # at phase k is counted after each of the phases k..n_phases-1.
        self.weight = np.zeros(graph.n, dtype=np.int64)
        phases = None
        if form == "single_pass":
            phases = schedule.phases(graph)
            self.weight[list(schedule.order)] = np.arange(len(schedule.order), 0, -1)
        elif form == "layer_order":
            phases = [run_ids(sorted(layer)) for layer in schedule.runs]
            for k, verts in enumerate(phases):
                self.weight[verts] = len(phases) - k
        super().__init__(graph, dyn, phases)
        self.mode = mode

    def _violations(self, joint: np.ndarray, solo: np.ndarray) -> np.ndarray:
        if self.mode == MODE_SOLO_VS_JOINT:
            return (joint == RED) & (solo != RED)
        if self.mode == MODE_JOINT_TOTAL:
            return (solo == RED) & (joint == UNINFECTED)
        return joint != solo

    def run(self, draws: _Draws) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The joint and solo end states of one row per `draws` row, and each
        row's invariant violations summed after every phase or round."""
        rows = np.arange(len(draws.keys))
        joint = np.tile(self.joint0, (len(rows), 1))
        solo = np.tile(self.solo0, (len(rows), 1))
        if self.rounds is not None:
            return joint, solo, self._run_rounds(joint, solo, draws, rows)
        for phase in self.phases:
            verts = phase[0]
            counts = (self._neighbor_counts(joint, phase), self._neighbor_counts(solo, phase))
            cand = [(state[:, verts] == UNINFECTED) & ((red + blue) > 0)
                    for state, (red, blue) in zip((joint, solo), counts)]
            self._update(joint, solo, draws, rows, verts, counts, cand)
        return joint, solo, self._violations(joint, solo) @ self.weight

    def _run_rounds(self, joint, solo, draws: _Draws, rows: np.ndarray) -> np.ndarray:
        """Parallel rounds, in place, on each process's pushed in-neighbor
        counts.  Row by row, each process stops after a round that gives it
        no candidate or no infection; a row's violations are summed after
        every round in which either process ran."""
        states = (joint, solo)
        violations = np.zeros(len(rows), dtype=np.int64)
        live = np.ones((2, len(rows)), dtype=bool)
        immune = np.zeros((2,) + joint.shape, dtype=bool) if self.rounds.immunity else None
        counts = [self._counts(state) for state in states]
        for _ in range(self.rounds.max_rounds):
            sub = [c[:, rows] for c in counts]
            cand = []
            for p, (state, (red, blue)) in enumerate(zip(states, sub)):
                cand.append((state[rows] == UNINFECTED) & ((red + blue) > 0) & live[p, rows, None])
                if immune is not None:
                    cand[p] &= ~immune[p][rows]
            outcome = self._update(joint, solo, draws, rows, self.vertices, sub, cand)
            if outcome is None:
                break
            ran = np.zeros(len(rows), dtype=bool)
            for p, (row_of, verts, won) in enumerate(outcome):
                tried = np.bincount(row_of, minlength=len(rows))
                moved = np.bincount(row_of[won], minlength=len(rows))
                ran |= tried > 0
                live[p, rows] &= (tried > 0) & (moved > 0)
                if immune is not None:
                    immune[p][rows[row_of[~won]], verts[~won]] = True
                self._push(counts[p], states[p], rows[row_of[won]], verts[won])
            done = rows[ran]
            violations[done] += self._violations(joint[done], solo[done]).sum(axis=1)
            rows = rows[live[0, rows] | live[1, rows]]
            if len(rows) == 0:
                break
        return violations

    def _update(self, joint, solo, draws: _Draws, rows, verts, counts, cand):
        """One snapshot update of both processes at their candidates `cand`
        over (rows, verts), whose red and blue in-neighbor counts are
        `counts`, one pair per process.  Returns, per process, the
        candidates' indices into rows, their vertices, and which of them
        were infected; None when there was no candidate."""
        (red, blue), (solo_red, solo_blue) = counts
        flat, row_of, col = _nonzero(cand[0] | cand[1])
        if len(row_of) == 0:
            return None
        z = draws.take(rows, np.bincount(row_of, minlength=len(rows)), row_of)
        v = verts[col]
        j = cand[0].ravel()[flat]
        jr, jf, zj = row_of[j], flat[j], z[j]
        jv = v[j]
        p_red, p_any = self.table.lookup(jv, red.ravel()[jf], blue.ravel()[jf])
        to_red = zj < p_red
        to_blue = ~to_red & (zj < p_any)
        s = cand[1].ravel()[flat]
        sr, sf, zs = row_of[s], flat[s], z[s]
        sv = v[s]
        labels_red = solo_red.ravel()[sf]
        k = labels_red + solo_blue.ravel()[sf]
        p_solo_red, p_solo_any = self.table.lookup(sv, k, np.zeros_like(k))
        if self.mode == MODE_ATTRIBUTION:
            won = zs < p_solo_any
            solo_to_red = won & (zs < p_solo_any * labels_red / k)
        else:
            won = solo_to_red = zs < p_solo_red
        joint[rows[jr[to_red]], jv[to_red]] = RED
        joint[rows[jr[to_blue]], jv[to_blue]] = BLUE
        solo[rows[sr[solo_to_red]], sv[solo_to_red]] = RED
        solo_to_blue = won & ~solo_to_red
        solo[rows[sr[solo_to_blue]], sv[solo_to_blue]] = BLUE
        return (jr, jv, to_red | to_blue), (sr, sv, won)


def coupled_run(graph: Graph, red_seeds: Sequence[int], blue_seeds: Sequence[int],
                dyn: AdoptionFunction, schedule: UpdateSchedule, rng,
                mode: str = MODE_SOLO_VS_JOINT,
                skip_preflight: bool = False) -> CoupledRunResult:
    """One coupled run of the joint process (both seed sets) and the mode's
    solo process, sharing one uniform draw per candidate vertex per phase.

    `rng` is a numpy `Generator`, or a seed for one.  The run takes one
    64-bit key from it, and draws from the SplitMix64 stream of that key
    (`engine._Draws`), as every replication of `couple_test` does."""
    mode = canonical_mode(mode)
    if not skip_preflight:
        require_mode_hypotheses(mode, dyn, graph)
    kernel = _CoupledKernel(graph, red_seeds, blue_seeds, dyn, schedule, mode)
    key = np.random.default_rng(rng).integers(0, 2**64, dtype=np.uint64)
    joint, solo, violations = kernel.run(_Draws(np.array([key])))

    joint, solo = joint[0].tolist(), solo[0].tolist()
    return CoupledRunResult(
        mode=mode,
        joint=SimOutcome(state=tuple(joint), chi_R=joint.count(RED), chi_B=joint.count(BLUE)),
        solo=SimOutcome(state=tuple(solo), chi_R=solo.count(RED), chi_B=solo.count(BLUE)),
        invariant_violations=int(violations[0]),
    )


# ---------------------------------------------------------------------------
# Batched statistical harness.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoupleTestResult:
    mode: str
    runs: int
    invariant_violations: int
    inequality_margins: dict[str, float]
    p_values: dict[str, float]
    notes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return asdict(self)


def _ks_pvalue(xs: np.ndarray, ys: np.ndarray) -> float:
    """Exact two-sided two-sample Kolmogorov-Smirnov p-value P(D >= d) for
    two samples of the same size n (Hodges 1958).

    The statistic is formed as `scipy.stats.ks_2samp` forms it, and the
    alternating sum P = 2*A0*(1 - A1*(1 - A2*(...))) is evaluated in its
    operation order, so every p-value its exact path returns is matched bit
    for bit.  Where the sum rounds past 1 (as it can at d = 1/n, where the
    exact value is 1) the p-value is 1.0.
    """
    xs, ys = np.sort(xs), np.sort(ys)
    n = len(xs)
    both = np.concatenate([xs, ys])
    diffs = (np.searchsorted(xs, both, side="right") / n
             - np.searchsorted(ys, both, side="right") / n)
    h = int(np.round(max(np.clip(-diffs.min(), 0, 1), diffs.max()) * n))
    if h == 0:
        return 1.0
    p = 0.0
    for k in range(n // h, -1, -1):
        p1 = 1.0
        for j in range(h):
            p1 = (n - k * h - j) * p1 / (n + k * h + j + 1)
        p = p1 * (1.0 - p)
    return min(2 * p, 1.0)


def couple_test(graph: Graph, red_seeds: Sequence[int], blue_seeds: Sequence[int],
                dyn: AdoptionFunction, schedule: UpdateSchedule, mode: str,
                runs: int = 10_000, master_seed: int = 0) -> CoupleTestResult:
    """Run `runs` coupled replications plus independent standalone replications,
    and report invariant violations, inequality margins, and two-sample
    faithfulness p-values (coupled component versus standalone process)."""
    mode = canonical_mode(mode)
    if not (_is_integer(runs) and runs >= 2):
        raise ValidationError(f"couple_test needs at least 2 runs, as an integer; got {runs!r}")
    _require_count(master_seed, "master_seed", 0)
    require_mode_hypotheses(mode, dyn, graph)
    kernel = _CoupledKernel(graph, red_seeds, blue_seeds, dyn, schedule, mode)

    def coupled(keys: np.ndarray, jobs: np.ndarray) -> list[np.ndarray]:
        joint, solo, bad = kernel.run(_Draws(keys))
        return [np.count_nonzero(state == color, axis=1)
                for state in (joint, solo) for color in (RED, BLUE)] + [bad]

    cj_r, cj_b, cs_r, cs_b, bad = _fill(coupled, _seed_keys([master_seed], (1,)), runs, 0, runs,
                                        kernel.block)

    def standalone(red: Sequence[int], blue: Sequence[int], stream: int) -> np.ndarray:
        """chi_R and chi_B of `runs` standalone replications, replication i
        drawing from the key of (master_seed, (stream,), i).  The replication
        loop reads no budget, so the game's are placeholders."""
        profile = StrategyProfile(Allocation.from_seeds(graph.n, red),
                                  Allocation.from_seeds(graph.n, blue))
        return _mc_chunk(GameSpec(graph, dyn, schedule, 1, 1), [profile.support_pairs()],
                         _seed_keys([master_seed], (stream,)), runs, 0, runs)

    notes = ["faithfulness p-values compare each coupled component against "
             "an independent standalone run via a two-sample KS test"]
    ij_r, ij_b = standalone(red_seeds, blue_seeds, 2)
    p_values = {"joint_chi_R": _ks_pvalue(cj_r, ij_r), "joint_chi_B": _ks_pvalue(cj_b, ij_b)}
    if mode == MODE_ATTRIBUTION:
        # The solo process's total is a one-color spread of both seed sets.
        is_total, _ = standalone(list(red_seeds) + list(blue_seeds), (), 3)
        p_values["solo_chi_total"] = _ks_pvalue(cs_r + cs_b, is_total)
        gaps = (cj_r + cj_b) - (cs_r + cs_b)
        notes.append("margins: joint infected total minus solo infected total (0 in every "
                     "run when the invariant holds)")
        margins = {"min_total_count_gap": float(gaps.min()),
                   "max_total_count_gap": float(gaps.max())}
    else:
        is_r, _ = standalone(red_seeds, (), 3)
        p_values["solo_chi_R"] = _ks_pvalue(cs_r, is_r)
        if mode == MODE_SOLO_VS_JOINT:
            gaps = cs_r - cj_r
            margin_name = "solo_red_minus_joint_red"
            notes.append("per-run margin: solo red count minus joint red count (never negative "
                         "when the invariant holds)")
        else:
            gaps = (cj_r + cj_b) - cs_r
            margin_name = "joint_total_minus_solo_red"
            notes.append("per-run margin: joint infected total minus solo red count (never "
                         "negative when the invariant holds)")
        margins = {f"min_{margin_name}": float(gaps.min()),
                   f"mean_{margin_name}": float(gaps.mean())}
    return CoupleTestResult(mode=mode, runs=runs, invariant_violations=int(bad.sum()),
                            inequality_margins=margins, p_values=p_values, notes=tuple(notes))
