"""Coupled contagion processes sharing randomness, with monitored invariants.

Three coupling modes, each faithful to the standalone process on both sides
(every update consumes one fresh uniform draw, shared between the processes
whenever both update the same vertex in the same phase):

- "solo-vs-joint": one player's solo spread versus the two-player process,
  sharing draws so that every vertex the joint process colors red is also red
  in the solo run.  Needs a competitive adoption function with an additive
  total.
- "joint-total": the two-player process versus one player's solo spread,
  sharing draws so that every vertex infected in the solo run is infected
  (either color) in the joint run.  Needs an additive total.
- "attribution": a single-color spread whose infections copy the label of a
  uniformly random infected in-neighbor, read out twice — once with all seed
  labels one color, once with a prefix of them recolored.  Per-label counts
  then match run by run.  Needs an additive total whose color split is
  proportional to the red share of infected in-neighbors.

Deterministic-candidate schedules only: with a randomly chosen update order
the two processes would not agree on which vertex a draw belongs to.

The two inequality modes run on arrays (`_CoupledKernel`): a block of
replications advances as two (R, n) state matrices, the joint process and
the red solo process, and replication i reads its draws from one row of a
draw-ahead matrix that both processes index.  A replication draws what the
vertex-by-vertex coupling draws: one uniform per vertex that is a candidate
in either process, in ascending vertex order within a layer and in listed
order along a single pass.  `couple_test`'s standalone replications run
through `engine`'s Monte Carlo replication loop.  Attribution runs stay
vertex by vertex, because their donor choices draw integers between the
uniforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.stats import ks_2samp

from .dynamics import (
    AdoptionFunction,
    LayerOrder,
    RandomSequential,
    SimOutcome,
    SinglePassOrder,
    UpdateSchedule,
    _fraction_grid,
    _point_arrays,
    check_additive,
    check_competitive,
    filter_phase_candidates,
    run_ids,
)
from .engine import (
    Allocation,
    GameSpec,
    StrategyProfile,
    _BatchedPhases,
    _Draws,
    _mc_chunk,
    _replication_rng,
    _replication_streams,
    _single_pass_groups,
)
from .errors import CouplingHypothesisError, ValidationError
from .graphs import BLUE, RED, UNINFECTED, Graph, neighbor_fractions

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

    max_deg = max((len(nbrs) for nbrs in graph.in_neighbors), default=0)
    if max_deg <= 64:
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
    m = round(1.0 / grid_step)
    i, j = _fraction_grid(m)
    extra_a, extra_b = _point_arrays(points)
    a = np.concatenate([i / m, extra_a])
    b = np.concatenate([j / m, extra_b])
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


def _require_deterministic_schedule(schedule: UpdateSchedule) -> None:
    if isinstance(schedule, RandomSequential):
        raise ValidationError(
            "coupled runs need a schedule whose phases are determined by the state "
            "(single_pass, layer_order, or parallel); random_sequential is not supported")


def _require_one_shot_schedule(schedule: UpdateSchedule) -> None:
    """The two inequality couplings are sound only when every vertex updates at
    one fixed phase.  Under parallel rounds, a failed candidate retries, and
    the early stop on a no-change round can freeze one process while the other
    keeps retrying; the comparison inequalities themselves fail on small
    instances under that semantics, so such schedules are refused outright."""
    if not isinstance(schedule, (SinglePassOrder, LayerOrder)):
        raise ValidationError(
            "this coupling mode needs a one-shot schedule (single_pass or layer_order): "
            "with retrying schedules the early stop on a no-change round desynchronizes "
            "the two processes and the comparison inequality itself can fail")


def _seed_state(graph: Graph, red_seeds: Sequence[int], blue_seeds: Sequence[int]) -> list[int]:
    state = [UNINFECTED] * graph.n
    for v in red_seeds:
        if not (0 <= v < graph.n):
            raise ValidationError(f"seed vertex {v} out of range")
        state[v] = RED
    for v in blue_seeds:
        if not (0 <= v < graph.n):
            raise ValidationError(f"seed vertex {v} out of range")
        if state[v] == RED:
            raise ValidationError(f"vertex {v} is seeded by both players; coupled runs need disjoint seed sets")
        state[v] = BLUE
    return state


# ---------------------------------------------------------------------------
# Coupled two-process run (modes solo-vs-joint and joint-total).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoupledRunResult:
    mode: str
    joint: SimOutcome
    solo: SimOutcome
    invariant_violations: int


class _CoupledKernel(_BatchedPhases):
    """Coupled runs of the joint process (both seed sets) and the red solo
    process (red seeds only) on a one-shot schedule, a block of replications
    at a time, as two (R, n) int8 state matrices.

    Each phase draws one uniform per vertex that is a candidate in either
    process, from the replication's row of a `_Draws` matrix, in the phase's
    vertex order: ascending within a layer, listed order along a single pass
    (whose consecutive vertices are grouped by `_single_pass_groups`).  Joint
    probabilities are the memoised `update_probs` calls, and the solo
    probability is `update_probs(a_r, 0)[0]`, equal to `prob_red(a_r, 0)`.
    """

    def __init__(self, graph: Graph, red_seeds: Sequence[int], blue_seeds: Sequence[int],
                 dyn: AdoptionFunction, schedule: UpdateSchedule, mode: str):
        self.joint0 = np.array(_seed_state(graph, red_seeds, blue_seeds), dtype=np.int8)
        self.solo0 = np.array(_seed_state(graph, red_seeds, ()), dtype=np.int8)
        # Every vertex updates in one phase at most and keeps its colors from
        # then on, so a vertex that breaks the invariant at phase k is counted
        # after each of the phases k..n_phases-1.
        self.weight = np.zeros(graph.n, dtype=np.int64)
        if isinstance(schedule, SinglePassOrder):
            phases = _single_pass_groups(schedule.order, graph)
            order = np.array(schedule.order, dtype=np.intp)
            self.weight[order] = len(order) - np.arange(len(order))
        else:
            phases = [run_ids(sorted(layer)) for layer in schedule.runs]
            for k, verts in enumerate(phases):
                self.weight[verts] = len(phases) - k
        super().__init__(graph, dyn, phases)
        self.mode = mode
        self.draw_width = sum(len(p[0]) for p in self.phases)

    def run(self, draws: _Draws) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The joint and solo end states of one row per `draws` row, and each
        row's invariant violations summed after every phase of the schedule."""
        rows = len(draws.rngs)
        joint = np.tile(self.joint0, (rows, 1))
        solo = np.tile(self.solo0, (rows, 1))
        all_rows = np.arange(rows)
        for phase in self.phases:
            verts, _, _, deg = phase
            red, blue = self._neighbor_counts(joint, phase)
            solo_red, _ = self._neighbor_counts(solo, phase)
            in_joint = (joint[:, verts] == UNINFECTED) & ((red + blue) > 0)
            in_solo = (solo[:, verts] == UNINFECTED) & (solo_red > 0)
            row_of, col = np.nonzero(in_joint | in_solo)
            if len(row_of) == 0:
                continue
            z = draws.take(all_rows, np.bincount(row_of, minlength=rows), row_of)
            d = deg[col]
            j = in_joint[row_of, col]
            jr, jc, zj = row_of[j], col[j], z[j]
            p_red, p_any = self._probs(red[jr, jc] / d[j], blue[jr, jc] / d[j])
            to_red = zj < p_red
            to_blue = ~to_red & (zj < p_any)
            s = in_solo[row_of, col]
            sr, sc = row_of[s], col[s]
            p_solo, _ = self._probs(solo_red[sr, sc] / d[s], np.zeros(len(sr)))
            joint[jr[to_red], verts[jc[to_red]]] = RED
            joint[jr[to_blue], verts[jc[to_blue]]] = BLUE
            won = z[s] < p_solo
            solo[sr[won], verts[sc[won]]] = RED
        if self.mode == MODE_SOLO_VS_JOINT:
            bad = (joint == RED) & (solo != RED)
        else:  # joint-total
            bad = (solo == RED) & (joint == UNINFECTED)
        return joint, solo, bad @ self.weight


def coupled_run(graph: Graph, red_seeds: Sequence[int], blue_seeds: Sequence[int],
                dyn: AdoptionFunction, schedule: UpdateSchedule, rng,
                mode: str = MODE_SOLO_VS_JOINT,
                skip_preflight: bool = False) -> CoupledRunResult:
    """One coupled run of the joint process (both seed sets) and the red solo
    process (red seeds only), sharing one uniform draw per vertex per phase.

    The generator is left just past the draws the run used."""
    mode = canonical_mode(mode)
    if mode == MODE_ATTRIBUTION:
        raise ValidationError("attribution coupling uses coupled_attribution_run")
    _require_one_shot_schedule(schedule)
    schedule.validate_for_graph(graph)
    if not skip_preflight:
        require_mode_hypotheses(mode, dyn, graph)
    rng = np.random.default_rng(rng)
    kernel = _CoupledKernel(graph, red_seeds, blue_seeds, dyn, schedule, mode)
    start = rng.bit_generator.state
    draws = _Draws([rng], kernel.draw_width)
    joint, solo, violations = kernel.run(draws)
    rng.bit_generator.state = start
    rng.random(int(draws.used[0]))

    joint, solo = joint[0].tolist(), solo[0].tolist()
    return CoupledRunResult(
        mode=mode,
        joint=SimOutcome(state=tuple(joint), chi_R=joint.count(RED), chi_B=joint.count(BLUE)),
        solo=SimOutcome(state=tuple(solo), chi_R=solo.count(RED), chi_B=0),
        invariant_violations=int(violations[0]),
    )


# ---------------------------------------------------------------------------
# Attribution runs (single-color spread with label copying).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttributionOutcome:
    """Labels: -1 for uninfected, otherwise the index of the originating seed."""

    labels: tuple[int, ...]
    per_seed_counts: tuple[int, ...]
    chi_total: int


def attribution_run(graph: Graph, seeds: Sequence[int], dyn: AdoptionFunction,
                    schedule: UpdateSchedule, rng,
                    skip_preflight: bool = False) -> AttributionOutcome:
    """Single-color contagion where every infection copies the label of a
    uniformly random infected in-neighbor.

    Summing the per-label counts always reproduces the total spread; with a
    proportional color split the label counts are faithful to seed-level
    attribution in the two-color process.
    """
    _require_deterministic_schedule(schedule)
    schedule.validate_for_graph(graph)
    if not skip_preflight:
        require_mode_hypotheses(MODE_ATTRIBUTION, dyn, graph)
    rng = np.random.default_rng(rng)
    seeds = list(seeds)
    if len(set(seeds)) != len(seeds):
        raise ValidationError("attribution seeds must be distinct vertices")

    labels = [-1] * graph.n
    shadow = [UNINFECTED] * graph.n  # color view used for candidacy / fractions
    for i, v in enumerate(seeds):
        if not (0 <= v < graph.n):
            raise ValidationError(f"seed vertex {v} out of range")
        labels[v] = i
        shadow[v] = RED
    immune = [False] * graph.n
    cursor = schedule.initial_cursor()

    while True:
        options = schedule.phase_options(graph, shadow, immune, cursor)
        if options is None:
            break
        _, phase, cursor = options[0]
        cands = filter_phase_candidates(graph, shadow, immune, phase)
        pending: list[tuple[int, int]] = []
        for v in cands:
            ar, _ = neighbor_fractions(graph, shadow, v)
            p = dyn.prob_any(ar, 0.0)
            z = rng.random()
            if z < p:
                infected_nbrs = [u for u in graph.in_neighbors[v] if shadow[u] != UNINFECTED]
                donor = infected_nbrs[int(rng.integers(len(infected_nbrs)))]
                pending.append((v, labels[donor]))
            elif schedule.immunity:
                immune[v] = True
        for v, lab in pending:
            labels[v] = lab
            shadow[v] = RED
        if schedule.stop_on_no_change and not pending:
            break

    counts = [0] * len(seeds)
    for lab in labels:
        if lab >= 0:
            counts[lab] += 1
    return AttributionOutcome(labels=tuple(labels), per_seed_counts=tuple(counts),
                              chi_total=sum(counts))


@dataclass(frozen=True)
class CoupledAttributionResult:
    solo: AttributionOutcome
    joint_chi_R: int
    joint_chi_B: int
    recolored: int  # how many seed labels were read as the second color
    invariant_violations: int


def coupled_attribution_run(graph: Graph, seeds: Sequence[int], recolored: int,
                            dyn: AdoptionFunction, schedule: UpdateSchedule, rng,
                            skip_preflight: bool = False) -> CoupledAttributionResult:
    """Couple an all-one-color attribution run with the run where the first
    `recolored` seeds carry the other color, sharing every draw.

    Infections and label copies coincide exactly, so the recolored process's
    per-seed counts equal the solo process's, label by label, in every run.
    """
    if not (0 <= recolored <= len(seeds)):
        raise ValidationError(f"recolored seed count {recolored} out of range")
    out = attribution_run(graph, seeds, dyn, schedule, rng, skip_preflight=skip_preflight)
    chi_b = sum(out.per_seed_counts[:recolored])
    chi_r = out.chi_total - chi_b
    return CoupledAttributionResult(
        solo=out, joint_chi_R=chi_r, joint_chi_B=chi_b,
        recolored=recolored, invariant_violations=0,
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
        return {
            "mode": self.mode,
            "runs": self.runs,
            "invariant_violations": self.invariant_violations,
            "inequality_margins": self.inequality_margins,
            "p_values": self.p_values,
            "notes": list(self.notes),
        }


def _ks_pvalue(xs: np.ndarray, ys: np.ndarray) -> float:
    if np.array_equal(np.unique(xs), np.unique(ys)) and len(np.unique(xs)) == 1:
        return 1.0
    return float(ks_2samp(xs, ys).pvalue)


def couple_test(graph: Graph, red_seeds: Sequence[int], blue_seeds: Sequence[int],
                dyn: AdoptionFunction, schedule: UpdateSchedule, mode: str,
                runs: int = 10_000, master_seed: int = 0) -> CoupleTestResult:
    """Run `runs` coupled replications plus independent standalone replications,
    and report invariant violations, inequality margins, and two-sample
    faithfulness p-values (coupled component versus standalone process)."""
    mode = canonical_mode(mode)
    require_mode_hypotheses(mode, dyn, graph)
    if mode == MODE_ATTRIBUTION:
        _require_deterministic_schedule(schedule)
    else:
        _require_one_shot_schedule(schedule)
    if runs < 2:
        raise ValidationError("couple_test needs at least 2 runs")

    notes = ["faithfulness p-values compare each coupled component against "
             "an independent standalone run via a two-sample KS test"]

    def standalone(red: Sequence[int], blue: Sequence[int], stream: int):
        """chi_R and chi_B of `runs` standalone replications, replication i
        drawing from spawn key (stream, i).  The replication loop reads no
        budget, so the game's are placeholders."""
        profile = StrategyProfile(Allocation.from_seeds(graph.n, red),
                                  Allocation.from_seeds(graph.n, blue))
        return _mc_chunk(GameSpec(graph, dyn, schedule, 1, 1), profile.support_pairs(),
                         master_seed, 0, runs, stream=(stream,))

    if mode in (MODE_SOLO_VS_JOINT, MODE_JOINT_TOTAL):
        schedule.validate_for_graph(graph)
        kernel = _CoupledKernel(graph, red_seeds, blue_seeds, dyn, schedule, mode)
        cj_r, cj_b, cs_r = np.empty(runs), np.empty(runs), np.empty(runs)
        violations = 0
        for lo in range(0, runs, kernel.block):
            hi = min(lo + kernel.block, runs)
            draws = _Draws(_replication_streams(master_seed, lo, hi, (1,)), kernel.draw_width)
            joint, solo, bad = kernel.run(draws)
            violations += int(bad.sum())
            cj_r[lo:hi] = np.count_nonzero(joint == RED, axis=1)
            cj_b[lo:hi] = np.count_nonzero(joint == BLUE, axis=1)
            cs_r[lo:hi] = np.count_nonzero(solo == RED, axis=1)
        ij_r, ij_b = standalone(red_seeds, blue_seeds, 2)
        is_r, _ = standalone(red_seeds, (), 3)

        if mode == MODE_SOLO_VS_JOINT:
            margins = cs_r - cj_r
            margin_name = "solo_red_minus_joint_red"
            notes.append("per-run margin: solo red count minus joint red count (never negative "
                         "when the invariant holds)")
        else:
            margins = (cj_r + cj_b) - cs_r
            margin_name = "joint_total_minus_solo_red"
            notes.append("per-run margin: joint infected total minus solo red count (never "
                         "negative when the invariant holds)")
        return CoupleTestResult(
            mode=mode, runs=runs, invariant_violations=violations,
            inequality_margins={
                f"min_{margin_name}": float(margins.min()),
                f"mean_{margin_name}": float(margins.mean()),
            },
            p_values={
                "joint_chi_R": _ks_pvalue(cj_r, ij_r),
                "joint_chi_B": _ks_pvalue(cj_b, ij_b),
                "solo_chi_R": _ks_pvalue(cs_r, is_r),
            },
            notes=tuple(notes),
        )

    # Attribution mode: seeds are the red set followed by the recolored set.
    seeds = list(red_seeds) + list(blue_seeds)
    if len(set(seeds)) != len(seeds):
        raise ValidationError("attribution coupling needs disjoint seed sets")
    recolored = len(blue_seeds)
    # Read the recolored seeds as the leading prefix.
    seeds = list(blue_seeds) + list(red_seeds)

    ca_r = np.empty(runs)
    ca_b = np.empty(runs)
    ca_tot = np.empty(runs)
    violations = 0
    mismatch = 0
    for i in range(runs):
        res = coupled_attribution_run(graph, seeds, recolored, dyn, schedule,
                                      _replication_rng(master_seed, i, (1,)),
                                      skip_preflight=True)
        violations += res.invariant_violations
        if res.joint_chi_R + res.joint_chi_B != res.solo.chi_total:
            mismatch += 1
        ca_r[i] = res.joint_chi_R
        ca_b[i] = res.joint_chi_B
        ca_tot[i] = res.solo.chi_total
    ij_r, ij_b = standalone(red_seeds, blue_seeds, 2)
    is_tot, _ = standalone(seeds, (), 3)

    violations += mismatch
    notes.append("margin: recolored-process total minus solo total (identical by construction)")
    return CoupleTestResult(
        mode=mode, runs=runs, invariant_violations=violations,
        inequality_margins={
            "min_total_count_gap": float((ca_r + ca_b - ca_tot).min()),
            "max_total_count_gap": float((ca_r + ca_b - ca_tot).max()),
        },
        p_values={
            "joint_chi_R": _ks_pvalue(ca_r, ij_r),
            "joint_chi_B": _ks_pvalue(ca_b, ij_b),
            "solo_chi_total": _ks_pvalue(ca_tot, is_tot),
        },
        notes=tuple(notes),
    )
