"""Coupled-process runs: invariants, hypothesis preflight, and the schedule
restrictions (with exact counterexamples for the refused schedules).  The
batched coupled path is checked run by run against a vertex-by-vertex
reference model kept here."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from contagion_games import (
    BLUE,
    RED,
    UNINFECTED,
    Allocation,
    CouplingHypothesisError,
    GameSpec,
    Graph,
    MODE_ATTRIBUTION,
    MODE_JOINT_TOTAL,
    MODE_SOLO_VS_JOINT,
    ParallelRounds,
    PowerSwitch,
    RandomSequential,
    SinglePassOrder,
    StrategyProfile,
    SwitchSelectAdoption,
    TullockSelection,
    ValidationError,
    canonical_mode,
    check_linear_split,
    couple_test,
    coupled_run,
    exact_payoffs,
    filter_phase_candidates,
    linear_selection,
    LayerOrder,
    load_dynamics,
    neighbor_fractions,
    require_mode_hypotheses,
    run_contagion,
)
from contagion_games import coupling, engine
from contagion_games.coupling import _CoupledKernel
from contagion_games.engine import resolve_contested_seeds, sample_payoffs
from stream_reference import SplitMix64, replication_key


def sqrt_linear():
    """Concave switching with a proportional color split: satisfies every
    coupling hypothesis."""
    return SwitchSelectAdoption(PowerSwitch(0.5), linear_selection())


def two_hub():
    edges = [(0, 1), (0, 2)] + [(3, v) for v in range(4, 13)]
    g = Graph(n=13, edges=tuple(edges))
    followers = tuple(v for v in range(13) if v not in (0, 3))
    return g, SinglePassOrder(followers)


def rng_for(i):
    return np.random.default_rng(np.random.SeedSequence(entropy=321, spawn_key=(i,)))


def draws_of(keys):
    """The draws of a block of coupled replications, one per key."""
    return engine._Draws(np.array(keys, dtype=np.uint64))


# A coupled replication's run does not depend on the block it runs in: kernel
# tests run their replications as one block, and as blocks of 7 through the
# same kernel.
BLOCKINGS = pytest.mark.parametrize("block", [None, 7], ids=["one_block", "blocks_of_7"])


def run_in_blocks(kernel, keys, block):
    """`kernel.run` over the draws of `keys` in blocks of `block` rows (one
    block if None), its joint states, solo states and violations concatenated."""
    size = block or len(keys)
    parts = [kernel.run(draws_of(keys[lo:lo + size])) for lo in range(0, len(keys), size)]
    return tuple(np.concatenate(out) for out in zip(*parts))


def run_key(rng) -> int:
    """The key a coupled run takes from its generator (or seed)."""
    return int(np.random.default_rng(rng).integers(0, 2**64, dtype=np.uint64))


# ---------------------------------------------------------------------------
# Mode names and hypothesis preflight.
# ---------------------------------------------------------------------------


def test_mode_aliases_resolve_to_canonical_names():
    assert canonical_mode("lemma1") == MODE_SOLO_VS_JOINT
    assert canonical_mode("lemma2") == MODE_JOINT_TOTAL
    assert canonical_mode("lemma3") == MODE_ATTRIBUTION
    assert canonical_mode(MODE_JOINT_TOTAL) == MODE_JOINT_TOTAL
    with pytest.raises(ValidationError, match="unknown coupling mode"):
        canonical_mode("lemma4")


def test_solo_vs_joint_requires_a_competitive_adoption_function():
    g, _ = two_hub()
    # convex switching with s=1 lets the opponent raise one's probability
    convex = SwitchSelectAdoption(PowerSwitch(2.0), linear_selection())
    with pytest.raises(CouplingHypothesisError, match="opponent never to raise"):
        require_mode_hypotheses(MODE_SOLO_VS_JOINT, convex, g)
    require_mode_hypotheses(MODE_SOLO_VS_JOINT, sqrt_linear(), g)


def test_every_mode_requires_an_additive_total():
    g, _ = two_hub()
    non_additive = load_dynamics({"h": "builtin:quadratic_damped"})
    for mode in (MODE_SOLO_VS_JOINT, MODE_JOINT_TOTAL, MODE_ATTRIBUTION):
        with pytest.raises(CouplingHypothesisError, match="combined infected fraction"):
            require_mode_hypotheses(mode, non_additive, g)


def test_attribution_requires_a_proportional_color_split():
    g, _ = two_hub()
    skewed = SwitchSelectAdoption(PowerSwitch(0.5), TullockSelection(2.0))
    assert check_linear_split(skewed)  # majority-amplifying split
    assert not check_linear_split(sqrt_linear())
    with pytest.raises(CouplingHypothesisError, match="proportional"):
        require_mode_hypotheses(MODE_ATTRIBUTION, skewed, g)
    require_mode_hypotheses(MODE_ATTRIBUTION, sqrt_linear(), g)


@pytest.mark.parametrize("grid_step", [0.0, -0.5, 0.2])
def test_linear_split_reads_the_predicate_grid(grid_step):
    with pytest.raises(ValidationError, match="grid step must lie in"):
        check_linear_split(sqrt_linear(), grid_step=grid_step)


# ---------------------------------------------------------------------------
# Coupled two-process runs.
# ---------------------------------------------------------------------------


def test_coupled_run_maintains_its_invariant_in_every_run():
    g, schedule = two_hub()
    dyn = sqrt_linear()
    for i in range(200):
        res = coupled_run(g, [3], [0], dyn, schedule, rng_for(i),
                          mode=MODE_SOLO_VS_JOINT, skip_preflight=True)
        assert res.invariant_violations == 0
        for joint_state, solo_state in zip(res.joint.state, res.solo.state):
            if joint_state == RED:
                assert solo_state == RED
        assert res.solo.chi_R >= res.joint.chi_R
        assert res.solo.chi_B == 0

        res = coupled_run(g, [3], [0], dyn, schedule, rng_for(i),
                          mode=MODE_JOINT_TOTAL, skip_preflight=True)
        assert res.invariant_violations == 0
        for joint_state, solo_state in zip(res.joint.state, res.solo.state):
            if solo_state == RED:
                assert joint_state != UNINFECTED
        assert res.joint.chi_R + res.joint.chi_B >= res.solo.chi_R


def test_coupled_run_rejects_overlapping_seeds_and_retry_schedules():
    g, schedule = two_hub()
    with pytest.raises(ValidationError, match="seeded by both players"):
        coupled_run(g, [3], [3], sqrt_linear(), schedule, rng_for(0))
    for seed in (True, -1, 13, 2.0):  # a bool is not a vertex id
        with pytest.raises(ValidationError, match="is not a vertex id in 0..12"):
            coupled_run(g, [seed], [0], sqrt_linear(), schedule, rng_for(0))
        with pytest.raises(ValidationError, match="is not a vertex id in 0..12"):
            coupled_run(g, [3], [seed], sqrt_linear(), schedule, rng_for(0))
    with pytest.raises(ValidationError, match="one-shot schedule"):
        coupled_run(g, [3], [0], sqrt_linear(), ParallelRounds(3), rng_for(0))
    with pytest.raises(ValidationError, match="random_sequential is not supported"):
        coupled_run(g, [3], [0], sqrt_linear(), RandomSequential(5), rng_for(0),
                    mode=MODE_ATTRIBUTION)


def test_retry_schedules_break_the_solo_vs_joint_inequality():
    """Exact counterexample: under retrying rounds with an early stop, the
    joint process's red count can exceed the solo red count in expectation,
    even with a competitive additive adoption function.  This is why coupled
    comparisons refuse such schedules."""
    g = Graph(n=6, edges=((1, 2), (1, 4), (2, 0), (3, 0), (3, 2), (4, 2)))
    dyn = SwitchSelectAdoption(PowerSwitch(0.75), TullockSelection(0.75))
    require_mode_hypotheses(MODE_SOLO_VS_JOINT, dyn, g)  # hypotheses do hold
    game = GameSpec(g, dyn, ParallelRounds(3), 1, 1)

    def pure(v):
        return Allocation.from_seeds(6, [v])

    joint = exact_payoffs(game, StrategyProfile(pure(3), pure(1)))
    solo = exact_payoffs(game, StrategyProfile(pure(3), pure(5)))  # 5 is isolated
    assert joint.pi_R == pytest.approx(2.378382, abs=1e-5)
    assert solo.pi_R == pytest.approx(2.357555, abs=1e-5)
    assert joint.pi_R > solo.pi_R  # the solo process should dominate, but does not


def test_retry_schedules_break_the_joint_total_inequality():
    """Exact counterexample for the other direction: the joint total can fall
    below the solo count in expectation under retrying rounds."""
    g = Graph(n=6, edges=((1, 3), (1, 4), (2, 3), (3, 0), (3, 2), (3, 4),
                          (4, 0), (4, 1), (4, 2), (4, 3)))
    dyn = sqrt_linear()
    require_mode_hypotheses(MODE_JOINT_TOTAL, dyn, g)
    game = GameSpec(g, dyn, ParallelRounds(3), 1, 1)

    def pure(v):
        return Allocation.from_seeds(6, [v])

    joint = exact_payoffs(game, StrategyProfile(pure(4), pure(0)))
    solo = exact_payoffs(game, StrategyProfile(pure(4), pure(5)))
    assert joint.joint == pytest.approx(4.986693, abs=1e-5)
    assert solo.pi_R == pytest.approx(4.987818, abs=1e-5)
    assert solo.pi_R > joint.joint  # joint total should dominate, but does not


# ---------------------------------------------------------------------------
# The batched coupled path against the vertex-by-vertex reference model.
# ---------------------------------------------------------------------------


def reference_coupled_run(graph, red_seeds, blue_seeds, dyn, schedule, rng, mode):
    """One coupled run, vertex by vertex: each phase or round draws one
    uniform per vertex that is a candidate in either running process, in
    ascending vertex order, and the violating vertices are counted after
    every phase or round.  Under parallel rounds each process keeps its own
    immune set and stops after a round that gives it no candidate or no
    infection.  Returns the joint and solo states and the violation count."""
    joint = [UNINFECTED] * graph.n
    for v in red_seeds:
        joint[v] = RED
    solo = list(joint)
    for v in blue_seeds:
        joint[v] = BLUE
    if mode == MODE_ATTRIBUTION:
        solo = list(joint)  # every seed carries its side's color as a label
    states = (joint, solo)
    immune = ([False] * graph.n, [False] * graph.n)
    running = [True, True]
    cursor = schedule.initial_cursor()
    violations = 0
    while True:
        cands, next_cursor = [set(), set()], None
        for p in (0, 1):
            options = (schedule.phase_options(graph, states[p], immune[p], cursor)
                       if running[p] else None)
            if options is None:
                running[p] = False
                continue
            _, phase, next_cursor = options[0]
            cands[p] = set(filter_phase_candidates(graph, states[p], immune[p], phase))
        if next_cursor is None:
            break
        cursor = next_cursor
        pending = ([], [])
        for v in sorted(cands[0] | cands[1]):
            z = rng.random()
            if v in cands[0]:
                a, b = neighbor_fractions(graph, joint, v)
                pr, pb, _ = dyn.update_probs(a, b)
                pending[0].append((v, RED if z < pr else BLUE if z < pr + pb else UNINFECTED))
            if v in cands[1]:
                r = sum(1 for u in graph.in_neighbors[v] if solo[u] == RED)
                b = sum(1 for u in graph.in_neighbors[v] if solo[u] == BLUE)
                pr, pb, _ = dyn.update_probs((r + b) / len(graph.in_neighbors[v]), 0.0)
                if mode != MODE_ATTRIBUTION:
                    pending[1].append((v, RED if z < pr else UNINFECTED))
                    continue
                # Copy the label of donor floor(z / p * (r + b)), red labels first.
                p_any = pr + pb
                label = RED if z < p_any * r / (r + b) else BLUE
                pending[1].append((v, label if z < p_any else UNINFECTED))
        for p in (0, 1):
            for v, color in pending[p]:
                if color != UNINFECTED:
                    states[p][v] = color
                elif schedule.immunity:
                    immune[p][v] = True
            if schedule.stop_on_no_change and all(c == UNINFECTED for _, c in pending[p]):
                running[p] = False
        if mode == MODE_SOLO_VS_JOINT:
            violations += sum(1 for xj, xs in zip(joint, solo) if xj == RED and xs != RED)
        elif mode == MODE_JOINT_TOTAL:
            violations += sum(1 for xj, xs in zip(joint, solo) if xs == RED and xj == UNINFECTED)
        else:
            violations += sum(1 for xj, xs in zip(joint, solo) if xj != xs)
    return joint, solo, violations


def convex_linear():
    """Not competitive: an opponent can raise one's infection probability,
    so the solo-vs-joint invariant can break (with the preflight skipped)."""
    return SwitchSelectAdoption(PowerSwitch(2.0), linear_selection())


def skewed_split():
    """Additive, but its color split favors the majority: breaks attribution."""
    return SwitchSelectAdoption(PowerSwitch(0.5), TullockSelection(2.0))


def non_additive():
    """Competitive, but the total falls when both colors are present.  Scalar
    only: its `update_probs_array` calls `update_probs` pair by pair."""
    return load_dynamics({"h": "builtin:quadratic_damped"})


@st.composite
def coupled_instances(draw, rounds=False):
    n = draw(st.integers(2, 10))
    directed = draw(st.booleans())
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda e: e[0] < e[1] or directed and e[0] != e[1]),
                         max_size=3 * n))
    graph = Graph(n=n, edges=tuple(sorted(edges)), directed=directed)
    order = draw(st.permutations(range(n)))
    seeded = draw(st.integers(1, min(3, n)))
    n_red = draw(st.integers(1, seeded))
    # The CLI expands seed counts into repeated vertex ids.
    red = [v for v in order[:n_red] for _ in range(draw(st.integers(1, 2)))]
    blue = list(order[n_red:seeded])
    listed = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    kind = draw(st.sampled_from(["single", "layers", "rounds"] if rounds else ["single", "layers"]))
    if kind == "rounds":
        schedule = ParallelRounds(draw(st.integers(1, 5)), immunity=draw(st.booleans()))
    elif kind == "single":
        schedule = SinglePassOrder(tuple(listed))
    else:
        cuts = sorted(draw(st.lists(st.integers(0, len(listed)), min_size=2, max_size=2)))
        schedule = LayerOrder((tuple(listed[:cuts[0]]), tuple(listed[cuts[0]:cuts[1]]),
                               tuple(listed[cuts[1]:])))
    return graph, red, blue, schedule


@settings(max_examples=250, deadline=None)
@given(data=st.data(),
       dyn=st.sampled_from([sqrt_linear(), convex_linear(), skewed_split(), non_additive()]),
       mode=st.sampled_from([MODE_SOLO_VS_JOINT, MODE_JOINT_TOTAL, MODE_ATTRIBUTION]),
       block=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_batched_coupled_runs_match_the_reference_model(data, dyn, mode, block, seed):
    # Parallel rounds, with and without immunity, only for attribution: the
    # inequality modes refuse them.
    graph, red, blue, schedule = data.draw(coupled_instances(rounds=mode == MODE_ATTRIBUTION))
    kernel = _CoupledKernel(graph, red, blue, dyn, schedule, mode)
    keys = [replication_key(seed, row, (1,)) for row in range(block)]
    joint, solo, violations = kernel.run(draws_of(keys))
    for row, key in enumerate(keys):
        ref_joint, ref_solo, ref_violations = reference_coupled_run(
            graph, red, blue, dyn, schedule, SplitMix64(key), mode)
        assert joint[row].tolist() == ref_joint
        assert solo[row].tolist() == ref_solo
        assert violations[row] == ref_violations
    target(float(violations.sum()))  # steer the search toward runs that break the invariant

    # The one-row public call: states, counts and violations of the stream of
    # the key it takes from its generator.
    res = coupled_run(graph, red, blue, dyn, schedule, seed, mode=mode, skip_preflight=True)
    ref_joint, ref_solo, ref_violations = reference_coupled_run(
        graph, red, blue, dyn, schedule, SplitMix64(run_key(seed)), mode)
    assert list(res.joint.state) == ref_joint and list(res.solo.state) == ref_solo
    assert (res.joint.chi_R, res.joint.chi_B) == (ref_joint.count(RED), ref_joint.count(BLUE))
    assert (res.solo.chi_R, res.solo.chi_B) == (ref_solo.count(RED), ref_solo.count(BLUE))
    assert res.invariant_violations == ref_violations


@pytest.mark.parametrize("schedule", [
    SinglePassOrder((3, 4, 5, 2, 6)),
    LayerOrder(((4, 3), (6, 5, 2))),
])
@BLOCKINGS
def test_batched_violation_counter_fires_without_the_preflight(schedule, block):
    """Convex switching breaks solo-vs-joint: blue's seed raises the chance
    that red's neighbors adopt.  The batched count equals the reference's,
    summed after every phase of the schedule, and is nonzero."""
    g = Graph(n=7, edges=((0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 6), (3, 6),
                          (4, 6), (5, 6)), directed=True)
    dyn = convex_linear()
    with pytest.raises(CouplingHypothesisError):
        require_mode_hypotheses(MODE_SOLO_VS_JOINT, dyn, g)
    kernel = _CoupledKernel(g, [0], [1], dyn, schedule, MODE_SOLO_VS_JOINT)
    keys = [replication_key(321, i) for i in range(300)]
    joint, solo, violations = run_in_blocks(kernel, keys, block)
    total = 0
    for i, key in enumerate(keys):
        ref_joint, ref_solo, ref_violations = reference_coupled_run(
            g, [0], [1], dyn, schedule, SplitMix64(key), MODE_SOLO_VS_JOINT)
        assert (joint[i].tolist(), solo[i].tolist(), violations[i]) == (
            ref_joint, ref_solo, ref_violations)
        total += ref_violations
    assert total > 0
    res = couple_test(g, [0], [1], sqrt_linear(), schedule, MODE_SOLO_VS_JOINT, runs=50)
    assert res.invariant_violations == 0


@pytest.mark.parametrize("immunity", [False, True])
@pytest.mark.parametrize("dyn", [sqrt_linear(), convex_linear(), skewed_split(), non_additive()],
                         ids=["sqrt_linear", "convex_linear", "skewed_split", "non_additive"])
@BLOCKINGS
def test_batched_attribution_rounds_match_the_reference_model(dyn, immunity, block):
    """Parallel rounds on a graph with cycles, where candidates fail and
    retry (or turn immune) and the two processes stop at different rounds in
    different rows.  The batched runs equal the reference's row by row, and
    the counter fires exactly when the hypotheses fail."""
    g = Graph(n=8, edges=((0, 2), (0, 3), (1, 3), (1, 4), (2, 3), (3, 4), (4, 2), (4, 5),
                          (5, 6), (6, 7), (7, 5), (2, 6)), directed=True)
    schedule = ParallelRounds(6, immunity=immunity)
    kernel = _CoupledKernel(g, [0, 2], [1], dyn, schedule, MODE_ATTRIBUTION)
    keys = [replication_key(321, i) for i in range(200)]
    joint, solo, violations = run_in_blocks(kernel, keys, block)
    for i, key in enumerate(keys):
        ref_joint, ref_solo, ref_violations = reference_coupled_run(
            g, [0, 2], [1], dyn, schedule, SplitMix64(key), MODE_ATTRIBUTION)
        assert (joint[i].tolist(), solo[i].tolist(), violations[i]) == (
            ref_joint, ref_solo, ref_violations)
    hypotheses_hold = dyn in (sqrt_linear(), convex_linear())
    assert (violations.sum() == 0) == hypotheses_hold


# ---------------------------------------------------------------------------
# Attribution runs.
# ---------------------------------------------------------------------------


def bipartite():
    """Criterion 5's instance: three sources feeding nine sinks."""
    g = Graph(n=12, edges=tuple((s, t) for s in range(3) for t in range(3, 12)))
    return g, SinglePassOrder(tuple(range(3, 12)))


# `coupled_run` takes its run key from a numpy generator or from a seed.
@pytest.mark.parametrize("source", [rng_for, lambda i: 1000 + i], ids=["generator", "int_seed"])
@pytest.mark.parametrize("schedule", [None, ParallelRounds(4), ParallelRounds(4, immunity=True)])
def test_attribution_labels_equal_the_joint_colors_under_its_hypotheses(schedule, source):
    g, single_pass = two_hub()
    schedule = schedule or single_pass
    for i in range(100):
        res = coupled_run(g, [3], [0], sqrt_linear(), schedule, source(i), mode=MODE_ATTRIBUTION)
        assert res.invariant_violations == 0
        assert res.joint.state == res.solo.state
        # Followers of hub 3 can only copy red; those of hub 0 only blue.
        assert all(res.solo.state[v] != BLUE for v in range(4, 13))
        assert all(res.solo.state[v] != RED for v in (1, 2))
        # Multi-round runs draw the stream of the run's key throughout.
        ref_joint, _, _ = reference_coupled_run(g, [3], [0], sqrt_linear(), schedule,
                                                SplitMix64(run_key(source(i))), MODE_ATTRIBUTION)
        assert list(res.joint.state) == ref_joint


@pytest.mark.parametrize("make", [lambda: np.random.Generator(np.random.MT19937(1)),
                                  lambda: np.random.Generator(np.random.Philox(2)),
                                  lambda: np.random.default_rng(3)],
                         ids=["mt19937", "philox", "pcg64"])
def test_coupled_runs_take_one_key_from_any_generator(make):
    """Two generators in the same state give the same run, the reference
    model's on the stream of the key, and each moves on by exactly the one
    draw of that key."""
    g, schedule = two_hub()
    rng, twin, witness = make(), make(), make()
    runs = [coupled_run(g, [3], [0], sqrt_linear(), ParallelRounds(4), r, mode=MODE_ATTRIBUTION)
            for r in (rng, twin)]
    assert runs[0] == runs[1]
    key = int(witness.integers(0, 2**64, dtype=np.uint64))
    ref_joint, ref_solo, ref_violations = reference_coupled_run(
        g, [3], [0], sqrt_linear(), ParallelRounds(4), SplitMix64(key), MODE_ATTRIBUTION)
    assert (list(runs[0].joint.state), list(runs[0].solo.state), runs[0].invariant_violations) \
        == (ref_joint, ref_solo, ref_violations)
    assert rng.random() == twin.random() == witness.random()


@pytest.mark.parametrize("mode", [MODE_SOLO_VS_JOINT, MODE_ATTRIBUTION])
def test_couple_test_draws_the_reference_streams(mode):
    """`couple_test`'s coupled replication i runs the reference model on the
    stream of key (master seed, (1,), i), and its standalone replications
    `run_contagion` on keys (master seed, (2,), i) and (master seed, (3,),
    i): its margins and p-values are those of the reference runs, bit for
    bit."""
    g, schedule = two_hub()
    dyn, runs, seed = sqrt_linear(), 60, 17
    res = couple_test(g, [3], [0], dyn, schedule, mode, runs=runs, master_seed=seed)
    coupled = [reference_coupled_run(g, [3], [0], dyn, schedule,
                                     SplitMix64(replication_key(seed, i, (1,))), mode)
               for i in range(runs)]
    joint_r, joint_b, solo_r, solo_b = np.array(
        [[states[p].count(color) for states in coupled]
         for p, color in ((0, RED), (0, BLUE), (1, RED), (1, BLUE))], dtype=float)

    def standalone(red, blue, stream):
        out = []
        for i in range(runs):
            rng = SplitMix64(replication_key(seed, i, (stream,)))
            initial = resolve_contested_seeds(Allocation.from_seeds(g.n, red),
                                              Allocation.from_seeds(g.n, blue), rng)
            out.append(run_contagion(g, initial, dyn, schedule, rng))
        return (np.array([o.chi_R for o in out], dtype=float),
                np.array([o.chi_B for o in out], dtype=float))

    alone_r, alone_b = standalone([3], [0], 2)
    assert res.invariant_violations == sum(v for _, _, v in coupled) == 0
    assert res.p_values["joint_chi_R"] == coupling._ks_pvalue(joint_r, alone_r)
    assert res.p_values["joint_chi_B"] == coupling._ks_pvalue(joint_b, alone_b)
    if mode == MODE_ATTRIBUTION:
        total, _ = standalone([3, 0], [], 3)
        assert res.p_values["solo_chi_total"] == coupling._ks_pvalue(solo_r + solo_b, total)
        gaps = (joint_r + joint_b) - (solo_r + solo_b)
        assert res.inequality_margins == {"min_total_count_gap": float(gaps.min()),
                                          "max_total_count_gap": float(gaps.max())}
    else:
        solo_alone, _ = standalone([3], [], 3)
        assert res.p_values["solo_chi_R"] == coupling._ks_pvalue(solo_r, solo_alone)
        gaps = solo_r - joint_r
        assert res.inequality_margins == {"min_solo_red_minus_joint_red": float(gaps.min()),
                                          "mean_solo_red_minus_joint_red": float(gaps.mean())}


def test_attribution_invariant_breaks_with_a_non_linear_split():
    """Red holds two of the three sources: a majority-amplifying split gives
    the joint process more red than copying a uniform donor's label does."""
    g, schedule = bipartite()
    dyn = skewed_split()
    with pytest.raises(CouplingHypothesisError, match="proportional"):
        coupled_run(g, [0, 2], [1], dyn, schedule, rng_for(0), mode=MODE_ATTRIBUTION)
    runs = [coupled_run(g, [0, 2], [1], dyn, schedule, rng_for(i), mode=MODE_ATTRIBUTION,
                        skip_preflight=True) for i in range(200)]
    assert sum(res.invariant_violations for res in runs) > 0
    # The total stays additive, so only the labels disagree.
    assert all(res.joint.chi_R + res.joint.chi_B == res.solo.chi_R + res.solo.chi_B
               for res in runs)
    assert sum(res.joint.chi_R for res in runs) > sum(res.solo.chi_R for res in runs)


def test_attribution_battery_reports_the_failures_it_is_built_to_catch():
    """With the preflight bypassed, couple_test's attribution battery counts
    label mismatches for a non-linear split and a nonzero total gap for a
    non-additive adoption function."""
    g, schedule = bipartite()
    with mock.patch.object(coupling, "require_mode_hypotheses"):
        skewed = couple_test(g, [0, 2], [1], skewed_split(), schedule, MODE_ATTRIBUTION,
                             runs=500, master_seed=11)
        damped = couple_test(g, [0], [1], non_additive(), schedule, MODE_ATTRIBUTION,
                             runs=500, master_seed=11)
    assert skewed.invariant_violations > 0
    assert skewed.inequality_margins == {"min_total_count_gap": 0.0, "max_total_count_gap": 0.0}
    assert damped.invariant_violations > 0
    assert damped.inequality_margins["min_total_count_gap"] < 0.0


# ---------------------------------------------------------------------------
# Batched statistical harness.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", [MODE_SOLO_VS_JOINT, MODE_JOINT_TOTAL])
def test_couple_test_inequality_modes_report_clean_margins(mode):
    g, schedule = two_hub()
    res = couple_test(g, [3], [0], sqrt_linear(), schedule, mode,
                      runs=600, master_seed=5)
    assert res.runs == 600
    assert res.invariant_violations == 0
    min_margin = min(v for k, v in res.inequality_margins.items() if k.startswith("min_"))
    assert min_margin >= 0.0
    assert set(res.p_values) == {"joint_chi_R", "joint_chi_B", "solo_chi_R"}
    assert all(p > 1e-3 for p in res.p_values.values())
    assert res.to_json_dict()["mode"] == mode


@pytest.mark.parametrize("mode, schedule", [
    (MODE_SOLO_VS_JOINT, SinglePassOrder(tuple(range(3, 9)))),
    (MODE_JOINT_TOTAL, SinglePassOrder(tuple(range(3, 9)))),
    (MODE_ATTRIBUTION, SinglePassOrder(tuple(range(3, 9)))),
    (MODE_ATTRIBUTION, ParallelRounds(3)),
    (MODE_ATTRIBUTION, ParallelRounds(3, immunity=True)),
])
def test_couple_test_does_not_depend_on_the_block_size(mode, schedule):
    # Three sources feeding six sinks: every sink adopts with an interior probability.
    g = Graph(n=9, edges=tuple((s, t) for s in range(3) for t in range(3, 9)))
    whole = couple_test(g, [0], [1], sqrt_linear(), schedule, mode, runs=50, master_seed=4)
    with mock.patch.object(engine, "_BLOCK_CELLS", 2 * (g.n + len(g.in_csr[1]))):
        in_blocks = couple_test(g, [0], [1], sqrt_linear(), schedule, mode, runs=50,
                                master_seed=4)
    assert in_blocks == whole


def test_couple_test_attribution_mode_reports_exact_count_identity():
    g, schedule = two_hub()
    res = couple_test(g, [3], [0], sqrt_linear(), schedule, "lemma3",
                      runs=600, master_seed=6)
    assert res.mode == MODE_ATTRIBUTION
    assert res.invariant_violations == 0
    assert res.inequality_margins["min_total_count_gap"] == 0.0
    assert res.inequality_margins["max_total_count_gap"] == 0.0
    assert set(res.p_values) == {"joint_chi_R", "joint_chi_B", "solo_chi_total"}
    assert all(p > 1e-3 for p in res.p_values.values())


def test_couple_test_schedule_and_argument_validation():
    g, schedule = two_hub()
    dyn = sqrt_linear()
    with pytest.raises(ValidationError, match="one-shot schedule"):
        couple_test(g, [3], [0], dyn, ParallelRounds(3), MODE_SOLO_VS_JOINT, runs=10)
    with pytest.raises(ValidationError, match="random_sequential"):
        couple_test(g, [3], [0], dyn, RandomSequential(5), MODE_ATTRIBUTION, runs=10)
    with pytest.raises(ValidationError, match="at least 2 runs"):
        couple_test(g, [3], [0], dyn, schedule, MODE_SOLO_VS_JOINT, runs=1)
    with pytest.raises(ValidationError, match="disjoint seed sets"):
        couple_test(g, [3], [3], dyn, ParallelRounds(2), MODE_ATTRIBUTION, runs=10)
    for runs in (2.5, "10", True, np.float64(10.0)):
        with pytest.raises(ValidationError, match="at least 2 runs, as an integer"):
            couple_test(g, [3], [0], dyn, schedule, MODE_SOLO_VS_JOINT, runs=runs)
    for seed in (-1, True, 1.5, "3"):
        with pytest.raises(ValidationError, match="master_seed must be a nonnegative integer"):
            couple_test(g, [3], [0], dyn, schedule, MODE_ATTRIBUTION, runs=10, master_seed=seed)
    assert couple_test(g, [3], [0], dyn, schedule, MODE_SOLO_VS_JOINT, runs=np.int64(4),
                       master_seed=np.uint32(3)).runs == 4


@pytest.mark.parametrize("immunity", [False, True])
def test_couple_test_attribution_accepts_parallel_rounds(immunity):
    g, _ = two_hub()
    res = couple_test(g, [3], [0], sqrt_linear(), ParallelRounds(2, immunity=immunity),
                      MODE_ATTRIBUTION, runs=400, master_seed=9)
    assert res.invariant_violations == 0
    assert res.inequality_margins["min_total_count_gap"] == 0.0
    assert res.inequality_margins["max_total_count_gap"] == 0.0
    assert all(p > 1e-3 for p in res.p_values.values())


# ---------------------------------------------------------------------------
# Exact two-sample KS p-values, checked against scipy.
# ---------------------------------------------------------------------------


def ks_sample_pairs(count, seed):
    """Equal-size integer sample pairs, sizes 2 to 10,000 (most below 300,
    so the exact sums stay cheap): overlapping samples with ties, constant
    samples equal and apart, and disjoint samples."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        if i % 50:
            n = int(rng.integers(2, 300))
        else:
            n = int(np.exp(rng.uniform(np.log(300), np.log(10_000))))
        hi = int(rng.integers(1, 30))
        x = rng.integers(0, hi, n)
        kind = i % 4
        if kind == 0:
            y = rng.integers(0, hi, n) + int(rng.integers(0, 3))
        elif kind == 1:
            x, y = np.full(n, hi), np.full(n, hi + int(rng.integers(0, 2)))
        elif kind == 2:
            y = rng.integers(0, hi, n) + hi
        else:
            y = np.where(rng.random(n) < rng.uniform(0, 0.2), rng.integers(0, hi, n), x)
        yield x, y


def test_ks_pvalue_matches_scipys_exact_path_bit_for_bit():
    from scipy.stats import ks_2samp

    compared = 0
    for x, y in ks_sample_pairs(10_000, seed=30):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                expected = float(ks_2samp(x, y).pvalue)
            except RuntimeWarning:
                # scipy's exact sum rounded past 1 and it went asymptotic.
                assert coupling._ks_pvalue(x, y) == 1.0
                continue
        assert coupling._ks_pvalue(x, y) == expected, (len(x), x[:8], y[:8])
        compared += 1
    assert compared >= 9_500
    assert coupling._ks_pvalue(np.array([0, 0]), np.array([1, 1])) == 1 / 3


def test_ks_pvalue_returns_the_exact_one_where_the_sum_rounds_past_it():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert coupling._ks_pvalue(np.zeros(7), np.r_[1.0, np.zeros(6)]) == 1.0


def test_ks_pvalue_above_10000_runs_is_near_scipys_asymptotic_value():
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(31)
    for n, shift in ((10_001, 0.0), (10_001, 0.02), (20_000, 0.01), (20_000, 0.03)):
        x = rng.integers(0, 40, n)
        y = rng.integers(0, 40, n) + (rng.random(n) < shift)
        assert abs(coupling._ks_pvalue(x, y) - ks_2samp(x, y).pvalue) < 5e-3


# ---------------------------------------------------------------------------
# Layer orders built from ids and from runs drive identical runs.
# ---------------------------------------------------------------------------


@st.composite
def run_built_instances(draw):
    """A random digraph, disjoint red and blue seeds, and a layer order over
    some of its vertices (unsorted layers, gaps, empty layers) given both as
    ids and as runs split at arbitrary points."""
    n = draw(st.integers(2, 10))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda e: e[0] != e[1]), max_size=3 * n))
    graph = Graph(n=n, edges=tuple(sorted(edges)), directed=True)
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=4)) | {0, n})
    blocks = draw(st.permutations([(a, b) for a, b in zip(cuts, cuts[1:]) if draw(st.booleans())]))
    n_layers = draw(st.integers(1, 4))
    layers = [[] for _ in range(n_layers)]
    runs = [[] for _ in range(n_layers)]
    for a, b in blocks:
        k = draw(st.integers(0, n_layers - 1))
        if draw(st.booleans()):
            layers[k].extend(range(b - 1, a - 1, -1))
            runs[k].extend((v, v + 1) for v in range(b - 1, a - 1, -1))
        else:
            mid = draw(st.integers(a, b))
            layers[k].extend(range(a, b))
            runs[k].extend([(a, mid), (mid, b)])
    order = draw(st.permutations(range(n)))
    seeded = draw(st.integers(2, min(4, n)))
    n_red = draw(st.integers(1, seeded - 1))
    return graph, layers, runs, list(order[:n_red]), list(order[n_red:seeded])


@settings(max_examples=60, deadline=None)
@given(run_built_instances(), st.integers(0, 2**32 - 1))
def test_layer_orders_from_ids_and_from_runs_give_identical_results(instance, seed):
    graph, layers, runs, red, blue = instance
    dyn = sqrt_linear()
    profile = StrategyProfile(Allocation.from_seeds(graph.n, red),
                              Allocation.from_seeds(graph.n, blue))
    results = []
    for schedule in (LayerOrder(layers), LayerOrder.from_runs(runs)):
        game = GameSpec(graph, dyn, schedule, len(red), len(blue))
        chi_r, chi_b = sample_payoffs(game, profile, 12, master_seed=seed)
        coupled = [couple_test(graph, red, blue, dyn, schedule, mode, runs=8,
                               master_seed=seed).to_json_dict()
                   for mode in (MODE_SOLO_VS_JOINT, MODE_JOINT_TOTAL, MODE_ATTRIBUTION)]
        results.append((chi_r.tolist(), chi_b.tolist(), coupled, exact_payoffs(game, profile)))
    assert results[0] == results[1]
