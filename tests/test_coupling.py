"""Coupled-process runs: invariants, hypothesis preflight, and the schedule
restrictions (with exact counterexamples for the refused schedules).  The
batched coupled path is checked run by run against a vertex-by-vertex
reference model kept here."""

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
    attribution_run,
    canonical_mode,
    check_linear_split,
    couple_test,
    coupled_attribution_run,
    coupled_run,
    exact_payoffs,
    filter_phase_candidates,
    linear_selection,
    LayerOrder,
    load_dynamics,
    neighbor_fractions,
    require_mode_hypotheses,
)
from contagion_games import engine
from contagion_games.coupling import _CoupledKernel
from contagion_games.engine import _Draws, sample_payoffs


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
    with pytest.raises(ValidationError, match="one-shot schedule"):
        coupled_run(g, [3], [0], sqrt_linear(), ParallelRounds(3), rng_for(0))
    with pytest.raises(ValidationError, match="coupled_attribution_run"):
        coupled_run(g, [3], [0], sqrt_linear(), schedule, rng_for(0),
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
    """One coupled run, vertex by vertex: each phase draws one uniform per
    vertex that is a candidate in either process, in ascending vertex order,
    and the violating vertices are counted after every phase.  Returns the
    joint and solo states and the violation count."""
    joint = [UNINFECTED] * graph.n
    for v in red_seeds:
        joint[v] = RED
    solo = list(joint)
    for v in blue_seeds:
        joint[v] = BLUE
    no_immune = [False] * graph.n
    cursor = schedule.initial_cursor()
    violations = 0
    while True:
        options = schedule.phase_options(graph, joint, no_immune, cursor)
        if options is None:
            break
        _, phase, cursor = options[0]
        cands_joint = set(filter_phase_candidates(graph, joint, no_immune, phase))
        cands_solo = set(filter_phase_candidates(graph, solo, no_immune, phase))
        pend_joint, pend_solo = [], []
        for v in sorted(cands_joint | cands_solo):
            z = rng.random()
            if v in cands_joint:
                a, b = neighbor_fractions(graph, joint, v)
                pr, pb, _ = dyn.update_probs(a, b)
                if z < pr:
                    pend_joint.append((v, RED))
                elif z < pr + pb:
                    pend_joint.append((v, BLUE))
            if v in cands_solo:
                ar, _ = neighbor_fractions(graph, solo, v)
                if z < dyn.prob_red(ar, 0.0):
                    pend_solo.append(v)
        for v, color in pend_joint:
            joint[v] = color
        for v in pend_solo:
            solo[v] = RED
        if mode == MODE_SOLO_VS_JOINT:
            violations += sum(1 for xj, xs in zip(joint, solo) if xj == RED and xs != RED)
        else:
            violations += sum(1 for xj, xs in zip(joint, solo) if xs == RED and xj == UNINFECTED)
    return joint, solo, violations


def convex_linear():
    """Not competitive: an opponent can raise one's infection probability,
    so the solo-vs-joint invariant can break (with the preflight skipped)."""
    return SwitchSelectAdoption(PowerSwitch(2.0), linear_selection())


@st.composite
def coupled_instances(draw):
    n = draw(st.integers(2, 10))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda e: e[0] != e[1]), max_size=3 * n))
    graph = Graph(n=n, edges=tuple(sorted(edges)), directed=True)
    order = draw(st.permutations(range(n)))
    seeded = draw(st.integers(1, min(3, n)))
    n_red = draw(st.integers(1, seeded))
    # The CLI expands seed counts into repeated vertex ids.
    red = [v for v in order[:n_red] for _ in range(draw(st.integers(1, 2)))]
    blue = list(order[n_red:seeded])
    listed = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    if draw(st.booleans()):
        schedule = SinglePassOrder(tuple(listed))
    else:
        cuts = sorted(draw(st.lists(st.integers(0, len(listed)), min_size=2, max_size=2)))
        schedule = LayerOrder((tuple(listed[:cuts[0]]), tuple(listed[cuts[0]:cuts[1]]),
                               tuple(listed[cuts[1]:])))
    return graph, red, blue, schedule


@settings(max_examples=150, deadline=None)
@given(instance=coupled_instances(),
       dyn=st.sampled_from([sqrt_linear(), convex_linear()]),
       mode=st.sampled_from([MODE_SOLO_VS_JOINT, MODE_JOINT_TOTAL]),
       block=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_batched_coupled_runs_match_the_reference_model(instance, dyn, mode, block, seed):
    graph, red, blue, schedule = instance
    kernel = _CoupledKernel(graph, red, blue, dyn, schedule, mode)
    rngs = [np.random.default_rng([seed, row]) for row in range(block)]
    joint, solo, violations = kernel.run(_Draws(rngs, kernel.draw_width))
    for row in range(block):
        ref_joint, ref_solo, ref_violations = reference_coupled_run(
            graph, red, blue, dyn, schedule, np.random.default_rng([seed, row]), mode)
        assert joint[row].tolist() == ref_joint
        assert solo[row].tolist() == ref_solo
        assert violations[row] == ref_violations
    target(float(violations.sum()))  # steer the search toward runs that break the invariant

    # The one-row public call: states, counts, violations, and the generator
    # left where the reference leaves it.
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    res = coupled_run(graph, red, blue, dyn, schedule, rng, mode=mode, skip_preflight=True)
    ref_joint, ref_solo, ref_violations = reference_coupled_run(
        graph, red, blue, dyn, schedule, ref_rng, mode)
    assert list(res.joint.state) == ref_joint and list(res.solo.state) == ref_solo
    assert (res.joint.chi_R, res.joint.chi_B) == (ref_joint.count(RED), ref_joint.count(BLUE))
    assert (res.solo.chi_R, res.solo.chi_B) == (ref_solo.count(RED), 0)
    assert res.invariant_violations == ref_violations
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("schedule", [
    SinglePassOrder((3, 4, 5, 2, 6)),
    LayerOrder(((4, 3), (6, 5, 2))),
])
def test_batched_violation_counter_fires_without_the_preflight(schedule):
    """Convex switching breaks solo-vs-joint: blue's seed raises the chance
    that red's neighbors adopt.  The batched count equals the reference's,
    summed after every phase of the schedule, and is nonzero."""
    g = Graph(n=7, edges=((0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 6), (3, 6),
                          (4, 6), (5, 6)), directed=True)
    dyn = convex_linear()
    with pytest.raises(CouplingHypothesisError):
        require_mode_hypotheses(MODE_SOLO_VS_JOINT, dyn, g)
    kernel = _CoupledKernel(g, [0], [1], dyn, schedule, MODE_SOLO_VS_JOINT)
    rngs = [rng_for(i) for i in range(300)]
    joint, solo, violations = kernel.run(_Draws(rngs, kernel.draw_width))
    total = 0
    for i in range(300):
        ref_joint, ref_solo, ref_violations = reference_coupled_run(
            g, [0], [1], dyn, schedule, rng_for(i), MODE_SOLO_VS_JOINT)
        assert (joint[i].tolist(), solo[i].tolist(), violations[i]) == (
            ref_joint, ref_solo, ref_violations)
        total += ref_violations
    assert total > 0
    res = couple_test(g, [0], [1], sqrt_linear(), schedule, MODE_SOLO_VS_JOINT, runs=50)
    assert res.invariant_violations == 0


# ---------------------------------------------------------------------------
# Attribution runs.
# ---------------------------------------------------------------------------


def test_attribution_counts_partition_the_infected_set():
    g, schedule = two_hub()
    dyn = sqrt_linear()
    for i in range(100):
        out = attribution_run(g, [3, 0], dyn, schedule, rng_for(i), skip_preflight=True)
        assert sum(out.per_seed_counts) == out.chi_total
        assert out.labels[3] == 0 and out.labels[0] == 1
        for v, label in enumerate(out.labels):
            assert (label == -1) == (out.chi_total == 0 or v not in
                                     [u for u, l in enumerate(out.labels) if l >= 0])
        # followers of hub 3 can only be reached from seed 0 of the list
        for v in range(4, 13):
            assert out.labels[v] in (-1, 0)
        for v in (1, 2):
            assert out.labels[v] in (-1, 1)


def test_attribution_runs_on_parallel_rounds_but_not_random_order():
    g, _ = two_hub()
    out = attribution_run(g, [3], sqrt_linear(), ParallelRounds(2), rng_for(1))
    assert out.chi_total >= 1
    with pytest.raises(ValidationError, match="random_sequential is not supported"):
        attribution_run(g, [3], sqrt_linear(), RandomSequential(5), rng_for(1))
    with pytest.raises(ValidationError, match="distinct vertices"):
        attribution_run(g, [3, 3], sqrt_linear(), ParallelRounds(2), rng_for(1))


def test_coupled_attribution_counts_match_label_by_label():
    g, schedule = two_hub()
    dyn = sqrt_linear()
    for i in range(100):
        res = coupled_attribution_run(g, [0, 3], 1, dyn, schedule, rng_for(i),
                                      skip_preflight=True)
        assert res.invariant_violations == 0
        assert res.joint_chi_R + res.joint_chi_B == res.solo.chi_total
        assert res.joint_chi_B == res.solo.per_seed_counts[0]
    with pytest.raises(ValidationError, match="out of range"):
        coupled_attribution_run(g, [0, 3], 3, dyn, schedule, rng_for(0))


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


@pytest.mark.parametrize("mode", [MODE_SOLO_VS_JOINT, MODE_JOINT_TOTAL])
def test_couple_test_does_not_depend_on_the_block_size(mode):
    # Three sources feeding six sinks: every sink adopts with an interior probability.
    g = Graph(n=9, edges=tuple((s, t) for s in range(3) for t in range(3, 9)))
    schedule = SinglePassOrder(tuple(range(3, 9)))
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


def test_couple_test_attribution_accepts_parallel_rounds():
    g, _ = two_hub()
    res = couple_test(g, [3], [0], sqrt_linear(), ParallelRounds(2),
                      MODE_ATTRIBUTION, runs=400, master_seed=9)
    assert res.invariant_violations == 0
    assert res.inequality_margins["max_total_count_gap"] == 0.0


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
