"""Allocations, strategy profiles, contested seeds, and the payoff oracles."""

import dataclasses
import pickle
import re
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contagion_games import coupling, engine, equilibrium
from contagion_games.coupling import _CoupledKernel, couple_test
from stream_reference import (SplitMix64, fold, replication_key, replication_rng, seed_key,
                              support_pair)
from contagion_games import (
    EXACT_ENUMERATION,
    EXACT_LAYERED_DP,
    MONTE_CARLO,
    AdoptionFunction,
    Allocation,
    BuiltinAdoption,
    DynamicsDefinitionError,
    GameSpec,
    Graph,
    HalfPointSwitch,
    LayerOrder,
    LayeredStructure,
    MODE_ATTRIBUTION,
    MODE_SOLO_VS_JOINT,
    MixedAllocation,
    ParallelRounds,
    PayoffEstimate,
    PayoffOracle,
    PowerSwitch,
    RandomSequential,
    ScheduleError,
    SinglePassOrder,
    StateSpaceCapError,
    StrategyProfile,
    SwitchSelectAdoption,
    TullockSelection,
    ValidationError,
    enumerate_allocations,
    estimate_payoffs,
    exact_payoffs,
    layered_estimate_payoffs,
    linear_selection,
    load_profile,
    resolve_contested_seeds,
    run_contagion,
    split_seeds,
)


def linear_dyn():
    return SwitchSelectAdoption(PowerSwitch(1.0), linear_selection())


def test_method_constants_pin_the_wire_format():
    assert EXACT_ENUMERATION == "exact-enumeration"
    assert EXACT_LAYERED_DP == "exact-layered-dp"
    assert MONTE_CARLO == "monte-carlo"


# ---------------------------------------------------------------------------
# Allocations and profiles.
# ---------------------------------------------------------------------------


def test_allocation_basics():
    a = Allocation((0, 2, 1))
    assert a.n == 3
    assert a.budget == 3
    assert a.seeded_vertices() == (1, 2)
    assert Allocation.empty(4).budget == 0


def test_allocation_rejects_negative_and_fractional_counts():
    with pytest.raises(ValidationError, match="nonnegative integer"):
        Allocation((1, -1))
    with pytest.raises(ValidationError, match="nonnegative integer"):
        Allocation((0.5, 1))


def test_allocation_rejects_non_sequences():
    with pytest.raises(ValidationError, match="sequence"):
        Allocation(7)


def test_from_seeds_accumulates_duplicates():
    a = Allocation.from_seeds(4, [2, 2, 0])
    assert a.counts == (1, 0, 2, 0)
    with pytest.raises(ValidationError, match="not a vertex id"):
        Allocation.from_seeds(4, [4])


def test_move_seed():
    a = Allocation((2, 0, 1))
    assert a.move_seed(0, 1).counts == (1, 1, 1)
    with pytest.raises(ValidationError, match="no seed"):
        a.move_seed(1, 0)
    # Onto an existing seed, and off a vertex's last seed.
    b = Allocation((1, 0, 2))
    assert b.move_seed(0, 2).seeds == ((2, 3),)
    assert b.move_seed(2, 1).seeds == ((0, 1), (1, 1), (2, 1))
    with pytest.raises(ValidationError, match="not a vertex id"):
        b.move_seed(0, 3)


def test_allocations_reject_boolean_counts_and_vertex_ids():
    with pytest.raises(ValidationError, match="vertex 0 must be a nonnegative integer, got True"):
        Allocation((True, 0, 0))
    with pytest.raises(ValidationError, match="vertex 2 must be a nonnegative integer"):
        Allocation([0, 1, np.bool_(True)])
    with pytest.raises(ValidationError, match="seed vertex True is not a vertex id"):
        Allocation.from_seeds(3, [True])
    with pytest.raises(ValidationError, match="seed vertex False is not a vertex id"):
        Allocation.from_seeds(3, [1]).move_seed(1, False)


@st.composite
def dense_counts(draw, n=None):
    n = draw(st.integers(0, 9)) if n is None else n
    return draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(counts=dense_counts(), data=st.data())
def test_allocation_matches_a_dense_model(counts, data):
    n = len(counts)
    seeded = tuple(v for v, c in enumerate(counts) if c)
    seed_list = data.draw(st.permutations([v for v, c in enumerate(counts) for _ in range(c)]))
    routes = [Allocation(tuple(counts)), Allocation(list(counts)),
              Allocation(np.array(counts, dtype=np.int64)), Allocation.from_seeds(n, seed_list)]
    if not seeded:
        routes.append(Allocation.empty(n))
    for a in routes:
        assert a.n == n
        assert a.counts == tuple(counts)
        assert all(type(c) is int for c in a.counts)
        assert a.budget == sum(counts)
        assert a.seeded_vertices() == seeded
        assert a.seeds == tuple((v, counts[v]) for v in seeded)
        assert a == routes[0] and hash(a) == hash(routes[0])
        copy = pickle.loads(pickle.dumps(a))
        assert copy == a and hash(copy) == hash(a) and copy.counts == a.counts

    other = data.draw(dense_counts(n))
    assert (Allocation(other) == routes[0]) == (other == counts)
    assert Allocation(counts + [0]) != routes[0]

    if seeded:
        src = data.draw(st.sampled_from(seeded))
        dst = data.draw(st.integers(0, n - 1))
        model = list(counts)
        model[src] -= 1
        model[dst] += 1
        moved = routes[3].move_seed(src, dst)
        assert moved.counts == tuple(model)
        assert moved == Allocation(model) and hash(moved) == hash(Allocation(model))
        assert moved.budget == sum(counts)
        assert routes[0].counts == tuple(counts)  # the original is unchanged


def test_sparse_allocations_take_little_memory_on_a_million_vertices():
    n = 10**6
    tracemalloc.start()
    try:
        red = Allocation.from_seeds(n, [5, n - 1, 5])
        blue = red.move_seed(n - 1, 17).move_seed(5, 17)
        assert split_seeds(red, blue) == ([n - 1], [17], [(5, 2 / 3)])
        assert red.budget == blue.budget == 3
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_split_seeds_sorts_out_who_seeded_what():
    red = Allocation((0, 2, 1, 0, 3))
    blue = Allocation((1, 1, 0, 1, 0))
    assert split_seeds(red, blue) == ([2, 4], [0, 3], [(1, 2 / 3)])
    with pytest.raises(ValidationError, match="disagree on vertex count"):
        split_seeds(red, Allocation.empty(4))


def test_long_count_vectors_take_the_vectorized_path():
    n = 120_000
    counts = np.zeros(n, dtype=np.int64)
    counts[17] = 2
    counts[99_999] = 1
    a = Allocation(tuple(counts.tolist()))
    b = Allocation(counts)
    assert a == b
    assert b.seeded_vertices() == (17, 99_999)

    bad = counts.copy()
    bad[55] = -3
    with pytest.raises(ValidationError, match="vertex 55"):
        Allocation(bad)


def test_mixed_allocation_validation():
    a, b = Allocation((1, 0)), Allocation((0, 1))
    mixed = MixedAllocation(((0.25, a), (0.75, b)))
    assert mixed.n == 2
    assert mixed.budget == 1
    with pytest.raises(ValidationError, match="sum to"):
        MixedAllocation(((0.25, a), (0.25, b)))
    with pytest.raises(ValidationError, match="disagree on budget"):
        MixedAllocation(((0.5, a), (0.5, Allocation((1, 1)))))
    with pytest.raises(ValidationError, match="disagree on vertex count"):
        MixedAllocation(((0.5, a), (0.5, Allocation((1, 0, 0)))))
    with pytest.raises(ValidationError, match="at least one entry"):
        MixedAllocation(())
    with pytest.raises(ValidationError, match="outside"):
        MixedAllocation(((1.5, a), (-0.5, b)))
    for p in ("0.5", True, None):
        with pytest.raises(ValidationError, match="must be a real number"):
            MixedAllocation(((p, a), (0.5, b)))


def test_profile_support_pairs():
    red = MixedAllocation(((0.5, Allocation((1, 0))), (0.5, Allocation((0, 1)))))
    blue = Allocation((1, 0))
    pairs = StrategyProfile(red, blue).support_pairs()
    assert len(pairs) == 2
    assert sum(p for p, _, _ in pairs) == pytest.approx(1.0)
    pure = StrategyProfile(Allocation((1, 0)), blue).support_pairs()
    assert pure == ((1.0, Allocation((1, 0)), blue),)


def test_profile_vertex_count_mismatch():
    with pytest.raises(ValidationError, match="disagree on vertex count"):
        StrategyProfile(Allocation((1, 0)), Allocation((1, 0, 0)))


def test_load_profile_round_trip_pure_and_mixed():
    pure = StrategyProfile(Allocation((1, 0, 0)), Allocation((0, 0, 2)))
    assert load_profile(pure.to_json_dict()) == pure
    mixed = StrategyProfile(
        MixedAllocation(((0.5, Allocation((1, 0, 0))), (0.5, Allocation((0, 1, 0))))),
        Allocation((0, 0, 1)),
    )
    assert load_profile(mixed.to_json_dict()) == mixed
    import json
    assert load_profile(json.dumps(pure.to_json_dict())) == pure


@pytest.mark.parametrize("doc, pattern", [
    ({"red": {"counts": [1, 0]}}, "blue"),
    ({"blue": {"counts": [1, 0]}}, "red"),
    ({"red": {"seeds": [0]}, "blue": {"counts": [1, 0]}}, "'counts' list"),
    ({"red": [{"counts": [1, 0]}], "blue": {"counts": [1, 0]}}, "'p' and 'counts'"),
    ({"red": "v0", "blue": {"counts": [1, 0]}}, "must be an object"),
    # A probability is a JSON number: a string, a list, null or a bool is refused.
    *(({"red": [{"p": p, "counts": [1, 0]}], "blue": {"counts": [1, 0]}},
       "mixed-allocation probability must be a real number, got " + re.escape(repr(p)))
      for p in ("abc", [1], None, True)),
])
def test_load_profile_error_cases(doc, pattern):
    with pytest.raises(ValidationError, match=pattern):
        load_profile(doc)


def test_game_spec_requires_positive_budgets():
    g = Graph(n=2, edges=((0, 1),))
    with pytest.raises(ValidationError, match="budget_red"):
        GameSpec(g, linear_dyn(), ParallelRounds(1), budget_red=0, budget_blue=1)


@pytest.mark.parametrize("budgets, name", [((True, 1), "budget_red"), ((1, 1.0), "budget_blue"),
                                           ((1, False), "budget_blue")])
def test_game_spec_refuses_booleans_and_floats_as_budgets(budgets, name):
    g = Graph(n=2, edges=((0, 1),))
    with pytest.raises(ValidationError, match=f"{name} must be a positive integer"):
        GameSpec(g, linear_dyn(), ParallelRounds(1), *budgets)


# ---------------------------------------------------------------------------
# Contested-seed resolution.
# ---------------------------------------------------------------------------


def test_uncontested_seeds_color_deterministically():
    red = Allocation((1, 0, 0))
    blue = Allocation((0, 2, 0))
    state = resolve_contested_seeds(red, blue, np.random.default_rng(0))
    assert state == [1, 2, 0]  # RED, BLUE, UNINFECTED


def test_contested_seed_splits_proportionally_to_counts():
    red = Allocation((3,))
    blue = Allocation((1,))
    rng = np.random.default_rng(42)
    wins = sum(resolve_contested_seeds(red, blue, rng)[0] == 1 for _ in range(4000))
    # P(red) = 3/4; 3 sigma over 4000 draws is about 0.021
    assert wins / 4000 == pytest.approx(0.75, abs=0.021)


def test_contested_resolution_rejects_mismatched_lengths():
    with pytest.raises(ValidationError, match="disagree"):
        resolve_contested_seeds(Allocation((1,)), Allocation((1, 0)),
                                np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Exact oracle: hand-computed expectations.
# ---------------------------------------------------------------------------


def test_exact_contested_singleton_is_a_coin_flip():
    game = GameSpec(Graph(n=1, edges=()), linear_dyn(), ParallelRounds(1), 1, 1)
    est = exact_payoffs(game, StrategyProfile(Allocation((1,)), Allocation((1,))))
    assert (est.pi_R, est.pi_B) == (0.5, 0.5)
    assert est.method == EXACT_ENUMERATION
    assert est.n_trials == 0
    assert est.stderr_R == 0.0


def test_exact_deterministic_path():
    g = Graph(n=3, edges=((0, 1), (1, 2)))
    game = GameSpec(g, linear_dyn(), SinglePassOrder((1, 2)), 1, 1)
    est = exact_payoffs(game, StrategyProfile(Allocation((1, 0, 0)), Allocation((0, 0, 1))))
    assert (est.pi_R, est.pi_B) == (2.0, 1.0)


def test_exact_contested_star_is_winner_take_all():
    g = Graph(n=3, edges=((0, 1), (0, 2)))
    game = GameSpec(g, linear_dyn(), ParallelRounds(2), 1, 1)
    est = exact_payoffs(game, StrategyProfile(Allocation((1, 0, 0)), Allocation((1, 0, 0))))
    assert (est.pi_R, est.pi_B) == (1.5, 1.5)


def test_exact_stochastic_two_hop_chain():
    # 0 -> 1 -> 2 with f(x) = x and a lone red seed: vertex 1 is red with
    # probability 1; in the second round vertex 2 follows with probability 1.
    # With f(x) = x^2 under fractions of 1 the result is the same, so use a
    # halfpoint switch evaluated away from its endpoints instead.
    g = Graph(n=3, edges=((0, 1), (0, 2), (1, 2)))
    dyn = SwitchSelectAdoption(HalfPointSwitch(0.2), linear_selection())
    game = GameSpec(g, dyn, ParallelRounds(2), 1, 1)
    est = exact_payoffs(game, StrategyProfile(Allocation((1, 0, 0)), Allocation((0, 0, 0))))
    # round 1: v1 turns red w.p. f(1)=1; v2 sees half its in-neighbors, w.p. f(1/2)=0.2
    # round 2: if v2 still clean it now sees both in-neighbors red: f(1)=1
    assert est.pi_R == pytest.approx(3.0)
    blue_far = StrategyProfile(Allocation((1, 0, 0)), Allocation((0, 1, 0)))
    est2 = exact_payoffs(game, blue_far)
    # blue holds v1, so v2 sees (1/2, 1/2): round 1 f(1/2)=0.2 then split evenly;
    # round 2 (if clean) f(1)=1 split evenly -> P(v2 red) = 0.1 + 0.8*0.5 = 0.5
    assert est2.pi_R == pytest.approx(1.5)
    assert est2.pi_B == pytest.approx(1.5)


class ParallelRoundsToTheEnd(ParallelRounds):
    """Parallel rounds that run all `max_rounds` rounds, even one that
    changes nothing."""

    stop_on_no_change = False


def test_stopping_on_a_quiet_round_can_lower_the_total_when_a_seed_is_added():
    """A random 8-vertex game, f(x) = sqrt(x), linear selection, red alone.
    Stopping on a round that changes nothing makes the expected total
    non-monotone in the seed set: adding seed 6 to {4} lowers it.  Running
    every round restores monotonicity here."""
    edges = ((0, 2), (0, 3), (0, 5), (1, 4), (2, 1), (2, 7), (3, 0), (3, 1), (3, 2), (3, 7),
             (4, 2), (4, 3), (4, 6), (5, 0), (5, 3), (5, 6), (6, 5), (7, 0), (7, 1), (7, 4),
             (7, 5))
    dyn = SwitchSelectAdoption(PowerSwitch(0.5), linear_selection())
    totals = {}
    for schedule in (ParallelRounds(8), ParallelRoundsToTheEnd(8)):
        game = GameSpec(Graph(n=8, edges=edges), dyn, schedule, 1, 1)
        totals[type(schedule)] = [
            exact_payoffs(game, StrategyProfile(Allocation.from_seeds(8, red),
                                                Allocation.empty(8))).joint
            for red in ([4], [4, 6])]
    assert totals[ParallelRounds] == pytest.approx([7.520214201541579, 7.502009869750845],
                                                   rel=1e-12)
    assert totals[ParallelRoundsToTheEnd] == pytest.approx(
        [7.999990540048848, 7.999998023255252], rel=1e-12)


def test_exact_handles_mixed_profiles():
    g = Graph(n=2, edges=())
    game = GameSpec(g, linear_dyn(), ParallelRounds(1), 1, 1)
    red = MixedAllocation(((0.5, Allocation((1, 0))), (0.5, Allocation((0, 1)))))
    est = exact_payoffs(game, StrategyProfile(red, Allocation((1, 0))))
    assert est.pi_R == pytest.approx(0.75)
    assert est.pi_B == pytest.approx(0.75)


def test_exact_rejects_allocations_of_the_wrong_length():
    game = GameSpec(Graph(n=2, edges=()), linear_dyn(), ParallelRounds(1), 1, 1)
    with pytest.raises(ValidationError, match="does not match the graph"):
        exact_payoffs(game, StrategyProfile(Allocation((1, 0, 0)), Allocation((0, 1, 0))))


def hub_and_chain(n=13):
    """A hub feeding every vertex of the chain 1 -> 2 -> ... -> n-1."""
    edges = [(0, i) for i in range(1, n)] + [(i, i + 1) for i in range(1, n - 1)]
    return Graph(n=n, edges=tuple(edges))


def test_exact_enumeration_respects_the_node_cap():
    # a hub plus a chain of in-degree-2 vertices: every chain vertex flips a
    # fair coin in round 1, so the outcome tree branches exponentially
    n = 13
    dyn = SwitchSelectAdoption(HalfPointSwitch(0.5), linear_selection())
    game = GameSpec(hub_and_chain(n), dyn, ParallelRounds(3), 1, 1)
    profile = StrategyProfile(Allocation.from_seeds(n, [0]), Allocation.from_seeds(n, [0]))
    with pytest.raises(StateSpaceCapError, match="cap"):
        exact_payoffs(game, profile, node_cap=100)


def node_count_case(name):
    dyn = SwitchSelectAdoption(HalfPointSwitch(0.5), linear_selection())
    on = lambda n, v: Allocation.from_seeds(n, [v])
    if name == "mc_game_random_sequential":
        return GameSpec(mc_game().graph, dyn, RandomSequential(4), 1, 1), \
            StrategyProfile(on(6, 0), on(6, 0))
    schedule = {"parallel_rounds": ParallelRounds(3),
                "parallel_rounds_immunity": ParallelRounds(3, immunity=True),
                "single_pass": SinglePassOrder(tuple(range(1, 13)))}[name]
    blue = 1 if name == "single_pass" else 0
    return GameSpec(hub_and_chain(), dyn, schedule, 1, 1), StrategyProfile(on(13, 0), on(13, blue))


# Outcome-tree sizes: one node per contested-seed resolution, per phase
# option, per outcome of each branching candidate, and per phase reached.
@pytest.mark.parametrize("name, size", [
    ("parallel_rounds", 321_992),
    ("parallel_rounds_immunity", 12_292),
    ("single_pass", 210),
    ("mc_game_random_sequential", 394),
])
def test_exact_enumeration_counts_every_tree_node_against_the_cap(name, size):
    game, profile = node_count_case(name)
    exact_payoffs(game, profile, node_cap=size)
    with pytest.raises(StateSpaceCapError, match="cap"):
        exact_payoffs(game, profile, node_cap=size - 1)


def test_enumeration_skips_a_zero_probability_support_entry():
    """The zero-probability entry is never enumerated: the profile fits the
    node cap of the profile without it."""
    game, profile = node_count_case("single_pass")
    red = MixedAllocation(((1.0, profile.red), (0.0, Allocation.from_seeds(13, [5]))))
    with_zero = exact_payoffs(game, StrategyProfile(red, profile.blue), node_cap=210)
    assert with_zero == exact_payoffs(game, profile, node_cap=210)


@dataclasses.dataclass(frozen=True)
class StoppingRandomSequential(RandomSequential):
    """A schedule with several phase options that stops on a step that
    changes nothing."""

    stop_on_no_change = True


def payoff_pin_case(name):
    graph = Graph(n=7, edges=((0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 5), (6, 4)))
    dyn = SwitchSelectAdoption(PowerSwitch(0.5), TullockSelection(0.75))
    seeds = lambda *vs: Allocation.from_seeds(7, list(vs))
    # Red wins the contested vertex 0 with probability 2/3.
    contested = StrategyProfile(seeds(0, 0), seeds(0, 2))
    schedule, profile = {
        "contested_seed": (ParallelRounds(4), contested),
        # 5 is a sink, contested: its color counts only in the tally.
        "contested_sink_seed": (ParallelRounds(4), StrategyProfile(seeds(0, 5), seeds(2, 5))),
        "immunity": (ParallelRounds(4, immunity=True), contested),
        "random_sequential": (RandomSequential(4), contested),
        "stop_among_options": (StoppingRandomSequential(4), contested),
        "single_pass": (SinglePassOrder((1, 3, 4, 5)), contested),
        "layer_order": (LayerOrder([(1, 3), (5,), (4,)]), contested),
        "mixed": (ParallelRounds(3), StrategyProfile(
            MixedAllocation(((0.3, seeds(0, 0)), (0.7, seeds(0, 1)))), seeds(0, 2))),
    }[name]
    return GameSpec(graph, dyn, schedule, 2, 2), profile


# Exact payoffs pinned bit for bit, so that any change to the order in which
# the walk sums its leaves shows.  Vertex 4 reads the never-seeded vertex 6,
# so under parallel rounds a round in which 4 alone stays clean stops the run;
# a stop among several options is summed in its place among their outcomes.
@pytest.mark.parametrize("name, pi_r, pi_b", [
    ("contested_seed", "0x1.8000000000000p+0", "0x1.0d413cccfe77ap+2"),
    ("contested_sink_seed", "0x1.6000000000000p+1", "0x1.7a827999fcef4p+1"),
    ("immunity", "0x1.5555555555555p+0", "0x1.efd7ceef52449p+1"),
    ("random_sequential", "0x1.9c79fe3087e02p+0", "0x1.f8910c6d87598p+1"),
    ("stop_among_options", "0x1.7c56fbbbfdf4ep+0", "0x1.ceed8dde51c17p+1"),
    ("single_pass", "0x1.e701a666a89f6p+0", "0x1.e701a666a89f7p+1"),
    ("layer_order", "0x1.5555555555555p+0", "0x1.efd7ceef52449p+1"),
    ("mixed", "0x1.0c7a775c4bba2p+1", "0x1.ce08023db1352p+1"),
])
def test_exact_payoffs_are_pinned_bit_for_bit(name, pi_r, pi_b):
    est = exact_payoffs(*payoff_pin_case(name))
    assert (est.pi_R.hex(), est.pi_B.hex()) == (pi_r, pi_b)


@pytest.mark.parametrize("schedule", [ParallelRounds(3), RandomSequential(3)])
def test_exact_payoffs_evaluate_each_fraction_pair_once(schedule):
    """The hub-and-chain tree meets the same in-neighbour fractions at many
    nodes; one `exact_payoffs` call asks the dynamics for each pair once."""
    dyn = CountingQuadraticDamped()
    game = GameSpec(hub_and_chain(8), dyn, schedule, 1, 1)
    profile = StrategyProfile(Allocation.from_seeds(8, [0]), Allocation.from_seeds(8, [3]))
    exact_payoffs(game, profile)
    assert dyn.calls
    assert len(dyn.calls) == len(set(dyn.calls))
    # One oracle walks every pure profile with one enumerator, which asks
    # for each pair once across all of them.
    dyn.calls.clear()
    allocations = enumerate_allocations(8, 1)
    PayoffOracle(game).fill([(red, blue) for red in allocations for blue in allocations])
    assert dyn.calls
    assert len(dyn.calls) == len(set(dyn.calls))


@st.composite
def enumeration_games(draw):
    """A 3-6-vertex digraph under one of the five schedules, with budgets
    1 or 2, and a node cap that some profiles' trees exceed."""
    n = draw(st.integers(min_value=3, max_value=6))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    keep = draw(st.lists(st.booleans(), min_size=len(possible), max_size=len(possible)))
    graph = Graph(n=n, edges=tuple(e for e, k in zip(possible, keep) if k))
    perm = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))))
    steps = draw(st.integers(1, 3))
    schedule = draw(st.sampled_from((
        SinglePassOrder(tuple(perm[:draw(st.integers(0, n))])),
        LayerOrder([perm[a:b] for a, b in zip([0] + cuts, cuts + [n])]),
        ParallelRounds(steps),
        ParallelRounds(steps, immunity=True),
        RandomSequential(steps))))
    dyn = draw(st.sampled_from((SwitchSelectAdoption(PowerSwitch(1.0), linear_selection()),
                                SwitchSelectAdoption(HalfPointSwitch(0.2), TullockSelection(2.0)),
                                BuiltinAdoption("quadratic_damped"))))
    game = GameSpec(graph, dyn, schedule, draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    return game, draw(st.sampled_from((20, 200, engine.DEFAULT_NODE_CAP)))


@settings(max_examples=40, deadline=None)
@given(enumeration_games(), st.randoms(use_true_random=False))
def test_one_enumerator_evaluates_every_profile_as_a_fresh_call(case, rnd):
    """An enumerator reused over every pure profile, in a shuffled order,
    gives each the payoffs of a fresh `exact_payoffs` call, bit for bit; a
    profile whose tree exceeds the cap raises on both and leaves the
    enumerator's later answers unchanged."""
    game, cap = case
    n = game.graph.n
    profiles = [StrategyProfile(red, blue) for red in enumerate_allocations(n, game.budget_red)
                for blue in enumerate_allocations(n, game.budget_blue)]
    rnd.shuffle(profiles)
    enumerator = engine._Enumerator(game, cap)

    def hexed(walk, profile):
        try:
            est = walk(profile)
        except StateSpaceCapError:
            return None
        return est.pi_R.hex(), est.pi_B.hex()

    for profile in profiles:
        assert hexed(enumerator.payoffs, profile) == \
            hexed(lambda p: exact_payoffs(game, p, node_cap=cap), profile)


def test_an_enumerator_answers_after_a_cap_error():
    # The hub-and-chain game of `test_exact_enumeration_respects_the_node_cap`:
    # seeding the hub branches past the cap, seeding the chain's tail does not.
    n = 13
    dyn = SwitchSelectAdoption(HalfPointSwitch(0.5), linear_selection())
    game = GameSpec(hub_and_chain(n), dyn, ParallelRounds(3), 1, 1)
    hub = StrategyProfile(Allocation.from_seeds(n, [0]), Allocation.from_seeds(n, [0]))
    tail = StrategyProfile(Allocation.from_seeds(n, [10]), Allocation.from_seeds(n, [11]))
    enumerator = engine._Enumerator(game, node_cap=100)
    for _ in range(2):
        with pytest.raises(StateSpaceCapError, match="cap"):
            enumerator.payoffs(hub)
        assert enumerator.payoffs(tail) == exact_payoffs(game, tail, node_cap=100)


def test_schedules_state_their_snapshot_phases():
    # A single pass (0, 2, 1, 3, 4) breaks before 3, which reads 0 and 1 of
    # its run, and nowhere else: 4 reads 2, of the run before.
    graph = Graph(n=8, edges=((0, 3), (1, 3), (2, 4)))
    single = SinglePassOrder((0, 2, 1, 3, 4))
    assert [phase.tolist() for phase in single.phases(graph)] == [[0, 2, 1], [3, 4]]
    assert [phase.tolist() for phase in SinglePassOrder((2, 0, 3)).phases(graph)] == \
        [[2, 0], [3]]
    assert SinglePassOrder(()).phases(graph) == []
    # Layers keep their runs' order, empty layers included.
    layers = LayerOrder.from_runs([[(4, 5), (3, 4)], [], [(6, 7), (5, 6), (2, 3)], [(0, 1)]])
    assert [phase.tolist() for phase in layers.phases(graph)] == [[4, 3], [], [6, 5, 2], [0]]
    assert [phase.tolist() for phase in layers.phases(graph)] == \
        [list(layer) for layer in layers.layers]
    for schedule in (single, layers):
        assert all(phase.dtype == np.intp for phase in schedule.phases(graph))
    # Schedules that may revisit a vertex have no fixed phases.
    assert ParallelRounds(3).phases(graph) is None
    assert ParallelRounds(3, immunity=True).phases(graph) is None
    assert RandomSequential(4).phases(graph) is None


@st.composite
def single_pass_games(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    keep = draw(st.lists(st.booleans(), min_size=len(possible), max_size=len(possible)))
    graph = Graph(n=n, edges=tuple(e for e, k in zip(possible, keep) if k))
    perm = draw(st.permutations(range(n)))
    order = tuple(perm[:draw(st.integers(0, n))])
    dyn = draw(st.sampled_from((SwitchSelectAdoption(PowerSwitch(1.0), linear_selection()),
                                SwitchSelectAdoption(PowerSwitch(0.5), TullockSelection(0.75)),
                                SwitchSelectAdoption(HalfPointSwitch(0.2), TullockSelection(2.0)),
                                BuiltinAdoption("quadratic_damped"))))

    # Seeds from the first three vertices, so that red and blue often contest one.
    def allocation():
        k = draw(st.integers(1, 2))
        return Allocation.from_seeds(n, draw(st.lists(st.integers(0, min(n - 1, 2)),
                                                      min_size=k, max_size=k)))

    return graph, order, dyn, StrategyProfile(allocation(), allocation())


@settings(max_examples=200, deadline=None)
@given(single_pass_games())
def test_single_pass_enumeration_by_groups_equals_the_per_vertex_walk(case):
    """Singleton layers walk a single pass one vertex at a time; the pass's
    own snapshot groups give the same payoffs, bit for bit."""
    graph, order, dyn, profile = case
    single = exact_payoffs(GameSpec(graph, dyn, SinglePassOrder(order), 1, 1), profile)
    per_vertex = exact_payoffs(GameSpec(graph, dyn, LayerOrder([(v,) for v in order]), 1, 1),
                               profile)
    assert (single.pi_R, single.pi_B) == (per_vertex.pi_R, per_vertex.pi_B)


def test_single_pass_enumeration_respects_the_node_cap():
    # The hub-and-chain graph of `test_exact_enumeration_respects_the_node_cap`,
    # passed once along the chain: each chain vertex reads the one before it,
    # so every vertex is its own group and branches.
    n = 13
    dyn = SwitchSelectAdoption(HalfPointSwitch(0.5), linear_selection())
    game = GameSpec(hub_and_chain(n), dyn, SinglePassOrder(tuple(range(1, n))), 1, 1)
    profile = StrategyProfile(Allocation.from_seeds(n, [0]), Allocation.from_seeds(n, [1]))
    with pytest.raises(StateSpaceCapError, match="cap"):
        exact_payoffs(game, profile, node_cap=100)
    assert exact_payoffs(game, profile).joint > 2.0


# ---------------------------------------------------------------------------
# Monte Carlo estimates.
# ---------------------------------------------------------------------------


def mc_game():
    g = Graph(n=6, edges=((0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 5)))
    dyn = SwitchSelectAdoption(PowerSwitch(0.5), TullockSelection(0.75))
    return GameSpec(g, dyn, ParallelRounds(4), 1, 1)


def mc_profile():
    return StrategyProfile(Allocation.from_seeds(6, [0]), Allocation.from_seeds(6, [2]))


def test_monte_carlo_agrees_with_exact_enumeration():
    game, profile = mc_game(), mc_profile()
    exact = exact_payoffs(game, profile)
    mc = estimate_payoffs(game, profile, n_trials=20_000, master_seed=11)
    assert mc.method == MONTE_CARLO
    assert mc.n_trials == 20_000
    assert abs(mc.pi_R - exact.pi_R) <= 4.0 * mc.stderr_R
    assert abs(mc.pi_B - exact.pi_B) <= 4.0 * mc.stderr_B


def test_monte_carlo_is_reproducible_and_thread_invariant():
    game, profile = mc_game(), mc_profile()
    one = estimate_payoffs(game, profile, n_trials=200, master_seed=5)
    again = estimate_payoffs(game, profile, n_trials=200, master_seed=5)
    pooled = estimate_payoffs(game, profile, n_trials=200, master_seed=5, threads=3)
    assert one == again
    assert one == pooled


def test_monte_carlo_validates_trial_count():
    for n_trials in (0, 2.5, "10", True, np.float64(4.0)):
        with pytest.raises(ValidationError, match="n_trials must be a positive integer"):
            estimate_payoffs(mc_game(), mc_profile(), n_trials=n_trials)
    assert estimate_payoffs(mc_game(), mc_profile(), n_trials=np.int64(3)).n_trials == 3


def test_monte_carlo_validates_thread_count():
    game, profile = mc_game(), mc_profile()
    oracle = PayoffOracle(game, method=MONTE_CARLO, n_trials=4, threads=0)
    for threads in (2.5, "2", 0, -3, True):
        with pytest.raises(ValidationError, match="threads must be a positive integer"):
            engine.sample_payoffs(game, profile, 100, threads=threads)
        with pytest.raises(ValidationError, match="threads must be a positive integer"):
            estimate_payoffs(game, profile, n_trials=100, threads=threads)
        oracle.threads = threads
        with pytest.raises(ValidationError, match="threads must be a positive integer"):
            oracle.evaluate(profile.red, profile.blue)
    assert (estimate_payoffs(game, profile, n_trials=4, threads=np.int64(1))
            == estimate_payoffs(game, profile, n_trials=4))


def test_monte_carlo_validates_master_seed():
    for seed in (-1, True, False, 1.5, "3", None):
        with pytest.raises(ValidationError, match="master_seed must be a nonnegative integer"):
            engine.sample_payoffs(mc_game(), mc_profile(), 4, master_seed=seed)
        with pytest.raises(ValidationError, match="master_seed must be a nonnegative integer"):
            estimate_payoffs(mc_game(), mc_profile(), n_trials=4, master_seed=seed)
    assert (estimate_payoffs(mc_game(), mc_profile(), n_trials=4, master_seed=np.uint64(5))
            == estimate_payoffs(mc_game(), mc_profile(), n_trials=4, master_seed=5))


# The batched replication kernel against the per-vertex path.

KERNEL_DYNAMICS = (
    SwitchSelectAdoption(PowerSwitch(1.0), linear_selection()),
    SwitchSelectAdoption(PowerSwitch(0.5), TullockSelection(0.75)),
    SwitchSelectAdoption(HalfPointSwitch(0.2), TullockSelection(2.0)),
    # Scalar only: its `update_probs_array` calls `update_probs` pair by pair.
    BuiltinAdoption("quadratic_damped"),
)


@st.composite
def kernel_cases(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    directed = draw(st.booleans())
    possible = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    # Each edge present with probability 1/2: dense enough that runs branch.
    keep = draw(st.lists(st.booleans(), min_size=len(possible), max_size=len(possible)))
    edges = [e for e, k in zip(possible, keep) if k]
    kind = draw(st.sampled_from(("parallel", "single_pass", "layers")))
    if kind == "parallel":
        schedule = ParallelRounds(draw(st.integers(min_value=1, max_value=4)),
                                  immunity=draw(st.booleans()))
    else:
        perm = draw(st.permutations(range(n)))
        if kind == "single_pass":
            schedule = SinglePassOrder(tuple(perm[:draw(st.integers(0, n))]))
        else:
            cuts = sorted(draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=3)) | {0, n})
            schedule = LayerOrder(tuple(tuple(perm[a:b]) for a, b in zip(cuts, cuts[1:]) if b > a))
    game = GameSpec(Graph(n=n, edges=tuple(edges), directed=directed),
                    draw(st.sampled_from(KERNEL_DYNAMICS)),
                    schedule, 1, 1)

    # Seeds drawn from the first few vertices, so that red and blue often
    # contest one.
    def allocation(k):
        return Allocation.from_seeds(n, draw(st.lists(st.integers(0, min(n - 1, 2)),
                                                      min_size=k, max_size=k)))

    def strategy(k):
        if draw(st.booleans()):
            return allocation(k)
        p = draw(st.sampled_from((0.25, 0.5, 0.75)))
        return MixedAllocation(((p, allocation(k)), (1.0 - p, allocation(k))))

    profile = StrategyProfile(strategy(draw(st.integers(1, 2))), strategy(draw(st.integers(1, 2))))
    return game, profile


def per_vertex_outcomes(game, profile, n_trials, master_seed):
    """Each replication run one at a time on its scalar reference generator:
    its support pair, its contested seeds, then `run_contagion`."""
    pairs = profile.support_pairs()
    out = []
    for i in range(n_trials):
        rng = replication_rng(master_seed, i)
        initial = resolve_contested_seeds(*support_pair(pairs, rng), rng)
        run = run_contagion(game.graph, initial, game.dynamics, game.schedule, rng)
        out.append((run.chi_R, run.chi_B))
    return out


def replication_words(master_seed, lo, hi, stream=()):
    """The keys of replications lo..hi-1 of one job under the master seed."""
    return engine._replication_words(engine._seed_keys([master_seed], stream),
                                     np.zeros(hi - lo, dtype=np.intp),
                                     np.arange(lo, hi, dtype=np.uint64))


@settings(max_examples=300, deadline=None)
@given(kernel_cases(), st.integers(min_value=0, max_value=2**32), st.integers(1, 12))
def test_batched_kernel_matches_the_per_vertex_path(case, master_seed, n_trials):
    game, profile = case
    reference = per_vertex_outcomes(game, profile, n_trials, master_seed)
    kernel = engine._ReplicationKernel(game, profile.support_pairs())
    assert n_trials <= kernel.block
    chi_r, chi_b = kernel.run(replication_words(master_seed, 0, n_trials))
    assert list(zip(chi_r.tolist(), chi_b.tolist())) == reference
    # Blocks of at most two replications: n_trials spans several blocks.
    cells = 2 * (game.graph.n + len(game.graph.in_csr[1]))
    with mock.patch.object(engine, "_BLOCK_CELLS", cells):
        chi_r, chi_b = engine.sample_payoffs(game, profile, n_trials, master_seed)
    assert list(zip(chi_r.tolist(), chi_b.tolist())) == reference


def mixed_degree_game(dyn, schedule):
    """Undirected, with in-degrees 1 to 4, and a contested, mixed profile."""
    graph = Graph(n=9, edges=((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 5), (3, 5),
                              (5, 6), (6, 7), (6, 8), (4, 7)), directed=False)
    side = [Allocation.from_seeds(9, [v]) for v in (0, 1, 6)]
    profile = StrategyProfile(MixedAllocation(((0.5, side[0]), (0.5, side[1]))),
                              MixedAllocation(((0.5, side[0]), (0.5, side[2]))))
    return GameSpec(graph, dyn, schedule, 1, 1), profile


MIXED_DEGREE_SCHEDULES = (ParallelRounds(5), ParallelRounds(5, immunity=True),
                          SinglePassOrder((5, 2, 7, 3, 1, 8, 4)),
                          LayerOrder(((1, 2, 3), (4, 5), (7, 8))))


# A replication's outcome does not depend on the block it runs in: kernel
# tests run their replications as one block, and as blocks of 7 through the
# same kernel.
BLOCKINGS = pytest.mark.parametrize("block", [None, 7], ids=["one_block", "blocks_of_7"])


def run_in_blocks(run, keys, block):
    """`run` over `keys` in blocks of `block` rows (one block if None), its
    outputs concatenated."""
    size = block or len(keys)
    parts = [run(keys[lo:lo + size]) for lo in range(0, len(keys), size)]
    return tuple(np.concatenate(out) for out in zip(*parts))


@BLOCKINGS
@pytest.mark.parametrize("cells, rows", [(0, []), (4, [1]), (28, [1, 2])])
@pytest.mark.parametrize("schedule", MIXED_DEGREE_SCHEDULES)
@pytest.mark.parametrize("dyn", KERNEL_DYNAMICS[1:], ids=["tullock", "halfpoint", "builtin"])
def test_keys_past_the_table_cap_are_evaluated_directly(cells, rows, schedule, dyn, block):
    """With the table capped below the graph's larger in-degrees, their
    candidates take the direct path, and every replication still equals the
    per-vertex path's."""
    game, profile = mixed_degree_game(dyn, schedule)
    with mock.patch.object(engine, "_TABLE_CELLS", cells):
        kernel = engine._ReplicationKernel(game, profile.support_pairs())
        chi_r, chi_b = run_in_blocks(kernel.run, replication_words(9, 0, 60), block)
    in_degree = game.graph.in_csr[2]
    assert sorted(set(in_degree[kernel.table.start >= 0].tolist())) == rows
    assert list(zip(chi_r.tolist(), chi_b.tolist())) == \
        per_vertex_outcomes(game, profile, 60, master_seed=9)


@BLOCKINGS
def test_long_parallel_rounds_runs_draw_as_the_per_vertex_path_draws(block):
    """A complete digraph under convex switching: each round, the uninfected
    vertices draw and few of them are infected, so a run takes many rounds of
    up to 14 draws, in takes of uneven sizes across rows.  The profile mixes
    over pairs that contest two vertices, or none."""
    n = 16
    graph = Graph(n=n, edges=tuple((u, v) for u in range(n) for v in range(n) if u != v),
                  directed=True)
    game = GameSpec(graph, SwitchSelectAdoption(PowerSwitch(1.5), TullockSelection(0.75)),
                    ParallelRounds(n), 2, 2)
    contested = Allocation.from_seeds(n, [0, 1])
    profile = StrategyProfile(
        MixedAllocation(((0.5, contested), (0.5, Allocation.from_seeds(n, [2, 3])))), contested)
    kernel = engine._ReplicationKernel(game, profile.support_pairs())
    made = []

    class Recording(engine._Draws):
        def __init__(self, keys):
            super().__init__(keys)
            made.append(self)

    with mock.patch.object(engine, "_Draws", Recording):
        chi_r, chi_b = run_in_blocks(kernel.run, replication_words(21, 0, 100), block)
    assert max(draws.used.max() for draws in made) >= 3 * (1 + 2 + n)
    assert list(zip(chi_r.tolist(), chi_b.tolist())) == \
        per_vertex_outcomes(game, profile, 100, master_seed=21)


class CountingQuadraticDamped(AdoptionFunction):
    """`quadratic_damped`, recording the fractions of every `update_probs`
    call; array calls reach it through the pair-by-pair default."""

    def __init__(self):
        self.calls = []

    def _raw_red(self, a, b):
        return a * (1.0 - b * b)

    def to_json_dict(self):
        return {}

    def update_probs(self, a, b):
        self.calls.append((a, b))
        return super().update_probs(a, b)


@pytest.mark.parametrize("schedule", MIXED_DEGREE_SCHEDULES)
def test_each_table_key_is_evaluated_once_per_kernel(schedule):
    """Several blocks of one kernel, and a coupled kernel, call
    `update_probs` at most once per (d, r, b) key: a pair of fractions is
    evaluated at most once for each in-degree that realises it."""
    dyn = CountingQuadraticDamped()
    game, profile = mixed_degree_game(dyn, schedule)
    degrees = set(game.graph.in_csr[2].tolist())

    def check_calls():
        for (a, b), calls in Counter(dyn.calls).items():
            assert calls <= sum(round(a * d) / d == a and round(b * d) / d == b for d in degrees)
        assert 0 < len(dyn.calls) < sum((d + 1) * (d + 2) // 2 for d in degrees)
        dyn.calls.clear()

    kernel = engine._ReplicationKernel(game, profile.support_pairs())
    for lo in range(0, 200, 50):
        kernel.run(replication_words(4, lo, lo + 50))
    check_calls()
    mode = MODE_ATTRIBUTION if isinstance(schedule, ParallelRounds) else MODE_SOLO_VS_JOINT
    coupled = _CoupledKernel(game.graph, [0, 3], [6], dyn, schedule, mode)
    for lo in range(0, 200, 50):
        coupled.run(engine._Draws(replication_words(4, lo, lo + 50)))
    check_calls()


# The random stream: replication keys, `_Draws` and `_Stream`
# against the scalar reference in `stream_reference`.

MASTER_SEEDS = st.one_of(st.sampled_from((0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**200)),
                         st.integers(0, 2**70))
STREAMS = st.lists(st.integers(0, 2**40), max_size=2).map(tuple)


@settings(max_examples=100, deadline=None)
@given(master_seed=MASTER_SEEDS, stream=STREAMS,
       lo=st.one_of(st.integers(0, 50), st.integers(2**32 - 3, 2**32),
                    st.integers(2**64 - 8, 2**64 - 4)),
       sizes=st.lists(st.tuples(*[st.integers(0, 5)] * 3), min_size=1, max_size=8))
def test_draws_hand_out_each_rows_splitmix64_stream(master_seed, stream, lo, sizes):
    """Three replications' keys, and their draws handed out a few per row at
    a time, in uneven takes over all rows or only the rows that draw: each
    cell is the scalar SplitMix64 stream's next double."""
    keys = replication_words(master_seed, lo, lo + 3, stream)
    assert keys.tolist() == [replication_key(master_seed, i, stream) for i in range(lo, lo + 3)]
    draws = engine._Draws(keys)
    references = [SplitMix64(key) for key in keys.tolist()]
    for step, per_row in enumerate(sizes):
        rows = np.arange(3) if step % 2 else np.flatnonzero(per_row)
        per_row = np.array(per_row)[rows]
        got = draws.take(rows, per_row, np.repeat(np.arange(len(rows)), per_row))
        assert got.tolist() == [references[r].random() for r, k in zip(rows, per_row)
                                for _ in range(k)]
    assert draws.used.tolist() == np.sum(sizes, axis=0).tolist()


def test_replication_keys_are_distinct_across_two_to_the_32():
    lo, hi = 2**32 - 100_000, 2**32 + 100_000
    keys = replication_words(5, lo, hi, (2,))
    assert len(np.unique(keys)) == hi - lo
    assert keys[[0, 100_000, -1]].tolist() == [replication_key(5, i, (2,))
                                              for i in (lo, 2**32, hi - 1)]


def test_the_stream_passes_a_chi_square_test_on_64_bins():
    """2**20 draws, 256 from each of 4,096 consecutive replications."""
    draws = engine._Draws(replication_words(2024, 0, 4096))
    rows = np.arange(4096)
    u = draws.take(rows, np.full(4096, 256), np.repeat(rows, 256))
    observed = np.bincount((u * 64).astype(np.intp), minlength=64)
    expected = len(u) / 64
    chi2 = ((observed - expected) ** 2 / expected).sum()
    # 63 degrees of freedom: P[chi2 > 103.4] = 0.001.
    assert chi2 < 103.4, chi2


def test_draws_are_uncorrelated_along_a_row_and_across_adjacent_rows():
    """Lag-1 correlation along each row, and between the same draws of
    adjacent replications, over 2**20 pairs each: within 4.5 standard errors
    (1/sqrt(pairs)) of 0."""
    draws = engine._Draws(replication_words(77, 0, 4097))
    rows = np.arange(4097)
    u = draws.take(rows, np.full(4097, 257), np.repeat(rows, 257)).reshape(4097, 257)
    along = np.corrcoef(u[:, :-1].ravel(), u[:, 1:].ravel())[0, 1]
    across = np.corrcoef(u[:-1].ravel(), u[1:].ravel())[0, 1]
    bound = 4.5 / np.sqrt(4096 * 256)
    assert abs(along) < bound and abs(across) < bound, (along, across)


def binomial_draws(n, p, count: int, seed: int):
    """`count` draws of Binom(n, p), one from each of as many replications,
    and the uniforms each replication used."""
    draws = engine._Draws(replication_words(seed, 0, count))
    x = engine._binomial(draws, np.arange(count), np.full(count, n), np.full(count, p))
    return x, draws.used


@pytest.mark.parametrize("n, p, method", [
    (30, 0.3, "inversion"),      # n p = 9
    (40, 0.25, "btrs"),          # n p = 10, the switch
    (100, 0.3, "btrs"),
    (20, 0.8, "inversion"),      # p > 1/2, on q = 0.2
    (40, 0.75, "btrs"),          # p > 1/2, on q = 0.25 at the switch
    (2**20, 5e-6, "inversion"),  # n q = 5.2
    (2**20, 0.3, "btrs"),
    (2**20, 0.9, "btrs"),
])
def test_binomial_draws_follow_the_binomial_pmf(n, p, method):
    """200,000 draws against scipy's pmf: a chi-square test over every count
    expected at least 5 times, with the two tails beyond them as two bins.
    Inversion takes one uniform a draw and BTRS two an attempt."""
    from scipy import stats

    x, used = binomial_draws(n, p, 200_000, seed=n + int(p * 100))
    if method == "inversion":
        assert (used == 1).all()
    else:
        assert (used >= 2).all() and (used % 2 == 0).all()
    expected = len(x) * stats.binom.pmf(np.arange(n + 1), n, p)
    lo, hi = np.flatnonzero(expected >= 5.0)[[0, -1]]
    observed = np.bincount(np.clip(x, lo, hi) - lo, minlength=hi - lo + 1)
    expected = expected[lo:hi + 1].copy()
    expected[0] = len(x) * stats.binom.cdf(lo, n, p)
    expected[-1] = len(x) * stats.binom.sf(hi - 1, n, p)
    chi2 = ((observed - expected) ** 2 / expected).sum()
    assert stats.chi2.sf(chi2, len(expected) - 1) > 1e-3, chi2


def test_binomial_edge_cases():
    """n = 0, p = 0 and p = 1 are certain and take no draw; at p = 1 - ulp,
    where P[Red] + P[Blue] can round to just below 1, a draw of n = 2^20
    takes one uniform and is n but for odds of about 1e-10."""
    n = np.array([0, 0, 0, 9, 9, 2**20])
    p = np.array([0.0, 0.5, 1.0, 0.0, 1.0, 1.0])
    draws = engine._Draws(replication_words(1, 0, 6))
    assert engine._binomial(draws, np.arange(6), n, p).tolist() == [0, 0, 0, 0, 9, 2**20]
    assert not draws.used.any()
    x, used = binomial_draws(2**20, np.nextafter(1.0, 0.0), 1000, seed=2)
    assert (x == 2**20).all() and (used == 1).all()


def random_sequential_case():
    # Seeds contest vertex 0 half the time, and both sides mix.
    graph = Graph(n=7, edges=((0, 3), (1, 3), (2, 4), (3, 4), (3, 5), (4, 5), (5, 6), (4, 6)))
    game = GameSpec(graph, SwitchSelectAdoption(PowerSwitch(0.5), TullockSelection(0.75)),
                    RandomSequential(6), 1, 1)
    side = [Allocation.from_seeds(7, [v]) for v in range(3)]
    profile = StrategyProfile(MixedAllocation(((0.5, side[0]), (0.5, side[1]))),
                              MixedAllocation(((0.5, side[0]), (0.5, side[2]))))
    return game, profile


@pytest.mark.parametrize("threads", [None, 2])
def test_random_sequential_monte_carlo_matches_the_per_vertex_loop(threads):
    game, profile = random_sequential_case()
    chi_r, chi_b = engine.sample_payoffs(game, profile, 80, master_seed=12, threads=threads)
    assert list(zip(chi_r.tolist(), chi_b.tolist())) == \
        per_vertex_outcomes(game, profile, 80, master_seed=12)


@dataclasses.dataclass(frozen=True)
class SubParallelRounds(ParallelRounds):
    """Parallel rounds under another class: the kernel runs it row by row."""


@dataclasses.dataclass(frozen=True)
class SubSinglePassOrder(SinglePassOrder):
    """A single pass under another class: the kernel runs it row by row."""


@dataclasses.dataclass(frozen=True, init=False)
class SubLayerOrder(LayerOrder):
    """A layer order under another class: the kernel runs it row by row."""


def subclassed(schedule):
    if isinstance(schedule, ParallelRounds):
        return SubParallelRounds(schedule.max_rounds, schedule.immunity)
    if isinstance(schedule, SinglePassOrder):
        return SubSinglePassOrder(schedule.order)
    return SubLayerOrder.from_runs(schedule.runs)


@pytest.mark.parametrize("threads", [None, 2])
@pytest.mark.parametrize("contested", [False, True], ids=["mixed", "contested"])
@pytest.mark.parametrize("schedule", MIXED_DEGREE_SCHEDULES)
def test_schedule_subclasses_run_row_by_row_as_the_batched_kernel_runs(schedule, contested,
                                                                        threads):
    """A subclass of a batched schedule goes down the kernel's row-by-row
    path, `run_contagion` on the rest of each row's stream, and gives the
    batched rows bit for bit, whatever `threads`."""
    game, profile = mixed_degree_game(KERNEL_DYNAMICS[1], schedule)
    if contested:
        profile = StrategyProfile(Allocation.from_seeds(9, [0, 0, 6]),
                                  Allocation.from_seeds(9, [0, 1, 6]))
    sub = dataclasses.replace(game, schedule=subclassed(schedule))
    assert sub.schedule.to_json_dict() == schedule.to_json_dict()
    assert engine._ReplicationKernel(sub, profile.support_pairs()).one_by_one
    assert not engine._ReplicationKernel(game, profile.support_pairs()).one_by_one
    want = engine.sample_payoffs(game, profile, 64, master_seed=5)
    got = engine.sample_payoffs(sub, profile, 64, master_seed=5, threads=threads)
    assert [row.tolist() for row in got] == [row.tolist() for row in want]


@dataclasses.dataclass(frozen=True)
class SubRandomSequential(RandomSequential):
    """Random-sequential updates under another class."""


@dataclasses.dataclass(frozen=True)
class FirstOnlyPass(SinglePassOrder):
    """A single pass that stops after its first vertex."""

    def phase_options(self, graph, state, immune, cursor):
        return None if cursor >= 1 else super().phase_options(graph, state, immune, cursor)


@dataclasses.dataclass(frozen=True)
class OneRound(ParallelRounds):
    """Parallel rounds that stop after the first round."""

    def phase_options(self, graph, state, immune, cursor):
        return None if cursor >= 1 else super().phase_options(graph, state, immune, cursor)


# Every in-degree is 1, so under linear dynamics every candidate adopts its
# in-neighbour's color: each schedule's outcome is one deterministic (chi_R,
# chi_B), red seeding 0 and blue 5.  Vertices 1 and 2 are the only twins.
RULE_GRAPH = Graph(n=7, edges=((0, 1), (0, 2), (0, 3), (3, 4), (5, 6)))
RULE_ORDER, RULE_LAYERS = (1, 2, 3, 4, 6), ((1, 2, 3, 6), (4,))
# (schedule, how the rule reads it, its outcome): exactly ParallelRounds by
# rounds, exactly SinglePassOrder or LayerOrder by phases, any other schedule
# through phase_options alone.
RULE_CASES = (
    (ParallelRounds(3), "rounds", (5, 2)),
    (SinglePassOrder(RULE_ORDER), "phases", (5, 2)),
    (LayerOrder(RULE_LAYERS), "phases", (5, 2)),
    (RandomSequential(10), None, (5, 2)),
    (SubParallelRounds(3), None, (5, 2)),
    (SubSinglePassOrder(RULE_ORDER), None, (5, 2)),
    (SubLayerOrder(RULE_LAYERS), None, (5, 2)),
    (SubRandomSequential(10), None, (5, 2)),
    (FirstOnlyPass(RULE_ORDER), None, (2, 1)),
    (OneRound(3), None, (4, 2)),
)


@pytest.mark.parametrize("schedule, form, chi", RULE_CASES,
                         ids=[type(case[0]).__name__ for case in RULE_CASES])
def test_every_back_end_reads_a_schedule_by_the_one_rule(schedule, form, chi):
    """`run_contagion`, exact enumeration and the Monte Carlo kernel give one
    outcome on every schedule, subclasses that step differently included;
    the kernel runs row by row, twins stay apart and coupled runs refuse
    exactly the schedules that the rule reads through `phase_options`."""
    graph, dyn = RULE_GRAPH, linear_dyn()
    game = GameSpec(graph, dyn, schedule, 1, 1)
    profile = StrategyProfile(Allocation.from_seeds(7, [0]), Allocation.from_seeds(7, [5]))
    run = run_contagion(graph, (1, 0, 0, 0, 0, 2, 0), dyn, schedule, 0)
    exact = exact_payoffs(game, profile)
    mc = estimate_payoffs(game, profile, n_trials=16, master_seed=3)
    assert (run.chi_R, run.chi_B) == (mc.pi_R, mc.pi_B) == chi
    # A random order's leaves sum weights such as 1/5 + 4/5 * ..., up to rounding.
    assert (exact.pi_R, exact.pi_B) == pytest.approx(chi, rel=1e-12)

    assert engine._ReplicationKernel(game, profile.support_pairs()).one_by_one == (form is None)
    merges = form is not None or type(schedule) is RandomSequential
    assert equilibrium.twin_classes(graph, schedule) == ([(1, 2)] if merges else [])
    for mode, accepted in ((MODE_ATTRIBUTION, form is not None),
                           (MODE_SOLO_VS_JOINT, form == "phases")):
        if accepted:
            res = coupling.coupled_run(graph, [0], [5], dyn, schedule, 0, mode=mode)
            assert (res.joint.chi_R, res.joint.chi_B) == chi
            assert res.invariant_violations == 0
            continue
        with pytest.raises(ValidationError, match=f"got {type(schedule).__name__}"):
            coupling.coupled_run(graph, [0], [5], dyn, schedule, 0, mode=mode)
        with pytest.raises(ValidationError, match=f"got {type(schedule).__name__}"):
            couple_test(graph, [0], [5], dyn, schedule, mode, runs=10)


@settings(max_examples=50, deadline=None)
@given(key=st.integers(0, 2**64 - 1), used=st.integers(0, 5),
       ks=st.lists(st.integers(1, 2**20), max_size=4))
def test_a_stream_goes_on_where_the_rows_draws_stopped(key, used, ks):
    """`_Stream(key, used)` draws what the scalar reference draws after
    `used` uniforms: doubles, and floor(k·u) for `integers(k)`."""
    reference = SplitMix64(key)
    for _ in range(used):
        reference.random()
    stream = engine._Stream(key, used)
    assert np.random.default_rng(stream) is stream
    for k in ks:
        assert stream.integers(k) == reference.integers(k)
        assert stream.random() == reference.random()
    assert stream.used == used + 2 * len(ks)


@pytest.mark.parametrize("block", [1, 7])
def test_a_replications_row_does_not_depend_on_the_fill_block(block):
    """Every sampler's fill (the kernel's row-by-row runs, the layer sampler,
    the batched kernel over two jobs, and couple_test's coupled counts and
    standalone runs), in blocks of `block` rows and as one block: every row
    the same, and the row-by-row rows the reference's."""
    game, profile = random_sequential_case()
    structure = LayeredStructure(((2, 3, 4), (3, 5)))
    layer_profile = StrategyProfile(Allocation.from_seeds(structure.n, [0, 5]),
                                    Allocation.from_seeds(structure.n, [1, 5]))
    batched, mixed = mixed_degree_game(KERNEL_DYNAMICS[1], ParallelRounds(5))
    bipartite = Graph(n=9, edges=tuple((s, t) for s in range(3) for t in range(3, 9)))
    sqrt_linear = SwitchSelectAdoption(PowerSwitch(0.5), linear_selection())
    fill = engine._fill

    def fills(size):
        made = []

        def blocked(run, seed_keys, n_trials, lo, hi, _):
            out = fill(run, seed_keys, n_trials, lo, hi, size or hi - lo)
            made.append(out.tolist())
            return out

        with mock.patch.object(engine, "_fill", blocked), \
                mock.patch.object(coupling, "_fill", blocked):
            engine.sample_payoffs(game, profile, 20, master_seed=3)
            layered_estimate_payoffs(structure, linear_dyn(), layer_profile, n_trials=20,
                                     master_seed=3)
            engine.sample_many(batched, [(mixed, 3), (mixed, 2**40)], 20)
            couple_test(bipartite, [0], [1], sqrt_linear, SinglePassOrder(tuple(range(3, 9))),
                        MODE_SOLO_VS_JOINT, runs=20, master_seed=4)
        return made

    whole = fills(None)
    assert len(whole) == 6
    assert fills(block) == whole
    assert list(zip(*whole[0])) == per_vertex_outcomes(game, profile, 20, master_seed=3)


# Many jobs through one kernel: replication keys by (job, index),
# `sample_many`, and the oracle's fill.

INDICES = st.one_of(st.integers(0, 9), st.integers(2**32 - 4, 2**32 + 2),
                    st.integers(2**64 - 8, 2**64 - 1))


@settings(max_examples=100, deadline=None)
@given(seeds=st.lists(MASTER_SEEDS, min_size=1, max_size=4),
       cells=st.lists(st.tuples(st.integers(0, 3), INDICES), max_size=12), stream=STREAMS)
@example(seeds=[0, 2**32 - 1, 2**32, 2**200],
         cells=[(0, 2**32 - 2), (0, 2**32 - 1), (0, 2**32), (0, 2**32 + 1), (1, 0), (1, 1),
                (2, 2**32 - 1), (2, 2**32), (2, 2**32 + 1), (3, 5), (3, 6), (3, 2**64 - 1)],
         stream=())
def test_replication_keys_fold_each_index_into_its_jobs_seed_key(seeds, cells, stream):
    """Jobs with master seeds of every word count, and indices on both sides
    of 2**32 and up to 2**64 - 1, in any order, in one call: each
    replication's key is its own."""
    jobs = [j % len(seeds) for j, _ in cells]
    keys = engine._replication_words(engine._seed_keys(seeds, stream), np.array(jobs, dtype=np.intp),
                                     np.array([i for _, i in cells], dtype=np.uint64))
    assert keys.tolist() == [replication_key(seeds[j], i, stream)
                             for j, (_, i) in zip(jobs, cells)]


@settings(max_examples=100, deadline=None)
@given(kernel_cases(), st.lists(MASTER_SEEDS, min_size=1, max_size=4),
       st.integers(1, 6), st.sampled_from((1, 40, 1 << 20)))
def test_sample_many_rows_equal_one_job_samples(case, seeds, n_trials, block_cells):
    """Jobs of mixed profiles sharing allocations, run through one kernel in
    blocks that cut jobs apart: each job's row is its own `sample_payoffs`,
    and its replications' draws are their own scalar streams'."""
    game, profile = case
    swapped = StrategyProfile(profile.blue, profile.red)
    jobs = [(profile if k % 2 == 0 else swapped, seed) for k, seed in enumerate(seeds)]
    with mock.patch.object(engine, "_BLOCK_CELLS", block_cells):
        chi_r, chi_b = engine.sample_many(game, jobs, n_trials)
    assert chi_r.shape == chi_b.shape == (len(jobs), n_trials)
    for (job, seed), row_r, row_b in zip(jobs, chi_r, chi_b):
        one_r, one_b = engine.sample_payoffs(game, job, n_trials, master_seed=seed)
        assert (row_r.tolist(), row_b.tolist()) == (one_r.tolist(), one_b.tolist())
        assert list(zip(row_r.tolist(), row_b.tolist())) == \
            per_vertex_outcomes(game, job, n_trials, seed)


def fill_schedule(kind: str, n: int, perm):
    return {"parallel": ParallelRounds(3),
            "immune": ParallelRounds(3, immunity=True),
            "single_pass": SinglePassOrder(tuple(perm)),
            "layers": LayerOrder((tuple(perm[:n // 2]), tuple(perm[n // 2:]))),
            "random_sequential": RandomSequential(4)}[kind]


FILL_SCHEDULES = ("parallel", "immune", "single_pass", "layers", "random_sequential")


@st.composite
def fill_cases(draw):
    """A small directed game under any schedule Monte Carlo takes, the
    per-vertex fallback's included, and a list of its pure profiles with
    repeats, swaps and contested seeds."""
    n = draw(st.integers(2, 8))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    keep = draw(st.lists(st.booleans(), min_size=len(possible), max_size=len(possible)))
    graph = Graph(n=n, edges=tuple(e for e, k in zip(possible, keep) if k), directed=True)
    schedule = fill_schedule(draw(st.sampled_from(FILL_SCHEDULES)), n,
                             draw(st.permutations(range(n))))
    budget = draw(st.integers(1, 2))
    # Seeds on the first few vertices, so that profiles often repeat, swap
    # and contest a vertex.
    allocations = [Allocation.from_seeds(n, draw(st.lists(st.integers(0, min(n - 1, 2)),
                                                          min_size=budget, max_size=budget)))
                   for _ in range(3)]
    profiles = draw(st.lists(st.tuples(st.sampled_from(allocations),
                                       st.sampled_from(allocations)), min_size=1, max_size=10))
    dyn = draw(st.sampled_from(KERNEL_DYNAMICS))
    return GameSpec(graph, dyn, schedule, budget, budget), profiles


def swap(est: PayoffEstimate) -> PayoffEstimate:
    return dataclasses.replace(est, pi_R=est.pi_B, pi_B=est.pi_R,
                               stderr_R=est.stderr_B, stderr_B=est.stderr_R)


def check_fill(game, profiles, n_trials, master_seed, use_symmetry, threads=None):
    """The oracle's fill returns, profile by profile, the estimate
    `estimate_payoffs` makes under the profile's seed or, with symmetry on,
    the swap of the swapped profile's estimate when that profile has the
    lexicographically larger dense counts (red, then blue); the game's two
    budgets are equal."""
    oracle = PayoffOracle(game, method=MONTE_CARLO, n_trials=n_trials, master_seed=master_seed,
                          use_symmetry=use_symmetry, threads=threads)

    def direct(red, blue):
        return estimate_payoffs(game, StrategyProfile(red, blue), n_trials,
                                master_seed=oracle._profile_seed(red, blue))

    for (red, blue), est in zip(profiles, oracle.fill(profiles)):
        if use_symmetry and (blue.counts, red.counts) > (red.counts, blue.counts):
            assert est == swap(direct(blue, red))
        else:
            assert est == direct(red, blue)


@settings(max_examples=150, deadline=None)
@given(fill_cases(), st.booleans(), st.integers(0, 2**40), st.integers(1, 6),
       st.sampled_from((1, 40, 1 << 20)))
def test_oracle_fill_equals_per_profile_estimates(case, use_symmetry, master_seed, n_trials,
                                                  block_cells):
    game, profiles = case
    with mock.patch.object(engine, "_BLOCK_CELLS", block_cells):
        check_fill(game, profiles, n_trials, master_seed, use_symmetry)


@pytest.mark.parametrize("kind", FILL_SCHEDULES)
def test_oracle_fill_is_thread_invariant(kind):
    """Two workers split the fill's replications: still every profile's own
    estimate, with contested and swapped profiles among them."""
    graph = Graph(n=5, edges=((0, 2), (1, 2), (2, 3), (1, 3), (3, 4), (0, 4)), directed=True)
    game = GameSpec(graph, KERNEL_DYNAMICS[1], fill_schedule(kind, 5, (2, 3, 4, 0, 1)), 1, 1)
    allocations = enumerate_allocations(5, 1)
    profiles = [(a, b) for a in allocations[:3] for b in allocations[:3]]
    for use_symmetry in (True, False):
        check_fill(game, profiles, 20, 7, use_symmetry, threads=2)


@settings(max_examples=200, deadline=None)
@given(master_seed=st.one_of(st.sampled_from((0, 2**32 - 1, 2**32, 2**128, 2**200)),
                             st.integers(0, 2**70)),
       counts=st.integers(1, 12).flatmap(lambda n: st.tuples(
           *[st.lists(st.integers(0, 3) | st.just(2**32 + 1), min_size=n, max_size=n)] * 2)))
def test_profile_seeds_fold_the_sparse_seed_pairs(master_seed, counts):
    """A profile's seed is the master seed's key with red's number of seeded
    vertices, then red's and blue's (vertex, count) pairs folded in."""
    red, blue = (Allocation(side) for side in counts)
    oracle = PayoffOracle(mc_game(), method=MONTE_CARLO, master_seed=master_seed)
    pairs = [x for side in (red, blue) for v, c in enumerate(side.counts) if c for x in (v, c)]
    assert oracle._profile_seed(red, blue) == fold(seed_key(master_seed), len(red.seeds), *pairs)


def test_oracle_fill_computes_each_uncached_profile_once():
    graph = Graph(n=4, edges=((0, 1), (1, 2), (2, 3), (3, 0)), directed=True)
    game = GameSpec(graph, linear_dyn(), SinglePassOrder((1, 2, 3)), 1, 1)
    a0, a1, a2, a3 = enumerate_allocations(4, 1)
    profiles = [(a0, a1), (a1, a0), (a2, a3), (a2, a3), (a3, a2), (a1, a1), (a0, a2), (a0, a1)]
    sample_many = engine.sample_many
    for use_symmetry, computed in ((True, [(a2, a3), (a1, a1), (a0, a2)]),
                                   (False, [(a1, a0), (a2, a3), (a3, a2), (a1, a1), (a0, a2)])):
        oracle = PayoffOracle(game, method=MONTE_CARLO, n_trials=5, use_symmetry=use_symmetry)
        cached = oracle.evaluate(a0, a1)
        calls = []

        def recording(game, jobs, n_trials, threads=None):
            calls.append([(profile.red, profile.blue) for profile, _ in jobs])
            return sample_many(game, jobs, n_trials, threads)

        # Every estimate comes from the fill's one sampler call: `evaluate`
        # finds them all cached.
        with mock.patch.object(equilibrium, "sample_many", recording), \
                mock.patch.object(equilibrium, "estimate_payoffs", None):
            filled = oracle.fill(profiles)
            assert oracle.fill(profiles) == filled
        assert calls == [computed]
        assert filled[0] is filled[-1] is cached
    # An exact oracle evaluates profile by profile.
    oracle = PayoffOracle(game)
    with mock.patch.object(equilibrium, "sample_many", None):
        assert oracle.fill(profiles) == [exact_payoffs(game, StrategyProfile(a, b))
                                         for a, b in profiles]


def test_a_fill_derives_replication_seeds_block_by_block():
    """All 144 profiles of criterion 5's 12-vertex bipartite game at 2,000
    trials: 288,000 replications, whose seeds as Python tuples alone would
    take ~40 MB.  The fill derives them per kernel block, so its peak is the
    chi arrays (4.6 MB) and about one block."""
    graph = Graph(n=12, edges=tuple((s, t) for s in range(3) for t in range(3, 12)))
    game = GameSpec(graph, SwitchSelectAdoption(PowerSwitch(0.5), linear_selection()),
                    SinglePassOrder(tuple(range(3, 12))), 1, 1)
    allocations = enumerate_allocations(12, 1)
    oracle = PayoffOracle(game, method=MONTE_CARLO, n_trials=2000, use_symmetry=False)
    tracemalloc.start()
    try:
        oracle.fill([(a, b) for a in allocations for b in allocations])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(oracle._cache) == 144
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("schedule", [ParallelRounds(2), ParallelRounds(2, immunity=True),
                                      SinglePassOrder((1, 2)), LayerOrder(((1,), (2,))),
                                      RandomSequential(3)])
def test_monte_carlo_rejects_allocations_of_the_wrong_length(schedule):
    game = dataclasses.replace(mc_game(), schedule=schedule)
    profile = StrategyProfile(Allocation.from_seeds(5, [0]), Allocation.from_seeds(5, [2]))
    with pytest.raises(ValidationError, match="initial state has length 5"):
        estimate_payoffs(game, profile, n_trials=3)


@pytest.mark.parametrize("schedule", [SinglePassOrder((1, 9)), LayerOrder(((1,), (2, 9)))])
def test_monte_carlo_rejects_schedules_naming_unknown_vertices(schedule):
    game = dataclasses.replace(mc_game(), schedule=schedule)
    with pytest.raises(ScheduleError, match="unknown vertex 9"):
        estimate_payoffs(game, mc_profile(), n_trials=3)


class BrokenAtOneThird(AdoptionFunction):
    """Out of range only at red fraction 1/3, off the construction grid."""

    def _raw_red(self, a, b):
        return 2.0 if a == 1 / 3 else 0.5 * a

    def to_json_dict(self):
        return {}


@pytest.mark.parametrize("schedule", [ParallelRounds(2), SinglePassOrder((3,)),
                                      LayerOrder(((3,),)), RandomSequential(2)])
def test_monte_carlo_surfaces_broken_dynamics(schedule):
    graph = Graph(n=4, edges=((0, 3), (1, 3), (2, 3)))
    game = GameSpec(graph, BrokenAtOneThird(), schedule, 1, 1)
    profile = StrategyProfile(Allocation.from_seeds(4, [0]), Allocation.from_seeds(4, [0]))
    with pytest.raises(DynamicsDefinitionError, match="outside"):
        estimate_payoffs(game, profile, n_trials=3)


def test_a_single_run_reports_consistent_counts():
    game = mc_game()
    rng = np.random.default_rng(3)
    initial = resolve_contested_seeds(Allocation.from_seeds(6, [0]), Allocation.from_seeds(6, [2]),
                                      rng)
    out = run_contagion(game.graph, initial, game.dynamics, game.schedule, rng)
    assert out.chi_R == sum(1 for s in out.state if s == 1)
    assert out.chi_B == sum(1 for s in out.state if s == 2)
    assert out.state[0] == 1 and out.state[2] == 2


def test_payoff_estimate_reporting_shape():
    est = PayoffEstimate(1.0, 2.0, EXACT_ENUMERATION, 0, 0.0, 0.0)
    assert est.joint == 3.0
    assert PayoffEstimate.CSV_HEADER == ("pi_R", "pi_B", "method", "n_trials",
                                         "stderr_R", "stderr_B")
    doc = est.to_json_dict()
    assert {"pi_R", "pi_B", "method", "n_trials", "stderr_R", "stderr_B"} <= doc.keys()


def test_single_pass_twin_sinks_are_not_interchangeable():
    """Vertices 2 and 3 are twins (in-neighbour 1, no out-neighbours), but
    their in-neighbour 1 updates between them in the order: a blue seed at 2
    leaves 3 to turn red after 1 does, while one at 3 leaves 2 to update
    before 1 is infected."""
    graph = Graph(n=4, edges=((0, 1), (1, 2), (1, 3)))
    game = GameSpec(graph, linear_dyn(), SinglePassOrder((2, 1, 3)), 1, 1)
    red = Allocation.from_seeds(4, [0])
    payoffs = [exact_payoffs(game, StrategyProfile(red, Allocation.from_seeds(4, [twin])))
               for twin in (2, 3)]
    assert [(est.pi_R, est.pi_B) for est in payoffs] == [(3.0, 1.0), (2.0, 1.0)]
