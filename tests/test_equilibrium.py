"""Equilibrium enumeration, efficiency ratios, and restricted deviation checks."""

import dataclasses
import itertools
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contagion_games import (
    Allocation,
    AllocationSpaceCapError,
    GameSpec,
    Graph,
    HalfPointSwitch,
    LayerOrder,
    ParallelRounds,
    PayoffEstimate,
    PayoffOracle,
    PowerSwitch,
    RandomSequential,
    ScheduleError,
    SinglePassOrder,
    StrategyProfile,
    SwitchSelectAdoption,
    TullockSelection,
    ValidationError,
    allocation_count,
    best_response,
    budget_multiplier,
    engine,
    enumerate_allocations,
    equilibrium,
    exact_payoffs,
    find_pure_nash,
    influencer_components,
    linear_selection,
    max_joint_payoff,
    price_of_anarchy,
    verify_profile_deviations,
)
from contagion_games.equilibrium import EXACT_EPS, twin_classes


def linear_dyn():
    return SwitchSelectAdoption(PowerSwitch(1.0), linear_selection())


def two_hub_game():
    """Hub 0 feeds 2 followers, hub 3 feeds 9; one seed each.

    Hand-solved: the unique pure Nash has both players contesting hub 3
    (payoffs 5/5, joint 10); the joint optimum splits the hubs (joint 13).
    """
    edges = [(0, 1), (0, 2)] + [(3, v) for v in range(4, 13)]
    g = Graph(n=13, edges=tuple(edges))
    followers = tuple(v for v in range(13) if v not in (0, 3))
    return GameSpec(g, linear_dyn(), SinglePassOrder(followers), 1, 1)


def seeds(n, *vs):
    return Allocation.from_seeds(n, vs)


# ---------------------------------------------------------------------------
# Allocation enumeration.
# ---------------------------------------------------------------------------


def test_allocation_count_is_multiset_count():
    assert allocation_count(3, 2) == 6
    assert allocation_count(13, 1) == 13
    assert allocation_count(5, 0) == 1


def test_enumerate_allocations_lists_every_multiset_once():
    allocs = enumerate_allocations(3, 2)
    assert len(allocs) == 6
    assert allocs[0].counts == (2, 0, 0)
    assert allocs[-1].counts == (0, 0, 2)
    assert len(set(allocs)) == 6
    assert all(a.budget == 2 for a in allocs)
    # The order is the dense count vectors', strictly descending.
    for n in range(1, 7):
        for budget in range(4):
            reference = sorted((c for c in itertools.product(range(budget + 1), repeat=n)
                                if sum(c) == budget), reverse=True)
            assert [a.counts for a in enumerate_allocations(n, budget)] == reference


def test_enumerate_allocations_cap():
    with pytest.raises(AllocationSpaceCapError, match="exceeds the cap"):
        enumerate_allocations(100, 3, cap=1000)


# ---------------------------------------------------------------------------
# Payoff oracle caching.
# ---------------------------------------------------------------------------


def test_oracle_symmetry_cache_swaps_colors():
    game = two_hub_game()
    oracle = PayoffOracle(game)
    a, b = seeds(13, 3), seeds(13, 0)
    direct = oracle.evaluate(a, b)
    swapped = oracle.evaluate(b, a)
    assert (direct.pi_R, direct.pi_B) == (10.0, 3.0)
    assert (swapped.pi_R, swapped.pi_B) == (3.0, 10.0)
    no_sym = PayoffOracle(game, use_symmetry=False).evaluate(b, a)
    assert (no_sym.pi_R, no_sym.pi_B) == (3.0, 10.0)


def test_monte_carlo_oracle_is_evaluation_order_independent():
    game = two_hub_game()
    a, b = seeds(13, 3), seeds(13, 0)
    c, d = seeds(13, 3), seeds(13, 3)
    first = PayoffOracle(game, method="monte-carlo", n_trials=300, master_seed=1)
    second = PayoffOracle(game, method="monte-carlo", n_trials=300, master_seed=1)
    first.evaluate(a, b)
    assert first.evaluate(c, d) == second.evaluate(c, d)
    assert first.statistical and not PayoffOracle(game).statistical


def test_a_profile_and_its_swap_get_one_estimate_in_either_order():
    """A profile and its color swap, evaluated in both orders: the swapped
    profile's estimate is the profile's, swapped, whichever came first."""
    graph = Graph(n=4, edges=((0, 1), (1, 2), (2, 3), (0, 3)))
    game = GameSpec(graph, SwitchSelectAdoption(PowerSwitch(0.5), linear_selection()),
                    ParallelRounds(3), 1, 1)
    a, b = seeds(4, 0), seeds(4, 1)
    forward = PayoffOracle(game, method="monte-carlo", n_trials=50, master_seed=3)
    backward = PayoffOracle(game, method="monte-carlo", n_trials=50, master_seed=3)
    ab, ba = forward.evaluate(a, b), forward.evaluate(b, a)
    assert (backward.evaluate(b, a), backward.evaluate(a, b)) == (ba, ab)
    assert (ba.pi_R, ba.pi_B) == (ab.pi_B, ab.pi_R)


def test_a_backward_fill_equals_a_forward_fill_on_twins():
    """Twins {0, 1} under random sequential updates: with color swaps, every
    profile's payoffs come from one enumeration of its class or its swap's,
    whatever order the profiles come in."""
    graph = Graph(n=6, edges=((0, 2), (1, 2), (0, 3), (1, 3), (2, 4), (3, 5), (4, 5)))
    game = GameSpec(graph, SwitchSelectAdoption(PowerSwitch(0.5), TullockSelection(2.0)),
                    RandomSequential(3), 1, 1)
    assert twin_classes(graph, game.schedule) == [(0, 1)]
    pairs = pure_pairs(game)
    assert PayoffOracle(game).fill(pairs[::-1])[::-1] == PayoffOracle(game).fill(pairs)


# Twin classes: vertices with equal in- and out-neighbours.


@st.composite
def planted_twin_games(draw):
    """A random digraph on 2-4 vertices, then 1-3 planted twins, each a copy
    of a vertex's in- and out-edges; one of the five built-in schedules."""
    n = draw(st.integers(2, 4))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    keep = draw(st.lists(st.booleans(), min_size=len(possible), max_size=len(possible)))
    edges = {e for e, k in zip(possible, keep) if k}
    for _ in range(draw(st.integers(1, 3))):
        v = draw(st.integers(0, n - 1))
        edges |= {(u, n) for u, w in edges if w == v} | {(n, w) for u, w in edges if u == v}
        n += 1
    graph = Graph(n=n, edges=tuple(edges))
    kind = draw(st.sampled_from(("parallel", "parallel_immune", "random_sequential",
                                 "single_pass", "layer_order")))
    if kind == "parallel":
        schedule = ParallelRounds(draw(st.integers(1, 3)))
    elif kind == "parallel_immune":
        schedule = ParallelRounds(draw(st.integers(1, 3)), immunity=True)
    elif kind == "random_sequential":
        schedule = RandomSequential(draw(st.integers(1, 3)))
    elif kind == "single_pass":
        schedule = SinglePassOrder(draw(st.permutations(range(n)))[:draw(st.integers(0, n))])
    else:
        layer = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
        perm = draw(st.permutations(range(n)))
        schedule = LayerOrder([[v for v in perm if layer[v] == k] for k in range(3)])
    dyn = draw(st.sampled_from((SwitchSelectAdoption(PowerSwitch(0.5), TullockSelection(2.0)),
                                SwitchSelectAdoption(HalfPointSwitch(0.2), linear_selection()))))
    budgets = draw(st.sampled_from(((1, 1), (1, 2), (2, 1))))
    return GameSpec(graph, dyn, schedule, *budgets)


def pure_pairs(game):
    n = game.graph.n
    return list(itertools.product(enumerate_allocations(n, game.budget_red),
                                  enumerate_allocations(n, game.budget_blue)))


@settings(max_examples=40, deadline=None)
@given(planted_twin_games())
def test_twin_keyed_oracle_equals_direct_enumeration(game):
    pairs = pure_pairs(game)
    assert twin_classes(game.graph, ParallelRounds(1))
    forward = PayoffOracle(game).fill(pairs)
    for (red, blue), est in zip(pairs, forward):
        direct = exact_payoffs(game, StrategyProfile(red, blue))
        assert est.pi_R == pytest.approx(direct.pi_R, rel=0.0, abs=1e-12)
        assert est.pi_B == pytest.approx(direct.pi_B, rel=0.0, abs=1e-12)
    # With or without color swaps, each profile gets its representative's
    # payoffs (or the swap of its swap's), whatever order the profiles come in.
    for use_symmetry in (False, True):
        backward = PayoffOracle(game, use_symmetry=use_symmetry).fill(pairs[::-1])[::-1]
        assert backward == PayoffOracle(game, use_symmetry=use_symmetry).fill(pairs)


@settings(max_examples=15, deadline=None)
@given(planted_twin_games())
def test_searches_on_planted_twins_match_brute_force(game):
    pays = {pair: exact_payoffs(game, StrategyProfile(*pair)) for pair in pure_pairs(game)}
    reds = {red for red, _ in pays}
    blues = {blue for _, blue in pays}
    equilibria = {(a, b) for (a, b), est in pays.items()
                  if est.pi_R >= max(pays[x, b].pi_R for x in reds) - EXACT_EPS
                  and est.pi_B >= max(pays[a, y].pi_B for y in blues) - EXACT_EPS}
    max_joint = max(est.joint for est in pays.values())

    oracle = PayoffOracle(game)
    nash = find_pure_nash(game, oracle)
    assert {(a, b) for a, b, _ in nash.equilibria} == equilibria
    poa = price_of_anarchy(game, oracle, nash=nash)
    bm = budget_multiplier(game, oracle, nash=nash)
    assert poa.max_joint == pytest.approx(max_joint, rel=0.0, abs=1e-12)
    if not equilibria:
        assert math.isnan(poa.value) and math.isnan(bm.value)
        return
    worst = min(pays[pair].joint for pair in equilibria)
    assert poa.worst_nash_joint == pytest.approx(worst, rel=0.0, abs=1e-12)
    assert poa.infinite == (worst <= 0.0)
    if worst > 1e-9:
        assert poa.value == pytest.approx(max_joint / worst, rel=1e-9)
    per_seed = [(pays[pair].pi_R / game.budget_red, pays[pair].pi_B / game.budget_blue)
                for pair in equilibria]
    if game.budget_red == game.budget_blue:
        ratios = [(max(r, b), min(r, b)) for r, b in per_seed]
    else:
        ratios = [(r, b) if game.budget_red > game.budget_blue else (b, r) for r, b in per_seed]
    if min(lo for _, lo in ratios) > 1e-9:
        assert bm.value == pytest.approx(max(hi / lo for hi, lo in ratios), rel=1e-9)


def test_oracle_keeps_single_pass_twin_sinks_apart():
    """Vertices 2 and 3 are twins, but their in-neighbour 1 updates between
    them in the pass, so they sit in different snapshot phases and stay in
    classes of their own, in either evaluation order."""
    graph = Graph(n=4, edges=((0, 1), (1, 2), (1, 3)))
    game = GameSpec(graph, linear_dyn(), SinglePassOrder((2, 1, 3)), 1, 1)
    assert twin_classes(graph, game.schedule) == []
    red = seeds(4, 0)
    for order in ((2, 3), (3, 2)):
        oracle = PayoffOracle(game)
        pays = {twin: oracle.payoffs(red, seeds(4, twin)) for twin in order}
        assert pays == {2: (3.0, 1.0), 3: (2.0, 1.0)}


class RelabelledRounds(ParallelRounds):
    """Parallel rounds under a schedule class the oracle does not know."""


@pytest.mark.parametrize("schedule", [SinglePassOrder((1, 2, 9)), LayerOrder([(1, 2), (9,)])])
def test_oracle_rejects_schedules_naming_unknown_vertices(schedule):
    game = GameSpec(Graph(n=3, edges=((0, 1), (0, 2))), linear_dyn(), schedule, 1, 1)
    with pytest.raises(ScheduleError, match="unknown vertex 9"):
        PayoffOracle(game).evaluate(seeds(3, 0), seeds(3, 0))


@pytest.fixture
def exact_calls(monkeypatch):
    """The profiles whose payoffs an exact enumerator walks, in call order."""
    calls = []
    walk = engine._Enumerator.payoffs

    def counting(self, profile):
        calls.append(profile)
        return walk(self, profile)

    monkeypatch.setattr(engine._Enumerator, "payoffs", counting)
    return calls


def test_unknown_schedule_classes_merge_no_twins(exact_calls):
    graph = Graph(n=4, edges=((0, 1), (0, 2), (0, 3)))
    assert twin_classes(graph, ParallelRounds(2)) == [(1, 2, 3)]
    assert twin_classes(graph, RelabelledRounds(2)) == []
    for schedule, expected in ((RelabelledRounds(2), 10), (ParallelRounds(2), 4)):
        exact_calls.clear()
        find_pure_nash(GameSpec(graph, linear_dyn(), schedule, 1, 1))
        # 16 profiles, 10 up to color swaps.  With twins 1-3 merged, 4: both
        # on 0, one on 0 and one on a twin, both on one twin, on two twins.
        assert len(exact_calls) == expected


def test_hub_game_price_of_anarchy_computes_one_payoff_per_twin_class(exact_calls):
    """Criterion 1's hub game: 12,100 profiles but four twin classes (each
    component's hubs and followers), so a handful of exact evaluations."""
    report = price_of_anarchy(influencer_components((10, 100), 2).game())
    assert (report.value, report.worst_nash_joint, report.max_joint) == (1.0, 100.0, 100.0)
    assert len(exact_calls) == 14


def tuple_rank(game, red, blue):
    """The oracle's former orientation key: budgets first when the game's
    differ, then each side's (-vertex, count) seed list."""
    kr, kb = game.budget_red, game.budget_blue
    return (kr == kb or (red.budget, blue.budget) == (kr, kb),
            [(-v, c) for v, c in red.seeds], [(-v, c) for v, c in blue.seeds])


@st.composite
def ranked_profiles(draw):
    """A game's budgets, equal or not, and two profiles whose sides hold
    either budget; the second is often the first's swap or the first itself."""
    n = draw(st.integers(1, 5))
    budgets = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    game = GameSpec(Graph(n=n, edges=()), linear_dyn(), ParallelRounds(1), *budgets)

    def allocation():
        k = draw(st.sampled_from(budgets))
        return Allocation.from_seeds(n, draw(st.lists(st.integers(0, n - 1),
                                                      min_size=k, max_size=k)))

    red = allocation()
    blue = red if draw(st.booleans()) else allocation()
    other = draw(st.sampled_from(((blue, red), (red, blue), (allocation(), allocation()))))
    return game, (red, blue), other


@settings(max_examples=200, deadline=None)
@given(ranked_profiles())
def test_profiles_rank_as_their_former_tuple_keys(case):
    game, profile, other = case
    oracle = PayoffOracle(game)
    for a, b in ((profile, other), (other, profile), (profile, profile[::-1])):
        assert oracle._above(*a, *b) == (tuple_rank(game, *a) > tuple_rank(game, *b))


@pytest.mark.parametrize("method", ["exact-enumeration", "monte-carlo"])
def test_searches_on_one_oracle_evaluate_each_profile_once(method, monkeypatch):
    """The oracle's table serves every exhaustive search: the first search
    fills it with one `evaluate` per profile, and the searches after it on
    the same oracle evaluate nothing."""
    calls = []
    evaluate = PayoffOracle.evaluate

    def counting(self, red, blue):
        calls.append((red, blue))
        return evaluate(self, red, blue)

    monkeypatch.setattr(PayoffOracle, "evaluate", counting)
    graph = Graph(n=5, edges=((0, 1), (0, 2), (3, 1), (3, 2), (1, 4)))
    game = GameSpec(graph, linear_dyn(), ParallelRounds(2), 1, 2)
    oracle = PayoffOracle(game, method=method, n_trials=20)
    nash = find_pure_nash(game, oracle)
    assert calls == pure_pairs(game)
    calls.clear()
    price_of_anarchy(game, oracle, nash=nash)
    price_of_anarchy(game, oracle)
    budget_multiplier(game, oracle, nash=nash)
    max_joint_payoff(game, oracle)
    assert calls == []


def test_oracle_rejects_unknown_methods():
    with pytest.raises(ValidationError, match="unknown oracle method"):
        PayoffOracle(two_hub_game(), method="guesswork")


# ---------------------------------------------------------------------------
# Nash enumeration and efficiency ratios on hand-solved games.
# ---------------------------------------------------------------------------


def test_unique_nash_contests_the_big_hub():
    game = two_hub_game()
    report = find_pure_nash(game)
    assert report.found
    assert len(report.equilibria) == 1
    red, blue, est = report.equilibria[0]
    assert red.seeded_vertices() == (3,)
    assert blue.seeded_vertices() == (3,)
    assert (est.pi_R, est.pi_B) == (5.0, 5.0)
    assert report.n_red_strategies == 13
    assert not report.statistical


def test_max_joint_payoff_splits_the_hubs():
    game = two_hub_game()
    opt = max_joint_payoff(game)
    assert opt.exhaustive
    assert opt.value == 13.0
    assert {opt.red.seeded_vertices(), opt.blue.seeded_vertices()} == {(0,), (3,)}


def test_hill_climb_reaches_the_optimum_from_a_given_start():
    game = two_hub_game()
    start = (seeds(13, 1), seeds(13, 2))  # two followers of the small hub
    opt = max_joint_payoff(game, mode="hill_climb", starts=[start], restarts=2)
    assert not opt.exhaustive
    assert opt.value == 13.0
    with pytest.raises(ValidationError, match="unknown optimization mode"):
        max_joint_payoff(game, mode="sideways")


def test_price_of_anarchy_of_the_two_hub_game():
    report = price_of_anarchy(two_hub_game())
    assert report.value == pytest.approx(1.3)
    assert report.worst_nash_joint == 10.0
    assert report.best_nash_joint == 10.0
    assert report.max_joint == 13.0
    assert not report.infinite
    assert report.to_json_dict()["value"] == pytest.approx(1.3)


def test_budget_multiplier_with_equal_budgets_compares_better_off_player():
    report = budget_multiplier(two_hub_game())
    assert report.value == 1.0
    assert any("budgets are equal" in c for c in report.caveats)


def test_epsilon_widens_the_equilibrium_set():
    g = Graph(n=2, edges=())
    game = GameSpec(g, linear_dyn(), ParallelRounds(1), 1, 1)
    strict = find_pure_nash(game)
    assert len(strict.equilibria) == 2  # the two vertex-splitting profiles
    for red, blue, est in strict.equilibria:
        assert red.seeded_vertices() != blue.seeded_vertices()
        assert (est.pi_R, est.pi_B) == (1.0, 1.0)
    # contested profiles pay 0.5 and the best deviation pays 1.0
    loose = find_pure_nash(game, eps=0.6)
    assert len(loose.equilibria) == 4


@pytest.mark.parametrize("eps", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_a_negative_or_non_finite_eps_is_refused(eps):
    game = two_hub_game()
    for search in (find_pure_nash, price_of_anarchy, budget_multiplier):
        with pytest.raises(ValidationError, match="eps must be a finite number >= 0"):
            search(game, eps=eps)
    with pytest.raises(ValidationError, match="eps must be a finite number >= 0"):
        verify_profile_deviations(PayoffOracle(game).evaluate, seeds(13, 3), seeds(13, 3),
                                  [], [], eps=eps)


@pytest.mark.parametrize("eps", [True, False, "0.1", [0.1]])
def test_an_eps_that_is_no_real_number_is_refused(eps):
    """A bool is no eps, and a string is refused, never parsed."""
    game = two_hub_game()
    message = re.escape(f"eps must be a real number, got {eps!r}")
    for search in (find_pure_nash, price_of_anarchy, budget_multiplier):
        with pytest.raises(ValidationError, match=message):
            search(game, eps=eps)
    with pytest.raises(ValidationError, match=message):
        verify_profile_deviations(PayoffOracle(game).evaluate, seeds(13, 3), seeds(13, 3),
                                  [], [], eps=eps)


def test_an_integer_eps_is_reported_as_given():
    report = find_pure_nash(two_hub_game(), eps=0)
    assert report.eps == 0 and type(report.eps) is int


def test_best_response_for_blue_matches_brute_force():
    # Blue has two seeds against red's one, so its candidates are not red's.
    game = dataclasses.replace(two_hub_game(), budget_blue=2)
    oracle = PayoffOracle(game)
    red = seeds(13, 0)
    pays = {b: oracle.payoffs(red, b)[1] for b in enumerate_allocations(13, 2)}
    top = max(pays.values())
    alloc, payoff = best_response(game, "blue", red, oracle=oracle)
    assert payoff == top
    assert alloc.counts == min(b.counts for b, pay in pays.items() if pay >= top - 1e-12)
    assert alloc.budget == 2


def test_best_response_contests_the_big_hub():
    game = two_hub_game()
    alloc, payoff = best_response(game, "red", seeds(13, 3))
    assert alloc.seeded_vertices() == (3,)
    assert payoff == 5.0
    with pytest.raises(ValidationError, match="side"):
        best_response(game, "green", seeds(13, 3))


def test_best_response_ties_go_to_the_smallest_counts_tuple():
    # Hubs 0 and 3 each feed two followers and blue sits on isolated vertex
    # 6, so red's two hubs tie; brute force names the lexicographically
    # smallest counts tuple, the hub enumerated last.
    edges = [(0, 1), (0, 2), (3, 4), (3, 5)]
    game = GameSpec(Graph(n=7, edges=tuple(edges)), linear_dyn(),
                    SinglePassOrder((1, 2, 4, 5)), 1, 1)
    oracle = PayoffOracle(game)
    blue = seeds(7, 6)
    pays = {a: oracle.payoffs(a, blue)[0] for a in enumerate_allocations(7, 1)}
    top = max(pays.values())
    tied = [a for a, pay in pays.items() if pay == top]
    assert len(tied) > 1
    alloc, payoff = best_response(game, "red", blue, oracle=oracle)
    assert alloc.counts == min(a.counts for a in tied)
    assert alloc.seeded_vertices() == (3,) and payoff == top


def test_instance_without_any_pure_nash_is_reported_as_such():
    # small cyclic-preference instance found by exhaustive search
    g = Graph(n=4, edges=((0, 1), (0, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)))
    dyn = SwitchSelectAdoption(PowerSwitch(0.5), TullockSelection(2.0))
    game = GameSpec(g, dyn, ParallelRounds(3), 1, 1)
    report = find_pure_nash(game)
    assert not report.found

    poa = price_of_anarchy(game, nash=report)
    assert math.isnan(poa.value)
    assert poa.n_equilibria == 0
    assert any("no pure Nash" in c for c in poa.caveats)
    bm = budget_multiplier(game, nash=report)
    assert math.isnan(bm.value)


def test_find_pure_nash_respects_caps():
    game = two_hub_game()
    with pytest.raises(AllocationSpaceCapError, match="profile pairs"):
        find_pure_nash(game, pair_cap=10)
    with pytest.raises(AllocationSpaceCapError, match="allocations"):
        find_pure_nash(game, allocation_cap=5)


def test_caps_refuse_searches_on_an_oracle_with_a_filled_table():
    game = two_hub_game()
    oracle = PayoffOracle(game)
    find_pure_nash(game, oracle)
    with pytest.raises(AllocationSpaceCapError, match="13x13 profile pairs"):
        max_joint_payoff(game, oracle, pair_cap=10)
    with pytest.raises(AllocationSpaceCapError, match="13 allocations"):
        find_pure_nash(game, oracle, allocation_cap=5)
    assert price_of_anarchy(game, oracle).max_joint == 13.0


def test_monte_carlo_search_floors_eps_at_six_standard_errors():
    game = two_hub_game()
    oracle = PayoffOracle(game, method="monte-carlo", n_trials=400, master_seed=7)
    report = find_pure_nash(game, oracle)
    assert report.statistical
    assert report.eps >= 6.0 * oracle.max_stderr() > 0.0
    assert any("six standard errors" in c for c in report.caveats)


def test_unbounded_ratio_reporting_through_a_custom_payoff_fn():
    game = GameSpec(Graph(n=2, edges=()), linear_dyn(), ParallelRounds(1), 1, 1)
    flat = PayoffEstimate(1.0, 0.0, "exact-enumeration", 0, 0.0, 0.0)
    oracle = PayoffOracle(game, payoff_fn=lambda r, b: flat, use_symmetry=False)
    report = budget_multiplier(game, oracle)
    assert report.infinite
    assert report.to_json_dict()["value"] == "inf"
    assert any("unbounded" in c for c in report.caveats)


# ---------------------------------------------------------------------------
# Restricted deviation checks.
# ---------------------------------------------------------------------------


def test_deviation_report_confirms_the_contested_hub_equilibrium():
    game = two_hub_game()
    oracle = PayoffOracle(game)
    hub3 = seeds(13, 3)
    report = verify_profile_deviations(
        oracle.evaluate, hub3, hub3,
        red_deviations=[("small_hub", seeds(13, 0)), ("follower", seeds(13, 4))],
        blue_deviations=[("small_hub", seeds(13, 0))],
    )
    assert report.equilibrium_ok
    assert report.best_improvement() <= 0.0
    assert "listed deviations" in report.restriction_note


def test_deviation_report_flags_a_profitable_move():
    game = two_hub_game()
    oracle = PayoffOracle(game)
    report = verify_profile_deviations(
        oracle.evaluate, seeds(13, 0), seeds(13, 3),
        red_deviations=[("contest_big_hub", seeds(13, 3))],
        blue_deviations=[],
    )
    assert not report.equilibrium_ok
    assert report.best_improvement("red") == pytest.approx(2.0)  # 5 instead of 3
    assert report.best_improvement("blue") == 0.0
    record = report.records[0]
    assert record.label == "contest_big_hub"
    assert record.payoff == 5.0
