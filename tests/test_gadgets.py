"""Generated benchmark families: layouts, closed-form predictions, and the
verification harness."""

import dataclasses
import math
import re
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contagion_games import (
    Allocation,
    ChainLayout,
    GADGET_BUILDERS,
    GameSpec,
    GadgetSpec,
    GadgetVerification,
    LayerOrder,
    LayeredStructure,
    MixedAllocation,
    PowerSwitch,
    Prediction,
    SinglePassOrder,
    SwitchSelectAdoption,
    TullockSelection,
    ThresholdSwitch,
    StateSpaceCapError,
    StrategyProfile,
    ValidationError,
    build_gadget,
    chain_exact_payoffs,
    chain_final_vertex_distribution,
    chain_replication,
    convexity_amplifier,
    exact_payoffs,
    influencer_components,
    layered_estimate_payoffs,
    linear_selection,
    load_dynamics,
    polarization_amplifier,
    polarization_closed_form_small_final,
    sample_chain_block,
    split_seeds,
    threshold_two_layer,
    verify_gadget,
)
from contagion_games import gadgets, layered
from contagion_games.engine import sample_payoffs
from contagion_games.gadgets import VERIFICATION_CSV_HEADER
from stream_reference import chain_block_run, replication_key


# ---------------------------------------------------------------------------
# Prediction records.
# ---------------------------------------------------------------------------


def test_prediction_judgement_rules():
    equal = Prediction("x", 2.0, "f", check="equal", tol=0.1)
    assert equal.judge(2.05) and not equal.judge(2.2)
    at_least = Prediction("x", 2.0, "f", check="at-least", tol=0.1)
    assert at_least.judge(1.95) and not at_least.judge(1.5)
    band = Prediction("x", 10.0, "f", check="within-band", tol=0.2)
    assert band.judge(11.9) and not band.judge(12.5)
    report = Prediction("x", 10.0, "f", check="report")
    assert report.judge(999.0) is None and report.judge(None) is None
    assert equal.judge(None) is False
    assert Prediction("x", 1.0, "f", measure_key="y").key == "y"
    assert Prediction("x", 1.0, "f").key == "x"


def test_prediction_validation():
    with pytest.raises(ValidationError, match="check must be one of"):
        Prediction("x", 1.0, "f", check="roughly")
    with pytest.raises(ValidationError, match="nonzero predicted"):
        Prediction("x", 0.0, "f", check="within-band")
    with pytest.raises(ValidationError, match="nonnegative"):
        Prediction("x", 1.0, "f", tol=-0.5)


# ---------------------------------------------------------------------------
# Replicated-chain layout.
# ---------------------------------------------------------------------------


def test_chain_layout_counts_and_indexing():
    layout = ChainLayout(chain_steps=3, replications=2, n_terminal=4)
    assert layout.n_inputs == 4
    assert layout.chain_len == 3
    assert layout.block_size == 7
    assert layout.n == 18
    assert layout.n_edges == 20
    assert layout.block_base(1) == 11
    assert layout.chain_vertex(0, 1) == 4
    assert layout.terminal_range(0) == (7, 4)
    assert layout.owner_block(3) is None
    assert layout.owner_block(4) == 0
    assert layout.owner_block(17) == 1
    with pytest.raises(ValidationError, match="chain depth"):
        layout.chain_vertex(0, 4)
    with pytest.raises(ValidationError, match="chain_steps"):
        ChainLayout(0, 2, 4)


def test_chain_layout_graph_matches_the_closed_form():
    layout = ChainLayout(chain_steps=3, replications=2, n_terminal=4)
    g = layout.build_graph()
    assert g.n == layout.n
    assert len(g.edges) == layout.n_edges
    block0 = {(0, 4), (1, 4), (2, 5), (4, 5), (3, 6), (5, 6),
              (6, 7), (6, 8), (6, 9), (6, 10)}
    assert block0 <= set(g.edges)
    schedule = layout.depth_schedule()
    assert len(schedule.layers) == layout.chain_len + 1
    covered = sorted(v for layer in schedule.layers for v in layer)
    assert covered == list(range(layout.n_inputs, layout.n))
    reference = [tuple(layout.chain_vertex(j, depth) for j in range(layout.replications))
                 for depth in range(1, layout.chain_len + 1)]
    reference.append(tuple(v for j in range(layout.replications)
                           for v in range(layout.terminal_range(j)[0], sum(layout.terminal_range(j)))))
    assert schedule.layers == tuple(reference) and schedule == LayerOrder(reference)
    with pytest.raises(ValidationError, match="exceeds the cap"):
        ChainLayout(3, 1000, 1000).build_graph(max_edges=100)


def test_chain_evaluator_matches_generic_enumeration():
    for params in ((2, 2, 2), (3, 3, 2)):
        spec = chain_replication(*params)
        case = spec.profiles["designated"]
        # The designated profile and every declared deviation: contested
        # inputs, and seeds moved onto chain and terminal vertices.
        profiles = [StrategyProfile(case.red, case.blue)]
        profiles += [StrategyProfile(alt, case.blue) for _, alt in case.red_deviations]
        profiles += [StrategyProfile(case.red, alt) for _, alt in case.blue_deviations]
        assert len(profiles) == 8
        assert "contest_red_input" in dict(case.blue_deviations)
        for profile in profiles:
            dp = chain_exact_payoffs(spec.chain, spec.dynamics, profile)
            generic = exact_payoffs(spec.game(), profile)
            assert dp.pi_R == pytest.approx(generic.pi_R, abs=1e-12)
            assert dp.pi_B == pytest.approx(generic.pi_B, abs=1e-12)
    spec = chain_replication(2, 2, 2)
    case = spec.profiles["designated"]
    dp = chain_exact_payoffs(spec.chain, spec.dynamics, StrategyProfile(case.red, case.blue))
    assert (dp.pi_R, dp.pi_B) == (7.5, 3.5)


def test_blue_share_halves_per_chain_step_exactly():
    spec = chain_replication(3, 9, 5)
    case = spec.profiles["designated"]
    dist = chain_final_vertex_distribution(spec.chain, spec.dynamics,
                                           case.red, case.blue)
    assert dist == (0.0, 0.875, 0.125)


def test_extra_head_seeds_do_not_raise_the_blue_share():
    layout = ChainLayout(chain_steps=3, replications=9, n_terminal=5, head_seeds=2)
    dyn = chain_replication(3, 9, 5).dynamics
    blue = Allocation.from_seeds(layout.n, [0, 1])
    red = Allocation.from_seeds(layout.n, list(range(2, layout.n_inputs)))
    dist = chain_final_vertex_distribution(layout, dyn, red, blue)
    assert dist == (0.0, 0.875, 0.125)  # still 1/2**chain_steps


def test_chain_gadget_verifies_with_enough_replications():
    spec = chain_replication(6, 65, 1000)
    assert spec.flags == ()
    ver = verify_gadget(spec)
    assert ver.ok
    assert ver.measured["blue_final_chain_share"] == 2.0 ** -6
    assert ver.measured["bm_designated"] == pytest.approx(9.9198, abs=1e-3)
    threshold_rows = [r for r in ver.prediction_rows
                      if r.name == "equilibrium_threshold_replications"]
    assert threshold_rows[0].predicted == 61.0
    assert threshold_rows[0].ok is None  # informational


def test_chain_gadget_flags_insufficient_replications():
    spec = chain_replication(6, 64, 1000)
    assert len(spec.flags) == 1
    assert "not certified" in spec.flags[0]
    ver = verify_gadget(spec)
    assert not ver.ok


@pytest.mark.parametrize("args", [(1024, 2, 1), (5000, 2, 1), (1023, 2, 2), (1023, 2, 1, 2)])
def test_chain_gadget_refuses_chains_beyond_float_range(args):
    # 2**chain_steps * max(head_seeds, n_terminal) must stay a finite float.
    with pytest.raises(ValidationError, match="chain_steps"):
        chain_replication(*args)
    assert chain_replication(1023, 2, 1).n_vertices == 1024 + 2 * 1024


def test_chain_budget_multiplier_grows_with_chain_length():
    bms = []
    for steps in range(2, 7):
        ver = verify_gadget(chain_replication(steps, 2 ** steps + 1, 50))
        bms.append(ver.measured["bm_designated"])
    assert all(lo < hi for lo, hi in zip(bms, bms[1:]))


def test_block_sampler_agrees_with_the_exact_share():
    spec = chain_replication(4, 17, 50)
    case = spec.profiles["designated"]
    n_runs = 40_000
    _, blue_counts = sample_chain_block(spec.chain, spec.dynamics, case.red,
                                        case.blue, n_runs=n_runs, master_seed=7)
    # blue wins a block's terminals iff it wins the final chain vertex
    share = float(np.mean(blue_counts >= spec.chain.n_terminal))
    p = 2.0 ** -4
    sigma = (p * (1 - p) / n_runs) ** 0.5
    assert share == pytest.approx(0.06525, abs=1e-12)  # reproducible draw
    assert abs(share - p) <= 3 * sigma
    with pytest.raises(ValidationError, match="shared inputs only"):
        sample_chain_block(spec.chain, spec.dynamics,
                           case.red.move_seed(1, spec.chain.n_inputs),
                           case.blue, n_runs=10)


def reference_chain_block(layout, dyn, red, blue, n_runs, master_seed=0, block=0):
    """The block sampler one run at a time, on the scalar stream reference:
    `sample_chain_block` must match it draw for draw."""
    runs = [chain_block_run(layout, dyn, red, blue, replication_key(master_seed, i, (block,)))
            for i in range(n_runs)]
    return tuple(np.array(counts, dtype=np.int64) for counts in zip(*runs))


@st.composite
def chain_block_cases(draw):
    layout = ChainLayout(draw(st.integers(1, 4)), draw(st.integers(1, 3)),
                         draw(st.integers(1, 6)), draw(st.integers(1, 3)))
    counts = st.lists(st.integers(0, 2), min_size=layout.n_inputs, max_size=layout.n_inputs)
    red = Allocation(draw(counts) + [0] * (layout.n - layout.n_inputs))
    blue = Allocation(draw(counts) + [0] * (layout.n - layout.n_inputs))
    dyn = draw(st.sampled_from([
        SwitchSelectAdoption(ThresholdSwitch(0.75), linear_selection()),
        SwitchSelectAdoption(PowerSwitch(0.5), TullockSelection(0.75)),
        SwitchSelectAdoption(PowerSwitch(2.0), TullockSelection(1.5)),
        SwitchSelectAdoption(PowerSwitch(1.0), linear_selection()),
    ]))
    return (layout, dyn, red, blue, draw(st.integers(1, 200)), draw(st.integers(0, 2**32)),
            draw(st.integers(0, 5)))


@settings(max_examples=150, deadline=None)
@given(chain_block_cases())
def test_block_sampler_matches_the_scalar_stream_reference(case):
    layout, dyn, red, blue, n_runs, master_seed, block = case
    got = sample_chain_block(layout, dyn, red, blue, n_runs, master_seed, block)
    want = reference_chain_block(layout, dyn, red, blue, n_runs, master_seed, block)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("n_runs, master_seed, block, bad", [
    (-1, 0, 0, "n_runs"), (0, 0, 0, "n_runs"), (2.5, 0, 0, "n_runs"), (True, 0, 0, "n_runs"),
    (10, -1, 0, "master_seed"), (10, 0.5, 0, "master_seed"),
    (10, 0, -3, "block"), (10, 0, True, "block"),
])
def test_block_sampler_refuses_malformed_counts_and_seeds(n_runs, master_seed, block, bad):
    spec = chain_replication(2, 2, 2)
    case = spec.profiles["designated"]
    with pytest.raises(ValidationError, match=bad):
        sample_chain_block(spec.chain, spec.dynamics, case.red, case.blue, n_runs,
                           master_seed, block)


@st.composite
def contested_chain_cases(draw):
    """Small layouts with seeds on every kind of vertex, inputs contested
    with uneven shares."""
    layout = ChainLayout(draw(st.integers(1, 3)), draw(st.integers(1, 2)),
                         draw(st.integers(1, 3)), draw(st.integers(1, 2)))
    counts = st.lists(st.integers(0, 3), min_size=layout.n, max_size=layout.n)
    red, blue = Allocation(draw(counts)), Allocation(draw(counts))
    dyn = draw(st.sampled_from([
        SwitchSelectAdoption(ThresholdSwitch(0.75), linear_selection()),
        SwitchSelectAdoption(PowerSwitch(0.5), TullockSelection(0.75)),
        SwitchSelectAdoption(PowerSwitch(2.0), TullockSelection(1.5)),
    ]))
    return layout, dyn, red, blue


@settings(max_examples=60, deadline=None)
@given(contested_chain_cases())
def test_chain_exact_pass_matches_enumeration_with_contested_seeds(case):
    layout, dyn, red, blue = case
    profile = StrategyProfile(red, blue)
    game = GameSpec(layout.build_graph(), dyn, layout.depth_schedule(), 1, 1)
    chain = chain_exact_payoffs(layout, dyn, profile)
    exact = exact_payoffs(game, profile)
    assert chain.pi_R == pytest.approx(exact.pi_R, abs=1e-12)
    assert chain.pi_B == pytest.approx(exact.pi_B, abs=1e-12)


def test_the_chain_pass_skips_a_zero_probability_support_entry():
    layout = ChainLayout(2, 2, 3, 1)
    dyn = SwitchSelectAdoption(PowerSwitch(0.5), TullockSelection(0.75))
    on = lambda v: Allocation.from_seeds(layout.n, [v])
    blue = on(1)
    mixed = MixedAllocation(((0.25, on(0)), (0.75, on(2)), (0.0, on(1))))
    without = MixedAllocation(((0.25, on(0)), (0.75, on(2))))
    with patch.object(gadgets, "_chain_forward", wraps=gadgets._chain_forward) as forward:
        est = chain_exact_payoffs(layout, dyn, StrategyProfile(mixed, blue))
    assert forward.call_count == 2
    assert est == chain_exact_payoffs(layout, dyn, StrategyProfile(without, blue))


def test_chain_exact_pass_takes_many_contested_inputs():
    """Every input contested, 24 of them: the blue share halves per link
    under an even contest of each input, and the last chain vertex is red or
    blue with equal odds once every input is infected."""
    layout = ChainLayout(chain_steps=23, replications=3, n_terminal=4)
    dyn = chain_replication(2, 2, 2).dynamics
    inputs = Allocation.from_seeds(layout.n, list(range(layout.n_inputs)))
    assert len(split_seeds(inputs, inputs)[2]) == 24
    dist = chain_final_vertex_distribution(layout, dyn, inputs, inputs)
    assert dist == pytest.approx((0.0, 0.5, 0.5), abs=1e-12)
    est = chain_exact_payoffs(layout, dyn, StrategyProfile(inputs, inputs))
    assert est.pi_R == pytest.approx(est.pi_B, abs=1e-9)
    assert est.pi_R + est.pi_B == pytest.approx(layout.n, abs=1e-9)


# ---------------------------------------------------------------------------
# Declared profiles and deviations.
# ---------------------------------------------------------------------------


# Instances that take every branch of the builders' declarations: budgets
# above 1, blue's all-seeds move, polarization's per-stage blue moves and
# several chain head seeds.  Each profile is (red seeds, blue seeds, then
# every deviation as (player, label, seeds) in declared order).
DECLARED_CASES = [
    (lambda: threshold_two_layer(4, 1, 2, 0.5), {
        "designated": ([(0, 1)], [(1, 1)], [
            ("red", "one_seed_to_own_layer2", [(4, 1)]),
            ("red", "one_seed_to_other_layer1", [(5, 1)]),
            ("red", "one_seed_to_other_layer2", [(9, 1)]),
            ("red", "contest_opponent_seed", [(1, 1)]),
            ("red", "all_seeds_to_other_layer1", [(5, 1)]),
            ("red", "split_across_components", [(5, 1)]),
            ("blue", "one_seed_to_own_layer2", [(4, 1)]),
            ("blue", "one_seed_to_other_layer1", [(6, 1)]),
            ("blue", "one_seed_to_other_layer2", [(9, 1)]),
            ("blue", "contest_opponent_seed", [(0, 1)]),
            ("blue", "all_seeds_to_other_layer1", [(6, 1)]),
            ("blue", "split_across_components", [(6, 1)]),
        ]),
        "best_joint": ([(5, 1)], [(6, 1)], [
            ("red", "one_seed_to_own_layer2", [(9, 1)]),
            ("red", "one_seed_to_other_layer1", [(0, 1)]),
            ("red", "one_seed_to_other_layer2", [(4, 1)]),
            ("red", "contest_opponent_seed", [(6, 1)]),
            ("red", "all_seeds_to_other_layer1", [(0, 1)]),
            ("red", "split_across_components", [(0, 1)]),
            ("blue", "one_seed_to_own_layer2", [(9, 1)]),
            ("blue", "one_seed_to_other_layer1", [(1, 1)]),
            ("blue", "one_seed_to_other_layer2", [(4, 1)]),
            ("blue", "contest_opponent_seed", [(5, 1)]),
            ("blue", "all_seeds_to_other_layer1", [(1, 1)]),
            ("blue", "split_across_components", [(1, 1)]),
        ]),
    }),
    (lambda: convexity_amplifier(6, 3, 2.0, 64, budget=2), {
        "designated": ([(0, 1), (1, 1)], [(2, 1), (3, 1)], [
            ("red", "one_seed_cross_component", [(1, 1), (106, 1)]),
            ("red", "one_seed_to_own_layer2", [(1, 1), (6, 1)]),
            ("red", "contest_opponent_seed", [(1, 1), (2, 1)]),
            ("red", "all_seeds_cross_component", [(106, 1), (107, 1)]),
            ("blue", "one_seed_cross_component", [(3, 1), (106, 1)]),
            ("blue", "one_seed_to_own_layer2", [(3, 1), (6, 1)]),
            ("blue", "contest_opponent_seed", [(0, 1), (3, 1)]),
            ("blue", "all_seeds_cross_component", [(108, 1), (109, 1)]),
        ]),
        "best_joint": ([(106, 1), (107, 1)], [(108, 1), (109, 1)], [
            ("red", "one_seed_cross_component", [(0, 1), (107, 1)]),
            ("red", "one_seed_to_own_layer2", [(107, 1), (112, 1)]),
            ("red", "contest_opponent_seed", [(107, 1), (108, 1)]),
            ("red", "all_seeds_cross_component", [(0, 1), (1, 1)]),
            ("blue", "one_seed_cross_component", [(0, 1), (109, 1)]),
            ("blue", "one_seed_to_own_layer2", [(109, 1), (112, 1)]),
            ("blue", "contest_opponent_seed", [(106, 1), (109, 1)]),
            ("blue", "all_seeds_cross_component", [(2, 1), (3, 1)]),
        ]),
    }),
    (lambda: influencer_components((4, 8, 3), 3, budget_red=1, budget_blue=2), {
        "designated": ([(4, 1)], [(5, 1), (6, 1)], [
            ("red", "contest_opponent_hub", [(5, 1)]),
            ("red", "hub_of_component0", [(0, 1)]),
            ("red", "hub_of_component2", [(12, 1)]),
            ("red", "follower_same_component", [(7, 1)]),
            ("blue", "contest_opponent_hub", [(4, 1), (6, 1)]),
            ("blue", "hub_of_component0", [(0, 1), (6, 1)]),
            ("blue", "hub_of_component2", [(6, 1), (12, 1)]),
            ("blue", "follower_same_component", [(6, 1), (7, 1)]),
            ("blue", "all_seeds_to_followers", [(7, 1), (8, 1)]),
        ]),
    }),
    (lambda: polarization_amplifier(2, 3, 40, 2.0), {
        "designated": ([(0, 1), (1, 1), (2, 1)], [(47, 1)], [
            ("red", "one_seed_to_deep_layer2", [(1, 1), (2, 1), (4, 1)]),
            ("red", "one_seed_to_final_deep_layer", [(1, 1), (2, 1), (7, 1)]),
            ("red", "one_seed_contest_star_hub", [(1, 1), (2, 1), (47, 1)]),
            ("red", "one_seed_to_star_leaf", [(1, 1), (2, 1), (48, 1)]),
            ("red", "all_seeds_contest_star_hub", [(47, 3)]),
            ("blue", "invade_free_first_layer_vertex", [(3, 1)]),
            ("blue", "contest_red_seed", [(0, 1)]),
            ("blue", "seed_deep_layer2", [(4, 1)]),
            ("blue", "seed_deep_layer3", [(7, 1)]),
            ("blue", "move_to_own_leaf", [(48, 1)]),
        ]),
    }),
    (lambda: chain_replication(3, 5, 20, head_seeds=2), {
        "designated": ([(2, 1), (3, 1), (4, 1)], [(0, 1), (1, 1)], [
            ("red", "one_seed_to_terminal", [(3, 1), (4, 1), (9, 1)]),
            ("red", "one_seed_to_final_chain_vertex", [(3, 1), (4, 1), (8, 1)]),
            ("red", "contest_blue_head", [(0, 1), (3, 1), (4, 1)]),
            ("blue", "head_to_final_chain_vertex", [(1, 1), (8, 1)]),
            ("blue", "head_to_terminal", [(1, 1), (9, 1)]),
            ("blue", "head_to_first_chain_vertex", [(1, 1), (5, 1)]),
            ("blue", "contest_red_input", [(1, 1), (2, 1)]),
        ]),
    }),
]


@pytest.mark.parametrize("make, expected", DECLARED_CASES, ids=[
    "threshold", "convexity", "influencer", "polarization", "chain"])
def test_builders_declare_each_profile_and_deviation_in_order(make, expected):
    pairs = lambda alloc: [tuple(p) for p in alloc.seeds]
    declared = {
        label: (pairs(case.red), pairs(case.blue),
                [("red", lab, pairs(a)) for lab, a in case.red_deviations]
                + [("blue", lab, pairs(a)) for lab, a in case.blue_deviations])
        for label, case in make().profiles.items()}
    assert declared == expected


# ---------------------------------------------------------------------------
# Hub-and-followers components.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sizes,hubs,expected_edges", [
    ((10, 100), 2, 212),
    ((110,), 2, 216),
    ((33,), 3, 90),
])
def test_influencer_edge_counts(sizes, hubs, expected_edges):
    spec = influencer_components(sizes, hubs)
    assert spec.n_edges == expected_edges
    assert spec.n_vertices == sum(sizes)


def test_influencer_micro_instance_verifies():
    spec = influencer_components((4, 8), 2)
    assert spec.vertex_classes["component1_hubs"] == (4, 2)
    assert spec.vertex_classes["component1_followers"] == (6, 6)
    ver = verify_gadget(spec)
    assert ver.ok
    assert ver.measured["designated_pi_R"] == 4.0
    assert ver.measured["designated_pi_B"] == 4.0
    assert ver.profile_ok("designated")


HUB_DYNAMICS = [
    SwitchSelectAdoption(PowerSwitch(1.0), linear_selection()),
    SwitchSelectAdoption(PowerSwitch(0.5), linear_selection()),
    SwitchSelectAdoption(PowerSwitch(math.log(25.0) / math.log(1.5)),
                         TullockSelection(math.log2(99.0))),  # the convex anchor
    load_dynamics({"h": "builtin:quadratic_damped"}),
]


@st.composite
def hub_games(draw):
    """A hub gadget of 1-3 components and a pure profile whose seeds may sit
    on hubs or followers, contested vertices included.  The designated
    profile needs budget_red + budget_blue hubs, so there are 2 or 3."""
    hubs = draw(st.integers(2, 3))
    budget_red = draw(st.integers(1, hubs - 1))
    budget_blue = draw(st.integers(1, hubs - budget_red))
    sizes = draw(st.lists(st.integers(hubs, 9), min_size=1, max_size=3))
    spec = influencer_components(sizes, hubs, dynamics=draw(st.sampled_from(HUB_DYNAMICS)),
                                 budget_red=budget_red, budget_blue=budget_blue)
    n = spec.n_vertices
    red = draw(st.lists(st.integers(0, n - 1), min_size=budget_red, max_size=budget_red))
    blue = draw(st.lists(st.integers(0, n - 1), min_size=budget_blue, max_size=budget_blue))
    if draw(st.booleans()):
        blue[0] = red[0]  # a contested vertex
    return spec, StrategyProfile(Allocation.from_seeds(n, red), Allocation.from_seeds(n, blue))


@settings(max_examples=80, deadline=None)
@given(hub_games())
def test_layered_hub_gadgets_match_their_single_pass_form(game):
    # Followers read only hubs, and hubs never update, so one layer of
    # followers is the same process as a single pass over them.
    spec, profile = game
    layered_game = spec.game()
    followers = tuple(v for start, size in (spec.vertex_classes[f"component{c}_followers"]
                                            for c in range(len(spec.params["sizes"])))
                      for v in range(start, start + size))
    single_pass = dataclasses.replace(layered_game, schedule=SinglePassOrder(followers))
    enumerated = exact_payoffs(layered_game, profile)
    reference = exact_payoffs(single_pass, profile)
    assert (enumerated.pi_R, enumerated.pi_B) == (reference.pi_R, reference.pi_B)
    dp = spec.payoff_fn()(profile.red, profile.blue)
    assert dp.method == "exact-layered-dp"
    assert dp.pi_R == pytest.approx(reference.pi_R, rel=1e-12, abs=0.0)
    assert dp.pi_B == pytest.approx(reference.pi_B, rel=1e-12, abs=0.0)
    for a, b in zip(sample_payoffs(layered_game, profile, 40, master_seed=3),
                    sample_payoffs(single_pass, profile, 40, master_seed=3)):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("make", [
    lambda: influencer_components((3, 7), 2),
    lambda: influencer_components((2, 2), 2),
    lambda: threshold_two_layer(4, 2, 3, 0.5),
    lambda: convexity_amplifier(4, 3, 2.0, 6),
    lambda: polarization_amplifier(1, 5, 20, 2.0),
    lambda: chain_replication(2, 3, 4),
])
def test_gadget_size_schedule_and_graph_follow_from_the_layout(make):
    spec = make()
    assert {f.name for f in dataclasses.fields(GadgetSpec)}.isdisjoint(
        {"graph", "schedule", "n_vertices", "n_edges"})
    layout = spec.structure if spec.structure is not None else spec.chain
    graph = spec.build_graph()
    assert (spec.n_vertices, spec.n_edges) == (graph.n, len(graph.edges))
    assert spec.schedule == layout.depth_schedule()
    assert spec.schedule is spec.schedule  # built once


def test_a_gadget_needs_exactly_one_layout():
    with pytest.raises(ValidationError, match="exactly one"):
        dataclasses.replace(chain_replication(2, 3, 4), structure=LayeredStructure(((2, 3),)))


@pytest.mark.parametrize("kind, params, name", [
    ("influencer_components", {"sizes": [10.5, 100], "hubs_per_component": 2}, "sizes"),
    ("influencer_components", {"sizes": [10, 100], "hubs_per_component": True}, "hubs_per"),
    ("influencer_components", {"sizes": [10, 100], "hubs_per_component": 3,
                               "budget_blue": 1.0}, "budget_blue"),
    ("threshold_two_layer", {"layer1_size": 8, "final_small": "2", "final_large": 40,
                             "threshold": 0.5}, "final_small"),
    ("threshold_two_layer", {"layer1_size": 8, "final_small": 2, "final_large": 40,
                             "threshold": "0.5"}, "threshold"),
    ("convexity_amplifier", {"base_size": 4, "depth": 4.5, "switch_exponent": 2.0,
                             "final_small": 6}, "depth"),
    ("convexity_amplifier", {"base_size": 4, "depth": 3, "switch_exponent": True,
                             "final_small": 6}, "switch_exponent"),
    ("convexity_amplifier", {"base_size": 4, "depth": 3, "switch_exponent": 2.0,
                             "final_small": 6, "final_large": 7.0}, "final_large"),
    ("polarization_amplifier", {"stages": 1, "middle_size": 5, "big_final_size": 20,
                                "selection_exponent": "2"}, "selection_exponent"),
    ("polarization_amplifier", {"stages": 1, "middle_size": 5, "big_final_size": 20,
                                "selection_exponent": 2.0, "small_final_size": 2.5},
     "small_final_size"),
    ("chain_replication", {"chain_steps": "4", "replications": 17, "n_terminal": 10},
     "chain_steps"),
    ("chain_replication", {"chain_steps": 4, "replications": 17.9, "n_terminal": 10},
     "replications"),
    ("chain_replication", {"chain_steps": 4, "replications": 17, "n_terminal": True},
     "n_terminal"),
])
def test_gadget_parameters_are_checked_not_coerced(kind, params, name):
    with pytest.raises(ValidationError, match=f"gadget parameter {name}"):
        build_gadget(kind, params)


def test_gadget_parameters_accept_numpy_numbers():
    spec = build_gadget("convexity_amplifier", {
        "base_size": np.int64(4), "depth": np.int32(3), "switch_exponent": np.float64(2.0),
        "final_small": np.int64(6), "budget": np.int16(1)})
    assert spec.params["depth"] == 3 and type(spec.params["depth"]) is int
    assert spec.n_vertices == convexity_amplifier(4, 3, 2.0, 6).n_vertices
    assert influencer_components([np.int64(4), 8], np.int8(2)).params["sizes"] == [4, 8]


def test_influencer_validation():
    with pytest.raises(ValidationError, match="smaller than hubs_per_component"):
        influencer_components((1, 100), 2)
    with pytest.raises(ValidationError, match="at least one component"):
        influencer_components((), 2)
    with pytest.raises(ValidationError, match="hubs in the largest component"):
        influencer_components((10, 100), 2, budget_red=2, budget_blue=1)
    for red, blue in ((0, 1), (1, 0), (-1, 2)):
        with pytest.raises(ValidationError, match="both budgets must be at least 1"):
            influencer_components((10, 100), 3, budget_red=red, budget_blue=blue)


# ---------------------------------------------------------------------------
# Two-component threshold gadget.
# ---------------------------------------------------------------------------


def test_threshold_gadget_small_instance_is_exact():
    spec = threshold_two_layer(8, 2, 40, 0.5)
    assert spec.budget_red == spec.budget_blue == 2
    ver = verify_gadget(spec)
    assert ver.ok
    assert ver.measured["designated_joint"] == 6.0
    assert ver.measured["best_joint_joint"] == 44.0
    assert ver.measured["poa_vs_designated"] == pytest.approx(44.0 / 6.0)
    assert ver.measured["split_seeds_layer2_infections"] == 0.0
    approx_rows = [r for r in ver.prediction_rows
                   if r.name == "poa_large_population_approx"]
    assert approx_rows[0].predicted == 20.0  # final_large / final_small
    assert approx_rows[0].ok is None


def test_threshold_gadget_rejects_fractional_budgets():
    with pytest.raises(ValidationError, match="not a positive integer"):
        threshold_two_layer(5, 2, 40, 0.3)
    with pytest.raises(ValidationError, match="strictly inside"):
        threshold_two_layer(8, 2, 40, 1.0)


@pytest.mark.parametrize("make, message", [
    (lambda: threshold_two_layer(1, 1, 1, 0.5),
     "layer sizes must be positive (first layer at least 2)"),
    (lambda: convexity_amplifier(4, 2, 2.0, 8, budget=0), "budget must be at least 1"),
    (lambda: convexity_amplifier(4, 2, 2.0, 0), "final layer sizes must be positive"),
    (lambda: polarization_amplifier(2, 0, 100, 2.0), "layer sizes must be positive"),
    (lambda: polarization_amplifier(2, 10, 100, 2.0, small_final_size=0),
     "small_final_size < 1: parameters are too aggressive for a valid star"),
])
def test_builders_refuse_empty_layers_and_budgets(make, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        make()


def test_verification_evaluates_each_profile_once():
    # 27 evaluations name 24 profiles: the split measure repeats red's split
    # deviation, and each player's all-seeds move from the designated profile
    # is the other's from the efficient one.
    spec = threshold_two_layer(20, 10, 1000, 0.5)
    payoffs = spec.payoff_fn()
    calls = []

    def counting(red, blue):
        calls.append((red, blue))
        return payoffs(red, blue)

    ver = verify_gadget(spec, payoff_fn=counting)
    assert len(calls) == len(set(calls)) == 24
    assert ver.ok
    assert ver.measured == verify_gadget(spec).measured
    assert ver.measured["split_seeds_layer2_infections"] == 0.0


def count_transitions(run) -> int:
    """Layer steps that `run` takes, on (red, blue) boxes or on layer totals."""
    calls = []

    def counting(transition):
        def count(*args):
            calls.append(None)
            return transition(*args)
        return count

    with patch.object(layered, "_layer_transition", counting(layered._layer_transition)), \
            patch.object(layered, "_lumped_transition", counting(layered._lumped_transition)):
        run()
    return len(calls)


@pytest.mark.parametrize("build, args, shared, total", [
    (convexity_amplifier, (4, 6, 1.25, 8192), 28, 34),
    (polarization_amplifier, (4, 40, 4000, 1.25), 24, 24),
])
def test_verification_advances_each_seeded_prefix_once(build, args, shared, total):
    # As separate DP calls, the verifications take 118 and 39 layer
    # transitions.  On one shared DP each of the 28 and 24 distinct seeded prefixes is
    # advanced once; convexity's final_fraction measure reruns 6 of them on a
    # truncated structure, outside that DP.
    spec = build(*args)
    assert count_transitions(
        lambda: verify_gadget(dataclasses.replace(spec, extra_measure=None))) == shared
    assert count_transitions(lambda: verify_gadget(spec)) == total


# ---------------------------------------------------------------------------
# Convexity amplifier.
# ---------------------------------------------------------------------------


def test_convexity_layer_sizes_follow_the_power_tower():
    spec = convexity_amplifier(4, 4, 2.0, 256)
    assert spec.params["final_large"] == round(2.0 ** (2.0 ** 3) * 256 / 2)
    sizes = spec.structure.component_layer_sizes
    assert sizes[0] == (4, 16, 256, 256)
    assert sizes[1] == (4, 16, 256, 32768)


def test_convexity_amplification_grows_with_depth():
    poas = []
    for depth in (2, 3, 4):
        ver = verify_gadget(convexity_amplifier(4, depth, 2.0, 256))
        poas.append(ver.measured["poa_vs_designated"])
    assert all(lo < hi for lo, hi in zip(poas, poas[1:]))
    assert poas[0] == pytest.approx(1.9697, abs=1e-3)
    assert poas[2] == pytest.approx(12.0729, abs=1e-3)


def test_convexity_dp_matches_the_aggregated_sampler():
    spec = convexity_amplifier(4, 3, 2.0, 6)
    case = spec.profiles["designated"]
    profile = StrategyProfile(case.red, case.blue)
    dp = spec.payoff_fn()(case.red, case.blue)
    mc = layered_estimate_payoffs(spec.structure, spec.dynamics, profile,
                                  n_trials=20_000, master_seed=3)
    assert abs(mc.pi_R - dp.pi_R) <= 3 * mc.stderr_R
    assert abs(mc.pi_B - dp.pi_B) <= 3 * mc.stderr_B


def test_a_four_million_vertex_convexity_amplifier_builds_and_evaluates_in_little_memory():
    tracemalloc.start()
    try:
        spec = convexity_amplifier(4, 4, 2.0, 32768)
        case = spec.profiles["designated"]
        est = spec.profile_payoff_fn()(StrategyProfile(case.red, case.blue))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.n_vertices == 4_227_624
    assert est.pi_R == pytest.approx(est.pi_B, rel=1e-12) and est.pi_R > 0
    assert peak < 16 << 20


def test_convexity_validation():
    with pytest.raises(ValidationError, match="depth must be at least 2"):
        convexity_amplifier(4, 1, 2.0, 6)
    with pytest.raises(ValidationError, match="must exceed 1"):
        convexity_amplifier(4, 3, 1.0, 6)
    with pytest.raises(ValidationError, match="base_size must fit"):
        convexity_amplifier(2, 3, 2.0, 6, budget=2)
    with pytest.raises(ValidationError, match="beyond float range"):
        convexity_amplifier(4, 12, 2.0, 2)
    # Infeasible at desk scale: it builds, and its verification stops at the
    # layered DP's cell cap instead of asking for a 2^32 + 1 cell table of
    # log factorials for its last middle layer.
    with pytest.raises(StateSpaceCapError, match="log-factorial table"):
        verify_gadget(convexity_amplifier(4, 8, 2.0, 2))


# ---------------------------------------------------------------------------
# Polarization amplifier.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: convexity_amplifier(4, 3, 2.0, 6),
    lambda: polarization_amplifier(2, 20, 100, 2.0),
    lambda: chain_replication(3, 4, 5),
])
def test_layer_order_summaries_count_the_explicit_layers(make):
    spec = make()
    layers = spec.schedule.layers
    assert spec.to_json_dict()["schedule"] == {
        "kind": "layer_order", "n_phases": len(layers), "phase_sizes": [len(l) for l in layers]}


def test_polarization_closed_form_small_final_value():
    assert polarization_closed_form_small_final(10_000, 2, 2.0) == 39


def test_polarization_star_size_comes_from_exact_deviations():
    spec = polarization_amplifier(2, 200, 10_000, 2.0)
    assert spec.params["small_final_size"] == 246
    assert spec.params["small_final_closed_form"] == 39
    assert spec.budget_red == 3 and spec.budget_blue == 1
    ver = verify_gadget(spec)
    assert ver.ok
    assert ver.measured["bm_designated"] == pytest.approx(10.3279, abs=1e-3)


def test_a_hundred_million_vertex_polarization_amplifier_verifies():
    # The DP's pruning leaves pi_R short of the closed form by ~8e-14 of it
    # at every size, so the check is relative.
    spec = polarization_amplifier(2, 200, 10**8, 2.0)
    assert spec.n_vertices > 10**8
    ver = verify_gadget(spec)
    assert ver.ok
    row = [r for r in ver.prediction_rows if r.name == "designated_pi_R"][0]
    assert row.check == "within-band" and row.ok


def test_polarization_single_stage_misses_its_lower_bound():
    # With one stage the dampening is too weak: the designated profile is an
    # equilibrium but the measured ratio falls a hair below the at-least bound.
    ver = verify_gadget(polarization_amplifier(1, 200, 10_000, 2.0))
    assert ver.profile_ok("designated")
    bm_row = [r for r in ver.prediction_rows if r.name == "bm_designated"][0]
    assert bm_row.ok is False
    assert bm_row.measured == pytest.approx(2.4985, abs=1e-3)
    assert not ver.ok


@pytest.mark.parametrize("args", [(3, 10, 100, 10.0), (6, 10, 100, 3.0)])
def test_polarization_builds_when_the_minority_share_underflows(args):
    # s**(stages + 1) is past 1,840, so (1/3)**e and (2/3)**e both underflow;
    # the closed form's minority share is then 0, not 0/0.
    spec = polarization_amplifier(*args)
    assert spec.params["small_final_closed_form"] == 0
    assert polarization_closed_form_small_final(10**9, 400, 10.0) == 0  # e itself overflows
    ver = verify_gadget(spec)
    assert isinstance(ver, GadgetVerification) and ver.prediction_rows


def test_polarization_validation():
    with pytest.raises(ValidationError, match="stages must be at least 1"):
        polarization_amplifier(0, 10, 100, 2.0)
    with pytest.raises(ValidationError, match="selection_exponent"):
        polarization_amplifier(2, 10, 100, 1.0)


# ---------------------------------------------------------------------------
# Builder registry and the verification report.
# ---------------------------------------------------------------------------


def test_build_gadget_dispatch_and_dynamics_conversion():
    assert sorted(GADGET_BUILDERS) == [
        "chain_replication", "convexity_amplifier", "influencer_components",
        "polarization_amplifier", "threshold_two_layer"]
    spec = build_gadget("influencer_components", {
        "sizes": [4, 8], "hubs_per_component": 2,
        "dynamics": {"f": {"kind": "power", "r": 1.0},
                     "g": {"kind": "tullock", "s": 1.0}}})
    assert spec.n_vertices == 12
    with pytest.raises(ValidationError, match="unknown gadget kind"):
        build_gadget("mystery", {})
    with pytest.raises(ValidationError, match="bad parameters"):
        build_gadget("chain_replication", {"chain_steps": 2, "bogus": 1})


def test_verify_gadget_reports_impossible_predictions_without_raising():
    spec = threshold_two_layer(8, 2, 40, 0.5)
    spec.predictions = (
        Prediction("worst_nash_joint", 999.0, "wrong on purpose",
                   check="equal", tol=0.0, measure_key="designated_joint"),
        Prediction("missing", 1.0, "no such measurement",
                   check="equal", measure_key="nothing_here"),
    )
    ver = verify_gadget(spec)
    assert not ver.ok
    assert [r.ok for r in ver.prediction_rows] == [False, False]
    assert ver.prediction_rows[1].measured is None


def test_verification_csv_layout():
    ver = verify_gadget(threshold_two_layer(8, 2, 40, 0.5))
    rows = ver.csv_rows()
    assert rows[0] == VERIFICATION_CSV_HEADER
    kinds = [row[0] for row in rows[1:]]
    assert kinds.count("prediction") == len(ver.prediction_rows)
    assert kinds.count("profile") == 2
    assert rows[-1][0] == "summary"
    assert rows[-1][6] is True
