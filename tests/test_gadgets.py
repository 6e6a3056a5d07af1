"""Generated benchmark families: layouts, closed-form predictions, and the
verification harness."""

import tracemalloc

import numpy as np
import pytest

from contagion_games import (
    Allocation,
    ChainLayout,
    GADGET_BUILDERS,
    LayerOrder,
    Prediction,
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
    polarization_amplifier,
    polarization_closed_form_small_final,
    sample_chain_block,
    threshold_two_layer,
    verify_gadget,
)
from contagion_games.gadgets import VERIFICATION_CSV_HEADER


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
    assert share == pytest.approx(0.063125, abs=1e-12)  # reproducible draw
    assert abs(share - p) <= 3 * sigma
    with pytest.raises(ValidationError, match="shared inputs only"):
        sample_chain_block(spec.chain, spec.dynamics,
                           case.red.move_seed(1, spec.chain.n_inputs),
                           case.blue, n_runs=10)


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


def test_influencer_validation():
    with pytest.raises(ValidationError, match="smaller than hubs_per_component"):
        influencer_components((1, 100), 2)
    with pytest.raises(ValidationError, match="at least one component"):
        influencer_components((), 2)
    with pytest.raises(ValidationError, match="hubs in the largest component"):
        influencer_components((10, 100), 2, budget_red=2, budget_blue=1)


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
    # layered DP's cell cap instead of asking for a (65537, 65537) state box.
    with pytest.raises(StateSpaceCapError, match="state box"):
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
