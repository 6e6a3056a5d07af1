"""Layered feed-forward graphs: structure, DP oracle, and layer sampler."""

import itertools
import math
import re
import time
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contagion_games import engine, layered
from contagion_games import (
    Allocation,
    BuiltinAdoption,
    GameSpec,
    HalfPointSwitch,
    LayerOrder,
    LayeredStructure,
    MixedAllocation,
    PowerSwitch,
    StateSpaceCapError,
    StrategyProfile,
    SwitchSelectAdoption,
    TableSelection,
    TableSwitch,
    ThresholdSwitch,
    TullockSelection,
    ValidationError,
    exact_payoffs,
    layered_estimate_payoffs,
    layered_exact_payoffs,
    linear_selection,
    sample_layered_counts,
    validate_layered_graph,
)
from stream_reference import layered_run, replication_key


def two_component_structure():
    return LayeredStructure(((2, 3), (4,)))


def test_structure_counts():
    s = two_component_structure()
    assert s.n == 9
    assert s.n_edges == 6
    assert s.layer_ranges() == (((0, 2), (2, 3)), ((5, 4),))


def test_structure_validation():
    with pytest.raises(ValidationError, match="at least one component"):
        LayeredStructure(())
    with pytest.raises(ValidationError, match="at least one layer"):
        LayeredStructure(((2, 3), ()))
    with pytest.raises(ValidationError, match="positive"):
        LayeredStructure(((2, 0),))


@pytest.mark.parametrize("size", [10.5, 3.0, True, False, "3", None, np.float64(2.0)])
def test_structure_rejects_non_integer_layer_sizes(size):
    with pytest.raises(ValidationError,
                       match=re.escape(f"layer sizes must be integers, got {size!r}")):
        LayeredStructure(((4, 100), (size, 2)))


def test_structure_takes_numpy_integer_layer_sizes_as_ints():
    s = LayeredStructure(((np.int64(10), np.uint8(100)), (np.int32(3),)))
    assert s.component_layer_sizes == ((10, 100), (3,))
    assert all(type(size) is int for comp in s.component_layer_sizes for size in comp)
    assert s == LayeredStructure(((10, 100), (3,)))


def test_build_graph_matches_the_declared_structure():
    s = two_component_structure()
    g = s.build_graph()
    assert g.n == 9
    assert set(g.edges) == {(u, v) for u in (0, 1) for v in (2, 3, 4)}
    validate_layered_graph(g, s)


def test_validate_layered_graph_rejects_tampering():
    s = two_component_structure()
    g = s.build_graph()
    extra = type(g)(n=g.n, edges=g.edges + ((5, 6),), directed=True)
    with pytest.raises(ValidationError, match="edges"):
        validate_layered_graph(extra, s)


def test_validate_layered_graph_rejects_a_wrong_edge_at_the_right_count():
    s = two_component_structure()
    g = s.build_graph()
    moved = type(g)(n=g.n, edges=g.edges[:-1] + ((5, 6),), directed=True)
    assert len(moved.edges) == s.n_edges
    with pytest.raises(ValidationError, match="graph edges do not match the layered structure"):
        validate_layered_graph(moved, s)


def test_validate_layered_graph_rejects_a_wrong_vertex_count_or_an_undirected_graph():
    s = two_component_structure()
    g = s.build_graph()
    with pytest.raises(ValidationError, match="graph has 10 vertices, structure describes 9"):
        validate_layered_graph(type(g)(n=10, edges=g.edges, directed=True), s)
    with pytest.raises(ValidationError, match="layered graphs are directed"):
        validate_layered_graph(type(g)(n=g.n, edges=g.edges, directed=False), s)


def test_build_graph_respects_the_edge_cap():
    s = LayeredStructure(((100, 100),))
    with pytest.raises(ValidationError, match="exceeds the cap"):
        s.build_graph(max_edges=9_999)


def test_depth_schedule_interleaves_components_by_depth():
    s = LayeredStructure(((2, 3, 1), (4, 2)))
    layers = s.depth_schedule().layers
    assert layers == ((2, 3, 4, 10, 11), (5,))


@pytest.mark.parametrize("sizes", [((2, 3, 1), (4, 2)), ((1,), (3, 1, 2, 2), (2, 5)),
                                   ((4, 16, 64),), ((3,), (1, 1))])
def test_depth_schedule_matches_an_explicit_id_reference(sizes):
    s = LayeredStructure(sizes)
    starts = list(itertools.accumulate((sum(c) for c in sizes), initial=0))
    phases = []
    for d in range(1, max(len(c) for c in sizes)):
        phases.append(tuple(v for c, base in zip(sizes, starts) if d < len(c)
                            for v in range(base + sum(c[:d]), base + sum(c[:d + 1]))))
    schedule = s.depth_schedule()
    assert schedule.layers == tuple(phases)
    assert schedule == LayerOrder(phases) and hash(schedule) == hash(LayerOrder(phases))


def test_depth_schedule_of_a_hundred_million_vertices_takes_little_memory():
    s = LayeredStructure(((4, 1024, 4096, 50_000_000),) * 2)
    tracemalloc.start()
    try:
        schedule = s.depth_schedule()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert schedule.layer_sizes() == [2 * 1024, 2 * 4096, 2 * 50_000_000]


# ---------------------------------------------------------------------------
# DP oracle vs. the generic exact oracle on materialized graphs.
# ---------------------------------------------------------------------------


CROSS_CHECK_CASES = [
    # (structure, dynamics, red seed vertices, blue seed vertices)
    (((2, 2),), "linear", [0], [1]),
    (((2, 2),), "linear", [0, 0], [0]),          # contested first-layer vertex
    (((3, 2),), "convex", [0, 1], [2]),
    (((2, 2, 2),), "threshold", [0], [1]),
    (((2, 3),), "tullock2", [0], [2]),           # blue seed sits in layer 2
    (((2, 2), (2, 1)), "convex", [0], [4]),      # seeds in different components
]


def make_dyn(name):
    return {
        "linear": SwitchSelectAdoption(PowerSwitch(1.0), linear_selection()),
        "convex": SwitchSelectAdoption(PowerSwitch(2.0), linear_selection()),
        "threshold": SwitchSelectAdoption(ThresholdSwitch(0.5), linear_selection()),
        "tullock2": SwitchSelectAdoption(PowerSwitch(1.0), TullockSelection(2.0)),
    }[name]


@pytest.mark.parametrize("sizes, dyn_name, red_seeds, blue_seeds", CROSS_CHECK_CASES)
def test_dp_matches_generic_enumeration(sizes, dyn_name, red_seeds, blue_seeds):
    structure = LayeredStructure(sizes)
    dyn = make_dyn(dyn_name)
    profile = StrategyProfile(Allocation.from_seeds(structure.n, red_seeds),
                              Allocation.from_seeds(structure.n, blue_seeds))
    dp = layered_exact_payoffs(structure, dyn, profile, prune=0.0)
    game = GameSpec(structure.build_graph(), dyn, structure.depth_schedule(),
                    max(1, len(red_seeds)), max(1, len(blue_seeds)))
    generic = exact_payoffs(game, profile)
    assert dp.pi_R == pytest.approx(generic.pi_R, abs=1e-10)
    assert dp.pi_B == pytest.approx(generic.pi_B, abs=1e-10)
    assert dp.method == "exact-layered-dp"


def test_dp_closed_form_two_layer_threshold():
    # both players seed the first layer of a (4, 10) stack; combined fraction
    # 1/2 meets the threshold, so all of layer 2 adopts, split by seed share
    structure = LayeredStructure(((4, 10),))
    dyn = SwitchSelectAdoption(ThresholdSwitch(0.5), linear_selection())
    profile = StrategyProfile(Allocation.from_seeds(14, [0]), Allocation.from_seeds(14, [1]))
    est = layered_exact_payoffs(structure, dyn, profile)
    assert est.pi_R == pytest.approx(6.0)
    assert est.pi_B == pytest.approx(6.0)


def test_dp_refuses_layers_beyond_its_cell_cap(monkeypatch):
    # An unseeded 8-vertex middle layer needs a 9-cell log-factorial table.
    # Under Tullock s = 2 it needs a box of its (red, blue) totals wider than
    # 10 cells; under linear selection, entering a second such layer takes
    # the pmf rows of its 9 totals over 9 counts.
    structure = LayeredStructure(((4, 8, 8, 2),))
    profile = StrategyProfile(Allocation.from_seeds(22, [0]), Allocation.from_seeds(22, [1]))
    for name in ("linear", "tullock2"):
        assert layered_exact_payoffs(structure, make_dyn(name), profile).pi_R > 1.0
    monkeypatch.setattr(layered, "MAX_DP_CELLS", 10)
    with pytest.raises(StateSpaceCapError, match="state box"):
        layered_exact_payoffs(structure, make_dyn("tullock2"), profile)
    with pytest.raises(StateSpaceCapError, match=re.escape("pmf rows (9, 9)")):
        layered_exact_payoffs(structure, make_dyn("linear"), profile)
    for name in ("linear", "tullock2"):
        with pytest.raises(StateSpaceCapError, match="log-factorial table"):
            layered_exact_payoffs(LayeredStructure(((4, 10, 2),)), make_dyn(name),
                                  StrategyProfile(Allocation.from_seeds(16, [0]),
                                                  Allocation.from_seeds(16, [1])))


def test_dp_rejects_wrong_allocation_length():
    structure = two_component_structure()
    profile = StrategyProfile(Allocation((1,)), Allocation((1,)))
    with pytest.raises(ValidationError, match="does not match"):
        layered_exact_payoffs(structure, make_dyn("linear"), profile)


def test_layer_sampler_agrees_with_the_dp():
    structure = LayeredStructure(((3, 5, 4),))
    dyn = SwitchSelectAdoption(PowerSwitch(2.0), TullockSelection(2.0))
    profile = StrategyProfile(Allocation.from_seeds(12, [0, 1]),
                              Allocation.from_seeds(12, [2]))
    dp = layered_exact_payoffs(structure, dyn, profile, prune=0.0)
    mc = layered_estimate_payoffs(structure, dyn, profile, n_trials=20_000, master_seed=9)
    assert mc.method == "monte-carlo"
    assert abs(mc.pi_R - dp.pi_R) <= 4.0 * mc.stderr_R
    assert abs(mc.pi_B - dp.pi_B) <= 4.0 * mc.stderr_B


def test_layer_sampler_is_reproducible():
    structure = LayeredStructure(((3, 5),))
    dyn = make_dyn("linear")
    profile = StrategyProfile(Allocation.from_seeds(8, [0]), Allocation.from_seeds(8, [1]))
    a = layered_estimate_payoffs(structure, dyn, profile, n_trials=500, master_seed=4)
    b = layered_estimate_payoffs(structure, dyn, profile, n_trials=500, master_seed=4)
    assert a == b


def test_layer_sampler_validates_trial_count():
    structure = LayeredStructure(((2, 3),))
    profile = StrategyProfile(Allocation.from_seeds(5, [0]), Allocation.from_seeds(5, [1]))
    for n_trials in (0, 2.5, "10", True):
        with pytest.raises(ValidationError, match="n_trials must be a positive integer"):
            layered_estimate_payoffs(structure, make_dyn("linear"), profile, n_trials=n_trials)


def test_layer_sampler_validates_master_seed():
    structure = LayeredStructure(((2, 3),))
    profile = StrategyProfile(Allocation.from_seeds(5, [0]), Allocation.from_seeds(5, [1]))
    for seed in (-1, True, 1.5, "3"):
        with pytest.raises(ValidationError, match="master_seed must be a nonnegative integer"):
            layered_estimate_payoffs(structure, make_dyn("linear"), profile, n_trials=4,
                                     master_seed=seed)


def test_layer_sampler_rejects_wrong_allocation_length():
    """Seeds past the structure's vertices would otherwise be dropped
    silently; the sampler refuses the profile as the DP does."""
    structure = LayeredStructure(((4, 8, 16),))
    for n in (100, 27):
        profile = StrategyProfile(Allocation.from_seeds(n, [0, n - 1]), Allocation.empty(n))
        for payoffs in (layered_exact_payoffs, layered_estimate_payoffs):
            with pytest.raises(ValidationError,
                               match="allocation length does not match the layered structure"):
                payoffs(structure, make_dyn("linear"), profile)


@pytest.mark.parametrize("n", [100, 3])
def test_single_run_sampler_rejects_wrong_allocation_length(n):
    """A seed at vertex 99 of a 5-vertex structure used to be dropped, and a
    3-vertex allocation accepted."""
    structure = LayeredStructure(((2, 3),))
    red = Allocation.from_seeds(n, [0, n - 1])
    with pytest.raises(ValidationError,
                       match="allocation length does not match the layered structure"):
        sample_layered_counts(structure, make_dyn("linear"), red, Allocation.empty(n),
                              np.random.default_rng(0))


def test_dp_enumerates_contested_branches_exhaustively():
    # two contested vertices: four equally likely colorings; compare against
    # averaging the DP over the four explicit resolutions
    structure = LayeredStructure(((2, 4),))
    dyn = make_dyn("tullock2")
    n = structure.n
    red = Allocation((1, 1, 0, 0, 0, 0))
    blue = Allocation((1, 1, 0, 0, 0, 0))
    est = layered_exact_payoffs(structure, dyn, StrategyProfile(red, blue))
    acc_r = acc_b = 0.0
    for colors in itertools.product((0, 1), repeat=2):
        r = Allocation(tuple([1 if c else 0 for c in colors] + [0] * (n - 2)))
        b = Allocation(tuple([0 if c else 1 for c in colors] + [0] * (n - 2)))
        branch = layered_exact_payoffs(structure, dyn, StrategyProfile(r, b))
        acc_r += branch.pi_R / 4.0
        acc_b += branch.pi_B / 4.0
    assert est.pi_R == pytest.approx(acc_r, abs=1e-12)
    assert est.pi_B == pytest.approx(acc_b, abs=1e-12)


def old_seed_branches(sr, sb, contested):
    """The seed branches as they were: one per coloring of the contested
    seeds, 2^c of them."""
    branches = [(sr, sb, 1.0)]
    for p_red in contested:
        branches = [(r + 1, b, p * p_red) for r, b, p in branches] + \
                   [(r, b + 1, p * (1.0 - p_red)) for r, b, p in branches]
    return branches


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3),
       st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0, 1e-9]) | st.floats(0.0, 1.0),
                max_size=8))
def test_seed_branches_merge_the_colorings_of_equal_totals(sr, sb, contested):
    merged = {}
    for r, b, p in old_seed_branches(sr, sb, contested):
        merged[r, b] = merged.get((r, b), 0.0) + p
    branches = layered._seed_branches(sr, sb, contested)
    assert [(r, b) for r, b, _ in branches] == \
        [(sr + k, sb + len(contested) - k) for k in range(len(contested) + 1)]
    for r, b, p in branches:
        assert p == pytest.approx(merged[r, b], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("layer", [0, 1])
def test_twenty_contested_seeds_in_one_layer_evaluate_quickly(layer):
    # 2^20 colorings, one branch each, took about 4 s and doubled with each
    # seed; their 21 red counts take a few milliseconds.  Each contested seed
    # goes to either side with probability 1/2, so both payoffs are equal.
    structure = LayeredStructure(((30, 30, 5),))
    seeds = Allocation.from_seeds(structure.n, range(30 * layer, 30 * layer + 20))
    start = time.perf_counter()
    est = layered_exact_payoffs(structure, make_dyn("tullock2"), StrategyProfile(seeds, seeds))
    assert time.perf_counter() - start < 1.0
    assert est.pi_R == pytest.approx(est.pi_B, rel=1e-12)
    assert est.pi_R + est.pi_B >= 20.0


# ---------------------------------------------------------------------------
# Random structures: the DP against enumeration, and its pruned mass.
# ---------------------------------------------------------------------------


PROPERTY_DYNAMICS = [
    SwitchSelectAdoption(PowerSwitch(1.0), linear_selection()),
    SwitchSelectAdoption(PowerSwitch(2.0), TullockSelection(2.0)),
    SwitchSelectAdoption(PowerSwitch(0.5), TullockSelection(0.5)),
    SwitchSelectAdoption(ThresholdSwitch(0.5), linear_selection()),
    SwitchSelectAdoption(HalfPointSwitch(0.2), TullockSelection(3.0)),
    SwitchSelectAdoption(TableSwitch(((0, 0), (0.4, 0.1), (1, 1))),
                         TableSelection(((0, 0), (0.3, 0.1), (0.5, 0.5), (0.7, 0.9), (1, 1)))),
    BuiltinAdoption("quadratic_damped"),  # no array form: the scalar fallback
]


@st.composite
def layered_games(draw, max_layer=3, max_depth=4):
    """A layered structure with 1-2 components, a pure profile seeding any
    layer (contested vertices included), and a dynamics of every kind."""
    comps = draw(st.lists(st.lists(st.integers(1, max_layer), min_size=1, max_size=max_depth),
                          min_size=1, max_size=2))
    structure = LayeredStructure(tuple(tuple(c) for c in comps))
    n = structure.n
    seeds = st.lists(st.integers(0, n - 1), min_size=1, max_size=3)
    red, blue = draw(seeds), draw(seeds)
    if draw(st.booleans()):
        blue.append(red[0])  # a contested vertex
    profile = StrategyProfile(Allocation.from_seeds(n, red), Allocation.from_seeds(n, blue))
    return structure, profile, draw(st.sampled_from(PROPERTY_DYNAMICS))


def branching_vertices(structure):
    """Vertices the enumeration branches on: those of middle layers."""
    return sum(sum(comp[1:-1]) for comp in structure.component_layer_sizes)


@settings(max_examples=150, deadline=None)
@given(layered_games())
def test_dp_equals_enumeration_on_random_structures(game):
    structure, profile, dyn = game
    assume(branching_vertices(structure) <= 6)
    dp = layered_exact_payoffs(structure, dyn, profile, prune=0.0)
    spec = GameSpec(structure.build_graph(), dyn, structure.depth_schedule(),
                    profile.red.budget, profile.blue.budget)
    generic = exact_payoffs(spec, profile)
    assert dp.pi_R == pytest.approx(generic.pi_R, abs=1e-9)
    assert dp.pi_B == pytest.approx(generic.pi_B, abs=1e-9)
    assert dp.pruned_mass <= 1e-12


@settings(max_examples=100, deadline=None)
@given(layered_games(max_layer=40), st.sampled_from([1e-15, 1e-9, 1e-4]))
def test_pruned_mass_bounds_the_pruning_error(game, prune):
    structure, profile, dyn = game
    exact = layered_exact_payoffs(structure, dyn, profile, prune=0.0)
    pruned = layered_exact_payoffs(structure, dyn, profile, prune=prune)
    assert exact.pruned_mass <= 1e-12
    bound = pruned.pruned_mass * structure.n
    assert abs(pruned.pi_R - exact.pi_R) <= bound + 1e-12 * structure.n
    assert abs(pruned.pi_B - exact.pi_B) <= bound + 1e-12 * structure.n


def test_pruned_mass_is_weighted_by_profile_probability():
    structure = LayeredStructure(((4, 30, 30, 5),))
    dyn = make_dyn("convex")
    n = structure.n
    pure = StrategyProfile(Allocation.from_seeds(n, [0]), Allocation.from_seeds(n, [1]))
    one = layered_exact_payoffs(structure, dyn, pure, prune=1e-6)
    assert one.pruned_mass > 0.0
    idle = Allocation.from_seeds(n, [n - 1])  # a final-layer seed changes no distribution
    mixed = StrategyProfile(MixedAllocation(((0.25, pure.red), (0.75, idle))), pure.blue)
    est = layered_exact_payoffs(structure, dyn, mixed, prune=1e-6)
    idle_est = layered_exact_payoffs(structure, dyn, StrategyProfile(idle, pure.blue), prune=1e-6)
    assert est.pruned_mass == pytest.approx(0.25 * one.pruned_mass + 0.75 * idle_est.pruned_mass)
    assert "pruned_mass" not in est.to_json_dict()
    assert len(est.to_csv_row()) == 6


def test_the_dp_skips_a_zero_probability_support_entry():
    structure = LayeredStructure(((2, 3), (2, 2)))
    dyn = make_dyn("convex")
    n = structure.n
    red, other, blue = (Allocation.from_seeds(n, [v]) for v in (0, 5, 1))
    mixed = MixedAllocation(((0.5, red), (0.5, other), (0.0, Allocation.from_seeds(n, [1]))))
    without = MixedAllocation(((0.5, red), (0.5, other)))
    with patch.object(layered, "split_seeds", wraps=layered.split_seeds) as split:
        est = layered_exact_payoffs(structure, dyn, StrategyProfile(mixed, blue))
    assert split.call_count == 2
    assert est == layered_exact_payoffs(structure, dyn, StrategyProfile(without, blue))


@pytest.mark.parametrize("prune", [math.nan, -1.0, 1.0, math.inf, "0", True, False,
                                   np.float32(1.5), np.bool_(True)])
def test_dp_rejects_invalid_prune(prune):
    structure = LayeredStructure(((4, 8, 16),))
    profile = StrategyProfile(Allocation.from_seeds(28, [0]), Allocation.from_seeds(28, [1]))
    with pytest.raises(ValidationError, match=re.escape("prune must be a finite number in [0, 1)")):
        layered_exact_payoffs(structure, make_dyn("linear"), profile, prune=prune)


@pytest.mark.parametrize("prune", [np.float32(0.1), np.float64(0.1), np.int64(0), 0])
def test_dp_takes_any_real_prune(prune):
    """numpy's real scalars are prunes like Python's, as every real-number
    parameter is (`errors.real_number`)."""
    structure = LayeredStructure(((4, 8, 16),))
    profile = StrategyProfile(Allocation.from_seeds(28, [0]), Allocation.from_seeds(28, [1]))
    est = layered_exact_payoffs(structure, make_dyn("linear"), profile, prune=prune)
    assert est == layered_exact_payoffs(structure, make_dyn("linear"), profile,
                                        prune=float(prune))


@pytest.mark.parametrize("sizes, red, blue, prune, pi_r, pruned", [
    # the layer-2 outcomes have conditional probability 1/2 > 0.3: kept
    (((2, 1, 10),), [0], [12], 0.3, 6.0, 0.0),
    # at prune 1/2 they are at the threshold, so dropped with all their mass
    (((2, 1, 10),), [0], [12], 0.5, 1.0, 1.0),
    # contested seeds leave layer-1 states of mass 1/4 <= prune; the final
    # layer still counts them
    (((2, 10),), [0, 1], [0, 1], 0.3, 6.0, 0.0),
])
def test_pruning_rule(sizes, red, blue, prune, pi_r, pruned):
    structure = LayeredStructure(sizes)
    profile = StrategyProfile(Allocation.from_seeds(structure.n, red),
                              Allocation.from_seeds(structure.n, blue))
    est = layered_exact_payoffs(structure, make_dyn("linear"), profile, prune=prune)
    assert est.pi_R == pytest.approx(pi_r, abs=1e-12)
    assert est.pruned_mass == pytest.approx(pruned, abs=1e-12)


@st.composite
def shared_prefix_cases(draw):
    """1-3 components that share 1-3 leading layer sizes, and 1-5 pure or
    mixed profiles.  An allocation seeds either the same few prefix vertices
    of every component, drawn from a pool that red and blue share, so that
    they often contest one, or any vertices at all."""
    prefix = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    tails = draw(st.lists(st.lists(st.integers(1, 3), max_size=3), min_size=1, max_size=3))
    structure = LayeredStructure(tuple(tuple(prefix + tail) for tail in tails))
    n = structure.n
    starts = [comp[0][0] for comp in structure.layer_ranges()]
    pool = draw(st.lists(st.integers(0, sum(prefix) - 1), min_size=1, max_size=3))
    k = draw(st.integers(1, 2))

    def allocation():
        if draw(st.booleans()):
            offsets = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
            return Allocation.from_seeds(n, [s + o for s in starts for o in offsets])
        return Allocation.from_seeds(n, draw(st.lists(st.integers(0, n - 1), min_size=k * len(starts),
                                                      max_size=k * len(starts))))

    def side():
        if draw(st.booleans()):
            return allocation()
        p = draw(st.sampled_from((0.25, 0.5, 0.75)))
        return MixedAllocation(((p, allocation()), (1.0 - p, allocation())))

    profiles = [StrategyProfile(side(), side()) for _ in range(draw(st.integers(1, 5)))]
    return structure, profiles, draw(st.sampled_from(PROPERTY_DYNAMICS))


def hex_payoffs(est):
    return est.pi_R.hex(), est.pi_B.hex(), est.pruned_mass.hex()


class KeepNothing(dict):
    """A step store that keeps no step, so that every component of every
    profile runs its whole DP: evaluation without sharing."""

    def __setitem__(self, key, value):
        pass


@settings(max_examples=100, deadline=None)
@given(shared_prefix_cases(), st.sampled_from([0.0, layered.DEFAULT_PRUNE]), st.randoms())
def test_shared_evaluation_equals_fresh_evaluation_bit_for_bit(case, prune, rnd):
    """One `LayeredDP` evaluating a sequence of profiles, in any order, gives
    each the payoffs and pruned mass of a fresh `layered_exact_payoffs` call,
    and those of an evaluation that shares no step, even between components."""
    structure, profiles, dyn = case
    unshared = layered.LayeredDP(structure, dyn, prune)
    unshared._steps = KeepNothing()
    fresh = [hex_payoffs(layered_exact_payoffs(structure, dyn, profile, prune=prune))
             for profile in profiles]
    assert fresh == [hex_payoffs(unshared.payoffs(profile)) for profile in profiles]
    shuffled = list(range(len(profiles)))
    rnd.shuffle(shuffled)
    for order in (range(len(profiles)), range(len(profiles) - 1, -1, -1), shuffled):
        payoffs = layered.LayeredDP(structure, dyn, prune).payoffs
        assert [hex_payoffs(payoffs(profiles[i])) for i in order] == [fresh[i] for i in order]


# ---------------------------------------------------------------------------
# The estimator against independent single runs, draw for draw.
# ---------------------------------------------------------------------------


@st.composite
def sampler_cases(draw, max_layer=6):
    """1-3 components of at most 4 layers of at most max_layer vertices, pure
    or mixed sides seeding any layer (contested vertices included), any
    dynamics."""
    comps = draw(st.lists(st.lists(st.integers(1, max_layer), min_size=1, max_size=4),
                          min_size=1, max_size=3))
    structure = LayeredStructure(tuple(tuple(c) for c in comps))
    n = structure.n
    budget = draw(st.integers(1, 3))
    # Seeds drawn from a few vertices spread over the structure, so that red
    # and blue often contest one.
    spots = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    seeds = st.lists(st.sampled_from(spots), min_size=budget, max_size=budget)

    def side():
        if draw(st.booleans()):
            return Allocation.from_seeds(n, draw(seeds))
        p = draw(st.sampled_from((0.25, 0.5, 0.75)))
        return MixedAllocation(((p, Allocation.from_seeds(n, draw(seeds))),
                                (1.0 - p, Allocation.from_seeds(n, draw(seeds)))))

    return structure, StrategyProfile(side(), side()), draw(st.sampled_from(PROPERTY_DYNAMICS))


def single_run_reference(structure, dyn, profile, n_trials, master_seed):
    pairs = profile.support_pairs()
    chi = [layered_run(structure, dyn, pairs, replication_key(master_seed, i))
           for i in range(n_trials)]
    chi_r, chi_b = (np.array(side, dtype=float) for side in zip(*chi))
    return engine.monte_carlo_estimate(chi_r, chi_b)


@settings(max_examples=100, deadline=None)
@given(sampler_cases(), st.sampled_from([1, 7, 300]),
       st.one_of(st.integers(0, 2**32), st.integers(2**32, 2**80)))
def test_layer_sampler_equals_single_runs_on_fresh_generators(case, n_trials, master_seed):
    structure, profile, dyn = case
    est = layered_estimate_payoffs(structure, dyn, profile, n_trials=n_trials,
                                   master_seed=master_seed)
    assert est == single_run_reference(structure, dyn, profile, n_trials, master_seed)


@pytest.mark.parametrize("dyn", [make_dyn("linear"), SwitchSelectAdoption(
    PowerSwitch(0.25), TullockSelection(3.0))], ids=["linear", "concave"])
def test_layer_sampler_equals_single_runs_on_large_layers(dyn):
    """Layers of tens to thousands of vertices, where binomials take BTRS
    and, under the concave switch, P[Red or Blue] passes 1/2; a mixed red
    side and a contested seed.  Each replication, and one run of
    `sample_layered_counts` on the key its generator draws, equal the
    row-at-a-time reference."""
    structure = LayeredStructure(((3, 40, 300, 2000), (2, 25, 60)))
    n = structure.n
    red = MixedAllocation(((0.5, Allocation.from_seeds(n, [0, 1])),
                           (0.5, Allocation.from_seeds(n, [0, 2345]))))
    profile = StrategyProfile(red, Allocation.from_seeds(n, [1, 2344]))
    est = layered_estimate_payoffs(structure, dyn, profile, n_trials=120, master_seed=31)
    assert est == single_run_reference(structure, dyn, profile, 120, 31)
    _, one_red, blue = profile.support_pairs()[1]
    key = int(np.random.default_rng(8).integers(2**64, dtype=np.uint64))
    assert sample_layered_counts(structure, dyn, one_red, blue, np.random.default_rng(8)) == \
        layered_run(structure, dyn, [(1.0, one_red, blue)], key)
    # A seed stands for the generator it seeds.
    assert sample_layered_counts(structure, dyn, one_red, blue, 8) == \
        sample_layered_counts(structure, dyn, one_red, blue, np.random.default_rng(8))


# ---------------------------------------------------------------------------
# The lumped step on layer totals against the box step.
# ---------------------------------------------------------------------------


# The identity as a table selection: equal to linear selection bit for bit,
# but not detected as linear, so the DP steps its (red, blue) box.
IDENTITY_TABLE = TableSelection(((0, 0), (1, 1)))

SWITCHES = [dyn.switching for dyn in PROPERTY_DYNAMICS if isinstance(dyn, SwitchSelectAdoption)]


def test_the_identity_table_is_linear_selection_bit_for_bit():
    y = np.arange(100_001) / 100_000
    assert (IDENTITY_TABLE.value_array(y) == linear_selection().value_array(y)).all()


@settings(max_examples=100, deadline=None)
@given(sampler_cases(max_layer=40), st.sampled_from(SWITCHES))
def test_lumped_step_equals_the_box_step_under_linear_selection(case, switching):
    structure, profile, _ = case
    lumped, box = (SwitchSelectAdoption(switching, g) for g in (linear_selection(), IDENTITY_TABLE))
    assert layered.LayeredDP(structure, lumped)._lumped
    assert not layered.LayeredDP(structure, box)._lumped
    a, b = (layered_exact_payoffs(structure, dyn, profile, prune=0.0) for dyn in (lumped, box))
    assert a.pi_R == pytest.approx(b.pi_R, rel=1e-12, abs=1e-12)
    assert a.pi_B == pytest.approx(b.pi_B, rel=1e-12, abs=1e-12)
    a, b = (layered_exact_payoffs(structure, dyn, profile) for dyn in (lumped, box))
    # Each is within its pruned mass times n of the unpruned payoff.
    bound = (a.pruned_mass + b.pruned_mass) * structure.n + 1e-12 * structure.n
    assert abs(a.pi_R - b.pi_R) <= bound
    assert abs(a.pi_B - b.pi_B) <= bound


def test_lumped_step_takes_a_layer_the_box_step_cannot_afford():
    # Middles (4, 4096, 65536) under f(x) = x^2: the (red, blue) boxes of the
    # 65,536-vertex layer take ~18 s on a 2-vCPU VM, its totals ~0.04 s.
    structure = LayeredStructure(((4, 4096, 65536, 32768),))
    dyn = SwitchSelectAdoption(PowerSwitch(2.0), linear_selection())
    profile = StrategyProfile(Allocation.from_seeds(structure.n, [0]),
                              Allocation.from_seeds(structure.n, [1]))
    start = time.perf_counter()
    dp = layered_exact_payoffs(structure, dyn, profile)
    assert time.perf_counter() - start < 5.0
    mc = layered_estimate_payoffs(structure, dyn, profile, n_trials=4000, master_seed=3)
    assert abs(mc.pi_R - dp.pi_R) <= 4.0 * mc.stderr_R
    assert abs(mc.pi_B - dp.pi_B) <= 4.0 * mc.stderr_B
    assert dp.pi_R == pytest.approx(dp.pi_B, rel=1e-12) and dp.pruned_mass < 1e-12


# ---------------------------------------------------------------------------
# The blocked transition against the per-cell one it replaced.
# ---------------------------------------------------------------------------


def dense_pmf_window(log_fact, m, prob, cut):
    """First and last k with Binom(m, prob) pmf above cut, by scanning every k."""
    k = np.arange(m + 1)
    above = np.exp(layered._log_binom_pmf(log_fact, m, k, prob[:, None])) > cut[:, None]
    lo = above.argmax(axis=1)
    hi = m - above[:, ::-1].argmax(axis=1)
    return lo, np.where(above.any(axis=1), hi, lo - 1)


def hoeffding_band(n, cut):
    with np.errstate(divide="ignore", invalid="ignore"):
        band = np.sqrt(0.5 * n * np.log(2.0 / cut))
    return np.where(n > 0, band, 0.0)


def ranges(starts, counts):
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts - starts, counts)


def per_cell_transition(p, pr, pb, m, prune, branches):
    """The layer step as it was before the matrix products: every (state,
    adopters, red adopters) cell enumerated, an outcome dropped when its own
    probability is at most prune / p, and the rest scattered with np.add.at."""
    from scipy.special import gammaln

    pa = np.minimum(pr + pb, 1.0)
    q = np.divide(pr, pa, out=np.zeros_like(pr), where=pa > 0.0)
    log_q = np.log(np.where(q > 0.0, q, 1.0))
    log_1mq = np.log1p(-np.where(q < 1.0, q, 0.0))
    thr = prune / p
    log_fact = gammaln(np.arange(m + 1) + 1)
    t_lo, t_hi = dense_pmf_window(log_fact, m, pa, thr)
    x_lo, x_hi = dense_pmf_window(log_fact, m, pr, 0.5 * thr)
    y_lo, y_hi = dense_pmf_window(log_fact, m, pb, 0.5 * thr)
    n_t = np.where((x_hi >= x_lo) & (y_hi >= y_lo), np.maximum(t_hi - t_lo + 1, 0), 0)
    live = n_t > 0
    if not live.any():
        return np.zeros((0, 0)), 0, 0, 0.0, 0.0
    nxt, r0, b0 = layered._seed_box(int(x_lo[live].min()), int(x_hi[live].max()),
                                    int(y_lo[live].min()), int(y_hi[live].max()), branches)
    s_i = np.repeat(np.arange(len(p)), n_t)
    t_i = ranges(t_lo, n_t)
    tp = np.exp(layered._log_binom_pmf(log_fact, m, t_i, pa[s_i]))
    mean = t_i * q[s_i]
    band = hoeffding_band(t_i, thr[s_i] / tp)
    lo = np.maximum(np.maximum(x_lo[s_i], t_i - y_hi[s_i]),
                    np.ceil(np.maximum(mean - band, 0.0)).astype(np.int64))
    hi = np.minimum(np.minimum(x_hi[s_i], t_i - y_lo[s_i]),
                    np.floor(np.minimum(mean + band, t_i)).astype(np.int64))
    counts = np.maximum(hi - lo + 1, 0)
    pair = np.repeat(np.arange(len(counts)), counts)
    xs = ranges(lo, counts)
    ts, ss = t_i[pair], s_i[pair]
    joint = tp[pair] * np.exp(log_fact[ts] - log_fact[xs] - log_fact[ts - xs]
                              + xs * log_q[ss] + (ts - xs) * log_1mq[ss])
    keep = joint > thr[ss]
    xs, ys, vals = xs[keep], ts[keep] - xs[keep], joint[keep] * p[ss[keep]]
    flat = nxt.reshape(-1)
    for r, b, sp in branches:
        np.add.at(flat, (xs + (r - r0)) * nxt.shape[1] + (ys + (b - b0)), vals * sp)
    return nxt, r0, b0, float(vals @ xs), float(vals @ ys)


def on_one_frame(got, want):
    """Both (distribution, red offset, blue offset) triples on their joint box."""
    (a, ar, ab), (b, br, bb) = got, want
    r0, b0 = min(ar, br), min(ab, bb)
    shape = (max(ar + a.shape[0], br + b.shape[0]) - r0,
             max(ab + a.shape[1], bb + b.shape[1]) - b0)
    out = []
    for d, r, c in ((a, ar, ab), (b, br, bb)):
        full = np.zeros(shape)
        full[r - r0:r - r0 + d.shape[0], c - b0:c - b0 + d.shape[1]] = d
        out.append(full)
    return out


def assert_same_transition(args):
    got = layered._layer_transition(*args)
    want = per_cell_transition(*args)
    a, b = on_one_frame(got[:3], want[:3])
    assert np.abs(a - b).max(initial=0.0) <= 1e-12
    assert got[3] == pytest.approx(want[3], rel=1e-12)
    assert got[4] == pytest.approx(want[4], rel=1e-12)


@st.composite
def layer_states(draw):
    """Masses and one-step probabilities of 1-6 states, pa = 1, pa just below
    1, pr = 0 and pb = 0 among them, a layer of up to 60 unseeded vertices
    and seed branches with up to two contested vertices."""
    n = draw(st.integers(1, 6))
    unit = st.floats(0.0, 1.0)
    p = np.array([draw(st.floats(1e-6, 1.0)) for _ in range(n)])
    pr, pb = np.empty(n), np.empty(n)
    for i in range(n):
        kind = draw(st.sampled_from(["any", "full", "near_full", "no_red", "no_blue"]))
        pa = {"full": 1.0, "near_full": 1.0 - 10.0 ** -draw(st.integers(6, 15))}.get(kind)
        pa = draw(unit) if pa is None else pa
        share = {"no_red": 0.0, "no_blue": 1.0}.get(kind, draw(unit))
        pr[i] = pa * share
        pb[i] = pa - pr[i] if kind != "full" else 1.0 - pr[i]
    contested = draw(st.lists(st.sampled_from([0.25, 0.5, 0.9]), max_size=2))
    branches = layered._seed_branches(draw(st.integers(0, 2)), draw(st.integers(0, 2)), contested)
    return p, pr, pb, draw(st.integers(0, 60)), branches


@settings(max_examples=300, deadline=None)
@given(layer_states())
def test_blocked_transition_equals_the_per_cell_one(case):
    p, pr, pb, m, branches = case
    assert_same_transition((p, pr, pb, m, 0.0, branches))


def test_blocked_transition_splits_a_wide_layer_into_blocks(monkeypatch):
    # pa from 0.01 to 0.99 over 2,000 vertices: no one exponent serves every
    # state, so the step takes several blocks and still equals the per-cell sum.
    pa = np.array([0.01, 0.35, 0.7, 0.99])
    pr = pa * np.array([0.5, 0.2, 0.9, 0.6])
    args = (np.full(4, 0.25), pr, pa - pr, 2000, 0.0, layered._seed_branches(1, 0, [0.5]))
    boxes = []
    blocks = layered._grid_boxes
    monkeypatch.setattr(layered, "_grid_boxes",
                        lambda *a: [boxes.append(box) or box for box in blocks(*a)])
    assert_same_transition(args)
    assert len(boxes) >= 3


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 300), st.sampled_from([1, 7, 1100]), st.integers(0, 2**32 - 1))
def test_pmf_window_search_equals_a_dense_scan(m, n, seed):
    # One entry takes a single dense step, 1,100 entries a bisection.
    from scipy.special import gammaln

    rng = np.random.default_rng(seed)
    prob = rng.choice([rng.random(), 0.0, 0.5, 1.0, 1e-300], size=n, p=[0.6, 0.1, 0.1, 0.1, 0.1])
    prob = np.where(rng.random(n) < 0.5, prob, rng.random(n))
    cut = rng.choice([0.0, 1e-300, 1e-15, 1e-4, 0.3, 0.5, 1.0], size=n)
    log_fact = gammaln(np.arange(m + 1) + 1)
    (lo, hi), (want_lo, want_hi) = (f(log_fact, m, prob, cut)
                                    for f in (layered._pmf_window, dense_pmf_window))
    empty = want_hi < want_lo
    assert ((hi < lo) == empty).all()
    assert (lo[~empty] == want_lo[~empty]).all() and (hi[~empty] == want_hi[~empty]).all()


@settings(max_examples=100, deadline=None)
@given(layered_games(max_layer=40), st.sampled_from([1e-15, 1e-9, 1e-4]))
def test_marginal_windows_prune_no_more_than_per_outcome_pruning(game, prune):
    structure, profile, dyn = game
    est = layered_exact_payoffs(structure, dyn, profile, prune=prune)
    with patch.object(layered, "_layer_transition", per_cell_transition):
        ref = layered_exact_payoffs(structure, dyn, profile, prune=prune)
    # pruned_mass is 1 minus a sum of up to ~1,700 cells, rounded to ~1e-13.
    assert est.pruned_mass <= ref.pruned_mass + 1e-12


def test_a_layer_that_pruning_empties_passes_nothing_on():
    # Layer 1's outcomes have probability 1/2 each, at the threshold, so no
    # state reaches layer 2, which still takes its (empty) step.
    structure = LayeredStructure(((2, 1, 10, 5),))
    profile = StrategyProfile(Allocation.from_seeds(structure.n, [0]),
                              Allocation.from_seeds(structure.n, [structure.n - 1]))
    est = layered_exact_payoffs(structure, make_dyn("linear"), profile, prune=0.5)
    assert (est.pi_R, est.pi_B, est.pruned_mass) == (1.0, 1.0, 1.0)
