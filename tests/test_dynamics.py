"""Switching/selection functions, adoption probabilities, predicates, schedules."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contagion_games import coupling
from contagion_games import (
    BLUE,
    RED,
    UNINFECTED,
    MODE_ATTRIBUTION,
    MODE_JOINT_TOTAL,
    MODE_SOLO_VS_JOINT,
    AdditiveViolation,
    AdoptionFunction,
    BuiltinAdoption,
    CompetitiveViolation,
    CouplingHypothesisError,
    DynamicsDefinitionError,
    Graph,
    HalfPointSwitch,
    LayerOrder,
    ParallelRounds,
    PowerSwitch,
    RandomSequential,
    ScheduleError,
    SelectionFunction,
    SinglePassOrder,
    SwitchSelectAdoption,
    SwitchingFunction,
    TableSelection,
    TableSwitch,
    ThresholdSwitch,
    TullockSelection,
    ValidationError,
    candidate_vertices,
    check_additive,
    check_competitive,
    check_linear_split,
    decompose,
    filter_phase_candidates,
    from_switch_select,
    is_additive,
    is_competitive,
    linear_selection,
    load_dynamics,
    load_schedule,
    realizable_fraction_pairs,
    require_mode_hypotheses,
    run_contagion,
)
from contagion_games.coupling import LINEARITY_TOL
from contagion_games.dynamics import PREDICATE_GRID_STEP, PREDICATE_TOL


def linear_dyn():
    return SwitchSelectAdoption(PowerSwitch(1.0), linear_selection())


# ---------------------------------------------------------------------------
# Switching functions.
# ---------------------------------------------------------------------------


def test_power_switch_values():
    assert PowerSwitch(2.0)(0.5) == 0.25
    assert PowerSwitch(0.5)(0.25) == 0.5
    assert PowerSwitch(1.0)(0.37) == 0.37
    assert PowerSwitch(3.0)(0.0) == 0.0
    assert PowerSwitch(3.0)(1.0) == 1.0


def test_power_switch_convex_anchor():
    # exponent chosen so that f(2/3) = 1/25
    r = math.log(25.0) / math.log(1.5)
    assert PowerSwitch(r)(2.0 / 3.0) == pytest.approx(1.0 / 25.0, abs=1e-12)


@pytest.mark.parametrize("bad", [0, -1.0, "2"])
def test_power_switch_rejects_bad_exponent(bad):
    with pytest.raises(DynamicsDefinitionError, match="positive"):
        PowerSwitch(bad)


def test_threshold_switch_is_a_step_at_the_threshold():
    f = ThresholdSwitch(0.75)
    assert f(0.74) == 0.0
    assert f(0.75) == 1.0
    assert f(1.0) == 1.0
    assert f(0.0) == 0.0


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
def test_threshold_switch_rejects_degenerate_thresholds(bad):
    with pytest.raises(DynamicsDefinitionError, match="strictly inside"):
        ThresholdSwitch(bad)


def test_halfpoint_switch_piecewise_values():
    f = HalfPointSwitch(0.01)
    assert f(0.0) == 0.0
    assert f(0.25) == pytest.approx(0.005)
    assert f(0.5) == pytest.approx(0.01)
    assert f(0.75) == pytest.approx(0.505)
    assert f(1.0) == 1.0


def test_table_switch_interpolates():
    f = TableSwitch(((0.0, 0.0), (0.5, 0.2), (1.0, 1.0)))
    assert f(0.25) == pytest.approx(0.1)
    assert f(0.5) == pytest.approx(0.2)
    assert f(0.75) == pytest.approx(0.6)


@pytest.mark.parametrize("points, pattern", [
    (((0.0, 0.0),), "at least"),
    (((0.0, 0.0), (0.5, 0.5)), "span"),
    (((0.0, 0.0), (0.5, 0.5), (0.5, 0.6), (1.0, 1.0)), "strictly increasing"),
    (((0.0, 0.0), (0.5, 0.9), (1.0, 0.3)), "1 at 1|decreasing"),
    (((0.0, 0.2), (1.0, 1.0)), "0 at 0"),
])
def test_table_switch_validation(points, pattern):
    with pytest.raises(DynamicsDefinitionError, match=pattern):
        TableSwitch(points)


def test_switch_rejects_arguments_outside_unit_interval():
    with pytest.raises(ValidationError):
        PowerSwitch(1.0)(1.2)
    with pytest.raises(ValidationError):
        PowerSwitch(1.0)(-0.1)


# ---------------------------------------------------------------------------
# Selection functions.
# ---------------------------------------------------------------------------


def test_tullock_identity_at_s_one():
    g = TullockSelection(1.0)
    for y in (0.0, 0.17, 0.5, 0.99, 1.0):
        assert g(y) == y
    assert linear_selection() == TullockSelection(1.0)


def test_tullock_hand_values():
    assert TullockSelection(2.0)(1.0 / 3.0) == pytest.approx(0.2, abs=1e-12)
    assert TullockSelection(2.0)(0.5) == 0.5
    # exponent chosen so that a 2/3 share wins with probability 99/100
    g = TullockSelection(math.log2(99.0))
    assert g(2.0 / 3.0) == pytest.approx(0.99, abs=1e-12)


def test_tullock_endpoints_even_for_small_exponent():
    g = TullockSelection(0.25)
    assert g(0.0) == 0.0
    assert g(1.0) == 1.0


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
       st.floats(min_value=0.05, max_value=8.0))
def test_tullock_symmetry(y, s):
    # interior points only: below ~1e-16 the complement 1-y itself rounds to 1
    g = TullockSelection(s)
    assert g(y) + g(1.0 - y) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.5, exclude_max=True),
       st.floats(min_value=1.0, max_value=8.0))
def test_tullock_polarizes_minorities_for_large_exponents(y, s):
    assert TullockSelection(s)(y) <= y + 1e-12


def test_tullock_rejects_bad_exponent():
    with pytest.raises(DynamicsDefinitionError, match="positive"):
        TullockSelection(0.0)


def test_table_selection_interpolates_and_requires_symmetry():
    g = TableSelection(((0.0, 0.0), (0.3, 0.1), (0.7, 0.9), (1.0, 1.0)))
    assert g(0.5) == pytest.approx(0.5)
    assert g(0.3) == pytest.approx(0.1)
    with pytest.raises(DynamicsDefinitionError, match="symmetry"):
        TableSelection(((0.0, 0.0), (0.3, 0.2), (0.7, 0.9), (1.0, 1.0)))


# ---------------------------------------------------------------------------
# Adoption functions.
# ---------------------------------------------------------------------------


def test_switch_select_hand_probabilities():
    dyn = linear_dyn()
    assert dyn.prob_red(0.5, 0.25) == pytest.approx(0.5)
    assert dyn.prob_blue(0.5, 0.25) == pytest.approx(0.25)
    assert dyn.prob_any(0.5, 0.25) == pytest.approx(0.75)


def test_no_infected_neighbors_means_no_infection():
    for dyn in (linear_dyn(), BuiltinAdoption("quadratic_damped")):
        assert dyn.prob_red(0.0, 0.0) == 0.0
        assert dyn.prob_any(0.0, 0.0) == 0.0


def test_fraction_pair_validation():
    dyn = linear_dyn()
    with pytest.raises(ValidationError, match="nonnegative"):
        dyn.prob_red(-0.1, 0.0)
    with pytest.raises(ValidationError, match="sum past 1"):
        dyn.prob_red(0.7, 0.4)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.2, max_value=5.0),
       st.floats(min_value=0.2, max_value=5.0))
def test_update_probs_partition(a_scale, b, r, s):
    a = a_scale * (1.0 - b)  # keep a + b inside the simplex
    dyn = SwitchSelectAdoption(PowerSwitch(r), TullockSelection(s))
    pr, pb, pu = dyn.update_probs(a, b)
    for p in (pr, pb, pu):
        assert -1e-12 <= p <= 1.0 + 1e-12
    assert pr + pb + pu == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Array evaluation.
# ---------------------------------------------------------------------------


class HalfPowerSwitch(SwitchingFunction):
    """A user subclass with no closed-form array evaluation."""

    def value(self, x):
        return math.sqrt(x)

    def to_json_dict(self):
        return {}


class SmoothstepSelection(SelectionFunction):
    def value(self, y):
        return y * y * (3.0 - 2.0 * y)

    def to_json_dict(self):
        return {}


BUILTIN_SWITCHES = [PowerSwitch(0.5), PowerSwitch(1.0), PowerSwitch(1.25), PowerSwitch(2),
                    ThresholdSwitch(0.3), ThresholdSwitch(0.5), HalfPointSwitch(0.0),
                    HalfPointSwitch(0.2), HalfPointSwitch(0.9),
                    TableSwitch(((0, 0), (0.25, 0.1), (0.5, 0.5), (1, 1))), HalfPowerSwitch()]
BUILTIN_SELECTIONS = [TullockSelection(1.0), TullockSelection(0.5), TullockSelection(2.0),
                      TullockSelection(40.0), TullockSelection(2000.0),
                      TableSelection(((0, 0), (0.3, 0.1), (0.5, 0.5), (0.7, 0.9), (1, 1))),
                      SmoothstepSelection()]


@pytest.mark.parametrize("fn", BUILTIN_SWITCHES + BUILTIN_SELECTIONS, ids=repr)
def test_value_array_matches_value_on_the_construction_grid(fn):
    """Bit for bit, on the construction grid and on random points."""
    m = 1024
    grid = ([i / m for i in range(m + 1)] + [1e-300, 0.1, 1 / 3, 0.7, 1.0 - 1e-16]
            + np.random.default_rng(17).random(20_000).tolist())
    got = fn.value_array(np.array(grid))
    assert got.shape == (len(grid),)
    for x, v in zip(grid, got.tolist()):
        assert v == fn.value(x), x
    assert fn.value_array(np.array(grid).reshape(-1, 2)[:3]).shape == (3, 2)
    assert fn.value_array(np.empty(0)).shape == (0,)


def adoption_kinds():
    return ([SwitchSelectAdoption(f, g) for f in BUILTIN_SWITCHES for g in BUILTIN_SELECTIONS[::2]]
            + [BuiltinAdoption("quadratic_damped")])


def test_update_probs_array_matches_update_probs():
    """Bit for bit, on a grid of the simplex and on random points of it."""
    m = 16
    a, b = zip(*[(i / m, j / m) for i in range(m + 1) for j in range(m + 1 - i)])
    u, v = np.random.default_rng(18).random((2, 600))
    a = np.concatenate([a, (0.2, 1 / 3, 0.5 + 5e-13), u * (1.0 - v)])
    b = np.concatenate([b, (0.1, 1 / 3, 0.5), v])
    for dyn in adoption_kinds():
        pr, pb = dyn.update_probs_array(a, b)
        for x, y, r, bl in zip(a.tolist(), b.tolist(), pr.tolist(), pb.tolist()):
            want_r, want_b, _ = dyn.update_probs(x, y)
            assert (r, bl) == (want_r, want_b), (dyn, x, y)
        pr2, pb2 = dyn.update_probs_array(a.reshape(-1, 3), b.reshape(-1, 3))
        assert np.array_equal(pr2, pr.reshape(-1, 3)) and np.array_equal(pb2, pb.reshape(-1, 3))


@pytest.mark.parametrize("a, b, pattern", [
    (-0.1, 0.0, "nonnegative"),
    (0.2, math.nan, "nonnegative"),
    (0.7, 0.4, "sum past 1"),
])
def test_update_probs_array_rejects_pairs_outside_the_simplex(a, b, pattern):
    for dyn in (linear_dyn(), BuiltinAdoption("quadratic_damped")):
        with pytest.raises(ValidationError, match=pattern) as scalar:
            dyn.update_probs(a, b)
        with pytest.raises(ValidationError, match=pattern) as vector:
            dyn.update_probs_array(np.array([0.25, a, 0.9]), np.array([0.5, b, 0.95]))
        assert str(vector.value) == str(scalar.value)
    with pytest.raises(ValidationError, match="shape"):
        linear_dyn().update_probs_array(np.zeros(2), np.zeros(3))


class OverOneAt(SwitchingFunction):
    """Passes the construction grid but leaves [0, 1] at one off-grid point."""

    def value(self, x):
        return 1.5 if x == 0.3 else x

    def to_json_dict(self):
        return {}


class BrokenAdoption(AdoptionFunction):
    def _raw_red(self, a, b):
        return math.nan if a == 0.3 else 0.5 * a

    def to_json_dict(self):
        return {}


def test_update_probs_array_raises_the_scalar_clamp_error_at_the_first_bad_pair():
    for dyn, what in ((SwitchSelectAdoption(OverOneAt(), linear_selection()), "red-infection"),
                      (BrokenAdoption(), "red-infection")):
        with pytest.raises(DynamicsDefinitionError) as scalar:
            dyn.update_probs(0.3, 0.0)
        with pytest.raises(DynamicsDefinitionError, match=what) as vector:
            dyn.update_probs_array(np.array([0.1, 0.3, 0.3]), np.array([0.2, 0.0, 0.7]))
        assert str(vector.value) == str(scalar.value)


def test_builtin_quadratic_damped_values():
    dyn = BuiltinAdoption("quadratic_damped")
    assert dyn.prob_red(0.5, 0.5) == pytest.approx(0.375)
    assert dyn.prob_red(1.0, 0.0) == 1.0
    assert dyn.prob_any(0.5, 0.5) == pytest.approx(0.75)
    assert dyn.to_json_dict() == {"h": "builtin:quadratic_damped"}


def test_unknown_builtin_rejected():
    with pytest.raises(DynamicsDefinitionError, match="unknown builtin"):
        BuiltinAdoption("no_such_thing")


def test_from_switch_select_builds_adoption():
    dyn = from_switch_select(PowerSwitch(2.0), TullockSelection(2.0))
    assert dyn.prob_red(0.25, 0.25) == pytest.approx(0.125)


# ---------------------------------------------------------------------------
# Competitive / additive predicates and decomposition.
# ---------------------------------------------------------------------------


def test_linear_dynamics_are_competitive_and_additive():
    dyn = linear_dyn()
    assert is_competitive(dyn)
    assert is_additive(dyn)


def test_convex_switching_with_linear_selection_is_not_competitive():
    dyn = SwitchSelectAdoption(PowerSwitch(2.0), linear_selection())
    violations = check_competitive(dyn)
    assert violations
    v = violations[0]
    assert v.prob_with_opponent > v.prob_alone


@pytest.mark.parametrize("r, s, expected", [
    (0.5, 0.5, True),    # s equal to the switching exponent
    (0.5, 1.0, True),    # s at the linear end
    (0.5, 0.75, True),   # interior of [r, 1]
    (0.5, 0.25, False),  # s below the switching exponent
    (0.5, 1.5, False),   # s above 1
    (1.0, 1.0, True),
])
def test_competitive_boundary_in_the_selection_exponent(r, s, expected):
    dyn = SwitchSelectAdoption(PowerSwitch(r), TullockSelection(s))
    assert is_competitive(dyn) is expected


def scalar_check_competitive(h, grid_step=PREDICATE_GRID_STEP, extra_points=()):
    """Reference: the competitive predicate as a loop of scalar calls."""
    m = round(1.0 / grid_step)
    points = [(i / m, j / m) for i in range(m + 1) for j in range(m + 1 - i)]
    points.extend(extra_points)
    return [(a, b, h.prob_red(a, b), h.prob_red(a, 0.0)) for a, b in points
            if h.prob_red(a, b) > h.prob_red(a, 0.0) + PREDICATE_TOL]


def scalar_check_additive(h, grid_step=PREDICATE_GRID_STEP, extra_points=()):
    """Reference: the additive predicate as a loop of scalar calls."""
    m = round(1.0 / grid_step)
    out = []
    for total in range(m + 1):
        entries = [(i / m, (total - i) / m) for i in range(total + 1)]
        values = [h.prob_any(a, b) for a, b in entries]
        spread = max(values) - min(values)
        if spread > PREDICATE_TOL:
            out.extend((a, b, v, values[-1], spread) for (a, b), v in zip(entries, values)
                       if abs(v - values[-1]) > PREDICATE_TOL)
    for a, b in extra_points:
        v, ref = h.prob_any(a, b), h.prob_any(min(a + b, 1.0), 0.0)
        if abs(v - ref) > PREDICATE_TOL:
            out.append((a, b, v, ref, abs(v - ref)))
    return out


def scalar_check_linear_split(h, points=(), grid_step=PREDICATE_GRID_STEP, tol=LINEARITY_TOL):
    """Reference: the proportional-split predicate as a loop of scalar calls."""
    m = round(1.0 / grid_step)
    out = []
    for a, b in [(i / m, j / m) for i in range(m + 1) for j in range(m + 1 - i)] + list(points):
        if a + b > 0.0:
            gap = h.prob_red(a, b) - h.prob_any(a, b) * (a / (a + b))
            if abs(gap) > tol:
                out.append((a, b, gap))
    return out


class DampedAdoption(AdoptionFunction):
    """A user subclass outside switch/select form: red is damped by blue."""

    def _raw_red(self, a, b):
        return 0.9 * a * (1.0 - 0.5 * b)

    def to_json_dict(self):
        return {}


class SkewedTotal(AdoptionFunction):
    """A user subclass whose total is not symmetric in the two colors, so
    each total's (total, 0) and (0, total) points differ."""

    def _raw_red(self, a, b):
        return 0.4 * a

    def _raw_any(self, a, b):
        return 0.4 * (a + b) + 0.2 * a * a

    def to_json_dict(self):
        return {}


def assert_same_violations(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert tuple(g[:2]) == tuple(w[:2])  # the same points, in the same order
        assert all(abs(x - y) <= 1e-15 for x, y in zip(g[2:], w[2:]))


EXTRA_POINTS = tuple(sorted({(i / d, j / d) for d in (3, 5, 7)
                             for i in range(d + 1) for j in range(d + 1 - i)}))


@pytest.mark.parametrize("dyn", adoption_kinds() + [DampedAdoption(), SkewedTotal()], ids=repr)
def test_array_predicates_match_scalar_loops(dyn, monkeypatch):
    def fields(violations):
        return [dataclasses.astuple(v) for v in violations]

    for step, extra in ((1 / 32, EXTRA_POINTS), (1 / 10, ())):
        assert_same_violations(fields(check_competitive(dyn, step, extra)),
                               scalar_check_competitive(dyn, step, extra))
        assert_same_violations(fields(check_additive(dyn, step, extra)),
                               scalar_check_additive(dyn, step, extra))
        assert_same_violations(check_linear_split(dyn, extra, step),
                               scalar_check_linear_split(dyn, extra, step))

    # The preflight raises the same messages from either implementation.
    graph = Graph(n=8, edges=tuple((s, t) for s in range(3) for t in range(3, 8)))

    def preflight_messages():
        out = []
        for mode in (MODE_SOLO_VS_JOINT, MODE_JOINT_TOTAL, MODE_ATTRIBUTION):
            try:
                require_mode_hypotheses(mode, dyn, graph)
                out.append(None)
            except CouplingHypothesisError as exc:
                out.append(str(exc))
        return out

    vectorised = preflight_messages()
    monkeypatch.setattr(coupling, "check_competitive",
                        lambda h, extra_points: [CompetitiveViolation(*v) for v in
                                                 scalar_check_competitive(h, extra_points=extra_points)])
    monkeypatch.setattr(coupling, "check_additive",
                        lambda h, extra_points: [AdditiveViolation(*v) for v in
                                                 scalar_check_additive(h, extra_points=extra_points)])
    monkeypatch.setattr(coupling, "check_linear_split", scalar_check_linear_split)
    assert preflight_messages() == vectorised


def scalar_validate_simplex(dyn):
    m = round(1.0 / PREDICATE_GRID_STEP)
    for i in range(m + 1):
        for j in range(m + 1 - i):
            dyn.prob_red(i / m, j / m)
            dyn.prob_any(i / m, j / m)


class StretchedSwitch(SwitchingFunction):
    """A user switching function that leaves [0, 1] above x = 5/6."""

    def value(self, x):
        return 1.2 * x

    def to_json_dict(self):
        return {}


class RedOverflow(AdoptionFunction):
    """A user subclass whose red probability leaves [0, 1] before its total."""

    def _raw_red(self, a, b):
        return 2.0 * a * a

    def _raw_any(self, a, b):
        return a + b

    def to_json_dict(self):
        return {}


class BothOverflow(AdoptionFunction):
    """Red and total leave [0, 1] at the same first point: red is reported."""

    def _raw_red(self, a, b):
        return 1.5 * (a + b)

    def _raw_any(self, a, b):
        return 1.5 * (a + b)

    def to_json_dict(self):
        return {}


def test_simplex_validation_raises_the_scalar_error_at_the_first_bad_point():
    # The total leaves [0, 1] first; built unvalidated to compare both paths.
    stretched = object.__new__(SwitchSelectAdoption)
    object.__setattr__(stretched, "switching", StretchedSwitch())
    object.__setattr__(stretched, "selection", TullockSelection(2.0))
    messages = []
    for dyn, what in ((stretched, "total infection"), (RedOverflow(), "red-infection"),
                      (BothOverflow(), "red-infection")):
        with pytest.raises(DynamicsDefinitionError, match=what) as scalar:
            scalar_validate_simplex(dyn)
        with pytest.raises(DynamicsDefinitionError) as vector:
            dyn._validate_simplex()
        assert str(vector.value) == str(scalar.value)
        messages.append(str(scalar.value))
    with pytest.raises(DynamicsDefinitionError) as built:
        SwitchSelectAdoption(StretchedSwitch(), TullockSelection(2.0))
    assert str(built.value) == messages[0]


def test_quadratic_damped_is_competitive_but_not_additive():
    dyn = BuiltinAdoption("quadratic_damped")
    assert is_competitive(dyn)
    violations = check_additive(dyn)
    assert violations
    assert not is_additive(dyn)


def test_decompose_recovers_both_parts_of_an_additive_function():
    dyn = SwitchSelectAdoption(PowerSwitch(2.0), TullockSelection(2.0))
    dec = decompose(dyn)
    assert dec.switching is not None
    assert dec.switching(0.5) == pytest.approx(0.25)
    assert dec.selection(0.25, 0.25) == pytest.approx(0.5)
    assert dec.selection(0.5, 0.25) == pytest.approx(TullockSelection(2.0)(2.0 / 3.0))
    assert dec.undefined_points == ((0.0, 0.0),)


def test_decompose_marks_zero_probability_region_undefined():
    dyn = SwitchSelectAdoption(ThresholdSwitch(0.5), linear_selection())
    dec = decompose(dyn)
    assert (0.25, 0.0) in dec.undefined_points
    assert math.isnan(dec.selection(0.25, 0.0))


def test_decompose_non_additive_function_has_no_switching_part():
    dec = decompose(BuiltinAdoption("quadratic_damped"))
    assert dec.switching is None
    assert dec.selection(0.5, 0.5) == pytest.approx(0.5)


def test_realizable_fraction_pairs_enumerates_in_degree_grids():
    g = Graph(n=4, edges=((0, 1), (0, 2), (3, 2), (1, 3)))  # in-degrees 1, 2, 1
    pairs = realizable_fraction_pairs(g)
    assert pairs == (
        (0.0, 0.0), (0.0, 0.5), (0.0, 1.0),
        (0.5, 0.0), (0.5, 0.5),
        (1.0, 0.0),
    )


# ---------------------------------------------------------------------------
# Candidates and schedules.
# ---------------------------------------------------------------------------


def path_graph():
    return Graph(n=3, edges=((0, 1), (1, 2)))


def test_candidate_vertices_need_an_infected_in_neighbor():
    g = path_graph()
    state = [RED, UNINFECTED, UNINFECTED]
    assert candidate_vertices(g, state, [False] * 3) == (1,)
    assert candidate_vertices(g, state, [False, True, False]) == ()
    state = [RED, BLUE, UNINFECTED]
    assert candidate_vertices(g, state, [False] * 3) == (2,)


def test_filter_phase_candidates_respects_phase_membership():
    g = path_graph()
    state = [RED, UNINFECTED, UNINFECTED]
    assert filter_phase_candidates(g, state, [False] * 3, (2, 1)) == (1,)


def test_single_pass_order_sensitivity():
    g = path_graph()
    dyn = linear_dyn()
    initial = [RED, UNINFECTED, UNINFECTED]
    forward = run_contagion(g, initial, dyn, SinglePassOrder((1, 2)), rng_seed=0)
    backward = run_contagion(g, initial, dyn, SinglePassOrder((2, 1)), rng_seed=0)
    assert forward.chi_R == 3
    assert backward.chi_R == 2
    assert backward.state[2] == UNINFECTED


def test_single_pass_rejects_duplicates_and_unknown_vertices():
    with pytest.raises(ScheduleError, match="twice"):
        SinglePassOrder((1, 1))
    with pytest.raises(ScheduleError, match="unknown vertex"):
        run_contagion(path_graph(), [RED, UNINFECTED, UNINFECTED], linear_dyn(),
                      SinglePassOrder((5,)), rng_seed=0)
    # The first bad entry in listed order is the one reported.
    with pytest.raises(ScheduleError, match="lists vertex 1 twice"):
        SinglePassOrder((1, 1, -1))
    with pytest.raises(ScheduleError, match="non-vertex entry -1"):
        SinglePassOrder((-1, 1, 1))


def test_schedules_take_numpy_vertex_ids():
    order = SinglePassOrder(tuple(np.arange(3)))
    assert order.order == (0, 1, 2)
    assert all(type(v) is int for v in order.order)
    layers = LayerOrder(((np.int64(1), 2),))
    assert layers.layers == ((1, 2),)
    assert all(type(v) is int for v in layers.layers[0])


@pytest.mark.parametrize("make", [
    lambda: SinglePassOrder((True, 2)),
    lambda: LayerOrder(((1,), (np.bool_(False), 2))),
    lambda: load_schedule({"kind": "single_pass", "order": [True, 2]}),
])
def test_schedules_reject_boolean_vertex_ids(make):
    with pytest.raises(ScheduleError, match="non-vertex entry"):
        make()


def test_parallel_rounds_use_snapshot_semantics():
    g = path_graph()
    dyn = linear_dyn()
    initial = [RED, UNINFECTED, UNINFECTED]
    one = run_contagion(g, initial, dyn, ParallelRounds(max_rounds=1), rng_seed=0)
    assert one.state == (RED, RED, UNINFECTED)  # the wave moves one hop per round
    two = run_contagion(g, initial, dyn, ParallelRounds(max_rounds=2), rng_seed=0)
    assert two.state == (RED, RED, RED)


def test_parallel_rounds_stop_when_nothing_changes():
    out = run_contagion(path_graph(), [RED, UNINFECTED, UNINFECTED], linear_dyn(),
                        ParallelRounds(max_rounds=50), rng_seed=0, keep_trace=True)
    assert out.chi_R == 3
    assert len(out.trace) <= 3


def test_parallel_immunity_retires_failed_candidates():
    # 2 flips to red in round 1; 1's only chance needs both in-neighbors, which
    # happens from round 2 on -- too late once a failed attempt makes it immune.
    g = Graph(n=3, edges=((0, 1), (2, 1), (0, 2)))
    dyn = SwitchSelectAdoption(ThresholdSwitch(0.75), linear_selection())
    initial = [RED, UNINFECTED, UNINFECTED]
    plain = run_contagion(g, initial, dyn, ParallelRounds(max_rounds=5), rng_seed=0)
    immune = run_contagion(g, initial, dyn, ParallelRounds(max_rounds=5, immunity=True),
                           rng_seed=0)
    assert plain.state == (RED, RED, RED)
    assert immune.state == (RED, UNINFECTED, RED)


def test_layer_order_matches_equivalent_single_pass():
    g = path_graph()
    dyn = linear_dyn()
    initial = [RED, UNINFECTED, UNINFECTED]
    layered = run_contagion(g, initial, dyn, LayerOrder(((1,), (2,))), rng_seed=0)
    sequential = run_contagion(g, initial, dyn, SinglePassOrder((1, 2)), rng_seed=0)
    assert layered.state == sequential.state
    assert LayerOrder(((1,), (2,))).order == (1, 2)
    assert LayerOrder.from_runs((((5, 7), (0, 1)), (), ((2, 3),))).order == (5, 6, 0, 2)


def test_layer_order_rejects_overlapping_layers():
    with pytest.raises(ScheduleError, match="more than one layer"):
        LayerOrder(((0, 1), (1, 2)))


# Layer orders stored as runs of consecutive ids.


def reference_layer_check(layers):
    """The explicit-id validation by a scan over every listed id: per layer,
    the first non-vertex or repeated entry in listed order; then the first id
    of a later layer that an earlier layer lists.  Returns the layers as
    plain ints."""
    out = []
    for i, layer in enumerate(layers):
        try:
            ids = [int(v) if isinstance(v, np.integer) else v for v in layer]
        except TypeError:
            raise ScheduleError(f"layer {i} must be a list of vertex ids") from None
        seen = set()
        for v in ids:
            if type(v) is not int or v < 0:
                raise ScheduleError(f"layer {i} contains a non-vertex entry {v!r}")
            if v in seen:
                raise ScheduleError(f"layer {i} lists vertex {v} twice")
            seen.add(v)
        out.append(tuple(ids))
    seen = set()
    for layer in out:
        for v in layer:
            if v in seen:
                raise ScheduleError(f"vertex {v} appears in more than one layer")
            seen.add(v)
    return tuple(out)


def expand_runs(runs):
    return tuple(tuple(v for start, stop in layer for v in range(start, stop)) for layer in runs)


def as_numpy_id(draw, v):
    return draw(st.sampled_from((int, np.int64, np.int32, np.uint16)))(v)


@st.composite
def layer_order_cases(draw):
    """Valid layers with gaps, unsorted and empty layers and numpy ids, and
    runs for the same layers split at arbitrary points, with empty runs."""
    cuts = sorted(draw(st.sets(st.integers(1, 59), max_size=12)) | {0, 60})
    blocks = [(a, b) for a, b in zip(cuts, cuts[1:]) if draw(st.booleans())]
    blocks = draw(st.permutations(blocks))
    n_layers = draw(st.integers(1, 5))
    layers = [[] for _ in range(n_layers)]
    runs = [[] for _ in range(n_layers)]
    for a, b in blocks:
        k = draw(st.integers(0, n_layers - 1))
        if draw(st.booleans()):
            ids = list(range(b - 1, a - 1, -1))  # descending: runs of one id
            runs[k].extend((v, v + 1) for v in ids)
        else:
            ids = list(range(a, b))
            mid = draw(st.integers(a, b))
            runs[k].extend([(a, mid), (mid, mid), (mid, b)])
        layers[k].extend(as_numpy_id(draw, v) for v in ids)
    runs = [[tuple(as_numpy_id(draw, v) for v in run) for run in layer] for layer in runs]
    return layers, runs


def validation_message(schedule, n):
    try:
        schedule.validate_for_graph(Graph(n=n, edges=()))
    except ScheduleError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(layer_order_cases())
def test_layer_orders_built_from_ids_and_from_runs_agree(case):
    layers, runs = case
    explicit = LayerOrder(layers)
    by_runs = LayerOrder.from_runs(runs)
    expected = tuple(tuple(int(v) for v in layer) for layer in layers)
    assert explicit.layers == by_runs.layers == expand_runs(by_runs.runs) == expected
    assert all(type(v) is int for layer in by_runs.layers for v in layer)
    assert all(type(v) is int for layer in explicit.runs for run in layer for v in run)
    assert explicit == by_runs and hash(explicit) == hash(by_runs)
    assert explicit.runs == by_runs.runs
    for cursor in range(len(expected) + 2):
        options = explicit.phase_options(None, None, None, cursor)
        assert options == by_runs.phase_options(None, None, None, cursor)
        assert options == ([(1.0, expected[cursor], cursor + 1)]
                           if cursor < len(expected) else None)
    doc = explicit.to_json_dict()
    assert doc == by_runs.to_json_dict() == {"kind": "layer_order",
                                             "layers": [list(layer) for layer in expected]}
    assert load_schedule(json.dumps(doc)) == by_runs
    listed = [v for layer in expected for v in layer]
    for n in range(1, 62, 3):
        unknown = next((v for v in listed if v >= n), None)
        want = None if unknown is None else f"layer order references unknown vertex {unknown}"
        assert validation_message(explicit, n) == validation_message(by_runs, n) == want


entries = st.one_of(st.integers(-2, 9), st.integers(0, 9).map(np.int64), st.booleans(),
                    st.sampled_from((np.bool_(True), 1.0, "3", None)))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.lists(st.integers(0, 9), max_size=4),
                          st.lists(entries, max_size=4), st.integers(0, 3)), max_size=4))
def test_explicit_layer_orders_raise_the_per_id_scan_messages(layers):
    try:
        expected = reference_layer_check(layers)
    except ScheduleError as exc:
        with pytest.raises(ScheduleError) as got:
            LayerOrder(layers)
        assert str(got.value) == str(exc)
    else:
        assert LayerOrder(layers).layers == expected


@settings(max_examples=400, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 4))
                         .map(lambda r: (r[0], r[0] + r[1])), max_size=4), max_size=4))
def test_overlapping_runs_raise_what_their_explicit_ids_raise(runs):
    try:
        expected = reference_layer_check(expand_runs(runs))
    except ScheduleError as exc:
        with pytest.raises(ScheduleError) as got:
            LayerOrder.from_runs(runs)
        assert str(got.value) == str(exc)
    else:
        assert LayerOrder.from_runs(runs).layers == expected


@pytest.mark.parametrize("runs, message", [
    ([[(1,)]], "layer 0 contains a malformed run (1,)"),
    ([[(0, 1)], [(-1, 2)]], "layer 1 contains a malformed run (-1, 2)"),
    ([[(3, 2)]], "layer 0 contains a malformed run (3, 2)"),
    ([[(True, 2)]], "layer 0 contains a malformed run (True, 2)"),
    ([[(0, 2.0)]], "layer 0 contains a malformed run (0, 2.0)"),
    ([[5]], "layer 0 contains a malformed run 5"),
    ([[(0, 3), (2, 4)]], "layer 0 lists vertex 2 twice"),
    ([[(5, 9)], [(0, 3), (2, 6)]], "layer 1 lists vertex 2 twice"),
    ([[(5, 9)], [(0, 3), (3, 6)]], "vertex 5 appears in more than one layer"),
])
def test_from_runs_rejects_malformed_and_overlapping_runs(runs, message):
    with pytest.raises(ScheduleError, match=re.escape(message)):
        LayerOrder.from_runs(runs)


def test_layer_order_runs_merge_touching_neighbours_only():
    order = LayerOrder(((5, 6, 7, 1, 2, 9), (), (3,)))
    assert order.runs == (((5, 8), (1, 3), (9, 10)), (), ((3, 4),))
    assert order.layer_sizes() == [6, 0, 1]
    assert order != LayerOrder(((5, 6, 7, 1, 2, 9), (3,)))


def test_random_sequential_updates_one_vertex_per_step():
    g = Graph(n=5, edges=((0, 1), (0, 2), (0, 3), (0, 4)))
    out = run_contagion(g, [RED] + [UNINFECTED] * 4, linear_dyn(),
                        RandomSequential(max_steps=3), rng_seed=7, keep_trace=True)
    assert len(out.trace) == 3
    assert all(len(rec.candidates) == 1 for rec in out.trace)
    assert out.chi_R == 4  # seed plus one new infection per step


def test_random_sequential_is_deterministic_given_the_seed():
    g = Graph(n=5, edges=((0, 1), (0, 2), (1, 3), (2, 4)))
    initial = [RED, UNINFECTED, UNINFECTED, UNINFECTED, UNINFECTED]
    a = run_contagion(g, initial, linear_dyn(), RandomSequential(max_steps=10), rng_seed=123)
    b = run_contagion(g, initial, linear_dyn(), RandomSequential(max_steps=10), rng_seed=123)
    assert a == b


def test_seeded_vertices_never_update():
    g = Graph(n=2, edges=((0, 1), (1, 0)))
    out = run_contagion(g, [RED, BLUE], linear_dyn(), ParallelRounds(max_rounds=10),
                        rng_seed=0)
    assert out.state == (RED, BLUE)


def test_zero_in_degree_vertices_are_never_infected():
    g = Graph(n=3, edges=((0, 1),))
    out = run_contagion(g, [RED, UNINFECTED, UNINFECTED], linear_dyn(),
                        ParallelRounds(max_rounds=10), rng_seed=0)
    assert out.state == (RED, RED, UNINFECTED)


def test_initial_state_validation():
    g = path_graph()
    with pytest.raises(ValidationError, match="length"):
        run_contagion(g, [RED, UNINFECTED], linear_dyn(), ParallelRounds(1), rng_seed=0)
    with pytest.raises(ValidationError, match="invalid"):
        run_contagion(g, [RED, 9, UNINFECTED], linear_dyn(), ParallelRounds(1), rng_seed=0)


# ---------------------------------------------------------------------------
# JSON loaders.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("doc", [
    {"f": {"kind": "power", "r": 2.0}, "g": {"kind": "tullock", "s": 1.5}},
    {"f": {"kind": "threshold", "alpha": 0.75}, "g": {"kind": "tullock", "s": 1.0}},
    {"f": {"kind": "halfpoint", "eps": 0.01}, "g": {"kind": "tullock", "s": 1.0}},
    {"f": {"kind": "table", "points": [[0.0, 0.0], [0.5, 0.2], [1.0, 1.0]]},
     "g": {"kind": "table", "points": [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]]}},
    {"h": "builtin:quadratic_damped"},
])
def test_load_dynamics_round_trip(doc):
    dyn = load_dynamics(doc)
    assert load_dynamics(dyn.to_json_dict()) == dyn


@pytest.mark.parametrize("doc, pattern", [
    ({"f": {"kind": "power", "r": 1.0}}, "both 'f' and 'g'"),
    ({"h": "builtin:x", "f": {"kind": "power", "r": 1.0}}, "not both"),
    ({"h": "quadratic_damped"}, "builtin:"),
    ({"f": {"kind": "nope"}, "g": {"kind": "tullock", "s": 1.0}}, "unknown switching"),
    ({"f": {"kind": "power"}, "g": {"kind": "tullock", "s": 1.0}}, "missing field 'r'"),
    ({"f": {"kind": "power", "r": 1.0}, "g": {"kind": "nope"}}, "unknown selection"),
    ("{bad json", "not valid JSON"),
    ([1, 2], "JSON object"),
])
def test_load_dynamics_error_cases(doc, pattern):
    with pytest.raises(DynamicsDefinitionError, match=pattern):
        load_dynamics(doc)


@pytest.mark.parametrize("doc", [
    {"kind": "parallel", "max_rounds": 5, "immunity": False},
    {"kind": "parallel", "max_rounds": 2, "immunity": True},
    {"kind": "single_pass", "order": [2, 0, 1]},
    {"kind": "layer_order", "layers": [[0, 1], [2]]},
    {"kind": "random_sequential", "max_steps": 9},
])
def test_load_schedule_round_trip(doc):
    sched = load_schedule(doc)
    assert load_schedule(sched.to_json_dict()) == sched


@pytest.mark.parametrize("doc, pattern", [
    ({"kind": "nope"}, "unknown schedule kind"),
    ({"kind": "parallel"}, "missing field"),
    ({"kind": "parallel", "max_rounds": "soon"}, "malformed"),
    ({"max_rounds": 5}, "'kind'"),
    ("{bad json", "not valid JSON"),
])
def test_load_schedule_error_cases(doc, pattern):
    with pytest.raises(ScheduleError, match=pattern):
        load_schedule(doc)


@pytest.mark.parametrize("doc, message", [
    ({"kind": "parallel", "max_rounds": 2.5}, "max_rounds must be a positive integer, got 2.5"),
    ({"kind": "parallel", "max_rounds": 2.0}, "max_rounds must be a positive integer, got 2.0"),
    ({"kind": "parallel", "max_rounds": True}, "max_rounds must be a positive integer, got True"),
    ({"kind": "parallel", "max_rounds": "3"}, "max_rounds must be a positive integer, got '3'"),
    ({"kind": "parallel", "max_rounds": 0}, "max_rounds must be a positive integer, got 0"),
    ({"kind": "parallel", "max_rounds": 2, "immunity": "false"},
     "immunity must be a boolean, got 'false'"),
    ({"kind": "parallel", "max_rounds": 2, "immunity": "False"},
     "immunity must be a boolean, got 'False'"),
    ({"kind": "parallel", "max_rounds": 2, "immunity": 0}, "immunity must be a boolean, got 0"),
    ({"kind": "random_sequential", "max_steps": 2.9},
     "max_steps must be a positive integer, got 2.9"),
    ({"kind": "random_sequential", "max_steps": True},
     "max_steps must be a positive integer, got True"),
])
def test_load_schedule_passes_field_values_through_uncoerced(doc, message):
    with pytest.raises(ScheduleError, match=re.escape(
            f"schedule of kind {doc['kind']!r} has malformed fields: {message}")):
        load_schedule(doc)


@pytest.mark.parametrize("make", [
    lambda: ParallelRounds(True),
    lambda: ParallelRounds(np.int64(3)),
    lambda: ParallelRounds(2, immunity="false"),
    lambda: ParallelRounds(2, immunity=np.bool_(True)),
    lambda: RandomSequential(False),
    lambda: RandomSequential(4.0),
])
def test_schedules_reject_booleans_and_non_integers_as_counts(make):
    with pytest.raises(ScheduleError, match="must be a"):
        make()
