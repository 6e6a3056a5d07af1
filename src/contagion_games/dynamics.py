"""Adoption dynamics: switching/selection functions, generalized adoption
functions, structural predicates, update schedules, and single-run contagion.

An uninfected vertex with infected in-neighbor fractions (a, b) — red and blue
respectively — turns Red with probability h(a, b), Blue with probability
h(b, a), and otherwise stays uninfected for this update.  The total infection
probability is H(a, b) = h(a, b) + h(b, a).  The switching–selection special
case is h(a, b) = f(a + b) * g(a / (a + b)).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (DynamicsDefinitionError, ScheduleError, ValidationError, decode_document,
                     real_number)
from .graphs import BLUE, RED, UNINFECTED, Graph, neighbor_fractions

# Grid used for construction-time sanity checks of f and g.
CONSTRUCTION_GRID_STEP = 1.0 / 1024.0
# Default grid for the structural predicates (competitive / additive).
PREDICATE_GRID_STEP = 1.0 / 64.0
PREDICATE_TOL = 1e-12
# Probabilities may drift past [0,1] by at most this much before we treat the
# dynamics definition itself as broken.
CLAMP_TOL = 1e-9


def _require_unit(x: float, what: str) -> float:
    if not isinstance(x, (int, float)) or math.isnan(x) or not (0.0 <= x <= 1.0):
        raise ValidationError(f"{what} must lie in [0, 1], got {x!r}")
    return float(x)


def _check_shape(fn, kind: str) -> None:
    """Check a switching or selection function on the construction grid: in
    [0, 1], monotone, and for a selection g(y) + g(1 - y) = 1, at the first
    failing point in that order; then the endpoints."""
    m = round(1.0 / CONSTRUCTION_GRID_STEP)
    grid = np.arange(m + 1) / m
    v = fn.value_array(grid)
    bad = [~((-PREDICATE_TOL <= v) & (v <= 1.0 + PREDICATE_TOL)),
           np.r_[False, v[1:] < v[:-1] - PREDICATE_TOL]]
    if kind == "selection":
        # The grid is symmetric: 1 - y is the mirrored grid point, exactly.
        bad.append(np.abs(v + v[::-1] - 1.0) > PREDICATE_TOL)
    failing = np.logical_or.reduce(bad)
    if failing.any():
        i = int(failing.argmax())
        x = i / m  # grid[i], as a Python float
        if bad[0][i]:
            raise DynamicsDefinitionError(
                f"{kind} function leaves [0,1]: value {fn.value(x)} at {x}")
        if bad[1][i]:
            raise DynamicsDefinitionError(f"{kind} function is decreasing near {x}: "
                                          f"{fn.value((i - 1) / m)} -> {fn.value(x)}")
        raise DynamicsDefinitionError(
            f"selection function breaks the symmetry g(y)+g(1-y)=1 at {x}")
    at_0, at_1 = abs(v[0]) > PREDICATE_TOL, abs(v[-1] - 1.0) > PREDICATE_TOL
    if kind == "selection" and (at_0 or at_1):
        raise DynamicsDefinitionError("selection function must map 0 to 0 and 1 to 1")
    if at_0:
        raise DynamicsDefinitionError("switching function must be 0 at 0")
    if at_1:
        raise DynamicsDefinitionError("switching function must be 1 at 1")


# ---------------------------------------------------------------------------
# Switching functions f, the probability of adopting at all given the total
# infected in-neighbor fraction, and selection functions g, the probability of
# choosing Red given Red's share of the infected in-neighbors.
# ---------------------------------------------------------------------------


def _check_parameter(value, in_range: Callable[[float], bool], message: str) -> None:
    """Refuse a built-in function's parameter, with the function's message,
    unless it is a real number (`errors.real_number`) that in_range accepts."""
    try:
        ok = in_range(real_number(value, "parameter"))
    except ValidationError:
        ok = False
    if not ok:
        raise DynamicsDefinitionError(f"{message}, got {value!r}")


class _UnitFunction(ABC):
    """Monotone map [0,1] -> [0,1]; `role` names it in errors and picks its
    shape check."""

    role: str

    @abstractmethod
    def value(self, x: float) -> float:
        """Evaluate at an already-validated point x in [0, 1]."""

    def value_array(self, x: np.ndarray) -> np.ndarray:
        """`value` at every point of an array of already-validated points.

        Subclasses with a closed form override this; it must agree with
        `value` pointwise, which the layered DP relies on.
        """
        x = np.asarray(x, dtype=float)
        return np.array([self.value(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)

    @abstractmethod
    def to_json_dict(self) -> dict:
        ...

    def __call__(self, x: float) -> float:
        return self.value(_require_unit(x, f"{self.role}-function argument"))

    def _validate_shape(self) -> None:
        _check_shape(self, self.role)


class SwitchingFunction(_UnitFunction):
    """Monotone map [0,1] -> [0,1] with value 0 at 0 and 1 at 1."""

    role = "switching"


class SelectionFunction(_UnitFunction):
    """Monotone map [0,1] -> [0,1] with g(y) + g(1-y) = 1."""

    role = "selection"


@dataclass(frozen=True)
class PowerSwitch(SwitchingFunction):
    """f(x) = x ** exponent, exponent > 0."""

    exponent: float

    def __post_init__(self):
        _check_parameter(self.exponent, lambda r: r > 0,
                         "power switching exponent must be positive")
        self._validate_shape()

    def value(self, x: float) -> float:
        return float(x ** self.exponent)

    def value_array(self, x: np.ndarray) -> np.ndarray:
        # float_power calls the C pow that Python's ** calls; the ** operator's
        # vector loop differs from it in the last bit at some points.
        return np.float_power(np.asarray(x, dtype=float), self.exponent)

    def to_json_dict(self) -> dict:
        return {"kind": "power", "r": self.exponent}


@dataclass(frozen=True)
class ThresholdSwitch(SwitchingFunction):
    """f(x) = 0 below the threshold, 1 at or above it."""

    threshold: float

    def __post_init__(self):
        _check_parameter(self.threshold, lambda a: 0.0 < a < 1.0,
                         "threshold must lie strictly inside (0, 1)")
        self._validate_shape()

    def value(self, x: float) -> float:
        return 1.0 if x >= self.threshold else 0.0

    def value_array(self, x: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(x, dtype=float) >= self.threshold, 1.0, 0.0)

    def to_json_dict(self) -> dict:
        return {"kind": "threshold", "alpha": self.threshold}


@dataclass(frozen=True)
class HalfPointSwitch(SwitchingFunction):
    """Piecewise-linear through (0, 0), (1/2, midpoint_value), (1, 1)."""

    midpoint_value: float

    def __post_init__(self):
        _check_parameter(self.midpoint_value, lambda e: 0.0 <= e <= 1.0,
                         "midpoint value must lie in [0, 1]")
        self._validate_shape()

    def value(self, x: float) -> float:
        return float(self.value_array(x))

    def value_array(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        e = self.midpoint_value
        return np.where(x <= 0.5, 2.0 * e * x, e + (x - 0.5) * 2.0 * (1.0 - e))

    def to_json_dict(self) -> dict:
        return {"kind": "halfpoint", "eps": self.midpoint_value}


@dataclass(frozen=True)
class _Table:
    """Piecewise-linear through explicit breakpoints spanning x = 0 .. 1: the
    body of `TableSwitch` and `TableSelection`.  `value` reads `value_array`
    at one point, so the two agree bit for bit."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        try:
            pts = tuple((x, y) for x, y in self.points)
        except (TypeError, ValueError):
            raise DynamicsDefinitionError(
                f"table points must be [x, y] pairs, got {self.points!r}") from None
        pts = tuple(tuple(real_number(v, "table coordinate", DynamicsDefinitionError) for v in p)
                    for p in pts)
        if len(pts) < 2:
            raise DynamicsDefinitionError("table needs at least the two endpoints")
        xs = [x for x, _ in pts]
        if any(x2 <= x1 for x1, x2 in zip(xs, xs[1:])):
            raise DynamicsDefinitionError("table x-coordinates must be strictly increasing")
        if abs(xs[0]) > PREDICATE_TOL or abs(xs[-1] - 1.0) > PREDICATE_TOL:
            raise DynamicsDefinitionError("table must span x = 0 .. 1")
        object.__setattr__(self, "points", pts)
        self._validate_shape()

    def value(self, x: float) -> float:
        return float(self.value_array(x))

    def value_array(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        xs, ys = np.array(self.points).T
        i = np.searchsorted(xs, x, side="right")
        lo = np.clip(i - 1, 0, len(xs) - 2)
        x0, y0 = xs[lo], ys[lo]
        out = y0 + (x - x0) / (xs[lo + 1] - x0) * (ys[lo + 1] - y0)
        out = np.where(x == x0, y0, out)
        return np.where(i == 0, ys[0], np.where(i == len(xs), ys[-1], out))

    def to_json_dict(self) -> dict:
        return {"kind": "table", "points": [list(p) for p in self.points]}


class TableSwitch(_Table, SwitchingFunction):
    """Piecewise-linear switching function through explicit breakpoints."""


@dataclass(frozen=True)
class TullockSelection(SelectionFunction):
    """g(y) = y^s / (y^s + (1-y)^s); identity when s = 1."""

    exponent: float

    def __post_init__(self):
        _check_parameter(self.exponent, lambda s: s > 0, "contest exponent must be positive")
        self._validate_shape()

    def value(self, y: float) -> float:
        s = self.exponent
        if s == 1.0:
            return float(y)
        if y <= 0.0:
            return 0.0
        if y >= 1.0:
            return 1.0
        if y == 0.5:
            return 0.5
        try:
            odds = ((1.0 - y) / y) ** s
        except OverflowError:
            odds = math.inf
        if math.isinf(odds):
            return 0.0
        return 1.0 / (1.0 + odds)

    def value_array(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        s = self.exponent
        if s == 1.0:
            return y.copy()
        inner = (y > 0.0) & (y < 1.0)
        with np.errstate(over="ignore"):
            odds = np.float_power((1.0 - y[inner]) / y[inner], s)
        out = np.where(y >= 1.0, 1.0, 0.0)
        # An overflowed odds gives 0 and y = 1/2 gives 1/2 exactly, as in `value`.
        out[inner] = 1.0 / (1.0 + odds)
        return out

    def to_json_dict(self) -> dict:
        return {"kind": "tullock", "s": self.exponent}


class TableSelection(_Table, SelectionFunction):
    """Piecewise-linear selection function through explicit breakpoints."""


def linear_selection() -> TullockSelection:
    return TullockSelection(1.0)


# ---------------------------------------------------------------------------
# Adoption functions.
# ---------------------------------------------------------------------------


def _validate_fraction_pair(a: float, b: float) -> tuple[float, float]:
    if not (a >= 0.0 and b >= 0.0):
        raise ValidationError(f"neighbor fractions must be nonnegative, got ({a}, {b})")
    if a + b > 1.0 + 1e-12:
        raise ValidationError(f"neighbor fractions sum past 1: ({a}, {b})")
    return a, b


def _validate_fraction_arrays(a, b) -> tuple[np.ndarray, np.ndarray]:
    """`_validate_fraction_pair` over two equal-shape arrays; raises its error
    for the first pair it rejects."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValidationError(f"fraction arrays differ in shape: {a.shape} vs {b.shape}")
    bad = ~((a >= 0.0) & (b >= 0.0) & (a + b <= 1.0 + 1e-12))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        _validate_fraction_pair(float(a.flat[i]), float(b.flat[i]))
    return a, b


def _pair_by_pair(probs: Callable[[float, float], tuple], a, b) -> tuple[np.ndarray, np.ndarray]:
    """The first two of probs(x, y) at every pair of two equal-shape fraction
    arrays (`_validate_fraction_arrays`), one call per pair in order."""
    a, b = _validate_fraction_arrays(a, b)
    first = np.empty(a.shape)
    second = np.empty(a.shape)
    for i, (x, y) in enumerate(zip(a.ravel().tolist(), b.ravel().tolist())):
        first.flat[i], second.flat[i] = probs(x, y)[:2]
    return first, second


class AdoptionFunction(ABC):
    """One-step infection probabilities as a function of (red, blue) fractions."""

    @abstractmethod
    def _raw_red(self, a: float, b: float) -> float:
        """Unclamped probability of turning Red at fractions (a, b)."""

    def _raw_any(self, a: float, b: float) -> float:
        return self._raw_red(a, b) + self._raw_red(b, a)

    @abstractmethod
    def to_json_dict(self) -> dict:
        ...

    def _clamp(self, p: float, what: str, a: float, b: float) -> float:
        if math.isnan(p) or p < -CLAMP_TOL or p > 1.0 + CLAMP_TOL:
            raise DynamicsDefinitionError(
                f"{what} evaluates to {p} at fractions ({a}, {b}), outside [0, 1]")
        return min(max(p, 0.0), 1.0)

    def prob_red(self, a: float, b: float) -> float:
        a, b = _validate_fraction_pair(a, b)
        return self._clamp(self._raw_red(a, b), "red-infection probability", a, b)

    def prob_blue(self, a: float, b: float) -> float:
        a, b = _validate_fraction_pair(a, b)
        return self._clamp(self._raw_red(b, a), "blue-infection probability", a, b)

    def prob_any(self, a: float, b: float) -> float:
        a, b = _validate_fraction_pair(a, b)
        return self._clamp(self._raw_any(a, b), "total infection probability", a, b)

    def update_probs(self, a: float, b: float) -> tuple[float, float, float]:
        """(P[Red], P[Blue], P[stay U]) for one update, summing to 1 exactly."""
        pr = self.prob_red(a, b)
        pa = self.prob_any(a, b)
        if pa < pr:  # only possible through float drift; keep the partition sane
            pa = pr
        return pr, pa - pr, 1.0 - pa

    def update_probs_array(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(P[Red], P[Blue]) of `update_probs` at every pair of two equal-shape
        fraction arrays, with its validation, clamping and errors.

        This default calls `update_probs` pair by pair; subclasses with a
        vectorised form override it.
        """
        return _pair_by_pair(self.update_probs, a, b)

    def _prob_arrays(self, a, b) -> tuple[np.ndarray, np.ndarray]:
        """`prob_red` and `prob_any` at every pair of two equal-shape fraction
        arrays, raising their error at the first pair, red before total, that
        they would reject.

        The construction check and the structural predicates read these:
        P[Blue] of `update_probs_array` is max(total, red) - red, which does
        not give `prob_any` back bit for bit.  This default calls the scalar
        methods pair by pair; subclasses with a vectorised form override it.
        """
        return _pair_by_pair(lambda x, y: (self.prob_red(x, y), self.prob_any(x, y)), a, b)

    def _clamped_arrays(self, a: np.ndarray, b: np.ndarray, raw_red: np.ndarray,
                        raw_any: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`_prob_arrays`' result from raw red and total probabilities,
        raising the scalar methods' error at the first pair they would reject."""
        ok = ((raw_red >= -CLAMP_TOL) & (raw_red <= 1.0 + CLAMP_TOL)
              & (raw_any >= -CLAMP_TOL) & (raw_any <= 1.0 + CLAMP_TOL))
        if not ok.all():
            i = int(np.flatnonzero(~ok)[0])
            x, y = float(a.flat[i]), float(b.flat[i])
            self._clamp(float(raw_red.flat[i]), "red-infection probability", x, y)
            self._clamp(float(raw_any.flat[i]), "total infection probability", x, y)
        return np.clip(raw_red, 0.0, 1.0), np.clip(raw_any, 0.0, 1.0)

    def _validate_simplex(self) -> None:
        if self._raw_red(0.0, 0.0) != 0.0:
            raise DynamicsDefinitionError(
                "adoption probability must be exactly 0 with no infected in-neighbors")
        m, i, j = _predicate_grid(PREDICATE_GRID_STEP)
        self._prob_arrays(i / m, j / m)


@dataclass(frozen=True)
class SwitchSelectAdoption(AdoptionFunction):
    """h(a, b) = f(a + b) * g(a / (a + b)); the decomposable special case."""

    switching: SwitchingFunction
    selection: SelectionFunction

    def __post_init__(self):
        if not isinstance(self.switching, SwitchingFunction):
            raise DynamicsDefinitionError("'switching' must be a SwitchingFunction")
        if not isinstance(self.selection, SelectionFunction):
            raise DynamicsDefinitionError("'selection' must be a SelectionFunction")
        self._validate_simplex()

    def _raw_red(self, a: float, b: float) -> float:
        total = a + b
        if total <= 0.0:
            return 0.0
        return self.switching.value(min(total, 1.0)) * self.selection.value(a / total)

    def _raw_any(self, a: float, b: float) -> float:
        # Evaluated directly from the switching function so that the total
        # infection probability depends on a + b exactly, not just up to
        # rounding of g(y) + g(1-y).
        total = a + b
        if total <= 0.0:
            return 0.0
        return self.switching.value(min(total, 1.0))

    def _prob_arrays(self, a, b) -> tuple[np.ndarray, np.ndarray]:
        a, b = _validate_fraction_arrays(a, b)
        total = a + b
        live = total > 0.0
        safe = np.where(live, total, 1.0)
        raw_any = np.where(live, self.switching.value_array(np.minimum(safe, 1.0)), 0.0)
        raw_red = np.where(live, raw_any * self.selection.value_array(a / safe), 0.0)
        return self._clamped_arrays(a, b, raw_red, raw_any)

    def update_probs_array(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pr, pa = self._prob_arrays(a, b)
        return pr, np.maximum(pa, pr) - pr

    def to_json_dict(self) -> dict:
        return {"f": self.switching.to_json_dict(), "g": self.selection.to_json_dict()}


def _quadratic_damped(a: float, b: float) -> float:
    return a * (1.0 - b * b)


BUILTIN_ADOPTIONS: dict[str, Callable[[float, float], float]] = {
    # Competitive but not additive: each player's probability is damped by the
    # square of the opponent's share, so H(a, b) is not a function of a + b.
    "quadratic_damped": _quadratic_damped,
}


@dataclass(frozen=True)
class BuiltinAdoption(AdoptionFunction):
    """A named, hand-defined adoption function (not in switch/select form)."""

    name: str

    def __post_init__(self):
        if self.name not in BUILTIN_ADOPTIONS:
            raise DynamicsDefinitionError(
                f"unknown builtin adoption function {self.name!r}; "
                f"known: {sorted(BUILTIN_ADOPTIONS)}")
        self._validate_simplex()

    def _raw_red(self, a: float, b: float) -> float:
        return BUILTIN_ADOPTIONS[self.name](a, b)

    def to_json_dict(self) -> dict:
        return {"h": f"builtin:{self.name}"}


def from_switch_select(switching: SwitchingFunction,
                       selection: SelectionFunction) -> SwitchSelectAdoption:
    return SwitchSelectAdoption(switching, selection)


# ---------------------------------------------------------------------------
# Structural predicates and decomposition.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompetitiveViolation:
    a: float
    b: float
    prob_with_opponent: float
    prob_alone: float


@dataclass(frozen=True)
class AdditiveViolation:
    a: float
    b: float
    total_prob: float
    reference_prob: float
    spread: float


def _predicate_grid(grid_step: float) -> tuple[int, np.ndarray, np.ndarray]:
    """m = 1/grid_step and the index pairs (i, j) with i + j <= m, i major and
    j ascending: the points (i/m, j/m) of a predicate grid."""
    if not (0.0 < grid_step <= 0.1):
        raise ValidationError(f"grid step must lie in (0, 0.1], got {grid_step}")
    m = round(1.0 / grid_step)
    i, j = np.divmod(np.arange((m + 1) ** 2), m + 1)
    keep = i + j <= m
    return m, i[keep], j[keep]


def _point_arrays(points: Iterable[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    pts = np.array([(a, b) for a, b in points], dtype=float).reshape(-1, 2)
    return pts[:, 0], pts[:, 1]


def _grid_and_points(grid_step: float, extra_points: Iterable[tuple[float, float]],
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The predicate grid's points, then the extra points, as (a, b) arrays."""
    m, i, j = _predicate_grid(grid_step)
    extra_a, extra_b = _point_arrays(extra_points)
    return np.concatenate([i / m, extra_a]), np.concatenate([j / m, extra_b])


def check_competitive(h: AdoptionFunction, grid_step: float = PREDICATE_GRID_STEP,
                      extra_points: Iterable[tuple[float, float]] = ()) -> list[CompetitiveViolation]:
    """Points where the opponent's presence raises one's infection probability.

    Empty result means: h(a, b) <= h(a, 0) + tolerance everywhere checked.
    """
    a, b = _grid_and_points(grid_step, extra_points)
    with_op, _ = h._prob_arrays(a, b)
    alone, _ = h._prob_arrays(a, np.zeros_like(a))
    bad = with_op > alone + PREDICATE_TOL
    return [CompetitiveViolation(*v) for v in zip(
        a[bad].tolist(), b[bad].tolist(), with_op[bad].tolist(), alone[bad].tolist())]


def check_additive(h: AdoptionFunction, grid_step: float = PREDICATE_GRID_STEP,
                   extra_points: Iterable[tuple[float, float]] = ()) -> list[AdditiveViolation]:
    """Points where the total infection probability is not a function of a + b.

    Grid points are grouped by exact total; each group is compared against its
    own spread.  Extra (off-grid) points are compared against the same total
    concentrated on one color.
    """
    m, i, j = _predicate_grid(grid_step)
    a, b = i / m, j / m
    _, value = h._prob_arrays(a, b)
    total = i + j
    top = np.full(m + 1, -np.inf)
    low = np.full(m + 1, np.inf)
    np.maximum.at(top, total, value)
    np.minimum.at(low, total, value)
    spread = top - low
    ref = np.empty(m + 1)
    ref[i[j == 0]] = value[j == 0]  # each group's (total, 0) point
    # A point off its group's reference also puts the group's spread past
    # the tolerance.  Grid order within a total is i ascending; report group
    # by group.
    bad = np.abs(value - ref[total]) > PREDICATE_TOL
    at = np.flatnonzero(bad)
    at = at[np.argsort(total[at], kind="stable")]
    out = [AdditiveViolation(*v) for v in zip(
        a[at].tolist(), b[at].tolist(), value[at].tolist(), ref[total[at]].tolist(),
        spread[total[at]].tolist())]

    a, b = _point_arrays(extra_points)
    _, value = h._prob_arrays(a, b)
    _, ref = h._prob_arrays(np.minimum(a + b, 1.0), np.zeros_like(a))
    gap = np.abs(value - ref)
    bad = gap > PREDICATE_TOL
    out.extend(AdditiveViolation(*v) for v in zip(
        a[bad].tolist(), b[bad].tolist(), value[bad].tolist(), ref[bad].tolist(),
        gap[bad].tolist()))
    return out


def is_competitive(h: AdoptionFunction, grid_step: float = PREDICATE_GRID_STEP,
                   extra_points: Iterable[tuple[float, float]] = ()) -> bool:
    return not check_competitive(h, grid_step, extra_points)


def is_additive(h: AdoptionFunction, grid_step: float = PREDICATE_GRID_STEP,
                extra_points: Iterable[tuple[float, float]] = ()) -> bool:
    return not check_additive(h, grid_step, extra_points)


@dataclass(frozen=True)
class Decomposition:
    """Result of splitting an adoption function into switch/select parts.

    `selection(a, b)` is h(a, b) / H(a, b) wherever H > 0 (NaN where undefined;
    those points are listed in `undefined_points`).  `switching` is present only
    when the total infection probability is additive, in which case it is the
    grid reconstruction x -> H(x, 0).
    """

    selection: Callable[[float, float], float]
    switching: Optional[SwitchingFunction]
    undefined_points: tuple[tuple[float, float], ...]


def decompose(h: AdoptionFunction, grid_step: float = PREDICATE_GRID_STEP) -> Decomposition:
    m, i, j = _predicate_grid(grid_step)

    def selection(a: float, b: float) -> float:
        total_prob = h.prob_any(a, b)
        if total_prob <= 0.0:
            return math.nan
        return h.prob_red(a, b) / total_prob

    a, b = i / m, j / m
    _, total_prob = h._prob_arrays(a, b)
    undefined = tuple(zip(a[total_prob <= 0.0].tolist(), b[total_prob <= 0.0].tolist()))
    switching: Optional[SwitchingFunction] = None
    if is_additive(h, grid_step):
        pts = tuple((i / m, h.prob_any(i / m, 0.0)) for i in range(m + 1))
        switching = TableSwitch(pts)
    return Decomposition(selection=selection, switching=switching, undefined_points=undefined)


def realizable_fraction_pairs(graph: Graph) -> tuple[tuple[float, float], ...]:
    """All (red, blue) in-neighbor fraction pairs any vertex of the graph can
    exhibit.  Cost grows with the square of the largest in-degree; intended for
    small graphs.
    """
    in_degree = graph.in_csr[2]
    pairs = {(0.0, 0.0)}
    for d in np.unique(in_degree[in_degree > 0]).tolist():
        for i in range(d + 1):
            for j in range(d + 1 - i):
                pairs.add((i / d, j / d))
    return tuple(sorted(pairs))


# ---------------------------------------------------------------------------
# Update schedules.
# ---------------------------------------------------------------------------


PhaseOption = tuple[float, tuple[int, ...], object]  # (probability, vertices, next cursor)


def filter_phase_candidates(graph: Graph, state: Sequence[int], immune: Sequence[bool],
                            phase: Sequence[int]) -> tuple[int, ...]:
    """The phase's update candidates, in phase order: its uninfected,
    non-immune vertices with at least one infected in-neighbor."""
    out = []
    for v in phase:
        if state[v] != UNINFECTED or immune[v]:
            continue
        for u in graph.in_neighbors[v]:
            if state[u] != UNINFECTED:
                out.append(v)
                break
    return tuple(out)


def _check_vertex_list(vs, what: str) -> tuple[int, ...]:
    try:
        out = tuple(v if type(v) is int else int(v) if isinstance(v, np.integer) else v
                    for v in vs)
    except TypeError:
        raise ScheduleError(f"{what} must be a list of vertex ids") from None
    seen = set()
    for v in out:
        # Exactly int: booleans are not vertex ids.
        if type(v) is not int or v < 0:
            raise ScheduleError(f"{what} contains a non-vertex entry {v!r}")
        if v in seen:
            raise ScheduleError(f"{what} lists vertex {v} twice")
        seen.add(v)
    return out


class UpdateSchedule(ABC):
    """A bounded plan of update phases.

    `phase_options(graph, state, immune, cursor)` returns the possible next
    phases as (probability, vertices, next_cursor) triples, or None when the
    schedule is finished.  Deterministic schedules return exactly one option;
    the random-sequential schedule returns one option per current candidate.
    A one-shot schedule also lists its snapshot phases up front (`phases`).
    Every back end runs a schedule that is exactly `ParallelRounds` by rounds,
    exactly `SinglePassOrder` or `LayerOrder` by `phases`, and any other,
    subclasses included, through `phase_options` alone (`batched_form`).
    """

    stop_on_no_change: bool = False
    immunity: bool = False

    def initial_cursor(self):
        return 0

    @abstractmethod
    def phase_options(self, graph: Graph, state: Sequence[int], immune: Sequence[bool],
                      cursor) -> Optional[list[PhaseOption]]:
        ...

    def phases(self, graph: Graph) -> Optional[list[np.ndarray]]:
        """A one-shot schedule's snapshot phases, as vertex-id arrays in draw
        order; None for a schedule that may revisit vertices."""
        return None

    @abstractmethod
    def to_json_dict(self) -> dict:
        ...

    def validate_for_graph(self, graph: Graph) -> None:
        """Subclasses referencing explicit vertex ids check them here."""


@dataclass(frozen=True)
class SinglePassOrder(UpdateSchedule):
    """Update the listed vertices one at a time, each exactly once."""

    order: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", _check_vertex_list(self.order, "single-pass order"))

    def phase_options(self, graph, state, immune, cursor):
        if cursor >= len(self.order):
            return None
        return [(1.0, (self.order[cursor],), cursor + 1)]

    def phases(self, graph):
        """The order split into maximal runs of consecutive vertices none of
        which has an in-neighbor earlier in its run.  No vertex of a run sees
        another's update, so updating the run as one snapshot phase, drawing
        in listed order, gives the same states and draws as one vertex at a
        time."""
        groups: list[list[int]] = [[]]
        members: set[int] = set()
        for v in self.order:
            if not members.isdisjoint(graph.in_neighbors[v]):
                groups.append([])
                members = set()
            groups[-1].append(v)
            members.add(v)
        return [np.array(group, dtype=np.intp) for group in groups if group]

    def validate_for_graph(self, graph):
        for v in self.order:
            if v >= graph.n:
                raise ScheduleError(f"single-pass order references unknown vertex {v}")

    def to_json_dict(self) -> dict:
        return {"kind": "single_pass", "order": list(self.order)}


@dataclass(frozen=True)
class ParallelRounds(UpdateSchedule):
    """Update all current candidates simultaneously, round after round.

    Stops after `max_rounds` rounds, or as soon as a round changes nothing.
    With `immunity`, a candidate that fails its update leaves candidacy for
    good.  Stopping on a quiet round makes the expected total non-monotone
    in the seeds: adding a seed can lower it, as a quiet round may then come
    earlier.
    """

    max_rounds: int
    immunity: bool = False
    stop_on_no_change = True

    def __post_init__(self):
        # Exactly int: booleans are not round counts.
        if not (type(self.max_rounds) is int and self.max_rounds >= 1):
            raise ScheduleError(f"max_rounds must be a positive integer, got {self.max_rounds!r}")
        if not isinstance(self.immunity, bool):
            raise ScheduleError(f"immunity must be a boolean, got {self.immunity!r}")

    def phase_options(self, graph, state, immune, cursor):
        if cursor >= self.max_rounds:
            return None
        cands = filter_phase_candidates(graph, state, immune, range(graph.n))
        if not cands:
            return None
        return [(1.0, cands, cursor + 1)]

    def to_json_dict(self) -> dict:
        return {"kind": "parallel", "max_rounds": self.max_rounds, "immunity": self.immunity}


Run = tuple[int, int]


def _check_runs(runs, what: str) -> tuple[Run, ...]:
    """A layer's (start, stop) runs with empty ones dropped and touching
    neighbours merged, so equal layers have equal runs."""
    out: list[Run] = []
    for run in runs:
        try:
            start, stop = run
        except (TypeError, ValueError):
            raise ScheduleError(f"{what} contains a malformed run {run!r}") from None
        if type(start) is not int or type(stop) is not int:
            start, stop = (int(v) if isinstance(v, np.integer) else v for v in run)
            if type(start) is not int or type(stop) is not int:
                raise ScheduleError(f"{what} contains a malformed run {run!r}")
        if not 0 <= start <= stop:
            raise ScheduleError(f"{what} contains a malformed run {run!r}")
        if start == stop:
            continue
        if out and out[-1][1] == start:
            out[-1] = (out[-1][0], stop)
        else:
            out.append((start, stop))
    return tuple(out)


def _first_covered(cover: list[Run], start: int, stop: int) -> Optional[int]:
    """The smallest of the ids start..stop-1 that the sorted, disjoint runs
    of `cover` contain, or None."""
    i = bisect_right(cover, (start, math.inf))
    if i and cover[i - 1][1] > start:
        return start
    if i < len(cover) and cover[i][0] < stop:
        return cover[i][0]
    return None


def _check_disjoint(layers: tuple[tuple[Run, ...], ...]) -> None:
    """Raise on the first id listed twice: within a layer, any layer first,
    then across layers; in listed order, as a per-id scan would find it."""
    runs = [run for layer in layers for run in layer]
    try:
        bounds = np.array(runs, dtype=np.int64).reshape(-1, 2)
    except OverflowError:  # ids past int64 still compare as Python ints
        bounds = np.array(runs, dtype=object).reshape(-1, 2)
    bounds = bounds[np.argsort(bounds[:, 0])]
    if not np.any(bounds[1:, 0] < bounds[:-1, 1]):
        return
    for i, layer in enumerate(layers):
        own: list[Run] = []
        for start, stop in layer:
            v = _first_covered(own, start, stop)
            if v is not None:
                raise ScheduleError(f"layer {i} lists vertex {v} twice")
            insort(own, (start, stop))
    earlier: list[Run] = []
    for layer in layers:
        for start, stop in layer:
            v = _first_covered(earlier, start, stop)
            if v is not None:
                raise ScheduleError(f"vertex {v} appears in more than one layer")
        for start, stop in layer:
            insort(earlier, (start, stop))


def run_ids(runs: Sequence[Run]) -> np.ndarray:
    """The ids of a layer's runs, in run order, as one index array."""
    if not runs:
        return np.empty(0, dtype=np.intp)
    starts, stops = np.array(runs, dtype=np.intp).T
    sizes = stops - starts
    offsets = np.cumsum(sizes) - sizes
    return np.repeat(starts - offsets, sizes) + np.arange(offsets[-1] + sizes[-1])


@dataclass(frozen=True, init=False)
class LayerOrder(UpdateSchedule):
    """Update disjoint vertex groups simultaneously, in the given order.

    Each layer is stored as its runs of consecutive ids, `(start, stop)`
    pairs in listed order, so a schedule over huge layers costs memory per
    run, not per vertex.  `LayerOrder(layers)` takes explicit ids and
    `LayerOrder.from_runs(runs)` takes the runs; two orders with the same
    layers are equal and hash alike however they were built.  `layers` gives
    the explicit ids back, built on each call.
    """

    runs: tuple[tuple[Run, ...], ...]
    _end: int = field(compare=False, repr=False)  # one past the largest id

    def __init__(self, layers: Iterable[Iterable[int]]):
        self._set(tuple(_check_runs(((v, v + 1) for v in _check_vertex_list(layer, f"layer {i}")),
                                    f"layer {i}")
                        for i, layer in enumerate(layers)))

    @classmethod
    def from_runs(cls, runs: Iterable[Iterable[tuple[int, int]]]) -> "LayerOrder":
        """The order whose layer i covers the ids start..stop-1 of each
        (start, stop) pair of runs[i], in the listed order."""
        order = object.__new__(cls)
        order._set(tuple(_check_runs(layer, f"layer {i}") for i, layer in enumerate(runs)))
        return order

    def _set(self, runs: tuple[tuple[Run, ...], ...]) -> None:
        _check_disjoint(runs)
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "_end", max((stop for layer in runs for _, stop in layer),
                                            default=0))

    @property
    def layers(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self._layer(k) for k in range(len(self.runs)))

    def _layer(self, k: int) -> tuple[int, ...]:
        return tuple(v for start, stop in self.runs[k] for v in range(start, stop))

    @property
    def order(self) -> tuple[int, ...]:
        """Every layer's ids, layer after layer: a single pass in this order
        runs the same process when no vertex reads one of its own layer."""
        return tuple(v for k in range(len(self.runs)) for v in self._layer(k))

    def layer_sizes(self) -> list[int]:
        return [sum(stop - start for start, stop in layer) for layer in self.runs]

    def phase_options(self, graph, state, immune, cursor):
        if cursor >= len(self.runs):
            return None
        return [(1.0, self._layer(cursor), cursor + 1)]

    def phases(self, graph):
        return [run_ids(layer) for layer in self.runs]

    def validate_for_graph(self, graph):
        if self._end > graph.n:
            v = next(max(start, graph.n) for layer in self.runs
                     for start, stop in layer if stop > graph.n)
            raise ScheduleError(f"layer order references unknown vertex {v}")

    def to_json_dict(self) -> dict:
        return {"kind": "layer_order", "layers": [list(l) for l in self.layers]}


@dataclass(frozen=True)
class RandomSequential(UpdateSchedule):
    """Update one uniformly chosen candidate per step, up to max_steps."""

    max_steps: int

    def __post_init__(self):
        if not (type(self.max_steps) is int and self.max_steps >= 1):
            raise ScheduleError(f"max_steps must be a positive integer, got {self.max_steps!r}")

    def phase_options(self, graph, state, immune, cursor):
        if cursor >= self.max_steps:
            return None
        cands = filter_phase_candidates(graph, state, immune, range(graph.n))
        if not cands:
            return None
        p = 1.0 / len(cands)
        return [(p, (v,), cursor + 1) for v in cands]

    def to_json_dict(self) -> dict:
        return {"kind": "random_sequential", "max_steps": self.max_steps}


def batched_form(schedule: UpdateSchedule) -> Optional[str]:
    """How every back end runs the schedule (None: by `phase_options` alone)."""
    return {ParallelRounds: "rounds", SinglePassOrder: "single_pass",
            LayerOrder: "layer_order"}.get(type(schedule))


# ---------------------------------------------------------------------------
# Single-run contagion.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseRecord:
    """One executed phase: who was eligible and what changed."""

    candidates: tuple[int, ...]
    updates: tuple[tuple[int, int], ...]  # (vertex, new state != U) pairs


@dataclass(frozen=True)
class SimOutcome:
    state: tuple[int, ...]
    chi_R: int
    chi_B: int
    trace: Optional[tuple[PhaseRecord, ...]] = None


def _validate_initial_state(graph: Graph, initial: Sequence[int]) -> list[int]:
    state = list(initial)
    if len(state) != graph.n:
        raise ValidationError(
            f"initial state has length {len(state)}, graph has {graph.n} vertices")
    for v, s in enumerate(state):
        if s not in (UNINFECTED, RED, BLUE):
            raise ValidationError(f"initial state of vertex {v} is invalid: {s!r}")
    return state


def run_contagion(graph: Graph, initial: Sequence[int], dyn: AdoptionFunction,
                  schedule: UpdateSchedule, rng_seed, keep_trace: bool = False) -> SimOutcome:
    """Run one full contagion process; deterministic given all arguments.

    Each phase uses snapshot semantics: every candidate's in-neighbor fractions
    are read from the state at the start of the phase, and new infections take
    effect only after the phase.
    """
    schedule.validate_for_graph(graph)
    state = _validate_initial_state(graph, initial)
    rng = np.random.default_rng(rng_seed)
    immune = [False] * graph.n
    cursor = schedule.initial_cursor()
    trace: list[PhaseRecord] = []

    while True:
        options = schedule.phase_options(graph, state, immune, cursor)
        if options is None:
            break
        if len(options) == 1:
            _, phase, cursor = options[0]
        else:
            _, phase, cursor = options[int(rng.integers(len(options)))]
        cands = filter_phase_candidates(graph, state, immune, phase)
        updates: list[tuple[int, int]] = []
        for v in cands:
            a, b = neighbor_fractions(graph, state, v)
            pr, pb, _ = dyn.update_probs(a, b)
            z = rng.random()
            if z < pr:
                updates.append((v, RED))
            elif z < pr + pb:
                updates.append((v, BLUE))
            elif schedule.immunity:
                immune[v] = True
        for v, s in updates:
            state[v] = s
        if keep_trace:
            trace.append(PhaseRecord(candidates=cands, updates=tuple(updates)))
        if schedule.stop_on_no_change and not updates:
            break

    return SimOutcome(
        state=tuple(state),
        chi_R=sum(1 for s in state if s == RED),
        chi_B=sum(1 for s in state if s == BLUE),
        trace=tuple(trace) if keep_trace else None,
    )


# ---------------------------------------------------------------------------
# JSON parsing / serialization.
# ---------------------------------------------------------------------------


# Each function document's kind -> (class, field holding its parameter), for
# the switching function 'f' and the selection function 'g'.
_FUNCTION_KINDS = {
    "f": (SwitchingFunction, {"power": (PowerSwitch, "r"), "threshold": (ThresholdSwitch, "alpha"),
                              "halfpoint": (HalfPointSwitch, "eps"),
                              "table": (TableSwitch, "points")}),
    "g": (SelectionFunction, {"tullock": (TullockSelection, "s"),
                              "table": (TableSelection, "points")}),
}


def _parse_function(name: str, doc) -> _UnitFunction:
    """The function document `name` ('f' or 'g') of a dynamics document."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise DynamicsDefinitionError(f"'{name}' must be an object with a 'kind', got {doc!r}")
    base, kinds = _FUNCTION_KINDS[name]
    kind = doc["kind"]
    if not (isinstance(kind, str) and kind in kinds):
        raise DynamicsDefinitionError(f"unknown {base.role}-function kind {kind!r}")
    cls, key = kinds[kind]
    if key not in doc:
        raise DynamicsDefinitionError(f"'{name}' of kind {kind!r} is missing field {key!r}")
    if key == "points":
        return cls(doc[key])
    return cls(real_number(doc[key], f"'{name}' field {key!r}", DynamicsDefinitionError))


def load_dynamics(document: str | dict) -> AdoptionFunction:
    """Parse a dynamics document: either {"f": ..., "g": ...} or {"h": "builtin:<name>"}."""
    obj = decode_document(document, DynamicsDefinitionError, "dynamics")
    if not isinstance(obj, dict):
        raise DynamicsDefinitionError("dynamics document must be a JSON object")
    if "h" in obj:
        if "f" in obj or "g" in obj:
            raise DynamicsDefinitionError("give either 'h' or ('f' and 'g'), not both")
        spec = obj["h"]
        if not (isinstance(spec, str) and spec.startswith("builtin:")):
            raise DynamicsDefinitionError(f"'h' must be 'builtin:<name>', got {spec!r}")
        return BuiltinAdoption(spec[len("builtin:"):])
    if "f" not in obj or "g" not in obj:
        raise DynamicsDefinitionError("dynamics document needs both 'f' and 'g' (or 'h')")
    return SwitchSelectAdoption(_parse_function("f", obj["f"]), _parse_function("g", obj["g"]))


def _schedule_from_fields(kind: str, cls, *fields) -> UpdateSchedule:
    """The schedule built from its JSON field values as given, uncoerced."""
    try:
        return cls(*fields)
    except ScheduleError as exc:
        raise ScheduleError(f"schedule of kind {kind!r} has malformed fields: {exc}") from None


def load_schedule(document: str | dict) -> UpdateSchedule:
    obj = decode_document(document, ScheduleError, "schedule")
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ScheduleError(f"schedule document must be an object with a 'kind', got {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "parallel":
            return _schedule_from_fields(kind, ParallelRounds, obj["max_rounds"],
                                         obj.get("immunity", False))
        if kind == "single_pass":
            return SinglePassOrder(tuple(obj["order"]))
        if kind == "layer_order":
            return LayerOrder(tuple(tuple(layer) for layer in obj["layers"]))
        if kind == "random_sequential":
            return _schedule_from_fields(kind, RandomSequential, obj["max_steps"])
    except KeyError as exc:
        raise ScheduleError(f"schedule of kind {kind!r} is missing field {exc}") from None
    except (TypeError, ValueError):
        raise ScheduleError(f"schedule of kind {kind!r} has malformed fields") from None
    raise ScheduleError(f"unknown schedule kind {kind!r}")
