"""In-memory spans and the counting wrappers of the traced benchmark run.

Spans are recorded only from the benchmark's own files, around calls into the
library's public functions; nothing inside ``src/`` is patched.  Calls too
fine-grained to keep one span each (``update_probs``, ``phase_options``) are
folded into one aggregate record per (enclosing span, name) holding a count
and a total duration; they have no children, so their whole duration is self
time of their layer.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from contagion_games import EXACT_ENUMERATION, AdoptionFunction, PayoffOracle, UpdateSchedule

# The library's modules that do work; ``errors`` and ``__init__`` do none.
LAYERS = ("graphs", "dynamics", "engine", "layered", "equilibrium", "coupling", "gadgets", "cli")
# Time inside the traced phase that no layer span covers: the harness itself.
HARNESS = "bench"


class Tracer:
    """Spans as ``[id, name, start, end, parent, run_id]`` lists.

    A span's layer is the part of its name before the first dot.  A
    disabled tracer records no spans, so the untraced run goes through the
    same code; the wrapper factories below hand back the unwrapped object
    when the tracer is disabled.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.aggregates: dict[tuple, list] = {}
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.run_id = "setup"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = [len(self.spans), name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.run_id]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, seconds: float) -> None:
        """Fold one fine-grained call into its enclosing span's aggregate."""
        key = (self._stack[-1] if self._stack else None, name, self.run_id)
        entry = self.aggregates.get(key)
        if entry is None:
            self.aggregates[key] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    # -- summaries -------------------------------------------------------

    def named(self, name: str) -> list[float]:
        """Durations of every span with this exact name, in seconds."""
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def aggregate(self, name: str) -> tuple[int, float]:
        count = total = 0
        for (_, n, _), (c, t) in self.aggregates.items():
            if n == name:
                count += c
                total += t
        return count, total

    def _self_by_span(self) -> dict[int, float]:
        """Each span's duration minus what its children and aggregates cover."""
        own = {s[0]: s[3] - s[2] for s in self.spans}
        for s in self.spans:
            if s[4] is not None:
                own[s[4]] -= s[3] - s[2]
        for (parent, _, _), (_, t) in self.aggregates.items():
            if parent is not None:
                own[parent] -= t
        return own

    def self_time(self, name: str) -> float:
        own = self._self_by_span()
        return sum(own[s[0]] for s in self.spans if s[1] == name)

    def self_times(self, exclude, window: float) -> dict[str, float]:
        """Self seconds per layer over the spans and aggregates not recorded
        under a run id in ``exclude``, which took ``window`` seconds; what no
        top-level span or aggregate covers is charged to the harness."""
        own = self._self_by_span()
        out = {layer: 0.0 for layer in LAYERS + (HARNESS,)}
        top = 0.0
        for s in self.spans:
            if s[5] not in exclude:
                out[s[1].split(".", 1)[0]] += own[s[0]]
                if s[4] is None:
                    top += s[3] - s[2]
        for (parent, name, run_id), (_, t) in self.aggregates.items():
            if run_id not in exclude:
                out[name.split(".", 1)[0]] += t
                if parent is None:
                    top += t
        out[HARNESS] += window - top
        return out

    def dump(self, path: str) -> None:
        doc = {
            "fields": ["id", "name", "start_s", "end_s", "parent", "run_id"],
            "spans": self.spans,
            "aggregates": [{"parent": p, "name": n, "run_id": r, "count": c, "total_s": t}
                           for (p, n, r), (c, t) in self.aggregates.items()],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


class CountingAdoption(AdoptionFunction):
    """Delegates to another adoption function and times every ``update_probs``.

    Passed wherever the library takes an ``AdoptionFunction`` (``GameSpec``,
    ``couple_test``, a gadget's ``dynamics``); results are the inner
    function's, bit for bit.
    """

    def __init__(self, inner: AdoptionFunction, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def _raw_red(self, a, b):
        return self.inner._raw_red(a, b)

    def _raw_any(self, a, b):
        return self.inner._raw_any(a, b)

    def to_json_dict(self):
        return self.inner.to_json_dict()

    def update_probs(self, a, b):
        t0 = time.perf_counter()
        out = self.inner.update_probs(a, b)
        self.tracer.add("dynamics.update_probs", time.perf_counter() - t0)
        return out


class CountingSchedule(UpdateSchedule):
    """Delegates to a schedule and times its ``phase_options`` (for parallel
    rounds, the scan of every vertex for candidates).  Only for Monte Carlo
    runs: exact enumeration and the couplings dispatch on the schedule's
    concrete class."""

    def __init__(self, inner: UpdateSchedule, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.stop_on_no_change = inner.stop_on_no_change
        self.immunity = inner.immunity

    def initial_cursor(self):
        return self.inner.initial_cursor()

    def phase_options(self, graph, state, immune, cursor):
        t0 = time.perf_counter()
        out = self.inner.phase_options(graph, state, immune, cursor)
        self.tracer.add("dynamics.phase_options", time.perf_counter() - t0)
        return out

    def validate_for_graph(self, graph):
        self.inner.validate_for_graph(graph)

    def to_json_dict(self):
        return self.inner.to_json_dict()


def counting_adoption(inner: AdoptionFunction, tracer: Tracer) -> AdoptionFunction:
    return CountingAdoption(inner, tracer) if tracer.enabled else inner


def counting_schedule(inner: UpdateSchedule, tracer: Tracer) -> UpdateSchedule:
    return CountingSchedule(inner, tracer) if tracer.enabled else inner


def oracle(game, tracer: Tracer, **kwargs) -> PayoffOracle:
    """A counting oracle when tracing, else the library's own, which is
    cheaper per lookup."""
    return CountingOracle(game, tracer, **kwargs) if tracer.enabled else PayoffOracle(game, **kwargs)


class CountingOracle(PayoffOracle):
    """A payoff oracle that counts lookups and cache misses and puts a span
    around each miss, which is where the engine computes a payoff.

    ``misses`` counts the payoffs actually computed, also with a disabled
    tracer.
    """

    def __init__(self, game, tracer: Tracer, **kwargs):
        super().__init__(game, **kwargs)
        self.tracer = tracer
        self.misses = 0
        self._seen: set = set()

    def evaluate(self, red, blue):
        self.tracer.counters["equilibrium.oracle_calls"] += 1
        key = (red.counts, blue.counts)
        hit = key in self._seen or (self.use_symmetry and (blue.counts, red.counts) in self._seen)
        self._seen.add(key)
        if hit:
            return super().evaluate(red, blue)
        self.misses += 1
        self.tracer.counters["equilibrium.oracle_misses"] += 1
        if self.method == EXACT_ENUMERATION:
            name = "engine.exact_payoffs"
        else:
            name = "engine.estimate_payoffs"
            self.tracer.counters["engine.mc_trials"] += self.n_trials
        with self.tracer.span(name):
            return super().evaluate(red, blue)


def counting_payoff_fn(spec, tracer: Tracer):
    """Wraps a gadget's own payoff back end for ``verify_gadget``; None, the
    gadget's own back end, when the tracer is disabled.

    Each call first asks both allocations for their seeded vertices, a dense
    scan that the allocation caches; the back end then reuses the cached
    list, so the scan is timed as engine work rather than inside the back
    end's span.
    """
    if not tracer.enabled:
        return None
    inner = spec.payoff_fn()
    name = ("layered.dp" if spec.structure is not None
            else "gadgets.chain_exact" if spec.chain is not None
            else "engine.exact_payoffs")

    def fn(red, blue):
        tracer.counters["gadgets.payoff_evals"] += 1
        with tracer.span("engine.allocation"):
            red.seeded_vertices()
            blue.seeded_vertices()
        with tracer.span(name):
            return inner(red, blue)

    return fn
