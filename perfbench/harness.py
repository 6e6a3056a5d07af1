"""Closed-loop harness shared by the four workloads.

One run: set the workload up three times, run one untimed warm-up pass of
its parts, run the parts round-robin for the requested seconds, check the
answers, and report metrics.  A traced run measures half the time untraced,
then one pass with spans and counting wrappers, then the layer probes.

Imports no library code at load time: run.py times the library's import
after loading this module.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import time
import traceback

SETUP_REPEATS = 3


class Ledger:
    """Correctness bookkeeping: every check and every part call is attempted
    once; a check that does not hold or a call that raises has failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.known_defects: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def call(self, name: str, fn):
        """Run fn; a raised exception is a failure, reported with its traceback."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # a workload part must not stop the run; it is reported
            self.failures.append(f"{name} raised:\n{traceback.format_exc()}")
            return None

    @property
    def failed(self) -> int:
        return len(self.failures)


# The reference loop's median duration on the host where the benchmark was
# defined (2-vCPU Intel Xeon VM, Python 3.11.7).
REFERENCE_NOMINAL_S = 0.0052


def host_scale(repeats: int = 1) -> float:
    """REFERENCE_NOMINAL_S over the median of `repeats` reference durations:
    the factor that corrects a duration measured right after."""
    return REFERENCE_NOMINAL_S / statistics.median(reference_seconds() for _ in range(repeats))


def reference_seconds() -> float:
    """Duration of a fixed piece of interpreter work (an integer
    linear-congruential loop that touches almost no memory), the faster of
    two runs.

    The host's speed drifts by 10-20% over seconds to minutes for identical
    work.  Each timed call is scaled by REFERENCE_NOMINAL_S over this
    duration, measured just before the call, which cancels the drift and
    keeps the library's own changes."""
    best = float("inf")
    for _ in range(2):
        x = 1
        t0 = time.perf_counter()
        for _ in range(30_000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        best = min(best, time.perf_counter() - t0)
    return best


class Samples:
    """Per-part durations, host-speed scales and returned dicts, in call order.

    ``seconds`` are as measured; every figure derived here is corrected by
    the scale measured next to its call (see reference_seconds)."""

    def __init__(self, names):
        self.seconds = {n: [] for n in names}
        self.scales = {n: [] for n in names}
        self.results = {n: [] for n in names}

    def add(self, name: str, seconds: float, scale: float, result: dict) -> None:
        self.seconds[name].append(seconds)
        self.scales[name].append(scale)
        self.results[name].append(result)

    def corrected(self, name: str) -> list[float]:
        return [s * f for s, f in zip(self.seconds[name], self.scales[name])]

    def median(self, name: str) -> float:
        return statistics.median(self.corrected(name))

    def median_rate(self, name: str, key: str) -> float:
        """Median over calls of (units of work named `key`) per second."""
        return statistics.median(r[key] / s for r, s in zip(self.results[name],
                                                            self.corrected(name)))

    def pass_seconds(self) -> float:
        """One pass of every part, from each part's corrected median."""
        return sum(self.median(n) for n in self.seconds)

    def raw_pass_seconds(self) -> float:
        return sum(statistics.median(s) for s in self.seconds.values())


def timed_loop(parts, seconds: float, ledger: Ledger, tracer, one_pass: bool = False) -> Samples:
    """Run the parts round-robin until `seconds` have elapsed (at least one
    whole pass).  A part is not started when its previous duration would carry
    the loop past the deadline, so runs stop close to `seconds`."""
    samples = Samples([name for name, _ in parts])
    start = time.perf_counter()
    k = 0
    while True:
        name, fn = parts[k % len(parts)]
        if k >= len(parts):
            if one_pass:
                break
            previous = samples.seconds[name][-1] if samples.seconds[name] else 0.0
            if time.perf_counter() - start + previous > seconds:
                break
        tracer.run_id = f"{name}#{len(samples.seconds[name])}"
        scale = host_scale()
        t0 = time.perf_counter()
        result = ledger.call(name, fn)
        dt = time.perf_counter() - t0
        if result is not None:
            samples.add(name, dt, scale, result)
        k += 1
    tracer.run_id = "after"
    missing = [n for n, s in samples.seconds.items() if not s]
    if missing:
        raise RuntimeError(f"parts {missing} never completed:\n" + "\n".join(ledger.failures))
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _l3_size() -> str:
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return "unknown"
    for entry in entries:
        if _read(f"{base}/{entry}/level") == "3":
            return _read(f"{base}/{entry}/size") or "unknown"
    return "none"


def _git_commit(root: str) -> str:
    """HEAD of the checkout, read without running git; the benchmark may run
    from an export that is not a repository."""
    head = _read(os.path.join(root, ".git", "HEAD"))
    if not head:
        return "unknown (not a git checkout)"
    if head.startswith("ref: "):
        ref = head[5:]
        commit = _read(os.path.join(root, ".git", ref))
        if not commit:
            for line in _read(os.path.join(root, ".git", "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    commit = line.split()[0]
        return commit or "unknown"
    return head


def environment(root: str, seed: int) -> dict:
    import numpy
    import scipy

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "nproc": affinity or os.cpu_count(),
        "l3_cache": _l3_size(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "git_commit": _git_commit(root),
    }


# Names and units of every metric; BENCHMARK.json lists the same ones.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "mc_trials_per_s": "1/s",
              "cli_s": "s"}
CLI_VERBS = ("simulate", "couple-test", "nash", "poa", "bm", "gadget")
PER_LAYER = {
    "graphs.build_s": "s",
    "dynamics.update_probs_calls": "count",
    "dynamics.update_probs_s": "s",
    "dynamics.phase_options_s": "s",
    "dynamics.run_contagion_ms": "ms",
    "dynamics.phase_scan_ms": "ms",
    "dynamics.schedule_build_s": "s",
    "dynamics.adoption_build_s": "s",
    "engine.mc_run_ms": "ms",
    "engine.hub_trials_per_s": "1/s",
    "engine.exact_calls": "count",
    "engine.exact_call_ms": "ms",
    "engine.allocation_s": "s",
    "layered.dp_calls": "count",
    "layered.dp_call_p50_ms": "ms",
    "layered.dp_call_max_ms": "ms",
    "layered.dp_s": "s",
    "layered.sampler_trials_per_s": "1/s",
    "equilibrium.oracle_calls": "count",
    "equilibrium.oracle_misses": "count",
    "equilibrium.oracle_hit_ratio": "ratio",
    "equilibrium.nash_s": "s",
    "equilibrium.poa_s": "s",
    "equilibrium.bm_s": "s",
    "equilibrium.search_self_s": "s",
    "equilibrium.games_per_s": "1/s",
    "equilibrium.game_p50_ms": "ms",
    "equilibrium.game_p95_ms": "ms",
    "equilibrium.mc_oracle_nash_s": "s",
    "coupling.couple_test_s.solo-vs-joint": "s",
    "coupling.couple_test_s.joint-total": "s",
    "coupling.coupled_runs_per_s": "1/s",
    "gadgets.build_s": "s",
    "gadgets.payoff_evals": "count",
    "gadgets.verify_s": "s",
    "gadgets.verify_self_s": "s",
    **{f"cli.verb_s.{verb}": "s" for verb in CLI_VERBS},
    "cli.overhead_s": "s",
    **{f"self_s.{layer}": "s" for layer in ("graphs", "dynamics", "engine", "layered",
                                            "equilibrium", "coupling", "gadgets", "cli", "bench")},
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, part_metrics: dict, pass_s: float, overhead_s: float,
                  direct_cli_s: float, cli_calls: int) -> tuple[dict, dict]:
    """Per-layer figures of the traced set-up, pass and probes; layers a
    workload does not use read 0.  CLI figures are per call of the ``cli``
    part, which a pass may make more than once.  Self seconds per layer, also
    returned, cover the traced pass only: the workload's own work."""
    self_times = tracer.self_times({"setup", "probes"}, pass_s)
    calls, probs_s = tracer.aggregate("dynamics.update_probs")
    _, options_s = tracer.aggregate("dynamics.phase_options")
    mc_trials = tracer.counters["engine.mc_trials"]
    exact = tracer.named("engine.exact_payoffs")
    dp = tracer.named("layered.dp")
    oracle_calls = tracer.counters["equilibrium.oracle_calls"]
    cli_spans = {verb: sum(tracer.named(f"cli.{verb}")) / cli_calls for verb in CLI_VERBS}
    m = {
        "graphs.build_s": sum(tracer.named("graphs.build")),
        "dynamics.update_probs_calls": calls,
        "dynamics.update_probs_s": probs_s,
        "dynamics.phase_options_s": options_s,
        "dynamics.run_contagion_ms": 1000.0 * _median_or_zero(tracer.named("dynamics.run_contagion")),
        "dynamics.phase_scan_ms": 1000.0 * _median_or_zero(tracer.named("dynamics.phase_scan")),
        "dynamics.schedule_build_s": sum(tracer.named("dynamics.schedule_build")),
        "dynamics.adoption_build_s": sum(tracer.named("dynamics.adoption_build")),
        "engine.mc_run_ms": (1000.0 * sum(tracer.named("engine.estimate_payoffs")) / mc_trials
                             if mc_trials else 0.0),
        "engine.hub_trials_per_s": 0.0,
        "engine.exact_calls": len(exact),
        "engine.exact_call_ms": 1000.0 * _median_or_zero(exact),
        "engine.allocation_s": sum(tracer.named("engine.allocation")),
        "layered.dp_calls": len(dp),
        "layered.dp_call_p50_ms": 1000.0 * _median_or_zero(dp),
        "layered.dp_call_max_ms": 1000.0 * max(dp, default=0.0),
        "layered.dp_s": sum(dp),
        "layered.sampler_trials_per_s": 0.0,
        "equilibrium.oracle_calls": oracle_calls,
        "equilibrium.oracle_misses": tracer.counters["equilibrium.oracle_misses"],
        "equilibrium.oracle_hit_ratio": (
            1.0 - tracer.counters["equilibrium.oracle_misses"] / oracle_calls if oracle_calls else 0.0),
        "equilibrium.nash_s": sum(tracer.named("equilibrium.find_pure_nash")),
        "equilibrium.poa_s": sum(tracer.named("equilibrium.price_of_anarchy")),
        "equilibrium.bm_s": sum(tracer.named("equilibrium.budget_multiplier")),
        "equilibrium.search_self_s": self_times["equilibrium"],
        "equilibrium.games_per_s": 0.0,
        "equilibrium.game_p50_ms": 0.0,
        "equilibrium.game_p95_ms": 0.0,
        "equilibrium.mc_oracle_nash_s": 0.0,
        "coupling.couple_test_s.solo-vs-joint": sum(tracer.named("coupling.couple_test.solo-vs-joint")),
        "coupling.couple_test_s.joint-total": sum(tracer.named("coupling.couple_test.joint-total")),
        "coupling.coupled_runs_per_s": 0.0,
        "gadgets.build_s": sum(tracer.named("gadgets.build")),
        "gadgets.payoff_evals": tracer.counters["gadgets.payoff_evals"],
        "gadgets.verify_s": 0.0,
        "gadgets.verify_self_s": tracer.self_time("gadgets.verify"),
        **{f"cli.verb_s.{verb}": s for verb, s in cli_spans.items()},
        "cli.overhead_s": sum(cli_spans.values()) - direct_cli_s,
        **{f"self_s.{layer}": s for layer, s in self_times.items()},
        "trace.overhead_s": overhead_s,
        "trace.spans": len(tracer.spans),
    }
    m.update(part_metrics)
    return m, self_times


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: str,
                 imports: tuple = (0.0,), tiny: bool = False) -> dict:
    """One benchmark run; returns the report (the printed result is its
    ``result`` entry).  ``imports`` are corrected seconds of importing the
    library, measured by the caller."""
    from tracing import Tracer
    from workloads import WORKLOADS

    out_root = os.path.join(root, ".perfbench_out")
    work_dir = os.path.join(out_root, f"{name}-seed{seed}-work")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    ledger = Ledger()
    workload = WORKLOADS[name](seed, tiny, work_dir, ledger)
    quiet = Tracer(False)
    tracer = Tracer(True) if trace else quiet
    try:
        setups, setup_scales = [], []
        for k in range(SETUP_REPEATS):
            gc.collect()
            setup_scales.append(host_scale())
            t0 = time.perf_counter()
            workload.setup(tracer if k == SETUP_REPEATS - 1 else quiet)
            setups.append(time.perf_counter() - t0)
        # An untimed warm-up pass fills the caches that every later call
        # finds full, and gives the CLI part a run to compare results with.
        parts = workload.parts(quiet)
        timed_loop(parts, 0.0, ledger, quiet, one_pass=True)
        samples = timed_loop(parts, seconds / 2 if trace else seconds, ledger, quiet)
        metrics = {
            "setup_s": statistics.median(imports) + statistics.median(
                t * f for t, f in zip(setups, setup_scales)),
            "wall_s": samples.pass_seconds(),
            "peak_rss_mb": peak_rss_mb(),
            **workload.end_to_end(samples),
        }
        units = END_TO_END
        self_times = None
        if trace:
            traced = timed_loop(workload.parts(tracer), 0.0, ledger, tracer, one_pass=True)
            tracer.run_id = "probes"
            workload.probes(tracer)
            t0 = time.perf_counter()
            workload.direct_cli_work()
            direct_cli_s = time.perf_counter() - t0
            workload.checks(traced)
            # The traced pass's calls against the same calls untraced, from
            # raw medians; the host-speed references between calls are in
            # neither.
            traced_pass_s = sum(sum(s) for s in traced.seconds.values())
            untraced_pass_s = sum(statistics.median(samples.seconds[n]) for n, _ in parts)
            metrics, self_times = layer_metrics(
                tracer, workload.part_metrics(samples),
                pass_s=traced_pass_s, overhead_s=traced_pass_s - untraced_pass_s,
                direct_cli_s=direct_cli_s, cli_calls=len(traced.seconds["cli"]))
            units = PER_LAYER
            tracer.dump(os.path.join(out_root, f"{name}-seed{seed}-spans.json"))
        workload.checks(samples)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    report = {
        "workload": name,
        "environment": environment(root, seed),
        "failed_frac": ledger.failed / ledger.attempted,
        "failures": ledger.failures,
        "known_defects": sorted(set(ledger.known_defects)),
        "part_seconds": samples.seconds,
        "part_host_scales": samples.scales,
        "setup_seconds": setups,
        "import_seconds_corrected": list(imports),
        "uncorrected": {"setup_builds_s": statistics.median(setups),
                        "wall_s": samples.raw_pass_seconds()},
        "result": result,
    }
    if self_times is not None:
        report["self_seconds"] = self_times
        report["top_self_layer"] = max((layer for layer in self_times if layer != "bench"),
                                       key=self_times.get)
    with open(os.path.join(out_root, f"{name}-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    return report
