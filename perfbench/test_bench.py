"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import harness  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
NAMES = [w["name"] for w in BENCH["workloads"]]


def tiny_run(name, trace, root):
    return harness.run_workload(name, seed=3, seconds=0.0, trace=trace, root=str(root),
                                tiny=True)


def test_benchmark_json_names_what_the_harness_emits():
    assert NAMES == list(workloads.WORKLOADS) == list(bench_run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("name", NAMES)
def test_every_end_to_end_metric_is_emitted_with_its_unit(name, tmp_path):
    report = tiny_run(name, False, tmp_path)
    result = report["result"]
    assert report["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == harness.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(report["environment"]) >= {"machine", "nproc", "l3_cache", "python", "numpy",
                                          "scipy", "seed", "git_commit"}


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_every_per_layer_metric(name, tmp_path):
    report = tiny_run(name, True, tmp_path)
    result = report["result"]
    assert report["failures"] == []
    assert {k: v["unit"] for k, v in result["metrics"].items()} == harness.PER_LAYER
    assert report["top_self_layer"] in LAYERS
    spans = json.loads((tmp_path / ".perfbench_out" / f"{name}-seed3-spans.json").read_text())
    assert spans["spans"] and all(s[3] >= s[2] for s in spans["spans"])


def test_wrong_expected_value_counts_as_a_failed_check(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "CONVEX_POA_PINNED", 4.0)
    report = tiny_run("layered_dp", False, tmp_path)
    assert report["result"]["failed"] >= 1 and not report["result"]["correct"]
    assert report["failed_frac"] > 0
    assert any("criterion 10" in f for f in report["failures"])


def test_part_that_always_raises_stops_the_run_with_its_traceback():
    def broken():
        raise ValueError("boom")

    with pytest.raises(RuntimeError, match="ValueError: boom"):
        harness.timed_loop([("broken", broken)], 0.0, harness.Ledger(), Tracer(False),
                           one_pass=True)


def test_known_defect_is_reported_not_hidden(tmp_path):
    report = tiny_run("layered_dp", False, tmp_path)
    assert any("convexity_amplifier" in d for d in report["known_defects"])


def test_self_times_subtract_children_and_aggregates():
    tracer = Tracer(True)
    with tracer.span("gadgets.build"):
        pass
    tracer.run_id = "pass"
    with tracer.span("equilibrium.outer"):
        time.sleep(0.02)
        with tracer.span("engine.inner"):
            time.sleep(0.02)
            tracer.add("dynamics.update_probs", 0.005)
    _, outer, inner = tracer.spans
    window = outer[3] - outer[2] + 0.01
    self_times = tracer.self_times({"setup"}, window)
    assert self_times["engine"] == pytest.approx(inner[3] - inner[2] - 0.005)
    assert self_times["dynamics"] == 0.005
    assert self_times["equilibrium"] == pytest.approx((outer[3] - outer[2]) - (inner[3] - inner[2]))
    assert self_times["bench"] == pytest.approx(0.01)
    assert self_times["gadgets"] == 0.0
    assert sum(self_times.values()) == pytest.approx(window)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc_spread",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
