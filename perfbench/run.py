"""Benchmark of the contagion-games library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints a summary, then, as the last line,
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones.  A full report (environment, part timings, failures, known defects)
and, when traced, the spans go to .perfbench_out/.  README.md in this
directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("mc_spread", "nash_sweep", "layered_dp", "huge_gadget")
# Importing the library is most of mc_spread's set-up and scatters from one
# interpreter to the next, so set-up takes the median of five imports, each
# corrected by the median of three host-speed references.
IMPORT_REPEATS = 5
IMPORT_SCALE_REPEATS = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
                "import contagion_games; print(time.perf_counter() - t0)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "contagion_games", "__init__.py")):
        print(f"perfbench: no library source under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    from harness import host_scale, run_workload

    import_scale = host_scale(IMPORT_SCALE_REPEATS)
    t0 = time.perf_counter()
    import contagion_games
    imports = [(time.perf_counter() - t0) * import_scale]
    if os.path.dirname(os.path.dirname(os.path.abspath(contagion_games.__file__))) != src:
        print(f"perfbench: imported contagion_games from {contagion_games.__file__}, not {src}",
              file=sys.stderr)
        return 2
    # Fresh interpreters pay the import again.
    for _ in range(IMPORT_REPEATS - 1):
        scale = host_scale(IMPORT_SCALE_REPEATS)
        child = subprocess.run([sys.executable, "-c", IMPORT_PROBE, src], capture_output=True,
                               text=True, check=True, timeout=120)
        imports.append(float(child.stdout) * scale)

    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT,
                          imports=imports)
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    for defect in report["known_defects"]:
        print("known defect: " + defect)
    for failure in report["failures"]:
        print("FAILED: " + failure)
    if "top_self_layer" in report:
        print("self seconds " + json.dumps({k: round(v, 4) for k, v in
                                            report["self_seconds"].items()}))
        print("top self-time layer: " + report["top_self_layer"])
    print("uncorrected seconds " + json.dumps(report["uncorrected"]))
    print(f"failed_frac {report['failed_frac']:.6g} "
          f"({report['result']['failed']}/{report['result']['attempted']})")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
