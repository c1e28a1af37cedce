"""Self-test of the benchmark (about four minutes on two cores).

    python3 perfbench/selftest.py

Checks that
- one corrupted expected answer (a flipped tile verdict, an altered report
  field) makes the run incorrect with a failed operation;
- the span tree of a traced ``verify`` run covers the four report stages;
- the exact counts of two traced runs of each workload repeat exactly;
- the predicted zeros hold: no Q(phi) or geometry calls on ``tiles`` and
  no tile-set calls on ``orbit``.
Exits 1 and lists the failed checks if any fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import REPORT_STAGES  # noqa: E402

EXACT_COUNTS = (
    "phifield.ops",
    "geometry.convex_intersection_calls",
    "wang.admits_surrounding_calls",
    "geometry.locate_calls",
)
PREDICTED_ZEROS = {
    "tiles": ("phifield.ops", "phifield.sign_calls", "geometry.convex_intersection_calls",
              "geometry.bbox_overlap_calls", "geometry.locate_calls",
              "pipeline.reference_partition_calls"),
    "orbit": ("wang.admits_surrounding_calls", "wang.solve_all_s",
              "wang.patterns_with_surrounding_s", "wang.exists_periodic_tiling_s",
              "markers.find_markers_s"),
}

failures: list[str] = []


def check(ok: bool, message: str):
    print(("ok    " if ok else "FAIL  ") + message, flush=True)
    if not ok:
        failures.append(message)


def bench(workload, *extra, trace=0):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    info, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return info, result, values


def corrupted_answers():
    for workload in ("tiles", "verify"):
        _, result, _ = bench(workload, "--corrupt")
        check(not result["correct"] and result["failed"] >= 1,
              f"{workload}: a corrupted expected answer fails "
              f"({result['failed']} of {result['attempted']} ops failed)")


def span_tree(trace_file):
    spans = [json.loads(line) for line in (ROOT / trace_file).read_text().splitlines()]
    spans = [s for s in spans if "span" in s]
    roots = [s["span"] for s in spans if s["name"] == "pipeline.run_all"]
    children = {s["name"] for s in spans if s["parent"] in roots}
    check(bool(roots) and set(REPORT_STAGES) <= children,
          f"verify: run_all spans have the report stages as children ({sorted(children)})")


def traced_runs():
    for workload in ("verify", "orbit", "tiles"):
        info, first, counts = bench(workload, trace=1)
        _, second, again = bench(workload, trace=1)
        check(first["correct"] and second["correct"], f"{workload}: traced runs are correct")
        for name in EXACT_COUNTS:
            check(counts[name] == again[name],
                  f"{workload}: {name} repeats exactly ({counts[name]}, {again[name]})")
        for name in PREDICTED_ZEROS.get(workload, ()):
            check(counts[name] == 0, f"{workload}: {name} is 0 ({counts[name]})")
        if workload == "verify":
            span_tree(info["samples"]["trace_file"])


def main():
    corrupted_answers()
    traced_runs()
    if failures:
        print(f"{len(failures)} self-test check(s) failed", file=sys.stderr)
        sys.exit(1)
    print("all self-test checks passed")


if __name__ == "__main__":
    main()
