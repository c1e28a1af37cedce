"""Repeat benchmark runs over seeds and summarise each metric.

    python3 perfbench/collect.py --workloads verify orbit tiles \
        --seeds 1-10 [--out perfbench/out/summary.json]

Runs ``run.py`` once per workload and seed, one run at a time, with the
``run_seconds`` of BENCHMARK.json and ``--trace 0``.  For every end-to-end
metric and its unscaled figure it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  The spread of an
end-to-end metric should stay below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workloads:
        values: dict[str, list] = {}
        failed = 0
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            )
            info, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
            failed += result["failed"] + (not result["correct"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, value in info["samples"].get("raw", {}).items():
                values.setdefault("raw." + name, []).append(value)
        summary[workload] = {"failed": failed, "metrics": {n: summarise(v) for n, v in values.items()}}
        for name, stats in summary[workload]["metrics"].items():
            bound = bounds.get(name)
            flag = "" if bound is None or stats["spread"] < bound / 3 else "  <-- spread >= bound/3"
            print(f"{workload:7s} {name:40s} median {stats['median']:<14.6g}"
                  f" spread {stats['spread']:.4f}{flag}", flush=True)
        print(f"{workload:7s} failed {failed}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
