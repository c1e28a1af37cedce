"""Benchmark of aperiodic-kit: one run of one workload.

    python3 perfbench/run.py --workload verify|orbit|tiles --seed N \
        --seconds T --trace 0|1

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src``.  Every measurement runs in a fresh
interpreter (``worker.py``) with ``APERIODIC_KIT_JOBS=1`` and
``PYTHONHASHSEED=0``, so no cache or environment leaks between runs.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json:
timed workers run rounds of the workload for about ``--seconds`` seconds,
set-up is repeated in further workers so ``setup_s`` is a median, and
every time is scaled to the reference speed by the workers' speed probe.
With ``--trace 1`` it reports the per-layer metrics: an untraced and a
traced worker run the same fixed operations, the traced one writes its
spans to ``perfbench/out``, and ``trace.overhead_ratio`` compares the two.
The last line of standard output is the result as one JSON object; the
line before it records the machine, the interpreter, the git commit, the
seed, the sample counts and the unscaled metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_SAMPLES = 5
# workloads whose rounds each get a fresh worker (see end_to_end)
COLD_ROUNDS = {"verify"}
# Time of the worker's speed-probe snippet at the reference speed.  Each
# end-to-end time is scaled by PROBE_REFERENCE_S over the mean probe time
# around it, which removes most of the drift of a shared host; the info
# line also carries the raw figures.
PROBE_REFERENCE_S = 0.007
PROBE_WINDOW = 10
# operations of a traced run; fixed so that its counts repeat exactly
TRACE_OPS = {"verify": 1, "orbit": 30, "tiles": 400}
# whole run, below the 180 s a run may take
DEADLINE_S = 170


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Children:
    """Runs worker children one at a time under a shared deadline."""

    def __init__(self, workload, seed):
        self.base = [sys.executable, str(BENCH / "worker.py"),
                     "--workload", workload, "--seed", str(seed)]
        self.env = dict(os.environ, APERIODIC_KIT_JOBS="1", PYTHONHASHSEED="0",
                        PYTHONPATH=str(ROOT / "src"))
        self.deadline = monotonic() + DEADLINE_S

    def run(self, *args) -> dict:
        done = subprocess.run(
            self.base + list(args), env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
            text=True, timeout=max(1.0, self.deadline - monotonic()), check=False,
        )
        if done.returncode != 0:
            raise SystemExit(f"worker {' '.join(args)} exited with {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """The q-th percentile (0 < q < 100) of values; the value itself for one."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(children, workload, seconds, corrupt):
    """Timed workers until ``seconds`` is used, then more set-up samples.

    A round of ``verify`` fills the package's module caches, so each of its
    rounds runs in a fresh worker; the other workloads run all their rounds
    in one worker.  Returns the metrics at the reference speed, the op
    counts, and the sample counts with the raw metrics.
    """
    extra = ["--corrupt"] if corrupt else []
    if workload in COLD_ROUNDS:
        extra += ["--max-rounds", "1"]
    timed = []
    while not timed or (workload in COLD_ROUNDS and fits(timed, seconds)):
        timed.append(children.run("--seconds", str(seconds), *extra))
    setup = timed + [children.run("--setup-only") for _ in range(SETUP_SAMPLES - len(timed))]
    attempted = sum(w["attempted"] for w in timed)
    failed = sum(w["failed"] for w in timed)

    def metrics(time_of):
        rounds = [time_of(w, r) for w in timed for r in w["rounds"]]
        op_ms = [time_of(w, op) * 1000 for w in timed for op in w["ops"]]
        return {
            "setup_s": statistics.median(time_of(w, w["setup"]) for w in setup),
            "run_s": statistics.median(rounds),
            "ops_per_s": (attempted - failed) / sum(rounds),
            "op_p50_ms": statistics.median(op_ms),
            "op_p90_ms": percentile(op_ms, 90),
            "peak_rss_mb": max(w["peak_rss_mb"] for w in timed),
        }

    samples = {
        "ops": attempted,
        "rounds": sum(len(w["rounds"]) for w in timed),
        "setup": len(setup),
        "raw": metrics(lambda worker, interval: interval[0]),
    }
    return metrics(at_reference), attempted, failed, samples


def at_reference(worker, interval):
    """An interval's time at the reference speed: scaled by the mean probe
    sample taken during it, widened to at least PROBE_WINDOW samples."""
    seconds, lo, hi = interval
    probe = worker["probe_s"]
    while hi - lo < PROBE_WINDOW and (lo > 0 or hi < len(probe)):
        lo, hi = max(0, lo - 1), min(len(probe), hi + 1)
    return seconds * PROBE_REFERENCE_S / statistics.fmean(probe[lo:hi])


def fits(timed, seconds):
    rounds = [r[0] for w in timed for r in w["rounds"]]
    return sum(rounds) * (1 + 1 / len(rounds)) <= seconds


def per_layer(children, workload, seed):
    ops = str(TRACE_OPS[workload])
    plain = children.run("--ops", ops)
    trace_file = OUT / f"trace-{workload}-seed{seed}.jsonl"
    traced = children.run("--ops", ops, "--trace-out", str(trace_file))
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = run_time(traced) / run_time(plain) - 1
    metrics["fail_ratio"] = failed / attempted
    samples = {"ops": int(ops), "trace_file": str(trace_file.relative_to(ROOT))}
    return metrics, attempted, failed, samples


def run_time(worker):
    return sum(r[0] for r in worker["rounds"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(TRACE_OPS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: corrupt one expected answer")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "aperiodic_kit" / "__init__.py").is_file():
        raise SystemExit(f"no aperiodic_kit package under {ROOT / 'src'}")
    e2e, layers = declared_metrics()

    children = Children(args.workload, args.seed)
    if args.trace:
        metrics, attempted, failed, samples = per_layer(children, args.workload, args.seed)
        declared = layers
    else:
        metrics, attempted, failed, samples = end_to_end(
            children, args.workload, args.seconds, args.corrupt)
        declared = e2e
    missing = {m["name"] for m in declared} - set(metrics)
    if missing:
        raise SystemExit(f"metrics not measured: {sorted(missing)}")

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "samples": samples, "nproc": os.cpu_count(),
        "platform": platform.platform(), "python": platform.python_version(),
        "git_sha": git_sha(),
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))


if __name__ == "__main__":
    main()
