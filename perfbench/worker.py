"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this script with ``APERIODIC_KIT_JOBS=1`` and
``PYTHONHASHSEED=0`` pinned, so the package's module-level caches start
cold, as they do for every command-line invocation.  The script prints one
JSON line: the set-up, round and op intervals (seconds and the speed-probe
samples they span), the probe samples, the number of operations attempted
and failed, peak memory, and with ``--trace-out`` the per-layer metrics of
a traced run.

Every workload yields a closed loop of operations with one caller.  The
outputs are checked after the timed phase; an operation that raises or
returns a wrong answer counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import random
import resource
import signal
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED_VERIFY = BENCH / "expected" / "verify_2x2.json"

# orbit: seeded rational points with a large prime denominator, coded on a
# 6x6 patch
ORBIT_DENOMINATOR = 1_000_003
ORBIT_PATCH = (6, 6)
ORBIT_ROUND = 20
# tiles: each shape at the surrounding radius that settles its language
TILE_QUERIES = (((1, 3), 4), ((2, 3), 3), ((3, 3), 3))
PERIODIC_MAX_INDEX = 12
# speed probe: a snippet of about 7 ms every 0.2 s
PROBE_PERIOD_S = 0.2
PROBE_FINAL_SAMPLES = 10


def strip_seconds(obj):
    """The report JSON without its timing fields."""
    if isinstance(obj, dict):
        return {k: strip_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [strip_seconds(v) for v in obj]
    return obj


def stratified_order(strata, rng):
    """All items of all strata, shuffled so every prefix keeps their shares.

    Item i of a stratum of n items gets the key (i + u) / n with u uniform
    in [0, 1); sorting by key interleaves the strata in proportion.
    """
    keyed = []
    for stratum in strata:
        items = list(stratum)
        rng.shuffle(items)
        n = len(items)
        keyed.extend(((i + rng.random()) / n, item) for i, item in enumerate(items))
    keyed.sort(key=lambda pair: pair[0])
    return [item for _, item in keyed]


# Each setup makes the program calls a workload needs before its first
# operation and returns (rounds, op, check): an iterator of rounds, each a
# list of inputs, the operation applied to one input, and the check of its
# output.  A timed run ends only between rounds, so a round is the unit of
# work whose mix must not depend on where the clock stops.


def setup_verify(seed, corrupt):
    """The report of ``verify-all --max-shape 2,2``; the seed selects nothing."""
    from aperiodic_kit.pipeline import run_all

    expected = json.loads(EXPECTED_VERIFY.read_text())
    if corrupt:
        expected["languages"][0]["substitution"] += 1

    def op(_):
        return run_all(max_shape=(2, 2))

    def check(_, report):
        report_json = json.loads(json.dumps(report.to_json()))
        return report.ok() and strip_seconds(report_json) == expected

    return itertools.repeat([None]), op, check


def setup_orbit(seed, corrupt):
    """6x6 coding patches of seeded rational points under the rotation."""
    from aperiodic_kit import catalog
    from aperiodic_kit.morphisms import language
    from aperiodic_kit.pet import config_patch
    from aperiodic_kit.phifield import PhiNumber
    from aperiodic_kit.pipeline import build_reference_partition

    partition, action = build_reference_partition()
    squares = {w.columns for w in language(catalog.square_substitution(), (2, 2))}
    if corrupt:
        raise SystemExit("orbit has no single expected answer to corrupt")
    rng = random.Random(seed)

    def point():
        return tuple(
            PhiNumber(Fraction(rng.randrange(1, ORBIT_DENOMINATOR), ORBIT_DENOMINATOR))
            for _ in range(2)
        )

    def points():
        while True:
            yield [point() for _ in range(ORBIT_ROUND)]

    def op(x):
        return config_patch(partition, action, x, ORBIT_PATCH)

    def check(_, patch):
        cols = patch.columns
        if patch.shape != ORBIT_PATCH:
            return False
        return all(
            ((cols[i][j], cols[i][j + 1]), (cols[i + 1][j], cols[i + 1][j + 1])) in squares
            for i in range(ORBIT_PATCH[0] - 1)
            for j in range(ORBIT_PATCH[1] - 1)
        )

    return points(), op, check


def setup_tiles(seed, corrupt):
    """Seeded surrounding and periodicity queries on the 19 Wang tiles.

    The population is every edge-valid rectangle of each queried shape, in
    two strata by its expected verdict (membership in the substitution
    language), plus every sublattice basis of index <= 12.  One round is the
    whole population in a seeded order in which every prefix samples the
    strata in proportion.  A round is whole because a few witness searches
    take most of its time: a partial round would weigh them by chance.
    """
    from aperiodic_kit import catalog
    from aperiodic_kit.morphisms import language
    from aperiodic_kit.wang import (
        TilingInstance,
        admits_surrounding,
        exists_periodic_tiling,
        solve_all,
        sublattice_bases,
    )

    phi = catalog.square_substitution()
    tiles = catalog.wang_tiles()
    strata = []
    for shape, radius in TILE_QUERIES:
        admitted = language(phi, shape)
        candidates = solve_all(TilingInstance(tiles, shape))
        strata.append([("surround", radius, w, True) for w in candidates if w in admitted])
        strata.append([("surround", radius, w, False) for w in candidates if w not in admitted])
    strata.append([("periodic", basis, None, False) for basis in sublattice_bases(PERIODIC_MAX_INDEX)])
    order = stratified_order(strata, random.Random(seed))
    if corrupt:
        kind, arg, word, verdict = order[0]
        order[0] = (kind, arg, word, not verdict)

    def op(query):
        kind, arg, word, _ = query
        if kind == "surround":
            return admits_surrounding(tiles, word, arg)
        return exists_periodic_tiling(tiles, arg)

    def check(query, verdict):
        return verdict is query[3]

    return itertools.repeat(order), op, check


WORKLOADS = {"verify": setup_verify, "orbit": setup_orbit, "tiles": setup_tiles}


def probe_snippet():
    """Fixed pure-Python work without package code, in the styles of the
    package: small and large Fractions, tuple keys, dict and list churn."""
    cells, stack = {}, []
    for i in range(1, 500):
        x = Fraction(i, 7) * Fraction(3, i + 1) + Fraction(1, 3)
        key = (i % 13, i % 17)
        cells[key] = cells.get(key, 0) + (x < 1)
        stack.append(key)
        if len(stack) > 20:
            stack.pop()
    x = Fraction(1000003, 999983)
    for i in range(40):
        x = x * Fraction(1000033 + i, 1000037) + Fraction(i, 1000039)
        x = Fraction(x.numerator % 10**30, x.denominator % 10**30 + 1)
    return cells


class SpeedProbe:
    """Samples the machine's speed while a worker runs.

    The host is shared: its speed drifts by tens of percent within minutes
    and differs between runs.  A timer signal runs ``probe_snippet`` every
    PROBE_PERIOD_S seconds, between bytecodes of whatever is running, so
    the samples cover the same time as the measurements.  ``clock``
    excludes the time spent in samples, and ``count`` marks which samples
    fall inside a measured interval; run.py scales each interval by the
    mean sample time around it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, *_):
        # A collection that fires here would scan the program's heap and be
        # charged to the probe; collections belong to the program's time.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            probe_snippet()
            elapsed = perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.samples.append(elapsed)
        self.spent += elapsed

    def clock(self) -> float:
        return perf_counter() - self.spent

    def count(self) -> int:
        return len(self.samples)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(PROBE_FINAL_SAMPLES):
            self._sample()


def check_package_location():
    import aperiodic_kit

    src = (ROOT / "src").resolve()
    if src not in Path(aperiodic_kit.__file__).resolve().parents:
        raise SystemExit(f"aperiodic_kit imported from {aperiodic_kit.__file__}, not {src}")


def run_ops(rounds, op, probe, seconds=None, max_rounds=None, count=None):
    """Closed loop with one caller, timing each op and each round.

    With ``count``, stops after that many ops.  Otherwise stops after
    ``max_rounds`` rounds, or before the first round that would no longer
    fit into ``seconds`` at the mean round time so far; at least one round
    runs.  Returns the op records (item, output, raised, interval) and the
    round intervals; an interval is (seconds, first probe sample, end).
    """
    clock, mark = probe.clock, probe.count
    records, round_s = [], []
    for items in rounds:
        spent = sum(r[0] for r in round_s)
        if count is None and round_s and (
            len(round_s) == max_rounds or spent + spent / len(round_s) > seconds
        ):
            break
        started, first = clock(), mark()
        for item in items:
            if count is not None and len(records) >= count:
                break
            t0, m0 = clock(), mark()
            try:
                out, raised = op(item), False
            except Exception:
                traceback.print_exc()
                out, raised = None, True
            records.append((item, out, raised, (clock() - t0, m0, mark())))
        round_s.append((clock() - started, first, mark()))
        if count is not None and len(records) >= count:
            break
    return records, round_s


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float, help="measure for this long")
    mode.add_argument("--ops", type=int, help="run exactly this many ops")
    mode.add_argument("--setup-only", action="store_true")
    parser.add_argument("--max-rounds", type=int, help="with --seconds: at most this many rounds")
    parser.add_argument("--trace-out", help="trace the run; write spans here")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: corrupt one expected answer")
    args = parser.parse_args(argv)

    tracer = None
    # the probe samples only in end-to-end runs; the fixed-op runs of a
    # trace report raw times, so traced and untraced compare cleanly
    probe = SpeedProbe()
    if args.ops is None:
        probe.start()
    started, first = probe.clock(), probe.count()
    import aperiodic_kit.pipeline  # noqa: F401  (the package's import cost)

    check_package_location()
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer().install()
    with tracer.span("bench.setup") if tracer else contextlib.nullcontext():
        rounds, op, check = WORKLOADS[args.workload](args.seed, args.corrupt)
    result = {"setup": (probe.clock() - started, first, probe.count())}
    if not args.setup_only:
        if tracer:
            op = _traced_op(tracer, op, f"op.{args.workload}")
        records, rounds_done = run_ops(
            rounds, op, probe, args.seconds, args.max_rounds, args.ops)
        failed = sum(1 for item, out, raised, _ in records if raised or not check(item, out))
        result.update(
            rounds=rounds_done,
            ops=[r[3] for r in records],
            attempted=len(records),
            failed=failed,
        )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.ops is None:
        probe.stop()
    result["probe_s"] = probe.samples
    if tracer:
        tracer.uninstall()
        Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(args.trace_out)
        result["layers"] = tracer.layer_metrics()
    print(json.dumps(result))


def _traced_op(tracer, op, name):
    def traced(item):
        with tracer.span(name):
            return op(item)

    return traced


if __name__ == "__main__":
    main()
