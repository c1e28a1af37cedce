"""Layer tracing for the benchmark's traced runs.

The tracer wraps public names of ``aperiodic_kit`` from outside the
package: each wrapper is bound at every module attribute that holds the
original object, so a call is seen whichever module it was imported into
(``language`` is bound in both ``morphisms`` and ``pipeline``,
``convex_intersection`` in both ``geometry`` and ``pet``).

Coarse calls become spans (name, start, end, parent) kept in memory and
written as JSON lines at the end.  High-frequency calls (``PhiNumber``
operations, ``convex_intersection``, ``bbox_overlap``, ``locate``,
``admits_surrounding`` and a few counters) are aggregated as counts, total
time and hits, because one span per call would cost more than the call.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "aperiodic_kit"
LAYER_MODULES = (
    "catalog", "jobs", "words", "phifield", "morphisms", "wang", "markers",
    "geometry", "pet", "pipeline",
)

# (module, attribute) -> span name.  The four stage names of the report
# are the children of ``pipeline.run_all``.
SPANS = {
    ("pipeline", "run_all"): "pipeline.run_all",
    ("pipeline", "run_wang_pipeline"): "pipeline.wang_loop",
    ("pipeline", "run_pet_pipeline"): "pipeline.induction_loop",
    ("pipeline", "check_uniqueness_hypotheses"): "pipeline.uniqueness",
    ("pipeline", "cross_check_languages"): "pipeline.languages",
    ("pipeline", "build_reference_partition"): "pipeline.reference_partition",
    ("morphisms", "language"): "morphisms.language",
    ("morphisms", "seeds"): "morphisms.seeds",
    ("geometry", "partition_from_segments"): "geometry.partition_from_segments",
    ("geometry", "relabel_to_match"): "geometry.relabel_to_match",
    ("geometry", "rescale"): "geometry.rescale",
    ("pet", "enumerate_language"): "pet.enumerate_language",
    ("pet", "induced_partition"): "pet.induced_partition",
    ("pet", "induce_action"): "pet.induce_action",
    ("pet", "config_patch"): "pet.config_patch",
    ("wang", "patterns_with_surrounding"): "wang.patterns_with_surrounding",
    ("wang", "solve_all"): "wang.solve_all",
    ("wang", "exists_periodic_tiling"): "wang.exists_periodic_tiling",
    ("markers", "find_markers"): "markers.find_markers",
    ("markers", "find_substitution"): "markers.find_substitution",
    ("markers", "is_equivalent"): "markers.is_equivalent",
}
REPORT_STAGES = (
    "pipeline.wang_loop", "pipeline.induction_loop", "pipeline.uniqueness",
    "pipeline.languages",
)

# Timed aggregates: (module, attribute) -> (key, hit predicate or None).
TIMED = {
    ("geometry", "convex_intersection"): ("geometry.convex_intersection", lambda r: r is not None),
    ("wang", "admits_surrounding"): ("wang.admits_surrounding", lambda r: r is True),
}
# Counted aggregates (no clock reads): (module, attribute) -> (key, hit).
COUNTED = {
    ("geometry", "bbox_overlap"): ("geometry.bbox_overlap", lambda r: r is True),
}
PHI_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "inverse", "__truediv__", "__rtruediv__", "__pow__", "sign",
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__bool__", "floor",
    "__mod__",
)


class Tracer:
    """Spans and aggregates of one traced run; ``install`` starts recording."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent id, name, start, end]
        self.calls: Counter = Counter()
        self.hits: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.phi_self = 0.0
        self._open: list[int] = []
        self._phi_children: list[float] = []
        self._undo: list[tuple] = []
        self.origin = perf_counter()

    # -- spans ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        record = [len(self.spans), self._open[-1] if self._open else None, name, perf_counter(), None]
        self.spans.append(record)
        self._open.append(record[0])
        try:
            yield
        finally:
            record[4] = perf_counter()
            self._open.pop()

    def _span_wrapper(self, fn, name):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    # -- aggregates -------------------------------------------------------

    def _timed_wrapper(self, fn, key, hit):
        calls, hits, seconds = self.calls, self.hits, self.seconds

        def wrapper(*args, **kwargs):
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds[key] += perf_counter() - started
                calls[key] += 1
            if hit is not None and hit(result):
                hits[key] += 1
            return result

        return wrapper

    def _counted_wrapper(self, fn, key, hit):
        calls, hits = self.calls, self.hits

        def wrapper(*args, **kwargs):
            calls[key] += 1
            result = fn(*args, **kwargs)
            if hit is not None and hit(result):
                hits[key] += 1
            return result

        return wrapper

    def _phi_wrapper(self, fn, is_sign):
        # Self time of Q(phi) work: a nested operation (``<`` calls ``-``
        # and ``sign``) is charged to itself, not to its caller.
        calls, children = self.calls, self._phi_children
        tracer = self

        def wrapper(*args):
            children.append(0.0)
            started = perf_counter()
            try:
                return fn(*args)
            finally:
                elapsed = perf_counter() - started
                tracer.phi_self += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
                calls["phifield.ops"] += 1
                if is_sign:
                    calls["phifield.sign"] += 1

        return wrapper

    def _parallel_map_wrapper(self, fn):
        calls = self.calls

        def wrapper(task, items, *args, **kwargs):
            items = list(items)
            calls["jobs.parallel_map"] += 1
            calls["jobs.tasks"] += len(items)
            return fn(task, items, *args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def _rebind(self, original, wrapper):
        bound = 0
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    bound += 1
        if not bound:
            raise RuntimeError(f"{original!r} is not bound in any {PACKAGE} module")

    def _wrap_method(self, cls, attr, wrapper_factory):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, wrapper_factory(original))

    def install(self) -> "Tracer":
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYER_MODULES}
        for (mod, attr), name in SPANS.items():
            fn = getattr(mods[mod], attr)
            self._rebind(fn, self._span_wrapper(fn, name))
        for (mod, attr), (key, hit) in TIMED.items():
            fn = getattr(mods[mod], attr)
            self._rebind(fn, self._timed_wrapper(fn, key, hit))
        for (mod, attr), (key, hit) in COUNTED.items():
            fn = getattr(mods[mod], attr)
            self._rebind(fn, self._counted_wrapper(fn, key, hit))
        parallel_map = mods["jobs"].parallel_map
        self._rebind(parallel_map, self._parallel_map_wrapper(parallel_map))

        self._wrap_method(
            mods["geometry"].TorusPartition, "locate",
            lambda fn: self._timed_wrapper(fn, "geometry.locate", None),
        )
        self._wrap_method(
            mods["morphisms"].Morphism2d, "apply",
            lambda fn: self._counted_wrapper(fn, "morphisms.apply", None),
        )
        self._wrap_method(
            mods["words"].Word2d, "__init__",
            lambda fn: self._counted_wrapper(fn, "words.word2d", None),
        )
        for attr in PHI_METHODS:
            self._wrap_method(
                mods["phifield"].PhiNumber, attr,
                lambda fn, sign=(attr == "sign"): self._phi_wrapper(fn, sign),
            )
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def _span_times(self):
        """Duration and self time of every span, by id."""
        duration = [end - start for _, _, _, start, end in self.spans]
        children = [0.0] * len(self.spans)
        for sid, parent, *_ in self.spans:
            if parent is not None:
                children[parent] += duration[sid]
        return duration, [d - c for d, c in zip(duration, children)]

    def write_jsonl(self, path):
        duration, self_time = self._span_times()
        with open(path, "w") as out:
            for (sid, parent, name, start, _), d, s in zip(self.spans, duration, self_time):
                out.write(json.dumps({
                    "span": sid, "parent": parent, "name": name,
                    "start_s": start - self.origin, "duration_s": d, "self_s": s,
                }) + "\n")
            for key in sorted(set(self.calls) | set(self.seconds)):
                out.write(json.dumps({
                    "counter": key, "calls": self.calls[key],
                    "seconds": self.seconds.get(key, 0.0), "hits": self.hits[key],
                }) + "\n")
            out.write(json.dumps({"counter": "phifield.self", "seconds": self.phi_self}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics by the names the benchmark declares."""
        duration, self_time = self._span_times()
        names = [name for _, _, name, _, _ in self.spans]
        parents = [parent for _, parent, _, _, _ in self.spans]

        def outermost(sid):
            parent = parents[sid]
            while parent is not None:
                if names[parent] == names[sid]:
                    return False
                parent = parents[parent]
            return True

        total = defaultdict(float)
        count = Counter()
        for sid, name in enumerate(names):
            count[name] += 1
            if outermost(sid):
                total[name] += duration[sid]

        def row_self(name):
            # self time of one method's calls made directly by the language
            # cross-check (not those under its reference-partition build)
            return sum(
                self_time[sid] for sid, n in enumerate(names)
                if n == name and parents[sid] is not None
                and names[parents[sid]] == "pipeline.languages"
            )

        def ratio(hits, calls):
            return hits / calls if calls else 0.0

        calls, hits, seconds = self.calls, self.hits, self.seconds
        phi_ops = calls["phifield.ops"]
        return {
            "pipeline.wang_loop_s": total["pipeline.wang_loop"],
            "pipeline.induction_loop_s": total["pipeline.induction_loop"],
            "pipeline.uniqueness_s": total["pipeline.uniqueness"],
            "pipeline.languages_s": total["pipeline.languages"],
            "pipeline.reference_partition_calls": count["pipeline.reference_partition"],
            "pipeline.reference_partition_s": total["pipeline.reference_partition"],
            "languages.substitution_s": row_self("morphisms.language"),
            "languages.tiles_s": row_self("wang.patterns_with_surrounding"),
            "languages.coding_s": row_self("pet.enumerate_language"),
            "geometry.partition_from_segments_s": total["geometry.partition_from_segments"],
            "geometry.relabel_to_match_s": total["geometry.relabel_to_match"],
            "geometry.rescale_s": total["geometry.rescale"],
            "geometry.convex_intersection_calls": calls["geometry.convex_intersection"],
            "geometry.convex_intersection_s": seconds["geometry.convex_intersection"],
            "geometry.convex_intersection_hit_ratio": ratio(
                hits["geometry.convex_intersection"], calls["geometry.convex_intersection"]),
            "geometry.bbox_overlap_calls": calls["geometry.bbox_overlap"],
            "geometry.bbox_overlap_hit_ratio": ratio(
                hits["geometry.bbox_overlap"], calls["geometry.bbox_overlap"]),
            "geometry.locate_calls": calls["geometry.locate"],
            "geometry.locate_s": seconds["geometry.locate"],
            "pet.enumerate_language_s": total["pet.enumerate_language"],
            "pet.induced_partition_s": total["pet.induced_partition"],
            "pet.induce_action_s": total["pet.induce_action"],
            "pet.config_patch_s": total["pet.config_patch"],
            "phifield.ops": phi_ops,
            "phifield.sign_calls": calls["phifield.sign"],
            "phifield.self_s": self.phi_self,
            "phifield.ops_per_s": phi_ops / self.phi_self if phi_ops else 0.0,
            "morphisms.language_calls": count["morphisms.language"],
            "morphisms.language_s": total["morphisms.language"],
            "morphisms.seeds_s": total["morphisms.seeds"],
            "morphisms.apply_calls": calls["morphisms.apply"],
            "words.word2d_created": calls["words.word2d"],
            "wang.admits_surrounding_calls": calls["wang.admits_surrounding"],
            "wang.admits_surrounding_s": seconds["wang.admits_surrounding"],
            "wang.admitted_ratio": ratio(
                hits["wang.admits_surrounding"], calls["wang.admits_surrounding"]),
            "wang.solve_all_s": total["wang.solve_all"],
            "wang.exists_periodic_tiling_s": total["wang.exists_periodic_tiling"],
            "wang.patterns_with_surrounding_s": total["wang.patterns_with_surrounding"],
            "markers.find_markers_s": total["markers.find_markers"],
            "markers.find_substitution_s": total["markers.find_substitution"],
            "markers.is_equivalent_s": total["markers.is_equivalent"],
            "jobs.parallel_map_calls": calls["jobs.parallel_map"],
            "jobs.tasks": calls["jobs.tasks"],
        }
