"""End-to-end verification: both self-similarity loops and the language checks.

The Wang loop desubstitutes the 19-tile set twice and closes it with a
tile-set equivalence; the induction loop induces the coded rotation on two
windows and closes with a rescaling.  Both composites are compared with
the square substitution, the two loops are compared with each other, and
the three pattern languages are compared shape by shape.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from . import catalog
from .geometry import (
    is_equal_up_to_relabeling,
    partition_from_segments,
    relabel_to_match,
    rescale,
)
from .markers import find_markers, find_substitution, is_equivalent
from .morphisms import Morphism2d, compose, is_expansive, is_primitive, language, seeds
from .pet import (
    Window,
    coded_cells,
    coded_dominoes,
    coded_word,
    induce_action,
    induced_partition,
    shape_steps,
)
from .phifield import PHI
from .wang import patterns_with_surrounding
from .words import project


# Marker searches escalate from radius 1 (the 19 tiles show markers in
# direction 2 only from radius 2).  Tile-side language rows escalate from
# radius 2, which settles every shape up to (2,2), to the radius 4 that the
# vertical triple column needs.
MAX_MARKER_RADIUS = 3
TILE_RADIUS, MAX_TILE_RADIUS = 2, 4


class StageFailure(RuntimeError):
    """A pipeline stage did not produce the expected kind of result."""

    def __init__(self, stage: str, detail: str):
        super().__init__(f"{stage}: {detail}")
        self.stage = stage


@dataclass
class WangLoopReport:
    direction_first: int
    first_markers: list[list[int]]
    first_radius: int
    middle_size: int
    second_markers: list[list[int]]
    second_radius: int
    final_size: int
    vert: dict[str, str]
    horiz: dict[str, str]
    bijection: dict[int, int]
    morphisms: tuple[Morphism2d, Morphism2d, Morphism2d]
    composite: Morphism2d
    composite_equals_substitution: bool
    seconds: float

    def to_json(self) -> dict:
        return {
            "direction_first": self.direction_first,
            "first_markers": self.first_markers,
            "first_radius": self.first_radius,
            "middle_size": self.middle_size,
            "second_markers": self.second_markers,
            "second_radius": self.second_radius,
            "final_size": self.final_size,
            "vert": self.vert,
            "horiz": self.horiz,
            "bijection": {str(k): v for k, v in sorted(self.bijection.items())},
            "morphisms": [m.to_json() for m in self.morphisms],
            "composite_equals_substitution": self.composite_equals_substitution,
            "seconds": round(self.seconds, 3),
        }


@dataclass
class InductionLoopReport:
    axis_first: int
    atom_counts: tuple[int, int, int]
    lattices: list[tuple[str, str]]
    step_vectors: list[dict[str, str]]
    relabel_permutation: dict[int, int]
    morphisms: tuple[Morphism2d, Morphism2d, Morphism2d]
    composite: Morphism2d
    composite_equals_substitution: bool
    seconds: float

    def to_json(self) -> dict:
        return {
            "axis_first": self.axis_first,
            "atom_counts": list(self.atom_counts),
            "lattices": [list(l) for l in self.lattices],
            "step_vectors": self.step_vectors,
            "relabel_permutation": {
                str(k): v for k, v in sorted(self.relabel_permutation.items())
            },
            "morphisms": [m.to_json() for m in self.morphisms],
            "composite_equals_substitution": self.composite_equals_substitution,
            "seconds": round(self.seconds, 3),
        }


@dataclass
class UniquenessReport:
    expansive: bool
    primitive: bool
    seeds_in_language: bool
    seed_count: int
    square_language_count: int
    escaped_seed: Optional[list[list[int]]]
    seconds: float

    def to_json(self) -> dict:
        return {**vars(self), "seconds": round(self.seconds, 3)}


@dataclass
class LanguageRow:
    shape: tuple[int, int]
    substitution_count: int
    wang_count: int
    coding_count: int
    radius_used: int
    all_equal: bool

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape),
            "substitution": self.substitution_count,
            "wang": self.wang_count,
            "coding": self.coding_count,
            "radius": self.radius_used,
            "all_equal": self.all_equal,
        }


@dataclass
class VerificationReport:
    wang: WangLoopReport
    induction: InductionLoopReport
    uniqueness: UniquenessReport
    languages: list[LanguageRow]
    loops_agree: bool
    seconds: float = 0.0

    def ok(self) -> bool:
        """Success of every reference-anchored check.

        The seed-graph containment of the uniqueness report is informational
        (it fails mathematically; see the uniqueness report) and does not
        enter this verdict.
        """
        return (
            self.wang.composite_equals_substitution
            and self.induction.composite_equals_substitution
            and self.uniqueness.expansive
            and self.uniqueness.primitive
            and self.loops_agree
            and all(row.all_equal for row in self.languages)
        )

    def to_json(self) -> dict:
        return {
            "ok": self.ok(),
            "wang": self.wang.to_json(),
            "induction": self.induction.to_json(),
            "uniqueness": self.uniqueness.to_json(),
            "languages": [row.to_json() for row in self.languages],
            "loops_agree": self.loops_agree,
            "seconds": round(self.seconds, 3),
        }

    def to_text(self) -> str:
        w, p, u = self.wang, self.induction, self.uniqueness
        lines = [
            "tile-set loop",
            f"  markers (direction {w.direction_first}, radius {w.first_radius}): {w.first_markers}",
            f"  tile counts: 19 -> {w.middle_size} -> {w.final_size}",
            f"  second markers (radius {w.second_radius}): {w.second_markers}",
            f"  vertical color map : {w.vert}",
            f"  horizontal color map: {w.horiz}",
            f"  composite equals substitution: {w.composite_equals_substitution}",
            f"  [{w.seconds:.1f}s]",
            "induction loop",
            f"  atom counts: {p.atom_counts[0]} -> {p.atom_counts[1]} -> {p.atom_counts[2]}",
            f"  lattices: {p.lattices}",
            f"  step vectors: {p.step_vectors}",
            f"  composite equals substitution: {p.composite_equals_substitution}",
            f"  [{p.seconds:.1f}s]",
            "loop comparison",
            f"  same three morphisms from both loops: {self.loops_agree}",
            "uniqueness hypotheses",
            f"  expansive: {u.expansive}   primitive: {u.primitive}",
            f"  seed graph inside language: {u.seeds_in_language} "
            f"({u.seed_count} seeds vs {u.square_language_count} language squares"
            + (f"; escaped example {u.escaped_seed}" if u.escaped_seed else "")
            + ")",
            "languages",
        ]
        for row in self.languages:
            lines.append(
                f"  shape {row.shape}: substitution {row.substitution_count}, "
                f"tiles {row.wang_count} (radius {row.radius_used}), "
                f"coding {row.coding_count} -> equal: {row.all_equal}"
            )
        lines.append(f"overall: {'PASS' if self.ok() else 'FAIL'} [{self.seconds:.1f}s]")
        return "\n".join(lines)


def _markers_with_escalation(tileset, direction, certificates=()):
    for r in range(1, MAX_MARKER_RADIUS + 1):
        report = find_markers(tileset, direction, r, certificates)
        if report.marker_subsets:
            return report
    raise StageFailure(
        "find_markers",
        f"no markers in direction {direction} up to radius {MAX_MARKER_RADIUS}",
    )


def run_wang_pipeline(direction_first: int = 2, certificates=()) -> WangLoopReport:
    """Desubstitute the tile set twice and close the loop by equivalence.

    ``certificates`` (factors of the substitution language, say) spare
    domino searches of the first marker search, the one on the 19 tiles,
    and never change the report; the derived tile sets have other letters.
    """
    started = time.perf_counter()
    tiles = catalog.wang_tiles()
    first_report = _markers_with_escalation(tiles, direction_first, certificates)
    first = find_substitution(first_report, first_report.marker_subsets[0])
    second_report = _markers_with_escalation(first.tileset, 3 - direction_first)
    second = find_substitution(second_report, second_report.marker_subsets[0])
    certificate = is_equivalent(tiles, second.tileset)
    if certificate is None:
        raise StageFailure("is_equivalent", "final tile set is not equivalent to the start")
    vert, horiz, bijection = certificate
    closing = Morphism2d.from_permutation(bijection)
    composite = compose(first.morphism, compose(second.morphism, closing))
    return WangLoopReport(
        direction_first=direction_first,
        first_markers=first_report.marker_subsets,
        first_radius=first_report.radius,
        middle_size=len(first.tileset),
        second_markers=second_report.marker_subsets,
        second_radius=second_report.radius,
        final_size=len(second.tileset),
        vert=vert,
        horiz=horiz,
        bijection=bijection,
        morphisms=(first.morphism, second.morphism, closing),
        composite=composite,
        composite_equals_substitution=composite == catalog.square_substitution(),
        seconds=time.perf_counter() - started,
    )


def reference_coding(max_shape: tuple[int, int]):
    """The labeled 19-atom partition, its action and its coding language of
    max_shape-patterns, from one refinement of the unlabeled arrangement.

    The refinement runs over the steps of max_shape joined with the domino
    steps (1,0) and (0,1): the labeling reads both coded domino sets off
    it, and the language is its codes through the letter map found,
    restricted to max_shape.
    """
    phi = catalog.square_substitution()
    raw = partition_from_segments(catalog.partition_segments(), (1, 1))
    action = catalog.rotation_action()
    cells = coded_cells(raw, action, dict.fromkeys([*shape_steps(max_shape), (1, 0), (0, 1)]))
    horizontal = {(w[0, 0], w[1, 0]) for w in language(phi, (2, 1))}
    vertical = {(w[0, 0], w[0, 1]) for w in language(phi, (1, 2))}
    letters = relabel_to_match(raw, horizontal, vertical, coded_dominoes(cells))
    table = {coded_word({n: letters[a] for n, a in c.items()}, max_shape) for c in cells}
    return raw.relabel(letters), action, table


def build_reference_partition():
    """The 19-atom partition and its action, labeled by one refinement over
    the domino steps."""
    partition, action, _ = reference_coding((1, 1))
    return partition, action


def _fmt_vec(v) -> dict[str, str]:
    return {"x": str(v[0]), "y": str(v[1])}


def run_pet_pipeline(reference, axis_first: int = 2) -> InductionLoopReport:
    """Induce the coded rotation twice, rescale, and close by relabeling.

    ``reference`` is the (partition, action) pair of
    ``build_reference_partition``.
    """
    started = time.perf_counter()
    partition, action = reference
    if len(partition.atoms) != 19:
        raise StageFailure("partition_from_segments", f"{len(partition.atoms)} atoms")

    bound = PHI**-1
    first_window = Window(axis_first, bound)
    middle, first_morphism = induced_partition(partition, action, first_window)
    middle_action = induce_action(action, first_window)

    second_window = Window(3 - axis_first, bound)
    final, second_morphism = induced_partition(middle, middle_action, second_window)
    final_action = induce_action(middle_action, second_window)

    scaled = rescale(final, -PHI, (1, 1))
    permutation = is_equal_up_to_relabeling(partition, scaled)
    if permutation is None:
        raise StageFailure("rescale", "scaled partition does not match the start")
    closing = Morphism2d.from_permutation(permutation)
    composite = compose(first_morphism, compose(second_morphism, closing))
    return InductionLoopReport(
        axis_first=axis_first,
        atom_counts=(len(partition.atoms), len(middle.atoms), len(final.atoms)),
        lattices=[
            (str(action.lattice[0]), str(action.lattice[1])),
            (str(middle_action.lattice[0]), str(middle_action.lattice[1])),
            (str(final_action.lattice[0]), str(final_action.lattice[1])),
        ],
        step_vectors=[
            {"axis1": _fmt_vec(a.alpha1), "axis2": _fmt_vec(a.alpha2)}
            for a in (action, middle_action, final_action)
        ],
        relabel_permutation=permutation,
        morphisms=(first_morphism, second_morphism, closing),
        composite=composite,
        composite_equals_substitution=composite == catalog.square_substitution(),
        seconds=time.perf_counter() - started,
    )


def check_uniqueness_hypotheses() -> UniquenessReport:
    """Expansiveness, primitivity, and the seed-graph containment.

    The containment of the seed graph's cycle vertices in the language is
    recorded faithfully: it fails, because the factor graph has 2-cycles
    through words that are not locally admissible.  The graph is never
    built: its cycles are searched only on the limit set of the rule's
    action on 2x2 words, 367 of the 10,825 words whose image is defined.
    """
    started = time.perf_counter()
    phi = catalog.square_substitution()
    expansive = is_expansive(phi)
    primitive = is_primitive(phi)
    seed_words = seeds(phi)
    squares = language(phi, (2, 2))
    escaped = sorted(
        (w for w in seed_words if w not in squares), key=lambda w: w.columns
    )
    return UniquenessReport(
        expansive=expansive,
        primitive=primitive,
        seeds_in_language=not escaped,
        seed_count=len(seed_words),
        square_language_count=len(squares),
        escaped_seed=escaped[0].to_json() if escaped else None,
        seconds=time.perf_counter() - started,
    )


def _certificate_shape(max_shape: tuple[int, int], r: int) -> tuple[int, int]:
    """Shape of the language factors that hold every pattern of a shape up
    to max_shape at margin r."""
    return max_shape[0] + 2 * r, max_shape[1] + 2 * r


def cross_check_languages(
    coding_table, max_shape: tuple[int, int] = (2, 2), certificates=None
) -> list[LanguageRow]:
    """Compare the three pattern languages at every shape up to max_shape.

    ``coding_table`` is the coding language of ``max_shape``-patterns (the
    third value of ``reference_coding``).

    The substitution language is computed once at ``max_shape``, as a
    closure of factors under the rule; every smaller shape of it and of the
    coding table is their projection, since each of its factors extends
    to one of ``max_shape``.  The tile side is checked
    shape by shape, because each shape settles at its own surrounding
    radius, which its row reports: the tile-set language may strictly
    contain the true language at a low radius, so on mismatch the radius is
    raised from TILE_RADIUS up to MAX_TILE_RADIUS.  At radius r the
    substitution-language factors of shape ``max_shape`` plus r on every
    side serve as certificates (``patterns_with_surrounding``): checked
    against the tiles, they prove most patterns admissible without a
    search, and they cannot change a row.  ``certificates`` are those of
    TILE_RADIUS when the caller holds them already; the others are built on
    first use.  Admissible sets shrink as the radius grows, so a raised
    radius tests only the survivors of the one below.
    """
    phi = catalog.square_substitution()
    tiles = catalog.wang_tiles()
    substitution_table = language(phi, max_shape)
    by_radius = {} if certificates is None else {TILE_RADIUS: certificates}

    def certificates_at(r):
        if r not in by_radius:
            by_radius[r] = language(phi, _certificate_shape(max_shape, r))
        return by_radius[r]

    rows = []
    for s1 in range(1, max_shape[0] + 1):
        for s2 in range(1, max_shape[1] + 1):
            shape = (s1, s2)
            from_substitution = project(substitution_table, shape)
            from_coding = project(coding_table, shape)
            r = TILE_RADIUS
            from_tiles = None
            while True:
                from_tiles = patterns_with_surrounding(
                    tiles, shape, r,
                    candidates=from_tiles, certificates=certificates_at(r),
                )
                if from_tiles == from_substitution or r >= MAX_TILE_RADIUS:
                    break
                r += 1
            rows.append(
                LanguageRow(
                    shape=shape,
                    substitution_count=len(from_substitution),
                    wang_count=len(from_tiles),
                    coding_count=len(from_coding),
                    radius_used=r,
                    all_equal=from_substitution == from_tiles == from_coding,
                )
            )
    return rows


def run_all(max_shape: tuple[int, int] = (2, 2)) -> VerificationReport:
    started = time.perf_counter()
    certificates = language(
        catalog.square_substitution(), _certificate_shape(max_shape, TILE_RADIUS)
    )
    wang = run_wang_pipeline(certificates=certificates)
    partition, action, coding_table = reference_coding(max_shape)
    induction = run_pet_pipeline((partition, action))
    uniqueness = check_uniqueness_hypotheses()
    rows = cross_check_languages(coding_table, max_shape, certificates=certificates)
    loops_agree = all(a == b for a, b in zip(wang.morphisms, induction.morphisms))
    report = VerificationReport(
        wang=wang,
        induction=induction,
        uniqueness=uniqueness,
        languages=rows,
        loops_agree=loops_agree,
    )
    report.seconds = time.perf_counter() - started
    return report
