"""End-to-end verification: both self-similarity loops and the language checks.

The Wang loop desubstitutes the 19-tile set twice and closes it with a
tile-set equivalence; the induction loop induces the coded rotation on two
windows and closes with a rescaling.  Both composites are compared with
the square substitution, the two loops are compared with each other, and
the three pattern languages are compared shape by shape.  A run looks the
substitution up once and builds its language once, and every stage reads
that table.  A run's Wang loop and language rows share one 19-tile set,
which keeps the sets found and, once ``wang.prove`` shows the substitution
a self-similarity of it, the table, whose words need no search.  The proof
rests on the table being the substitution's language; the coding rows do not.
The atoms of the partition take their letters from the points that
``catalog.atom_points`` stores, one inside each atom, so the coding side is
built without the substitution it is compared with.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from . import catalog
from .geometry import is_equal_up_to_relabeling, partition_from_segments, rescale
from .markers import find_markers, find_substitution, is_equivalent
from .morphisms import Morphism2d, compose, is_expansive, is_primitive, language, seeds
from .pet import Window, enumerate_language, induce_action, induced_partition
from .phifield import PHI
from .wang import WangTileSet, patterns_with_surrounding, prove
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


def _markers_with_escalation(tileset, direction):
    # the tile set keeps its domino sets, so each radius searches only the
    # dominoes the one below kept
    for r in range(1, MAX_MARKER_RADIUS + 1):
        report = find_markers(tileset, direction, r)
        if report.marker_subsets:
            return report
    raise StageFailure(
        "find_markers",
        f"no markers in direction {direction} up to radius {MAX_MARKER_RADIUS}",
    )


def run_wang_pipeline(
    tiles: WangTileSet, phi: Morphism2d, direction_first: int = 2
) -> WangLoopReport:
    """Desubstitute the tile set twice and close the loop by equivalence.

    The words ``tiles`` has proved, if any, spare domino searches of the
    first marker search and never change the report; the derived tile
    sets have other letters and prove nothing.  Each tile set keeps the
    admissible dominoes its marker search finds, and each desubstitution
    reads them there.  The second marker search may find several subsets;
    the loop closes with the first, in order, whose desubstitution is
    equivalent to ``tiles``, since which one closes depends on the order of
    the letters.  The composite is compared with ``phi``.
    """
    started = time.perf_counter()
    first_report = _markers_with_escalation(tiles, direction_first)
    first = find_substitution(first_report, first_report.marker_subsets[0])
    second_report = _markers_with_escalation(first.tileset, 3 - direction_first)
    for markers in second_report.marker_subsets:
        second = find_substitution(second_report, markers)
        certificate = is_equivalent(tiles, second.tileset)
        if certificate is not None:
            break
    else:
        raise StageFailure(
            "is_equivalent",
            "final tile set is not equivalent to the start for any of the marker subsets "
            f"{second_report.marker_subsets}",
        )
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
        composite_equals_substitution=composite == phi,
        seconds=time.perf_counter() - started,
    )


def build_reference_partition():
    """The 19-atom partition, labeled by the stored atom points, and its action.

    Each point of ``catalog.atom_points`` is located in the arrangement of
    the catalog segments and gives its letter to the atom holding it.  A
    point on a boundary or in no atom, two points in one atom, or an atom
    with no point fails the stage ``atom_labels``.
    """
    raw = partition_from_segments(catalog.partition_segments(), (1, 1))
    letters = {}
    for letter, point in catalog.atom_points().items():
        try:
            atom = raw.locate(point)
        except ValueError as exc:
            raise StageFailure("atom_labels", f"letter {letter}: {exc}") from None
        if atom in letters:
            raise StageFailure("atom_labels", f"letters {letters[atom]} and {letter} share an atom")
        letters[atom] = letter
    if len(letters) < len(raw.atoms):
        empty = len(raw.atoms) - len(letters)
        raise StageFailure("atom_labels", f"{empty} of {len(raw.atoms)} atoms hold no point")
    return raw.relabel(letters), catalog.rotation_action()


def _fmt_vec(v) -> dict[str, str]:
    return {"x": str(v[0]), "y": str(v[1])}


def run_pet_pipeline(reference, phi: Morphism2d, axis_first: int = 2) -> InductionLoopReport:
    """Induce the coded rotation twice, rescale, and close by relabeling.

    ``reference`` is the (partition, action) pair of
    ``build_reference_partition``; the composite is compared with ``phi``.
    """
    started = time.perf_counter()
    partition, action = reference
    bound = PHI**-1
    first_window = Window(axis_first, bound)
    second_window = Window(3 - axis_first, bound)
    try:
        middle, first_morphism = induced_partition(partition, action, first_window)
        middle_action = induce_action(action, first_window)
        final, second_morphism = induced_partition(middle, middle_action, second_window)
        final_action = induce_action(middle_action, second_window)
    except ValueError as exc:
        # a first return that is no rotation is a failed verification, not a usage error
        raise StageFailure("induce_action", str(exc)) from None

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
        composite_equals_substitution=composite == phi,
        seconds=time.perf_counter() - started,
    )


def check_uniqueness_hypotheses(phi: Morphism2d, table) -> UniquenessReport:
    """Expansiveness, primitivity, and the seed-graph containment in ``table``.

    The containment of the seed graph's cycle vertices in the language is
    recorded faithfully: it fails, because the factor graph has 2-cycles
    through words that are not locally admissible.  The graph is never
    built: its cycles are searched only on the limit set of the rule's
    action on 2x2 words, 367 of the 10,825 words whose image is defined.
    """
    started = time.perf_counter()
    expansive = is_expansive(phi)
    primitive = is_primitive(phi)
    seed_words = seeds(phi)
    squares = project(table, (2, 2))
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


def cross_check_languages(
    tiles: WangTileSet, table, coding_table, max_shape: tuple[int, int]
) -> list[LanguageRow]:
    """Compare the three pattern languages at every shape up to max_shape.

    ``tiles`` is the tile set of the tile-side rows, ``table`` the run's
    substitution language, of a shape covering ``max_shape``, and
    ``coding_table`` the coding language of ``max_shape``-patterns, which
    ``enumerate_language`` reads off the labeled reference partition.

    Both are projected to each shape, since each of their factors extends
    to one of the larger shape.  The tile side is checked shape by shape,
    because each shape settles at its own surrounding radius, which its row
    reports: the tile-set language may strictly contain the true language
    at a low radius, so on mismatch the radius is raised from TILE_RADIUS
    up to MAX_TILE_RADIUS.  The windows of the words ``tiles`` has proved,
    if any (``run_all`` proves the table), are admissible at every radius
    without a search, and cannot change a row.  Every row reads and fills
    the admissible sets that ``tiles`` keeps: a set already found, by the
    marker search say, is not searched again, a raised radius tests only
    the survivors of the one below, and a shape tests only the patterns
    whose smaller windows are admissible.
    """
    rows = []
    for s1 in range(1, max_shape[0] + 1):
        for s2 in range(1, max_shape[1] + 1):
            shape = (s1, s2)
            from_substitution = project(table, shape)
            from_coding = project(coding_table, shape)
            r = TILE_RADIUS
            while True:
                from_tiles = patterns_with_surrounding(tiles, shape, r)
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
    # the tile set keeps its admissible sets and the proved table
    phi = catalog.square_substitution()
    table = language(phi, (max(max_shape[0], 2), max(max_shape[1], 2)))
    tiles = catalog.wang_tiles()
    if (fault := prove(tiles, phi, table)) is not None:
        raise StageFailure("self_similarity", fault)
    wang = run_wang_pipeline(tiles, phi)
    partition, action = build_reference_partition()
    coding_table = enumerate_language(partition, action, max_shape)
    induction = run_pet_pipeline((partition, action), phi)
    uniqueness = check_uniqueness_hypotheses(phi, table)
    rows = cross_check_languages(tiles, table, coding_table, max_shape)
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
