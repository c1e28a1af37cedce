import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from _oracles import (
    brute_force_cuts,
    brute_force_labels,
    brute_force_on_boundary,
    clip,
    coded_dominoes,
    covolume,
    cross_product_locate,
    total_area,
)
from aperiodic_kit.catalog import atom_points, partition_segments, rotation_action
from aperiodic_kit.geometry import (
    AmbiguousLabeling,
    BoundaryHit,
    DegenerateArrangement,
    NoConsistentLabeling,
    Polygon,
    TorusPartition,
    ZeroFactor,
    convex_intersection,
    is_equal_up_to_relabeling,
    partition_from_segments,
    pt,
    rectangle,
    relabel_to_match,
    rescale,
)
from aperiodic_kit.morphisms import language
from aperiodic_kit.pet import coded_cells
from aperiodic_kit.phifield import PHI, PhiNumber
from aperiodic_kit.pipeline import build_reference_partition
from aperiodic_kit.words import project

# two diagonals on the unit torus: two atoms, each glued across a seam
DIAGONALS = [(pt(0, 0), pt(1, 1)), (pt(0, 1), pt(1, 0))]


class TestPolygon:
    def test_normalization(self):
        # clockwise input with a repeated and a collinear vertex
        p = Polygon([pt(0, 1), pt(0, 0), pt(1, 0), pt(1, 0), pt(1, Fraction(1, 2)), pt(1, 1)])
        assert p == rectangle(0, 0, 1, 1)
        assert p.area() == PhiNumber(1)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Polygon([pt(0, 0), pt(1, 1), pt(2, 2)])

    def test_locate(self):
        sq = rectangle(0, 0, 1, 1)
        assert sq.locate(pt(Fraction(1, 3), Fraction(1, 4))) == "interior"
        assert sq.locate(pt(0, Fraction(1, 2))) == "boundary"
        assert sq.locate(pt(2, 0)) == "outside"


class TestClip:
    def test_axis_cut(self):
        sq = rectangle(0, 0, 1, 1)
        upper_bound = PHI**-1
        got = clip(sq, (PhiNumber(0), PhiNumber(1)), upper_bound)
        assert got == rectangle(0, 0, 1, upper_bound)

    def test_containing_halfplane(self):
        sq = rectangle(0, 0, 1, 1)
        assert clip(sq, (PhiNumber(1), PhiNumber(0)), PhiNumber(5)) == sq

    def test_boundary_tight(self):
        tri = Polygon([pt(0, 0), pt(1, 0), pt(0, 1)])
        assert clip(tri, (PhiNumber(1), PhiNumber(1)), PhiNumber(1)) == tri

    def test_empty_result(self):
        sq = rectangle(0, 0, 1, 1)
        assert clip(sq, (PhiNumber(1), PhiNumber(0)), PhiNumber(-1)) is None

    def test_area_additivity(self):
        sq = rectangle(0, 0, 1, 1)
        n = (PhiNumber(1), PhiNumber(2))
        c = PhiNumber(Fraction(3, 2))
        low = clip(sq, n, c)
        high = clip(sq, (-n[0], -n[1]), -c)
        assert low.area() + high.area() == sq.area()


class TestArrangement:
    def test_nineteen_atoms_area_one(self, partition_u):
        assert len(partition_u.atoms) == 19
        assert total_area(partition_u) == PhiNumber(1)
        assert set(partition_u.labels()) == set(range(19))

    def test_no_segments_single_atom(self):
        p = partition_from_segments([], (1, 1))
        assert len(p.atoms) == 1
        assert total_area(p) == PhiNumber(1)

    def test_two_diagonals(self):
        # the square's four triangles glue pairwise across the seams of the
        # fundamental domain (no segment covers them), leaving two torus
        # atoms of two cells each
        segs = [
            (pt(0, 0), pt(1, 1)),
            (pt(0, 1), pt(1, 0)),
        ]
        p = partition_from_segments(segs, (1, 1))
        assert len(p.atoms) == 2
        assert sorted(len(cells) for cells in p.atoms.values()) == [2, 2]
        assert all(
            sum((c.area() for c in cells), PhiNumber(0)) == PhiNumber(Fraction(1, 2))
            for cells in p.atoms.values()
        )

    def test_diagonals_with_covered_seams(self):
        # adding the seams as explicit segments forbids the gluing and
        # recovers the four planar triangles
        segs = [
            (pt(0, 0), pt(1, 1)),
            (pt(0, 1), pt(1, 0)),
            (pt(0, 0), pt(1, 0)),
            (pt(0, 0), pt(0, 1)),
        ]
        p = partition_from_segments(segs, (1, 1))
        assert len(p.atoms) == 4

    def test_interiors_pairwise_disjoint(self, partition_u):
        cells = [cell for _, cell in partition_u.cells()]
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                overlap = convex_intersection(cells[i], cells[j])
                assert overlap is None or overlap.area().sign() == 0

    def test_zero_length_segment_rejected(self):
        with pytest.raises(DegenerateArrangement):
            partition_from_segments([(pt(0, 0), pt(0, 0))], (1, 1))

    def test_cuts_cover_inputs(self, partition_u):
        # every cell edge whose midpoint is a boundary point lies on a
        # supporting line of some input segment translate
        from _oracles import _canonical_line

        input_lines = set()
        for p, q in partition_segments():
            for k1 in range(-2, 3):
                for k2 in range(-4, 3):
                    shift = (PhiNumber(k1), PhiNumber(k2))
                    input_lines.add(
                        _canonical_line(
                            (p[0] + shift[0], p[1] + shift[1]),
                            (q[0] + shift[0], q[1] + shift[1]),
                        )
                    )
        on_boundary = 0
        for _, cell in partition_u.cells():
            for p, q in cell.edges():
                try:
                    partition_u.locate(((p[0] + q[0]) / 2, (p[1] + q[1]) / 2))
                except BoundaryHit:
                    on_boundary += 1
                    assert _canonical_line(p, q) in input_lines
        assert on_boundary > 0


def _coded(partition):
    return coded_dominoes(coded_cells(partition, rotation_action(), [(1, 0), (0, 1)]))


class TestRelabel:
    def test_shuffle_invariance(self, partition_u, h_dominoes, v_dominoes):
        shuffle = {a: (a * 7 + 3) % 19 for a in range(19)}
        shuffled = partition_u.relabel(shuffle)
        letters = relabel_to_match(shuffled, h_dominoes, v_dominoes, _coded(shuffled))
        assert letters == {b: a for a, b in shuffle.items()}
        back = shuffled.relabel(letters)
        assert is_equal_up_to_relabeling(back, partition_u) == {a: a for a in range(19)}

    def test_search_reads_only_the_coded_pairs(self, partition_u, h_dominoes, v_dominoes):
        # coded pairs given under a known letter map: the search inverts it
        # without refining anything
        shuffle = {a: (a * 7 + 3) % 19 for a in range(19)}
        shuffled = partition_u.relabel(shuffle)
        coded = (
            {(shuffle[a], shuffle[b]) for a, b in h_dominoes},
            {(shuffle[a], shuffle[b]) for a, b in v_dominoes},
        )
        letters = relabel_to_match(shuffled, h_dominoes, v_dominoes, coded)
        assert letters == {b: a for a, b in shuffle.items()}
        assert shuffled.relabel(letters).atoms == partition_u.atoms

    def test_inconsistent_reference(self, partition_u, h_dominoes, v_dominoes):
        broken_h = {(a, b if b != 3 else 2) for a, b in h_dominoes} - {(1, 2)}
        coded = _coded(partition_u)
        with pytest.raises(NoConsistentLabeling):
            relabel_to_match(partition_u, broken_h, v_dominoes, coded)

    def test_domino_search_finds_the_letters_of_the_stored_points(self, phi):
        # the substitution meets the stored labels here, not in a run: the
        # one letter map sending the coded dominoes of the unlabeled
        # arrangement into the 2x1 and 1x2 windows of the 2x2 language is
        # the one the atom points give
        raw = partition_from_segments(partition_segments(), (1, 1))
        table = language(phi, (2, 2))
        horizontal = {(w[0, 0], w[1, 0]) for w in project(table, (2, 1))}
        vertical = {(w[0, 0], w[0, 1]) for w in project(table, (1, 2))}
        letters = relabel_to_match(raw, horizontal, vertical, _coded(raw))
        assert letters == {raw.locate(point): letter for letter, point in atom_points().items()}
        assert raw.relabel(letters).to_json() == build_reference_partition()[0].to_json()

    def test_unconstrained_reference_ambiguous(self, partition_u):
        everything = {(a, b) for a in range(19) for b in range(19)}
        coded = _coded(partition_u)
        with pytest.raises(AmbiguousLabeling):
            relabel_to_match(partition_u, everything, everything, coded)


class TestRescaleAndEquality:
    def test_identity(self, partition_u):
        same = rescale(partition_u, 1, (0, 0))
        mapping = is_equal_up_to_relabeling(same, partition_u)
        assert mapping == {a: a for a in range(19)}

    def test_point_reflection_preserves_area(self, partition_u):
        flipped = rescale(partition_u, -1, (0, 0))
        assert total_area(flipped) == PhiNumber(1)
        assert flipped.lattice == partition_u.lattice

    def test_zero_factor(self, partition_u):
        with pytest.raises(ZeroFactor):
            rescale(partition_u, 0)

    def test_self_equality(self, partition_u):
        assert is_equal_up_to_relabeling(partition_u, partition_u) == {
            a: a for a in range(19)
        }

    def test_atom_count_mismatch(self, partition_u):
        single = partition_from_segments([], (1, 1))
        assert is_equal_up_to_relabeling(partition_u, single) is None

    def test_area_conserved_by_rescale(self, partition_u):
        scaled = rescale(partition_u, -PHI, (1, 1))
        assert total_area(scaled) == covolume(scaled)
        assert scaled.lattice == (PHI, PHI)


def test_json_roundtrip(partition_u):
    data = partition_u.to_json()
    back = TorusPartition.from_json(data)
    assert back.lattice == partition_u.lattice
    assert is_equal_up_to_relabeling(back, partition_u) == {a: a for a in range(19)}


def _probe_points(partition, seed):
    """Seeded rational points, points on every cell edge (vertices
    included), seam points, the corner."""
    l1, l2 = partition.lattice
    rng = random.Random(seed)

    def frac():
        return PhiNumber(Fraction(rng.randrange(1, 997), 997))

    points = [(frac() * l1, frac() * l2) for _ in range(30)]
    for _, cell in partition.cells():
        for p, q in cell.edges():
            for t in (Fraction(0), Fraction(1, 3), Fraction(1, 2)):
                points.append((p[0] + (q[0] - p[0]) * t, p[1] + (q[1] - p[1]) * t))
    for _ in range(8):
        points.append((PhiNumber(0), frac() * l2))
        points.append((frac() * l1, PhiNumber(0)))
    points += [pt(0, 0), (l1, l2)]
    return points


@pytest.mark.parametrize("which", ["PU", "P1"])
def test_polygon_locate_agrees_with_cross_products(which, partition_u, induction_tower):
    # the cells of PU and P1 have axis and slanted edges; each is probed at
    # its vertices, its edge midpoints and seeded points of a box around it
    partition = partition_u if which == "PU" else induction_tower[0]
    rng = random.Random(len(which))
    seen = set()
    for _, cell in partition.cells():
        x0, y0, x1, y1 = cell.bbox()
        points = list(cell.vertices)
        points += [((p[0] + q[0]) / 2, (p[1] + q[1]) / 2) for p, q in cell.edges()]
        for _ in range(6):
            s, t = (Fraction(rng.randrange(-50, 151), 100) for _ in range(2))
            points.append((x0 + (x1 - x0) * s, y0 + (y1 - y0) * t))
        for x in points:
            where = cell.locate(x)
            assert where == cross_product_locate(cell, x), (cell, x)
            seen.add(where)
    assert seen == {"interior", "boundary", "outside"}


@pytest.mark.parametrize("which", ["PU", "P1", "diagonals"])
def test_locate_agrees_with_brute_force(which, partition_u, induction_tower):
    partition = {
        "PU": partition_u,
        "P1": induction_tower[0],
        "diagonals": partition_from_segments(DIAGONALS, (1, 1)),
    }[which]
    cuts = brute_force_cuts(partition)
    for x in _probe_points(partition, seed=len(which)):
        labels = brute_force_labels(partition, x)
        on_cut = brute_force_on_boundary(partition.lattice, cuts, x)
        assert len(labels) == 1 or on_cut, x  # two atoms meet only on a cut
        if on_cut:
            with pytest.raises(BoundaryHit):
                partition.locate(x)
        else:
            assert partition.locate(x) in labels, x


def test_seam_glue_is_not_a_cut():
    # each atom of the diagonals partition crosses a seam; the seam pieces
    # inside an atom are glue, so only the two diagonals are cuts
    partition = partition_from_segments(DIAGONALS, (1, 1))
    cuts = brute_force_cuts(partition)
    assert cuts and all(p[0] != q[0] and p[1] != q[1] for p, q in cuts)
    half, tenth = Fraction(1, 2), Fraction(1, 10)
    for seam, inside in [(pt(0, half), pt(tenth, half)), (pt(half, 0), pt(half, tenth))]:
        assert not brute_force_on_boundary(partition.lattice, cuts, seam)
        assert partition.locate(seam) == partition.locate(inside)
    for diagonal in (pt(tenth, tenth), pt(tenth, 1 - tenth), pt(0, 0)):
        assert brute_force_on_boundary(partition.lattice, cuts, diagonal)
        with pytest.raises(BoundaryHit):
            partition.locate(diagonal)


def _rect_json(x0, y0, x1, y1):
    return [[x0, y0], [x1, y0], [x1, y1], [x0, y1]]


@pytest.mark.parametrize(
    "atoms, defect",
    [
        # the area adds up to the covolume but two atoms overlap
        ({"0": [_rect_json("0", "0", "1", "3/4")], "1": [_rect_json("0", "1/4", "1", "1/2")]},
         "overlap"),
        # one cell sticks out of the fundamental rectangle
        ({"0": [_rect_json("0", "0", "1", "1/2")], "1": [_rect_json("0", "1", "1", "3/2")]},
         "fundamental rectangle"),
    ],
)
def test_from_json_rejects_non_tiling(atoms, defect):
    with pytest.raises(ValueError, match=defect):
        TorusPartition.from_json({"lattice": ["1", "1"], "atoms": atoms})


@pytest.mark.pinned
def test_reference_partition_is_pinned():
    # the labeled 19 atoms, cell by cell and vertex by vertex, as built by
    # partition_from_segments and labeled by the stored atom points
    pinned = Path(__file__).parent / "expected" / "reference_partition.json"
    expected = json.loads(pinned.read_text())
    assert build_reference_partition()[0].to_json() == expected
