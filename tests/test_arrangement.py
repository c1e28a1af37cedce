"""The torus arrangement against its reference: one shift rule, one cut per line.

`_axis_shifts` is checked against a scan of every lattice shift in a wide
range, and `partition_from_segments` against the reference that clips every
translate in a box of shifts of its own and splits each cell with one
normalized clip per side.  The segment clip and the line keys are checked
against the reference's Liang-Barsky clip and (A, B, C) keys.  Scalars are
a + b*phi with small rational a, b.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import clip_segment_liang_barsky, edge_key_by_dot, partition_from_segments_each_cut
from aperiodic_kit import geometry
from aperiodic_kit.catalog import partition_segments
from aperiodic_kit.geometry import (
    _axis_shifts,
    _clip_segment_to_box,
    _edge_key,
    _reduce_segments,
    partition_from_segments,
    pt,
    rectangle,
)
from aperiodic_kit.phifield import ONE, PHI, ZERO, PhiNumber

coefficients = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3]))
scalars = st.builds(PhiNumber, coefficients, coefficients)
# with periods of at least 1/2, every shift that can meet the box has |k| < 64
periods = scalars.filter(lambda p: p >= Fraction(1, 2))
SCAN = 80


@settings(max_examples=100, deadline=None)
@given(scalars, scalars, st.booleans(), periods, scalars, scalars)
def test_axis_shifts_match_a_scan_of_every_shift(lo, hi, point, period, box_lo, box_hi):
    lo, hi = sorted((lo, hi))
    if point:
        hi = lo
    box_lo, box_hi = sorted((box_lo, box_hi))
    assume(box_lo < box_hi)
    expected = []
    for k in range(-SCAN, SCAN + 1):
        shift = PhiNumber(k) * period
        if lo == hi:  # closed membership
            meets = box_lo <= lo + shift <= box_hi
        else:  # open overlap
            meets = lo + shift < box_hi and box_lo < hi + shift
        if meets:
            expected.append(shift)
    assert _axis_shifts(lo, hi, period, box_lo, box_hi) == expected


LATTICES = [(ONE, ONE), (PhiNumber(2), ONE), (PHI, ONE), (ONE, PHI - 1)]
# coordinates inside, on the seams of and beyond the fundamental rectangles
coordinates = st.sampled_from(
    [PhiNumber(Fraction(n, 4)) for n in range(-2, 9)] + [PHI - 1, PHI, 2 - PHI, -PHI + Fraction(1, 2)]
)


@st.composite
def segments(draw, lattice):
    """A diagonal, or an axis-parallel segment on a seam or off it that may
    run once around the torus, so that seams and loops can split atoms."""
    kind = draw(st.sampled_from(["axis", "seam", "diagonal"]))
    vertical = draw(st.booleans())
    a, b = draw(coordinates), draw(coordinates)
    if kind != "diagonal" and draw(st.booleans()):
        b = a + lattice[1 if vertical else 0]
    assume(a != b)
    if kind == "diagonal":
        return (a, draw(coordinates)), (b, draw(coordinates))
    c = draw(st.sampled_from([ZERO, *lattice])) if kind == "seam" else draw(coordinates)
    return ((c, a), (c, b)) if vertical else ((a, c), (b, c))


@st.composite
def arrangements(draw):
    lattice = draw(st.sampled_from(LATTICES))
    return draw(st.lists(segments(lattice), min_size=1, max_size=3)), lattice


@settings(max_examples=50, deadline=None)
@given(arrangements())
def test_partition_matches_the_each_cut_reference(arrangement):
    segs, lattice = arrangement
    expected = partition_from_segments_each_cut(segs, lattice).to_json()
    assert partition_from_segments(segs, lattice).to_json() == expected


def test_catalog_clips_sixteen_translates_and_keeps_thirteen(monkeypatch):
    calls = []
    clip_segment = geometry._clip_segment_to_box

    def counted(*args):
        calls.append(args)
        return clip_segment(*args)

    monkeypatch.setattr(geometry, "_clip_segment_to_box", counted)
    assert len(_reduce_segments(partition_segments(), ONE, ONE)) == 13
    assert len(calls) == 16


BOXES = [rectangle(ZERO, ZERO, l1, l2) for l1, l2 in LATTICES]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(LATTICES).flatmap(segments))
def test_segment_clip_matches_liang_barsky_on_every_box(segment):
    # the coordinates put segments inside, across, outside and on the
    # boundary of each box; None and the order of the ends must agree too
    for box in BOXES:
        for p, q in (segment, segment[::-1]):
            assert _clip_segment_to_box(p, q, box) == clip_segment_liang_barsky(p, q, box)


@pytest.mark.parametrize(
    "p, q",
    [
        ((Fraction(1, 4), Fraction(1, 4)), (Fraction(3, 4), Fraction(1, 2))),  # inside
        ((Fraction(-1, 2), Fraction(1, 2)), (Fraction(3, 2), Fraction(1, 4))),  # across
        ((Fraction(3, 2), Fraction(1, 2)), (2, 2)),  # outside
        ((0, Fraction(1, 4)), (0, Fraction(3, 4))),  # on the left side
        ((-1, 1), (2, 1)),  # along the top side and beyond it
        ((2, 0), (0, 2)),  # through the corner (1, 1) only
        ((1, 1), (2, 2)),  # from the corner (1, 1) outwards
        ((0, 0), (1, 1)),  # corner to corner
        ((-1, -1), (Fraction(1, 2), Fraction(1, 2))),  # into the box through a corner
    ],
)
def test_segment_clip_matches_liang_barsky_on_the_unit_box(p, q):
    box = rectangle(0, 0, 1, 1)
    p, q = pt(*p), pt(*q)
    for a, b in ((p, q), (q, p)):
        assert _clip_segment_to_box(a, b, box) == clip_segment_liang_barsky(a, b, box)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(LATTICES).flatmap(
        lambda lattice: st.tuples(st.just(lattice), segments(lattice), segments(lattice))
    )
)
def test_edge_keys_share_a_line_and_an_order_with_the_reference(drawn):
    lattice, first, second = drawn
    keys = [_edge_key(p, q, lattice) for p, q in (first, second)]
    reference = [edge_key_by_dot(p, q, lattice) for p, q in (first, second)]
    assert (keys[0][0] == keys[1][0]) == (reference[0][0] == reference[1][0])
    if keys[0][0] == keys[1][0]:
        ends = [end for key in keys for end in key[1:]]
        reference_ends = [end for key in reference for end in key[1:]]
        for i, a in enumerate(ends):
            for j, b in enumerate(ends):
                r, s = reference_ends[i], reference_ends[j]
                assert (a < b, a == b) == (r < s, r == s)
