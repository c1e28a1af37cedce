"""The ring-cutting clip kernel against the normalize-every-cut oracles.

Convex polygons have vertices a + b*phi with small rational a, b; cuts
are random halfplanes, axis-parallel halfplanes, halfplanes through a
vertex or along an edge (flat and empty results included), and second
polygons drawn the same way or derived from the first, including ones
whose axis-parallel edges touch or lie on the first one's bounding box.
The cached, normalized edge halfplanes of a polygon are checked against
its edges, and the halfplanes that cut pieces, translates and rescaled
cells carry against the ones recomputed from their vertices.  A cut point
read off an axis line is checked against the division formula.  A
partition pushed through the rectangles of a torus rotation, and a
rescaled one, are checked against the former rule: every lattice
translate of a cell clipped to the fundamental rectangle.
"""

from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    clip,
    clip_each_cut,
    cut_point_by_division,
    halfplane,
    intersection_each_cut,
    lattice_pieces,
    rescale_by_translates,
    segment_halfplane,
)
from aperiodic_kit.geometry import (
    Polygon,
    TorusPartition,
    _cross,
    _cut_point,
    _halfplanes,
    _part,
    _piece,
    _side,
    _split,
    _values,
    convex_intersection,
    rectangle,
    rescale,
    rotated,
    split_cells,
)
from aperiodic_kit.pet import TorusAction
from aperiodic_kit.phifield import ONE, PHI, ZERO, PhiNumber

KERNEL = settings(max_examples=100, deadline=None)

coefficients = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3]))
scalars = st.builds(PhiNumber, coefficients, coefficients)
points = st.tuples(scalars, scalars)
axis_normals = st.sampled_from([(ONE, ZERO), (-ONE, ZERO), (ZERO, ONE), (ZERO, -ONE)])
FACTORS = st.sampled_from([ONE, -ONE, PHI, -PHI, PhiNumber(Fraction(1, 2))])


def _hull(pts):
    """Strictly convex hull (monotone chain), or None when it is flat."""
    pts = sorted(set(pts))
    if len(pts) < 3:
        return None

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p).sign() <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    ring = chain(pts) + chain(reversed(pts))
    return Polygon(ring) if len(ring) >= 3 else None


@st.composite
def polygons(draw):
    poly = _hull(draw(st.lists(points, min_size=3, max_size=7)))
    if poly is None:  # a flat draw: fall back to a triangle at its first point
        x, y = draw(points)
        poly = Polygon([(x, y), (x + ONE, y), (x, y + PHI)])
    return poly


@st.composite
def halfplanes(draw, poly):
    """(normal, offset) of a halfplane meeting poly in every way there is."""
    vs = poly.vertices
    kind = draw(st.sampled_from(["random", "axis", "vertex", "edge", "beyond"]))
    if kind == "edge":
        i = draw(st.integers(0, len(vs) - 1))
        p, q = vs[i], vs[(i + 1) % len(vs)]
        normal = (q[1] - p[1], p[0] - q[0])
        if draw(st.booleans()):  # outward: only the edge is left, flat
            normal = (-normal[0], -normal[1])
        return normal, normal[0] * p[0] + normal[1] * p[1]
    normal = draw(axis_normals if kind == "axis" else points)
    if not normal[0] and not normal[1]:
        normal = (ONE, PHI)
    values = sorted(normal[0] * v[0] + normal[1] * v[1] for v in vs)
    if kind == "vertex":
        return normal, draw(st.sampled_from(values))
    if kind == "beyond":  # everything or nothing
        return normal, values[0] - ONE if draw(st.booleans()) else values[-1] + ONE
    return normal, draw(scalars) + values[len(values) // 2]


@st.composite
def polygon_pairs(draw):
    a = draw(polygons())
    kind = draw(st.sampled_from(["random", "same", "translate", "box"]))
    if kind == "same":
        return a, a
    if kind == "translate":
        return a, a.translate(draw(points))
    if kind == "box":  # axis-parallel edges, as in the coding refinements
        x0, y0, x1, y1 = a.bbox()
        return a, rectangle(x0, (y0 + y1) / 2, x1 + ONE, y1)
    return a, draw(polygons())


@st.composite
def box_pairs(draw):
    """A polygon and a rectangle or corner triangle whose axis-parallel
    edges lie on, touch, cross or clear the polygon's bounding box."""
    a = draw(polygons())
    x0, y0, x1, y1 = a.bbox()

    def bounds(lo, hi):
        step = (hi - lo) / 8
        picks = [lo - ONE, lo, lo + step, (lo + hi) / 2, hi - step, hi, hi + ONE]
        i = draw(st.integers(0, len(picks) - 2))
        return picks[i], picks[draw(st.integers(i + 1, len(picks) - 1))]

    (bx0, bx1), (by0, by1) = bounds(x0, x1), bounds(y0, y1)
    if draw(st.booleans()):
        return a, rectangle(bx0, by0, bx1, by1)
    return a, Polygon([(bx0, by0), (bx1, by0), (bx0, by1)])


@KERNEL
@given(st.data())
def test_clip_matches_each_cut_oracle(data):
    poly = data.draw(polygons())
    normal, offset = data.draw(halfplanes(poly))
    assert clip(poly, normal, offset) == clip_each_cut(poly, normal, offset)


@KERNEL
@given(polygon_pairs())
def test_intersection_matches_each_cut_oracle(pair):
    a, b = pair
    assert convex_intersection(a, b) == intersection_each_cut(a, b)


@KERNEL
@given(box_pairs())
def test_axis_edges_on_the_bounding_box_match_each_cut_oracles(pair):
    # an edge on the box boundary holds on the whole box: the skipped cut
    # must give what the cut would have given, in both directions
    a, b = pair
    for p, q in ((a, b), (b, a)):
        assert convex_intersection(p, q) == intersection_each_cut(p, q)


@KERNEL
@given(polygons(), st.lists(polygons(), min_size=2, max_size=4), points)
def test_clipping_in_a_row_reuses_cached_halfplanes(a, others, v):
    # each other polygon moved so that its least vertex is a's least
    # vertex shifted by v/4: most of the pairs overlap
    (ax, ay), shift = a.vertices[0], (v[0] / 4, v[1] / 4)
    others = [
        b.translate((ax - b.vertices[0][0] + shift[0], ay - b.vertices[0][1] + shift[1]))
        for b in others
    ]
    planes = _halfplanes(a)
    for b in others:
        assert convex_intersection(b, a) == intersection_each_cut(b, a)
    assert _halfplanes(a) is planes
    result, expected = a, a
    for b in others:
        result = convex_intersection(result, b)
        expected = intersection_each_cut(expected, b)
        assert result == expected
        if result is None:
            break


def _check_halfplanes(poly):
    """The cached halfplanes are the normalized edge halfplanes of poly."""
    planes = _halfplanes(poly)
    vs = poly.vertices
    assert type(planes) is tuple and len(planes) == len(vs)
    for i, plane in enumerate(planes):
        (nx, ny), offset, axis, lower, last = plane
        p, q = vs[i], vs[(i + 1) % len(vs)]
        # a positive multiple of the inward normal of edge (p, q) whose
        # first nonzero coordinate is +-1
        raw = (q[1] - p[1], p[0] - q[0])
        assert (nx if nx else ny) in (ONE, -ONE)
        assert nx * raw[1] == ny * raw[0] and (nx * raw[0] + ny * raw[1]).sign() > 0
        assert offset == nx * p[0] + ny * p[1] == nx * q[0] + ny * q[1]
        assert all(nx * v[0] + ny * v[1] <= offset for v in vs)
        assert _values(vs, plane) == [nx * v[0] + ny * v[1] - offset for v in vs]
        assert lower == ((nx if nx else ny) < 0)
        if axis is None:
            # a slanted line u*x + m*y = offset keeps 1/m
            assert nx and ny and last == ONE / ny
        else:
            assert not (ny if axis == 0 else nx)
            assert last == p[axis] == q[axis]


@KERNEL
@given(polygons(), points)
def test_cached_halfplanes_are_normalized_edge_halfplanes(poly, v):
    _check_halfplanes(poly)
    assert _halfplanes(poly) is _halfplanes(poly)
    # a translate built after the cache was filled gets halfplanes of its own
    _check_halfplanes(poly.translate(v))


def _check_cut_ring(poly, part):
    """A ring _split cut from poly is empty or canonical up to its start."""
    ring = part[0]
    if len(ring) < 3:
        assert not ring  # a part without interior comes back empty
        return
    n = len(ring)
    assert len(set(ring)) == n
    # a strict left turn at every vertex: counterclockwise, no collinear
    # vertex, positive area
    assert all(_cross(ring[i - 1], ring[i], ring[(i + 1) % n]).sign() > 0 for i in range(n))
    assert _piece(poly, part) == Polygon(ring)


@KERNEL
@given(st.data())
def test_cut_rings_are_canonical_by_construction(data):
    # a canonical ring cut once, then each of its sides cut again as a ring
    poly = data.draw(polygons())
    normal, offset = data.draw(halfplanes(poly))
    for ring, planes in _split(_part(poly), halfplane(normal, offset)):
        _check_cut_ring(poly, (ring, planes))
        if len(ring) >= 3:
            normal2, offset2 = data.draw(halfplanes(Polygon(ring)))
            for part in _split((ring, planes), halfplane(normal2, offset2)):
                _check_cut_ring(poly, part)


def _check_carried(ring, planes):
    """The halfplanes carried with a ring are the ones _halfplanes builds
    from its vertices, edge by edge in ring order."""
    if len(ring) < 3:
        assert not ring and not planes
        return
    assert tuple(planes) == _halfplanes(Polygon._canonical(tuple(ring)))


def _check_carried_piece(poly):
    if poly is not None:
        assert poly._planes is not None
        _check_carried(poly.vertices, poly._planes)


@KERNEL
@given(st.data())
def test_split_parts_carry_their_edge_halfplanes(data):
    # each side of a cut, and each side of a second cut of it, carries the
    # halfplanes of its own edges, the cut edge included
    poly = data.draw(polygons() | box_pairs().map(lambda pair: pair[1]))
    normal, offset = data.draw(halfplanes(poly))
    for ring, planes in _split(_part(poly), halfplane(normal, offset)):
        _check_carried(ring, planes)
        if len(ring) >= 3:
            normal2, offset2 = data.draw(halfplanes(Polygon(ring)))
            for part in _split((ring, planes), halfplane(normal2, offset2)):
                _check_carried(*part)


@KERNEL
@given(polygon_pairs() | box_pairs(), points)
def test_cut_and_moved_pieces_carry_their_edge_halfplanes(pair, v):
    # a cut by each edge halfplane of b: the far side's cut edge carries
    # the opposite halfplane
    a, b = pair
    sides = [_piece(a, part) for plane in _halfplanes(b) for part in _split(_part(a), plane)]
    for piece in [convex_intersection(a, b), *sides]:
        _check_carried_piece(piece)
        if piece is not None:
            _check_carried_piece(piece.translate(v))
    _check_carried_piece(b.translate(v))


def _one_atom(poly):
    # a one-atom partition whose cell is moved into its fundamental rectangle
    x0, y0, x1, y1 = poly.bbox()
    side = max(x1 - x0, y1 - y0) + ONE
    return TorusPartition((side, side), {0: (poly.translate((-x0, -y0)),)})


@KERNEL
@given(polygons(), FACTORS, points)
def test_rescaled_cells_carry_their_edge_halfplanes(poly, factor, t):
    for piece in rescale(_one_atom(poly), factor, t).atoms[0]:
        _check_carried_piece(piece)


unit_fractions = st.builds(Fraction, st.integers(0, 11), st.just(12)) | st.builds(
    Fraction, st.integers(0, 6), st.just(7)
)
steps = st.tuples(st.integers(-30, 30), st.integers(-30, 30))


def _check_rotation(partition, shift):
    # the rotation by the shift and by minus the shift, taken as l - shift,
    # against every clipped lattice translate of each cell, as multisets of
    # (label, vertices)
    l1, l2 = partition.lattice
    box = rectangle(0, 0, l1, l2)
    cells = [(cell, label) for label, cell in partition.cells()]
    for v, offset in ((shift, shift), ((l1 - shift[0], l2 - shift[1]), (-shift[0], -shift[1]))):
        pushed = Counter((label, piece.vertices) for piece, label in rotated(cells, (l1, l2), v))
        expected = Counter(
            (label, piece.vertices)
            for cell, label in cells
            for piece in lattice_pieces(cell, (l1, l2), box, offset)
        )
        assert pushed == expected


@settings(max_examples=25, deadline=None)
@given(steps, unit_fractions, unit_fractions)
def test_partition_pushed_through_the_rotation_matches_clipped_translates(
    partition_u, action_u, n, r1, r2
):
    _check_rotation(partition_u, action_u.step_vector(n))
    _check_rotation(partition_u, (PhiNumber(r1), PhiNumber(r2)))


@KERNEL
@given(polygons(), steps, unit_fractions, unit_fractions)
def test_cell_pushed_through_the_rotation_matches_clipped_translates(poly, n, r1, r2):
    partition = _one_atom(poly)
    side = partition.lattice[0]
    action = TorusAction((side, side), (PHI**-2, 0), (0, PHI**-2))
    _check_rotation(partition, action.step_vector(n))
    # a side is at least 1, so the rational shift lies in [0, side)
    _check_rotation(partition, (PhiNumber(r1), PhiNumber(r2)))


@KERNEL
@given(polygons(), FACTORS, points)
def test_rescaled_cell_matches_clipped_translates(poly, factor, t):
    partition = _one_atom(poly)
    scaled = rescale(partition, factor, t)
    expected = rescale_by_translates(partition, factor, t)
    assert (scaled.lattice, scaled.atoms) == (expected.lattice, expected.atoms)


@settings(max_examples=10, deadline=None)
@given(FACTORS, points)
def test_rescaled_partition_matches_clipped_translates(partition_u, factor, t):
    scaled = rescale(partition_u, factor, t)
    expected = rescale_by_translates(partition_u, factor, t)
    assert (scaled.lattice, scaled.atoms) == (expected.lattice, expected.atoms)


@KERNEL
@given(st.data())
def test_cut_points_on_an_axis_line_match_the_division_formula(data):
    # the cut point of every crossing edge, read off whichever of the two
    # lines is an axis line, against t = va / (va - vb); the edge's carried
    # halfplane and one built afresh from its ends give the same point
    poly = data.draw(polygons() | box_pairs().map(lambda pair: pair[1]))
    normal, offset = data.draw(halfplanes(poly))
    plane = halfplane(normal, offset)
    vs, planes = _part(poly)
    for i, a in enumerate(vs):
        b = vs[(i + 1) % len(vs)]
        if _side(a, plane) * _side(b, plane) < 0:
            expected = cut_point_by_division(a, b, plane)
            assert _cut_point(a, b, plane, planes[i]) == expected
            assert _cut_point(a, b, plane, segment_halfplane(a, b)) == expected


def test_flat_and_empty_results():
    sq = rectangle(0, 0, 1, 1)
    # only the edge x = 0 or the corner (0, 0) is left
    assert clip(sq, (ONE, ZERO), ZERO) is None
    assert clip(sq, (ONE, ONE), ZERO) is None
    # boxes touching along an edge or at a corner
    assert convex_intersection(sq, rectangle(1, 0, 2, 1)) is None
    assert convex_intersection(sq, rectangle(1, 1, 2, 2)) is None
    assert list(split_cells([(sq, 0)], [(rectangle(-1, -1, 2, 2), 1)])) == [(sq, 0, 1)]
    assert list(split_cells([(sq, 0)], [(rectangle(1, 0, 2, 1), 1)])) == []


def test_uncut_polygon_is_returned_itself():
    sq = rectangle(0, 0, 1, 1)
    assert clip(sq, (ONE, ZERO), PhiNumber(2)) is sq
    assert convex_intersection(sq, rectangle(-1, -1, 2, 2)) is sq
    assert next(split_cells([(sq, 0)], [(rectangle(-1, -1, 2, 2), 1)]))[0] is sq


@KERNEL
@given(polygons(), points)
def test_translate_equals_normalized_translate(poly, v):
    v = (v[0] - PHI, v[1] + Fraction(-1, 2))  # negative and irrational entries
    poly.bbox()  # computed before the move, so a stale box would show
    moved = poly.translate(v)
    expected = Polygon([(p[0] + v[0], p[1] + v[1]) for p in poly.vertices])
    assert moved == expected
    assert moved.vertices == expected.vertices
    assert moved.bbox() == expected.bbox()
