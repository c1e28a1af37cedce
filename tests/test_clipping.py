"""The ring-cutting clip kernel against the normalize-every-cut oracles.

Convex polygons have vertices a + b*phi with small rational a, b; cuts
are random halfplanes, axis-parallel halfplanes, halfplanes through a
vertex or along an edge (flat and empty results included), and second
polygons drawn the same way or derived from the first.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import clip_each_cut, difference_each_cut, intersection_each_cut
from aperiodic_kit.geometry import (
    Polygon,
    _cross,
    clip,
    convex_intersection,
    convex_split,
    rectangle,
)
from aperiodic_kit.phifield import ONE, PHI, ZERO, PhiNumber

KERNEL = settings(max_examples=100, deadline=None)

coefficients = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3]))
scalars = st.builds(PhiNumber, coefficients, coefficients)
points = st.tuples(scalars, scalars)
axis_normals = st.sampled_from([(ONE, ZERO), (-ONE, ZERO), (ZERO, ONE), (ZERO, -ONE)])


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


@KERNEL
@given(st.data())
def test_clip_matches_each_cut_oracle(data):
    poly = data.draw(polygons())
    normal, offset = data.draw(halfplanes(poly))
    assert clip(poly, normal, offset) == clip_each_cut(poly, normal, offset)


@KERNEL
@given(polygon_pairs())
def test_intersection_and_difference_match_each_cut_oracles(pair):
    a, b = pair
    inside = intersection_each_cut(a, b)
    assert convex_intersection(a, b) == inside
    assert convex_split(a, b) == (inside, difference_each_cut(a, b))


def test_flat_and_empty_results():
    sq = rectangle(0, 0, 1, 1)
    # only the edge x = 0 or the corner (0, 0) is left
    assert clip(sq, (ONE, ZERO), ZERO) is None
    assert clip(sq, (ONE, ONE), ZERO) is None
    # boxes touching along an edge or at a corner
    assert convex_intersection(sq, rectangle(1, 0, 2, 1)) is None
    assert convex_intersection(sq, rectangle(1, 1, 2, 2)) is None
    assert convex_split(sq, rectangle(-1, -1, 2, 2)) == (sq, [])
    assert convex_split(sq, rectangle(1, 0, 2, 1)) == (None, [sq])


def test_uncut_polygon_is_returned_itself():
    sq = rectangle(0, 0, 1, 1)
    assert clip(sq, (ONE, ZERO), PhiNumber(2)) is sq
    assert convex_intersection(sq, rectangle(-1, -1, 2, 2)) is sq
    assert convex_split(sq, rectangle(-1, -1, 2, 2))[0] is sq


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
