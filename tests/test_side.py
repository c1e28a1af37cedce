"""The integer side test and the additive shift search against their
Q(phi) references.

`_side` is checked against the sign of <n, v> - c built from PhiNumbers,
both for the normal a halfplane was made from and in the form `_values`
evaluates, on edge halfplanes of random exact polygons and on random and
axis halfplanes of both `lower` forms; the points include ones built on
the line, whose side is 0.  `Polygon.locate` is checked against cross
products.  `_axis_shifts` is checked against the division-and-floor rule
it replaced, also for intervals a million periods away.  Polygons and
scalars are drawn as in test_clipping.py.
"""

import time
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import axis_shifts_by_floor, cross_product_locate
from test_clipping import points, polygons, scalars
from aperiodic_kit.geometry import (
    _axis_shifts,
    _halfplane,
    _halfplanes,
    _side,
    _values,
)
from aperiodic_kit.phifield import ONE, ZERO, PhiNumber

KERNEL = settings(max_examples=200, deadline=None)

positives = scalars.filter(lambda x: x >= Fraction(1, 4))


@st.composite
def lines(draw):
    """(normal, anchor, direction, polygon): a halfplane <normal, x> <= <normal,
    anchor> from a polygon's edge or drawn at random, with either sign of
    its leading coordinate, a direction along its line and the polygon."""
    poly = draw(polygons())
    vs = poly.vertices
    kind = draw(st.sampled_from(["edge", "random", "axis"]))
    if kind == "edge":
        i = draw(st.integers(0, len(vs) - 1))
        p, q = vs[i], vs[(i + 1) % len(vs)]
        normal, anchor = (q[1] - p[1], p[0] - q[0]), p
    else:
        if kind == "axis":
            scale = draw(positives)
            normal = draw(st.sampled_from([(scale, ZERO), (ZERO, scale)]))
        else:
            normal = draw(points)
            assume(normal[0] or normal[1])
        anchor = draw(st.sampled_from(vs) | points)
    if draw(st.booleans()):
        normal = (-normal[0], -normal[1])
    return normal, anchor, (-normal[1], normal[0]), poly


def _dot(n, v):
    return n[0] * v[0] + n[1] * v[1]


@KERNEL
@given(lines(), st.lists(scalars, max_size=3), st.lists(points, max_size=3))
def test_side_is_the_sign_of_the_halfplane_value(line, ts, others):
    normal, anchor, direction, poly = line
    plane = _halfplane(normal, anchor)
    (nx, ny), offset = plane[0], plane[1]
    on_line = [(anchor[0] + t * direction[0], anchor[1] + t * direction[1]) for t in ts]
    for v in [anchor, *on_line, *poly.vertices, *others]:
        side = _side(v, plane)
        assert side == (_dot(normal, v) - _dot(normal, anchor)).sign()
        assert side == (nx * v[0] + ny * v[1] - offset).sign()
        assert side == _values((v,), plane)[0].sign()
    assert all(_side(v, plane) == 0 for v in [anchor, *on_line])


@KERNEL
@given(polygons(), st.lists(points, max_size=4), st.lists(scalars, max_size=4))
def test_locate_agrees_with_cross_products(poly, others, ts):
    vs = poly.vertices
    # the vertices, points on the edges and their lines, and random points
    probes = list(vs) + others
    for i, t in enumerate(ts):
        p, q = vs[i % len(vs)], vs[(i + 1) % len(vs)]
        probes.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    for x in probes:
        assert poly.locate(x) == cross_product_locate(poly, x), (poly, x)
    for plane in _halfplanes(poly):
        assert [_side(v, plane) for v in vs].count(0) == 2


@KERNEL
@given(scalars, scalars, st.booleans(), positives, scalars, scalars)
def test_axis_shifts_match_division_and_floor(lo, hi, point, period, box_lo, box_hi):
    lo, hi = sorted((lo, hi))
    if point:
        hi = lo
    box_lo, box_hi = sorted((box_lo, box_hi))
    assume(box_lo < box_hi)
    assert _axis_shifts(lo, hi, period, box_lo, box_hi) == axis_shifts_by_floor(
        lo, hi, period, box_lo, box_hi
    )


@KERNEL
@given(positives, positives, st.integers(-5, 5), st.booleans())
def test_axis_shifts_of_a_point_on_either_seam(period, width, k, far_side):
    # a point on a seam of the box, moved by k periods, negative ones too
    box_lo = -width if k % 2 else ZERO
    box_hi = box_lo + width
    x = (box_hi if far_side else box_lo) + PhiNumber(k) * period
    shifts = _axis_shifts(x, x, period, box_lo, box_hi)
    assert shifts == axis_shifts_by_floor(x, x, period, box_lo, box_hi)
    assert any(x + shift == (box_hi if far_side else box_lo) for shift in shifts)


@settings(max_examples=20, deadline=None)
@given(scalars, positives, positives, st.sampled_from([-1, 1]))
def test_axis_shifts_far_from_the_box_are_prompt(lo, length, period, sign):
    # the box is longer than a period, so some translate meets it
    lo = lo + PhiNumber(sign * 10**6) * period
    hi, box_hi = lo + length, period + ONE
    started = time.perf_counter()
    shifts = _axis_shifts(lo, hi, period, ZERO, box_hi)
    assert time.perf_counter() - started < 0.5
    assert shifts == axis_shifts_by_floor(lo, hi, period, ZERO, box_hi)
    assert shifts and all(lo + s < box_hi and ZERO < hi + s for s in shifts)
