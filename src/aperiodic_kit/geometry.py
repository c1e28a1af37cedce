"""Exact convex-polygon geometry over Q(phi) and labeled torus partitions.

Everything here is exact: vertices are pairs of PhiNumber, areas come from
the shoelace formula, and predicates never see a float.  A torus partition
keeps each atom as a tuple of convex cells inside the fundamental rectangle
of a diagonal lattice; non-convex atoms are represented by several cells
glued along edges that no cutting segment covers.  Two atoms are equal up
to null sets when their areas and the area of their intersection agree.
Points are located by the closed cells alone: a point is on the partition
boundary exactly when cells of two atoms hold it or one of its seam twins.

Every cut is one _split pass over a vertex ring and the halfplanes of its
edges that returns both sides: the side an intersection keeps, or a cell
split by a line of the arrangement.  Each halfplane is applied to the
ring of the previous cut.  Cut pieces are canonical by construction:
a line meets a strictly convex counterclockwise ring in at most two
boundary points, so each side is again counterclockwise, without repeated
or collinear vertices, and either empty or of positive area.  A piece is
therefore only rotated to start at its least vertex; Polygon(...) keeps
the full normalization for outside input.  Cells move by one torus
rotation, as at most four rectangles each moved by one vector (rotated);
segments, which may span several periods, clip the lattice translates
that _axis_shifts finds.

A halfplane <n, x> <= c comes from _halfplane, with its normal scaled by
a positive factor so that the first nonzero coordinate is +-1; that keeps
the side of every point and every cut point.  It records its form: an
axis halfplane bounds one coordinate, a slanted one reads m*y +- x <=
offset.  One integer test, _side, reads every side, from the coordinate
or from m*y +- x - offset on unreduced integer numerators; numbers are
built only for cut points.  A cut point lies where the cut line meets the
line of its edge; where one of them is an axis line, the point is read
off the other without a division, through the 1/m that a slanted
halfplane keeps.  A polygon builds the halfplanes of its edges once and
caches them next to its bounding box.  A cut piece carries them from its
source: an uncut edge keeps its halfplane and the cut edge gets the cut
halfplane, or its opposite on the far side; a translate or a rescaled
cell moves its source's.  So a halfplane is built only for a new line,
such as an edge of outside input or an input segment of the
arrangement.  An axis halfplane that holds on the whole bounding box of
the polygon being cut is skipped without touching its ring: the ring only
shrinks from that polygon, so the box test stays valid after earlier
cuts.  A point's side of a cached cell edge is read by the same test.

A line of the torus arrangement has the same one form: the halfplane of
its segment whose normal leads with +1 keys the line, cuts the cells along
it and groups the cell edges on it.  A point on the line is measured by
its free coordinate, y, or x on a horizontal line.  A segment builds its
halfplane once; each lattice translate moves it, is clipped on it to the
fundamental rectangle as a cut reads a vertex, and is keyed by it.
"""

from __future__ import annotations

from itertools import islice, product
from typing import Iterable, Optional, Sequence

from .phifield import ONE, ZERO, PhiNumber, _sign
from .words import bijections, classes

Point = tuple[PhiNumber, PhiNumber]
Segment = tuple[Point, Point]


class DegenerateArrangement(ValueError):
    """Segment input that cannot cut the torus (zero length)."""


class NoConsistentLabeling(ValueError):
    """No labeling of the atoms matches the reference domino languages."""


class AmbiguousLabeling(ValueError):
    """Several labelings match the reference domino languages."""


class ZeroFactor(ValueError):
    """Rescaling factor must be nonzero."""


class BoundaryHit(ValueError):
    """A point lies on a partition or piece boundary where maps are undefined."""


def _num(x) -> PhiNumber:
    return x if isinstance(x, PhiNumber) else PhiNumber(x)


def pt(x, y) -> Point:
    return (_num(x), _num(y))


def _cross(o: Point, a: Point, b: Point) -> PhiNumber:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


class Polygon:
    """Convex polygon; vertices counterclockwise, canonical start, positive area."""

    __slots__ = ("vertices", "_bbox", "_planes")

    def __init__(self, vertices: Sequence[Point]):
        vs = _normalize_ring(list(vertices))
        if vs is None:
            raise ValueError("degenerate polygon")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "_bbox", None)
        object.__setattr__(self, "_planes", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polygon is immutable")

    def __eq__(self, other):
        return isinstance(other, Polygon) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        coords = ", ".join(f"({v[0]},{v[1]})" for v in self.vertices)
        return f"Polygon[{coords}]"

    def area(self) -> PhiNumber:
        return _doubled_area(self.vertices) / PhiNumber(2)

    def edges(self) -> list[Segment]:
        vs = self.vertices
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    @classmethod
    def _canonical(cls, vertices: tuple[Point, ...], planes: Optional[tuple] = None) -> "Polygon":
        """The polygon of a vertex tuple that is already canonical, with the
        halfplanes of its edges when they are known."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "vertices", vertices)
        object.__setattr__(poly, "_bbox", None)
        object.__setattr__(poly, "_planes", planes)
        return poly

    def translate(self, v: Point) -> "Polygon":
        # a translation keeps the orientation, the collinearity and the
        # lexicographically least vertex: the moved tuple is canonical, and
        # each edge halfplane moves with it
        return Polygon._canonical(
            tuple((p[0] + v[0], p[1] + v[1]) for p in self.vertices),
            tuple(_shifted(plane, v) for plane in _halfplanes(self)),
        )

    def locate(self, x: Point) -> str:
        """'interior', 'boundary' or 'outside' for this convex polygon, from
        the side of x on each cached edge halfplane, evaluated as a cut does."""
        on_edge = False
        for plane in _halfplanes(self):
            s = _side(x, plane)
            if s > 0:
                return "outside"
            if s == 0:
                on_edge = True
        return "boundary" if on_edge else "interior"

    def bbox(self) -> tuple[PhiNumber, PhiNumber, PhiNumber, PhiNumber]:
        if self._bbox is None:
            xs = [v[0] for v in self.vertices]
            ys = [v[1] for v in self.vertices]
            object.__setattr__(self, "_bbox", (min(xs), min(ys), max(xs), max(ys)))
        return self._bbox


def bbox_overlap(a: Polygon, b: Polygon) -> bool:
    ax0, ay0, ax1, ay1 = a.bbox()
    bx0, by0, bx1, by1 = b.bbox()
    return not (ax1 <= bx0 or bx1 <= ax0 or ay1 <= by0 or by1 <= ay0)


def _doubled_area(vs) -> PhiNumber:
    """Twice the signed shoelace area of a vertex ring."""
    total = PhiNumber(0)
    for i in range(len(vs)):
        p, q = vs[i], vs[(i + 1) % len(vs)]
        total = total + (p[0] * q[1] - q[0] * p[1])
    return total


def _doubled_area_sum(cells: Iterable[Polygon]) -> PhiNumber:
    """Twice the total area of convex cells with disjoint interiors."""
    return sum((_doubled_area(cell.vertices) for cell in cells), ZERO)


def _normalize_ring(vs: list[Point]) -> Optional[tuple[Point, ...]]:
    if len(vs) < 3:
        return None
    # orientation via signed area
    s = _doubled_area(vs).sign()
    if s == 0:
        return None
    if s < 0:
        vs = vs[::-1]
    # drop repeated and collinear vertices
    out: list[Point] = []
    for v in vs:
        if out and v == out[-1]:
            continue
        out.append(v)
    while len(out) > 1 and out[0] == out[-1]:
        out.pop()
    changed = True
    while changed and len(out) >= 3:
        changed = False
        for i in range(len(out)):
            a = out[i - 1]
            b = out[i]
            c = out[(i + 1) % len(out)]
            if _cross(a, b, c).sign() == 0:
                out.pop(i)
                changed = True
                break
    if len(out) < 3:
        return None
    start = min(range(len(out)), key=lambda i: out[i])
    return tuple(out[start:] + out[:start])


def rectangle(x0, y0, x1, y1) -> Polygon:
    """The rectangle [x0, x1] x [y0, y1], built canonical: counterclockwise
    from its least vertex (x0, y0).  It needs x0 < x1 and y0 < y1."""
    (x0, y0), (x1, y1) = pt(x0, y0), pt(x1, y1)
    if not (x0 < x1 and y0 < y1):
        raise ValueError("degenerate polygon")
    return Polygon._canonical(((x0, y0), (x1, y0), (x1, y1), (x0, y1)))


def _halfplane(normal: Point, point: Point) -> tuple:
    """The halfplane <normal, x> <= <normal, point>, with the normal scaled
    by a positive factor so that its first nonzero coordinate is +-1; the
    side of every point and the cut points of every segment stay the same.

    The result is the tuple (normal, offset, axis, lower, last) of the
    halfplane <normal, x> <= offset.  An axis halfplane has axis 0 or 1 and
    normal +-e_axis: it reads x[axis] <= bound, or x[axis] >= bound when
    lower is set, and last is that bound, +-offset.  A slanted halfplane
    has axis None, normal (u, m) with u = +-1, lower set when u = -1, and
    last 1/m: its line u*x + m*y = offset gives up a point at a known x or
    y without a division (_cut_point).
    """
    nx, ny = normal
    if not nx or not ny:
        axis = 1 if ny else 0
        lower = normal[axis].sign() < 0
        unit = -ONE if lower else ONE
        bound = point[axis]
        normal = (unit, ZERO) if axis == 0 else (ZERO, unit)
        return normal, -bound if lower else bound, axis, lower, bound
    lower = nx.sign() < 0
    m = (-ny if lower else ny) / nx
    offset = m * point[1] + (-point[0] if lower else point[0])
    return (-ONE if lower else ONE, m), offset, None, lower, m.inverse()


def _opposite(plane) -> tuple:
    """The halfplane <normal, x> >= offset in the same form, by negation."""
    (nx, ny), offset, axis, lower, last = plane
    return (-nx, -ny), -offset, axis, not lower, last if axis is not None else -last


def _shifted(plane, v: Point) -> tuple:
    """The halfplane moved by v: its offset grows by <normal, v>."""
    normal, offset, axis, lower, last = plane
    if axis is not None:
        bound = last + v[axis]
        return normal, -bound if lower else bound, axis, lower, bound
    shift = normal[1] * v[1] + (-v[0] if lower else v[0])
    return normal, offset + shift, None, lower, last


def _scaled(plane, factor: PhiNumber) -> tuple:
    """The halfplane's image under x -> factor*x, for a nonzero factor."""
    normal, offset, axis, lower, last = plane
    plane = normal, offset * factor, axis, lower, last * factor if axis is not None else last
    return plane if factor.sign() > 0 else _opposite(plane)


# the lines x = 0 and y = 0 with their normals leading with +1
_SEAMS = (_halfplane((ONE, ZERO), (ZERO, ZERO)), _halfplane((ZERO, ONE), (ZERO, ZERO)))


def _values(ring: Sequence[Point], plane) -> list[PhiNumber]:
    """<normal, v> - offset for every vertex v of the ring, built in the
    halfplane's form: the numbers _cut_point reads at the ends of an edge."""
    (_, m), offset, axis, lower, bound = plane
    if axis is not None:
        if lower:
            return [bound - v[axis] for v in ring]
        return [v[axis] - bound for v in ring]
    if lower:
        return [m * v[1] - (v[0] + offset) for v in ring]
    return [m * v[1] + (v[0] - offset) for v in ring]


def _integers(x: PhiNumber) -> tuple[int, int, int]:
    """Integers (p, q, d), d > 0, with x = (p + q*phi) / d, not reduced."""
    p, dp = x.a.as_integer_ratio()
    q, dq = x.b.as_integer_ratio()
    return p * dq, q * dp, dp * dq


def _side(v: Point, plane) -> int:
    """The sign of <normal, v> - offset, decided by _sign on unreduced
    integer numerators as a comparison is: -1 inside, 0 on the line."""
    (_, m), offset, axis, lower, bound = plane
    if axis is not None:
        s = v[axis]._compare(bound)
        return -s if lower else s
    (mp, mq, md), (op, oq, od) = _integers(m), _integers(offset)
    (xp, xq, xd), (yp, yq, yd) = _integers(v[0]), _integers(v[1])
    # the value times md*yd * xd*od > 0 is a + b*phi
    d, e, s = md * yd, xd * od, -1 if lower else 1
    a = (mp * yp + mq * yq) * e + (s * xp * od - op * xd) * d
    b = (mp * yq + mq * yp + mq * yq) * e + (s * xq * od - oq * xd) * d
    return _sign(a, 1, b, 1)


def _holds_on_box(plane, box) -> bool:
    """True when an axis halfplane holds on the whole box (x0, y0, x1, y1)."""
    _, _, axis, lower, bound = plane
    if axis is None:
        return False
    return bound <= box[axis] if lower else box[axis + 2] <= bound


def _split(part, plane):
    """The parts of a convex ring with <normal, x> <= offset and with
    <normal, x> >= offset for the halfplane's normal and offset.

    A part is a vertex ring with the halfplanes of its edges, the one of
    edge (ring[i], ring[i+1]) at i; both parts keep the input's vertex
    order.  The side of each vertex is read once by _side, and both parts
    share the cut points, the only numbers built, each where the cut line
    meets the line of its edge.  An uncut edge keeps its halfplane, and an
    edge on the cut line has the cut halfplane, or its opposite on the far
    side.  A part holding every vertex is the input itself, and a part
    without interior is empty.  A counterclockwise ring without repeated
    or collinear vertices cuts into rings of the same kind: the line holds
    at most two of a part's points, both on its cut side.
    """
    ring, planes = part
    signs = [_side(v, plane) for v in ring]
    if max(signs) <= 0:
        return part, ((), ())
    if min(signs) >= 0:
        return ((), ()), part
    far = _opposite(plane)
    inside: list[Point] = []
    inside_planes: list = []
    outside: list[Point] = []
    outside_planes: list = []
    last = len(ring) - 1
    for i, cur in enumerate(ring):
        j = i + 1 if i < last else 0
        sc, sn = signs[i], signs[j]
        edge = planes[i]
        # a vertex on the cut line leaves its part along that line when the
        # next vertex is on the other side
        if sc <= 0:
            inside.append(cur)
            inside_planes.append(plane if sc == 0 and sn > 0 else edge)
        if sc >= 0:
            outside.append(cur)
            outside_planes.append(far if sc == 0 and sn < 0 else edge)
        if sc * sn < 0:
            cut = _cut_point(cur, ring[j], plane, edge)
            inside.append(cut)
            outside.append(cut)
            inside_planes.append(plane if sc < 0 else edge)
            outside_planes.append(edge if sc < 0 else far)
    return (inside, inside_planes), (outside, outside_planes)


def _cut_point(a: Point, b: Point, plane, edge) -> Point:
    """The point of segment ab on the halfplane's line, for ends on opposite
    sides of it; edge is a halfplane whose line holds ab.

    Where one of the two lines is an axis line, the point is read off the
    other line: x = c meets u*x + m*y = o at y = (o - u*c) * (1/m), and
    y = c meets it at x = u*(o - m*c), with 1/m from the slanted line's
    form.  Two axis lines meet at their bounds.  Two slanted lines meet at
    a + t*(b - a) for t = va / (va - vb), the values of the ends.
    """
    if plane[2] is None and edge[2] is not None:
        plane, edge = edge, plane
    axis = plane[2]
    if axis is not None:
        c = plane[4]
        (_, m), offset, edge_axis, lower, last = edge
        if edge_axis is not None:
            return (c, last) if axis == 0 else (last, c)
        if axis == 0:
            return c, (offset + c if lower else offset - c) * last
        x = offset - m * c
        return -x if lower else x, c
    va, vb = _values((a, b), plane)
    t = va / (va - vb)
    return tuple(a[k] + t * (b[k] - a[k]) for k in (0, 1))


def _halfplanes(poly: Polygon) -> tuple:
    """The halfplanes of the polygon's edges, one per edge in vertex order,
    whose intersection is the polygon; built once and cached on it, unless
    the polygon was cut or moved from one that had them."""
    if poly._planes is None:
        planes = []
        for p, q in poly.edges():
            # inward side of edge (p, q) of a CCW polygon: cross(q-p, x-p) >= 0,
            # i.e. <n, x> <= <n, p> for n = (qy - py, px - qx)
            normal = (q[1] - p[1], p[0] - q[0])
            planes.append(_halfplane(normal, p))
        object.__setattr__(poly, "_planes", tuple(planes))
    return poly._planes


def _part(poly: Polygon):
    """The polygon's ring with the halfplanes of its edges, as _split cuts it."""
    return poly.vertices, _halfplanes(poly)


def _piece(poly: Polygon, part) -> Optional[Polygon]:
    """The polygon of a canonical part cut from poly, None when it is empty:
    poly itself when it is poly's own ring, else from its least vertex,
    with the halfplanes of its edges."""
    ring, planes = part
    if ring is poly.vertices:
        return poly
    if len(ring) < 3:
        return None
    start = min(range(len(ring)), key=ring.__getitem__)
    return Polygon._canonical(
        tuple(ring[start:]) + tuple(ring[:start]), tuple(planes[start:]) + tuple(planes[:start])
    )


def convex_intersection(a: Polygon, b: Polygon) -> Optional[Polygon]:
    """a & b, None when it has no interior: a's ring cut by each edge
    halfplane of b, skipping the axis halfplanes that hold on a's box."""
    box = a.bbox()
    part = _part(a)
    for plane in _halfplanes(b):
        if _holds_on_box(plane, box):
            continue
        part = _split(part, plane)[0]
        if len(part[0]) < 3:
            return None
    return _piece(a, part)


def split_cells(cells, pieces):
    """Yield (cell & piece, data, tag) for every (cell, data) and (piece, tag)
    whose interiors meet; bounding boxes reject most pairs before clipping."""
    for cell, data in cells:
        for piece, tag in pieces:
            if bbox_overlap(cell, piece):
                part = convex_intersection(cell, piece)
                if part is not None:
                    yield part, data, tag


def closure_hits(cells, points: Sequence[Point]) -> tuple[list, bool]:
    """The data of the (cell, data) pairs whose closed cells hold one of the
    points, and whether a cell holds one in its interior.

    Bounding boxes reject most cells before the exact test.  A point inside
    a cell lies in no other cell of a partition, so such a cell is returned
    alone at once.
    """
    hits = []
    for cell, data in cells:
        x0, y0, x1, y1 = cell.bbox()
        for x in points:
            if x0 <= x[0] <= x1 and y0 <= x[1] <= y1:
                where = cell.locate(x)
                if where == "interior":
                    return [data], True
                if where == "boundary":
                    hits.append(data)
                    break
    return hits, False


def _leaving(cells: Iterable[Polygon], lattice) -> Optional[str]:
    """Which cell's bounding box leaves [0, l1] x [0, l2], or None."""
    for cell in cells:
        x0, y0, x1, y1 = cell.bbox()
        if x0 < 0 or y0 < 0 or x1 > lattice[0] or y1 > lattice[1]:
            return f"cell {cell} leaves the fundamental rectangle"
    return None


def tiling_defect(cells: Sequence[Polygon], lattice) -> Optional[str]:
    """Why the cells fail to tile the rectangle [0, l1] x [0, l2] with
    disjoint interiors, or None when they tile it."""
    if leaving := _leaving(cells, lattice):
        return leaving
    l1, l2 = lattice
    doubled = _doubled_area_sum(cells)
    if doubled != 2 * l1 * l2:
        return f"cells cover area {doubled / PhiNumber(2)}, not the covolume {l1 * l2}"
    for i, a in enumerate(cells):
        for b in cells[i + 1:]:
            if bbox_overlap(a, b) and convex_intersection(a, b) is not None:
                return f"cells {a} and {b} overlap"
    return None


def rotation_rectangles(lattice, v: Point) -> list[tuple[Polygon, Point]]:
    """The rotation x -> x + v, v in [0, l1] x [0, l2], as <= 4 rectangles
    tiling the fundamental rectangle, each with its vector: v, less the
    lattice side on each axis where x + v passes that side."""
    (l1, l2), (v1, v2) = lattice, v
    xs = ((ZERO, l1 - v1, v1), (l1 - v1, l1, v1 - l1))
    ys = ((ZERO, l2 - v2, v2), (l2 - v2, l2, v2 - l2))
    return [
        (rectangle(x0, y0, x1, y1), (dx, dy))
        for x0, x1, dx in xs if x0 < x1 for y0, y1, dy in ys if y0 < y1
    ]


def rotated(cells, lattice, v: Point) -> list:
    """The (cell, data) pairs, cells in the fundamental rectangle, moved by
    the rotation by v: split against its rectangles, each part translated."""
    pieces = [(rect, u if u[0] or u[1] else None) for rect, u in rotation_rectangles(lattice, v)]
    return [(p if u is None else p.translate(u), data) for p, data, u in split_cells(cells, pieces)]


def _axis_shifts(lo, hi, period, box_lo, box_hi) -> list[PhiNumber]:
    """Multiples k*period moving the interval [lo, hi] to meet [box_lo, box_hi]
    in an open interval, or anywhere in the closed box when lo == hi, so that
    a segment on a seam keeps its translates on both sides of the rectangle.
    The first is reached by additions: doubling strides, then halving."""
    point = lo == hi

    def meets(shift) -> bool:
        return (hi + shift)._compare(box_lo) >= (0 if point else 1)

    below, step = ZERO, period
    while meets(below):
        below, step = below - step, step + step
    strides, step = [], period
    while not meets(below + step):
        strides.append(step)
        below, step = below + step, step + step
    for stride in reversed(strides):
        if not meets(below + stride):
            below = below + stride
    shift = below + period
    shifts = []
    while lo + shift < box_hi or (point and lo + shift == box_hi):
        shifts.append(shift)
        shift = shift + period
    return shifts


# ---------------------------------------------------------------------------
# lines, intervals and edge bookkeeping


def _edge_key(p: Point, q: Point, lattice, plane):
    """(line, lo, hi) of the segment pq on the torus of the lattice: the
    halfplane of pq whose normal leads with +1, one for both orientations,
    read off plane, a halfplane whose line holds pq, and the free
    coordinates of p and q.  A line at x = l1 or y = l2 is keyed as its
    seam twin through the origin, which keeps them."""
    line = _opposite(plane) if plane[3] else plane
    _, _, axis, _, bound = line
    if axis is not None and bound == lattice[axis]:
        line = _SEAMS[axis]
    free = 0 if axis == 1 else 1
    lo, hi = sorted((p[free], q[free]))
    return line, lo, hi


def _edge_sweep(cells: Sequence[Polygon], lattice):
    """Yield (line, lo, hi, cell indices) for every elementary interval of
    the cells' edges on the torus, with the indices of the edges over it."""
    by_line: dict = {}
    for idx, cell in enumerate(cells):
        for (p, q), plane in zip(cell.edges(), _halfplanes(cell)):
            line, lo, hi = _edge_key(p, q, lattice, plane)
            by_line.setdefault(line, []).append((lo, hi, idx))
    for line, entries in by_line.items():
        points = sorted({e[0] for e in entries} | {e[1] for e in entries})
        for lo, hi in zip(points, points[1:]):
            covering = [e[2] for e in entries if e[0] <= lo and hi <= e[1]]
            if covering:
                yield line, lo, hi, covering


def _interval_minus(lo, hi, covered) -> bool:
    """True iff (lo, hi) has an open sub-interval that none of the covered
    intervals, sorted by their lower ends, covers."""
    cursor = lo
    for clo, chi in covered:
        if chi <= cursor:
            continue
        if clo >= hi:
            break
        if clo > cursor:
            return True
        cursor = max(cursor, chi)
        if cursor >= hi:
            return False
    return cursor < hi


# ---------------------------------------------------------------------------
# torus partitions


class TorusPartition:
    """Labeled partition of the torus of a diagonal lattice l1 Z x l2 Z.

    Each atom is a tuple of convex cells with pairwise disjoint interiors.
    """

    def __init__(self, lattice, atoms: dict[int, tuple[Polygon, ...]]):
        self.lattice = (_num(lattice[0]), _num(lattice[1]))
        self.atoms = dict(atoms)

    def labels(self) -> list[int]:
        return sorted(self.atoms)

    def cells(self):
        for label in sorted(self.atoms):
            for cell in self.atoms[label]:
                yield label, cell

    def relabel(self, mapping: dict[int, int]) -> "TorusPartition":
        return TorusPartition(
            self.lattice, {mapping[a]: r for a, r in self.atoms.items()}
        )

    def reduce_point(self, x: Point) -> Point:
        return (x[0] % self.lattice[0], x[1] % self.lattice[1])

    def locate(self, x: Point) -> int:
        """Label of the atom whose interior contains the reduced point.

        The point lies on the partition boundary exactly when closed cells
        of two atoms hold it or one of its seam twins on the far sides of
        the fundamental rectangle.
        """
        u = self.reduce_point(x)
        xs = (u[0],) if u[0] else (u[0], self.lattice[0])
        ys = (u[1],) if u[1] else (u[1], self.lattice[1])
        hits, _ = closure_hits(
            ((cell, label) for label, cell in self.cells()), list(product(xs, ys))
        )
        if not hits:
            raise ValueError(f"point ({x[0]}, {x[1]}) not located in any atom")
        if len(set(hits)) > 1:
            raise BoundaryHit(f"point ({x[0]}, {x[1]}) lies on the partition boundary")
        return hits[0]

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "lattice": [str(self.lattice[0]), str(self.lattice[1])],
            "atoms": {
                str(label): [
                    [[str(v[0]), str(v[1])] for v in cell.vertices]
                    for cell in cells
                ]
                for label, cells in sorted(self.atoms.items())
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "TorusPartition":
        """Load a partition, checking that its atoms are labeled 0..n-1 and
        tile the torus; a malformed atom or cell is named in the error."""
        from .phifield import parse_phi

        for key in ("lattice", "atoms"):
            if not isinstance(data, dict) or key not in data:
                raise ValueError(f"partition JSON has no {key!r} key")
        if not isinstance(data["lattice"], list) or len(data["lattice"]) != 2:
            raise ValueError(f"lattice must be a list of two entries, got {data['lattice']!r}")
        lattice = tuple(parse_phi(s) for s in data["lattice"])
        if min(lattice).sign() <= 0:
            raise ValueError(f"lattice needs two positive entries, got {data['lattice']!r}")
        if not isinstance(data["atoms"], dict):
            raise ValueError("partition atoms must map labels to lists of cells")
        atoms = {}
        for label, cells in data["atoms"].items():
            try:
                number = int(label)
            except ValueError:
                raise ValueError(f"atom label {label!r} is not an integer") from None
            if not isinstance(cells, list):
                raise ValueError(f"atom {label}: cells must be a list, got {cells!r}")
            if not cells:
                raise ValueError(f"atom {label} has no cells")
            polygons = []
            for index, cell in enumerate(cells):
                try:
                    polygons.append(Polygon([(parse_phi(x), parse_phi(y)) for x, y in cell]))
                except (ValueError, TypeError) as exc:
                    raise ValueError(f"atom {label}, cell {index}: {exc}") from None
            atoms[number] = tuple(polygons)
        count = len(data["atoms"])
        missing = [label for label in range(count) if label not in atoms]
        if missing:
            raise ValueError(f"atom labels must be 0..{count - 1}; label {missing[0]} is missing")
        partition = cls(lattice, atoms)
        defect = tiling_defect([cell for _, cell in partition.cells()], partition.lattice)
        if defect:
            raise ValueError(f"partition does not tile the torus: {defect}")
        return partition


# ---------------------------------------------------------------------------
# arrangement of segments on the torus


def _clip_segment_to_box(p: Point, q: Point, box: Polygon, line) -> Optional[Segment]:
    """The part of pq in the closed convex box; None when it is a point or empty.

    Both ends are read on each edge halfplane of the box as _split reads a
    vertex, and an end outside moves to where the edge meets line, pq's."""
    for plane in _halfplanes(box):
        sp, sq = _side(p, plane), _side(q, plane)
        if sp >= 0 and sq >= 0 and (sp or sq):
            return None
        if sp > 0:
            p = _cut_point(p, q, plane, line)
        elif sq > 0:
            q = _cut_point(q, p, plane, line)
    return p, q


def _reduce_segments(segments, l1, l2) -> list[tuple[Segment, tuple]]:
    """The segments' lattice translates that meet the box, clipped, with their lines."""
    box = rectangle(0, 0, l1, l2)
    pieces = {}
    for p, q in segments:
        p, q = pt(*p), pt(*q)
        if p == q:
            raise DegenerateArrangement(f"zero-length segment at {p}")
        line = _halfplane((q[1] - p[1], p[0] - q[0]), p)
        xs = _axis_shifts(min(p[0], q[0]), max(p[0], q[0]), l1, ZERO, l1)
        ys = _axis_shifts(min(p[1], q[1]), max(p[1], q[1]), l2, ZERO, l2)
        for dx, dy in product(xs, ys):
            moved = _shifted(line, (dx, dy))
            ends = (p[0] + dx, p[1] + dy), (q[0] + dx, q[1] + dy)
            piece = _clip_segment_to_box(*ends, box, moved)
            if piece is not None:
                pieces[tuple(sorted(piece))] = piece, moved
    return list(pieces.values())


def partition_from_segments(segments, lattice) -> TorusPartition:
    """Faces of the arrangement of the segments' translates on the torus.

    Convex cells come from splitting the fundamental rectangle along every
    supporting line; cells are then glued back together across every edge
    piece not covered by an input segment (including across the seam of
    the fundamental domain), and each resulting face becomes an atom with
    a provisional label.
    """
    l1, l2 = _num(lattice[0]), _num(lattice[1])
    keys = [_edge_key(p, q, (l1, l2), line) for (p, q), line in _reduce_segments(segments, l1, l2)]

    # distinct supporting lines, each the halfplane that cuts along it; the
    # box boundary is keyed as the two seam lines and has no area to split
    lines = dict.fromkeys(line for line, _, _ in keys if line not in _SEAMS)

    cells = [rectangle(0, 0, l1, l2)]
    for plane in lines:
        cells = [
            piece
            for cell in cells
            for part in _split(_part(cell), plane)
            if (piece := _piece(cell, part)) is not None
        ]

    # covered intervals per line (seam-canonicalized) from the cut segments,
    # sorted by their lower ends
    covered: dict = {}
    for line, lo, hi in sorted(keys, key=lambda key: key[1:]):
        covered.setdefault(line, []).append((lo, hi))

    # glue cells along shared edge pieces not covered by segments
    glued = (
        (covering[0], idx)
        for line, lo, hi, covering in _edge_sweep(cells, (l1, l2))
        if len(covering) > 1 and _interval_minus(lo, hi, covered.get(line, []))
        for idx in covering[1:]
    )
    atoms = [
        tuple(sorted((cells[idx] for idx in group), key=lambda c: c.vertices))
        for group in classes(len(cells), glued)
    ]
    atoms.sort(key=lambda atom: atom[0].vertices)
    return TorusPartition((l1, l2), dict(enumerate(atoms)))


# ---------------------------------------------------------------------------
# relabeling and comparison


def relabel_to_match(partition: TorusPartition, horizontal, vertical, coded) -> dict[int, int]:
    """The unique letter map making the coded dominoes land in the references.

    ``horizontal`` and ``vertical`` are sets of (left, right) and
    (bottom, top) letter pairs; ``coded`` is the pair of the same two sets
    for the partition's own labels.  A bijective map from those labels is
    searched so that every coded domino lies in the references; the search
    is pure, nothing is computed from the geometry.  No run calls it: the
    atoms take their letters from ``catalog.atom_points``, and the tests
    use this search as the oracle of those letters.
    """
    h_pairs, v_pairs = coded
    labels = partition.labels()
    targets = sorted({a for pair in horizontal | vertical for a in pair})
    if len(targets) < len(labels):
        raise NoConsistentLabeling("reference alphabet smaller than atom count")
    relations = ((h_pairs, horizontal), (v_pairs, vertical))
    solutions = list(islice(bijections(labels, targets, relations), 2))
    if not solutions:
        raise NoConsistentLabeling("no labeling matches the reference dominoes")
    if len(solutions) > 1:
        raise AmbiguousLabeling("several labelings match the reference dominoes")
    return solutions[0]


def is_equal_up_to_relabeling(p: TorusPartition, q: TorusPartition):
    """Label map a -> b with atom_p(a) = atom_q(b) up to null sets, or None."""
    if p.lattice != q.lattice or len(p.atoms) != len(q.atoms):
        return None
    # atoms of equal area are equal up to null sets when their intersection
    # has that area too; every area is computed once, and doubled
    areas = {b: _doubled_area_sum(cells) for b, cells in q.atoms.items()}
    mapping = {}
    for a, cells in p.atoms.items():
        area = _doubled_area_sum(cells)
        mine = [(cell, None) for cell in cells]
        matches = [
            b
            for b, other in q.atoms.items()
            if areas[b] == area
            and _doubled_area_sum(
                part for part, _, _ in split_cells(mine, [(cell, None) for cell in other])
            ) == area
        ]
        if len(matches) != 1:
            return None
        mapping[a] = matches[0]
    if len(set(mapping.values())) != len(mapping):
        return None
    return mapping


def rescale(partition: TorusPartition, factor, translation=(0, 0)) -> TorusPartition:
    """Map atoms by x -> factor*x + t and reduce into the scaled lattice l':
    each cell is scaled, lifted by l' for a negative factor and moved by the
    rotation by t mod l'; a cell outside the fundamental rectangle is refused."""
    factor = _num(factor)
    if factor.sign() == 0:
        raise ZeroFactor("rescale factor must be nonzero")
    if leaving := _leaving((cell for _, cell in partition.cells()), partition.lattice):
        raise ValueError(leaving)
    scale_abs = factor if factor.sign() > 0 else -factor
    new_lattice = (partition.lattice[0] * scale_abs, partition.lattice[1] * scale_abs)
    lift = (ZERO, ZERO) if factor.sign() > 0 else new_lattice
    t = (_num(translation[0]) % new_lattice[0], _num(translation[1]) % new_lattice[1])
    scaled = []
    for label, cell in partition.cells():
        # x -> factor*x + lift has determinant factor^2 > 0: keeps a ring canonical
        ring = [(v[0] * factor + lift[0], v[1] * factor + lift[1]) for v in cell.vertices]
        planes = [_shifted(_scaled(plane, factor), lift) for plane in _halfplanes(cell)]
        scaled.append((_piece(cell, (ring, planes)), label))
    atoms = {label: [] for label in partition.atoms}
    for piece, label in rotated(scaled, new_lattice, t):
        atoms[label].append(piece)
    return TorusPartition(
        new_lattice, {a: tuple(sorted(p, key=lambda c: c.vertices)) for a, p in atoms.items()}
    )
