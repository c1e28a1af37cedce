"""Brute-force oracles used by tests, independent of the library's own paths.

The preimage parser enumerates every centered block decomposition of a
finite window under a rule table: all anchors, all block scaffolds
(column widths and row heights drawn from the rule's image shapes), and
all letters per block consistent with the window on overlap.

The tiling oracles are an edge-checked enumeration of rectangle tilings,
an exhaustive enumeration of torus tilings, a second complete solver
(the exact-cover reduction solved by Algorithm X, Knuth, "Dancing Links"),
and the reference search: the backtracking search that looks up at every
node which neighbors of the next cell are assigned, with its outward cell
order computed by a min over every fixed cell.  The library's search walks
the same tree on a plan fixed by its cell order.

The substitution oracles are the language of factors of iterated letter
images, the seed graph over all k^4 2x2 words of a k-letter rule with its
cycle vertices found by Tarjan's strongly connected components, and
expansiveness read off the shapes of iterated letter images.

The clipping oracles build a normalized Polygon after every halfplane cut;
clip is the library's one-halfplane cut, kept here for the tests.
The arrangement oracle clips every lattice translate of a segment in a
range of shifts bounded by floors of its own, and splits each cell by each
line with two such clips, one per side.  Its lines are (A, B, C) keys of
A x + B y = C, and it clips a segment by Liang-Barsky parameters, so it
shares neither the line form nor the segment clip with the library.

Tile-set equivalence is searched on the color maps themselves: each tile
is matched in turn, extending the maps or backtracking.

A point is located against a polygon by cross products with its edges,
and the lattice shifts of an interval are found by the former rule of
_axis_shifts: a division by the period and a floor.  The former rule of
the refinement and of rescale moves a cell by every lattice translate
whose bounding box meets the box and clips each translate to it.

The last section holds helpers that only tests call: words from rows,
the empty word and concatenation, the identity morphism, first return
times and return words, the coded dominoes of refined cells, the area and
covolume of a partition, and the inverse of a polygon exchange.
"""

from __future__ import annotations

from itertools import product

from aperiodic_kit.geometry import (
    DegenerateArrangement,
    Polygon,
    TorusPartition,
    _area_sum,
    _edge_key,
    _edge_sweep,
    _halfplane,
    _interval_minus,
    _num,
    _part,
    _piece,
    _split,
    _values,
    convex_intersection,
    pt,
    rectangle,
)
from aperiodic_kit.morphisms import Morphism2d, NotStabilized, UndefinedImage
from aperiodic_kit.pet import PolygonExchange, TorusAction, Window, config_patch
from aperiodic_kit.phifield import ONE, ZERO, PhiNumber
from aperiodic_kit.wang import (
    BOTTOM,
    LEFT,
    RIGHT,
    TOP,
    TilingInstance,
    _normalize,
)
from aperiodic_kit.words import ShapeMismatch, Word2d, subwords


def _splittings(total: int, start_offset: int, sizes: list[int]):
    """Sequences of sizes tiling [start_offset, total) from start_offset <= 0."""

    def rec(position, acc):
        if position >= total:
            yield tuple(acc)
            return
        for s in sizes:
            acc.append(s)
            yield from rec(position + s, acc)
            acc.pop()

    yield from rec(start_offset, [])


def centered_preimage_candidates(
    m: Morphism2d, window: Word2d, language_check=None
):
    """Distinct centered decompositions of the window under the rule table.

    A candidate is (anchor, interior letters): the anchor positions the
    image of the preimage's origin letter over the window's (0,0) cell,
    and the interior letters are those of blocks lying entirely inside
    the window (boundary blocks are cut off and their letters are not
    determined by the window).  A configuration-level centered preimage
    restricts to such a candidate, so recognizability predicts at most
    one candidate per language window.

    ``language_check(patch)`` may reject candidates whose interior patch
    cannot occur in the subshift at all; preimages of the definition are
    configurations of the subshift, so this keeps the oracle faithful
    while pruning decompositions that exist only locally.
    """
    width, height = window.shape
    widths = sorted({m.image(a).shape[0] for a in range(m.domain_size)})
    heights = sorted({m.image(a).shape[1] for a in range(m.domain_size)})
    by_shape: dict = {}
    for a in range(m.domain_size):
        by_shape.setdefault(m.image(a).shape, []).append(a)

    candidates = set()
    for kx, ky in product(range(max(widths)), range(max(heights))):
        for col_widths in _splittings(width, -kx, widths):
            if kx >= col_widths[0]:
                continue  # anchor must fall inside the first block
            xs = [-kx]
            for w in col_widths:
                xs.append(xs[-1] + w)
            for row_heights in _splittings(height, -ky, heights):
                if ky >= row_heights[0]:
                    continue
                ys = [-ky]
                for h in row_heights:
                    ys.append(ys[-1] + h)
                interior = {}
                feasible = True
                for i, w in enumerate(col_widths):
                    for j, h in enumerate(row_heights):
                        matches = [
                            a
                            for a in by_shape.get((w, h), [])
                            if _block_matches(m, window, a, xs[i], ys[j])
                        ]
                        if not matches:
                            feasible = False
                            break
                        inside = (
                            xs[i] >= 0
                            and ys[j] >= 0
                            and xs[i] + w <= width
                            and ys[j] + h <= height
                        )
                        if inside:
                            if len(matches) > 1:
                                raise AssertionError(
                                    "two letters share a full image block"
                                )
                            interior[(i, j)] = matches[0]
                    if not feasible:
                        break
                if not feasible:
                    continue
                patch = _interior_patch(interior)
                if patch is not None and language_check is not None:
                    if not language_check(patch):
                        continue
                candidates.add(
                    (
                        (kx, ky),
                        tuple(sorted((xs[i], ys[j], a) for (i, j), a in interior.items())),
                    )
                )
    return candidates


def _interior_patch(interior: dict):
    """Interior block letters as a word in block coordinates, if rectangular."""
    if not interior:
        return None
    cols = sorted({i for i, _ in interior})
    rows = sorted({j for _, j in interior})
    if len(cols) * len(rows) != len(interior):
        return None
    try:
        return Word2d(
            [[interior[(i, j)] for j in rows] for i in cols]
        )
    except KeyError:
        return None


def _block_matches(m, window, letter, x0, y0) -> bool:
    image = m.image(letter)
    width, height = window.shape
    for dx in range(image.shape[0]):
        for dy in range(image.shape[1]):
            x, y = x0 + dx, y0 + dy
            if 0 <= x < width and 0 <= y < height:
                if window[x, y] != image[dx, dy]:
                    return False
    return True


def candidates_consistent(candidates) -> bool:
    """True iff all candidates share one anchor and agree on shared blocks.

    Finite windows cannot determine the block scaffold at their far edges,
    so distinct candidates legitimately differ by boundary refinements;
    recognizability at the window scale means they never conflict.
    """
    candidates = list(candidates)
    if len({k for k, _ in candidates}) > 1:
        return False
    for i in range(len(candidates)):
        a = {(x, y): letter for x, y, letter in candidates[i][1]}
        for j in range(i + 1, len(candidates)):
            for (x, y, letter) in candidates[j][1]:
                if a.get((x, y), letter) != letter:
                    return False
    return True


def translate_overlap_agrees(w: Word2d, p: tuple[int, int]) -> bool:
    """True iff w agrees with its translate by p wherever both are defined."""
    px, py = p
    n1, n2 = w.shape
    for x in range(n1):
        for y in range(n2):
            if 0 <= x + px < n1 and 0 <= y + py < n2:
                if w[x, y] != w[x + px, y + py]:
                    return False
    return True


def periodic_admissible_extension(
    w: Word2d, p: tuple[int, int], h_pairs, v_pairs, margin: int = 4
) -> bool:
    """Can w extend to a p-periodic pattern with all dominoes allowed?

    Complete backtracking over the inflated support with the letters at z
    and z + p identified.
    """
    n1, n2 = w.shape
    width, height = n1 + 2 * margin, n2 + 2 * margin
    px, py = p

    # representative for each periodicity class inside the domain
    def canon(cell):
        x, y = cell
        if px or py:
            # walk back along p while staying in the domain
            while 0 <= x - px < width and 0 <= y - py < height and (
                (x - px, y - py) < (x, y)
            ):
                x, y = x - px, y - py
            while 0 <= x + px < width and 0 <= y + py < height and (
                (x + px, y + py) < (x, y)
            ):
                x, y = x + px, y + py
        return (x, y)

    fixed = {}
    for x in range(n1):
        for y in range(n2):
            cell = canon((x + margin, y + margin))
            if cell in fixed and fixed[cell] != w[x, y]:
                return False
            fixed[cell] = w[x, y]

    order = [(x, y) for y in range(height) for x in range(width)]
    assignment: dict = {}

    right_of = {}
    above_of = {}
    for a, b in h_pairs:
        right_of.setdefault(a, set()).add(b)
    for a, b in v_pairs:
        above_of.setdefault(a, set()).add(b)

    def candidates(cell):
        key = canon(cell)
        if key in assignment:
            return [assignment[key]]
        x, y = cell
        choices = [fixed[key]] if key in fixed else list(range(19))
        left = assignment.get(canon((x - 1, y)))
        below = assignment.get(canon((x, y - 1)))
        if left is not None:
            allowed = right_of.get(left, set())
            choices = [c for c in choices if c in allowed]
        if below is not None:
            allowed = above_of.get(below, set())
            choices = [c for c in choices if c in allowed]
        return choices

    def backtrack(i):
        if i == len(order):
            return True
        cell = order[i]
        key = canon(cell)
        if key in assignment:
            # identified with an earlier cell; just re-check local edges
            x, y = cell
            value = assignment[key]
            left = assignment.get(canon((x - 1, y)))
            below = assignment.get(canon((x, y - 1)))
            if left is not None and value not in right_of.get(left, set()):
                return False
            if below is not None and value not in above_of.get(below, set()):
                return False
            return backtrack(i + 1)
        for value in candidates(cell):
            assignment[key] = value
            if backtrack(i + 1):
                return True
            del assignment[key]
        return False

    return backtrack(0)


def _seam_twins(lattice, x):
    """The reduced point together with its translates onto the far sides
    of the fundamental rectangle when it lies on the seam."""
    l1, l2 = lattice
    x = (x[0] % l1, x[1] % l2)
    xs = [x[0], x[0] + l1] if x[0] == 0 else [x[0]]
    ys = [x[1], x[1] + l2] if x[1] == 0 else [x[1]]
    return [(u, v) for u in xs for v in ys]


def _turn(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def cross_product_locate(poly, x) -> str:
    """'interior', 'boundary' or 'outside' for a convex counterclockwise
    polygon, from the sign of the cross product of every edge with x."""
    vs = poly.vertices
    signs = {_turn(vs[i - 1], vs[i], x).sign() for i in range(len(vs))}
    if -1 in signs:
        return "outside"
    return "boundary" if 0 in signs else "interior"


def axis_shifts_by_floor(lo, hi, period, box_lo, box_hi) -> list:
    """geometry._axis_shifts by its former rule: the first multiple from a
    division by the period and a floor, then each next one up to the box."""
    point = lo == hi
    k = -((hi - box_lo) / period).floor() if point else ((box_lo - hi) / period).floor() + 1
    shift = PhiNumber(k) * period
    shifts = []
    while lo + shift < box_hi or (point and lo + shift == box_hi):
        shifts.append(shift)
        shift = shift + period
    return shifts


def lattice_pieces(poly, lattice, box, offset=(ZERO, ZERO)) -> list:
    """Pieces of poly + offset + k*lattice inside box, over all k in Z^2:
    each translate whose bounding box meets the box's on both axes,
    clipped to the box."""
    x0, y0, x1, y1 = poly.bbox()
    bx0, by0, bx1, by1 = box.bbox()
    pieces = []
    for dx in axis_shifts_by_floor(x0 + offset[0], x1 + offset[0], lattice[0], bx0, bx1):
        for dy in axis_shifts_by_floor(y0 + offset[1], y1 + offset[1], lattice[1], by0, by1):
            piece = convex_intersection(poly.translate((offset[0] + dx, offset[1] + dy)), box)
            if piece is not None:
                pieces.append(piece)
    return pieces


def rescale_by_translates(partition, factor, translation) -> TorusPartition:
    """geometry.rescale by the former rule: each cell mapped by
    x -> factor*x + t, normalized afresh, and its lattice_pieces in the
    scaled rectangle."""
    factor = _num(factor)
    t = pt(*translation)
    scale = factor if factor.sign() > 0 else -factor
    lattice = (partition.lattice[0] * scale, partition.lattice[1] * scale)
    box = rectangle(0, 0, *lattice)
    atoms = {}
    for label, cells in partition.atoms.items():
        pieces = [
            piece
            for cell in cells
            for piece in lattice_pieces(
                Polygon([(v[0] * factor + t[0], v[1] * factor + t[1]) for v in cell.vertices]),
                lattice,
                box,
            )
        ]
        atoms[label] = tuple(sorted(pieces, key=lambda c: c.vertices))
    return TorusPartition(lattice, atoms)


def _labeled_cells(partition):
    return [(label, cell) for label, cells in partition.atoms.items() for cell in cells]


def _float_box(segment):
    xs = [float(v[0]) for v in segment]
    ys = [float(v[1]) for v in segment]
    return min(xs), min(ys), max(xs), max(ys)


def brute_force_cuts(partition) -> list:
    """Boundary pieces of the partition, from its cells' edges alone.

    Every pair of cell edges with different labels, one of them moved by a
    seam translate (k1*l1, k2*l2) with k1, k2 in {-1, 0, 1}, is tested for
    a collinear overlap of positive length; each such overlap is a cut.
    """
    l1, l2 = partition.lattice
    edges = [(label, e) for label, cell in _labeled_cells(partition) for e in cell.edges()]
    moved = [
        (label, ((p[0] + dx, p[1] + dy), (q[0] + dx, q[1] + dy)))
        for label, (p, q) in edges
        for dx in (-l1, ZERO, l1)
        for dy in (-l2, ZERO, l2)
    ]
    boxes = [_float_box(e) for _, e in moved]
    cuts = []
    for label, (p, q) in edges:
        d = (q[0] - p[0], q[1] - p[1])
        dd = d[0] * d[0] + d[1] * d[1]
        x0, y0, x1, y1 = _float_box((p, q))
        for (other, (r, s)), (u0, v0, u1, v1) in zip(moved, boxes):
            # a float prefilter with a generous margin; the test itself is exact
            if other == label or u0 > x1 + 1e-9 or x0 > u1 + 1e-9 or v0 > y1 + 1e-9 or y0 > v1 + 1e-9:
                continue
            if _turn(p, q, r) != 0 or _turn(p, q, s) != 0:
                continue
            tr = (r[0] - p[0]) * d[0] + (r[1] - p[1]) * d[1]
            ts = (s[0] - p[0]) * d[0] + (s[1] - p[1]) * d[1]
            lo, hi = max(ZERO, min(tr, ts)), min(dd, max(tr, ts))
            if lo < hi:
                cuts.append(tuple((p[0] + d[0] * t / dd, p[1] + d[1] * t / dd) for t in (lo, hi)))
    return cuts


def brute_force_on_boundary(lattice, cuts, x) -> bool:
    """x or a seam twin lies on one of the cuts: exact cross product and box test."""
    for u in _seam_twins(lattice, x):
        for p, q in cuts:
            if (
                _turn(p, q, u) == 0
                and min(p[0], q[0]) <= u[0] <= max(p[0], q[0])
                and min(p[1], q[1]) <= u[1] <= max(p[1], q[1])
            ):
                return True
    return False


def brute_force_labels(partition, x) -> set:
    """Labels of every cell whose closure holds x or one of its seam twins."""
    labels = set()
    for u in _seam_twins(partition.lattice, x):
        for label, cell in _labeled_cells(partition):
            if cross_product_locate(cell, u) != "outside":
                labels.add(label)
    return labels


def _same_torus_cell(basis, p, q) -> bool:
    """p - q lies in the lattice spanned by the columns of the basis (Cramer)."""
    (m00, m01), (m10, m11) = basis
    det = m00 * m11 - m01 * m10
    dx, dy = p[0] - q[0], p[1] - q[1]
    return (m11 * dx - m01 * dy) % det == 0 and (m00 * dy - m10 * dx) % det == 0


def brute_force_torus_tilings(tileset, basis, fixed):
    """Every periodic tiling of Z^2 by the lattice of the basis columns.

    Returns (representatives, tilings): one representative cell per class
    of Z^2 modulo the lattice (first in a scan of the det x det box) and
    every tile tuple over the representatives whose plane tiling matches
    all edges and the fixed cells, by exhaustive enumeration.
    """
    (m00, m01), (m10, m11) = basis
    det = abs(m00 * m11 - m01 * m10)
    reps = []
    for y in range(det):
        for x in range(det):
            if not any(_same_torus_cell(basis, (x, y), r) for r in reps):
                reps.append((x, y))

    def index(p):
        return next(i for i, r in enumerate(reps) if _same_torus_cell(basis, p, r))

    right = [index((x + 1, y)) for x, y in reps]
    top = [index((x, y + 1)) for x, y in reps]
    pinned: dict[int, int] = {}
    for p, t in fixed.items():
        if pinned.setdefault(index(p), t) != t:
            return reps, []
    tiles = tileset.tiles
    tilings = [
        choice
        for choice in product(range(len(tiles)), repeat=len(reps))
        if all(choice[i] == t for i, t in pinned.items())
        and all(
            tiles[choice[i]][0] == tiles[choice[right[i]]][2]
            and tiles[choice[i]][1] == tiles[choice[top[i]]][3]
            for i in range(len(reps))
        )
    ]
    return reps, tilings


def torus_word_as_tiling(basis, reps, w: Word2d):
    """The tile tuple over the representatives that a torus solution encodes,
    or None when the solution's cells are not one per class."""
    choice = [None] * len(reps)
    for cell, letter in w:
        i = next(i for i, r in enumerate(reps) if _same_torus_cell(basis, cell, r))
        if choice[i] is not None:
            return None
        choice[i] = letter
    return None if None in choice else tuple(choice)


def brute_force_satisfiable(tileset, shape) -> bool:
    """Whether some tiling of the rectangle matches every shared edge.

    Plain enumeration of the tiles cell by cell, bottom-up row-major; a
    partial assignment is dropped once its newest cell disagrees with its
    left or bottom neighbor, so every full assignment it skips is invalid.
    """
    n1, n2 = shape
    cells = [(x, y) for y in range(n2) for x in range(n1)]
    grid = {}

    def extend(i):
        if i == len(cells):
            return True
        x, y = cells[i]
        for tile in tileset.tiles:
            if x > 0 and grid[x - 1, y][0] != tile[2]:
                continue
            if y > 0 and grid[x, y - 1][1] != tile[3]:
                continue
            grid[x, y] = tile
            if extend(i + 1):
                return True
        return False

    return extend(0)


def brute_force_rectangle_tilings(tileset, shape, fixed) -> list:
    """Every tiling of the rectangle that matches its shared edges and the
    fixed cells, as words, least first along the bottom-up row-major scan.

    Plain enumeration of every filling: ``product`` runs over the cells in
    scan order with the first cell most significant, so the fillings come
    in lexicographic order of their scans.
    """
    n1, n2 = shape
    cells = [(x, y) for y in range(n2) for x in range(n1)]
    tiles = tileset.tiles
    found = []
    for choice in product(range(len(tiles)), repeat=len(cells)):
        grid = dict(zip(cells, choice))
        if all(grid[cell] == t for cell, t in fixed.items()) and all(
            (x + 1 == n1 or tiles[grid[x, y]][RIGHT] == tiles[grid[x + 1, y]][LEFT])
            and (y + 1 == n2 or tiles[grid[x, y]][TOP] == tiles[grid[x, y + 1]][BOTTOM])
            for x, y in cells
        ):
            found.append(Word2d([[grid[x, y] for y in range(n2)] for x in range(n1)]))
    return found


def reference_near_fixed_order(cells, fixed):
    """Cells sorted by (Chebyshev distance to the nearest fixed cell, y, x),
    the distance a min over every fixed cell."""
    def distance(cell):
        x, y = cell
        return min(max(abs(x - fx), abs(y - fy)) for fx, fy in fixed)

    return sorted(cells, key=lambda c: (distance(c), c[1], c[0]))


def reference_backtrack(tileset, order, fixed, neighbors, fits=None):
    """Yield every valid assignment (one live dict) along the cell order.

    The reference search: at every node it looks up which neighbors of the
    next cell the assignment holds.  The fixed tiles seed the assignment
    and are checked once by the same fit rule; ``fits`` is the fit index
    to branch on, the tile set's by default.
    """
    tiles, fits = tileset.tiles, tileset.fits if fits is None else fits
    assignment = dict(fixed)
    # 1-wide or 1-high torus: the sides on which a cell is its own neighbor
    loops = {c: [s for s in (RIGHT, TOP) if nbs[s] == c] for c, nbs in neighbors.items() if c in nbs}

    def candidates(cell):
        right, top, left, bottom = neighbors[cell]
        base = fits.get((
            tiles[assignment[right]][LEFT] if right in assignment else None,
            tiles[assignment[top]][BOTTOM] if top in assignment else None,
            tiles[assignment[left]][RIGHT] if left in assignment else None,
            tiles[assignment[bottom]][TOP] if bottom in assignment else None,
        ), ())
        if cell in loops:
            base = [t for t in base if all(tiles[t][s] == tiles[t][s ^ 2] for s in loops[cell])]
        return base

    if any(t not in candidates(cell) for cell, t in fixed.items()):
        return
    order = [cell for cell in order if cell not in fixed]
    if not order:
        yield assignment
        return
    last = len(order) - 1
    stack = [iter(candidates(order[0]))]
    while stack:
        depth = len(stack) - 1
        cell = order[depth]
        t = next(stack[-1], None)
        if t is None:
            stack.pop()
            assignment.pop(cell, None)
        elif depth == last:
            assignment[cell] = t
            yield assignment
        else:
            assignment[cell] = t
            stack.append(iter(candidates(order[depth + 1])))


def reference_solutions(instance) -> list:
    """Every solution of an instance by the reference search, as words,
    in the order it finds them."""
    normal = _normalize(instance)
    if normal is None:
        return []
    shape, cells, fixed, neighbors = normal
    return [
        Word2d([[grid[(x, y)] for y in range(shape[1])] for x in range(shape[0])])
        for grid in reference_backtrack(instance.tileset, cells, fixed, neighbors)
    ]


def reference_exists(instance) -> bool:
    """Whether an instance has a solution, by the reference search over the
    first copy of each tile, scanning outward from the fixed cells."""
    normal = _normalize(instance)
    if normal is None:
        return False
    _, cells, fixed, neighbors = normal
    tileset = instance.tileset
    fixed = {cell: tileset.representative[t] for cell, t in fixed.items()}
    order = reference_near_fixed_order(cells, fixed) if fixed else cells
    search = reference_backtrack(tileset, order, fixed, neighbors, tileset.distinct_fits)
    return next(search, None) is not None


def admits_surrounding_every_copy(tileset, u: Word2d, r: int) -> bool:
    """Whether u has an r-surrounding, by the reference search that branches
    on every tile, copies of a tile included, scanning outward from u."""
    n1, n2 = u.shape
    fixed = {(x + r, y + r): u[x, y] for x in range(n1) for y in range(n2)}
    _, cells, fixed, neighbors = _normalize(TilingInstance(tileset, (n1 + 2 * r, n2 + 2 * r), fixed))
    search = reference_backtrack(tileset, reference_near_fixed_order(cells, fixed), fixed, neighbors)
    return next(search, None) is not None


def _exact_cover_rows(tileset, cells, fixed, neighbors):
    """Option table of the exact-cover reduction.

    One primary item per cell.  For every shared edge e and color c there is
    a secondary item (e, c): the tile on the lesser side covers exactly the
    item of its own edge color, the tile on the greater side covers the
    items of every OTHER color, so two options collide precisely when their
    colors on e differ.
    """
    tiles = tileset.tiles
    vcolors = sorted({tile[side] for tile in tiles for side in (RIGHT, LEFT)})
    hcolors = sorted({tile[side] for tile in tiles for side in (TOP, BOTTOM)})
    options = {}
    for cell in cells:
        right_nb, top_nb, left_nb, bottom_nb = neighbors[cell]
        choices = [fixed[cell]] if cell in fixed else range(len(tiles))
        for t in choices:
            tile = tiles[t]
            if right_nb == cell and tile[RIGHT] != tile[LEFT]:
                continue
            if top_nb == cell and tile[TOP] != tile[BOTTOM]:
                continue
            items = [("cell", cell)]
            if right_nb is not None and right_nb != cell:
                items.append(("h", cell, right_nb, tile[RIGHT]))
            if left_nb is not None and left_nb != cell:
                items.extend(
                    ("h", left_nb, cell, c) for c in vcolors if c != tile[LEFT]
                )
            if top_nb is not None and top_nb != cell:
                items.append(("v", cell, top_nb, tile[TOP]))
            if bottom_nb is not None and bottom_nb != cell:
                items.extend(
                    ("v", bottom_nb, cell, c) for c in hcolors if c != tile[BOTTOM]
                )
            options[(cell, t)] = items
    primary = {("cell", cell) for cell in cells}
    return options, primary


def _algorithm_x(options, primary):
    """Deterministic Algorithm X over dict-of-sets; yields solutions."""
    columns: dict = {}
    for oid, items in options.items():
        for item in items:
            columns.setdefault(item, set()).add(oid)
    for item in primary:
        columns.setdefault(item, set())

    solution = []

    def select(oid):
        removed = []
        for item in options[oid]:
            if item not in columns:
                continue
            col = columns.pop(item)
            removed.append((item, col))
            for other in col:
                if other == oid:
                    continue
                for j in options[other]:
                    if j in columns:
                        columns[j].discard(other)
        return removed

    def restore(removed):
        for item, col in reversed(removed):
            columns[item] = col
            for other in col:
                for j in options[other]:
                    if j in columns:
                        columns[j].add(other)

    def search():
        active = [item for item in columns if item in primary]
        if not active:
            yield list(solution)
            return
        item = min(active, key=lambda it: (len(columns[it]), it))
        for oid in sorted(columns[item]):
            solution.append(oid)
            removed = select(oid)
            yield from search()
            restore(removed)
            solution.pop()

    return search()


def exact_cover_solve(instance):
    """A solution of a tiling instance by the exact-cover reduction, or None.

    It shares only the instance normalization with ``wang.solve`` (which
    ``brute_force_torus_tilings`` checks on its own), so it is a complete
    second opinion on satisfiability; its solution need not be the least.
    """
    normal = _normalize(instance)
    if normal is None:
        return None
    shape, cells, fixed, neighbors = normal
    options, primary = _exact_cover_rows(instance.tileset, cells, fixed, neighbors)
    for chosen in _algorithm_x(options, primary):
        grid = dict(chosen)
        return Word2d([[grid[(x, y)] for y in range(shape[1])] for x in range(shape[0])])
    return None


def iterated_language(m: Morphism2d, shape: tuple[int, int], bound: int = 40) -> set:
    """Factors of the given shape in iterated letter images.

    Applies the rule to every letter's image and collects the factors of
    every image, until an iteration adds none.
    """
    words = {a: Word2d.single(a) for a in range(m.domain_size)}
    seen: set = set()
    for _ in range(bound):
        words = {a: m.apply(w) for a, w in words.items()}
        current = set(seen)
        for w in words.values():
            if w.shape[0] >= shape[0] and w.shape[1] >= shape[1]:
                current |= subwords(w, shape)
        if current == seen and seen:
            return seen
        seen = current
    raise NotStabilized(f"language at shape {shape} still growing after {bound} iterations")


def full_graph_seeds(m: Morphism2d) -> set:
    """Cycle vertices of the factor graph over every 2x2 word.

    Every one of the k^4 words is a vertex, and the rule is applied to
    each; a word whose image is undefined or smaller than 2x2 gets no
    out-edge.
    """
    vertices = [Word2d([[a, b], [c, d]]) for a, b, c, d in product(range(m.domain_size), repeat=4)]
    index = {w: i for i, w in enumerate(vertices)}
    edges = []
    for u in vertices:
        try:
            image = m.apply(u)
        except UndefinedImage:
            edges.append([])
            continue
        if image.shape[0] < 2 or image.shape[1] < 2:
            edges.append([])
            continue
        edges.append(sorted({index[v] for v in subwords(image, (2, 2))}))
    return {vertices[i] for i in tarjan_cycle_vertices(edges)}


def expansive_by_iterates(m: Morphism2d):
    """Whether the k-th power of a k-letter rule sends every letter to an
    image at least 2x2, read off the iterated images of each letter; None
    when an iterate is undefined and no letter's defined iterates refute it.

    With every image side at least 1 the sides of a letter's iterates never
    shrink, and the letters of iterates 0..j stop growing once some j adds
    none, so by j = k - 1 every letter an iterate ever holds has shown: a
    side that ever passes 1 has passed it by the k-th power.  An empty image
    empties its letter's iterates.
    """
    verdicts = []
    for a in range(m.domain_size):
        word = Word2d.single(a)
        try:
            for _ in range(m.domain_size):
                word = m.apply(word)
        except UndefinedImage:
            verdicts.append(None)
            continue
        verdicts.append(word.shape[0] >= 2 and word.shape[1] >= 2)
    return False if False in verdicts else None if None in verdicts else True


def tarjan_cycle_vertices(edges: list[list[int]]) -> set[int]:
    """Vertices on some directed cycle of the graph with the given out-edge
    lists: those of a strongly connected component of size > 1 or with a
    self-loop (iterative Tarjan SCC)."""
    n = len(edges)
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    result: set[int] = set()
    counter = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index_of[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for j in range(ei, len(edges[v])):
                w = edges[v][j]
                if index_of[w] == -1:
                    work[-1] = (v, j + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index_of[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                if len(component) > 1 or v in edges[v]:
                    result.update(component)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return result


def segment_halfplane(p, q):
    """The library's halfplane of the segment pq: its line, with pq's left
    side inside."""
    return _halfplane((q[1] - p[1], p[0] - q[0]), p)


def halfplane(normal, offset):
    """The library's halfplane <normal, x> <= offset, for a nonzero normal."""
    offset = _num(offset)
    point = (offset / normal[0], ZERO) if normal[0] else (ZERO, offset / normal[1])
    return _halfplane(normal, point)


def clip(poly, normal, offset):
    """poly intersected with the halfplane <normal, x> <= offset; None if flat."""
    return _piece(poly, _split(_part(poly), halfplane(normal, offset))[0])


def cut_point_by_division(a, b, plane):
    """The point of segment ab on the halfplane's line, ends on opposite
    sides, as a + t*(b - a) for t = va / (va - vb) with the values of the
    ends; on an axis halfplane the cut coordinate is its bound."""
    va, vb = _values((a, b), plane)
    t = va / (va - vb)
    axis = plane[2]
    return tuple(plane[4] if k == axis else a[k] + t * (b[k] - a[k]) for k in (0, 1))


def polygon_or_none(vertices):
    try:
        return Polygon(vertices)
    except ValueError:
        return None


def clip_each_cut(poly, normal, offset):
    """poly intersected with <normal, x> <= offset, normalized; None if flat."""
    out = []
    vs = poly.vertices
    values = [normal[0] * v[0] + normal[1] * v[1] - offset for v in vs]
    for i in range(len(vs)):
        cur, nxt = vs[i], vs[(i + 1) % len(vs)]
        vc, vn = values[i], values[(i + 1) % len(vs)]
        if vc.sign() <= 0:
            out.append(cur)
        if (vc.sign() < 0 < vn.sign()) or (vn.sign() < 0 < vc.sign()):
            t = vc / (vc - vn)
            out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
    return polygon_or_none(out) if out else None


def _edge_halfplanes(poly):
    for p, q in poly.edges():
        normal = (q[1] - p[1], p[0] - q[0])
        yield normal, normal[0] * p[0] + normal[1] * p[1]


def intersection_each_cut(a, b):
    """a clipped by every edge halfplane of b, normalized after each cut."""
    result = a
    for normal, offset in _edge_halfplanes(b):
        result = clip_each_cut(result, normal, offset)
        if result is None:
            return None
    return result


def _canonical_line(p, q):
    """Hashable key (A, B, C) for the line through p and q: A x + B y = C,
    scaled so the first nonzero of (A, B) is 1."""
    a = p[1] - q[1]
    b = q[0] - p[0]
    c = a * p[0] + b * p[1]
    if a.sign() != 0:
        return (ONE, b / a, c / a)
    return (ZERO, ONE, c / b)


def edge_key_by_dot(p, q, lattice):
    """(line, lo, hi) of pq with an (A, B, C) line, keyed as its seam twin
    through the origin when it lies at x = l1 or y = l2; the parameters of
    p and q are their dot products with the direction (-B, 1), or (1, 0) on
    a horizontal line."""
    a, b, c = line = _canonical_line(p, q)
    if (not b and c == lattice[0]) or (not a and c == lattice[1]):
        line = (a, b, ZERO)
    direction = (-b, ONE) if a else (ONE, ZERO)
    lo, hi = sorted(direction[0] * x[0] + direction[1] * x[1] for x in (p, q))
    return line, lo, hi


def clip_segment_liang_barsky(p, q, box):
    """The part of pq in the closed convex box by Liang-Barsky parameters;
    None when it is a point or empty."""
    d = (q[0] - p[0], q[1] - p[1])
    t_lo, t_hi = ZERO, ONE
    for normal, offset in _edge_halfplanes(box):
        # p + t d lies in the halfplane when t <normal, d> <= room
        nd = normal[0] * d[0] + normal[1] * d[1]
        room = offset - (normal[0] * p[0] + normal[1] * p[1])
        side = nd.sign()
        if side > 0:
            t_hi = min(t_hi, room / nd)
        elif side < 0:
            t_lo = max(t_lo, room / nd)
        elif room.sign() < 0:
            return None
    if not t_lo < t_hi:
        return None
    return (
        (p[0] + t_lo * d[0], p[1] + t_lo * d[1]),
        (p[0] + t_hi * d[0], p[1] + t_hi * d[1]),
    )


def reduce_segments_each_shift(segments, l1, l2):
    """Every lattice translate of the segments in a box of shifts around
    the fundamental rectangle, clipped to the closed rectangle."""
    box = rectangle(0, 0, l1, l2)
    pieces = {}
    for p, q in segments:
        p, q = pt(*p), pt(*q)
        if p == q:
            raise DegenerateArrangement(f"zero-length segment at {p}")
        k1_lo = (-max(p[0], q[0]) / l1).floor()
        k1_hi = ((l1 - min(p[0], q[0])) / l1).floor() + 1
        k2_lo = (-max(p[1], q[1]) / l2).floor()
        k2_hi = ((l2 - min(p[1], q[1])) / l2).floor() + 1
        for k1, k2 in product(range(k1_lo, k1_hi + 1), range(k2_lo, k2_hi + 1)):
            shift = (PhiNumber(k1) * l1, PhiNumber(k2) * l2)
            piece = clip_segment_liang_barsky(
                (p[0] + shift[0], p[1] + shift[1]), (q[0] + shift[0], q[1] + shift[1]), box
            )
            if piece is not None:
                pieces[tuple(sorted(piece))] = piece
    return list(pieces.values())


def _merged(intervals):
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return merged


def partition_from_segments_each_cut(segments, lattice):
    """The arrangement partition, each cell split by each line with one
    normalized clip per side."""
    l1, l2 = pt(*lattice)
    pieces = reduce_segments_each_shift(segments, l1, l2)
    boundary_lines = {(ONE, ZERO, ZERO), (ONE, ZERO, l1), (ZERO, ONE, ZERO), (ZERO, ONE, l2)}
    lines = []
    for p, q in pieces:
        line = _canonical_line(p, q)
        if line not in boundary_lines and line not in lines:
            lines.append(line)

    cells = [rectangle(0, 0, l1, l2)]
    for a, b, c in lines:
        sides = (((a, b), c), ((-a, -b), -c))
        split = [clip_each_cut(cell, normal, offset) for cell in cells for normal, offset in sides]
        cells = [cell for cell in split if cell is not None]

    covered = {}
    for p, q in pieces:
        line, lo, hi = _edge_key(p, q, (l1, l2), segment_halfplane(p, q))
        covered.setdefault(line, []).append((lo, hi))
    covered = {line: _merged(intervals) for line, intervals in covered.items()}

    parent = list(range(len(cells)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for line, lo, hi, covering in _edge_sweep(cells, (l1, l2)):
        if len(covering) > 1 and _interval_minus(lo, hi, covered.get(line, [])):
            for idx in covering[1:]:
                ri, rj = find(covering[0]), find(idx)
                parent[max(ri, rj)] = min(ri, rj)

    groups = {}
    for idx, cell in enumerate(cells):
        groups.setdefault(find(idx), []).append(cell)
    atoms = sorted(
        (tuple(sorted(group, key=lambda c: c.vertices)) for group in groups.values()),
        key=lambda atom: atom[0].vertices,
    )
    return TorusPartition((l1, l2), dict(enumerate(atoms)))


def is_equivalent_by_color_maps(tileset: WangTileSet, other: WangTileSet):
    """Color-word maps and a tile bijection carrying one set onto the other.

    Searches for injective maps from the first set's vertical and
    horizontal colors to the second set's color tokens, together with a
    tile bijection, such that mapping every color of every tile reproduces
    the second tile list.  Returns ``(vert, horiz, bijection)`` or None.
    Tiles are matched in index order and candidates tried in index order,
    so the certificate is deterministic.
    """
    if len(tileset) != len(other):
        return None

    n = len(tileset)
    vert: dict[str, str] = {}
    horiz: dict[str, str] = {}
    bijection: dict[int, int] = {}
    used = [False] * n

    def compatible(tile: Tile, target: Tile):
        """Extend the color maps to send tile to target; None if impossible.

        Applies the new assignments immediately (returning them for
        rollback) so a color appearing twice on one tile stays consistent.
        """
        new = []
        for pos, table in ((RIGHT, vert), (TOP, horiz), (LEFT, vert), (BOTTOM, horiz)):
            src, dst = tile[pos], target[pos]
            if src in table:
                if table[src] != dst:
                    break
            elif dst in table.values():
                break  # injectivity
            else:
                table[src] = dst
                new.append((table, src))
        else:
            return new
        for table, src in new:
            del table[src]
        return None

    def search(i: int) -> bool:
        if i == n:
            return True
        tile = tileset[i]
        for j in range(n):
            if used[j]:
                continue
            extension = compatible(tile, other[j])
            if extension is None:
                continue
            used[j] = True
            bijection[i] = j
            if search(i + 1):
                return True
            used[j] = False
            del bijection[i]
            for table, src in extension:
                del table[src]
        return False

    if not search(0):
        return None
    return dict(vert), dict(horiz), dict(bijection)


# ---------------------------------------------------------------------------
# helpers that only tests call


def from_rows(rows) -> Word2d:
    """The word whose rows, listed top row first (matrix display order),
    are the given ones."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return Word2d([])
    return Word2d([[rows[y][x] for y in range(len(rows) - 1, -1, -1)] for x in range(len(rows[0]))])


def empty_word(shape=(0, 0)) -> Word2d:
    """The empty word; a shape with two nonzero dimensions is refused."""
    n1, n2 = shape
    if n1 and n2:
        raise ValueError("empty word needs a zero dimension")
    return Word2d([])


def concat(u: Word2d, v: Word2d, direction: int) -> Word2d:
    """Concatenate in direction 1 (v to the right) or 2 (v above)."""
    if direction not in (1, 2):
        raise ValueError("direction must be 1 or 2")
    (un1, un2), (vn1, vn2) = u.shape, v.shape
    if direction == 1:
        if un1 == 0:
            return v
        if vn1 == 0:
            return u
        if un2 != vn2:
            raise ShapeMismatch(f"heights differ: {un2} != {vn2}")
        return Word2d(u.columns + v.columns)
    if un2 == 0:
        return v
    if vn2 == 0:
        return u
    if un1 != vn1:
        raise ShapeMismatch(f"widths differ: {un1} != {vn1}")
    return Word2d(tuple(cu + cv for cu, cv in zip(u.columns, v.columns)))


def identity(size: int) -> Morphism2d:
    """The identity morphism on size letters."""
    return Morphism2d({a: Word2d.single(a) for a in range(size)}, size, size)


def first_return_time(action: TorusAction, window: Window, x, axis: int) -> int:
    """Least k >= 1 with x moved k steps along the axis back in the window."""

    def inside(y) -> bool:
        return ZERO <= y[window.axis - 1] < window.bound

    if not inside(x):
        raise ValueError(f"{x} is not in the window")
    step = (1, 0) if axis == 1 else (0, 1)
    y = action.translate(x, step)
    k = 1
    while not inside(y):
        y = action.translate(y, step)
        k += 1
    return k


def return_word(partition: TorusPartition, action: TorusAction, window: Window, x) -> Word2d:
    """Code block swept before the orbit of x first returns to the window."""
    r = first_return_time(action, window, x, 1)
    s = first_return_time(action, window, x, 2)
    return config_patch(partition, action, x, (r, s))


def coded_dominoes(cells: list[dict]):
    """Horizontal (left, right) and vertical (bottom, top) coded letter pairs
    of coded cells whose codes cover (0, 0), (1, 0) and (0, 1)."""
    horizontal = {(codes[(0, 0)], codes[(1, 0)]) for codes in cells}
    vertical = {(codes[(0, 0)], codes[(0, 1)]) for codes in cells}
    return horizontal, vertical


def total_area(partition: TorusPartition) -> PhiNumber:
    """The summed area of the partition's cells."""
    return _area_sum(cell for _, cell in partition.cells())


def covolume(partition: TorusPartition) -> PhiNumber:
    """The area of the fundamental rectangle of the partition's lattice."""
    return partition.lattice[0] * partition.lattice[1]


def exchange_inverse(exchange: PolygonExchange) -> PolygonExchange:
    """The exchange moving each image piece back by its vector."""
    return PolygonExchange(
        exchange.lattice,
        [(poly.translate(v), (-v[0], -v[1])) for poly, v in exchange.pieces],
    )
