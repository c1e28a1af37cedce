"""Polygon exchange transformations, torus rotations and their inductions.

The lattice actions studied here are rotations of a torus by a pair of
axis-aligned vectors; each generator is realized exactly as an exchange of
at most four rectangles.  Inducing a rotation on an axis window produces
first-return maps, return words, an induced partition, and the natural
substitution sending new letters to the return words they stand for.

Induction takes axis windows of torus rotations only, where every first
return ends (see induced_transformation); induce_action rejects a window
whose first-return map is not again a rotation as soon as it is known.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .geometry import (
    BoundaryHit,
    Point,
    Polygon,
    TorusPartition,
    _num,
    closure_hits,
    convex_split,
    lattice_pieces,
    rectangle,
    split_cells,
    tiling_defect,
)
from .morphisms import Morphism2d
from .phifield import PhiNumber
from .words import Word2d


def _vadd(a: Point, b: Point) -> Point:
    return (a[0] + b[0], a[1] + b[1])


@dataclass(frozen=True)
class Window:
    """Axis strip {x : x_axis < bound} of a fundamental rectangle."""

    axis: int
    bound: PhiNumber

    def __post_init__(self):
        if self.axis not in (1, 2):
            raise ValueError("axis must be 1 or 2")
        object.__setattr__(self, "bound", _num(self.bound))
        if self.bound.sign() <= 0:
            raise ValueError("window bound must be positive")

    def contains(self, x: Point) -> bool:
        return PhiNumber(0) <= x[self.axis - 1] < self.bound

    def sub_lattice(self, lattice) -> tuple[PhiNumber, PhiNumber]:
        """The lattice of the strip's rectangle inside that of ``lattice``."""
        side = lattice[self.axis - 1]
        if self.bound > side:
            raise ValueError(
                f"window bound {self.bound} exceeds the lattice side {side} on axis {self.axis}"
            )
        if self.axis == 1:
            return (self.bound, lattice[1])
        return (lattice[0], self.bound)


class PolygonExchange:
    """Piecewise translation exchanging polygon pieces of a rectangle domain."""

    def __init__(self, lattice, pieces):
        self.lattice = (_num(lattice[0]), _num(lattice[1]))
        self.pieces: list[tuple[Polygon, Point]] = [
            (poly, (_num(v[0]), _num(v[1]))) for poly, v in pieces
        ]

    def apply(self, x: Point) -> Point:
        """Translate x by its piece's vector; boundary points are undefined."""
        hits, interior = closure_hits(self.pieces, [x])
        if not hits:
            raise ValueError(f"({x[0]}, {x[1]}) outside the domain")
        if not interior:
            raise BoundaryHit(f"({x[0]}, {x[1]}) lies on a piece boundary")
        return _vadd(x, hits[0])

    def __call__(self, x: Point) -> Point:
        return self.apply(x)

    def inverse(self) -> "PolygonExchange":
        return PolygonExchange(
            self.lattice,
            [(poly.translate(v), (-v[0], -v[1])) for poly, v in self.pieces],
        )

    def is_bijective(self) -> bool:
        """Pieces partition the domain and so do their images (exact areas)."""
        return not any(
            tiling_defect(family, self.lattice)
            for family in (
                [poly for poly, _ in self.pieces],
                [poly.translate(v) for poly, v in self.pieces],
            )
        )

    def as_translation(self) -> Optional[Point]:
        """The single vector this PET rotates by, if all pieces agree mod lattice."""
        l1, l2 = self.lattice
        reduced = {(v[0] % l1, v[1] % l2) for _, v in self.pieces}
        if len(reduced) == 1:
            return next(iter(reduced))
        return None

    @classmethod
    def toral_translation(cls, lattice, vector) -> "PolygonExchange":
        """Rotation x -> x + v on the torus as an exchange of <= 4 rectangles."""
        l1, l2 = _num(lattice[0]), _num(lattice[1])
        v = (_num(vector[0]) % l1, _num(vector[1]) % l2)
        zero = PhiNumber(0)
        xs = [(zero, l1 - v[0], v[0]), (l1 - v[0], l1, v[0] - l1)]
        ys = [(zero, l2 - v[1], v[1]), (l2 - v[1], l2, v[1] - l2)]
        pieces = []
        for x_lo, x_hi, dx in xs:
            for y_lo, y_hi, dy in ys:
                if x_lo < x_hi and y_lo < y_hi:
                    pieces.append((rectangle(x_lo, y_lo, x_hi, y_hi), (dx, dy)))
        return cls((l1, l2), pieces)


def induced_transformation(transform: PolygonExchange, window: Window):
    """First-return map of a torus rotation on an axis window, with return times.

    Window pieces are pushed forward through the exchange and split
    against the window after every step; the parts landing inside have
    returned and the rest continues.  Every piece returns, so the loop
    ends: the strip constrains one coordinate, which moves by a circle
    rotation.  A rational step brings each point back to its start, inside
    the window; an irrational one enters [0, bound) within a bounded number
    of steps (three-distance theorem).  Returns the induced exchange, on the
    strip's rectangle, and a list of (piece, return time).
    """
    if not isinstance(window, Window):
        raise TypeError("induction needs an axis Window")
    if transform.as_translation() is None:
        raise ValueError("induction needs a torus rotation")
    new_lattice = window.sub_lattice(transform.lattice)
    window_poly = rectangle(0, 0, new_lattice[0], new_lattice[1])

    active = [(window_poly, (PhiNumber(0), PhiNumber(0)))]
    returned: list[tuple[Polygon, Point, int]] = []
    step = 0
    while active:
        step += 1
        moved = [
            (part.translate(v), _vadd(tau, v))
            for part, tau, v in split_cells(active, transform.pieces)
        ]
        active = []
        for current, tau in moved:
            inside, outside = convex_split(current, window_poly)
            if inside is not None:
                returned.append(
                    (inside.translate((-tau[0], -tau[1])), tau, step)
                )
            active.extend((piece, tau) for piece in outside)

    pieces = [(poly, tau) for poly, tau, _ in returned]
    times = [(poly, step) for poly, _, step in returned]
    return PolygonExchange(new_lattice, pieces), times


class TorusAction:
    """Commuting pair of torus rotations with axis-aligned step vectors."""

    def __init__(self, lattice, alpha1, alpha2):
        self.lattice = (_num(lattice[0]), _num(lattice[1]))
        a1 = (_num(alpha1[0]), _num(alpha1[1]))
        a2 = (_num(alpha2[0]), _num(alpha2[1]))
        if a1[1].sign() != 0 or a2[0].sign() != 0:
            raise ValueError("generators must be axis-aligned")
        self.alpha1 = (a1[0] % self.lattice[0], PhiNumber(0))
        self.alpha2 = (PhiNumber(0), a2[1] % self.lattice[1])
        self._gens: dict[int, PolygonExchange] = {}

    def generator(self, axis: int) -> PolygonExchange:
        if axis not in (1, 2):
            raise ValueError("axis must be 1 or 2")
        if axis not in self._gens:
            alpha = self.alpha1 if axis == 1 else self.alpha2
            self._gens[axis] = PolygonExchange.toral_translation(self.lattice, alpha)
        return self._gens[axis]

    def translate(self, x: Point, n: tuple[int, int]) -> Point:
        """Exact image of x under the n-th power of the action."""
        n1, n2 = n
        return (
            (x[0] + PhiNumber(n1) * self.alpha1[0]) % self.lattice[0],
            (x[1] + PhiNumber(n2) * self.alpha2[1]) % self.lattice[1],
        )

    def step_vector(self, n: tuple[int, int]) -> Point:
        return (
            (PhiNumber(n[0]) * self.alpha1[0]) % self.lattice[0],
            (PhiNumber(n[1]) * self.alpha2[1]) % self.lattice[1],
        )


def induce_action(action: TorusAction, window: Window) -> TorusAction:
    """First-return lattice action on an axis window.

    Both generators are induced; the transversal generator never leaves an
    axis strip, so its return time is 1 and the interesting induction
    happens along the window's axis.  The induced generators must again be
    single rotations of the smaller torus, which is checked exactly.
    """
    new_lattice = window.sub_lattice(action.lattice)
    alphas = {}
    for axis in (1, 2):
        induced, _ = induced_transformation(action.generator(axis), window)
        vector = induced.as_translation()
        if vector is None:
            raise ValueError(f"induced generator {axis} is not a rotation")
        alphas[axis] = vector
    return TorusAction(new_lattice, alphas[1], alphas[2])


# ---------------------------------------------------------------------------
# coding


def config_patch(
    partition: TorusPartition,
    action: TorusAction,
    x: Point,
    shape: tuple[int, int],
    offset: tuple[int, int] = (0, 0),
) -> Word2d:
    """Rectangular patch of the coding of x's orbit, anchored at offset."""
    columns = []
    for i in range(shape[0]):
        column = []
        for j in range(shape[1]):
            n = (offset[0] + i, offset[1] + j)
            try:
                column.append(partition.locate(action.translate(x, n)))
            except BoundaryHit as exc:
                raise BoundaryHit(f"orbit point at step {n}: {exc}") from None
        columns.append(column)
    return Word2d(columns)


def first_return_time(action: TorusAction, window: Window, x: Point, axis: int) -> int:
    """Least k >= 1 with x moved k steps along the axis back in the window:
    across the window's axis k = 1, along it see induced_transformation."""
    if not window.contains(x):
        raise ValueError(f"{x} is not in the window")
    step = (1, 0) if axis == 1 else (0, 1)
    y = action.translate(x, step)
    k = 1
    while not window.contains(y):
        y = action.translate(y, step)
        k += 1
    return k


def return_word(
    partition: TorusPartition, action: TorusAction, window: Window, x: Point
) -> Word2d:
    """Code block swept before the orbit of x first returns to the window."""
    r = first_return_time(action, window, x, 1)
    s = first_return_time(action, window, x, 2)
    return config_patch(partition, action, x, (r, s))


# ---------------------------------------------------------------------------
# refinement machinery


def _refine_by_codes(partition, action, support, base):
    """Split base cells so the codes of all shifted copies are constant.

    ``base`` lists (cell, codes) entries whose codes map lattice steps to
    the labels already known along the cell; ``support`` lists the further
    steps n.  Each output entry is a convex cell together with its codes,
    extended by n -> label for every n in support.  A point x lies in a
    piece of (atom cell - shift) reduced mod the lattice exactly when
    x + shift reduces into that atom cell, so splitting against those
    pieces reads off the n-th code.
    """
    domain = rectangle(
        0, 0, max(c.bbox()[2] for c, _ in base), max(c.bbox()[3] for c, _ in base)
    )
    current = base
    for n in support:
        shift = action.step_vector(n)
        overlay = [
            (piece, label)
            for label, cell in partition.cells()
            for piece in lattice_pieces(
                cell, partition.lattice, domain, (-shift[0], -shift[1])
            )
        ]
        current = [
            (part, {**codes, n: label})
            for part, codes, label in split_cells(current, overlay)
        ]
    return current


def coded_word(codes, shape: tuple[int, int]) -> Word2d:
    """The shape-pattern of a code map n -> label that covers the shape."""
    return Word2d([[codes[(i, j)] for j in range(shape[1])] for i in range(shape[0])])


def shape_steps(shape: tuple[int, int]) -> list[tuple[int, int]]:
    """The lattice steps of a shape-pattern's cells, column by column."""
    return [(i, j) for i in range(shape[0]) for j in range(shape[1])]


def coded_cells(partition: TorusPartition, action: TorusAction, support) -> list[dict]:
    """The codes n -> label, for n in support and (0, 0), of the cells of
    the whole partition refined by its action-shifted copies over support.

    Each cell starts with its own label as its (0, 0) code: the cells have
    disjoint interiors, so the copy at step (0, 0) would split nothing.  Up
    to boundaries, each cell of a refinement over fewer steps is a union of
    cells of one over more steps, so the patterns and dominoes read off the
    codes do not depend on further steps in the support.
    """
    base = [(cell, {(0, 0): label}) for label, cell in partition.cells()]
    steps = [n for n in support if n != (0, 0)]
    return [codes for _, codes in _refine_by_codes(partition, action, steps, base)]


def coded_dominoes(cells: list[dict]):
    """Horizontal (left, right) and vertical (bottom, top) coded letter pairs
    of coded cells whose codes cover (0, 0), (1, 0) and (0, 1)."""
    horizontal = {(codes[(0, 0)], codes[(1, 0)]) for codes in cells}
    vertical = {(codes[(0, 0)], codes[(0, 1)]) for codes in cells}
    return horizontal, vertical


def enumerate_language(
    partition: TorusPartition, action: TorusAction, shape: tuple[int, int]
) -> set[Word2d]:
    """Exactly the allowed shape-patterns of the coded action.

    A pattern is allowed when the cells coding it have a common point, so
    the partition is refined by action-shifted copies of itself over the
    pattern support and the labels of surviving cells are read off.
    """
    return {
        coded_word(codes, shape)
        for codes in coded_cells(partition, action, shape_steps(shape))
    }


def induced_partition(
    partition: TorusPartition, action: TorusAction, window: Window
):
    """Return-word partition of the window and the natural substitution.

    Atoms of the result are the maximal regions of the window on which the
    return word is constant; the substitution maps the letter of each
    region to its return word.  Letters are numbered by (area of the word,
    then lexicographic on the cells read column by column, bottom to top),
    which makes one-dimensional return words follow the shortlex order.
    """
    gen_along = action.generator(window.axis)
    _, time_pieces = induced_transformation(gen_along, window)
    new_lattice = window.sub_lattice(action.lattice)

    collected: dict[Word2d, list[Polygon]] = {}
    for piece, steps in time_pieces:
        shape = (1, steps) if window.axis == 2 else (steps, 1)
        support = shape_steps(shape)
        for cell, codes in _refine_by_codes(partition, action, support, [(piece, {})]):
            collected.setdefault(coded_word(codes, shape), []).append(cell)

    def word_key(w: Word2d):
        flat = tuple(letter for col in w.columns for letter in col)
        return (len(flat), flat)

    ordered = sorted(collected, key=word_key)
    atoms = {
        b: tuple(sorted(collected[w], key=lambda c: c.vertices))
        for b, w in enumerate(ordered)
    }
    rule = {b: w for b, w in enumerate(ordered)}
    morphism = Morphism2d(rule, len(ordered), len(partition.atoms))
    return TorusPartition(new_lattice, atoms), morphism
