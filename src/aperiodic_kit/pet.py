"""Polygon exchange transformations, torus rotations and their inductions.

The lattice actions studied here are rotations of a torus by a pair of
axis-aligned vectors; each generator is realized exactly as an exchange of
at most four rectangles.  Inducing a rotation on an axis window produces
first-return maps, return words, an induced partition, and the natural
substitution sending new letters to the return words they stand for.

Induction takes axis windows of torus rotations whose piece images stay in
the fundamental rectangle: each step cuts the pushed pieces against the
window and the rest of the rectangle, and every first return ends (see
induced_transformation).  induce_action rejects a window whose first-return
map is not again a rotation as soon as it is known.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .geometry import (
    BoundaryHit,
    Point,
    Polygon,
    TorusPartition,
    _leaving,
    _num,
    closure_hits,
    rectangle,
    rotated,
    rotation_rectangles,
    split_cells,
    tiling_defect,
)
from .morphisms import Morphism2d
from .phifield import ZERO, PhiNumber
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
        """Rotation x -> x + v on the torus as an exchange of <= 4 rectangles,
        those of ``geometry.rotation_rectangles`` for v reduced mod the lattice."""
        l1, l2 = _num(lattice[0]), _num(lattice[1])
        v = (_num(vector[0]) % l1, _num(vector[1]) % l2)
        return cls((l1, l2), rotation_rectangles((l1, l2), v))


def induced_transformation(transform: PolygonExchange, window: Window):
    """First-return map of a torus rotation on an axis window, with return times.

    Window pieces are pushed through the exchange; after every step,
    split_cells cuts them against the window, whose parts have returned,
    and the rest of the fundamental rectangle, whose parts go on.  An
    exchange whose pieces do not tile the rectangle, or with a piece image
    leaving it, is refused.  Every
    piece returns, so the loop ends: the strip constrains one coordinate,
    which moves by a circle rotation.  A rational step brings each point
    back to its start, inside the window; an irrational one enters
    [0, bound) within a bounded number of steps (three-distance theorem).
    Returns the induced exchange, on the strip's rectangle, and a list of
    (piece, return time).
    """
    if not isinstance(window, Window):
        raise TypeError("induction needs an axis Window")
    if transform.as_translation() is None:
        raise ValueError("induction needs a torus rotation")
    if defect := tiling_defect([poly for poly, _ in transform.pieces], transform.lattice):
        raise ValueError(f"exchange pieces do not tile the rectangle: {defect}")
    for poly, v in transform.pieces:
        if leaving := _leaving([poly.translate(v)], transform.lattice):
            raise ValueError(f"piece {poly} moved by ({v[0]}, {v[1]}): {leaving}")
    new_lattice = window.sub_lattice(transform.lattice)
    window_poly = rectangle(0, 0, new_lattice[0], new_lattice[1])
    split = [(window_poly, "returned")]
    if window.bound < transform.lattice[window.axis - 1]:
        x0, y0 = (window.bound, ZERO) if window.axis == 1 else (ZERO, window.bound)
        split.append((rectangle(x0, y0, *transform.lattice), "active"))

    active = [(window_poly, (ZERO, ZERO))]
    returned: list[tuple[Polygon, Point, int]] = []
    step = 0
    while active:
        step += 1
        moved = [
            (part.translate(v), _vadd(tau, v))
            for part, tau, v in split_cells(active, transform.pieces)
        ]
        active = []
        for part, tau, tag in split_cells(moved, split):
            if tag == "returned":
                returned.append((part.translate((-tau[0], -tau[1])), tau, step))
            else:
                active.append((part, tau))

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
        self._returns: dict[tuple[int, Window], tuple] = {}

    def generator(self, axis: int) -> PolygonExchange:
        if axis not in (1, 2):
            raise ValueError("axis must be 1 or 2")
        alpha = self.alpha1 if axis == 1 else self.alpha2
        return PolygonExchange.toral_translation(self.lattice, alpha)

    def first_return(self, axis: int, window: Window):
        """``induced_transformation`` of the axis generator on the window,
        computed once: the induced partition and the induced action both
        read the return along the window's axis."""
        if (axis, window) not in self._returns:
            self._returns[axis, window] = induced_transformation(self.generator(axis), window)
        return self._returns[axis, window]

    def translate(self, x: Point, n: tuple[int, int]) -> Point:
        """Exact image of x under the n-th power of the action."""
        n1, n2 = n
        return (
            (x[0] + PhiNumber(n1) * self.alpha1[0]) % self.lattice[0],
            (x[1] + PhiNumber(n2) * self.alpha2[1]) % self.lattice[1],
        )

    def step_vector(self, n: tuple[int, int]) -> Point:
        return self.translate((ZERO, ZERO), n)


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
        induced, _ = action.first_return(axis, window)
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


# ---------------------------------------------------------------------------
# refinement machinery


def _refine_by_codes(partition, action, support, base):
    """Split base cells so the codes of all shifted copies are constant.

    ``base`` lists (cell, codes) entries whose codes map lattice steps to
    the labels already known along the cell; ``support`` lists the further
    steps n.  Each output entry is a convex cell together with its codes,
    extended by n -> label for every n in support.  x + n*alpha reduces
    into an atom cell exactly when x lies in the cell moved by the rotation
    by -n*alpha, taken as l - n*alpha (``geometry.rotated``), so splitting
    against the moved cells reads off the n-th code.  A cell outside the
    fundamental rectangle, which the rotation's rectangles cover, is refused.
    """
    cells = [(cell, label) for label, cell in partition.cells()]
    if leaving := _leaving((cell for cell, _ in cells), partition.lattice):
        raise ValueError(leaving)
    l1, l2 = partition.lattice
    current = base
    for n in support:
        x, y = action.step_vector(n)
        copy = rotated(cells, (l1, l2), (l1 - x, l2 - y))
        current = [(part, {**codes, n: label}) for part, codes, label in split_cells(current, copy)]
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
    cells of one over more steps, so the patterns read off the codes do not
    depend on further steps in the support.
    """
    base = [(cell, {(0, 0): label}) for label, cell in partition.cells()]
    steps = [n for n in support if n != (0, 0)]
    return [codes for _, codes in _refine_by_codes(partition, action, steps, base)]


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
    _, time_pieces = action.first_return(window.axis, window)
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
