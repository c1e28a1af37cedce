"""Wang tile sets, rectangle/torus tiling search, and admissibility.

A tile is a 4-tuple of color tokens in (right, top, left, bottom) order;
tokens are opaque strings so that fused tiles can carry concatenated
colors.  One complete backtracking search serves every query: it reads a
normalization of the instance (cells, reduced fixed tiles and a neighbor
table) and scans cells bottom-up row-major, so ``solve`` returns the
lexicographically least solution in tile-index order along that scan.
Domino sets are the 2-cell case of the surrounding search; nothing is
cached between calls.

The admissible patterns of a shape (those with an r-surrounding) are found
as in the admissible-pattern-set method: every valid pattern is a
candidate, and a candidate is kept when a certificate proves it or a
search finds its surrounding.  A certificate is any word, typically a
factor of the substitution language, that is a valid pattern of the tile
set and holds the candidate at margin at least r; it is checked before it
counts, so certificates only save searches and never change a set.
Admissible sets shrink as r grows, so a radius escalation may pass the
survivors of one radius as the candidates of the next.  Every search runs
in the calling process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .jobs import parallel_map
from .words import Word2d

RIGHT, TOP, LEFT, BOTTOM = 0, 1, 2, 3

Tile = tuple[str, str, str, str]


class UnknownTileIndex(KeyError):
    """A pattern refers to a tile index outside the tile set."""


class SingularLattice(ValueError):
    """A periodicity test needs a nonsingular integer lattice basis."""


class WangTileSet:
    """Indexed list of Wang tiles with color bookkeeping."""

    def __init__(self, tiles: Iterable[Sequence[str]]):
        checked = []
        for index, tile in enumerate(tiles):
            if not isinstance(tile, (list, tuple)) or len(tile) != 4:
                raise ValueError(
                    f"tile {index} {tile!r} is not 4 colors (right, top, left, bottom)"
                )
            checked.append(tuple(str(color) for color in tile))
        self.tiles: tuple[Tile, ...] = tuple(checked)

    def __len__(self):
        return len(self.tiles)

    def __getitem__(self, index: int) -> Tile:
        try:
            return self.tiles[index]
        except IndexError:
            raise UnknownTileIndex(index) from None

    def __eq__(self, other):
        return isinstance(other, WangTileSet) and self.tiles == other.tiles

    def __hash__(self):
        return hash(self.tiles)

    def __repr__(self):
        return f"WangTileSet({len(self.tiles)} tiles)"

    def to_json(self) -> dict:
        return {"tiles": [list(t) for t in self.tiles]}

    @classmethod
    def from_json(cls, data: dict) -> "WangTileSet":
        if not isinstance(data, dict) or "tiles" not in data:
            raise ValueError("tile set JSON has no 'tiles' key")
        return cls(data["tiles"])


@dataclass
class TilingInstance:
    """A rectangle (or quotient torus) to fill with tiles of a set.

    ``fixed`` pins tile indices at positions inside the shape.  When
    ``wrap`` is a nonsingular 2x2 integer matrix (columns generate a
    sublattice of Z^2), the instance is the quotient torus and the shape is
    derived from the lattice, not taken from ``shape``.
    """

    tileset: WangTileSet
    shape: tuple[int, int]
    fixed: dict[tuple[int, int], int] = field(default_factory=dict)
    wrap: Optional[tuple[tuple[int, int], tuple[int, int]]] = None

    def __post_init__(self):
        n1, n2 = self.shape
        for (x, y), t in self.fixed.items():
            if not (0 <= x < n1 and 0 <= y < n2):
                raise ValueError(f"fixed cell {(x, y)} outside shape {self.shape}")
            if not (0 <= t < len(self.tileset)):
                raise UnknownTileIndex(t)


def _hnf(basis) -> tuple[int, int, int]:
    """Lower-triangular lattice basis (a, c, d): columns (a, c) and (0, d).

    Accepts any 2x2 integer matrix whose columns generate the lattice.
    """
    (m00, m01), (m10, m11) = basis
    det = m00 * m11 - m01 * m10
    if det == 0:
        raise SingularLattice(f"basis {basis} is singular")
    # column operations until the top-right entry vanishes
    while m01 != 0:
        if m00 == 0 or (m01 != 0 and abs(m01) < abs(m00)):
            m00, m01 = m01, m00
            m10, m11 = m11, m10
        q = m01 // m00
        m01 -= q * m00
        m11 -= q * m10
    if m00 < 0:
        m00, m10 = -m00, -m10
    if m11 < 0:
        m11 = -m11
    return m00, m10 % m11, m11


def _normalize(instance: TilingInstance):
    """Shape, cells in scan order, fixed tiles and neighbor table of an instance.

    The table maps a cell to its (right, top, left, bottom) neighbors: None
    off a rectangle, reduced modulo the lattice on a quotient torus (where
    the shape is derived from the lattice and fixed cells are reduced onto
    the representatives).  None when two fixed tiles land on one torus cell
    and disagree.
    """
    if instance.wrap is None:
        shape = n1, n2 = instance.shape
        fixed = dict(instance.fixed)

        def reduce(x, y):
            return (x, y) if 0 <= x < n1 and 0 <= y < n2 else None

    else:
        a, c, d = _hnf(instance.wrap)
        shape = (a, d)
        fixed = {}

        def reduce(x, y):
            k = x // a
            return x - k * a, (y - k * c) % d

        for (x, y), t in instance.fixed.items():
            if fixed.setdefault(reduce(x, y), t) != t:
                return None
    cells = [(x, y) for y in range(shape[1]) for x in range(shape[0])]
    neighbors = {
        (x, y): (reduce(x + 1, y), reduce(x, y + 1), reduce(x - 1, y), reduce(x, y - 1))
        for x, y in cells
    }
    return shape, cells, fixed, neighbors


def _near_fixed_order(cells, fixed):
    """Cells sorted by distance from the fixed block, for fast refutations."""
    def distance(cell):
        x, y = cell
        return min(max(abs(x - fx), abs(y - fy)) for fx, fy in fixed)

    return sorted(cells, key=lambda c: (distance(c), c[1], c[0]))


def _backtrack(tiles, order, fixed, neighbors):
    """Yield every valid assignment (one live dict) along the cell order."""
    # candidate lists indexed by required (left, bottom) colors
    by_lb: dict[tuple[Optional[str], Optional[str]], list[int]] = {}
    for idx, t in enumerate(tiles):
        for key in (
            (t[LEFT], t[BOTTOM]),
            (t[LEFT], None),
            (None, t[BOTTOM]),
            (None, None),
        ):
            by_lb.setdefault(key, []).append(idx)

    assignment: dict[tuple[int, int], int] = {}

    def candidates(cell):
        right_nb, top_nb, left_nb, bottom_nb = neighbors[cell]
        want_left = tiles[assignment[left_nb]][RIGHT] if left_nb in assignment else None
        want_bottom = tiles[assignment[bottom_nb]][TOP] if bottom_nb in assignment else None
        base = by_lb.get((want_left, want_bottom), [])
        if cell in fixed:
            base = [t for t in base if t == fixed[cell]]
        # width/height-1 torus: the cell is its own neighbor
        if left_nb == cell:
            base = [t for t in base if tiles[t][RIGHT] == tiles[t][LEFT]]
        if bottom_nb == cell:
            base = [t for t in base if tiles[t][TOP] == tiles[t][BOTTOM]]
        # constraints from already-assigned right/top neighbors (fixed cells
        # ahead of the scan, or wrap-around)
        want_right = None
        want_top = None
        if right_nb is not None:
            if right_nb in assignment:
                want_right = tiles[assignment[right_nb]][LEFT]
            elif right_nb in fixed:
                want_right = tiles[fixed[right_nb]][LEFT]
        if top_nb is not None:
            if top_nb in assignment:
                want_top = tiles[assignment[top_nb]][BOTTOM]
            elif top_nb in fixed:
                want_top = tiles[fixed[top_nb]][BOTTOM]
        if want_right is not None:
            base = [t for t in base if tiles[t][RIGHT] == want_right]
        if want_top is not None:
            base = [t for t in base if tiles[t][TOP] == want_top]
        return base

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
            # exhausted this cell: backtrack
            stack.pop()
            assignment.pop(cell, None)
        elif depth == last:
            assignment[cell] = t
            yield assignment
        else:
            assignment[cell] = t
            stack.append(iter(candidates(order[depth + 1])))


def _solutions(instance: TilingInstance):
    """Every valid assignment as a word, least first along the cell scan."""
    normal = _normalize(instance)
    if normal is None:
        return
    shape, cells, fixed, neighbors = normal
    for grid in _backtrack(instance.tileset.tiles, cells, fixed, neighbors):
        yield Word2d([[grid[(x, y)] for y in range(shape[1])] for x in range(shape[0])])


def solve(instance: TilingInstance) -> Optional[Word2d]:
    """A valid assignment extending the instance, or None.

    The solution is the lexicographically least one in tile-index order
    along the bottom-up row-major cell scan.
    """
    return next(_solutions(instance), None)


def solve_all(instance: TilingInstance) -> list[Word2d]:
    """Every valid assignment (used for small enumerations only)."""
    return list(_solutions(instance))


def is_valid_pattern(tileset: WangTileSet, w: Word2d) -> bool:
    """True iff all shared edges of the pattern agree in color."""
    n1, n2 = w.shape
    tiles = tileset.tiles
    for (x, y), letter in w:
        if not (0 <= letter < len(tiles)):
            raise UnknownTileIndex(letter)
    for x in range(n1):
        for y in range(n2):
            t = tiles[w[x, y]]
            if x + 1 < n1 and t[RIGHT] != tiles[w[x + 1, y]][LEFT]:
                return False
            if y + 1 < n2 and t[TOP] != tiles[w[x, y + 1]][BOTTOM]:
                return False
    return True


def admits_surrounding(tileset: WangTileSet, u: Word2d, r: int) -> bool:
    """True iff u extends to a valid pattern with an r-cell margin."""
    n1, n2 = u.shape
    fixed = {(x + r, y + r): u[x, y] for x in range(n1) for y in range(n2)}
    instance = TilingInstance(tileset, (n1 + 2 * r, n2 + 2 * r), fixed)
    _, cells, fixed, neighbors = _normalize(instance)
    # an existence query, so any complete cell order will do; scanning
    # outward from the fixed block refutes bad blocks sooner
    order = _near_fixed_order(cells, fixed) if fixed else cells
    return next(_backtrack(tileset.tiles, order, fixed, neighbors), None) is not None


def dominoes_with_surrounding(
    tileset: WangTileSet, direction: int, r: int, certificates: Iterable[Word2d] = ()
) -> set[tuple[int, int]]:
    """Ordered index pairs whose domino in the direction has an r-surrounding.

    ``certificates`` are as in ``patterns_with_surrounding``.
    """
    if direction not in (1, 2):
        raise ValueError("direction must be 1 or 2")
    shape = (2, 1) if direction == 1 else (1, 2)
    patterns = patterns_with_surrounding(tileset, shape, r, certificates=certificates)
    return {(w[0, 0], w[shape[0] - 1, shape[1] - 1]) for w in patterns}


def exists_periodic_tiling(tileset: WangTileSet, basis) -> bool:
    """True iff the quotient torus of the basis lattice admits a valid tiling."""
    instance = TilingInstance(tileset, (1, 1), {}, wrap=tuple(map(tuple, basis)))
    return solve(instance) is not None


def sublattice_bases(max_index: int):
    """Canonical bases of all sublattices of Z^2 of index 1..max_index.

    Hermite forms with columns (a, c) and (0, d), ad = n, 0 <= c < d.
    """
    for n in range(1, max_index + 1):
        for d in range(1, n + 1):
            if n % d:
                continue
            a = n // d
            for c in range(d):
                yield ((a, 0), (c, d))


def _certificate_windows(certificates, shape, r) -> dict[tuple, int]:
    """Columns of every shape-window at margin >= r of the certificates,
    each mapped to the index of the first certificate that has it."""
    s1, s2 = shape
    windows: dict[tuple, int] = {}
    for i, word in enumerate(certificates):
        columns = word.columns
        n1, n2 = word.shape
        for x in range(r, n1 - s1 - r + 1):
            block = columns[x : x + s1]
            for y in range(r, n2 - s2 - r + 1):
                windows.setdefault(tuple(col[y : y + s2] for col in block), i)
    return windows


def _is_certificate(tileset: WangTileSet, word: Word2d) -> bool:
    try:
        return is_valid_pattern(tileset, word)
    except UnknownTileIndex:
        return False


def patterns_with_surrounding(
    tileset: WangTileSet,
    shape: tuple[int, int],
    r: int,
    candidates: Optional[Iterable[Word2d]] = None,
    certificates: Iterable[Word2d] = (),
) -> set[Word2d]:
    """All shape-patterns admitting a surrounding of radius r.

    ``candidates`` are the patterns to test, by default every valid
    shape-pattern; a caller that already holds a superset of the answer,
    such as the admissible set at a smaller radius, may pass it instead.
    A candidate counts as admissible when a certificate proves it or when
    the search finds a surrounding.  A certificate is a word that passes
    ``is_valid_pattern`` against this tile set and has the candidate as a
    window at margin at least r on every side: the block of that margin
    around the window is itself a valid pattern, so it is an r-surrounding.
    Each certificate is checked at most once, when a candidate first needs
    it, and one that fails certifies nothing, so its candidates are
    searched: the set does not depend on the certificates, only the number
    of searches does.
    """
    if candidates is None:
        candidates = solve_all(TilingInstance(tileset, shape))
    certificates = list(certificates)
    windows = _certificate_windows(certificates, shape, r)
    valid: dict[int, bool] = {}
    found, searched = set(), []
    for word in candidates:
        i = windows.get(word.columns)
        if i is not None:
            if i not in valid:
                valid[i] = _is_certificate(tileset, certificates[i])
            if valid[i]:
                found.add(word)
                continue
        searched.append(word)
    admitted = parallel_map(lambda word: admits_surrounding(tileset, word, r), searched)
    found.update(word for word, good in zip(searched, admitted) if good)
    return found
