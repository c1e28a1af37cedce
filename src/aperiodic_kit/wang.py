"""Wang tile sets, rectangle/torus tiling search, and admissibility.

A tile is a 4-tuple of color tokens in (right, top, left, bottom) order;
tokens are opaque strings so that fused tiles can carry concatenated
colors.  One complete backtracking search serves every query: it reads a
normalization of the instance (its shape, reduced fixed tiles and a
function giving a cell's neighbors) and scans cells bottom-up row-major,
so ``solve`` returns the lexicographically least solution in tile-index
order along that scan.  The fixed cells come first in the cell order,
which fixes the neighbors of the cell at each depth that are assigned, so
the search walks integer depths on a plan made once per search, a depth
when the search first reaches it: each side of each depth reads its color
from the tile picked at an earlier depth, or from none.  One fit
rule gives a cell its tiles: a lookup, in an index the tile set builds
once, of the colors its assigned neighbors show it, filtered only where a
1-wide or 1-high torus makes the cell its own neighbor; a fixed cell keeps
its tile if the rule gives it.  An existence query (a surrounding, a periodic
tiling) branches over the first of each group of tiles with the same four
colors, since copies fit in the same places, and scans outward from the
fixed tiles.  Domino sets are the 2-cell case of the surrounding search.

The admissible patterns of a shape (those with an r-surrounding) are found
as in the admissible-pattern-set method: every valid pattern is a
candidate, and a candidate is kept when it is a window of a word the tile
set has proved or a search finds its surrounding.  ``prove`` checks, with
no search, that a substitution rule is a self-similarity of the tile set:
each letter's image is valid and the images of every valid domino glue.
Every word of the rule's language then has every surrounding, so the tile
set keeps the language words of a shape, built by the proof itself, as
proved; the proof only saves searches and never changes a set.  Admissible sets shrink as r grows, and
every window of an admissible pattern is admissible at the same radius, so
the sets a tile set keeps, by shape and radius, let each set grow from
smaller ones: the set of the radius below gives the candidates, and those
whose windows a column or a row smaller the kept sets refuse are dropped
unsearched; a kept set is never searched again.  ``words.windows`` reads
every window here.  Every search runs in the calling process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Optional, Sequence

from .jobs import parallel_map
from .morphisms import Morphism2d, is_expansive, is_primitive, language
from .words import Word2d, windows

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
        # the tiles, in index order, that fit each (right, top, left, bottom)
        # pattern of known side colors, None for a free side
        self.fits: dict[tuple, list[int]] = {}
        for index, tile in enumerate(self.tiles):
            for key in product(*((color, None) for color in tile)):
                self.fits.setdefault(key, []).append(index)
        # the first tile with the same four colors, for each tile, and the
        # fit index of those first tiles alone, for existence queries
        first: dict[Tile, int] = {}
        self.representative = tuple(first.setdefault(tile, i) for i, tile in enumerate(self.tiles))
        distinct = set(first.values())
        self.distinct_fits = self.fits if len(distinct) == len(self.tiles) else {
            key: [t for t in found if t in distinct] for key, found in self.fits.items()
        }
        # the admissible sets found, by (shape, radius), and the words ``prove`` keeps
        self.admissible: dict[tuple[tuple[int, int], int], frozenset[Word2d]] = {}
        self.proved: frozenset[Word2d] = frozenset()

    def __len__(self):
        return len(self.tiles)

    def __iter__(self):
        return iter(self.tiles)

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
    sublattice of Z^2), the instance is the quotient torus: the shape is
    derived from the lattice, not taken from ``shape``, and a fixed cell
    may be any integer cell, reduced onto the torus.
    """

    tileset: WangTileSet
    shape: tuple[int, int]
    fixed: dict[tuple[int, int], int] = field(default_factory=dict)
    wrap: Optional[tuple[tuple[int, int], tuple[int, int]]] = None

    def __post_init__(self):
        n1, n2 = self.shape
        for (x, y), t in self.fixed.items():
            if self.wrap is None and not (0 <= x < n1 and 0 <= y < n2):
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
    """Shape, fixed tiles and neighbor function of an instance.

    The function maps a cell to its (right, top, left, bottom) neighbors:
    None off a rectangle, reduced modulo the lattice on a quotient torus
    (where the shape is derived from the lattice and fixed cells are reduced
    onto the representatives).  A search calls it once per cell it plans.
    None when two fixed tiles land on one torus cell and disagree.
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

    def neighbors(cell):
        x, y = cell
        return reduce(x + 1, y), reduce(x, y + 1), reduce(x - 1, y), reduce(x, y - 1)

    return shape, fixed, neighbors


def _scan(shape):
    """The cells of the shape bottom-up row-major."""
    return ((x, y) for y in range(shape[1]) for x in range(shape[0]))


def _near_fixed_order(shape, fixed):
    """Yield the cells of the rectangle by (Chebyshev distance to the fixed
    cells, y, x), for fast refutations.

    The cells at distance d + 1 are the unreached ones around those at
    distance d (the rectangle is convex), so the order grows ring by ring
    and a search that stops early computes only the rings it reaches.
    """
    n1, n2 = shape
    ring = set(fixed)
    seen = set(ring)
    while ring:
        yield from sorted(ring, key=lambda c: (c[1], c[0]))
        ring = {
            (a, b)
            for x, y in ring
            for a in (x - 1, x, x + 1) if 0 <= a < n1
            for b in (y - 1, y, y + 1) if 0 <= b < n2
        } - seen
        seen |= ring


def _backtrack(tileset, shape, order, fixed, neighbors, fits):
    """Yield every valid assignment, as one live list of the tiles of the
    cells of ``order``, in that order: every cell of the shape, the fixed
    ones first.

    The search walks integer depths on a plan fixed by the order: the cells
    assigned at depth d are the first d of the order, so each side of the
    cell at depth d reads its color from one slot of a list of tiles: the
    tile picked at an earlier depth, or a blank tile, the last one, for a
    side off the grid or not yet assigned.  The plan of a depth is made
    when the search first reaches it, and only then are the neighbors of
    its cell computed, by the ``neighbors`` function of ``_normalize``, so
    a search that stops early reduces only the cells it reaches.  One fit
    rule gives a cell its tiles: a lookup in ``fits`` (a fit index of the
    tile set) of the colors its slots show it, filtered only where a 1-wide
    or 1-high torus makes the cell its own neighbor; a fixed cell keeps its
    tile if the rule gives it, and no tile otherwise.
    """
    tiles = tileset.tiles
    cells, size = iter(order), shape[0] * shape[1]
    slot, plans = {}, []
    shown, stack, picked = [None] * size + [(None,) * 4], [None] * size, [0] * size
    if not size:
        yield picked
        return
    depth = -1
    while True:
        # descend to the next depth, planning it on first reach
        depth += 1
        if depth == len(plans):
            cell = next(cells)
            nbs = neighbors(cell)
            loops = [s for s in (RIGHT, TOP) if nbs[s] == cell]
            plans.append((*(slot.get(nb, -1) for nb in nbs), loops, fixed.get(cell)))
            slot[cell] = depth
        right, top, left, bottom, loops, pin = plans[depth]
        # on each side, the color the neighbor shows on the opposite side
        found = fits.get(
            (shown[right][LEFT], shown[top][BOTTOM], shown[left][RIGHT], shown[bottom][TOP]), ()
        )
        if loops:
            found = [t for t in found if all(tiles[t][s] == tiles[t][s ^ 2] for s in loops)]
        if pin is not None:
            found = [pin] if pin in found else ()
        stack[depth] = iter(found)
        while True:
            t = next(stack[depth], None)
            if t is None:
                depth -= 1
                if depth < 0:
                    return
                continue
            picked[depth] = t
            shown[depth] = tiles[t]
            if depth < size - 1:
                break
            yield picked


def _solutions(instance: TilingInstance):
    """Every valid assignment as a word, least first along the cell scan."""
    normal = _normalize(instance)
    if normal is None:
        return
    shape, fixed, neighbors = normal
    tileset = instance.tileset
    order = [*fixed, *(cell for cell in _scan(shape) if cell not in fixed)]
    for picked in _backtrack(tileset, shape, order, fixed, neighbors, tileset.fits):
        grid = dict(zip(order, picked))
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


def _exists(instance: TilingInstance) -> bool:
    """True iff the instance has a valid assignment.

    An existence query: copies of a tile fit in the same places, so the
    search branches over the first tile of each color tuple only, with the
    fixed tiles replaced by theirs, and any complete cell order that puts
    the fixed cells first will do; scanning outward from the fixed tiles
    (the cells at distance 0) refutes bad blocks sooner.
    """
    normal = _normalize(instance)
    if normal is None:
        return False
    shape, fixed, neighbors = normal
    tileset = instance.tileset
    fixed = {cell: tileset.representative[t] for cell, t in fixed.items()}
    order = _near_fixed_order(shape, fixed) if fixed else _scan(shape)
    search = _backtrack(tileset, shape, order, fixed, neighbors, tileset.distinct_fits)
    return next(search, None) is not None


def admits_surrounding(tileset: WangTileSet, u: Word2d, r: int) -> bool:
    """True iff u extends to a valid pattern with an r-cell margin."""
    n1, n2 = u.shape
    fixed = {(x + r, y + r): u[x, y] for x in range(n1) for y in range(n2)}
    return _exists(TilingInstance(tileset, (n1 + 2 * r, n2 + 2 * r), fixed))


def dominoes_with_surrounding(
    tileset: WangTileSet, direction: int, r: int
) -> set[tuple[int, int]]:
    """Ordered index pairs whose domino in the direction has an r-surrounding."""
    if direction not in (1, 2):
        raise ValueError("direction must be 1 or 2")
    shape = (2, 1) if direction == 1 else (1, 2)
    patterns = patterns_with_surrounding(tileset, shape, r)
    return {(w[0, 0], w[shape[0] - 1, shape[1] - 1]) for w in patterns}


def exists_periodic_tiling(tileset: WangTileSet, basis) -> bool:
    """True iff the quotient torus of the basis lattice admits a valid tiling."""
    return _exists(TilingInstance(tileset, (1, 1), {}, wrap=tuple(map(tuple, basis))))


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


def prove(tileset: WangTileSet, phi: Morphism2d, shape: tuple[int, int]) -> Optional[str]:
    """Keep the shape-words of phi's language (``morphisms.language``) as
    the tile set's proved words when the rule phi is a self-similarity of
    it; else keep none and name the first fault in one line.

    phi must be an expansive, primitive rule on the tile set's letters
    whose images are valid patterns and glue along every valid domino
    (a, b) of the fit index: the right (top) colors of phi(a) are the left
    (bottom) colors of phi(b).  Then phi maps valid patterns to valid ones,
    so the growing images phi^k(a) are valid, and each word of phi's
    language lies in one at any margin: it has every surrounding.  The
    words are built here, after the checks, so none outside the language
    is kept; the closure that builds them needs a primitive rule.
    """
    tileset.proved = frozenset()
    tiles = tileset.tiles
    if not phi.domain_size == phi.codomain_size == len(tiles):
        return f"the rule has {phi.domain_size} letters, the tile set {len(tiles)} tiles"
    if not is_expansive(phi):
        return "the rule is not expansive"
    images = [phi.image(a) for a in range(len(tiles))]
    for a, image in enumerate(images):
        if not is_valid_pattern(tileset, image):
            return f"the image of letter {a} is not a valid pattern"

    def colors(w, side):
        # the colors on that side of the last (right, top) or first column or row
        lines = tuple(zip(*w.columns)) if side % 2 else w.columns
        return [tiles[t][side] for t in lines[-1 if side < LEFT else 0]]

    for side, name in ((RIGHT, "horizontal"), (TOP, "vertical")):
        for a, tile in enumerate(tiles):
            key = tuple(tile[side] if s == side ^ 2 else None for s in range(4))
            for b in tileset.fits.get(key, ()):
                if colors(images[a], side) != colors(images[b], side ^ 2):
                    return f"the images of the {name} domino ({a}, {b}) do not glue"
    if not is_primitive(phi):
        return "the rule is not primitive"
    tileset.proved = frozenset(language(phi, shape))
    return None


def _held(tileset: WangTileSet, shape: tuple[int, int], r: int):
    """The tile set's kept set of the shape at its largest radius up to r, or None."""
    radii = [q for held, q in tileset.admissible if held == shape and q <= r]
    return tileset.admissible[shape, max(radii)] if radii else None


def _with_admitted_windows(tileset: WangTileSet, shape, r: int, candidates) -> list[Word2d]:
    """The candidates whose (s1-1, s2) and (s1, s2-1) windows are in the
    tile set's kept sets of those shapes at the largest radius up to r.

    A window of an r-admissible pattern has an r-surrounding inside the
    pattern's, hence a q-surrounding for every q <= r, so the filter drops
    only patterns without an r-surrounding.  A set at a radius above r
    would not do: it may lack windows that are admissible at r.
    """
    s1, s2 = shape
    kept = list(candidates)
    for window_shape in ((s1 - 1, s2), (s1, s2 - 1)):
        held = _held(tileset, window_shape, r)
        if held is not None:
            admitted = {w.columns for w in held}
            kept = [
                w for w in kept
                if all(window in admitted for window in windows(w.columns, window_shape))
            ]
    return kept


def patterns_with_surrounding(
    tileset: WangTileSet, shape: tuple[int, int], r: int
) -> set[Word2d]:
    """All shape-patterns admitting a surrounding of radius r.

    The candidates are the valid shape-patterns, or fewer when the tile set
    keeps smaller sets (below).  A candidate counts as admissible when it
    is a window of a word the tile set has proved (``prove``), which has
    every surrounding, or when the search finds a surrounding.  The set
    does not depend on the proof, only the number of searches does.

    The answer is kept in ``tileset.admissible``, by (shape, radius), and a
    kept set is returned without a search.  Otherwise the candidates are
    the kept set of the shape at its largest radius below r, if there is
    one, and each candidate needs its smaller windows in the kept sets
    (``_with_admitted_windows``).  Neither changes the set.
    """
    if (shape, r) in tileset.admissible:
        return set(tileset.admissible[shape, r])
    candidates = _held(tileset, shape, r - 1)
    if candidates is None:
        candidates = solve_all(TilingInstance(tileset, shape))
    candidates = _with_admitted_windows(tileset, shape, r, candidates)
    proved = {window for w in tileset.proved for window in windows(w.columns, shape)}
    found, searched = set(), []
    for word in candidates:
        if word.columns in proved:
            found.add(word)
        else:
            searched.append(word)
    admitted = parallel_map(lambda word: admits_surrounding(tileset, word, r), searched)
    found.update(word for word, good in zip(searched, admitted) if good)
    tileset.admissible[shape, r] = frozenset(found)
    return found
