"""Marker tiles, fusion, desubstitution and tile-set equivalence.

A marker subset occupies complete, pairwise nonadjacent rows (or columns)
in every configuration of a Wang shift.  Detecting one reduces to domino
admissibility: perpendicular dominoes must never mix markers and
non-markers and parallel marker-marker dominoes must be forbidden.  Once a
marker set is known, fusing each marker onto its neighbor desubstitutes
the shift: configurations decompose uniquely into single tiles and
dominoes, which is the recognizability used by the self-similarity proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .morphisms import Morphism2d
from .wang import (
    BOTTOM,
    LEFT,
    RIGHT,
    TOP,
    Tile,
    WangTileSet,
    dominoes_with_surrounding,
)
from .words import Word2d


class EdgeMismatch(ValueError):
    """Fusion requires the shared edge colors to agree."""


class NotAMarkerSet(ValueError):
    """The proposed subset fails the marker criterion at this radius."""


@dataclass
class MarkerReport:
    """Marker subsets of a tile set, and the admissible dominoes along the
    direction and the perpendicular axis that the search read them from."""

    direction: int
    radius: int
    marker_subsets: list[list[int]]
    dominoes: tuple[set, set] = field(repr=False, compare=False)
    tileset: WangTileSet = field(repr=False, compare=False)

    def __bool__(self):
        return bool(self.marker_subsets)


@dataclass
class DesubstitutionResult:
    tileset: WangTileSet
    morphism: Morphism2d
    side: str
    direction: int

    def to_json(self) -> dict:
        return {
            "tileset": self.tileset.to_json(),
            "morphism": self.morphism.to_json(),
            "side": self.side,
            "direction": self.direction,
        }


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


def find_markers(tileset: WangTileSet, direction: int, radius: int) -> MarkerReport:
    """Candidate marker subsets for layers orthogonal to the direction.

    Tiles are merged whenever they can sit next to each other along the
    perpendicular axis (so whole layers stay within one class); a class
    qualifies when no two of its tiles can ever be adjacent along the
    direction itself.
    """
    if direction not in (1, 2):
        raise ValueError("direction must be 1 or 2")
    perp = 3 - direction
    d_perp = dominoes_with_surrounding(tileset, perp, radius)
    uf = _UnionFind(len(tileset))
    for u, v in d_perp:
        uf.union(u, v)
    d_dir = dominoes_with_surrounding(tileset, direction, radius)
    classes: dict[int, list[int]] = {}
    for t in range(len(tileset)):
        classes.setdefault(uf.find(t), []).append(t)
    subsets = [
        sorted(members)
        for members in classes.values()
        if not any((u, v) in d_dir for u in members for v in members)
    ]
    subsets.sort(key=lambda s: s[0])
    return MarkerReport(direction, radius, subsets, (d_dir, d_perp), tileset)


def fuse(u: Tile, v: Tile, direction: int) -> Tile:
    """Merge two edge-compatible tiles into one, concatenating colors.

    Direction 1 puts v to the right of u (shared vertical edge), direction
    2 puts v on top of u (shared horizontal edge).
    """
    if direction == 1:
        if u[RIGHT] != v[LEFT]:
            raise EdgeMismatch(f"right({u}) != left({v})")
        return (v[RIGHT], u[TOP] + v[TOP], u[LEFT], u[BOTTOM] + v[BOTTOM])
    if direction == 2:
        if u[TOP] != v[BOTTOM]:
            raise EdgeMismatch(f"top({u}) != bottom({v})")
        return (u[RIGHT] + v[RIGHT], v[TOP], u[LEFT] + v[LEFT], u[BOTTOM])
    raise ValueError("direction must be 1 or 2")


def _check_marker_criterion(members, d_dir, d_perp):
    """Marker criterion against the admissible dominoes of both directions."""
    if any(u in members and v in members for u, v in d_dir):
        raise NotAMarkerSet("marker-marker dominoes along the direction are admissible")
    if any((u in members) != (v in members) for u, v in d_perp):
        raise NotAMarkerSet("a perpendicular domino mixes markers and non-markers")


def find_substitution(report: MarkerReport, markers, side: str = "right") -> DesubstitutionResult:
    """Desubstitute a Wang shift using a marker subset.

    Builds the tile set whose tilings decompose those of the report's tile
    set: kept non-marker tiles (sorted by index) followed by the fusions of
    the admissible (non-marker, marker) dominoes on the chosen side (sorted
    by index pairs), read off the report's domino sets.  The returned
    morphism sends each new letter to the tile or domino it stands for;
    images are single letters or dominoes in the report's direction, with
    the marker on the requested side.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    tileset, direction = report.tileset, report.direction
    m = set(markers)
    if not m or not m < set(range(len(tileset))):
        raise NotAMarkerSet("markers must be a nonempty proper subset of tile indices")
    dominoes, perpendicular = report.dominoes
    _check_marker_criterion(m, dominoes, perpendicular)
    if side == "right":
        pairs = sorted((u, v) for u, v in dominoes if u not in m and v in m)
        kept = sorted({u for u, v in dominoes if u not in m and v not in m})
    else:
        pairs = sorted((u, v) for u, v in dominoes if u in m and v not in m)
        kept = sorted({v for u, v in dominoes if u not in m and v not in m})

    new_tiles = [tileset[t] for t in kept]
    new_tiles += [fuse(tileset[u], tileset[v], direction) for u, v in pairs]
    images: dict[int, Word2d] = {}
    for j, t in enumerate(kept):
        images[j] = Word2d.single(t)
    for j, (u, v) in enumerate(pairs, start=len(kept)):
        images[j] = Word2d([[u], [v]]) if direction == 1 else Word2d([[u, v]])
    morphism = Morphism2d(images, len(images), len(tileset))
    return DesubstitutionResult(WangTileSet(new_tiles), morphism, side, direction)


def is_equivalent(tileset: WangTileSet, other: WangTileSet):
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
