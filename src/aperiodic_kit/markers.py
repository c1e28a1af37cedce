"""Marker tiles, fusion, desubstitution and tile-set equivalence.

A marker subset occupies complete, pairwise nonadjacent rows (or columns)
in every configuration of a Wang shift.  Detecting one reduces to domino
admissibility: perpendicular dominoes must never mix markers and
non-markers and parallel marker-marker dominoes must be forbidden.  Once a
marker set is known, fusing each marker onto its neighbor desubstitutes
the shift: configurations decompose uniquely into single tiles and
dominoes, which is the recognizability used by the self-similarity proof.
Fusion reads the dominoes that the tile set kept from the marker search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

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
from .words import Word2d, bijections, classes


class EdgeMismatch(ValueError):
    """Fusion requires the shared edge colors to agree."""


class NotAMarkerSet(ValueError):
    """The proposed subset fails the marker criterion at this radius."""


@dataclass
class MarkerReport:
    """Marker subsets of a tile set, read off the admissible dominoes it
    keeps along the direction and the perpendicular axis."""

    direction: int
    radius: int
    marker_subsets: list[list[int]]
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


def find_markers(tileset: WangTileSet, direction: int, radius: int) -> MarkerReport:
    """Candidate marker subsets for layers orthogonal to the direction.

    Tiles are merged whenever they can sit next to each other along the
    perpendicular axis (so whole layers stay within one class); a class
    qualifies when no two of its tiles can ever be adjacent along the
    direction itself.  The tile set keeps the domino sets found, and its
    proved words, if any, spare searches as in ``patterns_with_surrounding``.
    """
    if direction not in (1, 2):
        raise ValueError("direction must be 1 or 2")
    perp = 3 - direction
    d_perp = dominoes_with_surrounding(tileset, perp, radius)
    d_dir = dominoes_with_surrounding(tileset, direction, radius)
    subsets = [
        members
        for members in classes(len(tileset), d_perp)
        if not any((u, v) in d_dir for u in members for v in members)
    ]
    return MarkerReport(direction, radius, subsets, tileset)


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
    by index pairs), read off the dominoes its tile set kept.  The returned
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
    dominoes = dominoes_with_surrounding(tileset, direction, report.radius)
    perpendicular = dominoes_with_surrounding(tileset, 3 - direction, report.radius)
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


def _side_relations(tileset: WangTileSet) -> list[set]:
    """The pairs (i, k) where side p of tile i has the color of side q of
    tile k, for p and q both in (RIGHT, LEFT), then both in (TOP, BOTTOM)."""
    relations = []
    for sides in ((RIGHT, LEFT), (TOP, BOTTOM)):
        for p, q in product(sides, repeat=2):
            having: dict[str, list[int]] = {}
            for k, tile in enumerate(tileset.tiles):
                having.setdefault(tile[q], []).append(k)
            relations.append(
                {(i, k) for i, tile in enumerate(tileset.tiles) for k in having.get(tile[p], ())}
            )
    return relations


def is_equivalent(tileset: WangTileSet, other: WangTileSet):
    """Color-word maps and a tile bijection carrying one set onto the other.

    Searches for injective maps from the first set's vertical and
    horizontal colors to the second set's color tokens, together with a
    tile bijection, such that mapping every color of every tile reproduces
    the second tile list.  Returns ``(vert, horiz, bijection)`` or None.
    Those are the bijections that carry each relation "side p of tile i
    has the color of side q of tile k", for p, q on one axis, onto the
    other set's.  The first in index order is taken and the color maps are
    read off it tile by tile, so the certificate is deterministic.
    """
    if len(tileset) != len(other):
        return None
    mine, theirs = _side_relations(tileset), _side_relations(other)
    if any(len(a) != len(b) for a, b in zip(mine, theirs)):
        return None
    n = len(tileset)
    bijection = next(bijections(range(n), range(n), zip(mine, theirs)), None)
    if bijection is None:
        return None
    vert: dict[str, str] = {}
    horiz: dict[str, str] = {}
    for i, tile in enumerate(tileset.tiles):
        target = other[bijection[i]]
        for pos, table in ((RIGHT, vert), (TOP, horiz), (LEFT, vert), (BOTTOM, horiz)):
            table.setdefault(tile[pos], target[pos])
    return vert, horiz, bijection
