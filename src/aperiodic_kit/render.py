"""Deterministic SVG rendering of tile sets, tilings, partitions and orbits.

Floats appear only here, at the last moment before formatting; everything
upstream stays exact.  The palette is a fixed 19-color table; a seed
rotates it so related figures can be recolored reproducibly.
"""

from __future__ import annotations

from .geometry import TorusPartition
from .pet import TorusAction, config_patch
from .wang import BOTTOM, LEFT, RIGHT, TOP, WangTileSet
from .words import Word2d

PALETTE = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#1f77b4", "#aec7e8",
    "#ffbb78", "#98df8a", "#c5b0d5", "#c49c94", "#f7b6d2", "#dbdb8d",
    "#9edae5",
]

# pixels per torus unit, shared by a partition and the orbit drawn on it
TORUS_UNIT = 420


def _palette(seed: int) -> list[str]:
    shift = seed % len(PALETTE)
    return PALETTE[shift:] + PALETTE[:shift]


def _f(value) -> str:
    return f"{float(value):.4f}".rstrip("0").rstrip(".")


def _color_for(token: str, palette: list[str]) -> str:
    return palette[sum(token.encode()) % len(palette)]


def _svg(width: float, height: float, body: list[str]) -> str:
    return "\n".join(
        [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(width)}" '
            f'height="{_f(height)}" viewBox="0 0 {_f(width)} {_f(height)}">',
            *body,
            "</svg>",
        ]
    )


def _tile_svg(tile, x, y, size, palette, label=None) -> list[str]:
    cx, cy = x + size / 2, y + size / 2
    corners = {
        "bl": (x, y + size),
        "br": (x + size, y + size),
        "tl": (x, y),
        "tr": (x + size, y),
    }
    triangles = {
        RIGHT: (corners["tr"], corners["br"]),
        TOP: (corners["tl"], corners["tr"]),
        LEFT: (corners["bl"], corners["tl"]),
        BOTTOM: (corners["br"], corners["bl"]),
    }
    body = []
    for pos in (RIGHT, TOP, LEFT, BOTTOM):
        (x1, y1), (x2, y2) = triangles[pos]
        body.append(
            f'<path d="M {_f(cx)} {_f(cy)} L {_f(x1)} {_f(y1)} L {_f(x2)} {_f(y2)} Z" '
            f'fill="{_color_for(tile[pos], palette)}" stroke="black" stroke-width="0.5"/>'
        )
    for pos, (tx, ty) in (
        (RIGHT, (x + size * 0.82, cy)),
        (TOP, (cx, y + size * 0.2)),
        (LEFT, (x + size * 0.18, cy)),
        (BOTTOM, (cx, y + size * 0.86)),
    ):
        body.append(
            f'<text x="{_f(tx)}" y="{_f(ty)}" font-size="{_f(size * 0.14)}" '
            f'text-anchor="middle">{tile[pos]}</text>'
        )
    if label is not None:
        body.append(
            f'<text x="{_f(cx)}" y="{_f(cy + size * 0.05)}" font-size="{_f(size * 0.2)}" '
            f'text-anchor="middle" font-weight="bold">{label}</text>'
        )
    return body


def render_tileset(tileset: WangTileSet, seed: int = 0) -> str:
    """One labeled square per tile, colored by edge tokens."""
    palette = _palette(seed)
    size = 60
    per_row = 7
    pad = 10
    body = []
    for i, tile in enumerate(tileset.tiles):
        gx = pad + (i % per_row) * (size + pad)
        gy = pad + (i // per_row) * (size + pad)
        body.extend(_tile_svg(tile, gx, gy, size, palette, label=i))
    rows = (len(tileset.tiles) + per_row - 1) // per_row
    width = pad + per_row * (size + pad)
    height = pad + rows * (size + pad)
    return _svg(width, height, body)


def render_tiling(tileset: WangTileSet, word: Word2d, seed: int = 0) -> str:
    """A rectangular pattern of tiles; cell (x, y) of the word at (x, y)."""
    palette = _palette(seed)
    size = 40
    n1, n2 = word.shape
    pad = 5
    body = []
    for (x, y), letter in word:
        gx = pad + x * size
        gy = pad + (n2 - 1 - y) * size
        body.extend(_tile_svg(tileset[letter], gx, gy, size, palette, label=letter))
    return _svg(2 * pad + n1 * size, 2 * pad + n2 * size, body)


def _polygon_path(cell, scale, pad, height) -> str:
    points = " ".join(
        f"{_f(pad + float(vx) * scale)},{_f(pad + height - float(vy) * scale)}"
        for vx, vy in cell.vertices
    )
    return points


def _partition_body(partition: TorusPartition, palette, pad, height) -> list[str]:
    """SVG elements of the filled atoms, with labels at cell midpoints."""
    scale = TORUS_UNIT
    body = []
    for label, cell in partition.cells():
        color = palette[label % len(palette)]
        body.append(
            f'<polygon points="{_polygon_path(cell, scale, pad, height)}" '
            f'fill="{color}" stroke="black" stroke-width="1"/>'
        )
    for label, cells in sorted(partition.atoms.items()):
        biggest = max(cells, key=lambda c: float(c.area()))
        sx = sum(float(v[0]) for v in biggest.vertices) / len(biggest.vertices)
        sy = sum(float(v[1]) for v in biggest.vertices) / len(biggest.vertices)
        body.append(
            f'<text x="{_f(pad + sx * scale)}" y="{_f(pad + height - sy * scale)}" '
            f'font-size="{_f(scale * 0.045)}" text-anchor="middle">{label}</text>'
        )
    return body


def render_partition(partition: TorusPartition, seed: int = 0) -> str:
    """Filled atoms with labels at cell midpoints."""
    pad = 10
    width, height = (float(side) * TORUS_UNIT for side in partition.lattice)
    body = _partition_body(partition, _palette(seed), pad, height)
    return _svg(width + 2 * pad, height + 2 * pad, body)


def render_coded_orbit(
    partition: TorusPartition,
    action: TorusAction,
    point,
    shape: tuple[int, int],
    seed: int = 0,
) -> str:
    """Partition with the coded orbit points of a starting point drawn on top."""
    patch = config_patch(partition, action, point, shape)
    scale = TORUS_UNIT
    pad = 10
    width, height = (float(side) * scale for side in partition.lattice)
    body = _partition_body(partition, _palette(seed), pad, height)
    for (i, j), letter in patch:
        x = action.translate(point, (i, j))
        px = pad + float(x[0]) * scale
        py = pad + height - float(x[1]) * scale
        body.append(
            f'<circle cx="{_f(px)}" cy="{_f(py)}" r="{_f(scale * 0.012)}" '
            'fill="white" stroke="black" stroke-width="1"/>'
        )
        body.append(
            f'<text x="{_f(px)}" y="{_f(py - scale * 0.02)}" '
            f'font-size="{_f(scale * 0.035)}" text-anchor="middle">{letter}</text>'
        )
    return _svg(width + 2 * pad, height + 2 * pad, body)
