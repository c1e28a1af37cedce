"""The concrete instances this kit studies and cross-verifies.

One 19-letter 2-dimensional substitution, one set of 19 Wang tiles, and the
eight segments that cut the torus into the matching 19-atom partition, with
one point inside each atom that gives the atom its letter.  All other data
(fused tile sets, induced partitions, the substitutions relating them) is
recomputed from these.
"""

from __future__ import annotations

from fractions import Fraction

from .morphisms import Morphism2d
from .phifield import PHI, PhiNumber

# Rule table of the square substitution; images are lists of columns, each
# column bottom to top.  Image shapes are 1x1 up to 2x2.
SUBSTITUTION_RULE = {
    0: [[17]],
    1: [[16]],
    2: [[15], [11]],
    3: [[13], [9]],
    4: [[17], [8]],
    5: [[16], [8]],
    6: [[15], [8]],
    7: [[14], [8]],
    8: [[14, 6]],
    9: [[17, 3]],
    10: [[16, 3]],
    11: [[14, 2]],
    12: [[15, 7], [11, 1]],
    13: [[14, 6], [11, 1]],
    14: [[13, 7], [9, 1]],
    15: [[12, 6], [9, 1]],
    16: [[18, 5], [10, 1]],
    17: [[13, 4], [9, 1]],
    18: [[14, 2], [8, 0]],
}

# 19 Wang tiles as strings in (right, top, left, bottom) order.
TILE_STRINGS = [
    "FOJO", "FOHL", "JMFP", "DMFK", "HPJP", "HPHN", "HKFP", "HKDP", "BOIO",
    "GLEO", "GLCL", "ALIO", "EPGP", "EPIP", "IPGK", "IPIK", "IKBM", "IKAK",
    "CNIP",
]


def square_substitution() -> Morphism2d:
    """The self-similarity substitution on 19 letters."""
    return Morphism2d(SUBSTITUTION_RULE, 19, 19)


def wang_tiles():
    """The 19-tile Wang set whose shift is generated by the substitution."""
    from .wang import WangTileSet

    return WangTileSet([tuple(t) for t in TILE_STRINGS])


def partition_segments() -> list[tuple[tuple[PhiNumber, PhiNumber], tuple[PhiNumber, PhiNumber]]]:
    """Eight segments whose lattice translates cut the torus into 19 atoms."""
    one = PhiNumber(1)
    zero = PhiNumber(0)
    two = PhiNumber(2)
    phi2 = PHI**2
    inv2 = PHI**-2
    polylines = [
        [(one, phi2), (zero, phi2), (PHI, zero), (PHI, one)],
        [(one, one), (zero, one), (one, zero), (one, one)],
        [(inv2, two), (one + inv2, one), (one + inv2, two)],
    ]
    segments = []
    for line in polylines:
        segments.extend((line[i], line[i + 1]) for i in range(len(line) - 1))
    return segments


def atom_points() -> dict[int, tuple[PhiNumber, PhiNumber]]:
    """One interior point of each of the 19 atoms, keyed by the atom's letter.

    The points lie on the grid of ninths of the unit torus; each is the grid
    point nearest the vertex average of its atom.
    """
    ninths = {
        0: (6, 6), 1: (7, 7), 2: (2, 6), 3: (1, 7), 4: (5, 7), 5: (5, 8), 6: (2, 8),
        7: (4, 7), 8: (7, 1), 9: (8, 4), 10: (8, 5), 11: (7, 3), 12: (3, 5),
        13: (4, 3), 14: (2, 4), 15: (4, 1), 16: (1, 1), 17: (1, 3), 18: (5, 5),
    }
    return {
        letter: (PhiNumber(Fraction(i, 9)), PhiNumber(Fraction(j, 9)))
        for letter, (i, j) in ninths.items()
    }


def rotation_action():
    """The lattice action x -> x + n * phi^-2 on the unit torus."""
    from .pet import TorusAction

    step = PHI**-2
    return TorusAction(
        (PhiNumber(1), PhiNumber(1)),
        (step, PhiNumber(0)),
        (PhiNumber(0), step),
    )
