"""Finite 2-dimensional words over an integer alphabet.

A word of shape ``(n1, n2)`` assigns a letter to every cell ``(x, y)`` with
``0 <= x < n1`` and ``0 <= y < n2``; ``y`` grows upward, so the storage is a
tuple of columns, each column read bottom to top.  This matches the
Cartesian convention used everywhere else in the package and keeps the JSON
form (list of columns) identical to the internal one.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class ShapeMismatch(ValueError):
    """Operands have incompatible shapes."""


class Word2d:
    """Immutable 2-dimensional word; cells indexed by (x, y), y upward."""

    __slots__ = ("columns", "shape")

    def __init__(self, columns: Iterable[Sequence[int]]):
        cols = tuple(tuple(col) for col in columns)
        if cols and any(len(c) != len(cols[0]) for c in cols):
            raise ShapeMismatch("columns must share a common height")
        height = len(cols[0]) if cols else 0
        if height == 0:
            cols = ()
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "shape", (len(cols), height))

    def __setattr__(self, name, value):
        raise AttributeError("Word2d is immutable")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "Word2d":
        """Build from rows listed top row first (matrix display order)."""
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            return cls([])
        return cls(
            [[rows[y][x] for y in range(len(rows) - 1, -1, -1)] for x in range(len(rows[0]))]
        )

    @classmethod
    def single(cls, letter: int) -> "Word2d":
        return cls([[letter]])

    @classmethod
    def empty(cls, shape: tuple[int, int] = (0, 0)) -> "Word2d":
        n1, n2 = shape
        if n1 and n2:
            raise ValueError("empty word needs a zero dimension")
        return cls([])

    def __getitem__(self, pos: tuple[int, int]) -> int:
        x, y = pos
        return self.columns[x][y]

    def __len__(self):
        return self.shape[0] * self.shape[1]

    def __iter__(self) -> Iterator[tuple[tuple[int, int], int]]:
        for x, col in enumerate(self.columns):
            for y, letter in enumerate(col):
                yield (x, y), letter

    def letters(self) -> set[int]:
        return {letter for _, letter in self}

    def rows(self) -> list[tuple[int, ...]]:
        """Rows listed top row first."""
        n1, n2 = self.shape
        return [tuple(self.columns[x][y] for x in range(n1)) for y in range(n2 - 1, -1, -1)]

    def __eq__(self, other):
        return isinstance(other, Word2d) and self.columns == other.columns

    def __hash__(self):
        return hash(self.columns)

    def __str__(self):
        if not self.columns:
            return "(empty word)"
        width = max(len(str(letter)) for _, letter in self)
        return "\n".join(" ".join(str(v).rjust(width) for v in row) for row in self.rows())

    def __repr__(self):
        return f"Word2d({[list(c) for c in self.columns]})"

    def to_json(self) -> list[list[int]]:
        return [list(c) for c in self.columns]


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


def occurs_at(u: Word2d, v: Word2d, pos: tuple[int, int]) -> bool:
    """True iff u occurs in v with its lower-left cell at pos."""
    px, py = pos
    (un1, un2), (vn1, vn2) = u.shape, v.shape
    if px < 0 or py < 0 or px + un1 > vn1 or py + un2 > vn2:
        return False
    return all(
        v.columns[px + x][py + y] == u.columns[x][y]
        for x in range(un1)
        for y in range(un2)
    )


def subwords(v: Word2d, shape: tuple[int, int]) -> set[Word2d]:
    """All distinct factors of v of the given shape."""
    s1, s2 = shape
    n1, n2 = v.shape
    if s1 < 1 or s2 < 1:
        raise ValueError(f"shape {shape} needs both sides at least 1")
    if s1 > n1 or s2 > n2:
        raise ShapeMismatch(f"shape {shape} exceeds word shape {v.shape}")
    found = set()
    for x in range(n1 - s1 + 1):
        for y in range(n2 - s2 + 1):
            found.add(Word2d([v.columns[x + i][y : y + s2] for i in range(s1)]))
    return found


# A 2-dimensional language is just a set of words of a common shape.
Language2d = set[Word2d]


def project(language: Language2d, shape: tuple[int, int]) -> Language2d:
    """The shape-factors of a language's words; ShapeMismatch if it is larger."""
    found: Language2d = set()
    for w in language:
        found |= subwords(w, shape)
    return found
