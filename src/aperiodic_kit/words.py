"""Finite 2-dimensional words over an integer alphabet.

A word of shape ``(n1, n2)`` assigns a letter to every cell ``(x, y)`` with
``0 <= x < n1`` and ``0 <= y < n2``; ``y`` grows upward, so the storage is a
tuple of columns, each column read bottom to top.  This matches the
Cartesian convention used everywhere else in the package and keeps the JSON
form (list of columns) identical to the internal one.  ``windows`` is the one
reader of shape-windows, on column tuples: ``subwords``, the language closure,
the seed graph and the tile side's window filters all read it.

Two searches over letters live here too, since both sides of the package
use them: the letter bijections that preserve pair relations, which close
the Wang loop and label the partition's atoms, and the classes of letters
under the equivalence that pairs generate.
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
    def single(cls, letter: int) -> "Word2d":
        return cls([[letter]])

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
    return {Word2d(window) for window in windows(v.columns, shape)}


def windows(columns: tuple, shape: tuple[int, int]) -> Iterator[tuple]:
    """Column tuples of the shape-windows of the word with the given
    columns, with repeats; none when the shape does not fit."""
    s1, s2 = shape
    height = len(columns[0]) if columns else 0
    cuts = [[column[y : y + s2] for y in range(height - s2 + 1)] for column in columns]
    return (window for x in range(len(cuts) - s1 + 1) for window in zip(*cuts[x : x + s1]))


# A 2-dimensional language is just a set of words of a common shape.
Language2d = set[Word2d]


def project(language: Language2d, shape: tuple[int, int]) -> Language2d:
    """The shape-factors of a language's words; ShapeMismatch if it is larger."""
    found: Language2d = set()
    for w in language:
        found |= subwords(w, shape)
    return found


def bijections(letters, targets, relations) -> Iterator[dict]:
    """Every injective map from letters to targets that carries each source
    pair of each ``(source pairs, target pairs)`` relation into the target
    pairs of that relation.

    Letters are assigned in the given order and each tries the targets in
    the given order, so the maps come lexicographically.  A pair (a, a) is
    checked against (t, t) like any pair of assigned letters.
    """
    letters, targets = list(letters), list(targets)
    # each letter's source pairs as (the other letter, the targets each
    # target of this letter allows it): one table per target pair side
    checks: dict = {}
    for pairs, reference in relations:
        after: dict = {}
        before: dict = {}
        for first, second in reference:
            after.setdefault(first, set()).add(second)
            before.setdefault(second, set()).add(first)
        for a, b in pairs:
            checks.setdefault(a, []).append((b, after))
            checks.setdefault(b, []).append((a, before))
    assignment: dict = {}
    used: set = set()

    def consistent(a, t):
        for b, allowed in checks.get(a, ()):
            tb = t if b == a else assignment.get(b)
            if tb is not None and tb not in allowed.get(t, ()):
                return False
        return True

    def search(i):
        if i == len(letters):
            yield dict(assignment)
            return
        a = letters[i]
        for t in targets:
            if t in used or not consistent(a, t):
                continue
            assignment[a] = t
            used.add(t)
            yield from search(i + 1)
            used.discard(t)
            del assignment[a]

    return search(0)


def classes(n: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The classes of range(n) under the equivalence the pairs generate,
    each in increasing order, ordered by their least members."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in pairs:
        parent[find(a)] = find(b)
    # each class is first met at its least member
    found: dict[int, list[int]] = {}
    for i in range(n):
        found.setdefault(find(i), []).append(i)
    return list(found.values())
