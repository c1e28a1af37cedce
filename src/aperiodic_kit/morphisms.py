"""2-dimensional morphisms: rule tables sending letters to rectangular words.

Application assembles a block matrix of letter images, which is defined only
when image widths agree along every column of the argument and image heights
agree along every row.  Languages are closures of factors under the rule,
the seed graph runs over the 2x2 words with a defined image, and periodic
seeds are found by iterating the rule on language words.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Mapping

from .words import Language2d, Word2d, occurs_at, subwords


class UnknownLetter(KeyError):
    """A word uses a letter outside the morphism's domain."""


class UndefinedImage(ValueError):
    """Blockwise image assembly failed: inconsistent image shapes."""


class NotStabilized(RuntimeError):
    """Language generation still growing at the iteration bound."""


class NotExpansive(ValueError):
    """Operation requires an expansive morphism."""


class NotPrimitive(ValueError):
    """Operation requires a primitive morphism."""


class EmptyImage(ValueError):
    """Operation requires every letter image to have both sides at least 1."""


class Morphism2d:
    """Rule table ``letter -> Word2d`` between integer-range alphabets."""

    def __init__(
        self,
        rule: Mapping[int, Word2d | Iterable[Iterable[int]]],
        domain_size: int | None = None,
        codomain_size: int | None = None,
    ):
        table = {}
        for letter, image in rule.items():
            table[int(letter)] = image if isinstance(image, Word2d) else Word2d(image)
        self.rule = table
        self.domain_size = domain_size if domain_size is not None else (
            max(table) + 1 if table else 0
        )
        used = set().union(*(image.letters() for image in table.values()))
        if codomain_size is None:
            codomain_size = max(used) + 1 if used else 0
        self.codomain_size = codomain_size
        if set(table) != set(range(self.domain_size)):
            raise ValueError("rule must cover exactly the letters 0..domain_size-1")
        outside = sorted(b for b in used if not 0 <= b < codomain_size)
        if outside:
            raise ValueError(
                f"image letter {outside[0]} is outside the codomain of size {codomain_size}"
            )

    @classmethod
    def identity(cls, size: int) -> "Morphism2d":
        return cls({a: Word2d.single(a) for a in range(size)}, size, size)

    @classmethod
    def from_permutation(cls, mapping: Mapping[int, int]) -> "Morphism2d":
        size = len(mapping)
        return cls({a: Word2d.single(b) for a, b in mapping.items()}, size, size)

    def __eq__(self, other):
        if not isinstance(other, Morphism2d):
            return NotImplemented
        return self.domain_size == other.domain_size and self.rule == other.rule

    def __hash__(self):
        return hash((self.domain_size, tuple(sorted((k, v) for k, v in self.rule.items()))))

    def image(self, letter: int) -> Word2d:
        try:
            return self.rule[letter]
        except KeyError:
            raise UnknownLetter(letter) from None

    def __call__(self, u: Word2d) -> Word2d:
        return self.apply(u)

    def apply(self, u: Word2d) -> Word2d:
        """Blockwise image of u; origin at the image of u's cell (0, 0)."""
        n1, n2 = u.shape
        if n1 == 0:
            return Word2d([])
        images = [[self.image(u[x, y]) for y in range(n2)] for x in range(n1)]
        widths = []
        for x in range(n1):
            w = images[x][0].shape[0]
            if any(images[x][y].shape[0] != w for y in range(n2)):
                raise UndefinedImage(f"image widths disagree in column {x}")
            widths.append(w)
        heights = []
        for y in range(n2):
            h = images[0][y].shape[1]
            if any(images[x][y].shape[1] != h for x in range(n1)):
                raise UndefinedImage(f"image heights disagree in row {y}")
            heights.append(h)
        columns = []
        for x in range(n1):
            for i in range(widths[x]):
                col = []
                for y in range(n2):
                    col.extend(images[x][y].columns[i])
                columns.append(tuple(col))
        return Word2d(columns)

    def to_json(self) -> dict:
        return {
            "domain": self.domain_size,
            "codomain": self.codomain_size,
            "rule": {str(a): w.to_json() for a, w in sorted(self.rule.items())},
        }

    @classmethod
    def from_json(cls, data: dict) -> "Morphism2d":
        return cls(
            {int(a): Word2d(cols) for a, cols in data["rule"].items()},
            data.get("domain"),
            data.get("codomain"),
        )

    def __repr__(self):
        return (
            f"Morphism2d(<{self.domain_size} letters -> "
            f"words over {self.codomain_size} letters>)"
        )


def compose(m1: Morphism2d, m2: Morphism2d) -> Morphism2d:
    """Rule table of ``letter -> m1(m2(letter))``."""
    if m2.codomain_size > m1.domain_size:
        raise UnknownLetter(
            f"codomain {m2.codomain_size} exceeds domain {m1.domain_size}"
        )
    return Morphism2d(
        {a: m1.apply(w) for a, w in m2.rule.items()},
        m2.domain_size,
        m1.codomain_size,
    )


def is_expansive(m: Morphism2d, bound: int = 12) -> bool:
    """True iff iterated images of every letter grow in both directions.

    Once some power sends every letter to an image of width and height at
    least 2, shapes at least double every further power, so checking powers
    up to ``bound`` decides expansiveness for any reasonable rule table.
    """
    if m.domain_size != m.codomain_size:
        raise ValueError("expansiveness needs domain = codomain")
    words = {a: Word2d.single(a) for a in range(m.domain_size)}
    for _ in range(bound):
        words = {a: m.apply(w) for a, w in words.items()}
        if all(min(w.shape) >= 2 for w in words.values()):
            return True
    return False


def is_primitive(m: Morphism2d) -> bool:
    """True iff some power of the rule makes every letter see every letter."""
    if m.domain_size != m.codomain_size:
        raise ValueError("primitivity needs domain = codomain")
    k = m.domain_size
    if k == 0:
        return False
    reach = [frozenset(m.image(a).letters()) for a in range(k)]
    step = list(reach)
    # Wielandt bound: a primitive k x k matrix has a positive power by (k-1)^2 + 1
    for _ in range((k - 1) ** 2 + 1):
        if all(len(r) == k for r in step):
            return True
        step = [frozenset().union(*(reach[b] for b in r)) if r else frozenset() for r in step]
    return False


def language(m: Morphism2d, shape: tuple[int, int], bound: int = 40) -> Language2d:
    """All factors of the given shape in the words the rule generates.

    The factors are computed as a closure: iterate the rule on letters
    until some image has a factor of the shape, then repeatedly apply the
    rule to each new factor and collect the factors of its image.  This is
    exact under two conditions, which are checked.  Every image side is at
    least 1, so a window of ``m(x)`` spans at most ``shape`` source cells
    per axis and lies inside ``m(u)`` for a factor ``u`` of x: the closure
    holds every factor of every iterate of its first factors.  And the rule
    is primitive, so those iterates contain every letter's iterates: the
    closure is the whole language, whichever factors it starts from.

    Round k collects the new factors of the k-th power, and the first
    round adding none ends the search; a round ``bound`` that still adds
    factors raises NotStabilized, and so does a rule whose images never
    grow to the shape.  A shape with a side below 1 has no factors and
    raises at once.
    """
    s1, s2 = shape
    if s1 < 1 or s2 < 1:
        raise ValueError(f"shape {shape} needs both sides at least 1")
    shapes = [m.image(a).shape for a in range(m.domain_size)]
    if any(min(image_shape) < 1 for image_shape in shapes):
        raise EmptyImage("language by closure needs every image side at least 1")
    if not is_primitive(m):
        raise NotPrimitive("language by closure needs a primitive rule")
    # under primitivity an axis grows without bound once one image is 2 long
    if (s1 > 1 and max(w for w, _ in shapes) == 1) or (s2 > 1 and max(h for _, h in shapes) == 1):
        raise NotStabilized(f"images never grow to shape {shape}")
    images = [Word2d.single(a) for a in range(m.domain_size)]
    seen: Language2d = set()
    frontier: Language2d = set()
    for _ in range(bound):
        if seen:
            grown = [m.apply(u) for u in frontier]
        else:
            images = [m.apply(w) for w in images]
            grown = images
        frontier = set()
        for w in grown:
            if w.shape[0] >= s1 and w.shape[1] >= s2:
                frontier |= subwords(w, shape)
        frontier -= seen
        if seen and not frontier:
            return seen
        seen |= frontier
    raise NotStabilized(f"language at shape {shape} still growing after {bound} iterations")


def seeds(m: Morphism2d) -> Language2d:
    """2x2 words lying on a cycle of the factor graph of the rule.

    The graph has an edge ``u -> v`` from a 2x2 word u whose image is
    defined to every 2x2 factor v of that image.  A word whose image is
    undefined (its columns' letters differ in image width, or its rows'
    letters in image height) has no out-edge, so it lies on no cycle: the
    graph is built over the defined-image words alone, and edges into
    other words are dropped.  Vertices are keyed by their column tuples
    and each image's windows are read straight off its columns.  Vertices
    on cycles are those inside a strongly connected component of size > 1
    or carrying a self-loop.
    """
    if m.domain_size != m.codomain_size:
        raise ValueError("seed graph needs domain = codomain")
    images = [m.image(a) for a in range(m.domain_size)]
    # the image of each column (a, b) whose letters' images share a width,
    # grouped by the heights of its two blocks
    columns: dict[tuple[int, int], list] = {}
    for a, b in product(range(m.domain_size), repeat=2):
        (wa, ha), (wb, hb) = images[a].shape, images[b].shape
        if wa == wb:
            block = tuple(ca + cb for ca, cb in zip(images[a].columns, images[b].columns))
            columns.setdefault((ha, hb), []).append(((a, b), block))
    graph = {
        (left, right): left_image + right_image
        for group in columns.values()
        for (left, left_image), (right, right_image) in product(group, repeat=2)
    }
    vertices = list(graph)
    index = {v: i for i, v in enumerate(vertices)}
    edges = []
    for image in graph.values():
        found = {((c[y], c[y + 1]), (d[y], d[y + 1]))
                 for c, d in zip(image, image[1:]) for y in range(len(c) - 1)}
        edges.append([index[w] for w in found if w in index])
    on_cycle = _cycle_vertices(len(vertices), edges)
    return {Word2d(vertices[i]) for i in on_cycle}


def _cycle_vertices(n: int, edges: list[list[int]]) -> set[int]:
    """Vertices on some directed cycle (iterative Tarjan SCC)."""
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    result: set[int] = set()
    counter = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index_of[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for j in range(ei, len(edges[v])):
                w = edges[v][j]
                if index_of[w] == -1:
                    work[-1] = (v, j + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index_of[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                if len(component) > 1 or v in edges[v]:
                    result.update(component)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return result


def periodic_seeds(m: Morphism2d, max_period: int) -> list[tuple[Word2d, int]]:
    """2x2 language words that regenerate themselves under a power of m.

    A pair ``(u, k)`` is reported when u reoccurs in ``m^k(u)`` straddling
    the corner where the four letter-image blocks meet, i.e. at position
    ``shape(m^k(u(0,0))) - (1, 1)``: growing such a word by powers of m^k
    then converges to a configuration of the plane fixed by m^k.  Each u is
    reported once, with the least witnessing k.
    """
    if not is_expansive(m):
        raise NotExpansive("periodic seeds need an expansive morphism")
    found = []
    for u in sorted(language(m, (2, 2)), key=lambda w: w.columns):
        corner = Word2d.single(u[0, 0])
        image = u
        for k in range(1, max_period + 1):
            corner = m.apply(corner)
            image = m.apply(image)
            pos = (corner.shape[0] - 1, corner.shape[1] - 1)
            if occurs_at(u, image, pos):
                found.append((u, k))
                break
    return found
