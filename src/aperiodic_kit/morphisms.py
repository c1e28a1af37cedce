"""2-dimensional morphisms: rule tables sending letters to rectangular words.

Application assembles a block matrix of letter images, which is defined only
when image widths agree along every column of the argument and image heights
agree along every row.  Languages are closures of factors under the rule,
run on column tuples; the seed graph is searched for cycles only on the
limit set of the rule's action on 2x2 words, and periodic seeds are found
by iterating the rule on language words.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Iterable, Mapping

from .words import Language2d, Word2d, occurs_at


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
        return Word2d(_block_image(self.rule, u.columns))

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


def _block_image(rule: Mapping[int, Word2d], columns: tuple) -> tuple:
    """Columns of the blockwise image of the word with the given columns."""
    try:
        blocks = [[rule[letter] for letter in column] for column in columns]
    except KeyError as missing:
        raise UnknownLetter(missing.args[0]) from None
    for x, column in enumerate(blocks):
        if len({block.shape[0] for block in column}) > 1:
            raise UndefinedImage(f"image widths disagree in column {x}")
    for y, row in enumerate(zip(*blocks)):
        if len({block.shape[1] for block in row}) > 1:
            raise UndefinedImage(f"image heights disagree in row {y}")
    return tuple(
        tuple(chain.from_iterable(pieces))
        for column in blocks
        for pieces in zip(*(block.columns for block in column))
    )


def _windows(columns: tuple, shape: tuple[int, int]):
    """Column tuples of the shape-factors of the word with the given columns."""
    s1, s2 = shape
    height = len(columns[0]) if columns else 0
    cuts = [[column[y : y + s2] for y in range(height - s2 + 1)] for column in columns]
    return (window for x in range(len(cuts) - s1 + 1) for window in zip(*cuts[x : x + s1]))


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


def is_expansive(m: Morphism2d) -> bool:
    """True iff iterated images of every letter grow in both directions.

    A rule with an empty image is not expansive.  Otherwise every image side
    is at least 1, so the sides of a letter's iterates never shrink, and
    they grow past 1 in a direction exactly when the letters of its
    iterates, the letter itself included, hold an image at least 2 long in
    it.  Some power then sends every letter to an image at least 2x2, and
    the shapes of its powers at least double.  The letters of the iterates
    are the letters reachable from the letter, so no power bound is needed.
    """
    if m.domain_size != m.codomain_size:
        raise ValueError("expansiveness needs domain = codomain")
    images = [m.image(a) for a in range(m.domain_size)]
    if any(0 in w.shape for w in images):
        return False
    for a in range(m.domain_size):
        reached, frontier = {a}, [a]
        while frontier:
            for b in images[frontier.pop()].letters() - reached:
                reached.add(b)
                frontier.append(b)
        shapes = [images[b].shape for b in reached]
        if max(width for width, _ in shapes) < 2 or max(height for _, height in shapes) < 2:
            return False
    return True


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
    images = [((a,),) for a in range(m.domain_size)]
    seen: set[tuple] = set()
    frontier: set[tuple] = set()
    for _ in range(bound):
        if seen:
            grown = [_block_image(m.rule, u) for u in frontier]
        else:
            images = [_block_image(m.rule, w) for w in images]
            grown = images
        frontier = set()
        for w in grown:
            frontier.update(_windows(w, shape))
        frontier -= seen
        if seen and not frontier:
            return {Word2d(u) for u in seen}
        seen |= frontier
    raise NotStabilized(f"language at shape {shape} still growing after {bound} iterations")


def seeds(m: Morphism2d) -> Language2d:
    """2x2 words lying on a cycle of the factor graph of the rule.

    The graph has an edge ``u -> v`` from a 2x2 word u whose image is
    defined to every 2x2 factor v of that image.  A word whose image is
    undefined (its columns' letters differ in image width, or its rows'
    letters in image height) has no out-edge, so it lies on no cycle, and
    edges into it are dropped.  A word is a pair (l, r) of letter columns,
    and its image is ``block(l) + block(r)``, so each of its factors lies
    inside block(l), inside block(r), or across the seam of the last column
    of block(l) and the first of block(r): factors are read once per column
    and once per seam the search meets, and the graph itself is never
    built.

    A word on a cycle has backward paths of every length, so it lies in
    the limit set, the fixed point of ``S <- succ(S)`` started from the
    factors of every image (the sets only shrink).  That set is closed
    under successors, so the cycles of the graph on it are all the cycles:
    for the catalog rule, 367 of the 10,825 words with a defined image.
    Vertices on cycles are those inside a strongly connected component of
    size > 1 or carrying a self-loop.
    """
    if m.domain_size != m.codomain_size:
        raise ValueError("seed graph needs domain = codomain")
    images = [m.image(a) for a in range(m.domain_size)]
    # the image block of each column (a, b) whose letters' images share a
    # width, and the heights of its two blocks: (l, r) has a defined image
    # exactly when both columns have a block and their heights agree; a
    # column of empty images gets no block, since its words have no factor
    blocks, heights, groups = {}, {}, {}
    for a, b in product(range(m.domain_size), repeat=2):
        (wa, ha), (wb, hb) = images[a].shape, images[b].shape
        if wa == wb > 0:
            blocks[a, b] = tuple(ca + cb for ca, cb in zip(images[a].columns, images[b].columns))
            heights[a, b] = (ha, hb)
            groups.setdefault((ha, hb), []).append(blocks[a, b])

    def defined(found):
        return {(l, r) for l, r in found if l in heights and heights[l] == heights.get(r)}

    inside = {column: defined(_windows(block, (2, 2))) for column, block in blocks.items()}
    # the seam factors of every word of a group: at row y, each vertical
    # domino of a last block column beside each of a first block column
    across = set()
    for group in groups.values():
        lasts, firsts = {block[-1] for block in group}, {block[0] for block in group}
        for y in range(len(group[0][0]) - 1):
            dominoes = [{column[y : y + 2] for column in side} for side in (lasts, firsts)]
            across |= defined(product(*dominoes))
    seams: dict[tuple, set] = {}

    def succ(v):
        l, r = v
        seam = blocks[l][-1], blocks[r][0]
        if seam not in seams:
            seams[seam] = defined(_windows(seam, (2, 2)))
        return inside[l] | inside[r] | seams[seam]

    limit, step = None, set().union(*inside.values(), across)
    while step != limit:
        limit, step = step, set().union(*map(succ, step))
    vertices = list(limit)
    index = {v: i for i, v in enumerate(vertices)}
    on_cycle = _cycle_vertices(len(vertices), [[index[w] for w in succ(v)] for v in vertices])
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
