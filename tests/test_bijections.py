"""One letter-bijection search closes the Wang loop and labels the partition.

``words.bijections`` is checked against every injective map taken in
lexicographic order, and ``words.classes`` against a plain graph search.
``markers.is_equivalent`` reads its certificate off a bijection that
preserves the side-color relations of the tiles; it is checked against the
color-map search it replaced, certificates and color key order included,
on small random tile sets and on one-color mutants of the Wang loop's final
set.  Fed the edge-matching pairs of two tile sets, ``relabel_to_match``
finds the same bijection as ``is_equivalent``.
"""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import is_equivalent_by_color_maps
from aperiodic_kit.geometry import relabel_to_match
from aperiodic_kit.markers import find_markers, find_substitution, is_equivalent
from aperiodic_kit.wang import BOTTOM, LEFT, RIGHT, TOP, WangTileSet
from aperiodic_kit.words import bijections, classes

SEARCH = settings(max_examples=200, deadline=None)
SIDES = (RIGHT, TOP, LEFT, BOTTOM)


@pytest.fixture(scope="module")
def final_tiles(tiles_u):
    first = find_substitution(find_markers(tiles_u, 2, 2), range(8))
    return find_substitution(find_markers(first.tileset, 1, 1), [0, 1, 2, 8, 9, 10, 11]).tileset


def _pair_sets(draw, letters):
    return draw(st.sets(st.tuples(st.sampled_from(letters), st.sampled_from(letters)))) if letters else set()


@st.composite
def relation_problems(draw):
    """Letters and targets in a drawn order, with one or two relations
    between pairs of them; a target relation holds the image of its source
    relation under one injection, or is drawn on its own."""
    letters = draw(st.permutations(range(draw(st.integers(0, 4)))))
    targets = draw(st.permutations(range(len(letters) + draw(st.integers(0, 2)))))
    image = dict(zip(letters, draw(st.permutations(targets))))
    relations = []
    for _ in range(draw(st.integers(1, 2))):
        source, target = _pair_sets(draw, letters), _pair_sets(draw, targets)
        if draw(st.booleans()):
            target |= {(image[a], image[b]) for a, b in source}
        relations.append((source, target))
    return letters, targets, relations


@SEARCH
@given(relation_problems())
def test_bijections_are_the_preserving_injections_in_order(problem):
    letters, targets, relations = problem
    expected = [
        dict(zip(letters, image))
        for image in permutations(targets, len(letters))
        if all(
            (image[letters.index(a)], image[letters.index(b)]) in target
            for source, target in relations
            for a, b in source
        )
    ]
    assert list(bijections(letters, targets, relations)) == expected


@st.composite
def pair_problems(draw):
    n = draw(st.integers(0, 8))
    return n, _pair_sets(draw, range(n))


@SEARCH
@given(pair_problems())
def test_classes_are_the_connected_components(problem):
    n, pairs = problem
    neighbors = {i: {i} for i in range(n)}
    for a, b in pairs:
        neighbors[a].add(b)
        neighbors[b].add(a)
    components = []
    for start in range(n):
        if any(start in c for c in components):
            continue
        reached, todo = {start}, [start]
        while todo:
            for j in neighbors[todo.pop()] - reached:
                reached.add(j)
                todo.append(j)
        components.append(sorted(reached))
    assert classes(n, pairs) == components


# colors shared by both axes, so the vertical and horizontal maps must stay apart
colors = st.sampled_from("ABC")
tiles = st.tuples(colors, colors, colors, colors)


def _swap_side(tiles, i, k, pos):
    """The tiles with side pos of tiles i and k exchanged: every relation
    between sides keeps its size, so only the search can tell them apart."""
    swapped = list(tiles)
    swapped[i] = tiles[i][:pos] + (tiles[k][pos],) + tiles[i][pos + 1 :]
    swapped[k] = tiles[k][:pos] + (tiles[i][pos],) + tiles[k][pos + 1 :]
    return swapped


@st.composite
def tileset_pairs(draw):
    """A tile set of 1-7 tiles and either a recolored, shuffled copy of it,
    such a copy with one side swapped between two tiles, or an unrelated
    set of as many tiles."""
    first = draw(st.lists(tiles, min_size=1, max_size=7))
    kind = draw(st.sampled_from(["copy", "swapped", "unrelated"]))
    if kind == "unrelated":
        second = draw(st.lists(tiles, min_size=len(first), max_size=len(first)))
        return WangTileSet(first), WangTileSet(second)
    tokens = ["A", "B", "C", "D", "IJ", "PO"]
    vert = dict(zip("ABC", draw(st.permutations(tokens))))
    horiz = dict(zip("ABC", draw(st.permutations(tokens))))
    copy = [(vert[r], horiz[t], vert[l], horiz[b]) for r, t, l, b in first]
    second = draw(st.permutations(copy))
    if kind == "swapped":
        index = st.integers(0, len(second) - 1)
        second = _swap_side(second, draw(index), draw(index), draw(st.sampled_from(SIDES)))
    return WangTileSet(first), WangTileSet(second)


def _assert_same_certificate(tileset, other):
    got = is_equivalent(tileset, other)
    expected = is_equivalent_by_color_maps(tileset, other)
    assert got == expected
    if expected is not None:
        # the color maps are printed and written in their key order
        assert [list(m) for m in got] == [list(m) for m in expected]


@SEARCH
@given(tileset_pairs())
def test_equivalence_matches_the_color_map_search(pair):
    _assert_same_certificate(*pair)


def test_mutants_of_the_final_set(tiles_u, final_tiles):
    # one side recolored with another color of its axis, or one side
    # swapped between two tiles
    rng = random.Random(1802)
    tiles = final_tiles.tiles
    for _ in range(60):
        i, k, pos = rng.randrange(len(tiles)), rng.randrange(len(tiles)), rng.choice(SIDES)
        if rng.random() < 0.5:
            mutant = _swap_side(tiles, i, k, pos)
        else:
            axis = (RIGHT, LEFT) if pos in (RIGHT, LEFT) else (TOP, BOTTOM)
            others = sorted({t[p] for t in tiles for p in axis} - {tiles[i][pos]})
            mutant = list(tiles)
            mutant[i] = tiles[i][:pos] + (rng.choice(others),) + tiles[i][pos + 1 :]
        _assert_same_certificate(tiles_u, WangTileSet(mutant))


def _edge_pairs(tileset):
    """The (left, right) and (bottom, top) tile pairs whose shared edges match."""
    pairs = [(i, k) for i in range(len(tileset)) for k in range(len(tileset))]
    return (
        {(i, k) for i, k in pairs if tileset[i][RIGHT] == tileset[k][LEFT]},
        {(i, k) for i, k in pairs if tileset[i][TOP] == tileset[k][BOTTOM]},
    )


def test_relabel_search_closes_the_wang_loop(partition_u, tiles_u, final_tiles):
    # the partition only supplies 19 labels: the search reads the pairs alone
    horizontal, vertical = _edge_pairs(tiles_u)
    assert (len(horizontal), len(vertical)) == (46, 79)
    letters = relabel_to_match(partition_u, horizontal, vertical, _edge_pairs(final_tiles))
    assert letters == is_equivalent(final_tiles, tiles_u)[2]
