import random
from itertools import product

import pytest
from _oracles import concat, from_rows, full_graph_seeds, identity, iterated_language
from hypothesis import given, settings
from hypothesis import strategies as st

from aperiodic_kit.morphisms import (
    EmptyImage,
    Morphism2d,
    NotExpansive,
    NotPrimitive,
    NotStabilized,
    UndefinedImage,
    UnknownLetter,
    compose,
    is_expansive,
    is_primitive,
    language,
    periodic_seeds,
    seeds,
)
from aperiodic_kit.words import Word2d, occurs_at, project, subwords


class TestApply:
    def test_square_example(self, phi):
        u = from_rows([[7, 1], [13, 9]])
        assert phi(u).rows() == [(14, 8, 16), (6, 1, 3), (14, 11, 17)]

    def test_inconsistent_block(self, phi):
        # images of 11 (width 1) and 6 (width 2) cannot stack
        with pytest.raises(UndefinedImage):
            phi(Word2d([[11, 6]]))

    def test_more_image_shapes(self, phi):
        assert phi(Word2d.single(13)).rows() == [(6, 1), (14, 11)]
        assert phi(Word2d([[16], [8]])).rows() == [(5, 1, 6), (18, 10, 14)]

    def test_identity(self, phi):
        ident = identity(19)
        u = from_rows([[7, 1], [13, 9]])
        assert ident(u) == u

    def test_unknown_letter(self, phi):
        with pytest.raises(UnknownLetter):
            phi(Word2d.single(19))

    def test_occurrence_in_image(self, phi):
        img = phi(Word2d.single(13))
        assert occurs_at(Word2d.single(14), img, (0, 0))
        assert not occurs_at(Word2d.single(14), img, (0, 1))

    def test_morphism_law_on_language_pairs(self, phi):
        rng = random.Random(11)
        pool = sorted(language(phi, (3, 3)), key=lambda w: w.columns)
        three_six = language(phi, (3, 6))
        six_three = language(phi, (6, 3))
        checked = 0
        while checked < 200:
            u = rng.choice(pool)
            v = rng.choice(pool)
            for i, bigger in ((1, six_three), (2, three_six)):
                try:
                    uv = concat(u, v, i)
                except Exception:
                    continue
                if uv not in bigger:
                    continue
                assert phi(uv) == concat(phi(u), phi(v), i)
                checked += 1


class TestCompose:
    def test_identity_neutral(self, phi):
        ident = identity(19)
        assert compose(ident, phi) == phi
        assert compose(phi, ident) == phi

    def test_permutation_compose(self):
        swap = Morphism2d.from_permutation({0: 1, 1: 0})
        double = Morphism2d({0: [[0, 0]], 1: [[1], [1]]})
        both = compose(double, swap)
        assert both.image(0) == Word2d([[1], [1]])
        assert both.image(1) == Word2d([[0, 0]])


class TestStructure:
    def test_phi_expansive(self, phi):
        assert is_expansive(phi)

    def test_identity_not_expansive(self):
        assert not is_expansive(identity(1))

    def test_column_only_growth_not_expansive(self):
        tall = Morphism2d({0: [[0, 0]]})  # 1x2 image: width never grows
        assert not is_expansive(tall)

    def test_late_growth_is_expansive(self):
        # i -> i+1 for i < 14 and 14 -> a 2x2 block of 14: the iterates of
        # 0 stay 1x1 up to the 14th power and are at least 2x2 from the 15th
        rule = {i: [[i + 1]] for i in range(14)}
        rule[14] = [[14, 14], [14, 14]]
        assert is_expansive(Morphism2d(rule))

    def test_empty_image_not_expansive(self):
        assert not is_expansive(Morphism2d({0: [[0, 1], [1, 0]], 1: []}, 2, 2))

    def test_phi_primitive(self, phi):
        assert is_primitive(phi)

    def test_identity_not_primitive(self):
        assert not is_primitive(identity(2))

    def test_swap_not_primitive(self):
        assert not is_primitive(Morphism2d.from_permutation({0: 1, 1: 0}))


class TestLanguage:
    def test_cell_count(self, phi):
        assert {w[0, 0] for w in language(phi, (1, 1))} == set(range(19))

    def test_domino_counts(self, phi, h_dominoes, v_dominoes):
        horiz = {(w[0, 0], w[1, 0]) for w in language(phi, (2, 1))}
        vert = {(w[0, 0], w[0, 1]) for w in language(phi, (1, 2))}
        assert horiz == h_dominoes
        assert vert == v_dominoes

    def test_square_count(self, phi):
        assert len(language(phi, (2, 2))) == 50

    def test_vertical_dominoes_of_second_image(self, phi, v_dominoes):
        w = phi(phi(Word2d.single(14)))
        pairs = {(p[0, 0], p[0, 1]) for p in subwords(w, (1, 2))}
        assert pairs <= v_dominoes

    def test_square_membership_query(self, phi):
        w = from_rows([[1, 2], [10, 14]])
        assert (w in language(phi, (2, 2))) is False

    def test_not_stabilized_at_tiny_bound(self, phi):
        from aperiodic_kit.morphisms import NotStabilized

        with pytest.raises(NotStabilized):
            language(phi, (2, 2), bound=2)

    @pytest.mark.parametrize("shape", [(2, -1), (0, 3), (0, 0), (-1, -1)])
    def test_shape_below_one_raises_at_once(self, phi, shape):
        # a side below 1 has no factors; it used to apply the rule until the
        # images outgrew memory
        with pytest.raises(ValueError, match="at least 1"):
            language(phi, shape)

    def test_sub_shapes_project_from_the_largest(self, phi):
        table = language(phi, (3, 3))
        for shape in [(s1, s2) for s1 in (1, 2, 3) for s2 in (1, 2, 3)]:
            assert project(table, shape) == language(phi, shape)


def random_rule(rng: random.Random) -> Morphism2d:
    """A rule on 2-4 letters with image sides 1 and 2.

    Image widths and heights are drawn from sets W and H holding 2 and, in
    one of them, also 1, so images grow in both axes and some 2x2 words
    have an undefined image.  Every letter of image width w fills the
    columns of its image with letters of the image widths ``columns[w]``,
    and likewise for rows, so the image of a defined word is defined again
    and every iterate of a letter is.
    """
    widths, heights = rng.choice([((1, 2), (2,)), ((2,), (1, 2)), ((1, 2), (1, 2))])
    kinds = list(product(widths, heights))
    size = rng.randint(max(2, len(kinds)), 4)
    shapes = kinds + [rng.choice(kinds) for _ in range(size - len(kinds))]
    rng.shuffle(shapes)
    columns = {w: [rng.choice(widths) for _ in range(w)] for w in widths}
    rows = {h: [rng.choice(heights) for _ in range(h)] for h in heights}
    letters = {kind: [a for a, s in enumerate(shapes) if s == kind] for kind in kinds}
    rule = {
        a: [[rng.choice(letters[columns[w][x], rows[h][y]]) for y in range(h)] for x in range(w)]
        for a, (w, h) in enumerate(shapes)
    }
    return Morphism2d(rule, size, size)


def primitive_rule(seed: int) -> Morphism2d:
    rng = random.Random(seed)
    while True:
        m = random_rule(rng)
        if is_primitive(m):
            return m


primitive_rules = st.integers(0, 2**32).map(primitive_rule)


@st.composite
def arbitrary_rule(draw):
    """Rules on 2 or 3 letters with image sides 0..2, defined or not."""
    size = draw(st.integers(2, 3))
    rule = {}
    for a in range(size):
        width, height = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        rule[a] = draw(
            st.lists(
                st.lists(st.integers(0, size - 1), min_size=height, max_size=height),
                min_size=width,
                max_size=width,
            )
        )
    return Morphism2d(rule, size, size)


arbitrary_rules = arbitrary_rule()


class TestLanguageByClosure:
    @pytest.mark.parametrize(
        "shape", [(s1, s2) for s1 in (1, 2, 3) for s2 in (1, 2, 3)] + [(6, 6)]
    )
    def test_equals_iterated_letter_images(self, phi, shape):
        assert language(phi, shape) == iterated_language(phi, shape)

    @settings(max_examples=60, deadline=None)
    @given(primitive_rules, st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3)]))
    def test_small_primitive_rules(self, m, shape):
        assert language(m, shape) == iterated_language(m, shape)

    def test_non_primitive_rule_raises(self):
        with pytest.raises(NotPrimitive):
            language(Morphism2d.from_permutation({0: 1, 1: 0}), (1, 1))

    def test_empty_image_raises(self):
        with pytest.raises(EmptyImage):
            language(Morphism2d({0: [[0, 1], [1, 0]], 1: []}, 2, 2), (1, 1))

    def test_axis_that_never_grows_raises(self):
        # every image has width 1, so no iterate is ever two letters wide
        tall = Morphism2d({0: [[0, 1]], 1: [[1, 0]]})
        with pytest.raises(NotStabilized):
            language(tall, (2, 1))
        assert len(language(tall, (1, 2))) == 4


class TestSeeds:
    def test_equal_full_graph_seeds(self, phi):
        found = seeds(phi)
        assert len(found) == 360
        assert found == full_graph_seeds(phi)

    @settings(max_examples=60, deadline=None)
    @given(primitive_rules)
    def test_small_primitive_rules_equal_full_graph_seeds(self, m):
        assert seeds(m) == full_graph_seeds(m)

    @pytest.mark.parametrize(
        "rule, count",
        [
            # letter 1 has an empty image, so no word holding it has a factor
            ({0: [[0, 1], [1, 0]], 1: []}, 0),
            # a 1x1 permutation: every 2x2 word is its own image's factor
            ({0: [[1]], 1: [[0]]}, 16),
            # image widths 1 and 2 disagree, so words mixing the letters in
            # a column have no image
            ({0: [[1]], 1: [[0], [1]]}, 3),
        ],
    )
    def test_edge_rules_equal_full_graph_seeds(self, rule, count):
        m = Morphism2d(rule, 2, 2)
        found = seeds(m)
        assert len(found) == count
        assert found == full_graph_seeds(m)

    @settings(max_examples=80, deadline=None)
    @given(arbitrary_rules)
    def test_arbitrary_rules_equal_full_graph_seeds(self, m):
        assert seeds(m) == full_graph_seeds(m)

    def test_known_seed_present(self, phi):
        assert from_rows([[9, 14], [1, 6]]) in seeds(phi)

    def test_identity_seeds_everything(self):
        ident = identity(2)
        assert len(seeds(ident)) == 16

    def test_language_seeds_are_seeds(self, phi):
        found = seeds(phi)
        for u, _ in periodic_seeds(phi, 2):
            assert u in found

    def test_seeds_escape_language(self, phi):
        # The full factor graph has cycles through words outside the
        # language: (8,14 / 1,6) and (6,7 / 14,13) are factors of each
        # other's images although neither top row is an allowed domino.
        # The containment seeds <= language(2,2) therefore FAILS; the
        # uniqueness report records this rather than asserting it.
        u = from_rows([[8, 14], [1, 6]])
        v = from_rows([[6, 7], [14, 13]])
        found = seeds(phi)
        lang = language(phi, (2, 2))
        assert u in found and v in found
        assert u not in lang and v not in lang
        from aperiodic_kit.words import subwords as factors

        assert v in factors(phi(u), (2, 2))
        assert u in factors(phi(v), (2, 2))


class TestPeriodicSeeds:
    def test_count_and_example(self, phi):
        found = periodic_seeds(phi, 2)
        assert len(found) == 8
        assert (from_rows([[9, 14], [1, 6]]), 2) in found
        assert all(k == 2 for _, k in found)

    def test_identity_rejected(self):
        with pytest.raises(NotExpansive):
            periodic_seeds(identity(2), 1)

    def test_nested_growth(self, phi):
        w = from_rows([[9, 14], [1, 6]])
        prev = w
        for _ in range(2):
            nxt = phi(phi(prev))
            inner = [
                (x, y)
                for x in range(nxt.shape[0] - prev.shape[0] + 1)
                for y in range(nxt.shape[1] - prev.shape[1] + 1)
                if occurs_at(prev, nxt, (x, y))
                and 0 < x and x + prev.shape[0] < nxt.shape[0]
                and 0 < y and y + prev.shape[1] < nxt.shape[1]
            ]
            assert inner, "patch should reoccur strictly inside its double image"
            prev = nxt


def test_image_letter_outside_codomain_rejected():
    with pytest.raises(ValueError, match="5"):
        Morphism2d.from_json({"domain": 1, "codomain": 2, "rule": {"0": [[5]]}})
    wider = Morphism2d.from_json({"domain": 1, "codomain": 6, "rule": {"0": [[5]]}})
    assert wider.codomain_size == 6
