import pytest
from _oracles import concat, empty_word, from_rows
from hypothesis import given
from hypothesis import strategies as st

from aperiodic_kit.words import ShapeMismatch, Word2d, occurs_at, project, subwords


def small_words(max_side=4):
    return st.integers(1, max_side).flatmap(
        lambda n1: st.integers(1, max_side).flatmap(
            lambda n2: st.lists(
                st.lists(st.integers(0, 9), min_size=n2, max_size=n2),
                min_size=n1,
                max_size=n1,
            ).map(Word2d)
        )
    )


class TestConstruction:
    def test_from_rows_matches_columns(self):
        # rows top first: (4 5 / 10 5) has 4 above 10 and 5 above 5
        w = from_rows([[4, 5], [10, 5]])
        assert w.shape == (2, 2)
        assert w[0, 0] == 10 and w[0, 1] == 4
        assert w[1, 0] == 5 and w[1, 1] == 5
        assert w == Word2d([[10, 4], [5, 5]])

    def test_ragged_columns_rejected(self):
        with pytest.raises(ShapeMismatch):
            Word2d([[1, 2], [3]])

    def test_empty(self):
        # every degenerate shape denotes the one empty word
        assert Word2d([]).shape == (0, 0)
        assert empty_word((0, 5)).shape == (0, 0)
        assert empty_word((3, 0)) == Word2d([])

    def test_display_rows(self):
        w = from_rows([[3, 10], [9, 9], [0, 0]])
        assert w.rows() == [(3, 10), (9, 9), (0, 0)]


class TestConcat:
    def test_vertical_example(self):
        u = from_rows([[4, 5], [10, 5]])
        v = from_rows([[3, 10], [9, 9], [0, 0]])
        w = concat(u, v, 2)
        assert w.rows() == [(3, 10), (9, 9), (0, 0), (4, 5), (10, 5)]
        assert concat(v, u, 2).rows() == [(4, 5), (10, 5), (3, 10), (9, 9), (0, 0)]

    def test_horizontal_example(self):
        left = from_rows(
            [[2, 8, 7], [7, 3, 9], [1, 1, 0], [6, 6, 7], [7, 4, 3]]
        )
        right = from_rows([[3, 10], [9, 9], [0, 0], [4, 5], [10, 5]])
        w = concat(left, right, 1)
        assert w.shape == (5, 5)
        assert w.rows() == [
            (2, 8, 7, 3, 10),
            (7, 3, 9, 9, 9),
            (1, 1, 0, 0, 0),
            (6, 6, 7, 4, 5),
            (7, 4, 3, 10, 5),
        ]

    def test_identity_with_empty(self):
        u = from_rows([[1, 2], [3, 4]])
        assert concat(u, empty_word((0, 2)), 1) == u
        assert concat(Word2d([]), u, 2) == u

    def test_mismatch(self):
        u = Word2d([[1, 2]])  # 1x2
        v = Word2d([[1], [2]])  # 2x1
        with pytest.raises(ShapeMismatch):
            concat(u, v, 1)
        with pytest.raises(ShapeMismatch):
            concat(u, v, 2)

    @given(small_words(), small_words(), small_words(), st.integers(1, 2))
    def test_shape_law_and_associativity(self, u, v, w, i):
        perp = 2 - i  # index of the preserved axis in the shape tuple
        if u.shape[perp] != v.shape[perp]:
            return
        uv = concat(u, v, i)
        assert uv.shape[i - 1] == u.shape[i - 1] + v.shape[i - 1]
        assert uv.shape[perp] == u.shape[perp]
        if w.shape[perp] == u.shape[perp]:
            assert concat(uv, w, i) == concat(u, concat(v, w, i), i)

    @given(small_words(), small_words(), st.integers(1, 2))
    def test_operands_occur_in_concat(self, u, v, i):
        if u.shape[2 - i] != v.shape[2 - i]:
            return
        uv = concat(u, v, i)
        assert occurs_at(u, uv, (0, 0))
        offset = (u.shape[0], 0) if i == 1 else (0, u.shape[1])
        assert occurs_at(v, uv, offset)


class TestOccursAndSubwords:
    def test_self_occurrence(self):
        u = from_rows([[1, 2], [3, 4]])
        assert occurs_at(u, u, (0, 0))

    def test_out_of_range_is_false(self):
        u = from_rows([[1]])
        v = from_rows([[1, 2], [3, 4]])
        assert not occurs_at(v, u, (0, 0))
        assert not occurs_at(u, v, (5, 0))
        assert not occurs_at(u, v, (-1, 0))

    def test_subwords_whole(self):
        u = from_rows([[1, 2], [3, 4]])
        assert subwords(u, (2, 2)) == {u}

    def test_subwords_cells(self):
        u = from_rows([[14, 8, 16], [6, 1, 3], [14, 11, 17]])
        cells = subwords(u, (1, 1))
        assert {w[0, 0] for w in cells} == {14, 8, 16, 6, 1, 3, 11, 17}

    def test_subwords_too_large(self):
        with pytest.raises(ShapeMismatch):
            subwords(Word2d([[1]]), (2, 1))

    @pytest.mark.parametrize("shape", [(0, 1), (1, 0), (2, -1)])
    def test_subwords_side_below_one(self, shape):
        with pytest.raises(ValueError, match="at least 1"):
            subwords(Word2d([[1, 2], [3, 4]]), shape)

    @given(small_words(4))
    def test_every_subword_occurs(self, w):
        for piece in subwords(w, (1, min(2, w.shape[1]))):
            assert any(
                occurs_at(piece, w, (x, y))
                for x in range(w.shape[0])
                for y in range(w.shape[1])
            )


class TestProject:
    def test_union_of_factors(self):
        u = from_rows([[1, 2], [3, 4]])
        v = from_rows([[4, 5], [6, 7]])
        assert project({u, v}, (1, 1)) == {Word2d.single(a) for a in range(1, 8)}
        assert project({u, v}, (2, 2)) == {u, v}
        assert project(set(), (2, 2)) == set()

    @pytest.mark.parametrize("shape", [(3, 1), (1, 3), (3, 3)])
    def test_shape_larger_than_the_language(self, shape):
        with pytest.raises(ValueError, match="exceeds word shape"):
            project({from_rows([[1, 2], [3, 4]])}, shape)

    @given(small_words(4), st.integers(1, 4), st.integers(1, 4))
    def test_projection_of_projection(self, w, s1, s2):
        # projecting in two steps equals projecting at once
        t1, t2 = min(s1, w.shape[0]), min(s2, w.shape[1])
        middle = project({w}, (t1, t2))
        assert project(middle, (1, 1)) == project({w}, (1, 1))
        assert project(middle, (t1, t2)) == middle
