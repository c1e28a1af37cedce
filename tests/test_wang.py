import random

import pytest

import _oracles
from aperiodic_kit import wang
from aperiodic_kit.morphisms import language
from aperiodic_kit.wang import (
    SingularLattice,
    TilingInstance,
    UnknownTileIndex,
    WangTileSet,
    admits_surrounding,
    dominoes_with_surrounding,
    exists_periodic_tiling,
    is_valid_pattern,
    patterns_with_surrounding,
    solve,
    solve_all,
    sublattice_bases,
)
from aperiodic_kit.words import Word2d


def random_tileset(rng, tiles=5, colors=3):
    names = "abcdefg"[:colors]
    return WangTileSet(
        [tuple(rng.choice(names) for _ in range(4)) for _ in range(tiles)]
    )


class TestValidity:
    def test_single_cell_always_valid(self, tiles_u):
        for t in range(19):
            assert is_valid_pattern(tiles_u, Word2d.single(t))

    def test_color_mismatch(self, tiles_u):
        # tile 0 next to itself: right F vs left J
        assert not is_valid_pattern(tiles_u, Word2d([[0], [0]]))

    def test_unknown_index(self, tiles_u):
        with pytest.raises(UnknownTileIndex):
            is_valid_pattern(tiles_u, Word2d.single(19))


class TestSolve:
    def test_5x5_and_7x7_exist(self, tiles_u):
        for n in (5, 7):
            sol = solve(TilingInstance(tiles_u, (n, n)))
            assert sol is not None and sol.shape == (n, n)
            assert is_valid_pattern(tiles_u, sol)

    def test_fixed_single_cell(self, tiles_u):
        sol = solve(TilingInstance(tiles_u, (1, 1), {(0, 0): 3}))
        assert sol == Word2d.single(3)

    def test_deterministic_and_least(self, tiles_u):
        a = solve(TilingInstance(tiles_u, (3, 3)))
        b = solve(TilingInstance(tiles_u, (3, 3)))
        assert a == b
        everything = solve_all(TilingInstance(tiles_u, (2, 2)))
        scan = lambda w: [w[x, y] for y in range(2) for x in range(2)]
        assert scan(solve(TilingInstance(tiles_u, (2, 2)))) == min(map(scan, everything))

    def test_backends_agree_on_u(self, tiles_u):
        for shape in [(2, 2), (3, 2), (1, 4)]:
            instance = TilingInstance(tiles_u, shape)
            assert solve(instance) is not None
            second = _oracles.exact_cover_solve(instance)
            assert second is not None and is_valid_pattern(tiles_u, second)
        # an unsatisfiable instance: two horizontally adjacent copies of tile 0
        bad = TilingInstance(tiles_u, (2, 1), {(0, 0): 0, (1, 0): 0})
        assert solve(bad) is None
        assert _oracles.exact_cover_solve(bad) is None

    def test_backends_vs_brute_force_random_sets(self):
        rng = random.Random(23)
        for _ in range(12):
            ts = random_tileset(rng)
            for shape in [(2, 2), (3, 2), (3, 3)]:
                expected = _oracles.brute_force_satisfiable(ts, shape)
                got_bt = solve(TilingInstance(ts, shape)) is not None
                got_xc = _oracles.exact_cover_solve(TilingInstance(ts, shape)) is not None
                assert got_bt == expected
                assert got_xc == expected

    def test_solutions_are_valid(self, tiles_u):
        for w in solve_all(TilingInstance(tiles_u, (2, 2))):
            assert is_valid_pattern(tiles_u, w)


class TestSurrounding:
    def test_every_tile_surroundable(self, tiles_u):
        for t in range(19):
            assert admits_surrounding(tiles_u, Word2d.single(t), 2)

    def test_invalid_pattern_fails_radius_zero(self, tiles_u):
        assert not admits_surrounding(tiles_u, Word2d([[0], [0]]), 0)

    def test_valid_block_radius_zero(self, tiles_u):
        sol = solve(TilingInstance(tiles_u, (5, 5)))
        assert admits_surrounding(tiles_u, sol, 0)

    def test_monotone_in_radius(self, tiles_u):
        for u, v in [(0, 3), (9, 14), (8, 16)]:
            w = Word2d([[u], [v]])
            assert admits_surrounding(tiles_u, w, 2)
            assert admits_surrounding(tiles_u, w, 1)

    def test_domino_sets_match_language(self, tiles_u, h_dominoes, v_dominoes):
        assert dominoes_with_surrounding(tiles_u, 1, 2) == h_dominoes
        assert dominoes_with_surrounding(tiles_u, 2, 2) == v_dominoes

    def test_square_patterns_match_language_count(self, tiles_u):
        assert len(patterns_with_surrounding(tiles_u, (2, 2), 2)) == 50


class TestCertificates:
    """Language factors prove surroundings; a bad one only costs a search."""

    @pytest.mark.parametrize("shape", [(1, 2), (2, 2)])
    def test_recolored_tile_set_same_with_and_without_certificates(self, phi, tiles_u, shape):
        # tile 0 gets a right color no tile has on its left: language words
        # with tile 0 left of another tile are no longer valid patterns
        tiles = [list(t) for t in tiles_u.tiles]
        tiles[0][0] = "Z"
        recolored = WangTileSet(tiles)
        certificates = language(phi, (shape[0] + 4, shape[1] + 4))
        searched = patterns_with_surrounding(recolored, shape, 2)
        assert patterns_with_surrounding(recolored, shape, 2, certificates=certificates) == searched
        # some pattern of U's set is a valid candidate of the recolored set
        # without a surrounding, so an unchecked certificate would keep it
        lost = patterns_with_surrounding(tiles_u, shape, 2) - searched
        assert any(is_valid_pattern(recolored, w) for w in lost)

    def test_changed_letter_certifies_nothing(self, monkeypatch, phi, tiles_u):
        # with every search refuted, only certificates keep a pattern
        monkeypatch.setattr(wang, "admits_surrounding", lambda tileset, u, r: False)
        word = min(language(phi, (6, 6)), key=lambda w: w.columns)
        window = Word2d([col[2:4] for col in word.columns[2:4]])
        assert patterns_with_surrounding(
            tiles_u, (2, 2), 2, candidates=[window], certificates=[word]
        ) == {window}
        # one corner letter changed, outside the window: to a tile that
        # breaks an edge, or to a letter outside the tile set
        columns = [list(col) for col in word.columns]
        broken = []
        for letter in range(len(tiles_u) + 1):
            columns[0][0] = letter
            changed = Word2d(columns)
            if letter == len(tiles_u) or not is_valid_pattern(tiles_u, changed):
                broken.append(changed)
        assert len(broken) > 1
        for changed in broken:
            assert patterns_with_surrounding(
                tiles_u, (2, 2), 2, candidates=[window], certificates=[changed]
            ) == set()

    def test_certificates_too_small_are_ignored(self, monkeypatch, phi, tiles_u):
        small = language(phi, (5, 6))
        assert len(patterns_with_surrounding(tiles_u, (2, 2), 2, certificates=small)) == 50
        monkeypatch.setattr(wang, "admits_surrounding", lambda tileset, u, r: False)
        assert patterns_with_surrounding(tiles_u, (2, 2), 2, certificates=small) == set()
        fitting = language(phi, (6, 6))
        assert len(patterns_with_surrounding(tiles_u, (2, 2), 2, certificates=fitting)) == 50

    def test_survivors_of_radius_3_give_the_radius_4_set(self, phi, tiles_u):
        at_3 = patterns_with_surrounding(tiles_u, (1, 3), 3, certificates=language(phi, (7, 9)))
        certificates = language(phi, (9, 11))
        at_4 = patterns_with_surrounding(tiles_u, (1, 3), 4, certificates=certificates)
        assert len(at_3) == 56 and len(at_4) == 55
        assert patterns_with_surrounding(
            tiles_u, (1, 3), 4, candidates=at_3, certificates=certificates
        ) == at_4


class TestPeriodicity:
    def test_self_matching_tile(self):
        single = WangTileSet([("A", "B", "A", "B")])
        assert exists_periodic_tiling(single, ((1, 0), (0, 1)))

    def test_mismatched_tile(self):
        single = WangTileSet([("A", "B", "C", "B")])
        assert not exists_periodic_tiling(single, ((1, 0), (0, 1)))

    def test_empty_tileset(self):
        assert not exists_periodic_tiling(WangTileSet([]), ((1, 0), (0, 1)))

    def test_singular_basis(self, tiles_u):
        with pytest.raises(SingularLattice):
            exists_periodic_tiling(tiles_u, ((1, 2), (2, 4)))

    def test_sublattice_enumeration_count(self):
        sigma = lambda n: sum(d for d in range(1, n + 1) if n % d == 0)
        assert len(list(sublattice_bases(16))) == sum(sigma(n) for n in range(1, 17))

    def test_u_has_no_small_period(self, tiles_u):
        # aperiodicity at desk scale: no torus of index <= 16 can be tiled
        for basis in sublattice_bases(16):
            assert not exists_periodic_tiling(tiles_u, basis)

    def test_periodic_set_found_on_bigger_torus(self):
        single = WangTileSet([("A", "B", "A", "B")])
        assert exists_periodic_tiling(single, ((3, 0), (1, 2)))

    def test_torus_instances_agree_with_brute_force(self):
        # every lattice of index <= 4 (1-wide and 1-high tori included), in
        # Hermite form and in a second basis, with fixed cells that reduce
        # onto one torus cell and agree or disagree
        rng = random.Random(31)
        outcomes = set()
        for _ in range(8):
            ts = random_tileset(rng, tiles=rng.randint(3, 5), colors=2)
            for basis in sublattice_bases(4):
                (m00, m01), (m10, m11) = basis
                index = m00 * m11
                other = ((m00 + m01, m00 + 2 * m01), (m10 + m11, m10 + 2 * m11))
                q = (rng.randrange(4), rng.randrange(4))
                twin = (q[0] + index, q[1] + index)
                t = rng.randrange(len(ts))
                for wrap in (basis, other):
                    for fixed in ({}, {q: t, twin: t}, {q: t, twin: (t + 1) % len(ts)}):
                        reps, tilings = _oracles.brute_force_torus_tilings(ts, wrap, fixed)
                        instance = TilingInstance(ts, (8, 8), fixed, wrap=wrap)
                        for w in (solve(instance), _oracles.exact_cover_solve(instance)):
                            if tilings:
                                assert _oracles.torus_word_as_tiling(wrap, reps, w) in tilings
                            else:
                                assert w is None
                        every = solve_all(instance)
                        found = [_oracles.torus_word_as_tiling(wrap, reps, w) for w in every]
                        assert sorted(found) == sorted(tilings)
                        outcomes.add(bool(tilings))
        assert outcomes == {True, False}


def test_json_roundtrip(tiles_u):
    data = tiles_u.to_json()
    assert data["tiles"][0] == ["F", "O", "J", "O"]
    assert WangTileSet.from_json(data) == tiles_u


def test_instance_validation(tiles_u):
    with pytest.raises(ValueError):
        TilingInstance(tiles_u, (2, 2), {(5, 0): 1})
    with pytest.raises(UnknownTileIndex):
        TilingInstance(tiles_u, (2, 2), {(0, 0): 99})
