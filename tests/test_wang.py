import random
import time
from itertools import islice, product

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

    def test_fixed_cells_vs_plain_enumeration_random_sets(self):
        # 1-3 fixed cells anywhere on the rectangle, the scan's first and
        # last cells included, plus a pair of adjacent pins that may
        # disagree: every solution, in scan order
        rng = random.Random(41)
        outcomes = set()
        for _ in range(10):
            ts = random_tileset(rng, tiles=rng.randint(3, 4), colors=2)
            for shape in [(2, 2), (3, 2)]:
                cells = [(x, y) for y in range(shape[1]) for x in range(shape[0])]
                pins = [rng.sample(cells, rng.randint(1, 3)) for _ in range(3)]
                pins += [[cells[0]], [cells[-1]], [(0, 0), (1, 0)], [(0, 0), (0, 1)]]
                for chosen in pins:
                    fixed = {cell: rng.randrange(len(ts)) for cell in chosen}
                    expected = _oracles.brute_force_rectangle_tilings(ts, shape, fixed)
                    instance = TilingInstance(ts, shape, fixed)
                    assert solve_all(instance) == expected
                    assert solve(instance) == (expected[0] if expected else None)
                    outcomes.add(bool(expected))
        assert outcomes == {True, False}

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
        # a fresh set: the first one holds the set it found
        fresh = WangTileSet(tiles)
        assert patterns_with_surrounding(fresh, shape, 2, certificates=certificates) == searched
        # some pattern of U's set is a valid candidate of the recolored set
        # without a surrounding, so an unchecked certificate would keep it
        lost = patterns_with_surrounding(tiles_u, shape, 2) - searched
        assert any(is_valid_pattern(recolored, w) for w in lost)

    def test_changed_letter_certifies_nothing(self, monkeypatch, phi, tiles_u):
        # with every search refuted, only certificates keep a pattern
        monkeypatch.setattr(wang, "admits_surrounding", lambda tileset, u, r: False)
        word = min(language(phi, (6, 6)), key=lambda w: w.columns)
        window = Word2d([col[2:4] for col in word.columns[2:4]])
        # the window alone survives radius 1 in a fresh set holding it, so it
        # is the one candidate

        def holding_alone():
            tileset = WangTileSet(tiles_u)
            tileset.admissible[(2, 2), 1] = frozenset([window])
            return tileset

        found = patterns_with_surrounding(holding_alone(), (2, 2), 2, certificates=[word])
        assert found == {window}
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
            found = patterns_with_surrounding(holding_alone(), (2, 2), 2, certificates=[changed])
            assert found == set()

    def test_certificates_too_small_are_ignored(self, monkeypatch, phi, tiles_u):
        # each query on a fresh set, which holds no set found before
        small = language(phi, (5, 6))
        assert len(patterns_with_surrounding(tiles_u, (2, 2), 2, certificates=small)) == 50
        monkeypatch.setattr(wang, "admits_surrounding", lambda tileset, u, r: False)
        found = patterns_with_surrounding(WangTileSet(tiles_u), (2, 2), 2, certificates=small)
        assert found == set()
        fitting = language(phi, (6, 6))
        found = patterns_with_surrounding(WangTileSet(tiles_u), (2, 2), 2, certificates=fitting)
        assert len(found) == 50

    def test_certificate_windows_are_those_at_margin_r(self):
        # each window whose cells lie at least r cells inside a certificate,
        # by its position, mapped to the first certificate that holds it
        rng = random.Random(5)
        words = [
            Word2d([[rng.randrange(3) for _ in range(n2)] for _ in range(n1)])
            for n1, n2 in ((6, 7), (7, 5), (3, 3), (1, 4))
        ]
        for (s1, s2), r in product([(1, 1), (2, 1), (2, 3), (4, 4)], range(4)):
            expected = {}
            for i, word in enumerate(words):
                n1, n2 = word.shape
                for x, y in product(range(r, n1 - r - s1 + 1), range(r, n2 - r - s2 + 1)):
                    window = tuple(col[y : y + s2] for col in word.columns[x : x + s1])
                    expected.setdefault(window, i)
            assert wang._certificate_windows(words, (s1, s2), r) == expected

    def test_survivors_of_radius_3_give_the_radius_4_set(self, phi, tiles_u):
        at_3 = patterns_with_surrounding(tiles_u, (1, 3), 3, certificates=language(phi, (7, 9)))
        certificates = language(phi, (9, 11))
        # a fresh set holds no radius-3 set, so it searches every valid pattern
        at_4 = patterns_with_surrounding(WangTileSet(tiles_u), (1, 3), 4, certificates=certificates)
        assert len(at_3) == 56 and len(at_4) == 55
        assert patterns_with_surrounding(tiles_u, (1, 3), 4, certificates=certificates) == at_4


class TestAdmissibleTable:
    """The admissible sets a tile set keeps by (shape, radius) spare
    searches and never change a set, whatever order fills them."""

    SHAPES = [(s1, s2) for s1 in range(1, 4) for s2 in range(1, 4)]
    RADII = range(1, 5)

    def orders(self, rng):
        # the order of run_all: dominoes at radius 1 and 2 for the markers,
        # then each language row escalating its radius; every window set at
        # a radius above the query first; and a seeded shuffle
        dominoes = [((1, 2), 1), ((2, 1), 1), ((1, 2), 2), ((2, 1), 2)]
        rows = [(shape, r) for shape in self.SHAPES for r in range(2, 5)]
        at_one = [(shape, 1) for shape in self.SHAPES]
        run_all_order = dominoes + [key for key in rows + at_one if key not in dominoes]
        high_first = [(shape, r) for r in reversed(self.RADII) for shape in self.SHAPES]
        shuffled = list(high_first)
        rng.shuffle(shuffled)
        return [run_all_order, high_first, shuffled]

    def check(self, tileset, rng, certificates=lambda r: ()):
        # each expected set from a fresh tile set, which holds nothing
        expected = {
            (shape, r): patterns_with_surrounding(
                WangTileSet(tileset), shape, r, certificates=certificates(r)
            )
            for shape in self.SHAPES
            for r in self.RADII
        }
        for order in self.orders(rng):
            assert sorted(order) == sorted(expected)
            filled = WangTileSet(tileset)
            for shape, r in order:
                found = patterns_with_surrounding(filled, shape, r, certificates=certificates(r))
                assert found == expected[shape, r], (order.index((shape, r)), shape, r)
        return expected

    def test_random_small_tile_sets(self):
        # sets with at most 40 valid 3x3 patterns, so that the searches
        # on a fresh set stay cheap; some of their sets shrink with r
        rng = random.Random(67)
        checked, shrinking = 0, 0
        while checked < 8:
            tileset = random_tileset(rng, tiles=rng.randint(3, 6), colors=3)
            if not 0 < len(solve_all(TilingInstance(tileset, (3, 3)))) <= 40:
                continue
            expected = self.check(tileset, rng)
            checked += 1
            shrinking += expected[(3, 3), 1] != expected[(3, 3), 4]
        assert shrinking >= 2

    def test_u_with_windows_admitted_above_the_radius(self, phi, tiles_u):
        # U's sets shrink up to radius 4, and a window set taken at a radius
        # above the query would be too small: at radius 2 the (2, 3) and
        # (3, 3) sets would lose patterns through the (1, 3) set of radius 4
        closures = {r: language(phi, (3 + 2 * r, 3 + 2 * r)) for r in self.RADII}
        expected = self.check(tiles_u, random.Random(71), certificates=closures.get)
        assert [len(expected[(1, 3), r]) for r in self.RADII] == [69, 58, 56, 55]
        assert [len(expected[(3, 3), r]) for r in self.RADII] == [101, 95, 94, 94]

    def test_held_sets_spare_searches(self, monkeypatch, tiles_u):
        found = patterns_with_surrounding(tiles_u, (2, 2), 2)
        assert set(tiles_u.admissible) == {((2, 2), 2)}
        searched = []
        monkeypatch.setattr(wang, "admits_surrounding", lambda tileset, u, r: searched.append(u))
        assert patterns_with_surrounding(tiles_u, (2, 2), 2) == found
        assert searched == []
        # a (2, 3) candidate is searched only when both its (2, 2) windows are held
        held = {w.columns for w in found}
        valid = solve_all(TilingInstance(tiles_u, (2, 3)))
        kept = [
            w for w in valid
            if {tuple(c[:2] for c in w.columns), tuple(c[1:] for c in w.columns)} <= held
        ]
        patterns_with_surrounding(tiles_u, (2, 3), 2)
        assert searched == kept
        assert 0 < len(kept) < len(valid)


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
                        instance = TilingInstance(ts, (1, 1), fixed, wrap=wrap)
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


class TestDistinctTiles:
    """Existence queries branch over the first tile of each color tuple."""

    def test_representatives_are_first_copies(self):
        ts = WangTileSet([("a", "b", "a", "b"), ("b", "a", "a", "a")] * 2 + [("a", "b", "a", "b")])
        assert ts.representative == (0, 1, 0, 1, 0)
        assert all(t in (0, 1) for found in ts.distinct_fits.values() for t in found)

    def test_u_searches_every_tile(self, tiles_u):
        assert tiles_u.representative == tuple(range(19))
        assert tiles_u.distinct_fits is tiles_u.fits

    def test_random_sets_with_copies_agree_with_the_full_search(self):
        # sets of 3 or 4 tiles with two more copies inserted anywhere; every
        # valid pattern of three shapes at radius 1 and 2, and every torus of
        # index <= 4, against the searches that keep every copy
        rng = random.Random(3)
        verdicts = set()
        for _ in range(6):
            base = list(random_tileset(rng, tiles=rng.randint(3, 4), colors=2))
            tiles = list(base)
            for _ in range(2):
                tiles.insert(rng.randrange(len(tiles) + 1), rng.choice(base))
            ts = WangTileSet(tiles)
            for shape in ((1, 1), (2, 1), (2, 2)):
                for u in solve_all(TilingInstance(ts, shape)):
                    for r in (1, 2):
                        full = _oracles.admits_surrounding_every_copy(ts, u, r)
                        assert admits_surrounding(ts, u, r) == full, (tiles, u, r)
                        verdicts.add(full)
            for basis in sublattice_bases(4):
                full = solve(TilingInstance(ts, (1, 1), {}, wrap=basis)) is not None
                assert exists_periodic_tiling(ts, basis) == full, (tiles, basis)
        assert verdicts == {True, False}

    def test_three_copies_are_searched_once(self):
        # the 168 valid 2x2 patterns at radius 1 took seconds when the
        # search branched on each of the three copies of (a, b, a, b)
        ts = WangTileSet([("a", "b", "a", "b")] * 3 + [("b", "a", "a", "a"), ("a", "a", "a", "b")])
        started = time.perf_counter()
        found = patterns_with_surrounding(ts, (2, 2), 1)
        assert time.perf_counter() - started < 1
        valid = solve_all(TilingInstance(ts, (2, 2)))
        assert len(valid) == 168
        # a pattern admits a surrounding exactly when the one with the first
        # copy of each of its tiles does
        first = ts.representative
        for u in valid:
            assert (u in found) == (Word2d([[first[t] for t in c] for c in u.columns]) in found)
        assert 0 < len(found) < len(valid)


class RecordingFits(dict):
    """A fit index that records every key a search looks up in it."""

    def __init__(self, fits):
        super().__init__(fits)
        self.keys = []

    def get(self, key, default=None):
        self.keys.append(key)
        return super().get(key, default)


class TestReferenceSearch:
    """The search on its per-depth plan walks the tree of the reference
    search, which finds each cell's assigned neighbors at every node: past
    the fixed cells, the same fit-index lookups in the same order, and the
    same solutions in the same order and the same verdicts."""

    def instances(self, rng):
        # sets of 3 or 4 tiles with two copies inserted, on rectangles with
        # no fixed cells, a fixed block (valid or not) or scattered fixed
        # cells, and on every torus of index <= 4, 1-wide and 1-high ones
        # included, with and without fixed cells
        base = list(random_tileset(rng, tiles=rng.randint(3, 4), colors=2))
        tiles = list(base)
        for _ in range(2):
            tiles.insert(rng.randrange(len(tiles) + 1), rng.choice(base))
        ts = WangTileSet(tiles)
        for shape in ((1, 3), (3, 1), (2, 2), (3, 2), (3, 3)):
            yield TilingInstance(ts, shape)
            n1, n2 = shape
            b1, b2 = rng.randint(1, n1), rng.randint(1, n2)
            x0, y0 = rng.randrange(n1 - b1 + 1), rng.randrange(n2 - b2 + 1)
            for block in solve_all(TilingInstance(ts, (b1, b2)))[:2] + [None]:
                fixed = {
                    (x0 + x, y0 + y): block[x, y] if block else rng.randrange(len(ts))
                    for x in range(b1)
                    for y in range(b2)
                }
                yield TilingInstance(ts, shape, fixed)
            cells = [(x, y) for x in range(n1) for y in range(n2)]
            scattered = rng.sample(cells, rng.randint(1, len(cells)))
            yield TilingInstance(ts, shape, {c: rng.randrange(len(ts)) for c in scattered})
        for basis in sublattice_bases(4):
            yield TilingInstance(ts, (1, 1), {}, wrap=basis)
            # a cell and a translate by the lattice vector (index, index),
            # with one tile or two, which may disagree
            (a, _), (_, d) = basis
            cell, t = (rng.randrange(-3, 4), rng.randrange(-3, 4)), rng.randrange(len(ts))
            twin = (cell[0] + a * d, cell[1] + a * d)
            for other in (t, rng.randrange(len(ts))):
                yield TilingInstance(ts, (1, 1), {cell: t, twin: other}, wrap=basis)

    @staticmethod
    def both(instance, order, fits, limit=None):
        # the solutions (up to the limit) of each search along the order, as
        # dicts of every cell, and the keys each looked up after those of
        # the fixed cells: the reference checks the fixed tiles before its
        # search, the library assigns them first, one tile each
        _, _, fixed, neighbors = wang._normalize(instance)
        tileset = instance.tileset
        cells = [*fixed, *(cell for cell in order if cell not in fixed)]
        plan, reference = RecordingFits(fits), RecordingFits(fits)
        search = wang._backtrack(tileset, cells, fixed, neighbors, plan)
        found = [dict(zip(cells, picked)) for picked in islice(search, limit)]
        search = _oracles.reference_backtrack(tileset, order, fixed, neighbors, reference)
        expected = [dict(grid) for grid in islice(search, limit)]
        return (found, plan.keys[len(fixed):]), (expected, reference.keys[len(fixed):])

    def test_random_sets_walk_the_reference_tree(self):
        rng = random.Random(5)
        kinds, outcomes = set(), set()
        for _ in range(6):
            for instance in self.instances(rng):
                normal = wang._normalize(instance)
                if normal is None:
                    # two fixed tiles disagree on one torus cell
                    kinds.add("clash")
                    continue
                shape, cells, fixed, neighbors = normal
                tileset = instance.tileset
                orders = [cells]
                if fixed:
                    orders.append(list(wang._near_fixed_order(shape, fixed)))
                for order in orders:
                    for fits in (tileset.fits, tileset.distinct_fits):
                        found, expected = self.both(instance, order, fits)
                        assert found == expected, (instance, order)
                        outcomes.add(bool(found[0]))
                kinds.add((instance.wrap is not None, 1 in shape, bool(fixed)))
        assert outcomes == {True, False}
        assert {(True, True, False), (True, True, True), (False, True, True)} <= kinds
        assert "clash" in kinds

    def test_random_sets_give_the_reference_answers(self):
        rng = random.Random(9)
        outcomes = set()
        for _ in range(4):
            for instance in self.instances(rng):
                every = _oracles.reference_solutions(instance)
                assert solve_all(instance) == every
                assert solve(instance) == (every[0] if every else None)
                assert wang._exists(instance) == _oracles.reference_exists(instance) == bool(every)
                outcomes.add(bool(every))
        assert outcomes == {True, False}

    def test_u_surroundings_walk_the_reference_tree(self, tiles_u):
        # a few valid blocks of each shape of the tiles benchmark, with and
        # without a surrounding at its radius
        rng = random.Random(13)
        verdicts = []
        for (n1, n2), r in (((1, 3), 4), ((2, 3), 3), ((3, 3), 3)):
            valid = solve_all(TilingInstance(tiles_u, (n1, n2)))
            for u in rng.sample(valid, 3):
                fixed = {(x + r, y + r): u[x, y] for x in range(n1) for y in range(n2)}
                instance = TilingInstance(tiles_u, (n1 + 2 * r, n2 + 2 * r), fixed)
                shape, cells, fixed, _ = wang._normalize(instance)
                order = list(wang._near_fixed_order(shape, fixed))
                # the searches stop at the first surrounding
                found, expected = self.both(instance, order, tiles_u.distinct_fits, limit=1)
                assert found == expected
                verdicts.append(admits_surrounding(tiles_u, u, r))
                assert verdicts[-1] == bool(expected[0])
        assert set(verdicts) == {True, False}

    def test_u_periodic_queries_walk_the_reference_tree(self, tiles_u):
        for basis in sublattice_bases(8):
            instance = TilingInstance(tiles_u, (1, 1), {}, wrap=basis)
            _, cells, _, _ = wang._normalize(instance)
            found, expected = self.both(instance, cells, tiles_u.distinct_fits)
            assert found == expected
            assert found[0] == []

    @pytest.mark.parametrize("shape, r", [((1, 3), 4), ((2, 3), 3), ((3, 3), 3)])
    def test_order_of_the_benchmark_layouts(self, shape, r):
        n1, n2 = shape
        size = (n1 + 2 * r, n2 + 2 * r)
        fixed = {(x + r, y + r): 0 for x in range(n1) for y in range(n2)}
        cells = [(x, y) for y in range(size[1]) for x in range(size[0])]
        order = list(wang._near_fixed_order(size, fixed))
        assert order == _oracles.reference_near_fixed_order(cells, fixed)

    def test_order_of_random_fixed_sets(self):
        rng = random.Random(17)
        for _ in range(200):
            size = (rng.randint(1, 7), rng.randint(1, 7))
            cells = [(x, y) for y in range(size[1]) for x in range(size[0])]
            fixed = dict.fromkeys(rng.sample(cells, rng.randint(1, min(len(cells), 5))), 0)
            order = list(wang._near_fixed_order(size, fixed))
            assert order == _oracles.reference_near_fixed_order(cells, fixed)


def test_tile_set_iterates_over_its_tiles(tiles_u):
    tiles = list(tiles_u)
    assert len(tiles) == 19
    assert tiles == list(tiles_u.tiles)


def test_json_roundtrip(tiles_u):
    data = tiles_u.to_json()
    assert data["tiles"][0] == ["F", "O", "J", "O"]
    assert WangTileSet.from_json(data) == tiles_u


def test_instance_validation(tiles_u):
    with pytest.raises(ValueError):
        TilingInstance(tiles_u, (2, 2), {(5, 0): 1})
    with pytest.raises(UnknownTileIndex):
        TilingInstance(tiles_u, (2, 2), {(0, 0): 99})
    # on a torus any integer cell reduces onto the lattice's representatives
    TilingInstance(tiles_u, (1, 1), {(5, -3): 1}, wrap=((2, 0), (0, 2)))
    with pytest.raises(UnknownTileIndex):
        TilingInstance(tiles_u, (1, 1), {(5, -3): 99}, wrap=((2, 0), (0, 2)))
