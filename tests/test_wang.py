import random
import time
from collections import Counter
from itertools import islice, product

import pytest

import _oracles
from aperiodic_kit import wang
from aperiodic_kit.morphisms import Morphism2d, UndefinedImage, language
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
from aperiodic_kit.words import Word2d, project


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


@pytest.fixture(scope="module")
def table(phi):
    # the substitution language of 3x3 words, which holds every factor the
    # queries below ask of it
    return language(phi, (3, 3))


def _proved(tileset, phi, table):
    # a fresh tile set with the tiles of the given one, proved for phi
    found = WangTileSet(tileset)
    assert wang.prove(found, phi, table) is None and found.proved == frozenset(table)
    return found


def _valid_image(tileset, phi, w):
    try:
        return is_valid_pattern(tileset, phi.apply(w))
    except UndefinedImage:
        return False


def _letters_and_dominoes(k):
    # each letter, and each ordered pair side by side and one on the other
    pairs = [([[a], [b]], [[a, b]]) for a in range(k) for b in range(k)]
    return [Word2d.single(a) for a in range(k)] + [Word2d(c) for pair in pairs for c in pair]


class TestProve:
    """``prove`` against a brute-force reading of its definition: it passes
    exactly when the rule is expansive and sends each letter and each valid
    domino to a valid pattern, and then the image of every valid pattern is
    valid."""

    def random_rule(self, rng, tileset):
        # images of 2x2, or some of them smaller: each letter in turn takes
        # a random valid image that glues with those taken, or random
        # letters when none does; then one letter of an image may change
        k = len(tileset)
        shapes = [(2, 2)] if rng.random() < 0.5 else [(1, 1), (1, 2), (2, 1), (2, 2)]
        candidates = [w for shape in shapes for w in solve_all(TilingInstance(tileset, shape))]
        rule: dict = {}

        def glues(a, image):
            images = {**rule, a: image}
            return all(
                _valid_image(tileset, Morphism2d({0: images[x], 1: images[y]}), Word2d(pair))
                for b in images
                for x, y in ((a, b), (b, a))
                for domino, pair in ((Word2d([[x], [y]]), [[0], [1]]), (Word2d([[x, y]]), [[0, 1]]))
                if is_valid_pattern(tileset, domino)
            )

        for a in rng.sample(range(k), k):
            rng.shuffle(candidates)
            rule[a] = next((w for w in candidates if glues(a, w)), None) or Word2d(
                [[rng.randrange(k) for _ in range(2)] for _ in range(2)]
            )
        if rng.random() < 0.3:
            a = rng.randrange(k)
            columns = [list(col) for col in rule[a].columns]
            columns[-1][-1] = rng.randrange(k)
            rule[a] = Word2d(columns)
        return Morphism2d(rule, k, k)

    def test_against_brute_force_on_random_small_sets(self):
        rng = random.Random(41)
        seen = Counter()
        while sum(seen.values()) < 150:
            tileset = random_tileset(rng, tiles=rng.randint(3, 6), colors=rng.randint(2, 3))
            # at most 200 valid 3x3 patterns, so that the image of each is cheap to check
            if len(list(islice(wang._solutions(TilingInstance(tileset, (3, 3))), 201))) > 200:
                continue
            phi = self.random_rule(rng, tileset)
            bad = [
                w for w in _letters_and_dominoes(len(tileset))
                if is_valid_pattern(tileset, w) and not _valid_image(tileset, phi, w)
            ]
            table = {Word2d.single(0)}
            tileset.proved = frozenset([Word2d.single(1)])
            fault = wang.prove(tileset, phi, table)
            if fault is None:
                assert not bad and _oracles.expansive_by_iterates(phi) is True
                assert tileset.proved == frozenset(table)
                for shape in product(range(1, 4), repeat=2):
                    valid = solve_all(TilingInstance(tileset, shape))
                    assert all(_valid_image(tileset, phi, w) for w in valid), shape
            else:
                # every iterate is defined when no letter or domino is bad
                assert bad or _oracles.expansive_by_iterates(phi) is False, fault
                assert tileset.proved == frozenset()
            seen["pass" if fault is None else "bad" if bad else "not expansive"] += 1
        assert min(seen["pass"], seen["bad"]) >= 20 and seen["not expansive"] >= 10, seen

    def test_every_single_mutant_of_u_and_phi_fails(self, phi, tiles_u, table):
        assert wang.prove(tiles_u, phi, table) is None
        colors = sorted({color for tile in tiles_u for color in tile})
        faults = []
        for index, side in product(range(len(tiles_u)), range(4)):
            for color in colors:
                if color != tiles_u[index][side]:
                    tiles = [list(tile) for tile in tiles_u]
                    tiles[index][side] = color
                    faults.append(wang.prove(WangTileSet(tiles), phi, table))
        assert len(faults) == 1140
        for letter, image in phi.rule.items():
            for (x, y), old in image:
                for new in range(len(tiles_u)):
                    if new != old:
                        columns = [list(col) for col in image.columns]
                        columns[x][y] = new
                        rule = {**phi.rule, letter: Word2d(columns)}
                        faults.append(wang.prove(tiles_u, Morphism2d(rule, 19, 19), table))
        assert len(faults) == 1140 + 900
        assert None not in faults and tiles_u.proved == frozenset()


class TestCertificates:
    """The proof of self-similarity is a tile set's one certificate: it
    spares searches and never changes a set, and a tile set or rule it
    fails for keeps no proved word, so a bad one only costs searches."""

    SHAPES = [(s1, s2) for s1 in range(1, 4) for s2 in range(1, 4)]

    def test_proved_u_same_sets_as_unproved(self, phi, tiles_u, table):
        # every shape up to 3x3 and every radius 1-4; the unproved set keeps
        # the sets it finds, which never changes one (TestAdmissibleTable)
        queries = [(shape, r) for r in range(1, 5) for shape in self.SHAPES]
        unproved = {key: patterns_with_surrounding(tiles_u, *key) for key in queries}
        assert tiles_u.proved == frozenset()
        for shape, r in queries:
            proved = _proved(tiles_u, phi, table)
            assert patterns_with_surrounding(proved, shape, r) == unproved[shape, r], (shape, r)

    @pytest.mark.parametrize("shape", [(1, 2), (2, 2)])
    def test_recolored_tile_set_same_with_and_without_certificates(
        self, phi, tiles_u, table, shape
    ):
        # tile 0 gets a right color no tile has on its left: the images of
        # phi put tile 0 left of another tile, so phi is no self-similarity
        tiles = [list(t) for t in tiles_u.tiles]
        tiles[0][0] = "Z"
        recolored = WangTileSet(tiles)
        searched = patterns_with_surrounding(recolored, shape, 2)
        # a fresh set: the first one holds the set it found
        fresh = WangTileSet(tiles)
        fresh.proved = frozenset(table)
        assert "domino" in wang.prove(fresh, phi, table)
        assert fresh.proved == frozenset()
        assert patterns_with_surrounding(fresh, shape, 2) == searched
        # some language pattern is a valid candidate of the recolored set
        # without a surrounding, so an unchecked proof would keep it
        lost = project(table, shape) - searched
        assert any(is_valid_pattern(recolored, w) for w in lost)

    def test_changed_letter_certifies_nothing(self, monkeypatch, phi, tiles_u, table):
        # with every search refuted, only the proof keeps a pattern: the
        # language's 2x2 words for the catalog rule, none for a rule with
        # one image letter changed to any other letter
        monkeypatch.setattr(wang, "admits_surrounding", lambda tileset, u, r: False)
        squares = project(table, (2, 2))
        assert patterns_with_surrounding(_proved(tiles_u, phi, table), (2, 2), 2) == squares
        for letter in range(len(tiles_u)):
            if letter == phi.image(18)[0, 0]:
                continue
            rule = dict(phi.rule)
            columns = [list(col) for col in rule[18].columns]
            columns[0][0] = letter
            rule[18] = Word2d(columns)
            tileset = _proved(tiles_u, phi, table)
            assert wang.prove(tileset, Morphism2d(rule, 19, 19), table) is not None
            assert tileset.proved == frozenset()
            assert patterns_with_surrounding(tileset, (2, 2), 2) == set()

    def test_certificates_too_small_are_ignored(self, monkeypatch, phi, tiles_u):
        # a fresh set proved with the 2x2 words: a smaller query keeps the
        # windows unsearched, and a larger one searches every valid pattern;
        # every search is refuted
        searched = []
        monkeypatch.setattr(wang, "admits_surrounding", lambda tileset, u, r: searched.append(u))
        squares = language(phi, (2, 2))
        for shape, kept in [((1, 1), 19), ((2, 2), 50), ((2, 3), 0), ((3, 2), 0), ((3, 3), 0)]:
            searched.clear()
            found = patterns_with_surrounding(_proved(tiles_u, phi, squares), shape, 1)
            assert len(found) == kept
            assert len(found) + len(searched) == len(solve_all(TilingInstance(tiles_u, shape)))

    def test_survivors_of_radius_3_give_the_radius_4_set(self, phi, tiles_u, table):
        proved = _proved(tiles_u, phi, table)
        at_3 = patterns_with_surrounding(proved, (1, 3), 3)
        # a fresh set holds no radius-3 set, so it searches every valid pattern
        at_4 = patterns_with_surrounding(_proved(tiles_u, phi, table), (1, 3), 4)
        assert len(at_3) == 56 and len(at_4) == 55
        assert patterns_with_surrounding(proved, (1, 3), 4) == at_4


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

    def check(self, tileset, rng, proof=None):
        # each expected set from a fresh tile set, which holds nothing but
        # the proof of a (rule, table) pair, if given

        def fresh():
            return WangTileSet(tileset) if proof is None else _proved(tileset, *proof)

        expected = {
            (shape, r): patterns_with_surrounding(fresh(), shape, r)
            for shape in self.SHAPES
            for r in self.RADII
        }
        for order in self.orders(rng):
            assert sorted(order) == sorted(expected)
            filled = fresh()
            for shape, r in order:
                found = patterns_with_surrounding(filled, shape, r)
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

    def test_u_with_windows_admitted_above_the_radius(self, phi, tiles_u, table):
        # U's sets shrink up to radius 4, and a window set taken at a radius
        # above the query would be too small: at radius 2 the (2, 3) and
        # (3, 3) sets would lose patterns through the (1, 3) set of radius 4;
        # each fresh set is proved for the substitution and its language
        expected = self.check(tiles_u, random.Random(71), proof=(phi, table))
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
