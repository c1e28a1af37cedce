"""Acceptance criteria, one test per criterion, each printing a verdict line.

Expensive artifacts (the desubstitution loop, the reference partition and
the induction tower) are shared session fixtures; every criterion asserts
the exact reference values and the stated time budgets.
"""

import math
import random
import time
from fractions import Fraction

import pytest

import _oracles
from _oracles import concat, from_rows, total_area
from aperiodic_kit.catalog import partition_segments, wang_tiles
from aperiodic_kit.geometry import (
    is_equal_up_to_relabeling,
    partition_from_segments,
    rescale,
)
from aperiodic_kit.markers import find_markers, find_substitution, is_equivalent
from aperiodic_kit.morphisms import (
    Morphism2d,
    compose,
    language,
    periodic_seeds,
)
from aperiodic_kit.pet import (
    Window,
    config_patch,
    enumerate_language,
    induced_transformation,
)
from aperiodic_kit.phifield import PHI, PhiNumber
from aperiodic_kit.wang import (
    exists_periodic_tiling,
    patterns_with_surrounding,
    sublattice_bases,
)
from aperiodic_kit.words import Word2d, occurs_at

V_MARKER_SETS = [
    [0, 1, 2, 8, 9, 10, 11],
    [3, 5, 13, 14, 17, 20],
    [4, 6, 7, 12, 15, 16, 18, 19],
]
VERT_REFERENCE = {
    "A": "IJ", "B": "IH", "C": "BF", "D": "G", "E": "AF",
    "F": "I", "G": "ID", "H": "B", "I": "GF", "J": "A",
}
HORIZ_REFERENCE = {"K": "PO", "L": "M", "M": "PL", "N": "MO", "O": "K", "P": "KO"}


def verdict(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def wang_loop():
    tiles = wang_tiles()
    first = find_substitution(find_markers(tiles, 2, 2), list(range(8)))
    second = find_substitution(find_markers(first.tileset, 1, 1), V_MARKER_SETS[0])
    certificate = is_equivalent(tiles, second.tileset)
    return first, second, certificate


def test_criterion_1_find_markers(tiles_u):
    started = time.perf_counter()
    report = find_markers(tiles_u, 2, 2)
    elapsed = time.perf_counter() - started
    assert report.marker_subsets == [[0, 1, 2, 3, 4, 5, 6, 7]]
    assert elapsed < 60.0
    verdict("criterion 1", f"markers [[0..7]] in {elapsed:.2f}s < 60s")


def test_criterion_2_desubstitution_loop(tiles_u, wang_loop):
    first, second, certificate = wang_loop
    assert len(first.tileset) == 21
    assert find_markers(first.tileset, 1, 1).marker_subsets == V_MARKER_SETS
    assert len(second.tileset) == 19
    assert certificate is not None
    vert, horiz, _ = certificate
    assert vert == VERT_REFERENCE
    assert horiz == HORIZ_REFERENCE
    verdict("criterion 2", "21-tile and 19-tile steps with the reference certificate")


def test_criterion_3_composite_is_substitution(phi, tiles_u, wang_loop):
    first, second, certificate = wang_loop
    closing = Morphism2d.from_permutation(certificate[2])
    assert compose(first.morphism, compose(second.morphism, closing)) == phi
    verdict("criterion 3", "alpha0 . alpha1 . alpha2 equals the rule table")


def test_criterion_4_partition_atoms():
    partition = partition_from_segments(partition_segments(), (1, 1))
    assert len(partition.atoms) == 19
    assert total_area(partition) == PhiNumber(1)
    verdict("criterion 4", "19 atoms, exact total area 1")


def test_criterion_5_induction_loop(partition_u, action_u, induction_tower, phi):
    p1, beta0, r1, p2, beta1, r2 = induction_tower
    inv = PHI**-1
    inv2 = PHI**-2
    inv3 = PHI**-3
    assert r1.lattice == (PhiNumber(1), inv)
    assert r1.alpha1 == (inv2, PhiNumber(0))
    assert r1.alpha2 == (PhiNumber(0), (-inv3) % inv)
    assert r2.lattice == (inv, inv)
    assert r2.alpha1 == ((-inv3) % inv, PhiNumber(0))
    assert r2.alpha2 == (PhiNumber(0), (-inv3) % inv)
    scaled = rescale(p2, -PHI, (1, 1))
    permutation = is_equal_up_to_relabeling(partition_u, scaled)
    assert permutation is not None
    beta2 = Morphism2d.from_permutation(permutation)
    assert compose(beta0, compose(beta1, beta2)) == phi
    verdict(
        "criterion 5",
        "lattices Z x phi^-1 Z and (phi^-1 Z)^2, steps phi^-2/-phi^-3, "
        "rescale matches, beta composite equals the rule table",
    )


def test_criterion_6_both_loops_same_morphisms(
    partition_u, induction_tower, wang_loop, tiles_u
):
    first, second, certificate = wang_loop
    _, beta0, _, _, beta1, _ = induction_tower
    scaled = rescale(induction_tower[3], -PHI, (1, 1))
    beta2 = Morphism2d.from_permutation(is_equal_up_to_relabeling(partition_u, scaled))
    alpha2 = Morphism2d.from_permutation(certificate[2])
    assert beta0 == first.morphism
    assert beta1 == second.morphism
    assert beta2 == alpha2
    verdict("criterion 6", "beta_i equals alpha_i for i = 0, 1, 2")


def test_criterion_7_three_way_languages(phi, tiles_u, partition_u, action_u):
    started = time.perf_counter()
    expected = {(1, 1): 19, (2, 1): 31, (1, 2): 35, (2, 2): 50}
    for shape, count in expected.items():
        from_rule = language(phi, shape)
        from_tiles = patterns_with_surrounding(tiles_u, shape, 2)
        from_coding = enumerate_language(partition_u, action_u, shape)
        assert len(from_rule) == count
        assert from_rule == from_tiles == from_coding
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    verdict("criterion 7", f"19/31/35/50 equal three ways in {elapsed:.1f}s < 600s")


def test_criterion_8_periodic_seeds(phi):
    found = periodic_seeds(phi, 2)
    assert len(found) == 8
    assert all(k == 2 for _, k in found)
    assert (from_rows([[9, 14], [1, 6]]), 2) in found
    verdict("criterion 8", "8 periodic points, all of period 2")


# criterion 9: the property suites ------------------------------------------


def test_criterion_9a_field_axioms_and_order_oracle():
    rng = random.Random(2024)
    scale = 10**120
    sqrt5 = Fraction(math.isqrt(5 * scale * scale), scale)

    def rand():
        return PhiNumber(
            Fraction(rng.randint(-999, 999), rng.randint(1, 300)),
            Fraction(rng.randint(-999, 999), rng.randint(1, 300)),
        )

    for _ in range(2_000):
        x, y, z = rand(), rand(), rand()
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if x:
            assert x * x.inverse() == PhiNumber(1)
    for _ in range(10_000):
        x, y = rand(), rand()
        exact = (x - y).sign()
        approx = (x.a - y.a) + (x.b - y.b) * (1 + sqrt5) / 2
        assert exact == (0 if approx == 0 else (1 if approx > 0 else -1))
    verdict("criterion 9a", "field axioms (2e3 triples) and order oracle (1e4 pairs)")


def test_criterion_9b_word_laws():
    rng = random.Random(7)

    def rand_word(n1, n2):
        return Word2d([[rng.randint(0, 8) for _ in range(n2)] for _ in range(n1)])

    for _ in range(300):
        i = rng.choice((1, 2))
        n_par = rng.randint(1, 4)
        sizes = [rng.randint(1, 3) for _ in range(3)]
        words = [
            rand_word(s, n_par) if i == 1 else rand_word(n_par, s) for s in sizes
        ]
        u, v, w = words
        uv = concat(u, v, i)
        assert uv.shape[i - 1] == u.shape[i - 1] + v.shape[i - 1]
        assert uv.shape[2 - i] == u.shape[2 - i]
        assert concat(uv, w, i) == concat(u, concat(v, w, i), i)
        assert occurs_at(u, uv, (0, 0))
        offset = (u.shape[0], 0) if i == 1 else (0, u.shape[1])
        assert occurs_at(v, uv, offset)
    verdict("criterion 9b", "concatenation shape and associativity laws (300 rounds)")


def test_criterion_9c_morphism_law(phi):
    rng = random.Random(11)
    pool = sorted(language(phi, (3, 3)), key=lambda w: w.columns)
    wide = language(phi, (6, 3))
    tall = language(phi, (3, 6))
    checked = 0
    while checked < 200:
        u, v = rng.choice(pool), rng.choice(pool)
        for i, bigger in ((1, wide), (2, tall)):
            uv = concat(u, v, i)
            if uv not in bigger:
                continue
            assert phi(uv) == concat(phi(u), phi(v), i)
            checked += 1
    verdict("criterion 9c", "morphism law on 200 language concatenations")


def test_criterion_9d_pet_bijectivity_and_commutation(action_u, induction_tower):
    _, _, r1, _, _, r2 = induction_tower
    for action in (action_u, r1, r2):
        assert action.generator(1).is_bijective()
        assert action.generator(2).is_bijective()
    induced, _ = induced_transformation(action_u.generator(2), Window(2, PHI**-1))
    assert induced.is_bijective()
    rng = random.Random(5)
    g1, g2 = action_u.generator(1), action_u.generator(2)
    for _ in range(1_000):
        x = (
            PhiNumber(Fraction(rng.randrange(1, 9998, 2), 9999)),
            PhiNumber(Fraction(rng.randrange(1, 9998, 2), 9999)),
        )
        assert g1(g2(x)) == g2(g1(x))
    verdict("criterion 9d", "PET bijectivity and 1e3 exact commutation samples")


def test_criterion_9e_desubstitution_identity(partition_u, action_u, induction_tower):
    from aperiodic_kit.geometry import BoundaryHit

    p1, beta0, r1, *_ = induction_tower
    rng = random.Random(99)
    inv = PHI**-1
    checked = 0
    retried = 0
    while checked < 20:
        x = (
            PhiNumber(Fraction(rng.randrange(1, 9998, 2), 9999)),
            PhiNumber(Fraction(rng.randrange(1, 9998, 2), 9999)) * inv,
        )
        try:
            inner = config_patch(p1, r1, x, (10, 10))
            outer = beta0(inner)
            direct = config_patch(partition_u, action_u, x, outer.shape)
        except BoundaryHit:
            retried += 1
            continue
        assert direct == outer
        checked += 1
    verdict(
        "criterion 9e",
        f"coding of 20 sample points factors through the induced coding "
        f"on (10,10) patches ({retried} boundary retries)",
    )


def test_criterion_9f_recognizability(phi):
    windows = language(phi, (6, 6))
    assert len(windows) == 317
    for w in windows:
        candidates = _oracles.centered_preimage_candidates(phi, w)
        assert candidates, f"window without any centered decomposition:\n{w}"
        assert _oracles.candidates_consistent(candidates), (
            f"conflicting centered decompositions for window:\n{w}"
        )
    verdict(
        "criterion 9f",
        "unique consistent centered decomposition for all 317 (6,6) windows",
    )


def test_criterion_9g_no_small_periodic_tiling(tiles_u):
    for basis in sublattice_bases(16):
        assert not exists_periodic_tiling(tiles_u, basis)
    verdict("criterion 9g", "no periodic tiling on any sublattice of index <= 16")


def test_criterion_9h_aperiodicity_of_language(phi, h_dominoes, v_dominoes):
    words = language(phi, (8, 8))
    vectors = [
        (px, py)
        for px in range(-4, 5)
        for py in range(-4, 5)
        if (px, py) != (0, 0)
    ]
    suspicious = 0
    for w in words:
        for p in vectors:
            if not _oracles.translate_overlap_agrees(w, p):
                continue
            suspicious += 1
            assert not _oracles.periodic_admissible_extension(
                w, p, h_dominoes, v_dominoes
            )
    assert suspicious > 0  # the near-period along the antidiagonal is exercised
    verdict(
        "criterion 9h",
        f"{suspicious} overlap-agreeing translates all fail to extend periodically",
    )
