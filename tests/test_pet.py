import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    coded_dominoes,
    covolume,
    exchange_inverse,
    first_return_time,
    return_word,
    total_area,
)

from aperiodic_kit import geometry
from aperiodic_kit.catalog import rotation_action
from aperiodic_kit.geometry import (
    BoundaryHit,
    Polygon,
    TorusPartition,
    closure_hits,
    is_equal_up_to_relabeling,
    pt,
    rectangle,
    rescale,
)
from aperiodic_kit.morphisms import language
from aperiodic_kit.pet import (
    PolygonExchange,
    Window,
    coded_cells,
    config_patch,
    enumerate_language,
    induce_action,
    induced_partition,
    induced_transformation,
    shape_steps,
)
from aperiodic_kit.phifield import ONE, PHI, PhiNumber
from aperiodic_kit.words import Word2d, occurs_at, project, subwords

INV = PHI**-1
INV2 = PHI**-2
INV3 = PHI**-3
DOMINO_STEPS = [(1, 0), (0, 1)]
RATIONAL_STEPS = st.builds(Fraction, st.integers(0, 6), st.integers(1, 7)).map(PhiNumber)
PHI_STEPS = st.integers(1, 4).map(lambda m: m * INV2)

SAMPLE = (PhiNumber(Fraction(1357, 10000)), PhiNumber(Fraction(2938, 10000)))


def random_point(rng, x_max=1, y_max=1):
    # odd denominators keep sample points off every cut in sight
    return (
        PhiNumber(Fraction(rng.randrange(1, 9998, 2), 9999)) * x_max,
        PhiNumber(Fraction(rng.randrange(1, 9998, 2), 9999)) * y_max,
    )


class TestToralTranslation:
    def test_horizontal_step_two_pieces(self):
        t = PolygonExchange.toral_translation((1, 1), (INV2, 0))
        assert len(t.pieces) == 2
        assert t.is_bijective()

    def test_zero_vector_identity(self):
        t = PolygonExchange.toral_translation((1, 1), (0, 0))
        assert len(t.pieces) == 1
        x = (PhiNumber(Fraction(1, 3)), PhiNumber(Fraction(1, 7)))
        assert t(x) == x

    def test_generic_vector_four_pieces(self):
        t = PolygonExchange.toral_translation(
            (1, 1), (Fraction(1, 3), Fraction(1, 2))
        )
        assert len(t.pieces) == 4
        assert t.is_bijective()

    def test_apply_reduces_mod_lattice(self, action_u):
        g = action_u.generator(1)
        x = (PhiNumber(Fraction(9, 10)), PhiNumber(Fraction(1, 3)))
        y = g(x)
        assert y == ((x[0] + INV2) % PhiNumber(1), x[1])

    def test_boundary_hit_on_cut(self):
        t = PolygonExchange.toral_translation((1, 1), (INV2, 0))
        with pytest.raises(BoundaryHit):
            t((PhiNumber(1) - INV2, PhiNumber(Fraction(1, 3))))

    def test_inverse_roundtrip(self, action_u):
        g = action_u.generator(2)
        ginv = exchange_inverse(g)
        rng = random.Random(3)
        for _ in range(25):
            x = random_point(rng)
            assert ginv(g(x)) == x


class TestInducedTransformation:
    def test_return_times_one_and_two(self, action_u):
        induced, times = induced_transformation(action_u.generator(2), Window(2, INV))
        assert sorted({k for _, k in times}) == [1, 2]
        assert induced.is_bijective()
        # time 1 exactly where y + phi^-2 stays under phi^-1
        for piece, k in times:
            _, y0, _, y1 = piece.bbox()
            if k == 1:
                assert y1 + INV2 <= INV
            else:
                assert y0 + INV2 >= INV

    def test_transversal_generator_returns_immediately(self, action_u):
        induced, times = induced_transformation(action_u.generator(1), Window(2, INV))
        assert {k for _, k in times} == {1}
        assert induced.as_translation() == (INV2, PhiNumber(0))

    def test_identity_on_window(self):
        ident = PolygonExchange.toral_translation((1, 1), (0, 0))
        induced, times = induced_transformation(ident, Window(2, INV))
        assert {k for _, k in times} == {1}
        assert induced.as_translation() == (PhiNumber(0), PhiNumber(0))

    def test_rational_translation_worked_example(self):
        # y moves by 1/2, so every point of y < 1/3 is back after two steps
        t = PolygonExchange.toral_translation((1, 1), (Fraction(1, 3), Fraction(1, 2)))
        induced, times = induced_transformation(t, Window(2, Fraction(1, 3)))
        assert {k for _, k in times} == {2}
        assert induced.is_bijective()
        assert induced.as_translation() == (PhiNumber(Fraction(2, 3)), PhiNumber(0))

    @pytest.mark.parametrize(
        "bound, longest",
        [(INV, 2), (PhiNumber(Fraction(1, 10)), 13), (PhiNumber(Fraction(1, 100)), 144)],
    )
    def test_kac_identity(self, action_u, bound, longest):
        # the pieces of a first-return map, weighted by their return times,
        # cover the torus once along the window's axis and the strip across it
        window = Window(2, bound)
        _, along = induced_transformation(action_u.generator(2), window)
        assert max(k for _, k in along) == longest
        assert sum((piece.area() * k for piece, k in along), PhiNumber(0)) == PhiNumber(1)
        _, across = induced_transformation(action_u.generator(1), window)
        assert {k for _, k in across} == {1}
        assert sum((piece.area() for piece, _ in across), PhiNumber(0)) == bound

    def test_non_rotation_rejected(self, action_u):
        # the first return to y < 1/10 exchanges three pieces
        induced, _ = induced_transformation(action_u.generator(2), Window(2, Fraction(1, 10)))
        assert induced.as_translation() is None
        with pytest.raises(ValueError, match="torus rotation"):
            induced_transformation(induced, Window(1, Fraction(1, 2)))

    def test_polygon_window_rejected(self, action_u):
        triangle = Polygon([pt(0, 0), pt(1, 0), pt(0, 1)])
        with pytest.raises(TypeError, match="axis Window"):
            induced_transformation(action_u.generator(2), triangle)

    def test_piece_image_leaving_the_rectangle_rejected(self):
        # (1, 0) reduces to (0, 0), so the exchange passes as a rotation, but
        # its one image is [1, 2] x [0, 1]: induction would lose it
        t = PolygonExchange((1, 1), [(rectangle(0, 0, 1, 1), (1, 0))])
        assert t.as_translation() == (PhiNumber(0), PhiNumber(0))
        with pytest.raises(ValueError, match=r"^piece .* leaves the fundamental rectangle$"):
            induced_transformation(t, Window(2, Fraction(1, 2)))

    def test_pieces_that_do_not_tile_the_rectangle_rejected(self):
        # one piece, the lower half of the unit square, moved by (0, 0): a
        # rotation whose image stays inside, but not a bijection, so its
        # first return would be none either
        t = PolygonExchange((1, 1), [(rectangle(0, 0, 1, Fraction(1, 2)), (0, 0))])
        assert t.as_translation() == (PhiNumber(0), PhiNumber(0))
        assert not t.is_bijective()
        with pytest.raises(ValueError, match=r"^exchange pieces do not tile the rectangle: .*area 1/2") as error:
            induced_transformation(t, Window(2, Fraction(3, 4)))
        assert "\n" not in str(error.value)

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([(ONE, ONE), (PHI, ONE), (ONE, INV)]),
        st.sampled_from(["horizontal", "vertical", "diagonal"]),
        st.lists(RATIONAL_STEPS | PHI_STEPS, min_size=2, max_size=2),
        st.sampled_from([1, 2]),
        st.sampled_from([1, Fraction(1, 2), Fraction(2, 3), INV, INV2]),
        st.integers(0, 2**32),
    )
    def test_first_return_matches_iterated_points(self, lattice, kind, step, axis, share, seed):
        # every sample point of the window moved one step at a time until it
        # is back: the time and the image are those of the piece holding it
        (l1, l2), zero = lattice, PhiNumber(0)
        v = (zero if kind == "vertical" else step[0], zero if kind == "horizontal" else step[1])
        window = Window(axis, lattice[axis - 1] * share)
        induced, times = induced_transformation(PolygonExchange.toral_translation(lattice, v), window)
        held = [(poly, (tau, k)) for (poly, tau), (_, k) in zip(induced.pieces, times)]

        def move(y):
            return (y[0] + v[0]) % l1, (y[1] + v[1]) % l2

        rng = random.Random(seed)
        for _ in range(10):
            x = random_point(rng, *induced.lattice)
            hits, interior = closure_hits(held, [x])
            assert hits
            if not interior:
                continue  # a BoundaryHit of the induced exchange
            tau, k = hits[0]
            y, steps = move(x), 1
            while y[axis - 1] >= window.bound and steps < k:
                y, steps = move(y), steps + 1
            assert (steps, y) == (k, (x[0] + tau[0], x[1] + tau[1]))

class TestInduceAction:
    def test_first_induction_vectors(self, action_u):
        r1 = induce_action(action_u, Window(2, INV))
        assert r1.lattice == (PhiNumber(1), INV)
        assert r1.alpha1 == (INV2, PhiNumber(0))
        assert r1.alpha2 == (PhiNumber(0), (-INV3) % INV)

    def test_second_induction_vectors(self, action_u):
        r1 = induce_action(action_u, Window(2, INV))
        r2 = induce_action(r1, Window(1, INV))
        assert r2.lattice == (INV, INV)
        assert r2.alpha1 == ((-INV3) % INV, PhiNumber(0))
        assert r2.alpha2 == (PhiNumber(0), (-INV3) % INV)

    def test_full_domain_window_is_identity_induction(self, action_u):
        same = induce_action(action_u, Window(2, 1))
        assert same.lattice == action_u.lattice
        assert same.alpha1 == action_u.alpha1
        assert same.alpha2 == action_u.alpha2

    @pytest.mark.parametrize(
        "axis, bound", [(2, PhiNumber(2)), (2, PhiNumber(Fraction(3, 2))), (1, PHI)]
    )
    def test_window_beyond_the_lattice_side_rejected(self, action_u, axis, bound):
        with pytest.raises(ValueError, match=f"window bound {bound} exceeds the lattice side 1"):
            Window(axis, bound).sub_lattice(action_u.lattice)
        with pytest.raises(ValueError, match="exceeds the lattice side"):
            induce_action(action_u, Window(axis, bound))

    def test_first_return_along_the_axis_computed_once_per_level(self, monkeypatch, partition_u):
        # the induced partition and the induced action both read the return
        # along the window's axis; the action induces the other axis too
        from aperiodic_kit import catalog, pet

        transforms = []
        induce = pet.induced_transformation

        def counting(transform, window):
            transforms.append((id(transform), window))
            return induce(transform, window)

        monkeypatch.setattr(pet, "induced_transformation", counting)
        action, first, second = catalog.rotation_action(), Window(2, INV), Window(1, INV)
        middle, _ = induced_partition(partition_u, action, first)
        middle_action = induce_action(action, first)
        induced_partition(middle, middle_action, second)
        induce_action(middle_action, second)
        assert len(transforms) == len(set(transforms)) == 4

    def test_commutation_sampled(self, action_u):
        g1, g2 = action_u.generator(1), action_u.generator(2)
        rng = random.Random(7)
        for _ in range(200):
            x = random_point(rng)
            assert g1(g2(x)) == g2(g1(x))


class TestCoding:
    def test_single_cell_patch_is_code(self, partition_u, action_u):
        label = partition_u.locate(SAMPLE)
        patch = config_patch(partition_u, action_u, SAMPLE, (1, 1))
        assert patch == Word2d.single(label)

    def test_boundary_point_raises(self, partition_u):
        with pytest.raises(BoundaryHit):
            partition_u.locate((PhiNumber(Fraction(1, 2)), INV))

    def test_sample_patch_dominoes_allowed(
        self, partition_u, action_u, h_dominoes, v_dominoes
    ):
        patch = config_patch(partition_u, action_u, SAMPLE, (6, 8))
        horiz = {(w[0, 0], w[1, 0]) for w in subwords(patch, (2, 1))}
        vert = {(w[0, 0], w[0, 1]) for w in subwords(patch, (1, 2))}
        assert horiz <= h_dominoes
        assert vert <= v_dominoes

    def test_extended_patch_overlaps(self, partition_u, action_u):
        small = config_patch(partition_u, action_u, SAMPLE, (6, 8))
        big = config_patch(partition_u, action_u, SAMPLE, (8, 10), offset=(-1, -1))
        assert occurs_at(small, big, (1, 1))


class TestReturnWords:
    def test_full_domain_window_single_letters(self, partition_u, action_u):
        w = return_word(partition_u, action_u, Window(2, 1), SAMPLE)
        assert w.shape == (1, 1)

    def test_return_words_match_induced_morphism(
        self, partition_u, action_u, induction_tower
    ):
        p1, beta0, *_ = induction_tower
        window = Window(2, INV)
        images = {beta0.image(a) for a in range(beta0.domain_size)}
        seen = set()
        for label, cell in p1.cells():
            x = _inner(cell)
            w = return_word(partition_u, action_u, window, x)
            assert w == beta0.image(label)
            seen.add(w)
        assert seen == images
        assert len(images) == 21

    def test_return_word_occurs_in_patch(self, partition_u, action_u):
        w = return_word(partition_u, action_u, Window(2, INV), SAMPLE)
        patch = config_patch(partition_u, action_u, SAMPLE, w.shape)
        assert patch == w

    @pytest.mark.parametrize("y", [INV, PhiNumber(Fraction(-1, 10))])
    def test_first_return_from_outside_the_window_rejected(self, action_u, y):
        # a negative y lies below the bound, but a rational step could keep
        # its orbit out of [0, bound) forever
        with pytest.raises(ValueError, match="not in the window"):
            first_return_time(action_u, Window(2, INV), (SAMPLE[0], y), 2)


def _inner(cell):
    n = PhiNumber(len(cell.vertices))
    sx = PhiNumber(0)
    sy = PhiNumber(0)
    for v in cell.vertices:
        sx = sx + v[0]
        sy = sy + v[1]
    return (sx / n, sy / n)


class TestInducedPartition:
    def test_first_step_shapes(self, induction_tower):
        p1, beta0, *_ = induction_tower
        assert len(p1.atoms) == 21
        assert p1.lattice == (PhiNumber(1), INV)
        shapes = {beta0.image(a).shape for a in range(21)}
        assert shapes == {(1, 1), (1, 2)}

    def test_second_step_shapes(self, induction_tower):
        _, _, _, p2, beta1, _ = induction_tower
        assert len(p2.atoms) == 19
        assert p2.lattice == (INV, INV)
        shapes = {beta1.image(a).shape for a in range(19)}
        assert shapes == {(1, 1), (2, 1)}

    def test_full_domain_induction_trivial(self, partition_u, action_u):
        same, morphism = induced_partition(partition_u, action_u, Window(2, 1))
        assert len(same.atoms) == 19
        for a in range(19):
            assert morphism.image(a) == Word2d.single(a)
        assert is_equal_up_to_relabeling(same, partition_u) == {a: a for a in range(19)}

    def test_areas_partition_window(self, induction_tower):
        p1, *_ = induction_tower
        assert total_area(p1) == covolume(p1)


class TestEnumerateLanguage:
    def test_cells(self, partition_u, action_u):
        singles = enumerate_language(partition_u, action_u, (1, 1))
        assert {w[0, 0] for w in singles} == set(range(19))

    def test_dominoes(self, partition_u, action_u, h_dominoes, v_dominoes):
        horiz = {
            (w[0, 0], w[1, 0])
            for w in enumerate_language(partition_u, action_u, (2, 1))
        }
        vert = {
            (w[0, 0], w[0, 1])
            for w in enumerate_language(partition_u, action_u, (1, 2))
        }
        assert horiz == h_dominoes
        assert vert == v_dominoes

    def test_squares_match_substitution_language(self, partition_u, action_u, phi):
        squares = enumerate_language(partition_u, action_u, (2, 2))
        assert len(squares) == 50
        assert squares == language(phi, (2, 2))

    def test_square_dominoes_restrict(self, partition_u, action_u, h_dominoes, v_dominoes):
        for w in enumerate_language(partition_u, action_u, (2, 2)):
            assert (w[0, 0], w[1, 0]) in h_dominoes
            assert (w[0, 1], w[1, 1]) in h_dominoes
            assert (w[0, 0], w[0, 1]) in v_dominoes
            assert (w[1, 0], w[1, 1]) in v_dominoes


class TestCodedDominoes:
    @pytest.mark.parametrize("level", ["PU", "P1"])
    def test_one_refinement_gives_both_domino_sets(
        self, level, partition_u, action_u, induction_tower
    ):
        p1, _, r1, *_ = induction_tower
        partition, action = (partition_u, action_u) if level == "PU" else (p1, r1)
        squares = enumerate_language(partition, action, (2, 2))
        horizontal, vertical = coded_dominoes(coded_cells(partition, action, DOMINO_STEPS))
        assert horizontal == {(w[0, 0], w[1, 0]) for w in project(squares, (2, 1))}
        assert vertical == {(w[0, 0], w[0, 1]) for w in project(squares, (1, 2))}

    def test_cells_seeded_with_their_labels_as_overlay_at_origin(self, partition_u, action_u):
        # the partition overlaid on itself at step (0, 0) splits no cell: its
        # cells have disjoint interiors, so each keeps its own label
        from aperiodic_kit.pet import _refine_by_codes

        base = [(cell, {}) for _, cell in partition_u.cells()]
        overlaid = _refine_by_codes(partition_u, action_u, [(0, 0), *DOMINO_STEPS], base)
        assert coded_cells(partition_u, action_u, DOMINO_STEPS) == [
            codes for _, codes in overlaid
        ]

    def test_reference_dominoes(self, partition_u, action_u, h_dominoes, v_dominoes):
        cells = coded_cells(partition_u, action_u, DOMINO_STEPS)
        assert coded_dominoes(cells) == (h_dominoes, v_dominoes)


class TestRotatedCopies:
    def test_refinement_and_rescale_search_no_lattice_shifts(self, monkeypatch, partition_u):
        # a copy of the partition is moved by the rotation's rectangles, so
        # only the segment arrangement searches lattice shifts
        def refuse(*args):
            raise AssertionError("lattice shift search outside the arrangement")

        monkeypatch.setattr(geometry, "_axis_shifts", refuse)
        action = rotation_action()  # a fresh action, with no first return kept
        coded_cells(partition_u, action, shape_steps((3, 3)))
        first = Window(2, INV)
        middle, _ = induced_partition(partition_u, action, first)
        middle_action = induce_action(action, first)
        final, _ = induced_partition(middle, middle_action, Window(1, INV))
        scaled = rescale(final, -PHI, (1, 1))
        assert is_equal_up_to_relabeling(partition_u, scaled) is not None

    def test_cell_outside_the_fundamental_rectangle_is_refused(self, partition_u, action_u):
        # the rotation's rectangles cover the fundamental rectangle only, so a
        # cell moved by a period would vanish; from_json refuses such input,
        # and the refinement and rescale refuse a partition built in code
        label, cell = next(partition_u.cells())
        moved = cell.translate((PhiNumber(1), PhiNumber(0)))
        atoms = dict(partition_u.atoms)
        atoms[label] = (moved, *atoms[label][1:])
        shifted = TorusPartition(partition_u.lattice, atoms)
        message = re.escape(f"cell {moved} leaves the fundamental rectangle")
        with pytest.raises(ValueError, match=message):
            TorusPartition.from_json(shifted.to_json())
        with pytest.raises(ValueError, match=message):
            coded_cells(shifted, action_u, DOMINO_STEPS)
        with pytest.raises(ValueError, match=message):
            induced_partition(shifted, action_u, Window(2, INV))
        with pytest.raises(ValueError, match=message) as refused:
            rescale(shifted, -PHI, (1, 1))
        assert "\n" not in str(refused.value)


class TestDesubstitutionIdentity:
    def test_patch_identity_on_samples(self, partition_u, action_u, induction_tower):
        p1, beta0, r1, *_ = induction_tower
        rng = random.Random(41)
        checked = 0
        while checked < 3:
            x = random_point(rng, y_max=INV)
            try:
                inner_patch = config_patch(p1, r1, x, (6, 6))
                outer = beta0(inner_patch)
                direct = config_patch(partition_u, action_u, x, outer.shape)
            except BoundaryHit:
                continue
            assert direct == outer
            checked += 1
