import pytest

from aperiodic_kit import wang
from aperiodic_kit.catalog import wang_tiles
from aperiodic_kit.markers import (
    EdgeMismatch,
    NotAMarkerSet,
    find_markers,
    find_substitution,
    fuse,
    is_equivalent,
)
from aperiodic_kit.morphisms import Morphism2d, compose
from aperiodic_kit.wang import TilingInstance, WangTileSet, is_valid_pattern, solve

U_MARKERS = [0, 1, 2, 3, 4, 5, 6, 7]
V_MARKER_SETS = [
    [0, 1, 2, 8, 9, 10, 11],
    [3, 5, 13, 14, 17, 20],
    [4, 6, 7, 12, 15, 16, 18, 19],
]

VERT_CERTIFICATE = {
    "A": "IJ", "B": "IH", "C": "BF", "D": "G", "E": "AF",
    "F": "I", "G": "ID", "H": "B", "I": "GF", "J": "A",
}
HORIZ_CERTIFICATE = {"K": "PO", "L": "M", "M": "PL", "N": "MO", "O": "K", "P": "KO"}


@pytest.fixture(scope="module")
def wang_loop():
    first = find_substitution(find_markers(wang_tiles(), 2, 2), U_MARKERS)
    second = find_substitution(find_markers(first.tileset, 1, 1), V_MARKER_SETS[0])
    return first, second


class TestFindMarkers:
    def test_u_vertical_markers(self, tiles_u):
        assert find_markers(tiles_u, 2, 2).marker_subsets == [U_MARKERS]

    def test_reported_sets_satisfy_marker_criterion(self, tiles_u, wang_loop):
        from aperiodic_kit.wang import dominoes_with_surrounding

        first, _ = wang_loop
        for tileset, direction, radius in (
            (tiles_u, 2, 2),
            (first.tileset, 1, 1),
        ):
            d_dir = dominoes_with_surrounding(tileset, direction, radius)
            d_perp = dominoes_with_surrounding(tileset, 3 - direction, radius)
            for subset in find_markers(tileset, direction, radius).marker_subsets:
                members = set(subset)
                # no marker-marker adjacency along the direction, and no
                # marker/non-marker adjacency across it
                assert not any(u in members and v in members for u, v in d_dir)
                assert not any((u in members) != (v in members) for u, v in d_perp)

    def test_v_horizontal_markers(self, wang_loop):
        first, _ = wang_loop
        assert find_markers(first.tileset, 1, 1).marker_subsets == V_MARKER_SETS

    def test_u_horizontal_markers_exist(self, tiles_u):
        assert find_markers(tiles_u, 1, 1).marker_subsets

    def test_periodic_tile_has_none(self):
        single = WangTileSet([("A", "B", "A", "B")])
        assert not find_markers(single, 2, 1)


class TestFuse:
    def test_vertical_fusion_shape(self, tiles_u):
        # (8, 0) is an admissible vertical domino: marker 0 on top of 8
        fused = fuse(tiles_u[8], tiles_u[0], 2)
        assert fused == ("BF", "O", "IJ", "O")

    def test_self_fusion(self):
        t = ("A", "B", "A", "B")
        assert fuse(t, t, 1) == ("A", "BB", "A", "BB")

    def test_mismatch(self, tiles_u):
        with pytest.raises(EdgeMismatch):
            fuse(tiles_u[0], tiles_u[1], 1)  # right F vs left H


class TestFindSubstitution:
    def test_first_step_produces_21_tiles(self, wang_loop):
        first, _ = wang_loop
        assert len(first.tileset) == 21
        # 8 kept tiles map to single letters, 13 fusions to vertical dominoes
        singles = [a for a in range(21) if first.morphism.image(a).shape == (1, 1)]
        dominoes = [a for a in range(21) if first.morphism.image(a).shape == (1, 2)]
        assert len(singles) == 8 and len(dominoes) == 13
        kept = [first.morphism.image(a)[0, 0] for a in singles]
        assert kept == [8, 9, 11, 13, 14, 15, 16, 17]

    def test_second_step_produces_19_tiles(self, wang_loop):
        _, second = wang_loop
        assert len(second.tileset) == 19
        shapes = {second.morphism.image(a).shape for a in range(19)}
        assert shapes <= {(1, 1), (2, 1)}

    def test_images_injective_and_marker_form(self, wang_loop, v_dominoes):
        first, _ = wang_loop
        images = [first.morphism.image(a) for a in range(21)]
        assert len(set(images)) == 21
        markers = set(U_MARKERS)
        for img in images:
            if img.shape == (1, 1):
                assert img[0, 0] not in markers
            else:
                bottom, top = img[0, 0], img[0, 1]
                assert bottom not in markers and top in markers
                assert (bottom, top) in v_dominoes

    def test_round_trip_valid_patterns(self, tiles_u, wang_loop):
        first, _ = wang_loop
        block = solve(TilingInstance(first.tileset, (4, 4)))
        assert block is not None
        image = first.morphism(block)
        assert is_valid_pattern(tiles_u, image)

    def test_left_side_form(self, tiles_u):
        result = find_substitution(find_markers(tiles_u, 2, 2), U_MARKERS, "left")
        markers = set(U_MARKERS)
        for a in range(len(result.tileset)):
            img = result.morphism.image(a)
            if img.shape == (1, 2):
                assert img[0, 0] in markers and img[0, 1] not in markers
            else:
                assert img.shape == (1, 1) and img[0, 0] not in markers

    def test_marker_report_supplies_the_dominoes(self, monkeypatch, tiles_u):
        # the report's tile set holds the dominoes of its radius from the
        # marker search, so the desubstitution reads them without a search
        report = find_markers(tiles_u, 2, 2)
        assert report.tileset is tiles_u

        def no_search(tileset, u, r):
            raise AssertionError("the desubstitution searched a surrounding")

        monkeypatch.setattr(wang, "admits_surrounding", no_search)
        result = find_substitution(report, U_MARKERS)
        assert result.direction == report.direction == 2
        markers = set(U_MARKERS)
        vertical = {(w[0, 0], w[0, 1]) for w in tiles_u.admissible[(1, 2), 2]}
        pairs = sorted((u, v) for u, v in vertical if u not in markers and v in markers)
        images = [result.morphism.image(a) for a in range(len(result.tileset))]
        assert [(w[0, 0], w[0, 1]) for w in images if w.shape == (1, 2)] == pairs

    def test_not_a_marker_set(self, tiles_u):
        report = find_markers(tiles_u, 2, 2)
        with pytest.raises(NotAMarkerSet):
            find_substitution(report, [8, 9])
        with pytest.raises(NotAMarkerSet):
            find_substitution(report, [])


class TestEquivalence:
    def test_certificate_matches_reference(self, tiles_u, wang_loop):
        _, second = wang_loop
        cert = is_equivalent(tiles_u, second.tileset)
        assert cert is not None
        vert, horiz, _ = cert
        assert vert == VERT_CERTIFICATE
        assert horiz == HORIZ_CERTIFICATE

    def test_self_equivalence_identity(self, tiles_u):
        vert, horiz, bij = is_equivalent(tiles_u, tiles_u)
        assert bij == {i: i for i in range(19)}
        assert all(k == v for k, v in vert.items())
        assert all(k == v for k, v in horiz.items())

    def test_cardinality_mismatch(self, tiles_u, wang_loop):
        first, _ = wang_loop
        assert is_equivalent(tiles_u, first.tileset) is None


class TestLoopClosure:
    def test_composite_equals_substitution(self, phi, tiles_u, wang_loop):
        first, second = wang_loop
        _, _, bijection = is_equivalent(tiles_u, second.tileset)
        alpha2 = Morphism2d.from_permutation(bijection)
        assert compose(first.morphism, compose(second.morphism, alpha2)) == phi

    def test_language_of_composite(self, phi, tiles_u, wang_loop):
        from aperiodic_kit.morphisms import language

        first, second = wang_loop
        _, _, bijection = is_equivalent(tiles_u, second.tileset)
        alpha2 = Morphism2d.from_permutation(bijection)
        comp = compose(first.morphism, compose(second.morphism, alpha2))
        for shape in [(2, 2), (3, 3)]:
            assert language(comp, shape) == language(phi, shape)
