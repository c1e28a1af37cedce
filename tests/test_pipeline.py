import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from aperiodic_kit.catalog import square_substitution, wang_tiles
from aperiodic_kit.morphisms import language
from aperiodic_kit.pipeline import (
    build_reference_partition,
    check_uniqueness_hypotheses,
    cross_check_languages,
    reference_coding,
    run_all,
    run_pet_pipeline,
    run_wang_pipeline,
)

EXPECTED = Path(__file__).parent / "expected"

V_MARKER_SETS = [
    [0, 1, 2, 8, 9, 10, 11],
    [3, 5, 13, 14, 17, 20],
    [4, 6, 7, 12, 15, 16, 18, 19],
]


@pytest.fixture(scope="module")
def wang_report():
    return run_wang_pipeline(wang_tiles())


@pytest.fixture(scope="module")
def reference():
    return build_reference_partition()


@pytest.fixture(scope="module")
def induction_report(reference):
    return run_pet_pipeline(reference)


class TestWangLoop:
    def test_transcript(self, wang_report):
        assert wang_report.first_markers == [[0, 1, 2, 3, 4, 5, 6, 7]]
        assert wang_report.first_radius == 2
        assert wang_report.middle_size == 21
        assert wang_report.second_markers == V_MARKER_SETS
        assert wang_report.second_radius == 1
        assert wang_report.final_size == 19

    def test_composite(self, wang_report):
        assert wang_report.composite_equals_substitution
        assert wang_report.composite == square_substitution()

    def test_table_holds_only_the_first_tile_sets_dominoes(self, h_dominoes, v_dominoes):
        # the marker search fills the 19 tiles' admissible sets at radius 1
        # and 2; the middle tile set keeps sets of its own
        tiles = wang_tiles()
        report = run_wang_pipeline(tiles)
        assert report.composite_equals_substitution
        assert sorted(tiles.admissible) == [((1, 2), 1), ((1, 2), 2), ((2, 1), 1), ((2, 1), 2)]
        assert {(w[0, 0], w[1, 0]) for w in tiles.admissible[(2, 1), 2]} == h_dominoes
        assert {(w[0, 0], w[0, 1]) for w in tiles.admissible[(1, 2), 2]} == v_dominoes

    def test_alternate_direction_closes(self):
        report = run_wang_pipeline(wang_tiles(), direction_first=1)
        assert report.final_size == 19
        assert report.composite.domain_size == 19

    @pytest.mark.parametrize("seed", [1, 2, 4, 5])
    def test_permuted_letters_close_the_loop(self, seed):
        # the 19 tiles in a seeded order: which of the second search's marker
        # subsets closes depends on the order, and the composite is the
        # square substitution with its letters renamed, pi o phi o pi^-1
        from aperiodic_kit.morphisms import Morphism2d, compose
        from aperiodic_kit.wang import WangTileSet

        pi = list(range(19))
        random.Random(seed).shuffle(pi)
        permuted = [None] * 19
        for a, tile in enumerate(wang_tiles().tiles):
            permuted[pi[a]] = tile
        report = run_wang_pipeline(WangTileSet(permuted))
        rename = Morphism2d.from_permutation(dict(enumerate(pi)))
        restore = Morphism2d.from_permutation({b: a for a, b in enumerate(pi)})
        assert report.final_size == 19
        assert report.composite == compose(rename, compose(square_substitution(), restore))

    def test_a_loop_that_closes_with_no_subset_names_them_all(self, monkeypatch):
        from aperiodic_kit import pipeline

        tried = []

        def never(tiles, other):
            tried.append(other)
            return None

        monkeypatch.setattr(pipeline, "is_equivalent", never)
        with pytest.raises(pipeline.StageFailure, match="any of the marker subsets") as failure:
            run_wang_pipeline(wang_tiles())
        assert failure.value.stage == "is_equivalent"
        assert str(V_MARKER_SETS) in str(failure.value)
        assert len(tried) == len(V_MARKER_SETS)

    def test_periodic_tileset_fails(self):
        from aperiodic_kit.pipeline import StageFailure
        from aperiodic_kit.wang import WangTileSet

        single = WangTileSet([("A", "B", "A", "B")])
        with pytest.raises(StageFailure):
            run_wang_pipeline(single)

    def test_corrupted_color_fails(self):
        # fault injection: one wrong edge color must break the loop, either
        # at some stage or in the final composite comparison
        from aperiodic_kit.pipeline import StageFailure
        from aperiodic_kit.wang import WangTileSet

        tiles = [list(t) for t in wang_tiles().tiles]
        tiles[0][0] = "Z"
        try:
            report = run_wang_pipeline(WangTileSet(tiles))
            assert not report.composite_equals_substitution
        except StageFailure:
            pass


class TestInductionLoop:
    def test_transcript(self, induction_report):
        assert induction_report.atom_counts == (19, 21, 19)
        assert induction_report.lattices == [
            ("1", "1"),
            ("1", "-1+phi"),
            ("-1+phi", "-1+phi"),
        ]
        # every action steps by phi^-2 = 2-phi on both axes after reduction
        for stage in induction_report.step_vectors:
            assert stage["axis1"]["x"] == "2-phi" and stage["axis1"]["y"] == "0"
            assert stage["axis2"]["x"] == "0" and stage["axis2"]["y"] == "2-phi"

    def test_composite(self, induction_report):
        assert induction_report.composite_equals_substitution

    def test_alternate_axis_closes(self, reference):
        report = run_pet_pipeline(reference, axis_first=1)
        assert report.composite_equals_substitution

    def test_loops_agree(self, wang_report, induction_report):
        for a, b in zip(wang_report.morphisms, induction_report.morphisms):
            assert a == b


class TestUniqueness:
    def test_hypotheses(self):
        report = check_uniqueness_hypotheses()
        assert report.expansive
        assert report.primitive
        # the seed-graph containment fails mathematically; the report says so
        assert not report.seeds_in_language
        assert report.seed_count == 360
        assert report.square_language_count == 50
        assert report.escaped_seed is not None


class TestLanguages:
    def test_admissible_patterns_vs_language_at_3x3_and_4x4(self, phi, tiles_u):
        from aperiodic_kit.wang import patterns_with_surrounding

        lang3 = language(phi, (3, 3))
        at_radius_2 = patterns_with_surrounding(tiles_u, (3, 3), 2)
        # radius 2 is too weak from 3x3 on: one locally admissible pattern
        # survives that the language excludes; radius 3 removes it
        assert lang3 < at_radius_2
        assert len(at_radius_2 - lang3) == 1
        assert patterns_with_surrounding(tiles_u, (3, 3), 3) == lang3
        lang4 = language(phi, (4, 4))
        assert lang4 <= patterns_with_surrounding(tiles_u, (4, 4), 2)

    def test_counts_and_equality(self):
        coding = reference_coding((2, 2))[2]
        rows = {tuple(r.shape): r for r in cross_check_languages(wang_tiles(), coding, (2, 2))}
        expect = {(1, 1): 19, (2, 1): 31, (1, 2): 35, (2, 2): 50}
        for shape, count in expect.items():
            row = rows[shape]
            assert row.substitution_count == count
            assert row.wang_count == count
            assert row.coding_count == count
            assert row.all_equal
            assert row.radius_used == 2

    def test_extended_table_needs_escalation(self):
        coding = reference_coding((3, 3))[2]
        rows = {tuple(r.shape): r for r in cross_check_languages(wang_tiles(), coding, (3, 3))}
        assert all(r.all_equal for r in rows.values())
        assert rows[(3, 3)].substitution_count == 94
        assert rows[(3, 3)].radius_used == 3
        # the column of three needs a 4-cell margin to refute one pattern
        assert rows[(1, 3)].substitution_count == 55
        assert rows[(1, 3)].radius_used == 4

    @pytest.mark.parametrize("max_shape", [(2, 2), (3, 3)], ids=["2x2", "3x3"])
    def test_one_whole_partition_refinement_per_run(self, monkeypatch, phi, max_shape):
        # run_all refines the whole reference partition once, for the atom
        # labels and every coding row together; the induction loop refines
        # window pieces, whose entries start without codes.  The tile
        # searches never refine, so they are replaced by the substitution
        # language to keep this fast
        from aperiodic_kit import pet, pipeline

        whole = []
        refine = pet._refine_by_codes

        def counting(partition, action, support, base):
            if all(codes for _, codes in base):
                whole.append(list(support))
            return refine(partition, action, support, base)

        monkeypatch.setattr(pet, "_refine_by_codes", counting)
        monkeypatch.setattr(
            pipeline,
            "patterns_with_surrounding",
            lambda tiles, shape, r, **searched: language(phi, shape),
        )
        report = run_all(max_shape)
        steps = [(i, j) for i in range(max_shape[0]) for j in range(max_shape[1])]
        assert whole == [steps[1:]]
        assert report.ok()

    @pytest.mark.pinned
    @pytest.mark.parametrize(
        "max_shape, searches, pinned",
        [
            ((2, 2), 210, Path(__file__).parent.parent / "perfbench" / "expected" / "verify_2x2.json"),
            ((3, 3), 242, EXPECTED / "verify_3x3.json"),
        ],
        ids=["2x2", "3x3"],
    )
    def test_each_admissible_set_grows_from_the_table(
        self, monkeypatch, max_shape, searches, pinned
    ):
        # the marker search and the rows read and fill the admissible sets
        # the run's 19-tile set keeps, so no set is searched twice, a raised
        # radius searches the survivors of the one below, and a shape only
        # the patterns whose smaller windows are admissible (413 and 1,541
        # searches with nothing kept); the whole report, without its
        # seconds, is the pinned one
        from aperiodic_kit import wang

        radii = []
        search = wang.admits_surrounding

        def counting(tileset, u, r):
            radii.append(r)
            return search(tileset, u, r)

        monkeypatch.setattr(wang, "admits_surrounding", counting)
        report = run_all(max_shape)
        assert report.ok()
        assert len(radii) <= searches
        assert _without_seconds(report.to_json()) == json.loads(pinned.read_text())

    def test_each_run_and_each_tile_set_keeps_its_own_sets(self, monkeypatch):
        # run_all builds its 19-tile set afresh, so a second run in the same
        # process searches as much as the first; after the Wang loop that
        # set holds only its four domino sets, and each run's 21-tile middle
        # set holds its own two
        from aperiodic_kit import pipeline, wang

        searches, marked, after_loop = [], [], []
        search, find, loop = wang.admits_surrounding, pipeline.find_markers, run_wang_pipeline

        def counting(tileset, u, r):
            searches.append(r)
            return search(tileset, u, r)

        def marking(tileset, *args):
            marked.append(tileset)
            return find(tileset, *args)

        def looping(tiles, *args, **kwargs):
            report = loop(tiles, *args, **kwargs)
            after_loop.append(sorted(tiles.admissible))
            return report

        monkeypatch.setattr(wang, "admits_surrounding", counting)
        monkeypatch.setattr(pipeline, "find_markers", marking)
        monkeypatch.setattr(pipeline, "run_wang_pipeline", looping)
        counts = []
        for _ in range(2):
            searches.clear()
            assert run_all((2, 2)).ok()
            counts.append(len(searches))
        assert counts == [210, 210]
        dominoes = [((1, 2), 1), ((1, 2), 2), ((2, 1), 1), ((2, 1), 2)]
        assert after_loop == [dominoes, dominoes]
        first = {id(t): t for t in marked if len(t) == 19}
        middle = {id(t): t for t in marked if len(t) == 21}
        assert len(first) == len(middle) == 2
        for tileset in middle.values():
            assert sorted(tileset.admissible) == [((1, 2), 1), ((2, 1), 1)]

    def test_run_without_a_pool_never_imports_multiprocessing(self):
        import aperiodic_kit

        src = Path(aperiodic_kit.__file__).resolve().parent.parent
        script = (
            "import sys\n"
            "from aperiodic_kit.pipeline import run_all\n"
            "assert run_all((1, 1)).ok()\n"
            "print('multiprocessing' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.PIPE,
            text=True,
            check=True,
            timeout=300,
        )
        assert done.stdout == "False\n"

    def test_reference_build_refines_over_the_domino_steps(self, monkeypatch):
        from aperiodic_kit import pet

        supports = []
        refine = pet._refine_by_codes

        def counting(partition, action, support, base):
            supports.append(list(support))
            return refine(partition, action, support, base)

        monkeypatch.setattr(pet, "_refine_by_codes", counting)
        build_reference_partition()
        assert supports == [[(1, 0), (0, 1)]]

    @pytest.mark.pinned
    @pytest.mark.parametrize("max_shape", [(1, 1), (2, 1), (1, 2)], ids=["1x1", "2x1", "1x2"])
    def test_small_max_shapes_join_the_domino_steps(self, monkeypatch, max_shape):
        # below 2x2 the refinement support is the max shape's steps joined
        # with (1, 0) and (0, 1); the rows and the labeled atoms are those
        # of the pinned 3x3 report and reference partition
        from aperiodic_kit import pipeline

        references = []
        induce = pipeline.run_pet_pipeline

        def recording(reference, *args):
            references.append(reference[0])
            return induce(reference, *args)

        monkeypatch.setattr(pipeline, "run_pet_pipeline", recording)
        report = run_all(max_shape)
        pinned_rows = json.loads((EXPECTED / "verify_3x3.json").read_text())["languages"]
        shapes = [(i, j) for i in range(1, max_shape[0] + 1) for j in range(1, max_shape[1] + 1)]
        assert [row.to_json() for row in report.languages] == [
            row for row in pinned_rows if tuple(row["shape"]) in shapes
        ]
        pinned_atoms = json.loads((EXPECTED / "reference_partition.json").read_text())
        assert [partition.to_json() for partition in references] == [pinned_atoms]
        assert report.ok()

    def test_language_reference_partition_reusable(self, phi):
        partition, action = build_reference_partition()
        assert len(partition.atoms) == 19
        from aperiodic_kit.pet import enumerate_language

        assert enumerate_language(partition, action, (1, 1)) == language(phi, (1, 1))


def _without_seconds(obj):
    if isinstance(obj, dict):
        return {k: _without_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [_without_seconds(v) for v in obj]
    return obj


class TestFullReport:
    @pytest.mark.pinned
    def test_run_all(self):
        report = run_all()
        assert report.ok()
        assert report.loops_agree
        data = report.to_json()
        assert data["ok"] is True
        assert data["wang"]["composite_equals_substitution"] is True
        assert data["induction"]["composite_equals_substitution"] is True
        text = report.to_text()
        assert "composite equals substitution: True" in text
        assert text.count("composite equals substitution: True") == 2
        assert "PASS" in text
        # the report the benchmark checks its verify rounds against
        pinned = Path(__file__).parent.parent / "perfbench" / "expected" / "verify_2x2.json"
        assert _without_seconds(data) == json.loads(pinned.read_text())
