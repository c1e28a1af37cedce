import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from aperiodic_kit.catalog import square_substitution
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
    return run_wang_pipeline()


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

    def test_alternate_direction_closes(self):
        report = run_wang_pipeline(direction_first=1)
        assert report.final_size == 19
        assert report.composite.domain_size == 19

    def test_periodic_tileset_fails(self):
        from aperiodic_kit import catalog
        from aperiodic_kit.pipeline import StageFailure
        from aperiodic_kit.wang import WangTileSet

        single = WangTileSet([("A", "B", "A", "B")])
        original = catalog.wang_tiles
        catalog.wang_tiles = lambda: single
        try:
            with pytest.raises(StageFailure):
                run_wang_pipeline()
        finally:
            catalog.wang_tiles = original

    def test_corrupted_color_fails(self):
        # fault injection: one wrong edge color must break the loop, either
        # at some stage or in the final composite comparison
        from aperiodic_kit import catalog
        from aperiodic_kit.pipeline import StageFailure
        from aperiodic_kit.wang import WangTileSet

        tiles = [list(t) for t in catalog.wang_tiles().tiles]
        tiles[0][0] = "Z"
        original = catalog.wang_tiles
        catalog.wang_tiles = lambda: WangTileSet([tuple(t) for t in tiles])
        try:
            report = run_wang_pipeline()
            assert not report.composite_equals_substitution
        except StageFailure:
            pass
        finally:
            catalog.wang_tiles = original


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
        table = reference_coding((2, 2))[2]
        rows = {tuple(r.shape): r for r in cross_check_languages(table, (2, 2))}
        expect = {(1, 1): 19, (2, 1): 31, (1, 2): 35, (2, 2): 50}
        for shape, count in expect.items():
            row = rows[shape]
            assert row.substitution_count == count
            assert row.wang_count == count
            assert row.coding_count == count
            assert row.all_equal
            assert row.radius_used == 2

    def test_extended_table_needs_escalation(self):
        table = reference_coding((3, 3))[2]
        rows = {tuple(r.shape): r for r in cross_check_languages(table, (3, 3))}
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
