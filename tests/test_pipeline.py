import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from aperiodic_kit.catalog import square_substitution, wang_tiles
from aperiodic_kit.morphisms import Morphism2d, language
from aperiodic_kit.pet import TorusAction, enumerate_language
from aperiodic_kit.phifield import PHI, PhiNumber
from aperiodic_kit.pipeline import (
    StageFailure,
    build_reference_partition,
    check_uniqueness_hypotheses,
    cross_check_languages,
    run_all,
    run_pet_pipeline,
    run_wang_pipeline,
)
from aperiodic_kit.wang import WangTileSet, patterns_with_surrounding, prove
from aperiodic_kit.words import Word2d

EXPECTED = Path(__file__).parent / "expected"

V_MARKER_SETS = [
    [0, 1, 2, 8, 9, 10, 11],
    [3, 5, 13, 14, 17, 20],
    [4, 6, 7, 12, 15, 16, 18, 19],
]


@pytest.fixture(scope="module")
def wang_report(phi):
    return run_wang_pipeline(wang_tiles(), phi)


@pytest.fixture(scope="module")
def reference():
    return build_reference_partition()


@pytest.fixture(scope="module")
def induction_report(reference, phi):
    return run_pet_pipeline(reference, phi)


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

    def test_table_holds_only_the_first_tile_sets_dominoes(self, phi, h_dominoes, v_dominoes):
        # the marker search fills the 19 tiles' admissible sets at radius 1
        # and 2; the middle tile set keeps sets of its own
        tiles = wang_tiles()
        report = run_wang_pipeline(tiles, phi)
        assert report.composite_equals_substitution
        assert sorted(tiles.admissible) == [((1, 2), 1), ((1, 2), 2), ((2, 1), 1), ((2, 1), 2)]
        assert {(w[0, 0], w[1, 0]) for w in tiles.admissible[(2, 1), 2]} == h_dominoes
        assert {(w[0, 0], w[0, 1]) for w in tiles.admissible[(1, 2), 2]} == v_dominoes

    def test_alternate_direction_closes(self, phi):
        report = run_wang_pipeline(wang_tiles(), phi, direction_first=1)
        assert report.final_size == 19
        assert report.composite.domain_size == 19

    @pytest.mark.parametrize("seed", [1, 2, 4, 5])
    def test_permuted_letters_close_the_loop(self, phi, seed):
        # the 19 tiles in a seeded order: which of the second search's marker
        # subsets closes depends on the order, and the composite is the
        # square substitution with its letters renamed, pi o phi o pi^-1,
        # which is the rule the loop is compared with
        from aperiodic_kit.morphisms import Morphism2d, compose
        from aperiodic_kit.wang import WangTileSet

        pi = list(range(19))
        random.Random(seed).shuffle(pi)
        permuted = [None] * 19
        for a, tile in enumerate(wang_tiles().tiles):
            permuted[pi[a]] = tile
        rename = Morphism2d.from_permutation(dict(enumerate(pi)))
        restore = Morphism2d.from_permutation({b: a for a, b in enumerate(pi)})
        renamed = compose(rename, compose(phi, restore))
        report = run_wang_pipeline(WangTileSet(permuted), renamed)
        assert report.final_size == 19
        assert report.composite == renamed
        assert report.composite_equals_substitution

    def test_a_loop_that_closes_with_no_subset_names_them_all(self, monkeypatch, phi):
        from aperiodic_kit import pipeline

        tried = []

        def never(tiles, other):
            tried.append(other)
            return None

        monkeypatch.setattr(pipeline, "is_equivalent", never)
        with pytest.raises(pipeline.StageFailure, match="any of the marker subsets") as failure:
            run_wang_pipeline(wang_tiles(), phi)
        assert failure.value.stage == "is_equivalent"
        assert str(V_MARKER_SETS) in str(failure.value)
        assert len(tried) == len(V_MARKER_SETS)

    def test_periodic_tileset_fails(self, phi):
        from aperiodic_kit.pipeline import StageFailure
        from aperiodic_kit.wang import WangTileSet

        single = WangTileSet([("A", "B", "A", "B")])
        with pytest.raises(StageFailure):
            run_wang_pipeline(single, phi)

    def test_corrupted_color_fails(self, phi):
        # fault injection: one wrong edge color must break the loop, either
        # at some stage or in the final composite comparison
        from aperiodic_kit.pipeline import StageFailure
        from aperiodic_kit.wang import WangTileSet

        tiles = [list(t) for t in wang_tiles().tiles]
        tiles[0][0] = "Z"
        try:
            report = run_wang_pipeline(WangTileSet(tiles), phi)
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

    def test_alternate_axis_closes(self, reference, phi):
        report = run_pet_pipeline(reference, phi, axis_first=1)
        assert report.composite_equals_substitution

    def test_loops_agree(self, wang_report, induction_report):
        for a, b in zip(wang_report.morphisms, induction_report.morphisms):
            assert a == b


class TestUniqueness:
    def test_hypotheses(self, phi):
        report = check_uniqueness_hypotheses(phi, language(phi, (2, 2)))
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

    def test_counts_and_equality(self, phi):
        table = language(phi, (2, 2))
        coding = enumerate_language(*build_reference_partition(), (2, 2))
        rows = {
            tuple(r.shape): r for r in cross_check_languages(wang_tiles(), table, coding, (2, 2))
        }
        expect = {(1, 1): 19, (2, 1): 31, (1, 2): 35, (2, 2): 50}
        for shape, count in expect.items():
            row = rows[shape]
            assert row.substitution_count == count
            assert row.wang_count == count
            assert row.coding_count == count
            assert row.all_equal
            assert row.radius_used == 2

    def test_extended_table_needs_escalation(self, phi):
        table = language(phi, (3, 3))
        coding = enumerate_language(*build_reference_partition(), (3, 3))
        rows = {
            tuple(r.shape): r for r in cross_check_languages(wang_tiles(), table, coding, (3, 3))
        }
        assert all(r.all_equal for r in rows.values())
        assert rows[(3, 3)].substitution_count == 94
        assert rows[(3, 3)].radius_used == 3
        # the column of three needs a 4-cell margin to refute one pattern
        assert rows[(1, 3)].substitution_count == 55
        assert rows[(1, 3)].radius_used == 4

    @pytest.mark.parametrize("max_shape", [(2, 2), (3, 3)], ids=["2x2", "3x3"])
    def test_one_whole_partition_refinement_per_run(self, monkeypatch, phi, max_shape):
        # run_all refines the whole reference partition once, for every
        # coding row together, and the atom labels need no refinement; the
        # induction loop refines window pieces, whose entries start without
        # codes.  The tile searches never refine, so they are replaced by
        # the substitution language to keep this fast
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
        # searches with nothing kept), and the proved table spares every
        # search of a language word; the run builds one substitution
        # closure, at the max shape; the whole report, without its seconds,
        # is the pinned one
        from aperiodic_kit import wang

        radii = []
        search = wang.admits_surrounding

        def counting(tileset, u, r):
            radii.append(r)
            return search(tileset, u, r)

        monkeypatch.setattr(wang, "admits_surrounding", counting)
        closures = _count_closures(monkeypatch)
        report = run_all(max_shape)
        assert report.ok()
        assert closures == [max_shape]
        assert len(radii) == searches
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

    def test_reference_build_refines_nothing(self, monkeypatch):
        # the stored atom points label the arrangement: the build neither
        # refines the partition nor builds a substitution closure
        from aperiodic_kit import pet

        supports = []
        refine = pet._refine_by_codes

        def counting(partition, action, support, base):
            supports.append(list(support))
            return refine(partition, action, support, base)

        monkeypatch.setattr(pet, "_refine_by_codes", counting)
        closures = _count_closures(monkeypatch)
        build_reference_partition()
        assert supports == []
        assert closures == []

    @pytest.mark.pinned
    @pytest.mark.parametrize(
        "max_shape",
        [(1, 1), (2, 1), (1, 2), (1, 3), (3, 1)],
        ids=["1x1", "2x1", "1x2", "1x3", "3x1"],
    )
    def test_small_max_shapes_join_the_domino_steps(self, monkeypatch, max_shape):
        # with a side below 2 the coding rows refine over the max shape's
        # steps alone, while the run's one substitution closure (2x2, 2x3 or
        # 3x2) is larger than the max shape on that side, for the proof and
        # the seeds; the rows and the labeled atoms are those of the pinned
        # 3x3 report and reference partition
        from aperiodic_kit import pipeline

        references = []
        induce = pipeline.run_pet_pipeline

        def recording(reference, *args):
            references.append(reference[0])
            return induce(reference, *args)

        monkeypatch.setattr(pipeline, "run_pet_pipeline", recording)
        closures = _count_closures(monkeypatch)
        report = run_all(max_shape)
        assert closures == [(max(max_shape[0], 2), max(max_shape[1], 2))]
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


class TestRuleCertificate:
    """The one proof of a run: ``wang.prove`` shows the substitution a
    self-similarity of the 19 tiles and keeps its language as proved."""

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3)], ids=["2x2", "3x3"])
    def test_catalog_rule_proves_the_language(self, phi, tiles_u, shape):
        table = language(phi, shape)
        assert prove(tiles_u, phi, table) is None
        assert tiles_u.proved == frozenset(table)

    def test_run_at_1x1_is_ok(self):
        assert run_all((1, 1)).ok()

    def test_a_rule_that_is_not_expansive_gets_none(self):
        # one tile that fits no copy of itself, and the identity rule, which
        # sends it to a valid pattern and has no valid domino to glue: the
        # tile has no 1-surrounding, so a proof that kept the rule's
        # language, the one letter, would keep a pattern that has none
        tileset = WangTileSet([("a", "b", "c", "d")])
        identity = Morphism2d.from_permutation({0: 0})
        table = language(identity, (1, 1))
        assert table == {Word2d.single(0)}
        assert prove(tileset, identity, table) == "the rule is not expansive"
        assert tileset.proved == frozenset()
        assert patterns_with_surrounding(tileset, (1, 1), 1) == set()

    def test_a_rule_mutant_fails_at_self_similarity(self, monkeypatch):
        # one letter of the image of 0 changed: the run stops before any search
        from aperiodic_kit import catalog, wang

        monkeypatch.setitem(catalog.SUBSTITUTION_RULE, 0, [[16]])
        monkeypatch.setattr(wang, "admits_surrounding", None)
        with pytest.raises(StageFailure) as failure:
            run_all((1, 1))
        assert failure.value.stage == "self_similarity"
        assert str(failure.value) == (
            "self_similarity: the images of the horizontal domino (2, 0) do not glue"
        )

    @pytest.mark.parametrize(
        "step, stage, detail",
        [
            (PHI**-1, "rescale", "scaled partition does not match the start"),
            (PHI**-3, "induce_action", "is not a rotation"),
            (PhiNumber(Fraction(1, 3)), "induce_action", "is not a rotation"),
            (2 * PHI**-2, "induce_action", "is not a rotation"),
            (PHI**-2 + Fraction(1, 7), "induce_action", "is not a rotation"),
        ],
        ids=["phi^-1", "phi^-3", "1/3", "2phi^-2", "phi^-2+1/7"],
    )
    def test_a_rotation_step_mutant_fails_at_its_stage(self, monkeypatch, step, stage, detail):
        # the stored points label the atoms whatever the rotation, so a
        # wrong step reaches the induction loop: the rotation by phi^-1
        # induces and rescales to another partition, and each other step
        # has a first return that is no rotation
        from aperiodic_kit import catalog

        action = TorusAction((PhiNumber(1), PhiNumber(1)), (step, PhiNumber(0)), (PhiNumber(0), step))
        monkeypatch.setattr(catalog, "rotation_action", lambda: action)
        with pytest.raises(StageFailure) as failure:
            run_all((1, 1))
        assert failure.value.stage == stage
        assert detail in str(failure.value)


class TestAtomLabels:
    """The stored atom points against the arrangement they label."""

    def test_every_segment_endpoint_mutant_is_the_reference_or_fails_at_atom_labels(
        self, monkeypatch
    ):
        # one coordinate of one end of one segment moved by 1/7 or -1/5: the
        # mutant either keeps the arrangement (its segment still ends on the
        # same lines) or moves a boundary across a stored point, and every
        # way the points can miss the atoms is met
        from aperiodic_kit import catalog

        pinned = json.loads((EXPECTED / "reference_partition.json").read_text())
        segments = catalog.partition_segments()
        outcomes = Counter()
        for k, end, axis, shift in product(
            range(len(segments)), range(2), range(2), (Fraction(1, 7), Fraction(-1, 5))
        ):
            ends = [list(p) for p in segments[k]]
            ends[end][axis] += shift
            mutant = [*segments[:k], (tuple(ends[0]), tuple(ends[1])), *segments[k + 1:]]
            monkeypatch.setattr(catalog, "partition_segments", lambda: mutant)
            try:
                partition, _ = build_reference_partition()
            except StageFailure as exc:
                assert exc.stage == "atom_labels"
                outcomes[next(w for w in ("boundary", "share", "no point") if w in str(exc))] += 1
            else:
                assert partition.to_json() == pinned
                outcomes["reference"] += 1
        assert outcomes == {"reference": 10, "share": 45, "boundary": 7, "no point": 2}


def _without_seconds(obj):
    if isinstance(obj, dict):
        return {k: _without_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [_without_seconds(v) for v in obj]
    return obj


def _count_closures(monkeypatch):
    """Wrap the substitution closure; the returned list fills with the
    shape of each call."""
    from aperiodic_kit import morphisms, pipeline

    shapes = []
    closure = morphisms.language

    def counting(m, shape, *args, **kwargs):
        shapes.append(shape)
        return closure(m, shape, *args, **kwargs)

    monkeypatch.setattr(morphisms, "language", counting)
    monkeypatch.setattr(pipeline, "language", counting)
    return shapes


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
