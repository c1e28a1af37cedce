import hashlib
import json
from pathlib import Path

import pytest

from aperiodic_kit import cli
from aperiodic_kit.cli import main
from aperiodic_kit.render import render_partition, render_tileset, render_tiling
from aperiodic_kit.wang import TilingInstance, solve

# the unit square as a one-atom partition of the unit torus
UNIT_SQUARE = {
    "lattice": ["1", "1"],
    "atoms": {"0": [[["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]]},
}
# a config command line that reads its partition from the path appended to it
CONFIG = ["config", "--seed-point", "1/3,1/5", "--shape", "1x1", "--partition"]


class TestRender:
    def test_tileset_svg(self, tiles_u):
        svg = render_tileset(tiles_u)
        assert svg.startswith("<?xml")
        assert svg.count("<text") >= 19 * 5  # four edge labels + index per tile
        assert render_tileset(tiles_u) == svg  # deterministic

    def test_partition_svg(self, partition_u):
        svg = render_partition(partition_u)
        assert svg.count("<polygon") == sum(
            len(cells) for cells in partition_u.atoms.values()
        )
        assert render_partition(partition_u) == svg

    def test_palette_seed_changes_colors(self, partition_u):
        assert render_partition(partition_u, seed=1) != render_partition(partition_u)

    def test_tiling_svg(self, tiles_u):
        word = solve(TilingInstance(tiles_u, (3, 3)))
        svg = render_tiling(tiles_u, word)
        assert svg.count("<path") == 9 * 4


class TestCli:
    def test_markers_builtin(self, capsys):
        assert main(["markers", "U", "--axis", "2", "--radius", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["marker_subsets"] == [[0, 1, 2, 3, 4, 5, 6, 7]]

    def test_markers_empty_exit_code(self, tmp_path, capsys):
        path = tmp_path / "single.json"
        path.write_text(json.dumps({"tiles": [["A", "B", "A", "B"]]}))
        assert main(["markers", str(path), "--axis", "2", "--radius", "1"]) == 2

    def test_markers_missing_file(self):
        assert main(["markers", "/nonexistent/tiles.json"]) == 1

    def test_markers_radius_zero_empty(self, capsys):
        # color-compatibility alone merges everything into one class that
        # fails the filter, so radius 0 finds nothing
        assert main(["markers", "U", "--axis", "2", "--radius", "0"]) == 2
        data = json.loads(capsys.readouterr().out)
        assert data["marker_subsets"] == []

    def test_desub_then_equiv_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "step.json"
        code = main(
            ["desub", "U", "0,1,2,3,4,5,6,7", "--axis", "2", "--radius", "2",
             "--out", str(out)]
        )
        assert code == 0
        step = json.loads(out.read_text())
        assert len(step["tileset"]["tiles"]) == 21
        tiles_path = tmp_path / "v.json"
        tiles_path.write_text(json.dumps(step["tileset"]))
        assert main(["markers", str(tiles_path), "--axis", "1", "--radius", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["marker_subsets"][0] == [0, 1, 2, 8, 9, 10, 11]

    def test_equiv_self(self, capsys):
        assert main(["equiv", "U", "U"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["bijection"]["0"] == 0

    def test_solve_and_validate(self, capsys, tiles_u):
        assert main(["solve", "U", "--shape", "5x5"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["shape"] == [5, 5]

    def test_solve_unsat_exit(self, capsys):
        code = main(
            ["solve", "U", "--shape", "2x1", "--fixed", "0,0:0", "--fixed", "1,0:0"]
        )
        assert code == 2

    def test_solve_wrap_unsat(self):
        assert main(["solve", "U", "--shape", "1x1", "--wrap", "2,0,0,2"]) == 2

    def test_solve_wrap_reads_basis_columns(self, tmp_path, capsys):
        # horizontal stripes repeat along (1, 0) and (1, 2): a 1x2 torus
        path = tmp_path / "stripes.json"
        path.write_text(json.dumps({"tiles": [["a", "p", "a", "q"], ["b", "q", "b", "p"]]}))
        assert main(["solve", str(path), "--shape", "1x1", "--wrap", "1,0,1,2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["shape"] == [1, 2]
        # a fixed cell outside the shape reduces onto the torus: (3, 5) onto (0, 1)
        argv = ["solve", str(path), "--shape", "1x1", "--wrap", "1,0,1,2", "--fixed", "3,5:0"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["columns"] == [[1, 0]]
        assert main(["solve", "U", "--shape", "1x1", "--wrap", "4,0,0,4", "--fixed", "2,2:0"]) == 2

    def test_solve_conflicting_pins_are_one_line_error(self, capsys):
        argv = ["solve", "U", "--shape", "2x2", "--fixed", "0,0:1", "--fixed", "0,0:2"]
        assert main(argv) == cli.USAGE_ERROR
        assert capsys.readouterr().err == (
            "error: --fixed '0,0:1' and --fixed '0,0:2' pin cell (0, 0) to different tiles\n"
        )
        # the same pin twice is one pin
        assert main(["solve", "U", "--shape", "2x2", "--fixed", "0,0:1", "--fixed", "0,0:1"]) == 0
        assert json.loads(capsys.readouterr().out)["columns"][0][0] == 1

    def test_lang_substitution(self, capsys):
        assert main(["lang", "--method", "substitution", "--shape", "2x2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 50

    def test_config_patch(self, capsys):
        code = main(
            ["config", "--seed-point", "1357/10000,2938/10000", "--shape", "2x2"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["shape"] == [2, 2]

    def test_render_tileset(self, tmp_path):
        out = tmp_path / "u.svg"
        assert main(["render", "--target", "tiling", "--input", "U", "--out", str(out)]) == 0
        content = out.read_text()
        assert content.startswith("<?xml") and "</svg>" in content

    def test_render_partition(self, tmp_path):
        out = tmp_path / "pu.svg"
        code = main(["render", "--target", "partition", "--input", "PU", "--out", str(out)])
        assert code == 0
        assert out.read_text().count("<polygon") == 19

    def test_render_orbit(self, tmp_path):
        out = tmp_path / "orbit.svg"
        code = main(
            ["render", "--target", "coded-orbit", "--input", "PU",
             "--seed-point", "1357/10000,2938/10000", "--shape", "3x3",
             "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().count("<circle") == 9

    @pytest.mark.pinned
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["render", "--target", "partition"], "render_partition_pu.svg"),
            (["render", "--target", "coded-orbit",
              "--seed-point", "1357/10000,2938/10000", "--shape", "6x8"],
             "render_coded_orbit_pu_6x8.svg"),
        ],
    )
    def test_render_partition_targets_default_to_pu(self, tmp_path, argv, name):
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == (Path(__file__).parent / "expected" / name).read_bytes()

    def test_render_tiling_defaults_to_u(self, tmp_path):
        default, explicit = tmp_path / "default.svg", tmp_path / "u.svg"
        assert main(["render", "--target", "tiling", "--out", str(default)]) == 0
        assert main(["render", "--target", "tiling", "--input", "U", "--out", str(explicit)]) == 0
        assert default.read_bytes() == explicit.read_bytes()

    @pytest.mark.parametrize(
        "target, given, needed",
        [("tiling", "PU", "U"), ("partition", "U", "PU"), ("coded-orbit", "U", "PU")],
    )
    def test_render_builtin_of_the_wrong_kind_is_one_line_error(
        self, tmp_path, capsys, target, given, needed
    ):
        out = tmp_path / "x.svg"
        argv = ["render", "--target", target, "--input", given,
                "--seed-point", "1/3,1/5", "--out", str(out)]
        assert main(argv) == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert err == f"error: --target {target} needs --input {needed} or a path, not {given}\n"
        assert not out.exists()

    def test_config_on_boundary_is_one_line_error(self, capsys):
        assert main(["config", "--seed-point", "1/2,0", "--shape", "1x1"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "point (1/2, 0) lies on the partition boundary" in err

    def test_bad_shape_is_usage_error(self):
        assert main(["lang", "--method", "substitution", "--shape", "banana"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "U", "--shape", "0x3"],
            ["lang", "--method", "substitution", "--shape", "2x-1"],
            ["verify-all", "--max-shape", "0,0"],
        ],
    )
    def test_shape_below_one_is_usage_error(self, capsys, argv):
        assert main(argv) == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: shape ") and err.count("\n") == 1

    def test_coded_orbit_without_seed_point_is_one_line_error(self, tmp_path, capsys):
        out = tmp_path / "x.svg"
        argv = ["render", "--target", "coded-orbit", "--input", "PU", "--out", str(out)]
        assert main(argv) == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert err == "error: --seed-point x,y is required\n"
        assert not out.exists()

    @pytest.mark.parametrize("point", ["1/3", "1/0,1/5", "1/3,1/5,1/7", "a,b"])
    def test_unreadable_seed_point_is_one_line_error(self, capsys, point):
        assert main(["config", "--seed-point", point, "--shape", "1x1"]) == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: cannot parse point ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lang", "--method", "tiles", "--shape", "2x"], "--shape '2x': expected integers WxH"),
            (["solve", "U", "--shape", "ax3"], "--shape 'ax3': expected integers WxH"),
            (["verify-all", "--max-shape", "2,b"], "--max-shape '2,b': expected integers WxH"),
            (
                ["desub", "U", "a,b"],
                "markers 'a,b': expected comma-separated tile indices",
            ),
            (
                ["desub", "U", "0,1,"],
                "markers '0,1,': expected comma-separated tile indices",
            ),
        ],
    )
    def test_non_integer_value_is_named(self, capsys, argv, message):
        assert main(argv) == cli.USAGE_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["lang", "--method", "tiles", "--shape", "2x2", "--radius", "-1"],
            ["markers", "U", "--radius", "-1"],
            ["desub", "U", "0,1,2,3,4,5,6,7", "--radius", "-1"],
        ],
    )
    def test_negative_radius_is_usage_error(self, capsys, argv):
        assert main(argv) == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert err == "error: argument --radius: radius must be at least 0, got -1\n"

    # argparse errors are one line and exit 1, not the usage text and 2
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "U"],
            ["solve", "U", "--shape", "2x2", "--bogus"],
            ["solve", "U", "--shape", "2x2", "--backend", "exact_cover"],
            ["--bogus"],
            ["lang", "--method", "nope", "--shape", "1x1"],
            ["verify-all", "--max-shape", "1,1", "--bogus", "2"],
            [],
        ],
    )
    def test_argparse_error_is_one_line(self, capsys, argv):
        assert main(argv) == cli.USAGE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["-h"])
        assert exit_info.value.code == 0

    # argparse would name the value of an unknown option before the
    # subcommand, since it reads that value as the subcommand
    @pytest.mark.parametrize(
        "argv, option",
        [
            (["--jobs", "2", "verify-all"], "--jobs 2"),
            (["--bogus", "2", "lang", "--method", "substitution", "--shape", "1x1"], "--bogus 2"),
        ],
        ids=["jobs", "bogus"],
    )
    def test_unknown_option_before_the_subcommand_is_named(self, capsys, argv, option):
        assert main(argv) == cli.USAGE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unrecognized arguments: {option}\n"

    # every search runs in this process, and no subcommand takes a job count
    @pytest.mark.parametrize("value", ["2", "0", "x"])
    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["markers", "U"],
            ["desub", "U", "0,1"],
            ["equiv", "U", "U"],
            ["solve", "U", "--shape", "1x1"],
            ["lang", "--method", "substitution", "--shape", "1x1"],
            ["induce", "--axis", "2"],
            ["config", "--seed-point", "0,0", "--shape", "1x1"],
            ["render", "--target", "tiling", "--out", "tiles.svg"],
            ["verify-all", "--max-shape", "1,1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_jobs_is_a_one_line_usage_error(self, capsys, argv, before, value):
        jobs = ["--jobs", value]
        assert main([*jobs, *argv] if before else [*argv, *jobs]) == cli.USAGE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "--jobs" in captured.err

    def test_induce_then_config_on_saved_system(self, tmp_path, capsys):
        out = tmp_path / "step.json"
        assert main(["induce", "--axis", "2", "--bound=-1+phi", "--out", str(out)]) == 0
        saved = json.loads(out.read_text())
        assert len(saved["partition"]["atoms"]) == 21
        assert saved["action"]["lattice"] == ["1", "-1+phi"]
        # the saved induced system codes orbits with its own action
        code = main(
            ["config", "--partition", str(out),
             "--seed-point", "1357/10000,1469/10000", "--shape", "3x3"]
        )
        assert code == 0
        patch = json.loads(capsys.readouterr().out)
        assert patch["shape"] == [3, 3]
        assert all(0 <= v <= 20 for col in patch["columns"] for v in col)

    def test_bare_partition_on_wrong_lattice_rejected(self, tmp_path):
        out = tmp_path / "step.json"
        main(["induce", "--axis", "2", "--bound=-1+phi", "--out", str(out)])
        inner = json.loads(out.read_text())["partition"]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(inner))
        assert main(
            ["config", "--partition", str(bare),
             "--seed-point", "1/3,1/5", "--shape", "2x2"]
        ) == 1

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--fixed", "0,0:99"], "error: --fixed '0,0:99': tile 99 is not in the 19-tile set\n"),
            (["--fixed", "1"], "error: --fixed '1': expected integers x,y:tile\n"),
            (["--fixed", "0:0,1"], "error: --fixed '0:0,1': expected integers x,y:tile\n"),
            (["--wrap", "1,2"], "error: --wrap '1,2': expected integers a,b,c,d\n"),
        ],
    )
    def test_bad_solve_values_name_the_option(self, capsys, options, message):
        assert main(["solve", "U", "--shape", "2x2", *options]) == cli.USAGE_ERROR
        assert capsys.readouterr().err == message

    def test_bad_offset_names_the_option(self, capsys):
        argv = ["config", "--seed-point", "1/3,1/5", "--shape", "1x1", "--offset", "3"]
        assert main(argv) == cli.USAGE_ERROR
        assert capsys.readouterr().err == "error: --offset '3': expected integers i,j\n"

    @pytest.mark.parametrize(
        "head, option, value",
        [
            (["config", "--shape", "2x2"], "--seed-point", "-1/2,1/3"),
            (["config", "--shape", "2x2"], "--seed-p", "-1/2,1/3"),
            (["config", "--seed-point", "1/2,1/3", "--shape", "1x1"], "--offset", "-1,0"),
            (["induce", "--partition", "PU", "--axis", "2"], "--bound", "-1/2"),
            (["induce", "--partition", "PU", "--axis", "2"], "--bound", "-1+phi"),
        ],
    )
    def test_negative_value_as_its_own_word(self, capsys, head, option, value):
        code = main([*head, f"{option}={value}"])
        joined = capsys.readouterr()
        assert main([*head, option, value]) == code
        assert capsys.readouterr() == joined
        assert "expected one argument" not in joined.err

    def test_wrapped_partition_without_action_names_the_key(self, tmp_path, capsys):
        path = tmp_path / "wrapped.json"
        path.write_text(json.dumps({"partition": UNIT_SQUARE}))
        argv = ["config", "--partition", str(path), "--seed-point", "1/3,1/5", "--shape", "2x1"]
        assert main(argv) == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err == (
            f"error: {path}: a wrapped partition needs an 'action' object with "
            "'lattice', 'axis1' and 'axis2'\n"
        )

    def test_wrapped_partition_with_a_foreign_action_lattice_rejected(self, tmp_path, capsys):
        # the action would step points modulo (2, 3) while the partition
        # locates them modulo (1, 1): a patch of some other system
        path = tmp_path / "wrapped.json"
        action = {"lattice": ["2", "3"], "axis1": ["1/3", "0"], "axis2": ["0", "1/5"]}
        path.write_text(json.dumps({"partition": UNIT_SQUARE, "action": action}))
        argv = ["config", "--partition", str(path), "--seed-point", "0,0", "--shape", "2x1"]
        assert main(argv) == cli.USAGE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: action lattice (2, 3) differs from the partition lattice (1, 1)\n"
        )

    @pytest.mark.parametrize("colors", [["A", "B", "C"], ["A", "B", "C", "D", "E"]])
    def test_tile_with_wrong_arity_is_usage_error(self, tmp_path, capsys, colors):
        path = tmp_path / "tiles.json"
        path.write_text(json.dumps({"tiles": [["A", "B", "A", "B"], colors]}))
        assert main(["solve", str(path), "--shape", "2x2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: tile 1 ") and err.count("\n") == 1

    def test_partition_covering_half_the_torus_rejected(self, tmp_path, capsys, partition_u):
        data = partition_u.to_json()
        data["atoms"] = {k: v for k, v in data["atoms"].items() if int(k) < 9}
        path = tmp_path / "half.json"
        path.write_text(json.dumps(data))
        assert main(
            ["config", "--partition", str(path), "--seed-point", "1/3,1/5", "--shape", "2x2"]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: partition does not tile the torus")
        assert "covolume" in err

    @pytest.mark.parametrize(
        "command, data",
        [
            (["config", "--seed-point", "1/3,1/5", "--shape", "1x1", "--partition"],
             {"lattice": 1, "atoms": {}}),
            (CONFIG, {"lattice": ["1", "1"], "atoms": 5}),
            (["solve", "--shape", "2x2"], {"tiles": 5}),
        ],
    )
    def test_json_of_wrong_shape_is_usage_error(self, tmp_path, capsys, command, data):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        assert main([*command, str(path)]) == cli.USAGE_ERROR == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "lattice, shown", [(1, "1"), ("11", "'11'"), (["1"], "['1']"), (["1", "1", "1"], "['1', '1', '1']")]
    )
    def test_lattice_that_is_no_pair_names_the_file_and_the_value(
        self, tmp_path, capsys, lattice, shown
    ):
        # "11" once read as the lattice (1, 1) from the string's characters
        path = tmp_path / "input.json"
        path.write_text(json.dumps({**UNIT_SQUARE, "lattice": lattice}))
        assert main([*CONFIG, str(path)]) == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert err == f"error: {path}: lattice must be a list of two entries, got {shown}\n"

    @pytest.mark.parametrize(
        "command, data, key",
        [
            (["solve", "--shape", "2x2"], {}, "tiles"),
            (["solve", "--shape", "2x2"], [], "tiles"),
            (["config", "--seed-point", "1/3,1/5", "--shape", "1x1", "--partition"],
             {"lattice": ["1", "1"]}, "atoms"),
            (["config", "--seed-point", "1/3,1/5", "--shape", "1x1", "--partition"],
             {"atoms": {}}, "lattice"),
            (["config", "--seed-point", "1/3,1/5", "--shape", "1x1", "--partition"],
             {"partition": {"lattice": ["1", "1"]}, "action": {}}, "atoms"),
        ],
    )
    def test_missing_key_names_the_key_and_the_file(self, tmp_path, capsys, command, data, key):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        assert main([*command, str(path)]) == cli.USAGE_ERROR
        err = capsys.readouterr().err
        what = "tile set" if key == "tiles" else "partition"
        assert err == f"error: {path}: {what} JSON has no '{key}' key\n"

    @pytest.mark.parametrize(
        "command, action, message",
        [
            (["solve", "--shape", "2x2"], None,
             "Expecting property name enclosed in double quotes"),
            (CONFIG, None, "Expecting property name enclosed in double quotes"),
            (CONFIG, {"lattice": ["1"], "axis1": ["1/3", "0"], "axis2": ["0", "1/5"]},
             "action lattice, axis1 and axis2 need two entries each"),
            (CONFIG, {"lattice": ["1", "1"], "axis1": ["x", "0"], "axis2": ["0", "1/5"]},
             "cannot parse 'x' as a PhiNumber"),
            (CONFIG, {"lattice": ["1", "1"], "axis1": ["1/3", "1/5"], "axis2": ["0", "1/5"]},
             "generators must be axis-aligned"),
        ],
    )
    def test_loader_errors_name_the_file(self, tmp_path, capsys, command, action, message):
        # None writes a file that is not JSON, an action a wrapped partition
        path = tmp_path / "input.json"
        wrapped = {"partition": UNIT_SQUARE, "action": action}
        path.write_text("{" if action is None else json.dumps(wrapped))
        assert main([*command, str(path)]) == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command",
        [
            ["render", "--target", "partition", "--input"],
            CONFIG,
            ["induce", "--axis", "2", "--partition"],
        ],
    )
    def test_atom_without_cells_names_the_file_and_the_label(self, tmp_path, capsys, command):
        # the reference partition with a 20th atom that has no cells
        data = json.loads((Path(__file__).parent / "expected" / "reference_partition.json").read_text())
        data["atoms"]["19"] = []
        path, out = tmp_path / "input.json", tmp_path / "out"
        path.write_text(json.dumps(data))
        assert main([*command, str(path), "--out", str(out)]) == cli.USAGE_ERROR
        assert capsys.readouterr().err == f"error: {path}: atom 19 has no cells\n"
        assert not out.exists()

    def test_atom_labels_with_a_gap_name_the_missing_label(self, tmp_path, capsys):
        # the reference partition with atom 18 relabeled 25 would induce a
        # morphism over 26 letters, seven of them unused
        data = json.loads((Path(__file__).parent / "expected" / "reference_partition.json").read_text())
        data["atoms"]["25"] = data["atoms"].pop("18")
        path, out = tmp_path / "input.json", tmp_path / "out"
        path.write_text(json.dumps(data))
        argv = ["induce", "--partition", str(path), "--axis", "2", "--out", str(out)]
        assert main(argv) == cli.USAGE_ERROR
        assert capsys.readouterr().err == (
            f"error: {path}: atom labels must be 0..18; label 18 is missing\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda atoms: atoms.__setitem__("x", atoms.pop("18")),
             "atom label 'x' is not an integer"),
            (lambda atoms: atoms["3"].append([["0", "0"], ["1", "1"]]),
             "atom 3, cell 1: degenerate polygon"),
            (lambda atoms: atoms["5"][0][2].append("0"),
             "atom 5, cell 0: too many values to unpack (expected 2)"),
            (lambda atoms: atoms.__setitem__("7", 5), "atom 7: cells must be a list, got 5"),
        ],
    )
    def test_malformed_atom_names_the_label_and_the_cell(self, tmp_path, capsys, edit, message):
        data = json.loads((Path(__file__).parent / "expected" / "reference_partition.json").read_text())
        edit(data["atoms"])
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        argv = ["config", "--partition", str(path), "--seed-point", "1/3,1/5", "--shape", "2x2"]
        assert main(argv) == cli.USAGE_ERROR
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("axis, bound", [("2", "2"), ("2", "3/2"), ("1", "phi")])
    def test_window_beyond_the_lattice_is_one_line_error(self, capsys, axis, bound):
        assert main(["induce", "--axis", axis, "--bound", bound]) == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert err == f"error: window bound {bound} exceeds the lattice side 1 on axis {axis}\n"

    def test_window_without_a_rotation_is_one_line_error(self, capsys):
        # the first return to y < 1/100 exchanges three pieces, so
        # induce_action refuses it before the partition is induced
        assert main(["induce", "--axis", "2", "--bound", "1/100"]) == cli.USAGE_ERROR
        assert capsys.readouterr().err == "error: induced generator 2 is not a rotation\n"

    def test_failed_verification_exit_code(self, tmp_path, monkeypatch, capsys):
        class FailingReport:
            def ok(self):
                return False

            def to_json(self):
                return {"ok": False}

            def to_text(self):
                return "composite equals substitution: False"

        monkeypatch.setattr(cli, "run_all", lambda max_shape: FailingReport())
        out = tmp_path / "report.json"
        assert main(["verify-all", "--out", str(out)]) == cli.VERIFY_FAILED == 3
        assert json.loads(out.read_text()) == {"ok": False}

    def test_failed_stage_exit_code(self, tmp_path, monkeypatch, capsys):
        from aperiodic_kit.pipeline import StageFailure

        def failing(max_shape):
            raise StageFailure("is_equivalent", "final tile set is not equivalent to the start")

        monkeypatch.setattr(cli, "run_all", failing)
        out = tmp_path / "report.json"
        assert main(["verify-all", "--out", str(out)]) == cli.VERIFY_FAILED
        assert capsys.readouterr().err == (
            "verification failed at stage is_equivalent: "
            "final tile set is not equivalent to the start\n"
        )
        assert not out.exists()
        # a bad command line is still a usage error
        assert main(["verify-all", "--max-shape", "2,b"]) == cli.USAGE_ERROR

    # the induce JSON of the reference partition is pinned byte for byte
    @pytest.mark.pinned
    @pytest.mark.parametrize(
        "axis, digest",
        [
            (1, "aca4a75c28057e594e4fdd20f68a8a969e83e88e1641ec458b353268db2a4688"),
            (2, "623242cb52c64ebec3d65f21e080568e5d2ed648c195ac0809af0b91619efb0b"),
        ],
    )
    def test_induce_output_is_pinned(self, capsys, axis, digest):
        assert main(["induce", "--axis", str(axis)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    # the same on the partition read from its JSON file, so the refinement
    # also runs on cells loaded through from_json
    @pytest.mark.pinned
    @pytest.mark.parametrize(
        "partition, axis",
        [
            (source, axis)
            for source in ["PU", str(Path(__file__).parent / "expected" / "reference_partition.json")]
            for axis in (1, 2)
        ],
        ids=["1", "2", "1-reference_partition.json", "2-reference_partition.json"],
    )
    def test_induce_out_file_equals_the_expected_file(self, tmp_path, partition, axis):
        out = tmp_path / f"induce_axis{axis}.json"
        argv = ["induce", "--partition", partition, "--axis", str(axis), "--out", str(out)]
        assert main(argv) == 0
        expected = Path(__file__).parent / "expected" / f"induce_axis{axis}.json"
        assert out.read_bytes() == expected.read_bytes()

    # the search outputs, pinned byte for byte: an admissible-pattern row
    # searched without certificates, the least 7x7 tiling by U, the 6x6
    # substitution language, the certificate set of verify-all at 2,2, and
    # the desubstitution of U by its markers, which reads the dominoes its
    # marker search left in the tile set
    @pytest.mark.pinned
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["lang", "--method", "tiles", "--shape", "3x3", "--radius", "3"], "lang_tiles_3x3_r3.json"),
            (["solve", "U", "--shape", "7x7"], "solve_u_7x7.json"),
            (["lang", "--method", "substitution", "--shape", "6x6"], "lang_substitution_6x6.json"),
            (["desub", "U", "0,1,2,3,4,5,6,7", "--axis", "2", "--radius", "2"], "desub_u_axis2.json"),
        ],
    )
    def test_search_out_file_equals_the_expected_file(self, tmp_path, argv, name):
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == (Path(__file__).parent / "expected" / name).read_bytes()

    # outputs that read the atoms of the reference partition, pinned byte
    # for byte: its drawing, a coded orbit drawn on it, the coded patch of
    # the same orbit, which locate points in the atoms, and the 3x3 coding
    # language, read off the refinement that labels them
    @pytest.mark.pinned
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["render", "--target", "partition", "--input", "PU"], "render_partition_pu.svg"),
            (["render", "--target", "coded-orbit", "--input", "PU",
              "--seed-point", "1357/10000,2938/10000", "--shape", "6x8"],
             "render_coded_orbit_pu_6x8.svg"),
            (["config", "--seed-point", "1357/10000,2938/10000", "--shape", "6x8"],
             "config_6x8.json"),
            (["lang", "--method", "coding", "--shape", "3x3"], "lang_coding_3x3.json"),
        ],
    )
    def test_partition_out_file_equals_the_expected_file(self, tmp_path, argv, name):
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == (Path(__file__).parent / "expected" / name).read_bytes()
