"""Property tests for the input boundaries.

Fuzzed scalars, loader JSON and command-line values either load and run,
or fail with exactly one ``error:`` line on stderr and exit code 1; an
exception escaping ``cli.main`` (a traceback) fails the test.  Shapes,
radii and lattices are drawn small, so every input that does load runs
in milliseconds.
"""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from aperiodic_kit import cli
from aperiodic_kit.geometry import TorusPartition
from aperiodic_kit.phifield import PhiNumber, parse_phi
from aperiodic_kit.wang import WangTileSet

FUZZ = settings(max_examples=120, deadline=None)

# the unit square as a one-atom partition of the unit torus
UNIT_SQUARE = {
    "lattice": ["1", "1"],
    "atoms": {"0": [[["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]]},
}

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
phi_texts = st.sampled_from(
    ["0", "1", "-1", "1/2", "phi", "-1+phi", "2-phi", "1/0", "", "x"]
) | st.text(alphabet="0123/+-* phi", max_size=8)
partition_like = st.fixed_dictionaries(
    {
        "lattice": st.lists(phi_texts, max_size=3) | json_values,
        "atoms": st.dictionaries(
            st.sampled_from(["0", "1", "-1", "a", ""]),
            st.lists(
                st.lists(st.lists(phi_texts, max_size=3) | json_values, max_size=5),
                max_size=3,
            )
            | json_values,
            max_size=3,
        ),
    }
)
tileset_like = st.fixed_dictionaries(
    {
        "tiles": st.lists(
            st.lists(st.sampled_from(["A", "B", ""]) | json_values, min_size=3, max_size=5)
            | json_values,
            max_size=5,
        )
    }
)
# shapes of at most 3x3 and small numbers on the command line
small_fields = st.text(alphabet="0123x,:-", max_size=3)
points = st.text(alphabet="0123456789/,-. ", max_size=10)
command_tokens = st.sampled_from(
    ["markers", "solve", "lang", "U", "PU", "--shape", "--radius", "-1", "1x1", ""]
) | st.text(max_size=6)

# what cli.main reports as one-line input errors
REPORTED = (OSError, ValueError, KeyError, TypeError, RuntimeError)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def assert_clean(code, err):
    """A result (exit 0 or 2), or one error line with exit 1."""
    if code == cli.USAGE_ERROR:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert code in (cli.OK, cli.EMPTY), code
        assert not err.startswith("error:"), err


@contextlib.contextmanager
def json_file(data):
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "input.json")
        with open(path, "w") as handle:
            json.dump(data, handle)
        yield path


class TestParsePhi:
    @FUZZ
    @given(st.text(max_size=12) | json_values)
    def test_any_input_parses_or_raises_value_error(self, text):
        try:
            value = parse_phi(text)
        except ValueError:
            return
        assert isinstance(value, PhiNumber)

    @FUZZ
    @given(st.fractions(max_denominator=50), st.fractions(max_denominator=50))
    def test_printed_scalars_parse_back(self, a, b):
        value = PhiNumber(Fraction(a), Fraction(b))
        assert parse_phi(str(value)) == value

    def test_zero_denominator_is_value_error(self):
        for text in ("1/0", "1/00+phi", "2-3/0*phi"):
            try:
                parse_phi(text)
            except ValueError:
                continue
            raise AssertionError(f"{text!r} parsed")


class TestLoaders:
    @FUZZ
    @given(partition_like | json_values)
    def test_partition_json(self, data):
        try:
            partition = TorusPartition.from_json(data)
        except REPORTED:
            return
        assert partition.total_area() == partition.covolume()

    @FUZZ
    @given(tileset_like | json_values)
    def test_tileset_json(self, data):
        try:
            tileset = WangTileSet.from_json(data)
        except REPORTED:
            return
        assert all(len(tile) == 4 for tile in tileset.tiles)


class TestCommandLine:
    @FUZZ
    @given(partition_like | json_values)
    def test_partition_file(self, data):
        with json_file(data) as path:
            argv = ["config", "--partition", path, "--seed-point", "1/3,1/5", "--shape", "2x2"]
            assert_clean(*run_cli(argv))

    @FUZZ
    @given(
        st.fixed_dictionaries(
            {
                "partition": st.just(UNIT_SQUARE) | partition_like,
                "action": st.fixed_dictionaries(
                    {
                        key: st.lists(phi_texts, max_size=3) | json_values
                        for key in ("lattice", "axis1", "axis2")
                    }
                )
                | json_values,
            }
        )
    )
    @example({"partition": UNIT_SQUARE, "action": {"lattice": ["1"], "axis1": [], "axis2": []}})
    @example({"partition": UNIT_SQUARE, "action": {"lattice": ["0", "1"], "axis1": [], "axis2": []}})
    def test_wrapped_partition_file(self, data):
        with json_file(data) as path:
            argv = ["config", "--partition", path, "--seed-point", "1/3,1/5", "--shape", "2x2"]
            assert_clean(*run_cli(argv))

    @FUZZ
    @given(tileset_like | json_values)
    def test_tileset_file(self, data):
        with json_file(data) as path:
            assert_clean(*run_cli(["solve", path, "--shape", "2x2"]))

    @FUZZ
    @given(points, small_fields, small_fields)
    @example("1/0,1/2", "1x1", "0,0")
    def test_config_values(self, point, shape, offset):
        with json_file(UNIT_SQUARE) as path:
            argv = ["config", "--partition", path, "--seed-point", point,
                    "--shape", shape, "--offset", offset]
            assert_clean(*run_cli(argv))

    @FUZZ
    @given(small_fields, st.text(alphabet="0123,:-", max_size=6), st.text(alphabet="0123,-", max_size=7))
    def test_solve_values(self, shape, fixed, wrap):
        argv = ["solve", "U", "--shape", shape, "--fixed", fixed, "--wrap", wrap]
        assert_clean(*run_cli(argv))

    @FUZZ
    @given(st.sampled_from(["markers", "desub", "lang"]), st.integers(max_value=-1))
    def test_negative_radius(self, command, radius):
        argv = {
            "markers": ["markers", "U"],
            "desub": ["desub", "U", "0,1,2,3,4,5,6,7"],
            "lang": ["lang", "--method", "tiles", "--shape", "2x2"],
        }[command] + [f"--radius={radius}"]
        code, err = run_cli(argv)
        assert code == cli.USAGE_ERROR
        assert err == f"error: argument --radius: radius must be at least 0, got {radius}\n"

    @FUZZ
    @given(st.lists(command_tokens, max_size=5))
    def test_unknown_commands(self, argv):
        # a first token that is no command or option never starts a run
        if argv and (argv[0] in ("markers", "solve", "lang") or argv[0].startswith("-")):
            argv = ["nonsense", *argv]
        code, err = run_cli(argv)
        assert code == cli.USAGE_ERROR
        assert err.startswith("error: ") and err.count("\n") == 1
