"""Command-line surface: search, induction, coding, rendering, verification.

All structured output is JSON on stdout; SVG goes to --out files.  Exit
codes: 0 success, 1 usage or input error (one ``error:`` line), 2 empty
result, 3 a verification that ran to the end and failed (verify-all).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import catalog
from .geometry import TorusPartition
from .markers import find_markers, find_substitution, is_equivalent
from .morphisms import language
from .pet import (
    TorusAction,
    Window,
    config_patch,
    induce_action,
    induced_partition,
)
from .phifield import PhiNumber, parse_phi
from .pipeline import build_reference_partition, reference_coding, run_all
from .wang import TilingInstance, WangTileSet, patterns_with_surrounding, solve

OK, USAGE_ERROR, EMPTY, VERIFY_FAILED = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    # a bad command line is a usage error like bad input: one line, exit 1
    def error(self, message):
        raise ValueError(message)

    # argparse reads a word such as "-1/2,1/3" or "-phi" that follows an
    # option as another option, and only "--opt=-1/2,1/3" parses; joining
    # such a word to the option that takes it makes both spellings alike
    def parse_known_args(self, args=None, namespace=None):
        words = sys.argv[1:] if args is None else list(args)
        takes_value = {
            name: action.nargs is None
            for action in self._actions for name in action.option_strings
        }

        def resolve(option):
            # an abbreviation stands for the one option it begins
            if option not in takes_value and option.startswith("--"):
                names = [name for name in takes_value if name.startswith(option)]
                return names[0] if len(names) == 1 else option
            return option

        for i in range(len(words) - 1, 0, -1):
            option, word = resolve(words[i - 1]), words[i]
            if (
                takes_value.get(option)
                and word[:1] == "-" and word[:2] != "--"
                and word not in takes_value
            ):
                words[i - 1 : i + 1] = [f"{words[i - 1]}={word}"]
        # before the subcommand, argparse reads the value of an option it
        # does not know as the subcommand and names the value; name the
        # option and its words up to the subcommand, as after it
        commands = next(
            (a.choices for a in self._actions if isinstance(a, argparse._SubParsersAction)), None
        )
        for i, word in enumerate(words if commands else ()):
            if word == "--" or word[:1] != "-":
                break
            if resolve(word.split("=", 1)[0]) not in takes_value:
                rest = words[i:]
                end = next((j for j, w in enumerate(rest) if w in commands), len(rest))
                self.error(f"unrecognized arguments: {' '.join(rest[:end])}")
        return super().parse_known_args(words, namespace)


def _parse_shape(text: str, option: str = "--shape") -> tuple[int, int]:
    for sep in ("x", ","):
        if sep in text:
            a, b = text.split(sep, 1)
            try:
                shape = int(a), int(b)
            except ValueError:
                raise ValueError(f"{option} {text!r}: expected integers WxH") from None
            if min(shape) < 1:
                raise ValueError(f"shape {text!r} needs both sides at least 1")
            return shape
    raise ValueError(f"cannot parse shape {text!r}; expected WxH")


def _parse_point(text: str | None):
    if text is None:
        raise ValueError("--seed-point x,y is required")
    try:
        x, y = text.split(",")
        return (PhiNumber(Fraction(x.strip())), PhiNumber(Fraction(y.strip())))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse point {text!r}; expected rational x,y") from None


def _integers(option: str, text: str, form: str) -> list[int]:
    """The integers of an option value laid out like ``form`` ("x,y:tile")."""
    try:
        if re.findall("[,:]", text) != re.findall("[,:]", form):
            raise ValueError
        return [int(v) for v in re.split("[,:]", text)]
    except ValueError:
        raise ValueError(f"{option} {text!r}: expected integers {form}") from None


def _radius(text: str) -> int:
    radius = int(text)
    if radius < 0:
        raise argparse.ArgumentTypeError(f"radius must be at least 0, got {radius}")
    return radius


def _from_json(path: str, load):
    """load() of the JSON file at path; what fails to parse or load names it."""
    with open(path) as handle:
        try:
            return load(json.load(handle))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def _load_tileset(path: str) -> WangTileSet:
    if path == "U":
        return catalog.wang_tiles()
    return _from_json(path, WangTileSet.from_json)


def _load_partition(path: str):
    """Partition plus the action that codes it; ``PU`` names the built-in pair."""
    if path == "PU":
        return build_reference_partition()
    return _from_json(path, _partition_and_action)


def _partition_and_action(data):
    """A bare partition JSON (unit lattice, coded by the built-in rotation) or
    the wrapped induce output, which carries its action on the same lattice."""
    if not (isinstance(data, dict) and "partition" in data):
        partition = TorusPartition.from_json(data)
        if partition.lattice != (PhiNumber(1), PhiNumber(1)):
            raise ValueError(
                "bare partition JSON must live on the unit lattice; induced "
                "partitions are loaded from the wrapped induce output"
            )
        return partition, catalog.rotation_action()
    partition = TorusPartition.from_json(data["partition"])
    spec = data.get("action")
    keys = ("lattice", "axis1", "axis2")
    if not isinstance(spec, dict) or any(key not in spec for key in keys):
        raise ValueError(
            "a wrapped partition needs an 'action' object with "
            "'lattice', 'axis1' and 'axis2'"
        )
    lattice, axis1, axis2 = (tuple(map(parse_phi, spec[key])) for key in keys)
    if any(len(pair) != 2 for pair in (lattice, axis1, axis2)):
        raise ValueError("action lattice, axis1 and axis2 need two entries each")
    if lattice != partition.lattice:
        raise ValueError(
            f"action lattice ({lattice[0]}, {lattice[1]}) differs from the "
            f"partition lattice ({partition.lattice[0]}, {partition.lattice[1]})"
        )
    return partition, TorusAction(lattice, axis1, axis2)


def _emit(data, out: str | None):
    text = json.dumps(data, indent=2)
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def cmd_markers(args) -> int:
    tileset = _load_tileset(args.tileset)
    report = find_markers(tileset, args.axis, args.radius)
    _emit(
        {
            "direction": report.direction,
            "radius": report.radius,
            "marker_subsets": report.marker_subsets,
        },
        args.out,
    )
    if not report.marker_subsets:
        print("no markers found; try increasing the radius", file=sys.stderr)
        return EMPTY
    return OK


def cmd_desub(args) -> int:
    tileset = _load_tileset(args.tileset)
    try:
        markers = [int(x) for x in args.markers.split(",")]
    except ValueError:
        raise ValueError(f"markers {args.markers!r}: expected comma-separated tile indices") from None
    result = find_substitution(find_markers(tileset, args.axis, args.radius), markers, args.side)
    _emit(result.to_json(), args.out)
    return OK


def cmd_equiv(args) -> int:
    first = _load_tileset(args.tileset)
    second = _load_tileset(args.other)
    certificate = is_equivalent(first, second)
    if certificate is None:
        print("tile sets are not equivalent", file=sys.stderr)
        return EMPTY
    vert, horiz, bijection = certificate
    _emit(
        {
            "vert": vert,
            "horiz": horiz,
            "bijection": {str(k): v for k, v in sorted(bijection.items())},
        },
        args.out,
    )
    return OK


def cmd_solve(args) -> int:
    tileset = _load_tileset(args.tileset)
    shape = _parse_shape(args.shape)
    fixed = {}
    for pin in args.fixed or []:
        x, y, tile = _integers("--fixed", pin, "x,y:tile")
        if not 0 <= tile < len(tileset):
            raise ValueError(f"--fixed {pin!r}: tile {tile} is not in the {len(tileset)}-tile set")
        fixed[(x, y)] = tile
    wrap = None
    if args.wrap:
        a, b, c, d = _integers("--wrap", args.wrap, "a,b,c,d")
        wrap = ((a, c), (b, d))  # basis columns (a, b) and (c, d)
    word = solve(TilingInstance(tileset, shape, fixed, wrap))
    if word is None:
        print("no valid tiling", file=sys.stderr)
        return EMPTY
    _emit({"shape": list(word.shape), "columns": word.to_json()}, args.out)
    return OK


def cmd_lang(args) -> int:
    shape = _parse_shape(args.shape)
    if args.method == "substitution":
        words = language(catalog.square_substitution(), shape)
    elif args.method == "tiles":
        words = patterns_with_surrounding(catalog.wang_tiles(), shape, args.radius)
    else:
        _, _, words = reference_coding(shape)
    ordered = sorted(words, key=lambda w: w.columns)
    _emit(
        {
            "method": args.method,
            "shape": list(shape),
            "count": len(ordered),
            "patterns": [w.to_json() for w in ordered],
        },
        args.out,
    )
    return OK if ordered else EMPTY


def cmd_induce(args) -> int:
    partition, action = _load_partition(args.partition)
    bound = parse_phi(args.bound)
    window = Window(args.axis, bound)
    new_action = induce_action(action, window)
    induced, morphism = induced_partition(partition, action, window)
    _emit(
        {
            "partition": induced.to_json(),
            "morphism": morphism.to_json(),
            "action": {
                "lattice": [str(new_action.lattice[0]), str(new_action.lattice[1])],
                "axis1": [str(v) for v in new_action.alpha1],
                "axis2": [str(v) for v in new_action.alpha2],
            },
        },
        args.out,
    )
    return OK


def cmd_config(args) -> int:
    point = _parse_point(args.seed_point)
    shape = _parse_shape(args.shape)
    partition, action = _load_partition(args.partition)
    offset = (0, 0)
    if args.offset:
        offset = tuple(_integers("--offset", args.offset, "i,j"))
    patch = config_patch(partition, action, point, shape, offset)
    _emit({"shape": list(patch.shape), "columns": patch.to_json()}, args.out)
    return OK


def cmd_render(args) -> int:
    from . import render

    if args.target == "tiling":
        tileset = _load_tileset(args.input)
        if args.shape:
            shape = _parse_shape(args.shape)
            word = solve(TilingInstance(tileset, shape))
            if word is None:
                print("no valid tiling to draw", file=sys.stderr)
                return EMPTY
            svg = render.render_tiling(tileset, word, seed=args.seed)
        else:
            svg = render.render_tileset(tileset, seed=args.seed)
    elif args.target == "partition":
        partition, _ = _load_partition(args.input)
        svg = render.render_partition(partition, seed=args.seed)
    else:  # coded-orbit
        point = _parse_point(args.seed_point)
        shape = _parse_shape(args.shape or "6x8")
        partition, action = _load_partition(args.input)
        svg = render.render_coded_orbit(partition, action, point, shape, seed=args.seed)
    with open(args.out, "w") as handle:
        handle.write(svg + "\n")
    return OK


def cmd_verify_all(args) -> int:
    report = run_all(_parse_shape(args.max_shape, "--max-shape"))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report.to_json(), handle, indent=2)
            handle.write("\n")
    print(report.to_text())
    return OK if report.ok() else VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aperiodic-kit",
        description=(
            "Cross-verified computations for a self-similar aperiodic plane "
            "subshift: substitution language, Wang tiles, coded rotations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("markers", help="find marker tile subsets")
    p.add_argument("tileset", help="tile-set JSON path, or U for the built-in 19 tiles")
    p.add_argument("--axis", type=int, choices=(1, 2), default=2)
    p.add_argument("--radius", type=_radius, default=2)
    p.add_argument("--out")
    p.set_defaults(func=cmd_markers)

    p = sub.add_parser("desub", help="desubstitute a tile set using markers")
    p.add_argument("tileset")
    p.add_argument("markers", help="comma-separated marker tile indices")
    p.add_argument("--axis", type=int, choices=(1, 2), default=2)
    p.add_argument("--radius", type=_radius, default=2)
    p.add_argument("--side", choices=("left", "right"), default="right")
    p.add_argument("--out")
    p.set_defaults(func=cmd_desub)

    p = sub.add_parser("equiv", help="search a tile-set equivalence certificate")
    p.add_argument("tileset")
    p.add_argument("other")
    p.add_argument("--out")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("solve", help="tile a rectangle or quotient torus")
    p.add_argument("tileset")
    p.add_argument("--shape", required=True, help="WxH")
    p.add_argument("--fixed", action="append", help="x,y:tile (repeatable)")
    p.add_argument("--wrap", help="a,b,c,d: torus lattice basis columns (a,b),(c,d)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("lang", help="enumerate allowed patterns of a shape")
    p.add_argument("--method", choices=("substitution", "tiles", "coding"), required=True)
    p.add_argument("--shape", required=True, help="WxH")
    p.add_argument("--radius", type=_radius, default=2, help="surrounding radius for tiles")
    p.add_argument("--out")
    p.set_defaults(func=cmd_lang)

    p = sub.add_parser("induce", help="induce the coded rotation on an axis window")
    p.add_argument("--partition", default="PU", help="partition JSON path or PU")
    p.add_argument("--axis", type=int, choices=(1, 2), required=True)
    p.add_argument("--bound", default="-1+phi", help="window bound as a+b*phi")
    p.add_argument("--out")
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("config", help="code an orbit patch of a starting point")
    p.add_argument("--partition", default="PU")
    p.add_argument("--seed-point", required=True, help='"x,y" with rational entries')
    p.add_argument("--shape", required=True, help="WxH")
    p.add_argument("--offset", help="i,j lattice offset of the patch")
    p.add_argument("--out")
    p.set_defaults(func=cmd_config)

    p = sub.add_parser("render", help="draw a tile set, tiling, partition or orbit")
    p.add_argument("--target", choices=("tiling", "partition", "coded-orbit"), required=True)
    p.add_argument("--input", default="U", help="artifact path, or U / PU built-ins")
    p.add_argument("--shape", help="WxH (tiling and coded-orbit targets)")
    p.add_argument("--seed-point", help='"x,y" (coded-orbit target)')
    p.add_argument("--seed", type=int, default=0, help="palette rotation")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("verify-all", help="run every pipeline and cross-check")
    p.add_argument("--max-shape", default="2,2")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (OSError, ValueError, KeyError, TypeError, RuntimeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
