"""Command-line interface.

Six commands: `walls` (enumerate the arrangement, optionally scan a weight
segment), `model` (per-fiber states, section degrees, and pseudoelliptic
fates of a model at given weights), `reduce` (walk a weight segment and emit
the transformation trace), `hassett` (reduce a weighted marked curve),
`volume` (log canonical self-intersection of an irreducible model), and
`validate` (list a model file's invariant violations).

Every command is a fresh process, so each `_cmd_*` imports the layers it
runs (README, "Layers").

Exit status: 0 success, 1 validation or computation failure on well-formed
input, 2 usage error.  Set MMP_ELLIPTIC_COLOR=0 to disable ANSI styling.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .curves import CurveError, WeightVector, curve_from_json, curve_to_dot, curve_to_obj, hassett_reduce
from .rationals import json_list, quote, rat_from_str, rat_to_str

USAGE_ERROR = 2
DATA_ERROR = 1


class CliError(Exception):
    def __init__(self, message: str, status: int) -> None:
        super().__init__(message)
        self.status = status


def _color_enabled() -> bool:
    if os.environ.get("MMP_ELLIPTIC_COLOR", "") == "0":
        return False
    return sys.stdout.isatty()


def _bold(text: str) -> str:
    return f"\033[1m{text}\033[0m" if _color_enabled() else text


def _read_input(path_text: str, what: str) -> bytes:
    """The bytes of an input file; a usage error when it cannot be read or its path is empty."""
    if not path_text:
        raise CliError(f"{what} file path is empty: ''", USAGE_ERROR)
    path = Path(path_text)
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise CliError(f"{what} file not found: {path}", USAGE_ERROR)
    except OSError as exc:
        raise CliError(f"cannot read {what} file {path}: {exc.strerror}", USAGE_ERROR)


def _parse_weights(spec: str) -> WeightVector:
    """Comma-separated rationals, or a JSON file holding a list of them
    (either a plain path or @path)."""

    def from_file(path_text: str) -> WeightVector:
        entries = json.loads(_read_input(path_text, "weights"))
        if not isinstance(entries, list):
            raise ValueError(f"expected a JSON list, got {json.dumps(entries)}")
        return WeightVector(tuple(rat_from_str(str(e)) for e in entries))

    try:
        if spec.startswith("@"):
            return from_file(spec[1:])
        try:
            return WeightVector(tuple(rat_from_str(p) for p in spec.split(",")))
        except ValueError:
            if spec and Path(spec).exists():
                return from_file(spec)
            raise
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad weight vector {spec!r}: {exc}", USAGE_ERROR)


def _load_model(path_text: str, override: str | None):
    from .modeljson import ModelJSONError, parse_model

    try:
        model = parse_model(_read_input(path_text, "model"))
    except ModelJSONError as exc:
        raise CliError(str(exc), DATA_ERROR)
    if override is not None:
        weights = _parse_weights(override)
        if weights.r != model.weights.r:
            raise CliError(
                f"override has {weights.r} weights; the model has {model.weights.r}",
                USAGE_ERROR,
            )
        from .reduction import RuleNotApplicable, at_weights

        try:
            model = at_weights(model, weights)
        except RuleNotApplicable as exc:  # a fiber's coefficient leaves [0, 1]
            raise CliError(f"at weights {override}: {exc}", DATA_ERROR)
    return model


def _wall_text(w, subsets: dict) -> str:
    """`json.dumps(wall_to_obj(w), indent=2)` as an entry of a top-level list,
    its lines after the first indented by two spaces; `subsets` keeps each
    subset's text for all the walls on it."""
    subset = subsets.get(w.subset)
    if subset is None:
        subset = subsets[w.subset] = json_list([str(i) for i in sorted(w.subset)], "    ")
    return (
        f'{{\n    "kind": "{w.kind.value}",\n    "subset": {subset},\n'
        f'    "constant": "{rat_to_str(w.constant)}",\n'
        f'    "boundary": {"true" if w.boundary else "false"}\n  }}'
    )


def _walls_listing(walls, subsets: dict) -> str:
    """`json.dumps([wall_to_obj(w) for w in walls], indent=2)`."""
    return json_list([_wall_text(w, subsets) for w in walls], "")


def _indent(text: str, pad: str) -> str:
    """The JSON value `text` moved deeper: every line after the first
    indented by `pad` more."""
    return text.replace("\n", "\n" + pad)


def _cmd_walls(args: argparse.Namespace) -> int:
    from .kodaira import UnsupportedFiberType, parse_fiber_type
    from .walls import enumerate_walls, segment_walls, walls_containing

    try:
        types = [parse_fiber_type(t.strip()) for t in args.types.split(",")]
    except ValueError as exc:
        raise CliError(str(exc), USAGE_ERROR)
    if len(types) != args.markers:
        raise CliError(
            f"--types lists {len(types)} fiber types but --markers is {args.markers}",
            USAGE_ERROR,
        )
    try:
        walls = enumerate_walls(args.markers, types, args.rational_base)
    except UnsupportedFiberType as exc:
        raise CliError(str(exc), DATA_ERROR)
    subsets: dict[frozenset[int], str] = {}
    if not args.segment:
        print(_walls_listing(walls, subsets))
        return 0
    A = _parse_weights(args.segment[0])
    B = _parse_weights(args.segment[1])
    if A.r != args.markers or B.r != args.markers:
        raise CliError("segment endpoints must match --markers", USAGE_ERROR)
    try:
        crossings = segment_walls(A, B, walls)
    except ValueError as exc:
        raise CliError(str(exc), USAGE_ERROR)
    rows = [
        f'{{\n      "t": "{rat_to_str(c.t)}",\n'
        f'      "walls": {_indent(_walls_listing(c.walls_hit, subsets), "      ")}\n    }}'
        for c in crossings
    ]
    start, end = (_indent(_walls_listing(walls_containing(W, walls), subsets), "  ") for W in (B, A))
    print(
        f'{{\n  "crossings": {json_list(rows, "  ")},\n'
        f'  "on_walls_at_start": {start},\n'
        f'  "on_walls_at_end": {end}\n}}'
    )
    return 0


def _model_report(model, fmt: str) -> str:
    if fmt == "dot":
        from .dot import emit_dot

        return emit_dot(model)
    from .surfaces import base_curve, pseudo_fate, section_degree

    fates = {}
    for t in model.trees:
        fates[t.root.pid] = pseudo_fate(model, t.root.pid)
    if fmt == "json":
        obj = {
            "weights": [rat_to_str(w) for w in model.weights.entries],
            "components": [
                {
                    "id": c.cid,
                    "kind": "elliptic" if c.has_section else "pseudo2",
                    "section_degree": (
                        rat_to_str(section_degree(model, c.cid)) if c.has_section else None
                    ),
                    "fibers": [
                        {
                            "id": f.fid,
                            "type": str(f.ftype),
                            "coeff": rat_to_str(f.coeff),
                            "state": str(f.state),
                        }
                        for f in c.fibers
                    ],
                }
                for c in model.components
            ],
            "pseudo_fates": fates,
            "base_curve": curve_to_obj(base_curve(model)),
        }
        return json.dumps(obj, indent=2) + "\n"
    lines = [_bold("# model report"), ""]
    for c in model.components:
        kind = "elliptic" if c.has_section else "pseudo II"
        head = f"## {c.cid} ({kind}, g={c.genus}, degL={rat_to_str(c.degL)})"
        if c.has_section:
            head += f"  section degree {rat_to_str(section_degree(model, c.cid))}"
        lines.append(_bold(head))
        for f in c.fibers:
            lines.append(f"  - {f.fid}: {f.ftype} coeff {rat_to_str(f.coeff)} [{f.state}]")
        lines.append("")
    if fates:
        lines.append(_bold("## pseudoelliptic trees"))
        for pid in sorted(fates):
            lines.append(f"  - {pid}: {fates[pid]}")
        lines.append("")
    return "\n".join(lines)


def _cmd_model(args: argparse.Namespace) -> int:
    paths = [args.model]
    if args.glob is not None:
        if not args.glob:
            raise CliError("--glob pattern is empty: ''", USAGE_ERROR)
        from glob import glob

        paths = sorted(glob(args.glob))
        if not paths:
            raise CliError(f"--glob {args.glob!r} matched nothing", USAGE_ERROR)

    # every report is built before any is printed, so a bad model in a batch
    # fails the command without partial output
    reports = [_model_report(_load_model(p, args.weights), args.format) for p in paths]
    for p, report in zip(paths, reports):
        if len(reports) > 1:
            print(_bold(f"=== {p}"))
        sys.stdout.write(report)
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    from .reduction import InconsistentTarget, InvalidModel, RuleNotApplicable, reduce as reduce_model
    from .surfaces import base_curve, base_weights

    if args.dot_dir == "":
        raise CliError("--dot-dir path is empty: ''", USAGE_ERROR)
    model = _load_model(args.model, args.from_weights)
    target = _parse_weights(args.to)
    try:
        trace = reduce_model(model, target)
    except (InvalidModel, InconsistentTarget, RuleNotApplicable) as exc:
        raise CliError(str(exc), DATA_ERROR)
    if args.check_hassett:
        original = base_curve(model)
        per_step = {}
        for rec in trace.records:  # the check applies once a time-step's batch is done
            per_step[rec.t] = rec
        for rec in per_step.values():
            got = base_curve(rec.snapshot_after)
            want = hassett_reduce(original, base_weights(rec.snapshot_after))
            if got != want:
                raise CliError(
                    f"base-curve commutativity failed at t = {rat_to_str(rec.t)}",
                    DATA_ERROR,
                )
    if args.dot_dir is not None:
        from .dot import emit_dot

        outdir = Path(args.dot_dir)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            (outdir / "step_000.dot").write_text(emit_dot(model))
            for i, rec in enumerate(trace.records, start=1):
                (outdir / f"step_{i:03d}.dot").write_text(emit_dot(rec.snapshot_after))
            (outdir / "final.dot").write_text(emit_dot(trace.final))
        except OSError as exc:
            raise CliError(f"cannot write DOT snapshots into {outdir}: {exc.strerror}", USAGE_ERROR)
    print(_trace_text(model, target, trace))
    return 0


def _trace_text(model, target, trace) -> str:
    """The trace as `json.dumps(indent=2)` lays out its object: start and
    target weights, every record with the model after it, the final model and
    the halting reason (null for a finished walk)."""
    from .modeljson import serialize_model, weights_text

    subsets: dict[frozenset[int], str] = {}
    records = [
        f'{{\n      "t": "{rat_to_str(rec.t)}",\n'
        f'      "kind": "{rec.kind!s}",\n'
        f'      "wall": {_indent(_wall_text(rec.wall, subsets), "    ")},\n'
        f'      "affected": {json_list([quote(a) for a in rec.affected], "      ")},\n'
        f'      "note": {quote(rec.note)},\n'
        f'      "snapshot_after": {_indent(serialize_model(rec.snapshot_after)[:-1], "      ")}\n    }}'
        for rec in trace.records
    ]
    start, end = weights_text(model.weights, "  "), weights_text(target, "  ")
    halted = "null" if trace.halted is None else quote(trace.halted)
    return (
        f'{{\n  "start_weights": {start},\n'
        f'  "target_weights": {end},\n'
        f'  "records": {json_list(records, "  ")},\n'
        f'  "final": {_indent(serialize_model(trace.final)[:-1], "  ")},\n'
        f'  "halted": {halted}\n}}'
    )


def _cmd_hassett(args: argparse.Namespace) -> int:
    text = _read_input(args.curve, "curve")
    try:
        curve = curve_from_json(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CliError(f"malformed-json: {exc}", DATA_ERROR)
    except CurveError as exc:
        raise CliError(str(exc), DATA_ERROR)
    weights = _parse_weights(args.weights)
    bad = [m.index for m in curve.markers if not 1 <= m.index <= weights.r]
    if bad:
        raise CliError(f"marker index {bad[0]} outside 1..{weights.r}", DATA_ERROR)
    try:
        reduced = hassett_reduce(curve, weights)
    except CurveError as exc:
        raise CliError(str(exc), DATA_ERROR)
    if args.format == "dot":
        sys.stdout.write(curve_to_dot(reduced, weights))
    else:
        print(json.dumps(curve_to_obj(reduced), indent=2))
    return 0


def _cmd_volume(args: argparse.Namespace) -> int:
    from .surfaces import UnsupportedConfiguration, volume

    model = _load_model(args.model, args.weights)
    try:
        v = volume(model)
    except UnsupportedConfiguration as exc:
        raise CliError(f"unsupported-configuration: {exc}", DATA_ERROR)
    print(rat_to_str(v))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .modeljson import ModelJSONError, parse_model
    from .surfaces import validate

    try:
        model = parse_model(_read_input(args.model, "model"), check=False)
    except ModelJSONError as exc:
        raise CliError(str(exc), DATA_ERROR)
    problems = validate(model)
    for p in problems:
        print(str(p))
    if problems:
        return DATA_ERROR
    print("ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmp-elliptic",
        description="wall-crossing engine for weighted broken elliptic surface pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("walls", help="enumerate the wall arrangement")
    p.add_argument("--markers", "-r", type=int, required=True, help="number of markers")
    p.add_argument("--types", required=True, help="comma-separated fiber types, e.g. I1,II,I*0")
    p.add_argument("--rational-base", action="store_true", help="include the sum-two wall")
    p.add_argument(
        "--segment",
        nargs=2,
        metavar=("A", "B"),
        help="lower and upper weight vectors; emits the crossings of the segment",
    )
    p.set_defaults(func=_cmd_walls)

    p = sub.add_parser("model", help="report fiber states, section degrees, pseudo fates")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--weights", help="override weights: comma list or @file")
    p.add_argument("--format", choices=["md", "json", "dot"], default="md")
    p.add_argument("--glob", help="report every model matching this pattern instead")
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("reduce", help="walk a weight segment and emit the trace")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--to", required=True, help="target weights: comma list or @file")
    p.add_argument("--from", dest="from_weights", help="override start weights")
    p.add_argument("--dot-dir", help="write per-step DOT snapshots into this directory")
    p.add_argument(
        "--check-hassett",
        action="store_true",
        help="assert base-curve commutativity with the weighted-curve reduction per step",
    )
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("hassett", help="reduce a weighted marked curve")
    p.add_argument("curve", help="curve JSON file")
    p.add_argument("--weights", required=True, help="weights: comma list or @file")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=_cmd_hassett)

    p = sub.add_parser("volume", help="log canonical self-intersection of an irreducible model")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--weights", help="override weights: comma list or @file")
    p.set_defaults(func=_cmd_volume)

    p = sub.add_parser("validate", help="list a model file's invariant violations")
    p.add_argument("model", help="model JSON file")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.status
    except BrokenPipeError:
        # the reader left early (`| head`); Python flushes stdout again at
        # exit, so point it at devnull to keep that flush from raising too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
