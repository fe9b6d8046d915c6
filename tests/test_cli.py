import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mmp_elliptic.cli import main
from mmp_elliptic.curves import WeightVector
from mmp_elliptic.kodaira import parse_fiber_type
from mmp_elliptic.modeljson import serialize_model
from mmp_elliptic.rationals import rat_to_str
from mmp_elliptic.walls import enumerate_walls, segment_walls, walls_containing

from modelkit import chain_cascade, rational_degeneration
from oracles import segment_oracle, wall_to_obj

F = Fraction
EXAMPLE = Path(__file__).parent.parent / "demos" / "data" / "rational_example.json"

TARGET = ",".join(["1"] * 10 + ["1/3", "1/3"])


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(serialize_model(rational_degeneration(F(1))))
    return path


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def test_walls_command(capsys):
    status, out, _ = run(capsys, "walls", "-r", "2", "--types", "I1,I1", "--rational-base")
    assert status == 0
    walls = json.loads(out)
    kinds = [w["kind"] for w in walls]
    assert kinds.count("WII") == 4
    assert kinds.count("WIII") == 21
    assert "WI" not in kinds



def test_walls_listing_is_the_json_layout(capsys):
    rng = random.Random(41)
    pool = ["I1", "I3", "II", "III", "IV", "I*0", "II*", "III*", "IV*", "N1"]
    empty = {"crossings": 0, "on_walls_at_start": 0, "on_walls_at_end": 0}
    for r in range(1, 7):
        types = [rng.choice(pool) for _ in range(r)]
        for base in ([], ["--rational-base"]):
            argv = ["walls", "-r", str(r), "--types", ",".join(types), *base]
            status, out, _ = run(capsys, *argv)
            walls = enumerate_walls(r, map(parse_fiber_type, types), bool(base))
            assert (status, out) == (0, json.dumps([wall_to_obj(w) for w in walls], indent=2) + "\n")
            for den in (12, 12, 60, 60):  # often on walls at 1/12, seldom at 1/60
                B = [F(rng.randint(1, den), den) for _ in range(r)]
                A = [b if rng.random() < 0.4 else F(rng.randint(1, int(b * den)), den) for b in B]
                A, B = WeightVector(tuple(A)), WeightVector(tuple(B))
                spec = [",".join(map(rat_to_str, W.entries)) for W in (A, B)]
                status, out, _ = run(capsys, *argv, "--segment", *spec)
                crossings = segment_walls(A, B, walls)
                on_start, on_end = walls_containing(B, walls), walls_containing(A, walls)
                assert (status, out) == (0, segment_oracle(crossings, on_start, on_end))
                for key, listed in zip(empty, (crossings, on_start, on_end)):
                    empty[key] += not listed
    assert min(empty.values()) > 0, empty


def test_cli_start_up_builds_no_dataclass_machinery():
    """Every command starts a fresh process: importing the CLI must not pull in
    `dataclasses`, which imports `inspect`, `ast`, `dis` and `tokenize` and
    builds each record's methods with `exec`, or `inspect` by another way."""
    src = EXAMPLE.parent.parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import mmp_elliptic.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("command", ["walls", "reduce"])
def test_closed_pipe_exits_one_without_traceback(tmp_path, command):
    """`| head -1`: the reader leaves while the output, far larger than a
    pipe buffer, is still being written."""
    if command == "walls":
        argv = ["walls", "-r", "10", "--types", ",".join(["I1"] * 10)]
    else:
        X, target = chain_cascade(random.Random(5), 40, 3)
        path = tmp_path / "chain.json"
        path.write_text(serialize_model(X))
        argv = ["reduce", str(path), "--to", ",".join(map(rat_to_str, target.entries))]
    proc = subprocess.Popen(
        [sys.executable, "-m", "mmp_elliptic.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(EXAMPLE.parent.parent.parent / "src")),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        assert proc.stdout.readline() == ("[\n" if command == "walls" else "{\n")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == "", err  # no traceback, and no error at exit either

def test_walls_segment(capsys):
    status, out, _ = run(
        capsys,
        "walls",
        "-r",
        "2",
        "--types",
        "I1,I1",
        "--rational-base",
        "--segment",
        "1/4,1/4",
        "1,1",
    )
    assert status == 0
    seg = json.loads(out)
    ts = [F(c["t"]) for c in seg["crossings"]]
    assert ts == sorted(ts, reverse=True)
    # the endpoints sit exactly on the sum-two wall (start) and the sum-half
    # wall (end); interior crossings pick up the constants strictly between
    hit = {w["constant"] for c in seg["crossings"] for w in c["walls"]}
    assert hit == {"1", "5/6", "3/4", "2/3", "1/2", "1/3"}
    start_on = {(w["kind"], w["constant"]) for w in seg["on_walls_at_start"]}
    assert ("WII", "2") in start_on and ("WII", "1") in start_on
    end_on = {(w["kind"], w["constant"]) for w in seg["on_walls_at_end"]}
    assert ("WIII", "1/2") in end_on and ("WIII", "1/4") in end_on


def test_model_report_json(capsys, model_file):
    status, out, _ = run(capsys, "model", str(model_file), "--format", "json")
    assert status == 0
    obj = json.loads(out)
    degrees = {c["id"]: c["section_degree"] for c in obj["components"]}
    assert degrees == {"c1": "9", "c2": "1"}
    assert obj["pseudo_fates"] == {}


def test_model_report_md_no_ansi(capsys, model_file, monkeypatch):
    monkeypatch.setenv("MMP_ELLIPTIC_COLOR", "0")
    status, out, _ = run(capsys, "model", str(model_file))
    assert status == 0
    assert "\033[" not in out
    assert "section degree" in out


def test_model_weight_override(capsys, model_file):
    status, out, _ = run(
        capsys, "model", str(model_file), "--weights", ",".join(["1"] * 10 + ["9/20", "9/20"]), "--format", "json"
    )
    assert status == 0
    obj = json.loads(out)
    degrees = {c["id"]: c["section_degree"] for c in obj["components"]}
    assert degrees["c2"] == "-1/10"


def test_model_glob_batch(capsys, tmp_path):
    for name, alpha in (("m1", F(1)), ("m2", F(4, 5))):
        (tmp_path / f"{name}.json").write_text(serialize_model(rational_degeneration(alpha)))
    status, out, _ = run(
        capsys, "model", str(tmp_path / "m1.json"), "--glob", str(tmp_path / "m*.json"), "--format", "json"
    )
    assert status == 0
    assert out.count('"components"') == 2


def test_reduce_command_end_to_end(capsys, model_file, tmp_path):
    dot_dir = tmp_path / "dots"
    status, out, _ = run(
        capsys,
        "reduce",
        str(model_file),
        "--to",
        TARGET,
        "--check-hassett",
        "--dot-dir",
        str(dot_dir),
    )
    assert status == 0
    trace = json.loads(out)
    assert [r["kind"] for r in trace["records"]] == ["LaNaveFlip", "TreeCollapseToPoint"]
    assert trace["halted"] is None
    final_fibers = {
        f["id"]: f for c in trace["final"]["components"] for f in c["fibers"]
    }
    assert final_fibers["a1"]["coeff"] == "2/3"
    assert final_fibers["a1"]["state"] == "Weierstrass"
    assert sorted(p.name for p in dot_dir.iterdir()) == [
        "final.dot",
        "step_000.dot",
        "step_001.dot",
        "step_002.dot",
    ]


def test_reduce_accepts_weight_files(capsys, model_file, tmp_path):
    to_file = tmp_path / "target.json"
    to_file.write_text(json.dumps(["1"] * 10 + ["1/3", "1/3"]))
    status, out, _ = run(capsys, "reduce", str(model_file), "--to", str(to_file))
    assert status == 0
    assert len(json.loads(out)["records"]) == 2


def test_marker_outside_range_is_reported_not_raised(capsys, tmp_path):
    obj = json.loads(EXAMPLE.read_text())
    obj["components"][0]["fibers"][0]["markers"] = [99]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    status, out, err = run(capsys, "validate", str(path))
    assert status == 1
    assert "[marker]" in out + err and "Traceback" not in out + err
    status, out, err = run(capsys, "model", str(path))
    assert status == 1
    assert err.startswith("error: model-invalid:")


def test_check_hassett_on_markerless_twisted_fiber(capsys):
    # the valid final model of a walk halted by a collapse onto a curve
    model = Path(__file__).parent / "data" / "markerless_twisted_after_curve_collapse.json"
    target = "1/24,13/27,3/8,23/54,3/8,1/6,1/6"
    status, _, err = run(capsys, "reduce", str(model), "--to", target, "--check-hassett")
    assert status == 0, err


def test_reduce_rejects_invalid_model(capsys, tmp_path):
    obj = json.loads(serialize_model(rational_degeneration(F(1))))
    obj["components"][0]["degL"] = "-1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    status, _, err = run(capsys, "reduce", str(bad), "--to", TARGET)
    assert status == 1
    assert "degL" in err


def test_volume_command(capsys, tmp_path, model_file):
    from modelkit import mk_fiber
    from mmp_elliptic.surfaces import BrokenEllipticSurface, Component

    w = WeightVector(tuple([F(1)] * 12))
    comp = Component(
        "c1", 1, 0, F(1), tuple(mk_fiber(f"f{i}", "I1", i, w) for i in range(1, 13))
    )
    path = tmp_path / "irr.json"
    path.write_text(serialize_model(BrokenEllipticSurface(w, (comp,))))
    status, out, _ = run(capsys, "volume", str(path))
    assert status == 0 and out.strip() == "21"
    # the two-component model has no volume: documented restriction, exit 1
    status, _, err = run(capsys, "volume", str(model_file))
    assert status == 1
    assert "unsupported-configuration" in err


def test_volume_with_intermediate_n1_fiber_is_unsupported(capsys, tmp_path):
    from modelkit import mk_fiber
    from mmp_elliptic.surfaces import BrokenEllipticSurface, Component

    # N1 at 3/4 is past its threshold 1/2, so intermediate, with no local table
    w = WeightVector((F(1), F(1), F(3, 4)))
    fibers = (mk_fiber("f1", "I1", 1, w), mk_fiber("f2", "I1", 2, w), mk_fiber("f3", "N1", 3, w))
    path = tmp_path / "n1.json"
    path.write_text(serialize_model(BrokenEllipticSurface(w, (Component("c1", 1, 0, F(1), fibers),))))
    status, out, err = run(capsys, "volume", str(path))
    assert status == 1 and out == ""
    assert err.startswith("error: unsupported-configuration:")
    assert "Traceback" not in err


def test_hassett_command(capsys, tmp_path):
    curve = {
        "vertices": [{"id": 1, "genus": 0}, {"id": 2, "genus": 0}],
        "edges": [[1, 2]],
        "markers": [{"index": i, "vertex": 1} for i in range(1, 11)]
        + [{"index": 11, "vertex": 2}, {"index": 12, "vertex": 2}],
    }
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(curve))
    status, out, _ = run(
        capsys, "hassett", str(path), "--weights", ",".join(["1"] * 10 + ["5/12", "5/12"])
    )
    assert status == 0
    reduced = json.loads(out)
    assert len(reduced["vertices"]) == 1
    assert len(reduced["markers"]) == 12
    status, out, _ = run(capsys, "hassett", str(path), "--weights", ",".join(["1"] * 12), "--format", "dot")
    assert status == 0 and out.startswith("graph dual {\n")


def test_hassett_refuses_malformed_json_and_a_disconnected_curve(capsys, tmp_path):
    apart = {
        "vertices": [{"id": 1, "genus": 0}, {"id": 2, "genus": 0}],
        "edges": [],
        "markers": [{"index": i, "vertex": 1 + (i > 3)} for i in range(1, 7)],
    }
    paths = {"malformed": tmp_path / "malformed.json", "apart": tmp_path / "apart.json"}
    paths["malformed"].write_text("{")
    paths["apart"].write_text(json.dumps(apart))
    lines = {"malformed": "error: malformed-json: ", "apart": "error: cannot reduce a disconnected curve\n"}
    for name, path in paths.items():
        status, out, err = run(capsys, "hassett", str(path), "--weights", "1,1,1,1,1,1")
        assert (status, out) == (1, "")
        assert err.startswith(lines[name]) and err.count("\n") == 1, err


def test_model_override_lifting_a_tree_host_names_the_weights(capsys):
    # in process, unlike the subprocess test above: the tree host c1/a1 of
    # the nested model would carry coefficient 3
    nested = Path(__file__).parent / "golden" / "nested_tree.json"
    status, out, err = run(capsys, "model", str(nested), "--weights", "1,1,1,1,1")
    assert (status, out) == (1, "")
    assert err == "error: at weights 1,1,1,1,1: fiber a1 of c1: coefficient 3 outside [0, 1]\n"


def test_validate_command(capsys, tmp_path):
    obj = json.loads(serialize_model(rational_degeneration(F(1))))
    obj["components"][0]["degL"] = "-2"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    status, out, _ = run(capsys, "validate", str(path))
    assert status == 1
    assert "degL" in out


def test_validate_command_accepts_the_shipped_example(capsys):
    assert run(capsys, "validate", str(EXAMPLE)) == (0, "ok\n", "")


def test_usage_errors_exit_two(capsys, tmp_path):
    status, _, _ = run(capsys, "walls", "-r", "2", "--types", "I1")
    assert status == 2
    status, _, _ = run(capsys, "model", str(tmp_path / "missing.json"))
    assert status == 2
    status, _, _ = run(capsys, "nonsense")
    assert status == 2


# commands refused with one `error:` line: (argv, exit status, the line's
# start); "{model}" is the shipped example, "{curve}" a two-vertex curve with
# twelve markers, "{point}" a one-vertex curve with three, "{float}" a curve
# whose vertex id is 1.9
REFUSED = {
    "walls-unknown-type": (["walls", "-r", "2", "--types", "I1,XX"], 2, "unrecognized fiber type"),
    "walls-n2-type": (["walls", "-r", "2", "--types", "I1,N2"], 1, "thresholds for N2"),
    "segment-size": (
        ["walls", "-r", "2", "--types", "I1,I1", "--segment", "1/2", "1,1"],
        2,
        "segment endpoints must match --markers",
    ),
    "segment-order": (
        ["walls", "-r", "2", "--types", "I1,I1", "--segment", "1,1", "1/2,1/2"],
        2,
        "segment requires A <= B",
    ),
    "glob-empty": (["model", "{model}", "--glob", "{tmp}/none/*.json"], 2, "--glob"),
    "from-size": (
        ["reduce", "{model}", "--from", "1,1", "--to", TARGET],
        2,
        "override has 2 weights; the model has 12",
    ),
    "target-above": (
        ["reduce", "{model}", "--from", TARGET, "--to", ",".join(["1"] * 12)],
        1,
        "target must be entrywise <= the current weights",
    ),
    # the message itself, not the repr of a KeyError, and also where the
    # reduction reads no weight
    "curve-marker": (["hassett", "{curve}", "--weights", "1"], 1, "marker index 2 outside 1..1\n"),
    "point-marker": (
        ["hassett", "{point}", "--weights", "1", "--format", "dot"],
        1,
        "marker index 2 outside 1..1\n",
    ),
    # a vertex id that is not a JSON integer is refused, not truncated to 1
    "float-vertex": (
        ["hassett", "{float}", "--weights", "1"],
        1,
        "malformed curve object: bad integer 1.9\n",
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_commands_print_one_error_line(capsys, tmp_path, name):
    curve = {
        "vertices": [{"id": 1, "genus": 0}, {"id": 2, "genus": 0}],
        "edges": [[1, 2]],
        "markers": [{"index": i, "vertex": 1 + (i > 10)} for i in range(1, 13)],
    }
    point = {"vertices": [{"id": 1, "genus": 0}], "edges": [], "markers": curve["markers"][:3]}
    floated = {"vertices": [{"id": 1.9, "genus": 0}], "markers": [{"index": 1, "vertex": 1}]}
    paths = {"model": str(EXAMPLE), "tmp": str(tmp_path)}
    for key, obj in (("curve", curve), ("point", point), ("float", floated)):
        paths[key] = str(tmp_path / f"{key}.json")
        Path(paths[key]).write_text(json.dumps(obj))
    argv, want, line = REFUSED[name]
    status, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert (status, out) == (want, "")
    assert err.startswith("error: " + line) and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_dot_output_is_deterministic(capsys, model_file):
    s1, out1, _ = run(capsys, "model", str(model_file), "--format", "dot")
    s2, out2, _ = run(capsys, "model", str(model_file), "--format", "dot")
    assert s1 == s2 == 0 and out1 == out2
    assert "cluster_c1" in out1 and "style=bold" in out1


def test_dot_shows_tree_attachment_label(capsys, tmp_path):
    from modelkit import flipped_degeneration

    path = tmp_path / "flipped.json"
    path.write_text(serialize_model(flipped_degeneration(F(9, 20))))
    status, out, _ = run(capsys, "model", str(path), "--format", "dot")
    assert status == 0
    assert 'label="II, 9/10"' in out


def test_dot_of_markerless_model_has_single_cluster(capsys, tmp_path):
    from mmp_elliptic.surfaces import BrokenEllipticSurface, Component

    X = BrokenEllipticSurface(WeightVector(()), (Component("c1", 1, 1, F(1), ()),))
    path = tmp_path / "plain.json"
    path.write_text(serialize_model(X))
    status, out, _ = run(capsys, "model", str(path), "--format", "dot")
    assert status == 0
    assert out.count("subgraph cluster_") == 1
    assert "style=bold" not in out


def _edited_example(path, value) -> bytes:
    """The example model as JSON bytes with the field at `path` set to `value`."""
    obj = json.loads(serialize_model(rational_degeneration(F(1))))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return json.dumps(obj).encode()


# model files `parse_model` must refuse with a `ModelJSONError`
MALFORMED = {
    "vertex-x": _edited_example(("components", 0, "vertex"), "x"),
    "markers-a": _edited_example(("components", 0, "fibers", 0, "markers"), ["a"]),
    "genus-null": _edited_example(("components", 0, "genus"), None),
    "component-5": _edited_example(("components", 0), 5),
    "weights-5": _edited_example(("weights",), 5),
    "undecodable": b'{"weights": ["\xff"]}',
    # a JSON number that is not an integer, or a boolean, is refused, not truncated
    "markers-1.7": _edited_example(("components", 0, "fibers", 0, "markers"), [1.7]),
    "genus-0.9": _edited_example(("components", 0, "genus"), 0.9),
    "vertex-true": _edited_example(("components", 0, "vertex"), True),
    # a flag given as a string is refused, not read by its truthiness
    "cusp-false": _edited_example(("components", 0, "fibers", 0, "nonminimal_cusp"), "false"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_model_exits_one_without_traceback(capsys, tmp_path, name):
    path = tmp_path / "model.json"
    path.write_bytes(MALFORMED[name])
    kind = "malformed-json" if name == "undecodable" else "schema-violation"
    for argv in (["validate"], ["model"], ["reduce", "--to", TARGET]):
        status, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (status, out) == (1, "") and err.startswith(f"error: {kind}: ")
    proc = subprocess.run(
        [sys.executable, "-m", "mmp_elliptic.cli", "reduce", str(path), "--to", TARGET],
        env=dict(os.environ, PYTHONPATH=str(EXAMPLE.parent.parent.parent / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {kind}: ")


def test_string_flag_gives_one_error_line(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(MALFORMED["cusp-false"])
    status, out, err = run(capsys, "validate", str(path))
    assert (status, out) == (1, "")
    assert err == "error: schema-violation: c1/f1/nonminimal_cusp: bad boolean 'false'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["model", "--weights", "1,1,1,1,1"],
        ["volume", "--weights", "1,1,1,1,1"],
        ["reduce", "--from", "1,1,1,1,1", "--to", "1,1,1,1,1"],
    ],
    ids=["model", "volume", "reduce"],
)
def test_override_lifting_a_fiber_above_one_exits_one(argv):
    # at these weights the tree host c1/a1 of the nested model would have
    # coefficient 3
    nested = Path(__file__).parent / "golden" / "nested_tree.json"
    proc = subprocess.run(
        [sys.executable, "-m", "mmp_elliptic.cli", argv[0], str(nested), *argv[1:]],
        env=dict(os.environ, PYTHONPATH=str(EXAMPLE.parent.parent.parent / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "coefficient 3 outside [0, 1]" in proc.stderr and "Traceback" not in proc.stderr


# each command reads one input that is a directory or a weights file holding
# a JSON non-list; "{model}" is a valid model file
UNREADABLE = {
    "model-dir": ["model", "{dir}"],
    "validate-dir": ["validate", "{dir}"],
    "volume-dir": ["volume", "{dir}"],
    "reduce-dir": ["reduce", "{dir}", "--to", TARGET],
    "weights-dir": ["reduce", "{model}", "--to", "{dir}"],
    "curve-dir": ["hassett", "{dir}", "--weights", "1"],
    "weights-5": ["reduce", "{model}", "--to", "{five}"],
    "weights-null": ["reduce", "{model}", "--to", "@{null}"],
}


@pytest.mark.parametrize("name", sorted(UNREADABLE))
def test_unreadable_input_exits_two(capsys, tmp_path, model_file, name):
    (tmp_path / "folder").mkdir()
    (tmp_path / "five.json").write_text("5")
    (tmp_path / "null.json").write_text("null")
    paths = {"dir": "folder", "model": model_file.name, "five": "five.json", "null": "null.json"}
    argv = [a.format(**{k: str(tmp_path / v) for k, v in paths.items()}) for a in UNREADABLE[name]]
    status, out, err = run(capsys, *argv)
    assert (status, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("where", ["file", "under-file"])
def test_dot_dir_that_cannot_be_a_directory_exits_two(capsys, tmp_path, where):
    (tmp_path / "taken.json").write_text("{}")
    dot_dir = tmp_path / "taken.json" if where == "file" else tmp_path / "taken.json" / "dots"
    status, out, err = run(capsys, "reduce", str(EXAMPLE), "--to", TARGET, "--dot-dir", str(dot_dir))
    assert (status, out) == (2, "")
    assert err.startswith(f"error: cannot write DOT snapshots into {dot_dir}: ")
    assert err.count("\n") == 1
