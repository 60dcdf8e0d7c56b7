import json
import os
import shlex
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from elliskit import cli, flows
from elliskit.algebra import group_from_table, named_group
from elliskit.caps import DEFAULT_CAPS, Caps, _from_env
from elliskit.cli import main
from elliskit.errors import ElliskitError, ParseError, ValidationError
from elliskit.io import parse_instance, parse_obj, serialize_instance
from elliskit.relations import is_weakly_orbital
from elliskit.suites import run_suite


ROOT = Path(__file__).resolve().parents[1]

S3_FLOW = {
    "group": {"kind": "permutation", "degree": 3,
              "generators": [[1, 0, 2], [1, 2, 0]]},
    "points": 3,
    "action": "natural",
}


def write(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


# ---- parsing ------------------------------------------------------------------

def test_parse_flow(tmp_path):
    inst = parse_instance(write(tmp_path, "f.json", S3_FLOW))
    assert inst.kind == "flow"
    assert inst.value.points == 3


def test_parse_ambit(tmp_path):
    data = dict(S3_FLOW, basepoint=0)
    inst = parse_instance(write(tmp_path, "a.json", data))
    assert inst.kind == "ambit"
    assert inst.value.basepoint == 0


def test_parse_relation_and_validation(tmp_path):
    inst = parse_instance(write(tmp_path, "r.json",
                                {"points": 3, "classes": [[0, 1], [2]]}))
    assert inst.kind == "relation"
    with pytest.raises(ValidationError):
        parse_instance(write(tmp_path, "bad.json",
                             {"points": 3, "classes": [[0, 1], [1, 2]]}))


def test_parse_group_kinds(tmp_path):
    table = {"kind": "table", "mul": [[0, 1], [1, 0]]}
    named = {"kind": "named", "name": "cyclic", "n": 5}
    assert parse_instance(write(tmp_path, "t.json", table)).value.order == 2
    assert parse_instance(write(tmp_path, "n.json", named)).value.order == 5


def test_parse_transformation_flow(tmp_path):
    data = {"transformations": [[1, 0], [0, 0]], "points": 2}
    inst = parse_instance(write(tmp_path, "tf.json", data))
    assert inst.kind == "flow"
    assert not inst.value.is_group_flow


def test_parse_regular_action(tmp_path):
    data = {"group": {"kind": "named", "name": "cyclic", "n": 4},
            "action": "regular"}
    inst = parse_instance(write(tmp_path, "reg.json", data))
    assert inst.value.points == 4


def test_parse_generator_images(tmp_path):
    # the permutation group acts through explicitly supplied generator maps
    data = {
        "group": {"kind": "permutation", "degree": 3,
                  "generators": [[1, 0, 2], [1, 2, 0]]},
        "points": 6,
        "action": {"generator_images": [
            [1, 0, 2, 4, 3, 5], [1, 2, 0, 4, 5, 3]]},
    }
    inst = parse_instance(write(tmp_path, "gi.json", data))
    assert inst.value.points == 6


def test_parse_inconsistent_generator_images(tmp_path):
    data = {
        "group": {"kind": "permutation", "degree": 3,
                  "generators": [[1, 0, 2], [1, 2, 0]]},
        "points": 3,
        # the transposition image has order 3: the group relations fail
        "action": {"generator_images": [[1, 2, 0], [1, 2, 0]]},
    }
    with pytest.raises(ValidationError,
                       match=r"action axiom fails at g=0, h=0, x=-1"):
        parse_instance(write(tmp_path, "bad.json", data))


def test_parse_lattice(tmp_path):
    data = {"ground": "X", "size": 3, "sets": [[0], [1]], "auto_complete": True}
    inst = parse_instance(write(tmp_path, "l.json", data))
    assert inst.kind == "lattice"
    assert inst.value.contains(frozenset({0, 1}))


def test_parse_scenario(tmp_path):
    data = {
        "flow": S3_FLOW,
        "relation": {"points": 3, "classes": [[0, 1, 2]]},
        "lattices": {"G": "discrete", "X": "discrete"},
    }
    inst = parse_instance(write(tmp_path, "s.json", data))
    assert inst.kind == "scenario"


def test_parse_errors(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        parse_instance(str(p))
    with pytest.raises(ParseError):
        parse_instance(str(tmp_path / "missing.json"))


def test_roundtrip_all_kinds(tmp_path):
    instances = [
        {"kind": "named", "name": "cyclic", "n": 4},
        S3_FLOW,
        dict(S3_FLOW, basepoint=0),
        {"points": 3, "classes": [[0, 1], [2]]},
        {"ground": "X", "size": 2, "sets": [[0]], "auto_complete": False},
        {"flow": S3_FLOW, "relation": {"points": 3, "classes": [[0, 1, 2]]},
         "lattices": {"G": "discrete", "X": "discrete"}},
    ]
    for data in instances:
        first = parse_obj(data)
        text = serialize_instance(first)
        second = parse_obj(json.loads(text))
        assert first.kind == second.kind
        assert first.raw == second.raw


# ---- suite determinism -----------------------------------------------------------

def test_suite_reports_deterministic():
    a = run_suite("ellis", 12, seed=5)
    b = run_suite("ellis", 12, seed=5)
    assert a.to_json(include_timing=False) == b.to_json(include_timing=False)
    c = run_suite("ellis", 12, seed=6)
    assert a.to_json(include_timing=False) != c.to_json(include_timing=False)


def test_empty_suite_passes():
    rep = run_suite("orbital", 0, seed=1)
    assert rep.passed


def test_corrupted_suite_fails():
    rep = run_suite("grouplike", 1, seed=1, corrupt=True)
    assert not rep.passed and rep.failure_count == 1


# ---- CLI ---------------------------------------------------------------------------

def test_cli_example(capsys):
    assert main(["example", "s3-stabilizer"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cli_example_json(capsys):
    assert main(["example", "tower-demo", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True


def test_cli_builds_its_parser_once_and_dispatches_through_commands(monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    seen = []
    monkeypatch.setitem(cli.COMMANDS, "example", lambda args: seen.append(args.name) or 7)
    assert main(["example", "s3-stabilizer"]) == 7
    assert seen == ["s3-stabilizer"]


def test_cli_verify_exit_codes(capsys):
    assert main(["verify", "--suite", "orbital", "--instances", "0",
                 "--seed", "1"]) == 0
    assert main(["verify", "--suite", "grouplike", "--instances", "1",
                 "--seed", "1", "--corrupt"]) == 1


def test_cli_analyze(tmp_path, capsys):
    flow_path = write(tmp_path, "f.json", dict(S3_FLOW, basepoint=0))
    rel_path = write(tmp_path, "r.json",
                     {"points": 3, "classes": [[0], [1], [2]]})
    assert main(["analyze", flow_path, "--relation", rel_path,
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["structures"]["identified_group_order"] == 6
    assert data["structures"]["stabilizer_order"] == 2


def test_cli_analyze_non_invariant_exits_zero(tmp_path, capsys):
    G = {"kind": "permutation", "degree": 6,
         "generators": [[1, 2, 3, 4, 5, 0]]}
    flow_path = write(tmp_path, "f.json",
                      {"group": G, "points": 6, "action": "natural"})
    rel_path = write(tmp_path, "r.json",
                     {"points": 6, "classes": [[0, 1], [2], [3], [4], [5]]})
    assert main(["analyze", flow_path, "--relation", rel_path]) == 0


def test_cli_ellis(tmp_path, capsys):
    flow_path = write(tmp_path, "f.json",
                      {"transformations": [[1, 0], [0, 0]], "points": 2})
    assert main(["ellis", flow_path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["structures"]["closure_size"] == 4


def test_cli_ellis_affine_natural(tmp_path, capsys):
    """AGL(3,2) acting on its 8 vectors: a group flow, so the closure and
    its one ideal group are the whole group."""
    flow_path = write(tmp_path, "f.json",
                      {"group": {"kind": "named", "name": "affine", "q": 2, "dim": 3},
                       "points": 8, "action": "natural"})
    assert main(["ellis", flow_path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["structures"]["closure_size"] == 1344
    assert data["structures"]["ideal_group_order"] == 1344


def test_cli_grouplike(tmp_path, capsys):
    amb = write(tmp_path, "a.json",
                {"group": {"kind": "named", "name": "cyclic", "n": 6},
                 "action": "regular", "basepoint": 0})
    rel = write(tmp_path, "r.json",
                {"points": 6, "classes": [[0, 3], [1, 4], [2, 5]]})
    assert main(["grouplike", amb, "--relation", rel, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["structures"]["group_like"] is True
    assert data["structures"]["quotient_order"] == 3


def test_cli_orbital(tmp_path, capsys):
    flow = write(tmp_path, "f.json",
                 {"group": {"kind": "named", "name": "cyclic", "n": 4},
                  "action": "natural"})
    rel = write(tmp_path, "r.json", {"points": 4, "classes": [[0, 2], [1, 3]]})
    assert main(["orbital", flow, "--relation", rel, "--decide-weak",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["structures"]["orbital"] is True
    assert data["structures"]["weakly_orbital"] is True


def test_cli_structured(tmp_path, capsys):
    scenario = write(tmp_path, "s.json", {
        "flow": S3_FLOW,
        "relation": {"points": 3, "classes": [[0, 1, 2]]},
        "lattices": {"G": "discrete", "X": "discrete"},
    })
    assert main(["structured", scenario]) == 0


def test_cli_orbital_max_group_order_keeps_cap_overrides(tmp_path, monkeypatch):
    overridden = replace(DEFAULT_CAPS, lattice_cap=7)
    seen = []

    def spy(relation, caps):
        seen.append(caps)
        return is_weakly_orbital(relation, caps=caps)

    monkeypatch.setattr(cli, "DEFAULT_CAPS", overridden)
    monkeypatch.setattr(cli, "is_weakly_orbital", spy)
    flow = write(tmp_path, "f.json",
                 {"group": {"kind": "named", "name": "cyclic", "n": 4},
                  "action": "natural"})
    rel = write(tmp_path, "r.json", {"points": 4, "classes": [[0, 2], [1, 3]]})
    assert main(["orbital", flow, "--relation", rel, "--decide-weak",
                 "--max-group-order", "24", "--format", "json"]) == 0
    assert seen == [replace(overridden, subgroup_enum_cap=24)]


@pytest.mark.parametrize("maps, message", [([], "at least one map"),
                                           ([[5, 0]], "not a self-map")])
def test_cli_malformed_transformations_exit_2(tmp_path, capsys, maps, message):
    path = write(tmp_path, "f.json", {"transformations": maps})
    with pytest.raises(ValidationError):
        parse_instance(path)
    assert main(["ellis", path]) == 2
    assert message in capsys.readouterr().err


def test_cli_named_group_above_group_order_cap_exits_2(tmp_path, capsys):
    """cyclic(2001) is above the hard `group_order_cap` of 2,000: refused
    from its order, before it is built."""
    path = write(tmp_path, "f.json", {"group": {"kind": "named", "name": "cyclic",
                                                "n": 2001}, "action": "regular"})
    assert main(["ellis", path]) == 2
    assert "group order 2001 exceeds bound 2000" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["orbital", "analyze"])
@pytest.mark.parametrize("points", [4, 2])
def test_cli_relation_on_wrong_point_set_exit_2(tmp_path, capsys, command, points):
    flow = write(tmp_path, "f.json", dict(S3_FLOW, basepoint=0))
    rel = write(tmp_path, "r.json",
                {"points": points, "classes": [[x] for x in range(points)]})
    assert main([command, flow, "--relation", rel]) == 2
    assert "relation on the wrong point set" in capsys.readouterr().err


@pytest.mark.parametrize("data, message", [
    (dict(S3_FLOW, basepoint=7), "basepoint 7 is not one of 0..2"),
    (dict(S3_FLOW, basepoint="x"), "ValueError"),
    ({"group": {"kind": "table", "mul": [[0, 1], [1]]}, "action": "regular"},
     "square"),
    ({"group": {"kind": "named", "name": "cyclic"}, "action": "regular"},
     "KeyError"),
    ({"transformations": "abc"}, "TypeError"),
    ({"group": {"kind": "named", "name": "cyclic", "n": 2}, "points": 2,
      "action": {"generator_images": [[1, 0, 2]]}}, "not a self-map"),
    ({"group": None, "action": "regular"}, "a group must be a JSON object"),
    ({"group": [3], "action": "natural"}, "a group must be a JSON object"),
    ({"transformations": [[1, 0.5, 0], [2, 0, 1]]}, "TypeError"),
    (dict(S3_FLOW, group=dict(S3_FLOW["group"], generators=[[1.0, 0, 2]])),
     "group.generators[0][0] is 1.0, not an integer"),
    (dict(S3_FLOW, group=dict(S3_FLOW["group"], degree=3.5)),
     "group.degree is 3.5, not an integer"),
    (dict(S3_FLOW, points=3.9), "points is 3.9, not an integer"),
    (dict(S3_FLOW, points=True), "points is True, not an integer"),
    (dict(S3_FLOW, basepoint=1.9), "basepoint is 1.9, not an integer"),
    (dict(S3_FLOW, basepoint=True), "basepoint is True, not an integer"),
    ({"group": {"kind": "named", "name": "cyclic", "n": 2}, "points": 2,
      "action": {"generator_images": [[1.9, 0]]}},
     "action.generator_images[0][0] is 1.9, not an integer"),
    ({"transformations": [[True, 0], [0, 1]]},
     "transformations[0][0] is True, not an integer"),
    ({"ground": "X", "size": 2.5, "sets": "discrete"},
     "size is 2.5, not an integer"),
    ({"group": S3_FLOW["group"], "points": 3, "actoin": "natural"},
     "unknown key 'actoin'"),
    (dict(S3_FLOW, group=dict(S3_FLOW["group"], order=6)),
     "unknown key 'group.order'"),
    ({"ground": "X", "size": 2, "sets": "discrete", "colour": 1},
     "unknown key 'colour'"),
    ({"flow": S3_FLOW, "relation": {"points": 3, "classes": [[0, 1, 2]]},
      "lattices": {"X": {"sets": "discrete", "auto_completed": 1}}},
     "unknown key 'lattices.X.auto_completed'"),
    ({"flow": S3_FLOW, "relation": {"points": 3, "classes": [[0, 1, 2]]},
      "lattices": [1]}, "lattices must be a JSON object"),
    ({"transformations": [[1, 0], [0, 0]], "points": 3},
     "point count 3 disagrees"),
    ({"a": 1}, "in.json: unrecognized instance schema"),
], ids=["basepoint-out-of-range", "basepoint-not-int", "mul-not-square",
        "named-without-n", "transformations-not-maps", "image-not-self-map",
        "group-null", "group-not-object", "transformation-entry-not-int",
        "permutation-entry-float", "degree-float", "points-float", "points-bool",
        "basepoint-float", "basepoint-bool", "image-float", "transformation-bool",
        "lattice-size-float", "action-misspelt", "group-stray-key",
        "lattice-stray-key", "scenario-lattice-stray-key",
        "scenario-lattices-not-object", "transformations-points-disagree",
        "unknown-schema"])
def test_cli_malformed_instance_exit_2(tmp_path, capsys, data, message):
    assert main(["ellis", write(tmp_path, "in.json", data)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("raw, message", [
    (b"\xff\xfe", "not UTF-8 text"),
    (b"[" * 5000 + b"]" * 5000, "nested too deeply"),
    (b'{"transformations": [[0, 1]], "transformations": [[1, 1]]}',
     "duplicate key 'transformations'"),
    (b'{"group": {"kind": "named", "name": "cyclic", "n": 2, "n": 3},'
     b' "action": "regular"}', "duplicate key 'n'"),
    # json.loads refuses an integer of more than 4,300 digits with a plain
    # ValueError, not a JSONDecodeError
    (b'{"transformations": [[' + b"1" * 5000 + b"]]}", "Exceeds the limit"),
], ids=["not-utf8", "deeply-nested", "duplicate-key", "nested-duplicate-key",
        "overlong-integer"])
def test_cli_unreadable_instance_bytes_exit_2(tmp_path, capsys, raw, message):
    path = tmp_path / "in.json"
    path.write_bytes(raw)
    assert main(["ellis", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: " in err and message in err
    assert "Traceback" not in err


def readme_instance_commands():
    """Every `elliskit ...` line of the README's code blocks that names a
    file under instances/, split into arguments."""
    text = (ROOT / "README.md").read_text()
    blocks = text.split("```")[1::2]
    return [shlex.split(line)[1:] for block in blocks
            for line in block.splitlines()
            if line.startswith("elliskit ") and "instances/" in line]


def test_readme_sample_commands_exit_0(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    commands = readme_instance_commands()
    named = {arg for argv in commands for arg in argv if arg.startswith("instances/")}
    assert named == {f"instances/{p.name}" for p in (ROOT / "instances").glob("*.json")}
    for argv in commands:
        assert main(argv) == 0, argv
        assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--decide-weak"]], ids=["plain", "decide-weak"])
def test_cli_orbital_on_transformation_flow_exit_2(tmp_path, capsys, extra):
    flow = write(tmp_path, "f.json", {"transformations": [[0, 1], [1, 1]]})
    rel = write(tmp_path, "r.json", {"points": 2, "classes": [[0], [1]]})
    assert main(["orbital", flow, "--relation", rel, *extra]) == 2
    assert "relation must be bound to a group flow" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--instances", "-3"),
                                         ("--max-points", "1"),
                                         ("--max-group-order", "1")])
def test_cli_verify_rejects_impossible_sizes(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "orbital", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and flag in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_cli_orbital_rejects_impossible_group_orders(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["orbital", "flow.json", "--relation", "rel.json", "--decide-weak",
              "--max-group-order", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--max-group-order" in err


@pytest.mark.parametrize("suite", ["ellis", "grouplike", "orbital", "structured"])
def test_cli_verify_smallest_sizes(suite):
    assert main(["verify", "--suite", suite, "--instances", "20", "--seed", "7",
                 "--max-points", "2", "--max-group-order", "2"]) == 0


def test_cli_input_error_exit_2(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{")
    assert main(["analyze", str(p)]) == 2


def test_cli_unknown_example():
    with pytest.raises(SystemExit):
        main(["example", "not-a-fixture"])


def cli_env(**extra):
    """The environment for running this checkout's CLI in a subprocess."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


@pytest.mark.parametrize("value, message", [
    ("{bad", "not valid JSON"),
    ('{"nope": 1}', "unknown cap names"),
    ("[1]", "must be a JSON object"),
    ('{"closure_cap": "1000"}', "must be non-negative integers"),
    ('{"closure_cap": 5, "closure_cap": 100000}', "duplicate key 'closure_cap'"),
    ('{"partition_points_cap": 8}', "unknown cap names"),
    ('{"mul_table_cap": 50000}', "unknown cap names"),
    ('{"named_group_cap": 5000}', "unknown cap names"),
    ('{"product_points_cap": 20000}', "unknown cap names"),
])
def test_cli_malformed_caps_env_exit_2(value, message):
    done = subprocess.run(
        [sys.executable, "-m", "elliskit.cli", "example", "s3-stabilizer"],
        env=cli_env(ELLISKIT_CAPS=value), capture_output=True, text=True,
        timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ELLISKIT_CAPS: ")
    assert message in done.stderr
    assert done.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["ellis", "instances/s3-natural-ambit.json"],
    ["verify", "--suite", "ellis", "--instances", "20", "--seed", "7"],
], ids=["ellis", "verify"])
def test_cli_closed_stdout_exits_141(argv):
    # the read end is closed before the command starts, so its output meets
    # a broken pipe: exit as if killed by SIGPIPE, not 1 (a violation)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "elliskit.cli", *argv],
                              cwd=ROOT, env=cli_env(), stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert done.stderr == ""


# ---- exit-code fuzz -------------------------------------------------------------

CAP_NAMES = [f.name for f in fields(Caps)]
ENV_TEXT = st.text(st.characters(min_codepoint=1, max_codepoint=0x17F), max_size=30)
CAP_VALUES = st.one_of(st.integers(0, 10**12), st.one_of(
    st.integers(-3, -1), st.floats(allow_nan=True), st.booleans(), st.none(),
    ENV_TEXT, st.lists(st.integers(0, 9), max_size=2), st.just({})))


@st.composite
def caps_texts(draw):
    """ELLISKIT_CAPS values: objects of cap names (repeated, unknown or
    mistyped ones included), cut short or not, and arbitrary text."""
    if draw(st.booleans()):
        return draw(ENV_TEXT)
    names = st.sampled_from(CAP_NAMES + ["", "Closure_cap", "nope"])
    pairs = draw(st.lists(st.tuples(names, CAP_VALUES), max_size=3))
    text = "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"
    return text[:draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


def caps_oracle(text):
    """The caps the text names, or None if it is malformed."""
    if not text:
        return {}
    try:
        data = json.loads(text, object_pairs_hook=list)
    except (ValueError, RecursionError):
        return None
    if not isinstance(data, list) or len({k for k, _ in data}) != len(data):
        return None
    if all(k in CAP_NAMES and type(v) is int and v >= 0 for k, v in data):
        return dict(data)
    return None


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=caps_texts())
@example(text="")
@example(text='{"closure_cap": 5, "lattice_cap": 0}')
@example(text='{"closure_cap": 5, "closure_cap": 100000}')
@example(text="[" * 5000)
def test_caps_env_is_read_or_rejected_never_raises(monkeypatch, text):
    monkeypatch.setenv("ELLISKIT_CAPS", text)
    caps, error = _from_env()
    want = caps_oracle(text)
    if want is None:
        assert caps == Caps() and isinstance(error, ParseError)
        assert str(error).startswith("ELLISKIT_CAPS: ")
    else:
        assert error is None and caps == replace(Caps(), **want)

JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 9),
                 st.floats(-2, 9, allow_nan=False), st.text(max_size=2),
                 st.lists(st.integers(-1, 5), max_size=3), st.just({}))


def self_maps(n, count):
    return st.lists(st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n),
                    min_size=count, max_size=count)


@st.composite
def flow_documents(draw):
    """A well-formed flow or ambit document on n points, and n."""
    kind = draw(st.sampled_from(["transformations", "permutation", "table", "named"]))
    if kind == "transformations":
        n = draw(st.integers(0, 4))
        doc = {"transformations": draw(self_maps(n, draw(st.integers(1, 3))))}
    else:
        if kind == "permutation":
            n = draw(st.integers(0, 4))
            group = {"kind": kind, "degree": n, "generators": draw(
                st.lists(st.permutations(range(n)), min_size=1, max_size=2))}
        elif kind == "table":
            n = draw(st.integers(1, 4))
            group = {"kind": kind,
                     "mul": [[(a + b) % n for b in range(n)] for a in range(n)]}
        else:
            n = draw(st.integers(3, 4))
            group = {"kind": kind, "n": n, "q": 2, "dim": draw(st.integers(1, 2)),
                     "name": draw(st.sampled_from(["cyclic", "symmetric",
                                                   "dihedral", "affine"]))}
        action = draw(st.one_of(st.sampled_from(["natural", "regular"]),
                                st.builds(lambda m: {"generator_images": m},
                                          self_maps(n, 1))))
        doc = {"group": group, "points": n, "action": action}
    if draw(st.booleans()):
        doc["basepoint"] = draw(st.integers(0, max(n - 1, 0)))
    return doc, n


@st.composite
def relation_documents(draw, n):
    """A partition of n points (sometimes of another count)."""
    n = draw(st.sampled_from([n, n, draw(st.integers(0, 5))]))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=n)) | {n})
    classes = [order[a:b] for a, b in zip([0] + cuts, cuts) if a < b]
    return {"points": n, "classes": classes}


def json_paths(obj, prefix=()):
    if prefix:
        yield prefix
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


@st.composite
def damaged(draw, doc):
    """The document with up to two values replaced by junk, dropped,
    extended by one entry (ragged rows, out-of-range or wrong-typed), or
    retyped as a float or boolean (1 -> 1.0, 1.5 or True)."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(0, 2))):
        paths = list(json_paths(doc))
        if not paths:
            break
        *where, key = draw(st.sampled_from(paths))
        parent = doc
        for step in where:
            parent = parent[step]
        how = draw(st.sampled_from(["junk", "drop", "extend", "retype"]))
        if how == "drop":
            del parent[key]
        elif how == "retype" and type(parent[key]) is int:
            value = parent[key]
            parent[key] = draw(st.sampled_from([float(value), value + 0.5,
                                                bool(value % 2)]))
        elif how == "extend" and isinstance(parent[key], list):
            parent[key].append(draw(st.one_of(st.integers(-2, 9), JUNK)))
        else:
            parent[key] = draw(JUNK)
    return doc


@st.composite
def instance_files(draw):
    flow, n = draw(flow_documents())
    return draw(damaged(flow)), draw(damaged(draw(relation_documents(n))))


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(docs=instance_files(),
       command=st.sampled_from([["ellis"], ["analyze"], ["analyze", "--relation"],
                                ["grouplike", "--relation"],
                                ["orbital", "--relation"],
                                ["orbital", "--relation", "--decide-weak"]]))
def test_cli_exit_code_is_0_or_2_on_any_instance(tmp_path, docs, command):
    flow, relation = docs
    argv = [command[0], write(tmp_path, "flow.json", flow)]
    read = [flow]
    if len(command) > 1:
        argv += ["--relation", write(tmp_path, "rel.json", relation), *command[2:]]
        read.append(relation)
    code = main(argv)
    assert code in (0, 2)
    if holds_non_integer(read):
        assert code == 2


def holds_non_integer(value):
    """A float or a boolean anywhere in the value (these documents carry no
    boolean field)."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return any(map(holds_non_integer, value))
    return isinstance(value, (bool, float))


def test_scenario_builds_each_lattice_once(monkeypatch):
    from elliskit import structured

    made, products = [], []

    def counted_make(ground, *args, **kwargs):
        made.append(ground)
        return make_lattice(ground, *args, **kwargs)

    def counted_product(A, B, **kwargs):
        products.append((A.ground, B.ground))
        return product_lattice(A, B, **kwargs)

    make_lattice, product_lattice = structured.make_lattice, structured.product_lattice
    monkeypatch.setattr(structured, "make_lattice", counted_make)
    monkeypatch.setattr(structured, "product_lattice", counted_product)
    data = {"flow": {"group": {"kind": "named", "name": "cyclic", "n": 4},
                     "action": "natural"},
            "relation": {"points": 4, "classes": [[0, 2], [1, 3]]},
            "lattices": {"G": {"sets": [[0, 2]], "auto_complete": True},
                         "X": {"sets": [[0, 2]], "auto_complete": True},
                         "X2": {"sets": [[0, 10]], "auto_complete": True}}}
    inst = parse_obj(data).value
    assert made == ["G", "X", "X2"]
    assert products == [("G", "X"), ("X2", "X2"), ("X", "G")]
    assert inst.lattices["X2x2"].size == 4 ** 4
    assert inst.lattices["X2"].contains({0, 10})


@pytest.mark.parametrize("call, base, message", [
    (lambda: group_from_table([[0, 1], [1]]), ValueError, "square"),
    (lambda: flows.make_flow(named_group("cyclic", n=2), 2, [[0, 1]]),
     ValueError, "one action map per group element"),
    (lambda: flows.make_flow("Z2", 2), TypeError, "cannot act by str"),
    (lambda: flows.make_flow(flows.TransformationGenerators(2, ((0, 1),)), 3),
     ValueError, "degree disagrees"),
    (lambda: flows.natural_flow(group_from_table([[0, 1], [1, 0]])),
     ValueError, "no permutation realization"),
    (lambda: flows.product_flow([]), ValueError, "at least one flow"),
    (lambda: flows.disjoint_union_flow([]), ValueError, "at least one flow"),
    (lambda: flows.independent_translates(
        flows.natural_flow(named_group("cyclic", n=4)), set(), 1),
     ValueError, "nonempty proper subset"),
    (lambda: run_suite("nope", 1, 0), ValueError, "unknown suite"),
], ids=["table-not-square", "map-count", "acting-type", "degree", "no-permutations",
        "empty-product", "empty-union", "empty-base", "unknown-suite"])
def test_library_input_errors_are_elliskit_errors(call, base, message):
    with pytest.raises(ElliskitError) as exc:
        call()
    assert isinstance(exc.value, base)
    assert message in str(exc.value)
