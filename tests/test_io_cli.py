import json
import os
import random
import shlex
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from elliskit import catalog, cli, ellis, flows, generators, structured, suites
from elliskit.algebra import (
    Subgroup,
    _locate_inverses,
    direct_product,
    enumerate_subgroups,
    group_from_table,
    named_group,
)
from elliskit.caps import DEFAULT_CAPS, Caps, _from_env
from elliskit.cli import main
from elliskit.errors import (
    ClosureCapExceeded,
    ElliskitError,
    GroupMismatch,
    GroupTooLarge,
    IncompatibleTower,
    InvalidArgument,
    NoIdentity,
    NoInverse,
    NotALattice,
    NotAnAction,
    NotAPartition,
    NotAssociative,
    NotAWitness,
    NotBijective,
    NotEquivalence,
    NotInIdeal,
    NotInvariant,
    NotOrbital,
    NotWeaklyGroupLike,
    ParseError,
    SizeCapExceeded,
    UnsupportedParameters,
    ValidationError,
)
from elliskit.generators import (
    group_catalog,
    random_ellis_flow,
    random_group,
    random_group_flow,
    random_group_like_setup,
    random_invariant_relation,
    random_transformation_flow,
)
from elliskit.grouplike import check_group_like, identify_quotient
from elliskit.io import parse_instance, parse_obj, serialize_instance
from elliskit.relations import (
    RRelationResult,
    invariant_relations,
    is_orbital,
    is_weakly_orbital,
    make_relation,
)
from elliskit.report import Report
from elliskit.suites import SUITES, run_suite


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


# the per-process caches of catalog fixtures that instance generation draws
# from (`generators` module docstring), by module and name
FIXTURE_CACHES = {(generators, name): getattr(generators, name) for name in (
    "_flow_options", "_group_flow", "_normal_products")}
FIXTURE_CACHES[catalog, "_structured_catalog"] = catalog._structured_catalog


def clear_fixture_caches():
    for cache in FIXTURE_CACHES.values():
        cache.cache_clear()


@pytest.mark.parametrize("suite", SUITES)
def test_suite_reports_are_the_same_with_warm_cold_and_no_caches(suite, monkeypatch):
    """At seeds 1-3, two calls in one process give the same report, so does
    a call after every fixture cache is cleared, and so does a call with
    every cache bypassed, each fixture built afresh where it is drawn."""
    def report(seed):
        return run_suite(suite, 8, seed).to_json(include_timing=False)

    warm = {}
    for seed in (1, 2, 3):
        warm[seed] = report(seed)
        assert report(seed) == warm[seed]
        clear_fixture_caches()
        assert report(seed) == warm[seed]
    for (module, name), cache in FIXTURE_CACHES.items():
        monkeypatch.setattr(module, name, cache.__wrapped__)
    for seed in (1, 2, 3):
        assert report(seed) == warm[seed]


def drawn_instances(seed, draw_flow, draw_relation, draw_setup):
    """Flows and relations drawn as the orbital, structured and grouplike
    suites draw them, by content, and the generator's state after."""
    rng, out = random.Random(seed), []
    for _ in range(30):
        flow = draw_flow(rng, 6, 24)
        out.append((flow.maps, draw_relation(rng, flow).classes))
        flow, E = draw_setup(rng, 6, 24)
        out.append((flow.maps, E.classes))
    return out, rng.getstate()


def test_drawn_instances_are_the_ones_built_afresh():
    """With cold and with warm caches, the suites draw the flows and
    relations that building every fixture afresh on each draw gives, with
    the same generator calls."""
    clear_fixture_caches()
    fresh = [drawn_instances(seed, oracles.random_group_flow,
                             lambda rng, flow: oracles.coset_block_relation(flow, rng.choice),
                             oracles.random_group_like_setup) for seed in range(1, 5)]
    for _ in range(2):
        assert [drawn_instances(seed, random_group_flow, random_invariant_relation,
                                random_group_like_setup)
                for seed in range(1, 5)] == fresh


def test_fixture_caches_stay_within_the_catalog_keys():
    """After every suite at seeds 1-8, each cache holds at most one entry per
    key the catalog allows: per catalog group, per action drawn on it and
    per (group, subgroup)."""
    clear_fixture_caches()
    for suite in SUITES:
        for seed in range(1, 9):
            assert run_suite(suite, 8, seed).passed
    groups = group_catalog()
    bounds = {
        generators._flow_options: len(groups),
        generators._group_flow: sum(len(generators._flow_options(G, DEFAULT_CAPS))
                                    for G in groups),
        generators._normal_products: sum(len(enumerate_subgroups(G)) for G in groups),
        catalog._structured_catalog: 1,
    }
    assert set(bounds) == set(FIXTURE_CACHES.values())
    for cache, bound in bounds.items():
        assert 0 < cache.cache_info().currsize <= bound, cache


def test_random_invariant_relation_keeps_no_caller_flow():
    """A caller's own flow, here a regular action of a catalog group, is not
    kept by any cache once the caller drops it and its relation."""
    CallerFlow = type("CallerFlow", (flows.Flow,), {})     # weak-referenceable
    G = group_catalog()[11]
    flow = CallerFlow(G.order, G, flows.regular_flow(G).maps)
    E = random_invariant_relation(random.Random(4), flow)
    assert E.flow is flow and E.invariant
    ref = weakref.ref(flow)
    del flow, E
    assert ref() is None


def test_random_ellis_flow_draws_no_group_above_max_order():
    rng = random.Random(3)
    drawn = [random_ellis_flow(rng, 6, max_order=2) for _ in range(200)]
    orders = {flow.group.order for flow in drawn if flow.is_group_flow}
    assert orders == {2}


def test_verify_max_group_order_bounds_the_ellis_suite(capsys):
    def closure_sizes(*bound):
        assert main(["verify", "--suite", "ellis", "--seed", "3", "--instances",
                     "60", "--format", "json", *bound]) == 0
        return json.loads(capsys.readouterr().out)["structures"]["closure_sizes"]

    assert closure_sizes() == {"min": 1, "max": 1147, "mean": 31.5}
    assert closure_sizes("--max-group-order", "2") == {"min": 1, "max": 99, "mean": 9.5}


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

    def fake(args):
        seen.append(args.name)
        return failing_report("example", args.name)

    monkeypatch.setitem(cli.COMMANDS, "example", fake)
    assert main(["example", "s3-stabilizer"]) == 1      # the real one passes
    assert seen == ["s3-stabilizer"]


def failing_report(kind, name):
    rep = Report(kind, name)
    rep.record("a check that fails", False)
    return rep


NON_AGREEABLE = {
    "flow": S3_FLOW,
    "relation": {"points": 3, "classes": [[0, 1, 2]]},
    "lattices": {"G": "discrete", "X": {"sets": [[0]], "auto_complete": True}},
}
NON_INVARIANT_FLOW = {"group": {"kind": "permutation", "degree": 6,
                                "generators": [[1, 2, 3, 4, 5, 0]]},
                      "points": 6, "action": "natural"}


@pytest.mark.parametrize("command, code", [
    ("structured", 1), ("verify", 1), ("example", 1), ("analyze", 0)])
def test_cli_exit_code_contract(tmp_path, monkeypatch, capsys, command, code):
    """A failed check exits 1, with the count of failed checks on standard
    error, for the verifying commands only; an analysis records its failed
    verdict, exits 0 and writes nothing on standard error."""
    monkeypatch.setitem(catalog.EXAMPLES, "s3-stabilizer",
                        lambda caps: failing_report("example", "s3-stabilizer"))
    argv = {
        "structured": ["structured", write(tmp_path, "s.json", NON_AGREEABLE)],
        "verify": ["verify", "--suite", "grouplike", "--instances", "1",
                   "--seed", "1", "--corrupt"],
        "example": ["example", "s3-stabilizer"],
        "analyze": ["analyze", write(tmp_path, "f.json", NON_INVARIANT_FLOW),
                    "--relation", write(tmp_path, "r.json", {
                        "points": 6, "classes": [[0, 1], [2], [3], [4], [5]]})],
    }[command]
    assert main(argv + ["--format", "json"]) == code
    out, err = capsys.readouterr()
    report = json.loads(out)
    failed = sum(not v["passed"] for v in report["verdicts"])
    assert not report["passed"] and failed >= 1
    assert report["timing"]["seconds"] >= 0
    assert err == (f"{failed} verified property violations\n" if code else "")
    assert (command in cli.VERIFYING) == (code == 1)


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
    flow_path = write(tmp_path, "f.json", NON_INVARIANT_FLOW)
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


def test_cli_structured_weakly_orbital_scenario(tmp_path, capsys):
    """Regular S3 with the cosets of an order-2 subgroup: invariant, weakly
    orbital (the subgroup fixes one class) and not orbital (the subgroup
    is not normal), so the weakly orbital transfer theorem is verified."""
    scenario = write(tmp_path, "s.json", {
        "flow": {"group": {"kind": "named", "name": "symmetric", "n": 3},
                 "action": "regular"},
        "relation": {"points": 6, "classes": [[0, 2], [1, 4], [3, 5]]},
        "lattices": {"G": "discrete", "X": "discrete"},
    })
    assert main(["structured", scenario]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "analysis structured: PASS (2 checks, 0 failures)",
        "  ok  agreeable",
        "  ok  weakly orbital transfer equivalence"]


def test_cli_structured_scenario_neither_theorem_speaks_about(tmp_path, capsys):
    """Z6 acting freely on two copies of itself, with the cosets of the
    order-3 subgroup on the first copy and those of the order-2 subgroup on
    the second: invariant, and not weakly orbital, since a subgroup fixing
    classes on both copies is trivial. With discrete lattices the scenario
    is agreeable, and neither transfer theorem is checked."""
    scenario = write(tmp_path, "s.json", {
        "flow": {"group": {"kind": "permutation", "degree": 12, "generators": [
            [1, 2, 3, 4, 5, 0, 7, 8, 9, 10, 11, 6]]}, "action": "natural"},
        "relation": {"points": 12, "classes": [[0, 2, 4], [1, 3, 5], [6, 9],
                                               [7, 10], [8, 11]]},
        "lattices": {"G": "discrete", "X": "discrete"},
    })
    inst = parse_instance(scenario).value
    E = inst.relation.bind(inst.flow)
    assert inst.agreement and E.invariant and not is_weakly_orbital(E)
    assert main(["structured", scenario]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "analysis structured: PASS (1 checks, 0 failures)",
        "  ok  agreeable"]


def test_structured_suite_reaches_the_weakly_orbital_branch(monkeypatch):
    """At seed 1, three of the first 200 random draws are weakly orbital but
    not orbital; each is verified by the weakly orbital transfer theorem."""
    seen = []

    def spy(inst, *args, **kwargs):
        seen.append(inst.name)
        return structured.verify_thm_worb(inst, *args, **kwargs)

    monkeypatch.setattr(suites, "verify_thm_worb", spy)
    assert run_suite("structured", 200, seed=1).passed
    assert [name for name in seen if name.startswith("random")] == [
        "random-11", "random-89", "random-183"]


def test_cli_orbital_max_group_order_keeps_cap_overrides(tmp_path, monkeypatch):
    overridden = DEFAULT_CAPS._replace(lattice_cap=7)
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
    assert seen == [overridden._replace(subgroup_enum_cap=24)]


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
    (dict(S3_FLOW, basepoint="x"), "basepoint is 'x', not an integer"),
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
    (dict(S3_FLOW, group=dict(S3_FLOW["group"], degree="3")),
     "group.degree is '3', not an integer"),
    (dict(S3_FLOW, points="3"), "points is '3', not an integer"),
    (dict(S3_FLOW, basepoint="0"), "basepoint is '0', not an integer"),
    ({"flow": S3_FLOW, "relation": {"points": "3", "classes": [[0, 1, 2]]}},
     "relation.points is '3', not an integer"),
    ({"ground": "X", "size": "2", "sets": "discrete"},
     "size is '2', not an integer"),
    ({"group": {"kind": "named", "name": "cyclic", "n": 2}, "points": 2,
      "action": {"generator_images": [["1", 0]]}},
     "generator_images entry is '1', not an integer"),
    ({"ground": "X", "size": 2, "sets": [[0]], "auto_complete": "false"},
     "auto_complete is 'false', not a boolean"),
    ({"flow": {"transformations": [[1, 2, 0]], "points": 3},
      "relation": {"points": 3, "classes": [[0, 1, 2]]}},
     "flow must be a group flow"),
    ({"flow": S3_FLOW, "relation": {"points": 3, "classes": [[0, 1, 2]]},
      "lattices": {"X": {"sets": [[0]], "size": 5}}},
     "unknown key 'lattices.X.size'"),
    ({"flow": S3_FLOW, "relation": {"points": 3, "classes": [[0, 1, 2]]},
      "lattices": {"X": {"sets": "discrete", "ground": "G"}}},
     "unknown key 'lattices.X.ground'"),
], ids=["basepoint-out-of-range", "basepoint-not-int", "mul-not-square",
        "named-without-n", "transformations-not-maps", "image-not-self-map",
        "group-null", "group-not-object", "transformation-entry-not-int",
        "permutation-entry-float", "degree-float", "points-float", "points-bool",
        "basepoint-float", "basepoint-bool", "image-float", "transformation-bool",
        "lattice-size-float", "action-misspelt", "group-stray-key",
        "lattice-stray-key", "scenario-lattice-stray-key",
        "scenario-lattices-not-object", "transformations-points-disagree",
        "unknown-schema", "degree-string", "points-string", "basepoint-string",
        "relation-points-string", "lattice-size-string", "image-string",
        "auto-complete-string", "scenario-transformation-flow",
        "scenario-lattice-size", "scenario-lattice-ground"])
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


def test_cli_instance_file_of_the_wrong_kind_exits_2(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(["ellis", "instances/equality-on-3.json"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: instances/equality-on-3.json: "
                   "expected flow or ambit, got relation\n")


@pytest.mark.parametrize("argv", [
    ["analyze", "instances/z6-regular-ambit.json", "--relation",
     "instances/z6-cosets.json"],
    ["example", "s3-stabilizer"],
], ids=["analyze-relation", "s3-stabilizer"])
def test_a_command_builds_each_closure_once(monkeypatch, capsys, argv):
    """Counted across every module that binds `enveloping_semigroup`: the
    command builds its flow's closure once, and `identify_quotient` reads
    that one."""
    monkeypatch.chdir(ROOT)
    built = []
    original = ellis.enveloping_semigroup

    def build(flow, *args, **kwargs):
        built.append(flow)
        return original(flow, *args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "elliskit" and hasattr(module, "enveloping_semigroup"):
            monkeypatch.setattr(module, "enveloping_semigroup", build)
    assert main(argv) == 0
    assert len(built) == 1


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


@pytest.mark.parametrize("suite, instances, caps, message", [
    ("ellis", 25, {"closure_cap": 100},
     "composition closure exceeded cap 100 (100 elements found)"),
    ("grouplike", 10, {"closure_cap": 5},
     "composition closure exceeded cap 5 (5 elements found)"),
    ("grouplike", 10, {"points_cap": 3}, "flow point set size 6 exceeds cap 3"),
    ("orbital", 10, {"points_cap": 3}, "flow point set size 4 exceeds cap 3"),
], ids=["ellis", "grouplike", "grouplike-points", "orbital-points"])
def test_cli_verify_over_a_cap_exits_2(suite, instances, caps, message):
    # a cap hit inside a suite's checks or while it builds a flow stops the
    # run; it is not a failed check
    done = subprocess.run(
        [sys.executable, "-m", "elliskit.cli", "verify", "--suite", suite,
         "--instances", str(instances), "--seed", "3"],
        env=cli_env(ELLISKIT_CAPS=json.dumps(caps)),
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"error: {message}\n"


def test_a_cap_error_fires_with_warm_caches():
    """The orbital-points case of the test above, run in a process whose
    caches already hold the fixtures of passing orbital calls: the cap is
    still reported for the flow drawn, not for another candidate."""
    code = ("import sys; from elliskit.caps import Caps; from elliskit.cli import main; "
            "from elliskit.suites import run_suite; "
            "assert run_suite('orbital', 10, 3, caps=Caps()).passed; "
            "assert run_suite('orbital', 10, 3, max_points=3).passed; "
            "sys.exit(main(['verify', '--suite', 'orbital', '--instances', '10', "
            "'--seed', '3']))")
    done = subprocess.run([sys.executable, "-c", code],
                          env=cli_env(ELLISKIT_CAPS=json.dumps({"points_cap": 3})),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: flow point set size 4 exceeds cap 3\n"


@pytest.mark.parametrize("suite, target", [
    ("ellis", "_ellis_instance_checks"),
    ("grouplike", "make_ambit"),
    ("orbital", "_orbital_instance_checks"),
    ("structured", "verify_thm_orb"),
    ("structured", "is_orbital"),
])
@pytest.mark.parametrize("error, code", [
    (ClosureCapExceeded(7, 6), 2),
    (GroupTooLarge(30, 24), 2),
    (SizeCapExceeded(9, 8, "lattice"), 2),
    (NotInIdeal(3), 1),
], ids=["closure", "group", "size", "other"])
def test_cli_verify_suite_loops_pass_cap_errors_through(
        monkeypatch, capsys, suite, target, error, code):
    # each of the five suite loops: a cap error exits 2 with its message,
    # any other toolkit error is recorded as a failed check (exit 1)
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(suites, target, fail)
    assert main(["verify", "--suite", suite, "--instances", "2",
                 "--seed", "1"]) == code
    err = capsys.readouterr().err
    assert (err == f"error: {error}\n") == (code == 2)


def test_cli_verify_grouplike_records_a_failed_identification(monkeypatch, capsys):
    # an identification whose stabilizer has the wrong order breaks
    # |X/E|·|H| = |Ĝ|: a failed check (exit 1) whose witness holds the
    # numbers compared, not the quotient
    def whole_group_as_stabilizer(*args, **kwargs):
        ident = identify_quotient(*args, **kwargs)
        q = ident.ghat.group
        return ident._replace(stabilizer=Subgroup(q, frozenset(q.elements())))

    monkeypatch.setattr(suites, "identify_quotient", whole_group_as_stabilizer)
    assert main(["verify", "--suite", "grouplike", "--instances", "2",
                 "--seed", "7", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [v["witness"] for v in report["verdicts"]] == [
        f"[('identification', {{'class_count': {n}, 'classes': {n}, "
        f"'stabilizer_order': {order}, 'identified_group_order': {order}}})]"
        for n, order in ((2, 12), (3, 3))]


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

CAP_NAMES = list(Caps._fields)
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
        assert error is None and caps == Caps()._replace(**want)

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


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("bounds, message", [
    ({"max_points": -1}, "max_points must be at least 2, got -1"),
    ({"max_points": 1}, "max_points must be at least 2, got 1"),
    ({"max_group_order": 1}, "max_group_order must be at least 2, got 1"),
    ({"max_points": 0, "max_group_order": 0}, "max_points must be at least 2, got 0"),
], ids=["points-negative", "points-1", "order-1", "both-0"])
def test_run_suite_rejects_bounds_below_2(suite, bounds, message):
    # the command line's --max-points and --max-group-order admit 2 and up
    with pytest.raises(InvalidArgument, match=message):
        run_suite(suite, 3, seed=1, **bounds)
    assert run_suite(suite, 3, seed=1, max_points=2, max_group_order=2).passed


@pytest.mark.parametrize("draw, message", [
    (lambda rng: random_group(rng, 1), "max_group_order must be at least 2, got 1"),
    (lambda rng: random_group_flow(rng, 6, 1), "max_group_order must be at least 2, got 1"),
    (lambda rng: random_group_like_setup(rng, 6, 1),
     "max_group_order must be at least 2, got 1"),
    (lambda rng: random_transformation_flow(rng, 1), "max_points must be at least 2, got 1"),
], ids=["group", "group-flow", "group-like-setup", "transformation-flow"])
def test_generators_reject_bounds_below_2(draw, message):
    # the suites' message, raised before the generator draws anything
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(InvalidArgument, match=message):
        draw(rng)
    assert rng.getstate() == state


def _c4():
    return named_group("cyclic", n=4)


def _s3_ambit(copies=1):
    """S3 on 3 points, or on that many copies of them side by side (an
    ambit built directly, since its orbit is not dense)."""
    natural = flows.natural_flow(named_group("symmetric", n=3))
    return flows.Ambit(flows.disjoint_union_flow([natural] * copies), 0)


def _swap_ambit():
    return flows.make_ambit(flows.transformation_flow([[1, 0]]), 0)


def _identify(ambit, E, flow=None):
    """`identify_quotient` on the closure of `flow`, by default the ambit's."""
    return identify_quotient(ambit, E, ellis.enveloping_semigroup(flow or ambit.flow))


def _non_orbital_instance():
    """Regular S3 with an invariant relation that is not orbital (the left
    cosets of a non-normal subgroup of order 2) and discrete lattices."""
    flow = flows.regular_flow(named_group("symmetric", n=3))
    E = next(E for E in invariant_relations(flow) if not is_orbital(E))
    return structured.StructuredInstance(flow, E, structured.default_lattices(
        flow, structured.discrete_lattice("G", 6), structured.discrete_lattice("X", 6)))


def _lattices(g_size):
    return {"G": structured.discrete_lattice("G", g_size),
            "X": structured.discrete_lattice("X", 3)}


@pytest.mark.parametrize("call, error, message", [
    (lambda: Subgroup(_c4(), frozenset({1})), NoIdentity, "no two-sided identity"),
    (lambda: Subgroup(_c4(), frozenset({0, 1})), NoInverse, "element 1 has no"),
    (lambda: Subgroup(_c4(), frozenset({0, 1, 3})), NotAssociative,
     "(1, 1, 'closure')"),
    (lambda: group_from_table([]), NoIdentity, "no two-sided identity"),
    (lambda: group_from_table([[0, 1, 2]] * 3, Caps(group_order_cap=2)),
     GroupTooLarge, "group order 3 exceeds bound 2"),
    (lambda: group_from_table([[1, 1], [1, 1]]), NoIdentity, "no two-sided identity"),
    (lambda: group_from_table([[0, 1, 2], [1, 0, 0], [2, 0, 0]]), NotAssociative,
     "triple (1, 1, 2)"),
    (lambda: _locate_inverses(((0, 1, 2), (1, 2, 0), (2, 1, 0)), 0), NoInverse,
     "element 1 has no two-sided inverse"),
    (lambda: named_group("cyclic", n=0), UnsupportedParameters,
     "cyclic(0) outside bounds"),
    (lambda: named_group("symmetric", n=7), UnsupportedParameters,
     "symmetric(7) outside bounds"),
    (lambda: named_group("dihedral", n=2), UnsupportedParameters,
     "dihedral(2) outside bounds"),
    (lambda: direct_product(_c4(), _c4(), Caps(group_order_cap=10)), GroupTooLarge,
     "group order 16 exceeds bound 10"),
    (lambda: flows.product_flow([_swap_ambit().flow]), GroupMismatch,
     "products are defined for group flows"),
    (lambda: flows.disjoint_union_flow([_s3_ambit().flow] * 2, Caps(points_cap=5)),
     SizeCapExceeded, "union point set size 6 exceeds cap 5"),
    (lambda: flows.disjoint_union_flow([
        flows.transformation_flow([[1, 0]]),
        flows.transformation_flow([[1, 0], [0, 0]])]), GroupMismatch,
     "union requires matching generator counts"),
    (lambda: flows.independent_translates(_swap_ambit().flow, {0}, 1), GroupMismatch,
     "independent translates need a group flow"),
    (lambda: flows.independent_translates(_s3_ambit().flow, {0}, 0), InvalidArgument,
     "translate family size must be at least 1, got 0"),
    (lambda: flows.independent_translates(
        _s3_ambit().flow, {0}, DEFAULT_CAPS.independence_k_cap + 1), SizeCapExceeded,
     f"translate family size {DEFAULT_CAPS.independence_k_cap + 1} exceeds cap"),
    (lambda: flows.check_tower([_s3_ambit()] * 2, []), IncompatibleTower,
     "need one morphism per adjacent pair"),
    (lambda: flows.check_tower([_s3_ambit(), _s3_ambit()], [flows.FlowMorphism(
        _s3_ambit(), _s3_ambit(), (0, 1, 2))]), IncompatibleTower,
     "morphism endpoints do not match levels"),
    (lambda: flows.make_flow(named_group("cyclic", n=2), 2, [[0, 1], [0]]),
     NotAnAction, "g=1, h=1, x=-1"),
    (lambda: flows.make_flow(named_group("cyclic", n=2), 2, [[0, 1], [0, 0]]),
     NotBijective, "map 1 is not a bijection"),
    (lambda: make_relation(3, [[0, 1, 2], []]), NotAPartition, "empty class"),
    (lambda: structured.StructuredInstance(_swap_ambit().flow, make_relation(2, [[0, 1]]),
                                           {}), NotOrbital, "need group flows"),
    (lambda: structured.StructuredInstance(_s3_ambit().flow, make_relation(3, [[0, 1, 2]]),
                                           {}), NotALattice, "missing set ['G']"),
    (lambda: structured.StructuredInstance(_s3_ambit().flow, make_relation(3, [[0, 1, 2]]),
                                           _lattices(5)), NotALattice,
     "combination of [5] and [] gives missing set ['G']"),
    (lambda: structured.make_lattice("X", 3, [[0, 5]]), NotALattice,
     "combination of [0, 5]"),
    (lambda: structured.product_lattice(*[_lattices(6)["G"]] * 2), NotALattice,
     "combination of [] and [] gives missing set []"),
    (lambda: structured.discrete_lattice("X", 3).members(), SizeCapExceeded,
     "discrete lattice enumeration size 8"),
    (lambda: structured.product_lattice(structured.discrete_lattice("G", 2),
                                        structured.make_lattice("X", 3, [[0]])).members(),
     SizeCapExceeded, "intensional lattice enumeration size 9"),
    (lambda: structured.verify_thm_orb(_non_orbital_instance()),
     NotOrbital, "relation is not orbital"),
    (lambda: is_orbital(make_relation(3, [[0, 1], [2]], _s3_ambit().flow)),
     NotInvariant, "relation is not invariant"),
    (lambda: check_group_like(_swap_ambit(), make_relation(2, [[0, 1]])),
     NotEquivalence, "group-likeness needs a group flow"),
    (lambda: check_group_like(_s3_ambit(2), make_relation(6, [list(range(6))])),
     NotWeaklyGroupLike, "action is not transitive"),
    (lambda: _identify(_swap_ambit(), make_relation(2, [[0, 1]])),
     NotWeaklyGroupLike, "needs a group flow"),
    (lambda: _identify(_s3_ambit(2), make_relation(6, [list(range(6))])),
     NotWeaklyGroupLike, "('morphism', ('unreached', 3))"),
    (lambda: _identify(_s3_ambit(), make_relation(3, [[0, 1, 2]]), _s3_ambit().flow),
     GroupMismatch, "semigroup of another flow than the ambit's"),
    (lambda: RRelationResult(frozenset({(0, 1)}), False, False, False,
                             ("irreflexive", 0)).to_relation(_swap_ambit().flow),
     NotAWitness, "relation is not an equivalence: ('irreflexive', 0)"),
    (lambda: parse_obj([1, 2]), ParseError, "<data>: top-level JSON object expected"),
], ids=["subgroup-identity", "subgroup-inverse", "subgroup-closure", "table-empty",
        "table-over-cap", "table-identity", "table-associative",
        "one-sided-inverse", "cyclic-0", "symmetric-7", "dihedral-2",
        "direct-product-cap", "product-of-transformations", "union-cap",
        "union-generator-counts", "translates-transformation", "translates-k",
        "translates-over-cap", "tower-morphism-count", "tower-endpoints",
        "action-map-length", "action-not-bijective", "empty-class",
        "structured-transformation", "structured-missing-lattice",
        "structured-lattice-size", "lattice-out-of-range", "product-unknown-ground",
        "discrete-members", "section-members", "thm-orb-not-orbital",
        "orbital-not-invariant", "group-like-transformation",
        "group-like-intransitive", "identify-transformation",
        "identify-intransitive", "identify-other-semigroup", "not-an-equivalence",
        "parse-non-object"])
def test_input_validation_refutations_fire(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert message in str(exc.value)
