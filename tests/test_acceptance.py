"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its runtime. Tolerances are exact; runtime budgets are asserted."""

import random
import time

import oracles
from elliskit.algebra import enumerate_subgroups
from elliskit.caps import DEFAULT_CAPS
from elliskit.catalog import run_example, structured_catalog
from elliskit.ellis import enveloping_semigroup, minimal_left_ideals
from elliskit.flows import make_ambit, product_flow
from elliskit.generators import random_ellis_flow, random_group_flow
from elliskit.relations import (
    invariant_relations,
    is_orbital,
    is_weakly_orbital,
    kernel_group,
    orbit_relation,
)
from elliskit.structured import verify_thm_orb, verify_thm_worb
from elliskit.suites import brute_force_weakly_orbital, run_suite


def report(number, description, passed, seconds, budget):
    status = "PASS" if passed and seconds < budget else "FAIL"
    print(f"{status} criterion {number}: {description} "
          f"({seconds:.2f}s / {budget:.0f}s budget)")
    assert passed
    assert seconds < budget, f"runtime {seconds:.2f}s exceeds {budget}s"


def test_criterion_1_s3_stabilizer():
    start = time.monotonic()
    rep = run_example("s3-stabilizer")
    elapsed = time.monotonic() - start
    failures = [v for v in rep.verdicts if not v.passed]
    report(1, "s3-stabilizer fixture", rep.passed and not failures, elapsed, 1.0)


def test_criterion_2_ellis_structure_suite():
    start = time.monotonic()
    # the generator stays within six points and three generator maps
    rng = random.Random(7)
    for _ in range(50):
        flow = random_ellis_flow(rng, 6)
        assert flow.points <= 6
        assert len(flow.generator_maps()) <= 3
    rep = run_suite("ellis", 200, seed=7, max_points=6)
    elapsed = time.monotonic() - start
    report(2, "ellis structure suite, 200 instances, zero failures",
           rep.passed and len(rep.verdicts) >= 200, elapsed, 60.0)


def test_criterion_3_quotient_identification_suite():
    start = time.monotonic()
    rep = run_suite("grouplike", 100, seed=11)
    elapsed = time.monotonic() - start
    report(3, "quotient identification suite, 100 instances",
           rep.passed and len(rep.verdicts) >= 100, elapsed, 60.0)


def brute_force_orbital(E):
    flow = E.flow
    return any(orbit_relation(flow, H) == E
               for H in enumerate_subgroups(flow.group))


def test_criterion_4_weak_orbitality_vs_brute_force():
    start = time.monotonic()
    actions = oracles.orbital_catalog()
    assert len(actions) >= 6
    checked = 0
    ok = True
    for flow in actions:
        assert flow.group.order <= 8 and flow.points <= 6
        for E in invariant_relations(flow):
            checked += 1
            weak = is_weakly_orbital(E)
            if bool(weak) != brute_force_weakly_orbital(E, DEFAULT_CAPS):
                ok = False
            orb = is_orbital(E)
            kern = kernel_group(E)
            if bool(orb) != (orbit_relation(flow, kern) == E):
                ok = False
            if bool(orb) != brute_force_orbital(E):
                ok = False
    elapsed = time.monotonic() - start
    report(4, f"weak-orbitality decision vs brute force "
              f"({len(actions)} actions, {checked} relations)",
           ok and checked > 50, elapsed, 300.0)


def test_criterion_5_affine_f2():
    start = time.monotonic()
    rep = run_example("affine-f2")
    elapsed = time.monotonic() - start
    report(5, "affine-f2 maximal witness pairs", rep.passed, elapsed, 120.0)


def test_criterion_6_product_and_tower_suites():
    start = time.monotonic()
    rng = random.Random(13)
    ok = True
    for _ in range(20):
        f1 = random_group_flow(rng, 4, 8)
        f2 = random_group_flow(rng, 4, 8)
        prod = product_flow([f1, f2])
        S = enveloping_semigroup(prod)
        S1 = enveloping_semigroup(f1)
        S2 = enveloping_semigroup(f2)
        if S.size != S1.size * S2.size:
            ok = False
            continue
        amb = make_ambit(prod, 0) if prod.points else None
        # projections induce structure-preserving epimorphisms
        try:
            a1 = make_ambit(f1, 0)
            a2 = make_ambit(f2, 0)
        except Exception:
            # factor flows need not be pointed-transitive; fall back to
            # checking the separating property of the pair of projections
            a1 = a2 = None
        pairs = set()
        nb = f2.group.order
        for i, f in enumerate(S.maps):
            left = tuple(f[x * f2.points] // f2.points for x in range(f1.points))
            right = tuple(f[x] % f2.points for x in range(f2.points))
            pairs.add((left, right))
        if len(pairs) != S.size:
            ok = False
        n_src = len(minimal_left_ideals(S))
        if n_src != len(minimal_left_ideals(S1)) * len(minimal_left_ideals(S2)):
            ok = False
    tower = run_example("tower-demo")
    elapsed = time.monotonic() - start
    report(6, "product suite (20 seeded pairs) and tower coherence",
           ok and tower.passed, elapsed, 60.0)


def test_criterion_7_cube_independence():
    start = time.monotonic()
    rep = run_example("cube-independence")
    elapsed = time.monotonic() - start
    report(7, "cube-independence: 3 found, 4 exhausted", rep.passed, elapsed, 10.0)


def test_criterion_8_structured_suite():
    start = time.monotonic()
    ok = True
    saw_counterexample = False
    for inst, kind in structured_catalog():
        agree = inst.agreement
        if kind == "counterexample":
            saw_counterexample = True
            # agreeability must fail: with every class pseudo-closed, union
            # closure would otherwise force the relation into the pair lattice
            if agree:
                ok = False
            got = verify_thm_worb(inst)
            # the relation is not weakly orbital, so no equivalence is claimed
            if got.weakly_orbital or got.equivalent:
                ok = False
            # dropping the witness clause breaks the equivalence: the classes
            # are pseudo-closed while the relation is not
            if not (got.classes_closed and not got.relation_closed):
                ok = False
            # and the full condition (with the witness clause) is false too
            if got.classes_closed_with_witness or got.closed_pair_exists:
                ok = False
            continue
        if not agree:
            ok = False
            continue
        if kind == "orbital":
            if not verify_thm_orb(inst).equivalent:
                ok = False
        else:
            got = verify_thm_worb(inst)
            if not (got.weakly_orbital and got.equivalent):
                ok = False
    suite = run_suite("structured", 10, seed=3)
    elapsed = time.monotonic() - start
    report(8, "structured catalog equivalences and counterexample shape",
           ok and saw_counterexample and suite.passed, elapsed, 60.0)


def test_criterion_9_determinism():
    start = time.monotonic()
    ok = True
    for name, n, seed in (("ellis", 25, 7), ("grouplike", 10, 3),
                          ("orbital", 10, 5), ("structured", 3, 2)):
        a = run_suite(name, n, seed=seed)
        b = run_suite(name, n, seed=seed)
        if a.to_json(include_timing=False) != b.to_json(include_timing=False):
            ok = False
    elapsed = time.monotonic() - start
    report(9, "suite reports byte-identical modulo timing", ok, elapsed, 60.0)
