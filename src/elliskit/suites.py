"""Seeded verification suites: per-module invariant batteries run over
generated or cataloged instances. A nonzero failure count is a verified
property violation.

Facts that hold by construction are not recorded as checks:
- the Ellis battery always has a minimal ideal, since
  `minimal_left_ideals` starts from S·e;
- the orbital battery's kernel is normal (`relations` module docstring);
- the orbital battery's maximal witnesses: from (K, X), K the kernel of an
  orbital E, the support fix(K) is every point, since K fixes every class;
  and maximal witnesses are a fixpoint, since fix(stab(fix(H))) = fix(H)
  (the Galois connection in the `relations` module docstring);
- the grouplike battery's orbit map onto the class group and its
  domination from the regular ambit hold on every transitive setup
  (`grouplike` module docstring), so each instance builds one closure,
  which `identify_quotient` reads."""

from __future__ import annotations

import itertools
import random

from . import catalog
from .algebra import enumerate_subgroups
from .caps import DEFAULT_CAPS, Caps
from .ellis import (
    enveloping_semigroup,
    ideal_group,
    ideal_group_isomorphism,
    minimal_left_ideals,
)
from .errors import CapExceeded, ElliskitError, InvalidArgument
from .flows import Flow, make_ambit
from .generators import (
    _battery_draws,
    check_bounds,
    random_ellis_flow,
    random_group_like_setup,
    random_group_flow,
    random_invariant_relation,
)
from .grouplike import identify_quotient
from .relations import (
    WitnessPair,
    fix_set,
    is_orbital,
    is_weakly_orbital,
    r_relation,
)
from .report import Report
from .structured import verify_thm_orb, verify_thm_worb


def _record_error(rep: Report, name: str, exc: ElliskitError):
    """Record a toolkit error as a failed check, except a cap hit: that is
    raised again, so the command line exits 2, since a limit of the run is
    not a verified violation."""
    if isinstance(exc, CapExceeded):
        raise exc
    rep.record(name, False, str(exc))


def _ellis_instance_checks(flow: Flow, rng: random.Random, caps: Caps) -> int:
    """The structure battery on one flow's enveloping semigroup: the
    minimal ideals, each ideal group, whose axioms `ideal_group` certifies
    (u fixing every member among them, so τ is discrete and H(u·M) = {u}),
    and the isomorphisms between every pair of distinct ideal groups, each
    certified inside its call; any failure raises. Returns the closure size.
    The composition-limit identities and the τ-closure axioms hold by
    construction (`ellis` module docstring) and run as property tests
    against their literal forms in `tests/oracles.py`, not here.

    A group paired with itself is not checked: the idempotent of u's own
    ideal compatible with u is u, since w·u = w for every idempotent w of
    that ideal (the right-identity law, `ellis` module docstring), so
    w·u = u forces w = u.
    The map s -> u·(s·u) is then the identity on u·M, and its bijection
    and homomorphism checks would compare a·b with itself.

    The battery still advances the rng by what the draws that sampled the
    identities consumed, because that state builds the next flow.
    `generators._battery_draws` makes exactly the `rng.getrandbits` calls
    that `rng.randrange` and `rng.sample` would make, forming no value."""
    S = enveloping_semigroup(flow, caps=caps)
    groups = [ideal_group(M, u) for M in minimal_left_ideals(S) for u in M.idempotents]
    # within one ideal: left translation isomorphism; across ideals: the
    # compatible-idempotent map (both verified inside the call)
    for gu in groups:
        for gv in groups:
            if gu is not gv:
                ideal_group_isomorphism(gu, gv)
    _battery_draws(rng, S.size, [len(g.members) for g in groups])
    return S.size


def run_ellis_suite(rep: Report, instances: int, rng: random.Random,
                    caps: Caps, max_points: int, max_order: int):
    """One battery per random flow. A failed instance raises before its
    battery's remaining draws, so every later instance runs on a different
    flow than in a clean run with the same seed: after a failure, instance
    numbers no longer name the clean run's flows."""
    sizes = []
    for i in range(instances):
        flow = random_ellis_flow(rng, max_points, max_order, caps)
        try:
            sizes.append(_ellis_instance_checks(flow, rng, caps))
        except ElliskitError as exc:
            _record_error(rep, f"instance {i}", exc)
            continue
        rep.record(f"instance {i}", True)
    if sizes:
        rep.structures["closure_sizes"] = {
            "min": min(sizes), "max": max(sizes),
            "mean": round(sum(sizes) / len(sizes), 1),
        }


def run_grouplike_suite(rep: Report, instances: int, rng: random.Random,
                        caps: Caps, max_points: int, max_order: int):
    """Group-likeness and the quotient identification on each generated
    transitive setup. The identification's class count is compared with
    the relation's classes, and with |Ĝ|/|H|: both hold on a correct
    `identify_quotient` (`grouplike` module docstring), so the comparison
    catches a wrong identification, not a wrong theory."""
    from .grouplike import check_group_like

    for i in range(instances):
        flow, E = random_group_like_setup(rng, max_points, max_order, caps)
        try:
            amb = make_ambit(flow, 0)
            failures = []
            verdict = check_group_like(amb, E)
            if not verdict:
                failures.append(("constructed relation group-like",
                                 verdict.refutation))
            ident = identify_quotient(amb, E, enveloping_semigroup(flow, caps=caps))
            count, order = ident.class_count, ident.ghat.group.order
            if not (count == len(E.classes)
                    and count * ident.stabilizer.order == order):
                failures.append(("identification", {
                    "class_count": count,
                    "classes": len(E.classes),
                    "stabilizer_order": ident.stabilizer.order,
                    "identified_group_order": order}))
            rep.record(f"instance {i}", not failures, failures[:2] or None)
        except ElliskitError as exc:
            _record_error(rep, f"instance {i}", exc)


def brute_force_weakly_orbital(E, caps: Caps) -> bool:
    """Complete search over subgroup/support pairs."""
    flow = E.flow
    target = E.pairs()
    for H in enumerate_subgroups(flow.group, caps=caps):
        for r in range(1, flow.points + 1):
            for support in itertools.combinations(range(flow.points), r):
                got = r_relation(flow, WitnessPair(H, frozenset(support)))
                if got.pairs == target:
                    return True
    return False


def _orbital_instance_checks(E, caps: Caps, full_brute_force: bool):
    failures = []
    flow, pairs = E.flow, E.pairs()
    orb = is_orbital(E)
    weak = is_weakly_orbital(E, caps=caps)
    if orb and not weak:
        failures.append(("orbital implies weakly orbital", None))
    if orb:
        full = r_relation(flow, WitnessPair(orb.kernel, frozenset(range(flow.points))))
        if full.pairs != pairs:
            failures.append(("full-support witness for orbital", None))
    if weak:
        got = r_relation(flow, weak.witness)
        if not got.is_equivalence or got.pairs != pairs:
            failures.append(("weak witness reproduces relation", None))
    if full_brute_force:
        if bool(weak) != brute_force_weakly_orbital(E, caps):
            failures.append(("decision agrees with brute force", None))
    # normal-subgroup witness iff orbital
    normal_wit = False
    for H in enumerate_subgroups(flow.group, caps=caps):
        if not H.is_normal():
            continue
        sup = fix_set(E, H)
        if sup and r_relation(flow, WitnessPair(H, sup)).pairs == pairs:
            normal_wit = True
            break
    if bool(orb) != normal_wit:
        failures.append(("orbital iff normal witness", None))
    return failures


def run_orbital_suite(rep: Report, instances: int, rng: random.Random,
                      caps: Caps, max_points: int, max_order: int):
    for i in range(instances):
        flow = random_group_flow(rng, max_points, max_order, caps)
        E = random_invariant_relation(rng, flow, caps)
        small = flow.points <= 6 and flow.group.order <= 8
        try:
            failures = _orbital_instance_checks(E, caps, full_brute_force=small)
        except ElliskitError as exc:
            _record_error(rep, f"instance {i}", exc)
            continue
        rep.record(f"instance {i}", not failures, failures[:3] or None)


def run_structured_suite(rep: Report, instances: int, rng: random.Random,
                         caps: Caps, max_points: int, max_order: int):
    for inst, kind in catalog.structured_catalog(caps):
        agree = inst.agreement
        if kind == "counterexample":
            rep.record(f"{inst.name}: not agreeable (forced by finite unions)",
                       not agree)
            worb = verify_thm_worb(inst, caps)
            rep.record(f"{inst.name}: classes pseudo-closed",
                       worb.classes_closed)
            rep.record(f"{inst.name}: relation not pseudo-closed",
                       not worb.relation_closed)
            rep.record(f"{inst.name}: no pseudo-closed witness support",
                       not worb.classes_closed_with_witness)
            rep.record(f"{inst.name}: witness-free weakening breaks the "
                       f"equivalence", worb.classes_closed
                       and not worb.relation_closed)
            continue
        rep.record(f"{inst.name}: agreeable", bool(agree), agree.failures[:2])
        try:
            verify = verify_thm_orb if kind == "orbital" else verify_thm_worb
            got = verify(inst, caps)
            rep.record(f"{inst.name}: transfer equivalence", got.equivalent)
        except ElliskitError as exc:
            _record_error(rep, f"{inst.name}: transfer equivalence", exc)
    # random discrete-lattice instances on top of the fixed catalog
    from .structured import StructuredInstance, default_lattices, discrete_lattice

    for i in range(instances):
        flow = random_group_flow(rng, min(max_points, 6), min(max_order, 8), caps)
        E = random_invariant_relation(rng, flow, caps)
        lats = default_lattices(flow, discrete_lattice("G", flow.group.order),
                                discrete_lattice("X", flow.points), caps=caps)
        inst = StructuredInstance(flow, E, lats, f"random-{i}")
        try:
            verify = verify_thm_orb if is_orbital(E) else verify_thm_worb
            got = verify(inst, caps)
            rep.record(f"random {i}: transfer equivalence", got.equivalent)
        except ElliskitError as exc:
            _record_error(rep, f"random {i}", exc)


# every runner takes (rep, instances, rng, caps, max_points, max_order)
SUITES = {"ellis": run_ellis_suite, "grouplike": run_grouplike_suite,
          "orbital": run_orbital_suite, "structured": run_structured_suite}


def run_suite(name: str, instances: int, seed: int, caps: Caps = DEFAULT_CAPS,
              max_points: int | None = None, max_group_order: int | None = None,
              corrupt: bool = False) -> Report:
    """Run one named suite with a seeded generator. Reports are byte-stable
    for equal inputs, up to the timing block. The corrupt flag deliberately
    injects one failing verdict so the failure path can be exercised."""
    if name not in SUITES:
        raise InvalidArgument(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    rng = random.Random(seed)
    rep = Report("suite", name, seed=seed,
                 caps={"max_points": max_points, "max_group_order": max_group_order})
    check_bounds(max_points=max_points, max_group_order=max_group_order)
    max_points = 6 if max_points is None else max_points
    max_group_order = 24 if max_group_order is None else max_group_order
    SUITES[name](rep, instances, rng, caps, max_points, max_group_order)
    if corrupt:
        rep.record("deliberately corrupted check (harness self-test)", False,
                   "injected failure")
    return rep
