"""Command-line surface: analyze one instance, dump enveloping-semigroup
structure, check group-likeness, decide orbitality, verify structured
scenarios, run seeded suites, and run the bundled examples.

Each command returns its report; `main` times it, prints it and sets the
exit code. Exit codes: 0 all checks passed (or an analysis, whatever its
verdicts), 1 a verified property violation (a failed check of `structured`,
`verify` or `example`, or a violated theorem), 2 input error, 141
(128 + SIGPIPE) standard output closed by its reader.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from . import io as instance_io
from .caps import DEFAULT_CAPS, ENV_ERROR
from .catalog import EXAMPLES, run_example
from .ellis import EllisSemigroup, enveloping_semigroup, ideal_group, minimal_left_ideals
from .errors import ElliskitError, ParseError, TheoremViolation
from .flows import Ambit, Flow, make_ambit
from .grouplike import check_group_like, compute_D, compute_ghat, identify_quotient
from .relations import is_orbital, is_weakly_orbital, maximal_witnesses
from .report import Report
from .structured import verify_thm_orb, verify_thm_worb
from .suites import SUITES, run_suite


def _emit(report: Report, fmt: str) -> None:
    print(report.to_json() if fmt == "json" else report.to_text(), flush=True)


def _load(path, expect_kinds):
    inst = instance_io.parse_instance(path)
    if inst.kind not in expect_kinds:
        raise ParseError(str(path),
                         f"expected {' or '.join(expect_kinds)}, got {inst.kind}")
    return inst.value


def _flow(path) -> tuple[Flow, int]:
    """The flow of a flow or ambit file, and the ambit's basepoint (0 for a
    flow)."""
    value = _load(path, ("flow", "ambit"))
    if isinstance(value, Ambit):
        return value.flow, value.basepoint
    return value, 0


def _ellis_structures(flow: Flow, rep: Report) -> EllisSemigroup:
    S = enveloping_semigroup(flow)
    ideals = minimal_left_ideals(S)
    first = ideal_group(ideals[0], ideals[0].idempotents[0])
    rep.structures["closure_size"] = S.size
    rep.structures["minimal_ideals"] = [
        {"size": len(M.members), "idempotents": len(M.idempotents)}
        for M in ideals
    ]
    rep.structures["ideal_group_order"] = first.group_view.order
    return S


def cmd_ellis(args) -> Report:
    rep = Report("analysis", "ellis")
    _ellis_structures(_flow(args.flow)[0], rep)
    return rep


def cmd_analyze(args) -> Report:
    flow, basepoint = _flow(args.flow)
    rep = Report("analysis", "analyze")
    S = _ellis_structures(flow, rep)
    if args.relation:
        relation = _load(args.relation, ("relation",)).bind(flow)
        rep.structures["class_count"] = len(relation.classes)
        rep.structures["invariant"] = relation.invariant
        if not relation.invariant:
            rep.record("relation invariant", False, relation.invariance_witness)
        elif flow.is_group_flow:
            ambit = make_ambit(flow, basepoint)
            verdict = check_group_like(ambit, relation)
            rep.structures["group_like"] = bool(verdict)
            ident = identify_quotient(ambit, relation, S)
            rep.structures["identified_group_order"] = ident.ghat.group.order
            rep.structures["stabilizer_order"] = ident.stabilizer.order
            orb = is_orbital(relation)
            rep.structures["orbital"] = bool(orb)
            weak = is_weakly_orbital(relation)
            rep.structures["weakly_orbital"] = bool(weak)
            if weak:
                m = maximal_witnesses(relation, weak.witness)
                rep.structures["maximal_witness"] = {
                    "subgroup_order": m.subgroup.order,
                    "support_size": len(m.support),
                }
    return rep


def cmd_grouplike(args) -> Report:
    ambit = make_ambit(*_flow(args.ambit))
    relation = _load(args.relation, ("relation",)).bind(ambit.flow)
    rep = Report("analysis", "grouplike")
    verdict = check_group_like(ambit, relation)
    rep.structures["group_like"] = bool(verdict)
    if verdict:
        cert = verdict.certificate
        rep.structures["quotient_order"] = cert.quotient_group.order
        rep.structures["kernel"] = list(cert.kernel.sorted_members)
        S = enveloping_semigroup(ambit.flow)
        ideals = minimal_left_ideals(S)
        IG = ideal_group(ideals[0], ideals[0].idempotents[0])
        D = compute_D(IG, ambit)
        ghat = compute_ghat(IG, ambit)
        rep.structures["basepoint_stabilizer_order"] = D.order
        rep.structures["identified_group_order"] = ghat.group.order
    else:
        rep.structures["refutation"] = repr(verdict.refutation)
    return rep


def cmd_orbital(args) -> Report:
    relation = _load(args.relation, ("relation",)).bind(_flow(args.flow)[0])
    rep = Report("analysis", "orbital")
    rep.structures["invariant"] = relation.invariant
    if relation.invariant:
        verdict = is_orbital(relation)
        rep.structures["orbital"] = bool(verdict)
        rep.structures["kernel_order"] = verdict.kernel.order
        if args.decide_weak:
            caps = DEFAULT_CAPS
            if args.max_group_order is not None:
                caps = caps._replace(subgroup_enum_cap=args.max_group_order)
            weak = is_weakly_orbital(relation, caps=caps)
            rep.structures["weakly_orbital"] = bool(weak)
            if weak:
                rep.structures["witness_subgroup_order"] = weak.witness.subgroup.order
                rep.structures["witness_support_size"] = len(weak.witness.support)
    return rep


def cmd_structured(args) -> Report:
    inst = _load(args.scenario, ("scenario",))
    rep = Report("analysis", "structured")
    agree = inst.agreement
    rep.record("agreeable", bool(agree), agree.failures[:2] or None)
    E = inst.relation.bind(inst.flow)
    if agree and E.invariant:
        if is_orbital(E):
            rep.record("orbital transfer equivalence",
                       verify_thm_orb(inst).equivalent)
        else:
            got = verify_thm_worb(inst)
            if got.weakly_orbital:
                rep.record("weakly orbital transfer equivalence", got.equivalent)
    return rep


def cmd_verify(args) -> Report:
    return run_suite(args.suite, args.instances, args.seed,
                     max_points=args.max_points,
                     max_group_order=args.max_group_order,
                     corrupt=args.corrupt)


def cmd_example(args) -> Report:
    return run_example(args.name)


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


# read by each call of `main`; the cached parser holds no command function
COMMANDS = {"analyze": cmd_analyze, "ellis": cmd_ellis, "grouplike": cmd_grouplike,
            "orbital": cmd_orbital, "structured": cmd_structured, "verify": cmd_verify,
            "example": cmd_example}
# the commands whose failed check is a verified property violation (exit 1);
# the others are analyses, whose verdicts are reported and exit 0
VERIFYING = frozenset({"structured", "verify", "example"})


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="elliskit",
        description="Finite enveloping semigroups, group-like quotients, and "
                    "orbital relations, verified by brute force.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("analyze", help="full pipeline on one instance")
    p.add_argument("flow")
    p.add_argument("--relation")
    add_format(p)

    p = sub.add_parser("ellis", help="enveloping semigroup structure")
    p.add_argument("flow")
    add_format(p)

    p = sub.add_parser("grouplike", help="group-likeness of a relation on an ambit")
    p.add_argument("ambit")
    p.add_argument("--relation", required=True)
    add_format(p)

    p = sub.add_parser("orbital", help="orbitality decisions for a relation")
    p.add_argument("flow")
    p.add_argument("--relation", required=True)
    p.add_argument("--decide-weak", action="store_true")
    p.add_argument("--max-group-order", type=_int_at_least(1), default=None,
                   help="largest group whose subgroups --decide-weak enumerates "
                        "(the subgroup_enum_cap of this call)")
    add_format(p)

    p = sub.add_parser("structured", help="agreeability and transfer theorems")
    p.add_argument("scenario")
    add_format(p)

    p = sub.add_parser("verify", help="run a seeded verification suite")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--instances", type=_int_at_least(0), default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-points", type=_int_at_least(2), default=None,
                   help="most points of a generated flow (default 6)")
    p.add_argument("--max-group-order", type=_int_at_least(2), default=None,
                   help="largest order of a drawn catalog group (default 24)")
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    add_format(p)

    p = sub.add_parser("example", help="run a bundled example")
    p.add_argument("name", choices=sorted(EXAMPLES))
    add_format(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if ENV_ERROR is not None:
            raise ENV_ERROR
        start = time.monotonic()
        rep = COMMANDS[args.command](args)
        rep.timing["seconds"] = round(time.monotonic() - start, 3)
        _emit(rep, args.format)
        if args.command in VERIFYING and not rep.passed:
            print(f"{rep.failure_count} verified property violations",
                  file=sys.stderr)
            return 1
        return 0
    except BrokenPipeError:
        # the reader closed stdout (`elliskit ... | head`); point stdout at
        # devnull so the flush at exit cannot fail again, and exit as a
        # process killed by SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except TheoremViolation as exc:
        print(f"verified violation: {exc}", file=sys.stderr)
        return 1
    except ElliskitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
