"""The benchmark's workloads. Each one is a list of children; each child is
a list of calls that one fresh interpreter makes through ``elliskit.cli``.
One pass of a workload runs all of its children. Every call is short (at
most about two seconds), so a run repeats each one many times.

Why these three (see README.md for the layer map):

- verify-ellis: 400 Ellis-suite instances in 16 seeded calls. Heavy-tailed
  closures, no relations at all.
- verify-orbital: 22 short grouplike, orbital and structured suite calls
  in one child, and the four small bundled examples in another. Thousands of tiny
  relations on groups of order <= 24, rebuilt and re-enumerated again and
  again, so inputs repeat.
- ellis-large: ``elliskit ellis`` on three generated instance files with
  large closures and ideal groups (D100 regular, S6 natural, T6).

The suites' cost depends strongly on the suite seed, so their suite seeds
are fixed and the benchmark seed orders the calls; ellis-large relabels
its inputs by the seed, which leaves their cost alone.
"""

from __future__ import annotations

import json
import os
import random

DEFAULT_SEED = 7
# The two affine examples (affine-f2, worb-union-f2) take 8 to 12 s each,
# too long to repeat within a run; the other four take milliseconds.
SMALL_EXAMPLES = ("s3-stabilizer", "product-demo", "tower-demo",
                  "cube-independence")
# (suite, fixed suite seeds, instances per call): one call per seed. Short
# calls let the reference times around each call follow the host's speed.
ELLIS_CALLS = ("ellis", range(1, 17), 25)
ORBITAL_CALLS = (("grouplike", range(1, 9), 10),
                 ("orbital", range(1, 9), 8),
                 ("structured", range(1, 7), 10))

class Call:
    """One CLI invocation with a stable label and the structures it must
    report (checked by the benchmark on top of the report's verdicts)."""

    def __init__(self, label: str, argv: list[str], expect: dict | None = None):
        self.label = label
        self.argv = argv
        self.expect = expect or {}


def _verify_calls(suite: str, seeds, instances: int, *extra: str) -> list[Call]:
    return [Call(f"verify-{suite}-{seed}",
                 ["verify", "--suite", suite, "--instances", str(instances),
                  "--seed", str(seed), *extra, "--format", "json"])
            for seed in seeds]


# Per-instance cost is heavy-tailed (Ellis closures of 1 to 1,849
# elements): 25 instances cost 0.04 to 0.26 s depending on the suite seed,
# and even 1,500 instances at one seed varied by about a tenth between
# seeds. So the 16 suite seeds are fixed and the benchmark seed orders them.
def verify_ellis(seed: int, workdir: str) -> list[list[Call]]:
    calls = _verify_calls(*ELLIS_CALLS, "--max-points", "6")
    random.Random(seed).shuffle(calls)
    return [calls]


# The orbital suites' cost is set by how many S4 instances the seed draws:
# they are 6.5% of instances but 68% of the time, so the cost of a pass
# varied by over a quarter between seeds even at twice these sizes. The
# suite seeds are therefore fixed, and the benchmark seed orders the calls.
# The small examples reach catalog.run_example, one CLI call each.
def verify_orbital(seed: int, workdir: str) -> list[list[Call]]:
    rng = random.Random(seed)
    suites = [call for spec in ORBITAL_CALLS for call in _verify_calls(*spec)]
    examples = [Call(name, ["example", name, "--format", "json"])
                for name in SMALL_EXAMPLES]
    rng.shuffle(suites)
    rng.shuffle(examples)
    return [suites, examples]


def _relabel(maps, perm):
    """Conjugate maps on 0..n-1 by the bijection perm: x -> perm[m[inv(x)]]."""
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return [[perm[m[inv[x]]] for x in range(len(perm))] for m in maps]


def large_instances(seed: int) -> dict[str, tuple[dict, dict]]:
    """Instance documents and the structures ``elliskit ellis`` must report.

    S6 and T6 are given by generators relabelled with a seeded bijection
    and shuffled, so the seed changes the input but not the answer. D100
    uses the named group's regular action, which has no labels to vary;
    its 200 elements stay on the full-table path (``mul_table_cap`` 512).
    """
    rng = random.Random(seed)
    n = 6
    cycle = [(x + 1) % n for x in range(n)]
    swap = [1, 0] + list(range(2, n))
    collapse = [0, 0] + list(range(2, n))      # rank n-1 idempotent

    def shuffled(maps):
        perm = list(range(n))
        rng.shuffle(perm)
        maps = _relabel(maps, perm)
        rng.shuffle(maps)
        return maps

    s6 = shuffled([cycle, swap])
    t6 = shuffled([cycle, swap, collapse])
    return {
        "d100-regular": (
            {"group": {"kind": "named", "name": "dihedral", "n": 100},
             "points": 200, "action": "regular"},
            {"closure_size": 200, "ideal_count": 1, "ideal_group_order": 200}),
        "s6-natural": (
            {"group": {"kind": "permutation", "degree": n, "generators": s6},
             "points": n, "action": "natural"},
            {"closure_size": 720, "ideal_count": 1, "ideal_group_order": 720}),
        "t6-full": (
            {"transformations": t6},
            {"closure_size": 6 ** 6, "idempotents": 6, "ideal_group_order": 1}),
    }


def ellis_large(seed: int, workdir: str) -> list[list[Call]]:
    children = []
    for name, (doc, expect) in large_instances(seed).items():
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        children.append([Call(name, ["ellis", path, "--format", "json"], expect)])
    return children


WORKLOADS = {
    "verify-ellis": verify_ellis,
    "verify-orbital": verify_orbital,
    "ellis-large": ellis_large,
}



def observed(structures: dict) -> dict:
    """The facts ``Call.expect`` may name, read from an ``ellis`` report."""
    ideals = structures.get("minimal_ideals", [])
    return {
        "closure_size": structures.get("closure_size"),
        "ideal_count": len(ideals),
        "idempotents": sum(m["idempotents"] for m in ideals),
        "ideal_group_order": structures.get("ideal_group_order"),
    }
