"""Invariant equivalence relations on finite group actions: kernel
subgroups, orbit relations, witnessed relations R_{H,support}, maximal
witnesses, and decision procedures for orbitality and weak orbitality.

Relations are stored as partitions (class-level operations dominate); the
pair-set view is derived on demand. The lattice of all invariant relations
is built from principal relations, each one union-find closure over the
generator maps (Atkinson, Math. Comp. 29, 1975), closed under joins
(Freese, Algebra Universalis 59, 2008). Whether a pair (H, S) witnesses an
invariant relation E is decided on E's own orbitals, the G-orbits on its
pairs, numbered by one walk over the generator maps: the seeds (s, h·s)
must meet every orbital inside E and leave E nowhere. That one test serves
weak orbitality, maximal witnesses and the weakly-orbital transfer
verifier. The literal pair closure r(H, S) is `r_pairs`, which the
suites' cross-checks compare with a relation's pairs; `r_relation` adds
the reflexive, symmetric and transitive verdicts for the callers that read
them. Orbit partitions that are only compared are kept as labels
(`_orbit_labels`), not built as relations bound to a flow.

What holds by construction is stated here and not re-checked; the literal
forms run as seeded property tests against `tests/oracles.py`:
- The kernel of an invariant E, the class-wise stabilizer, is normal: if h
  fixes every class, g·h·g⁻¹ sends each class C to g·h·(g⁻¹·C), and g⁻¹
  permutes the classes, so h fixes g⁻¹·C and g·h·g⁻¹ fixes C.
- fix(H), the points equivalent to all their H-translates, and stab(S),
  the elements moving every point of S within its class, form a Galois
  connection: H ⊆ stab(S) iff S ⊆ fix(H). So fix(stab(fix(H))) = fix(H),
  and alternating the two maximizations stops after one step at
  (stab(fix(H)), fix(H)). If (H, S) witnesses E, so does that pair: its
  support and subgroup only grow, and its seeds stay in E. A fix-set is a
  union of classes, since x ~ y gives h·x ~ h·y.
- The lattice members are invariant: the principal relations are closed
  under the generator maps, and a join of invariant equivalences is
  invariant.
- On a free action, N -> the orbit relation E_N of N is a bijection from
  the normal subgroups onto the orbital relations, so
  `free_action_correspondence` checks freeness alone. E_N is invariant
  when N is normal: g·(N·x) = (g·N·g⁻¹)·(g·x) = N·(g·x). Its kernel is
  N: N fixes each of its own orbits, and a kernel element h keeps a
  point x in its class N·x, so h·x = n·x for some n in N; then n⁻¹·h
  fixes x and is the identity by freeness. So E_N is orbital, and since
  the kernel recovers N, no two normal subgroups give one relation.
  Every orbital E is the orbit relation of its kernel, which is normal,
  so every orbital relation arises.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import NamedTuple

from .algebra import FiniteGroup, Subgroup, _read_only, enumerate_subgroups
from .caps import DEFAULT_CAPS, Caps
from .errors import (
    GroupMismatch,
    InvalidArgument,
    NotAPartition,
    NotAWitness,
    NotEquivalence,
    NotFree,
    NotInvariant,
    SizeCapExceeded,
)
from .flows import Flow, orbits


class EquivRelation:
    """A partition of 0..points-1, its classes sorted and ordered by least
    point, checked on construction. Bound to a flow, it also holds whether
    the flow's maps send classes into classes, and a witness if not.
    Read-only; equal relations have equal points and classes."""

    __slots__ = ("points", "classes", "flow", "class_of", "invariant",
                 "invariance_witness")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, points: int, classes: tuple[tuple[int, ...], ...],
                 flow: Flow | None = None):
        if flow is not None and flow.points != points:
            raise NotEquivalence("relation on the wrong point set")
        seen = [None] * points
        norm = []
        for cls in classes:
            if not cls:
                raise NotAPartition("empty class")
            for x in cls:
                if not 0 <= x < points:
                    raise NotAPartition(f"point {x} out of range")
                if seen[x] is not None:
                    raise NotAPartition(f"point {x} in two classes")
                seen[x] = True
            norm.append(tuple(sorted(cls)))
        if any(s is None for s in seen):
            missing = next(i for i, s in enumerate(seen) if s is None)
            raise NotAPartition(f"point {missing} uncovered")
        norm.sort(key=lambda c: c[0])
        class_of = [None] * points
        for i, cls in enumerate(norm):
            for x in cls:
                class_of[x] = i
        class_of = tuple(class_of)
        invariant = witness = None
        if flow is not None:
            invariant, witness = _invariance(flow, class_of)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "classes", tuple(norm))
        object.__setattr__(self, "flow", flow)
        object.__setattr__(self, "class_of", class_of)
        object.__setattr__(self, "invariant", invariant)
        object.__setattr__(self, "invariance_witness", witness)

    def __repr__(self):
        return (f"EquivRelation(points={self.points!r}, classes={self.classes!r}, "
                f"flow={self.flow!r}, invariant={self.invariant!r}, "
                f"invariance_witness={self.invariance_witness!r})")

    def same(self, a: int, b: int) -> bool:
        return self.class_of[a] == self.class_of[b]

    def pairs(self) -> frozenset[tuple[int, int]]:
        out = set()
        for cls in self.classes:
            for a in cls:
                for b in cls:
                    out.add((a, b))
        return frozenset(out)

    def bind(self, flow: Flow) -> "EquivRelation":
        """This relation on `flow`: itself when already bound to it, else a
        new relation with its invariance computed on `flow`."""
        if self.flow is flow:
            return self
        return EquivRelation(self.points, self.classes, flow)

    def __eq__(self, other):
        return (isinstance(other, EquivRelation)
                and self.points == other.points
                and self.classes == other.classes)

    def __hash__(self):
        return hash((self.points, self.classes))


def _invariance(flow: Flow, class_of):
    """Check each acting map sends classes into classes. The generators go
    first: the composite of two maps that send classes into classes does
    too, so in a finite group invariance under the generators is invariance
    under every element. Only when a generator fails is every acting map
    (every element of a group flow, every generator of a transformation
    flow) scanned in order for the first witness (g, x0, x); the failing
    generator is itself one of them, so the scan finds one."""
    classes = max(class_of, default=-1) + 1
    if all(_class_break(m, class_of, classes) is None
           for m in flow.generator_maps()):
        return True, None
    return next((False, (g,) + broken) for g, m in enumerate(flow.maps)
                if (broken := _class_break(m, class_of, classes)) is not None)


def _class_break(m, class_of, classes):
    """None if map m sends every class into one class, else (x0, x): the
    first point x whose image leaves the class of the image of x0, the
    first point of x's class."""
    first = [None] * classes
    for x, y in enumerate(m):
        c = class_of[x]
        x0 = first[c]
        if x0 is None:
            first[c] = x
        elif class_of[m[x0]] != class_of[y]:
            return x0, x
    return None


def first_split(left, right) -> tuple[int, int] | None:
    """None when two labellings of 0..n-1 have the same fibers, else the
    first pair (a, b) in lexicographic order that one labelling puts in one
    fiber and the other does not. The fibers are equal iff the label pairs
    (left[x], right[x]) are as many as each labelling's labels, for then
    each pair joins one left fiber to one right fiber; only a failure is
    searched pair by pair."""
    if len(set(zip(left, right))) == len(set(left)) == len(set(right)):
        return None
    n = len(left)
    return next((a, b) for a in range(n) for b in range(n)
                if (left[a] == left[b]) != (right[a] == right[b]))


def make_relation(points: int, classes, flow: Flow | None = None) -> EquivRelation:
    return EquivRelation(points, tuple(tuple(c) for c in classes), flow)


def equality_relation(points: int, flow: Flow | None = None) -> EquivRelation:
    return make_relation(points, [[x] for x in range(points)], flow)


def total_relation(points: int, flow: Flow | None = None) -> EquivRelation:
    return make_relation(points, [list(range(points))], flow)


def _require_group_bound(E: EquivRelation, H: Subgroup | None = None,
                         support=()) -> tuple[Flow, FiniteGroup]:
    return E.flow, _require_group(E.flow, "relation must be bound to a group flow", H, support)


def _require_group(flow: Flow | None, problem: str, H: Subgroup | None = None,
                   support=()) -> FiniteGroup:
    """The group of a group flow, once H (if given) is one of its subgroups
    and every support point is one of its points; else raise, with
    `problem` when there is no group flow."""
    if flow is None or not flow.is_group_flow:
        raise GroupMismatch(problem)
    if H is not None and H.parent is not flow.group:
        raise GroupMismatch("subgroup of a different group")
    if not all(0 <= s < flow.points for s in support):
        raise InvalidArgument(f"support {sorted(support)} not within 0..{flow.points - 1}")
    return flow.group


def kernel_group(E: EquivRelation) -> Subgroup:
    """All elements preserving every class setwise; normal (module
    docstring)."""
    flow, G = _require_group_bound(E)
    if not E.invariant:
        raise NotInvariant(E.invariance_witness)
    return Subgroup(G, stabilizing_elements(E, range(flow.points)))


def _orbit_labels(flow: Flow, H: Subgroup) -> tuple[int, ...]:
    """Each point's H-orbit, numbered 0, 1, ... in the order of the orbits'
    least points: the `class_of` of `orbit_relation(flow, H)`. H is a
    group, so its images of x are the whole H-orbit of x."""
    rows = [flow.maps[h] for h in H.members]
    labels, count = [None] * flow.points, 0
    for x in range(flow.points):
        if labels[x] is None:
            for row in rows:
                labels[row[x]] = count
            count += 1
    return tuple(labels)


def orbit_relation(flow: Flow, H: Subgroup) -> EquivRelation:
    """Partition of the points into H-orbits, bound to the flow (so the
    invariance verdict is attached; it holds whenever H is normal). Callers
    that compare the partition with another read `_orbit_labels` instead:
    `is_orbital` and the fourth condition of `structured.verify_thm_orb`."""
    _require_group(flow, "orbit relations need a group flow", H)
    classes: dict[int, list[int]] = {}
    for x, label in enumerate(_orbit_labels(flow, H)):
        classes.setdefault(label, []).append(x)
    return EquivRelation(flow.points, tuple(map(tuple, classes.values())), flow)


class WitnessPair(NamedTuple):
    subgroup: Subgroup
    support: frozenset[int]


class RRelationResult(NamedTuple):
    pairs: frozenset[tuple[int, int]]
    reflexive: bool
    symmetric: bool
    transitive: bool
    failure_witness: tuple | None

    @property
    def is_equivalence(self) -> bool:
        return self.reflexive and self.symmetric and self.transitive

    def to_relation(self, flow: Flow) -> EquivRelation:
        if not self.is_equivalence:
            raise NotAWitness(f"relation is not an equivalence: {self.failure_witness}")
        return EquivRelation(flow.points, _classes(flow.points, self.pairs), flow)


def r_pairs(flow: Flow, w: WitnessPair) -> frozenset[tuple[int, int]]:
    """The pairs of r(H, S), the smallest invariant relation relating each
    support point to its subgroup orbit: the set of translates
    (g·s, g·h·s). It is the closure of the seed pairs (s, h·s) under the
    generator maps acting on both coordinates: in a finite group every
    element is a product of generators. The `suites` checks and
    `catalog.run_worb_union_f2` compare these pairs with a relation's and
    read no verdict."""
    _require_group(flow, "witnessed relations need a group flow", w.subgroup, w.support)
    pairs = {(s, flow.act(h, s))
             for s in w.support for h in w.subgroup.members}
    frontier = list(pairs)
    gens = flow.generator_maps()
    for a, b in frontier:
        for m in gens:
            pair = (m[a], m[b])
            if pair not in pairs:
                pairs.add(pair)
                frontier.append(pair)
    return frozenset(pairs)


def r_relation(flow: Flow, w: WitnessPair) -> RRelationResult:
    """The closure `r_pairs` with its verdicts: whether the relation is
    reflexive, symmetric and transitive (transitivity can genuinely fail),
    and a witness of the first that fails. Read by
    `catalog.run_affine_f2`, whose pairs must each produce an equivalence,
    and by the property tests; callers that compare pairs alone call
    `r_pairs`."""
    pairs, n = r_pairs(flow, w), flow.points
    reflexive = all((x, x) in pairs for x in range(n))
    witness = None
    if not reflexive:
        witness = ("irreflexive", next(x for x in range(n) if (x, x) not in pairs))
    symmetric = all((b, a) in pairs for (a, b) in pairs)
    if symmetric is False and witness is None:
        witness = ("asymmetric", next((a, b) for (a, b) in pairs if (b, a) not in pairs))
    adj: dict[int, set[int]] = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
    transitive = True
    for a, outs in adj.items():
        for b in outs:
            if not adj.get(b, set()) <= outs:
                transitive = False
                if witness is None:
                    c = next(iter(adj[b] - outs))
                    witness = ("intransitive", (a, b, c))
                break
        if not transitive:
            break
    return RRelationResult(pairs, reflexive, symmetric, transitive, witness)


def fix_set(E: EquivRelation, H: Subgroup) -> frozenset[int]:
    """Points equivalent to all their H-translates; always a union of
    E-classes when E is an equivalence relation."""
    flow, _ = _require_group_bound(E, H)
    return frozenset(
        x for x in range(flow.points)
        if all(E.same(x, flow.act(h, x)) for h in H.members)
    )


def _orbitals(E: EquivRelation) -> tuple[dict[int, int], int]:
    """Number the orbitals inside E, the G-orbits on its pairs, 0..k-1 by
    one walk over the generator maps restricted to E's pairs (E must be
    invariant). Returns the bit 1 << i of each pair index a·n+b of E in
    orbital i, and the bit 1 << k, which marks a pair outside E."""
    n, gens = E.points, E.flow.generator_maps()
    bit, out = {}, 1
    for p in (a * n + b for cls in E.classes for a in cls for b in cls):
        if p not in bit:
            bit[p], orbit = out, [p]
            for q in orbit:
                for m in gens:
                    r = m[q // n] * n + m[q % n]
                    if r not in bit:
                        bit[r] = out
                        orbit.append(r)
            out <<= 1
    return bit, out


def _seeds(flow: Flow, bit: dict[int, int], out: int, H: Subgroup):
    """R_H and the fix-set of H: R_H[s] holds the orbitals of the seeds
    (s, h·s), h in H, as the bits of `_orbitals`, with `out` set when a seed
    leaves E; s is in the fix-set iff none does."""
    n, rows = flow.points, [flow.maps[h] for h in H.members]
    R = [reduce(or_, {bit.get(s * n + row[s], out) for row in rows}) for s in range(n)]
    return R, frozenset(s for s, r in enumerate(R) if not r & out)


def _witnessed(R: list[int], support) -> int:
    """The orbitals (and `out`) holding a seed of some support point."""
    return reduce(or_, map(R.__getitem__, support), 0)


def _subgroup_witnesses(E: EquivRelation, caps: Caps):
    """For each subgroup H in canonical order, (H, fix_set(E, H), R_H,
    whether (H, fix-set) witnesses E), with R_H and the fix-set from
    `_seeds`. E is invariant, so it is a union of orbitals, and r(H, S) is
    the union of the orbitals of the seeds (s, h·s), s in S: (H, S)
    witnesses E iff no seed leaves E and the seeds meet every orbital
    inside E, that is iff _witnessed(R_H, S) is `out` - 1."""
    flow, G = _require_group_bound(E)
    if not E.invariant:
        raise NotInvariant(E.invariance_witness)
    bit, out = _orbitals(E)
    for H in enumerate_subgroups(G, caps=caps):
        R, fix = _seeds(flow, bit, out, H)
        yield H, fix, R, bool(fix) and _witnessed(R, fix) == out - 1


def stabilizing_elements(E: EquivRelation, support) -> frozenset[int]:
    """Group elements g with s ~ g·s for every support point s."""
    flow, G = _require_group_bound(E, support=support)
    return frozenset(
        g for g in G.elements()
        if all(E.same(s, flow.act(g, s)) for s in support)
    )


def maximal_witnesses(E: EquivRelation, w: WitnessPair) -> WitnessPair:
    """The fixpoint of alternating support maximization (the fix-set) and
    subgroup maximization (the stabilizer), reached in one step as
    (stab(fix(H)), fix(H)) (module docstring). Requires that the pair
    witnesses E, checked with the orbital test of `_subgroup_witnesses` (a
    relation that is not invariant has no witness)."""
    flow, G = _require_group_bound(E, w.subgroup, w.support)
    if not E.invariant:
        raise NotAWitness("pair does not produce the given relation")
    bit, out = _orbitals(E)
    R, support = _seeds(flow, bit, out, w.subgroup)
    if _witnessed(R, w.support) != out - 1:
        raise NotAWitness("pair does not produce the given relation")
    return WitnessPair(Subgroup(G, stabilizing_elements(E, support)), support)


class OrbitalityVerdict(NamedTuple):
    orbital: bool
    kernel: Subgroup
    counterexample: tuple | None

    def __bool__(self):
        return self.orbital


def is_orbital(E: EquivRelation) -> OrbitalityVerdict:
    """Orbital means equal to the orbit relation of the kernel subgroup,
    compared on labels: E's `class_of` against the kernel's orbit labels,
    with no relation built for the orbits. Every caller reads the verdict;
    `cli.cmd_orbital`, the orbital suite and `structured.verify_thm_orb`
    also read the kernel, and none reads an orbit relation."""
    flow, _ = _require_group_bound(E)
    if not E.invariant:
        raise NotInvariant(E.invariance_witness)
    kern = kernel_group(E)
    diff = first_split(E.class_of, _orbit_labels(flow, kern))
    return OrbitalityVerdict(diff is None, kern, diff)


class WeakOrbitalityVerdict(NamedTuple):
    weakly_orbital: bool
    witness: WitnessPair | None
    subgroups_checked: int

    def __bool__(self):
        return self.weakly_orbital


def is_weakly_orbital(E: EquivRelation, caps: Caps = DEFAULT_CAPS) -> WeakOrbitalityVerdict:
    """Loop over all subgroups in canonical order. For each candidate
    subgroup the maximal support is forced (points equivalent to all their
    translates), so testing the pair (H, fix_set(H)) is complete: any other
    support witnessing with H is contained in the fix-set, and enlarging
    the support of a witness preserves the relation. Each pair is tested on
    E's own orbitals, not by a pair closure."""
    checked = 0
    for H, support, _, witnesses in _subgroup_witnesses(E, caps):
        checked += 1
        if witnesses:
            return WeakOrbitalityVerdict(True, WitnessPair(H, support), checked)
    return WeakOrbitalityVerdict(False, None, checked)


class CorrespondenceReport(NamedTuple):
    entries: tuple[tuple[tuple[int, ...], int], ...]  # (normal subgroup, class count)


def free_action_correspondence(flow: Flow, caps: Caps = DEFAULT_CAPS) -> CorrespondenceReport:
    """On a free action, normal subgroups biject with orbital relations:
    N -> its orbit relation, recovered by the kernel. Only freeness is
    checked; the bijection holds by construction (module docstring). Lists
    each normal subgroup with the class count of its orbit relation."""
    G = _require_group(flow, "needs a group flow")
    for g in G.elements():
        if g == G.identity:
            continue
        for x in range(flow.points):
            if flow.act(g, x) == x:
                raise NotFree(g, x)
    return CorrespondenceReport(tuple(
        (N.sorted_members, len(orbit_relation(flow, N).classes))
        for N in enumerate_subgroups(G, caps=caps) if N.is_normal()))


def _classes(n: int, pairs, maps=()) -> tuple[tuple[int, ...], ...]:
    """The classes of the smallest equivalence on 0..n-1 that relates every
    pair and is closed under the maps (x ~ y gives m[x] ~ m[y]), each sorted
    and listed by least point. One union-find pass: each merge of two
    classes queues the images of the merging pair, which suffices because
    the merging pairs generate the equivalence (Atkinson 1975)."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    work = list(pairs)
    for a, b in work:
        ra, rb = find(a), find(b)
        if ra != rb:
            root[max(ra, rb)] = min(ra, rb)
            work.extend((m[a], m[b]) for m in maps)
    classes: dict[int, list[int]] = {}
    for x in range(n):
        classes.setdefault(find(x), []).append(x)
    return tuple(map(tuple, classes.values()))


def invariant_relations(flow: Flow, caps: Caps = DEFAULT_CAPS):
    """All invariant equivalence relations of a flow, in the lexicographic
    order of their restricted-growth labellings `class_of`. Every invariant
    equivalence is a join of principal ones. The principal relation
    theta(a, b), the smallest invariant equivalence relating a and b, is one
    union-find closure over the generator maps (Atkinson, Math. Comp. 29,
    1975), and closing equality and the principal relations under joins
    gives the whole lattice (Freese, Algebra Universalis 59, 2008). A join
    E ∨ theta(a, b) with a ~E b is E itself and is skipped. Every member is
    invariant (module docstring). The lattice size is bounded by
    `lattice_cap`."""
    n, maps = flow.points, flow.generator_maps()
    # on a group flow theta(g·a, g·b) = theta(a, b): one a per orbit will do
    firsts = [orb[0] for orb in orbits(flow)] if flow.is_group_flow else range(n)
    principal = {_classes(n, [(a, b)], maps): (a, b)     # one generating pair each
                 for a in firsts for b in range(n) if b != a}
    lattice = [_classes(n, ())]
    seen = set(lattice)
    for E in lattice:
        least = {x: cls[0] for cls in E for x in cls}
        for P, (a, b) in principal.items():
            if least[a] == least[b]:    # E is invariant, so E contains P
                continue
            J = _classes(n, [(cls[0], x) for cls in E + P for x in cls[1:]])
            if J not in seen:
                seen.add(J)
                lattice.append(J)
                if len(lattice) > caps.lattice_cap:
                    raise SizeCapExceeded(len(lattice), caps.lattice_cap,
                                          "invariant relation lattice")
    yield from sorted((EquivRelation(n, classes, flow) for classes in lattice),
                      key=lambda E: E.class_of)
