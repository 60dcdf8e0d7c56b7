"""Group-like relations on ambits and the identification of the class space
with a quotient of the ideal group of the enveloping semigroup.

A relation E on a pointed transitive action is group-like when the recipe
"class of g·basepoint times class of x is the class of g·x" gives a group
operation on the classes. This needs E invariant (second argument) and the
basepoint-class stabilizer K to fix every class (first argument). The
class group is then G/K from `quotient_group`, transported to class indices
along coset of g -> class of g·basepoint.

Every check here that a map respects products runs over generators only,
by the argument in the `algebra` module docstring (the class law, the
orbit map, left invariance under domination and the cover-group
homomorphism of a proper witness). The facts below hold by construction
and are not re-checked; their literal forms run as seeded property tests
against `tests/oracles.py`:
- K is normal: once it fixes every class it is the class-wise stabilizer
  of an invariant relation (`relations` module docstring).
- The classes are the cosets of K along g -> class of g·x0: for an
  invariant E, gK = hK iff h⁻¹g·x0 ~ x0 iff g·x0 ~ h·x0.
- The cosets of D, the ideal-group elements that agree with u at x0, are
  the fibers of evaluation at x0: i⁻¹j ∈ D iff i(x0) = j(x0), because
  s·u = s for every s in u·M.
On a group flow the enveloping semigroup is a permutation group, whose
only idempotent is the identity map, so the idempotent of the ideal group
moves no class either. A relation
is weakly group-like when a group-like relation on another ambit dominates
it; finitely, every invariant relation on a transitive group ambit is
dominated from the regular ambit, so the quotient identification applies to
all of them.

`identify_quotient` takes an invariant E on a transitive group ambit, the
two input conditions it checks, and an ideal group of the ambit's flow's
enveloping semigroup, which its caller built (checked to be that flow's);
it builds no closure, ideal, group or quotient. There Ĝ is that ideal group
and the identification is orbit-stabilizer, so none of its parts is
re-checked:
- E is dominated from the regular ambit: the coset relation of the
  basepoint-class stabilizer K when K is normal, else equality. Both are
  group-like; g -> g·x0 is an equivariant surjection; it maps each coset gK
  into the class of g·x0, since K fixes x0's class and E is invariant; and
  the induced relation is left invariant and onto, since E is invariant
  and the action transitive. So `default_domination` and
  `check_domination` would only re-prove the input conditions.
- Ĝ, the ideal group u·M modulo the normal core of H(u·M)·D, is u·M: the
  closure is G's faithful image, a group, so u is the identity map; H(u·M)
  is {u} (`ellis` module docstring), and D, the members fixing x0, has a
  core that fixes every point g·x0, so core(H·D) = {u} and every coset is
  one element. So Ĝ is read as the ideal group, and each member f gives
  the class of f(x0).
- The classes are reached: the action is transitive. So the reached
  classes counted, `class_count`, are |X/E|.
- The fibers are the stabilizer's cosets: E is invariant, so f(x0) ~
  f'(x0) iff f'⁻¹f ∈ H.
- |X/E|·|H| = |Ĝ| is Lagrange's theorem.
- The identification is equivariant: [g·f(x0)] = [g·x] for x ~ f(x0), by
  invariance.
The same facts make `orbit_map_r` onto the class group on such an ambit,
with the identity map, the only idempotent, sent to the class group's
identity; it checks only that the map is multiplicative, which a caller's
wrong certificate breaks.

`check_domination` returns no "not onto" refutation: its target relation
lives on the target flow's points (an input check), `flows.check_morphism`
has checked that the point map reaches every one of them, and each
source class maps into one target class once refinement holds, so every
target class is the image of the source class of any point over it.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import (
    FiniteGroup,
    Subgroup,
    _require_generating,
    quotient_group,
)
from .ellis import EllisSemigroup, IdealGroup
from .errors import (
    GroupMismatch,
    NotEquivalence,
    NotWeaklyGroupLike,
    TheoremViolation,
)
from .flows import (
    Ambit,
    FlowMorphism,
    check_morphism,
    make_ambit,
    regular_flow,
    transporters,
)
from .relations import (
    EquivRelation,
    _class_break,
    orbit_relation,
    stabilizing_elements,
)


class GroupLikeCertificate(NamedTuple):
    ambit: Ambit
    relation: EquivRelation
    quotient_group: FiniteGroup   # on class indices of the relation
    kernel: Subgroup              # elements moving the basepoint inside its class


class GroupLikeVerdict(NamedTuple):
    group_like: bool
    certificate: GroupLikeCertificate | None
    refutation: tuple | None

    def __bool__(self):
        return self.group_like


def check_group_like(ambit: Ambit, E: EquivRelation) -> GroupLikeVerdict:
    """Certificate or refutation for group-likeness of E on the ambit.

    The class group is G/K, K the stabilizer of the basepoint's class, from
    `quotient_group`, transported to class indices along coset of g ->
    class of g·basepoint (its fibers are the cosets of K, module
    docstring). Once
    the class law [g·x0]·[x] = [g·x] holds for every generator g and every
    x, it holds for every g, and the table is the group law on classes, so
    no group axiom needs its own check."""
    flow = ambit.flow
    if not flow.is_group_flow:
        raise NotEquivalence("group-likeness needs a group flow")
    bound = E.bind(flow)
    G = flow.group
    x0 = ambit.basepoint
    if not bound.invariant:
        return GroupLikeVerdict(False, None, ("not invariant",) + bound.invariance_witness)
    kernel_members = stabilizing_elements(bound, (x0,))
    # the kernel must fix every class, i.e. lie inside the relation's kernel
    for k in sorted(kernel_members):
        for x in range(flow.points):
            if not bound.same(flow.act(k, x), x):
                return GroupLikeVerdict(False, None, (k, G.identity, x))
    kernel = Subgroup(G, kernel_members)
    if None in transporters(flow, x0):
        raise NotWeaklyGroupLike("action is not transitive")

    class_of = bound.class_of
    quo = quotient_group(G, kernel)
    orbit_class = [class_of[flow.act(g, x0)] for g in G.elements()]
    k = len(bound.classes)
    cls = [None] * k                # coset index -> class index
    pos = [None] * k                # class index -> coset index
    for c, ci in zip(orbit_class, quo.projection):
        cls[ci], pos[c] = c, ci
    q = quo.group
    table = tuple(tuple(cls[q.mul[pos[c1]][pos[c2]]] for c2 in range(k))
                  for c1 in range(k))
    # the class law: class of g·x is [g·x0]·[x] (`algebra` module docstring)
    for g in flow.generator_elements():
        c1 = class_of[flow.act(g, x0)]
        for x in range(flow.points):
            if class_of[flow.act(g, x)] != table[c1][class_of[x]]:
                raise TheoremViolation("class product ill-defined", (g, x, c1))
    qgroup = FiniteGroup(table, class_of[x0], tuple(cls[q.inverse[c]] for c in pos),
                         gens=tuple(cls[g] for g in q.gens))
    return GroupLikeVerdict(True, GroupLikeCertificate(ambit, bound, qgroup, kernel), None)


def orbit_map_r(ambit: Ambit, cert: GroupLikeCertificate,
                S: EllisSemigroup) -> tuple[int, ...]:
    """Evaluation at the basepoint followed by the class map, semigroup
    element -> class index: a homomorphism onto the class group, checked
    multiplicative over the generators (`algebra` module docstring); a
    violation is a structural failure. On a transitive group ambit it is
    onto, and the identity map, the only idempotent, lies in its kernel,
    by construction (module docstring)."""
    E = cert.relation
    x0 = ambit.basepoint
    values = tuple(E.class_of[f[x0]] for f in S.maps)
    q = cert.quotient_group
    for g in S.generators:
        left_g, row = S.times(g), q.mul[values[g]]
        for j in range(S.size):
            if values[left_g[j]] != row[values[j]]:
                raise TheoremViolation("orbit map not multiplicative", (g, j))
    return values


def compute_D(G_ideal: IdealGroup, ambit: Ambit) -> Subgroup:
    """Elements of the ideal group whose basepoint value matches the
    idempotent's; its left cosets are exactly the fibers of evaluation at
    the basepoint (module docstring)."""
    maps = G_ideal.parent.maps
    x0 = ambit.basepoint
    values = [maps[s][x0] for s in G_ideal.members]
    base_value = maps[G_ideal.idempotent][x0]
    return Subgroup(G_ideal.group_view,
                    frozenset(i for i, v in enumerate(values) if v == base_value))


class DominationWitness(NamedTuple):
    source: Ambit                   # the dominating ambit
    source_relation: EquivRelation  # group-like relation on it
    morphism: FlowMorphism          # onto the target ambit
    target_relation: EquivRelation


class DominationVerdict(NamedTuple):
    dominates: bool
    refutation: tuple | None
    orbit_map: tuple[int, ...] | None  # source class -> target class

    def __bool__(self):
        return self.dominates


def check_domination(w: DominationWitness) -> DominationVerdict:
    """Refinement plus left-invariance of the induced relation on the
    source quotient group; returns the induced surjection of class spaces,
    onto by construction (module docstring). A target relation on other
    points than the morphism's target flow is an input error."""
    if w.target_relation.points != w.morphism.target.flow.points:
        raise NotEquivalence("relation on the wrong point set")
    rep = check_morphism(w.morphism)
    if not rep:
        return DominationVerdict(False, ("morphism", rep.witness), None)
    src_verdict = check_group_like(w.source, w.source_relation)
    if not src_verdict:
        return DominationVerdict(False, ("source not group-like",
                                         src_verdict.refutation), None)
    F = src_verdict.certificate.relation
    E = w.target_relation
    pm = w.morphism.point_map
    for cls in F.classes:
        e = E.class_of[pm[cls[0]]]
        bad = next((z for z in cls if E.class_of[pm[z]] != e), None)
        if bad is not None:
            return DominationVerdict(False, ("no refinement", (cls[0], bad)), None)
    # induced relation on source classes, pushed through the morphism
    src_classes = F.classes
    induced = tuple(E.class_of[pm[cls[0]]] for cls in src_classes)
    q = src_verdict.certificate.quotient_group
    for wcls in q.gens:     # left invariance (`algebra` module docstring)
        broken = _class_break(q.mul[wcls], induced, len(E.classes))
        if broken is not None:
            return DominationVerdict(False, ("not left invariant", (wcls,) + broken), None)
    return DominationVerdict(True, None, induced)


def default_domination(ambit: Ambit, E: EquivRelation) -> DominationWitness:
    """Domination discovered from the regular ambit: the coset relation of
    the basepoint-class stabilizer when that subgroup is normal (a tighter
    witness), else equality (which always dominates an invariant relation
    on a transitive ambit)."""
    flow = ambit.flow
    G = flow.group
    x0 = ambit.basepoint
    bound = E.bind(flow)
    if not bound.invariant:
        raise NotWeaklyGroupLike(("not invariant",) + tuple(bound.invariance_witness or ()))
    reg = make_ambit(regular_flow(G), G.identity)
    K = Subgroup(G, stabilizing_elements(bound, (x0,)))
    if K.is_normal():
        F = orbit_relation(reg.flow, K)  # orbits = cosets; normal, so invariant
    else:
        F = EquivRelation(G.order, tuple((g,) for g in G.elements()), reg.flow)
    pm = tuple(flow.act(g, x0) for g in G.elements())
    morphism = FlowMorphism(reg, ambit, pm)
    return DominationWitness(reg, F, morphism, bound)


class IdentificationReport(NamedTuple):
    ghat: FiniteGroup               # the ideal group (module docstring)
    stabilizer: Subgroup            # of ghat
    class_count: int                # classes the identification reaches
    coset_to_class: tuple[int, ...]


def identify_quotient(ambit: Ambit, E: EquivRelation,
                      IG: IdealGroup) -> IdentificationReport:
    """The central identification: Ĝ is IG, an ideal group of the
    enveloping semigroup of the ambit's flow that the caller built; read
    the class of each member's basepoint value, an equivariant bijection
    between Ĝ modulo the basepoint-class stabilizer and the class space
    whose fibers are the stabilizer's left cosets (orbit-stabilizer,
    module docstring). It reads IG's members and their maps and builds no
    ideal, group or quotient.
    E must be invariant and the ambit transitive; either failure raises
    NotWeaklyGroupLike with its witness. IG of another flow's semigroup
    raises GroupMismatch."""
    flow = ambit.flow
    if not flow.is_group_flow:
        raise NotWeaklyGroupLike("needs a group flow")
    S = IG.parent
    if S.flow is not flow:
        raise GroupMismatch("semigroup of another flow than the ambit's")
    bound = E.bind(flow)
    if not bound.invariant:
        raise NotWeaklyGroupLike(("not invariant",) + tuple(bound.invariance_witness or ()))
    x0 = ambit.basepoint
    # transitive: the orbit map g -> g·x0 of the regular ambit is onto
    reached = {flow.act(g, x0) for g in flow.group.elements()}
    unreached = set(range(flow.points)) - reached
    if unreached:
        raise NotWeaklyGroupLike(("morphism", ("unreached", min(unreached))))

    class_of = bound.class_of
    rhat = tuple(class_of[S.maps[s][x0]] for s in IG.members)  # member -> class
    H = Subgroup(IG.group_view,
                 frozenset(c for c, v in enumerate(rhat) if v == class_of[x0]))
    coset_to_class = tuple(dict.fromkeys(rhat))
    return IdentificationReport(IG.group_view, H, len(coset_to_class), coset_to_class)


# -- properly and uniformly properly group-like witnesses ---------------------

class ProperWitness(NamedTuple):
    cover_group: FiniteGroup
    fiber_map: tuple[int, ...]   # cover element -> point
    ambit: Ambit
    relation: EquivRelation


class ProperWitnessVerdict(NamedTuple):
    valid: bool
    homomorphism: bool
    pseudocomplete: bool
    surjective: bool
    quotient_set: frozenset[int]   # points [g1^-1 g2] over fiber-equal pairs
    refutation: tuple | None

    def __bool__(self):
        return self.valid


def check_proper_witness(pw: ProperWitness) -> ProperWitnessVerdict:
    """Three checks: the induced map to the class group is a homomorphism,
    checked on the cover group's generators, which must generate it (this
    leg already fails when the relation is not group-like, since then
    there is no class group); finite pseudocompleteness (all limit triples
    are realized by cover elements, with nets replaced by their eventually
    constant values); and the fiber-difference set is computed (closedness
    is automatic). Pseudocompleteness and the fiber-difference set are
    still evaluated when the homomorphism leg fails."""
    flow = pw.ambit.flow
    G = flow.group
    GT = pw.cover_group
    _require_generating(GT)
    fm = pw.fiber_map
    if len(fm) != GT.order or any(not 0 <= x < flow.points for x in fm):
        return ProperWitnessVerdict(False, False, False, False, frozenset(),
                                    ("fiber map shape",))
    surjective = len(set(fm)) == flow.points
    refutation = None
    if not surjective:
        refutation = ("fiber map not onto",
                      min(set(range(flow.points)) - set(fm)))
    cert_verdict = check_group_like(pw.ambit, pw.relation)
    if cert_verdict:
        cert = cert_verdict.certificate
        E = cert.relation
        q = cert.quotient_group
        # a homomorphism on generators is one (`algebra` module docstring)
        phi = [E.class_of[x] for x in fm]
        bad = next(((a, b) for a in GT.gens for b in GT.elements()
                    if phi[GT.mul[a][b]] != q.mul[phi[a]][phi[b]]), None)
        hom = bad is None
        if bad is not None and refutation is None:
            refutation = ("not a homomorphism", bad)
    else:
        hom = False
        if refutation is None:
            refutation = ("relation not group-like", cert_verdict.refutation)
    x0 = pw.ambit.basepoint
    fibers: dict[int, list[int]] = {}
    for gt, x in enumerate(fm):
        fibers.setdefault(x, []).append(gt)
    pseudocomplete = True
    for g in G.elements():
        gx0 = flow.act(g, x0)
        for p in range(flow.points):
            target = flow.act(g, p)
            ok = any(
                fm[GT.mul[g1][g2]] == target
                for g1 in fibers.get(gx0, ())
                for g2 in fibers.get(p, ())
            )
            if not ok:
                pseudocomplete = False
                if refutation is None:
                    refutation = ("pseudocompleteness", (g, p))
                break
        if not pseudocomplete:
            break
    quotient_set = frozenset(
        fm[GT.mul[GT.inverse[g1]][g2]]
        for x, fiber in fibers.items()
        for g1 in fiber
        for g2 in fiber
    )
    valid = surjective and hom and pseudocomplete
    return ProperWitnessVerdict(valid, hom, pseudocomplete, surjective,
                                quotient_set, refutation)


class UniformWitnessFamily(NamedTuple):
    members: tuple[frozenset[tuple[int, int]], ...]
    successor: tuple[int, ...]   # index of D' for each member D


class UniformWitnessVerdict(NamedTuple):
    valid: bool
    refutation: tuple | None

    def __bool__(self):
        return self.valid


def check_uniform_witness(E: EquivRelation, fam: UniformWitnessFamily,
                          pw: ProperWitness) -> UniformWitnessVerdict:
    """Symmetric reflexive approximations whose union is the relation, each
    composition-dominated by its successor, satisfying the translation
    condition at the basepoint."""
    pw_verdict = check_proper_witness(pw)
    if not pw_verdict:
        return UniformWitnessVerdict(False, ("proper witness invalid",
                                             pw_verdict.refutation))
    n = E.points
    if len(fam.successor) != len(fam.members) or any(
            not 0 <= i < len(fam.members) for i in fam.successor):
        return UniformWitnessVerdict(False, ("successor map shape",))
    for idx, D in enumerate(fam.members):
        for (a, b) in D:
            if (b, a) not in D:
                return UniformWitnessVerdict(False, ("not symmetric", (idx, a, b)))
        for x in range(n):
            if (x, x) not in D:
                return UniformWitnessVerdict(False, ("diagonal missing", (idx, x)))
    union = frozenset().union(*fam.members) if fam.members else frozenset()
    if union != E.pairs():
        return UniformWitnessVerdict(False, ("union differs from relation",
                                             len(union ^ E.pairs())))
    for idx, D in enumerate(fam.members):
        succ = fam.members[fam.successor[idx]]
        by_left: dict[int, set[int]] = {}
        for (a, b) in D:
            by_left.setdefault(a, set()).add(b)
        for (a, b) in D:
            for c in by_left.get(b, ()):
                if (a, c) not in succ:
                    return UniformWitnessVerdict(False,
                                                 ("composition escapes successor",
                                                  (idx, a, b, c)))
    GT = pw.cover_group
    fm = pw.fiber_map
    x0 = pw.ambit.basepoint
    for idx, D in enumerate(fam.members):
        succ = fam.members[fam.successor[idx]]
        for gt in range(GT.order):
            if (x0, fm[gt]) not in D:
                continue
            for gt2 in range(GT.order):
                pair = (fm[gt2], fm[GT.mul[gt][gt2]])
                if pair not in succ:
                    return UniformWitnessVerdict(False,
                                                 ("translation condition",
                                                  (idx, gt, gt2)))
    return UniformWitnessVerdict(True, None)
