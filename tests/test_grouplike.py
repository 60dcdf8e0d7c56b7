import pytest

import oracles
from elliskit import ellis, grouplike, suites
from elliskit.algebra import (
    FiniteGroup,
    are_isomorphic,
    direct_product,
    enumerate_subgroups,
    named_group,
    subgroup_generated,
)
from elliskit.ellis import (
    enveloping_semigroup,
    ideal_group,
    minimal_left_ideals,
)
from elliskit.errors import (
    InvalidArgument,
    NotEquivalence,
    NotWeaklyGroupLike,
    TheoremViolation,
)
from elliskit.flows import make_ambit, natural_flow, regular_flow, transformation_flow
from elliskit.grouplike import (
    DominationWitness,
    ProperWitness,
    UniformWitnessFamily,
    check_domination,
    check_group_like,
    check_proper_witness,
    check_uniform_witness,
    compute_D,
    default_domination,
    identify_quotient,
    orbit_map_r,
)
from elliskit.flows import FlowMorphism
from elliskit.relations import (
    equality_relation,
    invariant_relations,
    make_relation,
    orbit_relation,
    total_relation,
)
from elliskit.suites import run_suite


def s3():
    return named_group("symmetric", n=3)


def regular_ambit(G):
    return make_ambit(regular_flow(G), G.identity)


# ---- group-likeness -----------------------------------------------------------

def test_equality_on_regular_ambit_group_like():
    G = s3()
    amb = regular_ambit(G)
    verdict = check_group_like(amb, equality_relation(G.order))
    assert verdict
    cert = verdict.certificate
    assert cert.kernel.members == {G.identity}
    assert are_isomorphic(cert.quotient_group, G)


def test_total_relation_group_like():
    amb = make_ambit(natural_flow(s3()), 0)
    verdict = check_group_like(amb, total_relation(3))
    assert verdict and verdict.certificate.quotient_group.order == 1


def test_right_cosets_of_non_normal_refuted():
    G = s3()
    amb = regular_ambit(G)
    t = next(g for g in G.elements() if G.element_order(g) == 2)
    H = subgroup_generated(G, [t])
    E = orbit_relation(amb.flow, H)  # right cosets; not invariant
    verdict = check_group_like(amb, E)
    assert not verdict
    assert verdict.refutation is not None


def test_equality_on_natural_s3_not_group_like():
    # the basepoint stabilizer moves other points, so the class operation
    # is ill-defined in its first argument
    amb = make_ambit(natural_flow(s3()), 0)
    verdict = check_group_like(amb, equality_relation(3))
    assert not verdict
    g, gprime, x = verdict.refutation
    f = amb.flow
    assert f.act(g, 0) == f.act(gprime, 0)
    assert f.act(g, x) != f.act(gprime, x)


def test_normal_coset_relation_group_like():
    G = s3()
    amb = regular_ambit(G)
    a3 = next(s for s in enumerate_subgroups(G) if s.order == 3)
    E = orbit_relation(amb.flow, a3)
    verdict = check_group_like(amb, E)
    assert verdict
    assert verdict.certificate.quotient_group.order == 2
    assert verdict.certificate.kernel.members == a3.members


# ---- orbit map ------------------------------------------------------------------

def test_orbit_map_total_relation():
    amb = make_ambit(natural_flow(s3()), 0)
    cert = check_group_like(amb, total_relation(3)).certificate
    S = enveloping_semigroup(amb.flow)
    values = orbit_map_r(amb, cert, S)
    assert set(values) == {cert.quotient_group.identity}


def test_orbit_map_z6_cosets():
    G = named_group("cyclic", n=6)
    amb = regular_ambit(G)
    E = orbit_relation(amb.flow, subgroup_generated(G, [3]))
    cert = check_group_like(amb, E).certificate
    S = enveloping_semigroup(amb.flow)
    values = orbit_map_r(amb, cert, S)
    assert len(set(values)) == 3
    kernel = {i for i, v in enumerate(values)
              if v == cert.quotient_group.identity}
    assert {S.maps[i][0] for i in kernel} == {0, 3}


def test_orbit_map_rejects_the_table_of_another_group():
    # Z4's class group with the table of Z2 x Z2 put in its place
    G = named_group("cyclic", n=4)
    amb = regular_ambit(G)
    cert = check_group_like(amb, equality_relation(4)).certificate
    z2 = named_group("cyclic", n=2)
    klein = direct_product(z2, z2)
    assert cert.quotient_group.identity == klein.identity == 0
    wrong = cert._replace(quotient_group=klein)
    with pytest.raises(TheoremViolation, match="orbit map not multiplicative"):
        orbit_map_r(amb, wrong, enveloping_semigroup(amb.flow))


def test_class_law_rejects_the_table_of_another_group(monkeypatch):
    # G/K for K trivial in Z4, with the table of Z2 x Z2 on the same cosets
    z2 = named_group("cyclic", n=2)
    quotient = grouplike.quotient_group
    monkeypatch.setattr(grouplike, "quotient_group", lambda G, N: quotient(
        G, N)._replace(group=direct_product(z2, z2)))
    amb = regular_ambit(named_group("cyclic", n=4))
    with pytest.raises(TheoremViolation, match="class product ill-defined"):
        check_group_like(amb, equality_relation(4))


# ---- basepoint stabilizer in the ideal group -----------------------------------

def test_D_trivial_on_regular_ambit():
    G = s3()
    amb = regular_ambit(G)
    S = enveloping_semigroup(amb.flow)
    M = minimal_left_ideals(S)[0]
    IG = ideal_group(M, M.idempotents[0])
    D = compute_D(IG, amb)
    assert D.order == 1


def test_D_is_point_stabilizer_on_natural_s3():
    amb = make_ambit(natural_flow(s3()), 0)
    S = enveloping_semigroup(amb.flow)
    M = minimal_left_ideals(S)[0]
    IG = ideal_group(M, M.idempotents[0])
    D = compute_D(IG, amb)
    assert D.order == 2
    assert not D.is_normal()


def test_D_on_collapsing_transformation_instance():
    # swap + constant: the minimal ideal is the two constants, each ideal
    # group is trivial, so D is trivial at each idempotent
    f = transformation_flow([(1, 0), (0, 0)])
    amb = make_ambit(f, 0)
    S = enveloping_semigroup(f)
    M = minimal_left_ideals(S)[0]
    for u in M.idempotents:
        IG = ideal_group(M, u)
        D = compute_D(IG, amb)
        assert D.order == 1


def identify(amb, E):
    """`identify_quotient` on the first ideal group of the ambit's closure,
    its Ĝ checked against the formula (`oracles.ghat`): the core of H·D is
    trivial, and the quotient's table, on one-element cosets in the ideal
    group's order, is the ideal group's."""
    S = enveloping_semigroup(amb.flow)
    M = minimal_left_ideals(S)[0]
    IG = ideal_group(M, M.idempotents[0])
    rep = identify_quotient(amb, E, IG)
    members, core, cosets, table = oracles.ghat(
        oracles.composition_table(oracles.elements_of(S)), M.members,
        IG.idempotent, [m[amb.basepoint] for m in S.maps])
    assert rep.ghat is IG.group_view and members == IG.members
    assert core == {IG.group_view.identity}
    assert cosets == [(i,) for i in range(len(members))]
    assert table == tuple(map(tuple, IG.group_view.mul))
    return rep


def test_ghat_regular_ambit():
    G = s3()
    amb = regular_ambit(G)
    assert identify(amb, equality_relation(6)).ghat.order == 6


def test_ghat_natural_s3():
    amb = make_ambit(natural_flow(s3()), 0)
    ghat = identify(amb, equality_relation(3)).ghat
    # the core of the point stabilizer is trivial, so nothing is collapsed
    assert ghat.order == 6
    assert are_isomorphic(ghat, s3())


def test_ghat_zn_rotation():
    for n in (3, 4, 5):
        G = named_group("cyclic", n=n)
        amb = make_ambit(natural_flow(G), 0)
        assert are_isomorphic(identify(amb, total_relation(n)).ghat, G)


# ---- domination ------------------------------------------------------------------

def test_self_domination():
    G = s3()
    amb = regular_ambit(G)
    a3 = next(s for s in enumerate_subgroups(G) if s.order == 3)
    E = orbit_relation(amb.flow, a3)
    ident = FlowMorphism(amb, amb, tuple(range(G.order)))
    w = DominationWitness(amb, E, ident, E)
    assert check_domination(w)


def test_equality_on_regular_dominates_everything():
    amb = make_ambit(natural_flow(s3()), 0)
    for E in invariant_relations(amb.flow):
        w = default_domination(amb, E)
        verdict = check_domination(w)
        assert verdict
        assert len(set(verdict.orbit_map)) == len(E.classes)


def test_no_refinement_refuted():
    G = s3()
    amb = regular_ambit(G)
    a3 = next(s for s in enumerate_subgroups(G) if s.order == 3)
    coarse = orbit_relation(amb.flow, a3)
    ident = FlowMorphism(amb, amb, tuple(range(G.order)))
    w = DominationWitness(amb, coarse, ident, equality_relation(G.order))
    verdict = check_domination(w)
    assert not verdict and verdict.refutation[0] == "no refinement"


def test_not_left_invariant_refuted_on_a_generator():
    # equality on regular S3 refines every partition, but left
    # multiplication does not carry the right cosets of an order-2
    # subgroup into one another
    G = s3()
    amb = regular_ambit(G)
    t = next(g for g in G.elements() if G.element_order(g) == 2)
    E = orbit_relation(amb.flow, subgroup_generated(G, [t]))
    src = equality_relation(G.order)
    ident = FlowMorphism(amb, amb, tuple(range(G.order)))
    verdict = check_domination(DominationWitness(amb, src, ident, E))
    assert verdict.refutation == ("not left invariant", (1, 0, 2))
    w, c1, c2 = verdict.refutation[1]
    q = check_group_like(amb, src).certificate.quotient_group
    assert w in q.gens
    assert E.same(c1, c2)
    assert not E.same(q.mul[w][c1], q.mul[w][c2])


# ---- quotient identification --------------------------------------------------------

def test_identify_equality_on_natural_s3():
    amb = make_ambit(natural_flow(s3()), 0)
    rep = identify(amb, equality_relation(3))
    assert rep.class_count == 3
    assert rep.ghat.order == 6
    assert rep.stabilizer.order == 2
    assert sorted(rep.coset_to_class) == [0, 1, 2]


def test_identify_total():
    amb = make_ambit(natural_flow(s3()), 0)
    rep = identify(amb, total_relation(3))
    assert rep.class_count == 1
    assert rep.stabilizer.order == rep.ghat.order


def test_identify_z6_cosets():
    G = named_group("cyclic", n=6)
    amb = regular_ambit(G)
    E = orbit_relation(amb.flow, subgroup_generated(G, [2]))
    rep = identify(amb, E)
    assert rep.ghat.order == 6
    assert rep.stabilizer.order == 3
    assert rep.class_count == 2


def test_identify_rejects_non_invariant():
    G = s3()
    amb = regular_ambit(G)
    t = next(g for g in G.elements() if G.element_order(g) == 2)
    E = orbit_relation(amb.flow, subgroup_generated(G, [t]))
    with pytest.raises(NotWeaklyGroupLike):
        identify(amb, E)


def test_identify_all_invariant_relations_small():
    for f in [natural_flow(s3()), natural_flow(named_group("dihedral", n=4))]:
        amb = make_ambit(f, 0)
        for E in invariant_relations(f):
            rep = identify(amb, E)
            assert rep.class_count * rep.stabilizer.order == rep.ghat.order


def test_the_grouplike_suite_builds_one_closure_per_instance(monkeypatch):
    """No second closure per instance and no re-proved domination: the one
    enveloping semigroup of each instance is the suite's, which
    `identify_quotient` reads (`suites` module docstring)."""
    calls = {"enveloping_semigroup": 0, "check_domination": 0,
             "default_domination": 0}

    def counted(name, original):
        def count(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return count

    build = counted("enveloping_semigroup", ellis.enveloping_semigroup)
    for module in (ellis, suites):
        monkeypatch.setattr(module, "enveloping_semigroup", build)
    for name in ("check_domination", "default_domination"):
        monkeypatch.setattr(grouplike, name, counted(name, getattr(grouplike, name)))
    for n, seed in ((12, 5), (7, 11)):
        calls.update(dict.fromkeys(calls, 0))
        assert run_suite("grouplike", n, seed).passed
        assert calls == {"enveloping_semigroup": n, "check_domination": 0,
                         "default_domination": 0}


def test_identification_reproduces_stabilizer_index():
    # on any transitive instance, the class count equals the index of the
    # basepoint-class stabilizer in the acting group
    for f in [natural_flow(s3()), regular_ambit(named_group("cyclic", n=6)).flow,
              natural_flow(named_group("dihedral", n=4))]:
        amb = make_ambit(f, 0)
        G = f.group
        for E in invariant_relations(f):
            stab = sum(1 for g in G.elements() if E.same(f.act(g, 0), 0))
            rep = identify(amb, E)
            assert rep.class_count == G.order // stab


# ---- proper and uniform witnesses -----------------------------------------------------

def test_proper_witness_regular():
    G = s3()
    amb = regular_ambit(G)
    a3 = next(s for s in enumerate_subgroups(G) if s.order == 3)
    E = orbit_relation(amb.flow, a3)
    pw = ProperWitness(G, tuple(range(G.order)), amb, E)
    verdict = check_proper_witness(pw)
    assert verdict and verdict.homomorphism and verdict.pseudocomplete


def test_proper_witness_s3_natural_total():
    # cover the natural ambit by the group itself through evaluation
    G = s3()
    amb = make_ambit(natural_flow(G), 0)
    fm = tuple(G.perms[g][0] for g in G.elements())
    pw = ProperWitness(G, fm, amb, total_relation(3))
    verdict = check_proper_witness(pw)
    assert verdict
    # the fiber-difference set contains the basepoint
    assert 0 in verdict.quotient_set


def test_proper_witness_non_surjective_refuted():
    G = s3()
    amb = make_ambit(natural_flow(G), 0)
    pw = ProperWitness(G, tuple(0 for _ in G.elements()), amb, total_relation(3))
    verdict = check_proper_witness(pw)
    assert not verdict and not verdict.surjective


def test_proper_witness_evaluation_covering_natural_ambit():
    # covering the natural ambit by evaluation: the homomorphism leg fails
    # (equality is not group-like there: the basepoint stabilizer is not
    # normal), but pseudocompleteness holds and the fiber-difference set is
    # the basepoint's stabilizer orbit, i.e. the fixed-point set
    G = s3()
    amb = make_ambit(natural_flow(G), 0)
    fm = tuple(G.perms[g][0] for g in G.elements())
    pw = ProperWitness(G, fm, amb, equality_relation(3))
    verdict = check_proper_witness(pw)
    assert verdict.surjective
    assert verdict.pseudocomplete
    assert not verdict.homomorphism
    assert verdict.quotient_set == frozenset({0})


def test_proper_witness_rejects_a_cover_group_its_gens_do_not_generate():
    # the homomorphism leg runs over the cover group's generators only
    z4 = named_group("cyclic", n=4)
    short = FiniteGroup(z4.mul, z4.identity, z4.inverse, gens=(2,))
    amb = regular_ambit(z4)
    pw = ProperWitness(short, tuple(range(4)), amb, equality_relation(4))
    with pytest.raises(InvalidArgument, match="gens reach 2 of the group's 4"):
        check_proper_witness(pw)


def test_uniform_witness_single_member():
    G = s3()
    amb = regular_ambit(G)
    a3 = next(s for s in enumerate_subgroups(G) if s.order == 3)
    E = orbit_relation(amb.flow, a3)
    pw = ProperWitness(G, tuple(range(G.order)), amb, E)
    fam = UniformWitnessFamily((E.pairs(),), (0,))
    assert check_uniform_witness(E, fam, pw)


def test_uniform_witness_word_length_chain():
    # distance-k approximations to the coset relation of a generated
    # subgroup, with successor k -> 2k+2
    G = named_group("dihedral", n=4)
    amb = regular_ambit(G)
    gens = [g for g in G.elements() if G.element_order(g) == 2][:2]
    H = subgroup_generated(G, gens)
    E = orbit_relation(amb.flow, H)
    if not E.invariant:
        E = make_relation(G.order, E.classes, amb.flow)
    # word-length balls inside H: D_k relates g to wg for words w of length <= k
    sym_gens = sorted({*gens, *(G.inverse[g] for g in gens)})
    balls = [{G.identity}]
    while True:
        last = balls[-1]
        nxt = set(last)
        for w in last:
            for s in sym_gens:
                nxt.add(G.mul[s][w])
        if nxt == last:
            break
        balls.append(nxt)
    depth = len(balls)
    members = []
    for k in range(depth):
        ball = balls[k]
        members.append(frozenset(
            (x, G.mul[w][x]) for x in G.elements() for w in ball
        ))
    successor = tuple(min(2 * k + 2, depth - 1) for k in range(depth))
    fam = UniformWitnessFamily(tuple(members), successor)
    pw = ProperWitness(G, tuple(range(G.order)), amb, E)
    verdict = check_uniform_witness(E, fam, pw)
    assert verdict, verdict.refutation


def test_uniform_witness_missing_diagonal_refuted():
    G = s3()
    amb = regular_ambit(G)
    a3 = next(s for s in enumerate_subgroups(G) if s.order == 3)
    E = orbit_relation(amb.flow, a3)
    pw = ProperWitness(G, tuple(range(G.order)), amb, E)
    broken = frozenset(p for p in E.pairs() if p != (0, 0))
    fam = UniformWitnessFamily((broken,), (0,))
    verdict = check_uniform_witness(E, fam, pw)
    assert not verdict and verdict.refutation[0] == "diagonal missing"



def a3_cosets():
    """Regular S3 with the cosets of A3 and its proper witness by the group
    itself."""
    G = s3()
    amb = regular_ambit(G)
    a3 = next(s for s in enumerate_subgroups(G) if s.order == 3)
    E = orbit_relation(amb.flow, a3)
    return E, ProperWitness(G, tuple(range(G.order)), amb, E)


def domination_refutation(ambit, source_relation, point_map, target_relation):
    m = FlowMorphism(ambit, ambit, point_map)
    return check_domination(
        DominationWitness(ambit, source_relation, m, target_relation)).refutation


def uniform_refutation(members, successor, pw=None):
    E, regular = a3_cosets()
    return check_uniform_witness(E, UniformWitnessFamily(members, successor),
                                 regular if pw is None else pw).refutation


def raised_message(error, call):
    with pytest.raises(error) as exc:
        call()
    return (str(exc.value),)


def raised_diagnostic(call):
    with pytest.raises(NotWeaklyGroupLike) as exc:
        call()
    return exc.value.diagnostic


def one_sided_pair():
    # the cosets of A3 and one pair across them, without its reverse
    E, _ = a3_cosets()
    y = next(y for y in range(6) if not E.same(0, y))
    return uniform_refutation((E.pairs() | {(0, y)},), (0,))


def translation_breaks():
    # D0 = diagonal + {(e, g), (g, e)}, g of order 3, is its own successor
    # and closed under composition, but (e, g) in D0 asks (g, g·g) in D0
    E, pw = a3_cosets()
    G = pw.cover_group
    e = G.identity
    g = next(x for x in E.classes[E.class_of[e]] if x != e)
    diagonal = frozenset((x, x) for x in G.elements())
    return uniform_refutation((diagonal | {(e, g), (g, e)}, E.pairs()), (0, 1))


DIAGONAL = frozenset((x, x) for x in range(6))
NATURAL = make_ambit(natural_flow(s3()), 0)
COLLAPSED = ProperWitness(s3(), (0,) * 6, NATURAL, total_relation(3))


@pytest.mark.parametrize("refute, first", [
    (lambda: domination_refutation(regular_ambit(s3()), equality_relation(6),
                                   (0,) * 6, equality_relation(6)),
     "morphism"),
    (lambda: domination_refutation(NATURAL, equality_relation(3), (0, 1, 2),
                                   equality_relation(3)),
     "source not group-like"),
    # a target relation on other points than the target flow is an input
    # error; an onto, refining morphism then reaches every class
    (lambda: raised_message(NotEquivalence, lambda: domination_refutation(
        regular_ambit(s3()), equality_relation(6), tuple(range(6)),
        equality_relation(7))),
     "not an equivalence relation: relation on the wrong point set"),
    (lambda: raised_message(NotEquivalence, lambda: domination_refutation(
        regular_ambit(s3()), equality_relation(6), tuple(range(6)),
        equality_relation(5))),
     "not an equivalence relation: relation on the wrong point set"),
    (lambda: raised_diagnostic(lambda: default_domination(
        NATURAL, make_relation(3, [[0, 1], [2]]))),
     "not invariant"),
    (lambda: check_proper_witness(a3_cosets()[1]._replace(fiber_map=(0,) * 5)).refutation,
     "fiber map shape"),
    (lambda: uniform_refutation((a3_cosets()[0].pairs(),), (0,), COLLAPSED),
     "proper witness invalid"),
    (lambda: uniform_refutation((a3_cosets()[0].pairs(),), ()), "successor map shape"),
    (lambda: uniform_refutation((a3_cosets()[0].pairs(),), (5,)), "successor map shape"),
    (lambda: uniform_refutation((a3_cosets()[0].pairs(),), (-1,)), "successor map shape"),
    (one_sided_pair, "not symmetric"),
    (lambda: uniform_refutation((DIAGONAL,), (0,)), "union differs from relation"),
    (lambda: uniform_refutation((a3_cosets()[0].pairs(), DIAGONAL), (1, 1)),
     "composition escapes successor"),
    (translation_breaks, "translation condition"),
], ids=["domination-morphism", "domination-source", "domination-onto",
        "domination-fewer-points",
        "default-domination-invariant", "proper-shape", "uniform-proper",
        "uniform-successor-shape", "uniform-successor-past-end",
        "uniform-successor-negative", "uniform-symmetric", "uniform-union",
        "uniform-composition", "uniform-translation"])
def test_library_verifiers_refute(refute, first):
    """Each refutation of the library-only domination and witness
    verifiers, and `check_domination`'s input error on a target relation
    over the wrong points, fired by one malformed input."""
    assert refute()[0] == first
