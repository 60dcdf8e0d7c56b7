import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliskit.algebra import (
    enumerate_subgroups,
    group_from_permutations,
    named_group,
    subgroup_generated,
)
from elliskit.caps import Caps
from elliskit.errors import (
    GroupMismatch,
    GroupTooLarge,
    InvalidArgument,
    NotAPartition,
    NotAWitness,
    NotFree,
    NotInvariant,
    SizeCapExceeded,
)
from elliskit.flows import coset_flow, natural_flow, regular_flow
from elliskit.relations import (
    WitnessPair,
    equality_relation,
    fix_set,
    free_action_correspondence,
    invariant_relations,
    is_orbital,
    is_weakly_orbital,
    kernel_group,
    make_relation,
    maximal_witnesses,
    orbit_relation,
    r_relation,
    stabilizing_elements,
    total_relation,
)
from oracles import all_partitions, class_formula


def s3():
    return named_group("symmetric", n=3)


def brute_weakly_orbital(E):
    """Oracle: search every (subgroup, support) pair outright."""
    flow = E.flow
    target = E.pairs()
    for H in enumerate_subgroups(flow.group):
        for r in range(1, flow.points + 1):
            for support in itertools.combinations(range(flow.points), r):
                got = r_relation(flow, WitnessPair(H, frozenset(support)))
                if got.pairs == target:
                    return True
    return False


# ---- construction and invariance -------------------------------------------

def test_equality_and_total_invariant():
    f = natural_flow(s3())
    assert equality_relation(3, f).invariant
    assert total_relation(3, f).invariant


def test_bind_keeps_a_relation_already_on_the_flow():
    f = natural_flow(s3())
    E = make_relation(3, [[0, 1], [2]], f)
    assert E.bind(f) is E
    F = make_relation(3, [[0, 1], [2]]).bind(f)
    assert F == E and F.flow is f and F is not E and not F.invariant


def test_partition_validation():
    with pytest.raises(NotAPartition):
        make_relation(3, [[0, 1], [1, 2]])
    with pytest.raises(NotAPartition):
        make_relation(3, [[0, 1]])
    with pytest.raises(NotAPartition):
        make_relation(3, [[0, 1, 2, 3]])


def test_right_coset_partition_of_non_normal_not_invariant():
    G = s3()
    f = regular_flow(G)
    t = next(g for g in G.elements() if G.element_order(g) == 2)
    H = subgroup_generated(G, [t])
    # right cosets Hg: the orbit relation of H under left translation
    E = orbit_relation(f, H)
    assert not E.invariant
    assert E.invariance_witness is not None
    # while a normal subgroup's orbit relation is invariant
    a3 = next(s for s in enumerate_subgroups(G) if s.order == 3)
    assert orbit_relation(f, a3).invariant


# ---- kernel group ------------------------------------------------------------

def test_kernel_of_equality_faithful():
    f = natural_flow(s3())
    K = kernel_group(equality_relation(3, f))
    assert K.members == {f.group.identity}


def test_kernel_of_total_is_everything():
    f = natural_flow(s3())
    K = kernel_group(total_relation(3, f))
    assert K.order == 6


def test_kernel_z4_cosets():
    G = named_group("cyclic", n=4)
    f = regular_flow(G)
    E = orbit_relation(f, subgroup_generated(G, [2]))
    assert kernel_group(E).members == {0, 2}


def test_kernel_requires_invariance():
    G = s3()
    f = regular_flow(G)
    t = next(g for g in G.elements() if G.element_order(g) == 2)
    E = orbit_relation(f, subgroup_generated(G, [t]))
    with pytest.raises(NotInvariant):
        kernel_group(E)


def test_kernel_always_normal():
    for G in [s3(), named_group("dihedral", n=4)]:
        f = natural_flow(G)
        for E in invariant_relations(f):
            assert kernel_group(E).is_normal()


# ---- orbit relations ------------------------------------------------------------

def test_orbit_relation_trivial_subgroup():
    f = natural_flow(s3())
    E = orbit_relation(f, subgroup_generated(f.group, []))
    assert E == equality_relation(3)


def test_orbit_relation_full_group_transitive():
    f = natural_flow(s3())
    E = orbit_relation(f, subgroup_generated(f.group, list(f.group.elements())))
    assert E == total_relation(3)


def test_orbit_relation_a3_on_regular():
    G = s3()
    f = regular_flow(G)
    a3 = next(s for s in enumerate_subgroups(G) if s.order == 3)
    E = orbit_relation(f, a3)
    assert sorted(len(c) for c in E.classes) == [3, 3]
    assert E.invariant


def test_orbit_relation_rejects_a_subgroup_of_another_group():
    f = natural_flow(s3())
    with pytest.raises(GroupMismatch, match="subgroup of a different group"):
        orbit_relation(f, subgroup_generated(s3(), []))


def foreign_or_out_of_range(call):
    """`call` on the regular flow of C6 with its equality and total
    relations, all of C6, and all of S4 (elements 6..23 index no map)."""
    f = regular_flow(named_group("cyclic", n=6))
    c6, s4 = enumerate_subgroups(f.group)[-1], enumerate_subgroups(named_group(
        "symmetric", n=4))[-1]
    return call(f, equality_relation(6, f), total_relation(6, f), c6, s4)


@pytest.mark.parametrize("error, call", [
    (GroupMismatch, lambda f, eq, E, c6, s4: r_relation(f, WitnessPair(s4, {0}))),
    (GroupMismatch, lambda f, eq, E, c6, s4: maximal_witnesses(E, WitnessPair(s4, {0}))),
    (GroupMismatch, lambda f, eq, E, c6, s4: fix_set(eq, s4)),
    (GroupMismatch, lambda f, eq, E, c6, s4: fix_set(E, s4)),
    (InvalidArgument, lambda f, eq, E, c6, s4: r_relation(f, WitnessPair(c6, {0, 6}))),
    (InvalidArgument, lambda f, eq, E, c6, s4: r_relation(f, WitnessPair(c6, {-1}))),
    (InvalidArgument, lambda f, eq, E, c6, s4: maximal_witnesses(E, WitnessPair(c6, {6}))),
    (InvalidArgument, lambda f, eq, E, c6, s4: stabilizing_elements(E, {6})),
    (InvalidArgument, lambda f, eq, E, c6, s4: stabilizing_elements(eq, {-1})),
], ids=["r_relation", "maximal_witnesses", "fix_set-equality", "fix_set-total",
        "r_relation-6", "r_relation-minus-1", "maximal_witnesses-6",
        "stabilizing_elements-6", "stabilizing_elements-minus-1"])
def test_foreign_subgroups_and_outside_supports_are_refused(error, call):
    message = "subgroup of a different group" if error is GroupMismatch else \
        r"not within 0\.\.5"
    with pytest.raises(error, match=message):
        foreign_or_out_of_range(call)


# ---- witnessed relations -----------------------------------------------------------

def test_r_relation_recovers_orbital():
    G = s3()
    f = regular_flow(G)
    a3 = next(s for s in enumerate_subgroups(G) if s.order == 3)
    E = orbit_relation(f, a3)
    got = r_relation(f, WitnessPair(kernel_group(E), frozenset(range(f.points))))
    assert got.is_equivalence and got.pairs == E.pairs()


def test_r_relation_singleton_stabilizer_on_transitive():
    f = natural_flow(s3())
    for E in invariant_relations(f):
        x = 0
        stab = frozenset(
            g for g in f.group.elements() if E.same(x, f.act(g, x))
        )
        H = subgroup_generated(f.group, stab)
        assert H.members == stab  # class stabilizer is already a subgroup
        got = r_relation(f, WitnessPair(H, frozenset({x})))
        assert got.is_equivalence
        assert got.pairs == E.pairs()


def test_r_relation_can_fail_transitivity():
    # dihedral(4) on the square's vertices, one reflection, one base vertex
    G = named_group("dihedral", n=4)
    f = natural_flow(G)
    H = next(s for s in enumerate_subgroups(G)
             if s.sorted_members == (3, 5))
    got = r_relation(f, WitnessPair(H, frozenset({0})))
    assert got.reflexive and got.symmetric and not got.transitive
    assert got.failure_witness[0] == "intransitive"


def test_class_formula_empty_when_unreached():
    from elliskit.flows import disjoint_union_flow

    G = s3()
    f = disjoint_union_flow([natural_flow(G), natural_flow(G)])
    H = subgroup_generated(G, [])
    # support only in the first block: second block points have no translate
    # into the support
    out = class_formula(f, WitnessPair(H, frozenset({0})), 4)
    assert out == frozenset()


def test_class_formula_matches_r_relation():
    rng = random.Random(9)
    G = s3()
    flows = [natural_flow(G), regular_flow(G)]
    subs = enumerate_subgroups(G)
    for f in flows:
        for _ in range(20):
            H = rng.choice(subs)
            support = frozenset(rng.sample(range(f.points),
                                           rng.randint(1, f.points)))
            w = WitnessPair(H, support)
            got = r_relation(f, w)
            for x0 in range(f.points):
                from_class = frozenset(b for (a, b) in got.pairs if a == x0)
                assert class_formula(f, w, x0) == from_class


def test_class_formula_normal_subgroup_whole_support():
    G = s3()
    f = regular_flow(G)
    a3 = next(s for s in enumerate_subgroups(G) if s.order == 3)
    w = WitnessPair(a3, frozenset(range(6)))
    for x0 in range(6):
        expected = frozenset(G.mul[h][x0] for h in a3.members)
        assert class_formula(f, w, x0) == expected


# ---- maximal witnesses ----------------------------------------------------------------

def test_maximal_witnesses_orbital_fixpoint():
    G = s3()
    f = regular_flow(G)
    a3 = next(s for s in enumerate_subgroups(G) if s.order == 3)
    E = orbit_relation(f, a3)
    kern = kernel_group(E)
    got = maximal_witnesses(E, WitnessPair(kern, frozenset(range(6))))
    assert got.subgroup.members == kern.members
    assert got.support == frozenset(range(6))


def test_maximal_witnesses_rejects_non_witness():
    G = s3()
    f = regular_flow(G)
    a3 = next(s for s in enumerate_subgroups(G) if s.order == 3)
    E = orbit_relation(f, a3)
    with pytest.raises(NotAWitness):
        maximal_witnesses(E, WitnessPair(subgroup_generated(G, []), frozenset({0})))


def test_maximal_witnesses_saturated_support():
    # starting from a singleton support on a transitive flow, the maximal
    # support is a union of classes and re-applying changes nothing
    f = natural_flow(s3())
    for E in invariant_relations(f):
        x = 0
        stab = frozenset(g for g in f.group.elements() if E.same(x, f.act(g, x)))
        H = subgroup_generated(f.group, stab)
        got = maximal_witnesses(E, WitnessPair(H, frozenset({x})))
        for y in got.support:
            assert set(E.classes[E.class_of[y]]) <= got.support
        again = maximal_witnesses(E, got)
        assert again.support == got.support
        assert again.subgroup.members == got.subgroup.members


# ---- orbitality decisions ---------------------------------------------------------------

def test_orbit_relation_of_normal_is_orbital():
    G = s3()
    f = regular_flow(G)
    a3 = next(s for s in enumerate_subgroups(G) if s.order == 3)
    E = orbit_relation(f, a3)
    assert is_orbital(E)


def test_commutative_transitive_all_orbital():
    for n in (4, 5, 6):
        G = named_group("cyclic", n=n)
        f = regular_flow(G)
        for E in invariant_relations(f):
            assert is_orbital(E)


def test_rotation_action_opposite_vertices_orbital():
    G = named_group("cyclic", n=4)
    f = natural_flow(G)  # rotations of the square's vertices
    E = make_relation(4, [[0, 2], [1, 3]], f)
    assert E.invariant
    verdict = is_orbital(E)
    assert verdict.orbital
    assert verdict.kernel.members == {0, 2}


def test_weak_orbitality_on_transitive_always_true():
    for f in [natural_flow(s3()), regular_flow(named_group("cyclic", n=5))]:
        for E in invariant_relations(f):
            assert is_weakly_orbital(E)


def test_orbital_implies_weakly_orbital_with_full_support():
    G = s3()
    f = regular_flow(G)
    a3 = next(s for s in enumerate_subgroups(G) if s.order == 3)
    E = orbit_relation(f, a3)
    verdict = is_weakly_orbital(E)
    assert verdict
    # a full-support witness must exist too
    got = r_relation(f, WitnessPair(kernel_group(E), frozenset(range(6))))
    assert got.pairs == E.pairs()


def test_weak_orbitality_agrees_with_brute_force_small():
    from elliskit.flows import disjoint_union_flow

    G = named_group("cyclic", n=2)
    flows = [
        natural_flow(G),
        disjoint_union_flow([natural_flow(G), natural_flow(G)]),
        disjoint_union_flow([natural_flow(G), regular_flow(G)]),
    ]
    for f in flows:
        for E in invariant_relations(f):
            assert bool(is_weakly_orbital(E)) == brute_weakly_orbital(E)


def test_orbital_iff_normal_witness_iff_full_support():
    # on a catalog of small flows: orbital <=> some witness with the whole
    # domain as support <=> some witness with a normal subgroup
    G = s3()
    for f in [natural_flow(G), coset_flow(G, next(
            s for s in enumerate_subgroups(G) if s.order == 2))]:
        for E in invariant_relations(f):
            orb = bool(is_orbital(E))
            full = any(
                r_relation(f, WitnessPair(H, frozenset(range(f.points)))).pairs
                == E.pairs()
                for H in enumerate_subgroups(G)
            )
            normal_wit = False
            for H in enumerate_subgroups(G):
                if not H.is_normal():
                    continue
                sup = fix_set(E, H)
                if sup and r_relation(f, WitnessPair(H, sup)).pairs == E.pairs():
                    normal_wit = True
                    break
            assert orb == full == normal_wit


# ---- free-action correspondence -------------------------------------------------------------

def test_correspondence_z4():
    f = regular_flow(named_group("cyclic", n=4))
    rep = free_action_correspondence(f)
    assert len(rep.entries) == 3


def test_correspondence_s3():
    f = regular_flow(s3())
    rep = free_action_correspondence(f)
    assert len(rep.entries) == 3  # trivial, alternating, whole group
    assert sorted(len(m) for m, _ in rep.entries) == [1, 3, 6]


def test_correspondence_trivial():
    f = regular_flow(named_group("cyclic", n=1))
    rep = free_action_correspondence(f)
    assert len(rep.entries) == 1


def test_correspondence_rejects_non_free():
    f = natural_flow(s3())
    with pytest.raises(NotFree):
        free_action_correspondence(f)


def test_correspondence_past_eight_points():
    f = regular_flow(named_group("cyclic", n=9))
    rep = free_action_correspondence(f)
    assert [len(m) for m, _ in rep.entries] == [1, 3, 9]


def test_correspondence_passes_the_callers_caps():
    f = regular_flow(named_group("cyclic", n=9))
    with pytest.raises(GroupTooLarge) as err:
        free_action_correspondence(f, caps=Caps(subgroup_enum_cap=8))
    assert (err.value.order, err.value.bound) == (9, 8)


@pytest.mark.parametrize("name, n", [("symmetric", 4), ("dihedral", 12)])
def test_correspondence_on_24_points(name, n):
    G = named_group(name, n=n)
    rep = free_action_correspondence(regular_flow(G))
    normals = [N.sorted_members for N in enumerate_subgroups(G) if N.is_normal()]
    assert [m for m, _ in rep.entries] == normals
    assert [k for _, k in rep.entries] == [G.order // len(m) for m in normals]


# ---- partition enumeration --------------------------------------------------------------------

def test_partition_counts_are_bell_numbers():
    bells = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}
    for n, bell in bells.items():
        got = list(all_partitions(n))
        assert len(got) == bell
        assert len(set(got)) == bell


def test_invariant_relations_are_invariant():
    f = natural_flow(named_group("dihedral", n=4))
    rels = list(invariant_relations(f))
    assert all(E.invariant for E in rels)
    # equality and total always qualify
    assert equality_relation(4) in rels
    assert total_relation(4) in rels


def test_invariant_relations_stop_at_the_lattice_cap():
    # Z6 on its six points: one invariant relation per divisor of 6
    f = natural_flow(named_group("cyclic", n=6))
    assert len(list(invariant_relations(f, caps=Caps(lattice_cap=4)))) == 4
    with pytest.raises(SizeCapExceeded, match="invariant relation lattice") as exc:
        list(invariant_relations(f, caps=Caps(lattice_cap=3)))
    assert (exc.value.size, exc.value.cap) == (4, 3)


# ---- property tests --------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.lists(st.permutations(list(range(4))), min_size=1, max_size=2),
       st.data())
def test_witnessed_relations_always_symmetric(gens, data):
    G = group_from_permutations(4, [tuple(g) for g in gens])
    f = natural_flow(G)
    subs = enumerate_subgroups(G)
    H = data.draw(st.sampled_from(subs))
    support = data.draw(st.sets(st.integers(0, 3), min_size=1, max_size=4))
    got = r_relation(f, WitnessPair(H, frozenset(support)))
    assert got.symmetric
    # and the translate set is invariant as built
    for (a, b) in got.pairs:
        for g in G.elements():
            assert (f.act(g, a), f.act(g, b)) in got.pairs


@settings(max_examples=30, deadline=None)
@given(st.lists(st.permutations(list(range(4))), min_size=1, max_size=2),
       st.data())
def test_normal_orbit_relations_invariant(gens, data):
    G = group_from_permutations(4, [tuple(g) for g in gens])
    f = natural_flow(G)
    normals = [H for H in enumerate_subgroups(G) if H.is_normal()]
    H = data.draw(st.sampled_from(normals))
    E = orbit_relation(f, H)
    assert E.invariant
    assert kernel_group(E).members >= H.members
