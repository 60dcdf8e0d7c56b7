import itertools

import pytest

from elliskit.algebra import FiniteGroup, named_group, subgroup_generated
from elliskit.errors import (
    GroupMismatch,
    IncompatibleTower,
    InvalidArgument,
    NotAnAction,
    OrbitNotDense,
    ParseError,
    SizeCapExceeded,
)
from elliskit.flows import (
    FlowMorphism,
    check_morphism,
    check_tower,
    coset_flow,
    disjoint_union_flow,
    family_is_independent,
    independent_translates,
    make_ambit,
    make_flow,
    natural_flow,
    orbits,
    product_flow,
    regular_flow,
    transformation_flow,
)


def s3():
    return named_group("symmetric", n=3)


# ---- construction and validation ------------------------------------------

def test_natural_s3_flow():
    f = natural_flow(s3())
    assert f.points == 3 and f.is_group_flow


def test_trivial_group_identity_action():
    G = named_group("cyclic", n=1)
    f = make_flow(G, 5, [tuple(range(5))])
    assert f.points == 5


def test_non_involutive_action_rejected():
    G = named_group("cyclic", n=2)
    # the non-identity element acts by a 3-cycle: g*g should act as identity
    with pytest.raises(NotAnAction):
        make_flow(G, 3, [(0, 1, 2), (1, 2, 0)])


def test_make_flow_rejects_gens_that_do_not_generate():
    # every generator-based check would pass on the half of Z4 that gens=(2,)
    # never reaches
    z4 = named_group("cyclic", n=4)
    short = FiniteGroup(z4.mul, z4.identity, z4.inverse, gens=(2,))
    with pytest.raises(InvalidArgument, match="gens reach 2 of the group's 4"):
        make_flow(short, 4, z4.mul)


def test_action_homomorphism_property_exhaustive():
    # every constructor-produced group flow satisfies act(gh) = act(g)act(h)
    for f in [natural_flow(s3()), regular_flow(named_group("cyclic", n=6)),
              coset_flow(s3(), subgroup_generated(s3(), []))]:
        G = f.group
        for g in G.elements():
            m = f.map_of(g)
            assert sorted(m) == list(range(f.points))
            for h in G.elements():
                mh = f.map_of(h)
                mgh = f.map_of(G.mul[g][h])
                assert all(m[mh[x]] == mgh[x] for x in range(f.points))


def test_make_ambit_s3_natural():
    amb = make_ambit(natural_flow(s3()), 0)
    assert amb.basepoint == 0


def test_make_ambit_rejects_a_non_integer_basepoint():
    with pytest.raises(ParseError) as ei:
        make_ambit(natural_flow(s3()), 1.5)
    assert ei.value.path == "<ambit>"
    assert "basepoint 1.5 is not an integer" in str(ei.value)


def test_make_ambit_rejects_trivial_action():
    G = named_group("cyclic", n=3)
    f = make_flow(G, 2, [(0, 1)] * 3)
    with pytest.raises(OrbitNotDense) as ei:
        make_ambit(f, 0)
    assert ei.value.unreached == (1,)


def test_regular_ambit_always_valid():
    for G in [s3(), named_group("cyclic", n=5)]:
        amb = make_ambit(regular_flow(G), G.identity)
        assert amb.points == G.order


# ---- products and unions -----------------------------------------------------

def test_product_of_one_flow():
    f = natural_flow(s3())
    p = product_flow([f])
    assert p.points == f.points
    for g in f.group.elements():
        assert p.map_of(g) == f.map_of(g)


def test_product_z2_z3():
    from elliskit.algebra import are_isomorphic

    f2 = natural_flow(named_group("cyclic", n=2))
    f3 = natural_flow(named_group("cyclic", n=3))
    p = product_flow([f2, f3])
    assert p.points == 6
    assert p.group.order == 6
    assert are_isomorphic(p.group, named_group("cyclic", n=6))


def test_product_s3_z2():
    p = product_flow([natural_flow(s3()), natural_flow(named_group("cyclic", n=2))])
    assert p.group.order == 12 and p.points == 6


def test_product_cap():
    from elliskit.caps import Caps

    big = natural_flow(named_group("cyclic", n=50))
    with pytest.raises(SizeCapExceeded):
        product_flow([big, big], caps=Caps(points_cap=100))


def test_union_of_one():
    f = natural_flow(s3())
    u = disjoint_union_flow([f])
    assert u.points == f.points


def test_union_natural_and_regular_s3():
    G = s3()
    u = disjoint_union_flow([natural_flow(G), regular_flow(G)])
    assert u.points == 9
    assert len(orbits(u)) == 2  # not transitive


def test_union_two_z2():
    G = named_group("cyclic", n=2)
    u = disjoint_union_flow([natural_flow(G), natural_flow(G)])
    assert u.points == 4
    assert len(orbits(u)) == 2


def test_union_group_mismatch():
    with pytest.raises(GroupMismatch):
        disjoint_union_flow([natural_flow(s3()),
                             natural_flow(named_group("cyclic", n=2))])


# ---- morphisms ------------------------------------------------------------------

def test_identity_morphism_valid():
    amb = make_ambit(natural_flow(s3()), 0)
    m = FlowMorphism(amb, amb, tuple(range(3)))
    assert check_morphism(m).valid


def test_regular_to_natural_morphism():
    G = s3()
    reg = make_ambit(regular_flow(G), G.identity)
    nat = make_ambit(natural_flow(G), 0)
    pm = tuple(G.perms[g][0] for g in G.elements())
    m = FlowMorphism(reg, nat, pm)
    rep = check_morphism(m)
    assert rep.valid and rep.equivariant and rep.surjective


def test_non_surjective_morphism_reported():
    amb = make_ambit(natural_flow(s3()), 0)
    m = FlowMorphism(amb, amb, (0, 0, 0))
    rep = check_morphism(m)
    assert not rep.valid and not rep.surjective
    assert rep.witness[0] == "unreached"


def test_non_equivariant_morphism_witness():
    G = s3()
    reg = make_ambit(regular_flow(G), G.identity)
    nat = make_ambit(natural_flow(G), 0)
    good = [G.perms[g][0] for g in G.elements()]
    # break equivariance while keeping surjectivity and the basepoint
    bad = list(good)
    i, j = next(
        (i, j) for i in range(1, 6) for j in range(1, 6)
        if i != j and good[i] != good[j] and good[i] != 0 and good[j] != 0
    )
    bad[i], bad[j] = bad[j], bad[i]
    rep = check_morphism(FlowMorphism(reg, nat, tuple(bad)))
    assert not rep.valid and rep.witness[0] == "equivariance"


# ---- towers ------------------------------------------------------------------------

def tower_z6():
    """Z/6 acting regularly, on cosets of {0,3}, and on one point."""
    G = named_group("cyclic", n=6)
    lvl0 = make_ambit(coset_flow(G, subgroup_generated(G, list(G.elements()))), 0)
    lvl1 = make_ambit(coset_flow(G, subgroup_generated(G, [3])), 0)
    lvl2 = make_ambit(regular_flow(G), 0)
    m10 = FlowMorphism(lvl1, lvl0, tuple(0 for _ in range(lvl1.points)))
    coset_of = {}
    H = subgroup_generated(G, [3]).members
    reps = []
    for g in G.elements():
        if g in coset_of:
            continue
        members = sorted(G.mul[g][h] for h in H)
        reps.append(members[0])
        for m in members:
            coset_of[m] = len(reps) - 1
    m21 = FlowMorphism(lvl2, lvl1, tuple(coset_of[g] for g in G.elements()))
    return [lvl0, lvl1, lvl2], [m10, m21]


def test_single_level_tower():
    amb = make_ambit(natural_flow(s3()), 0)
    rep = check_tower([amb], [])
    assert rep.levels[0].ideal_count == 1


def test_tower_z6_z3_z1():
    levels, connecting = tower_z6()
    rep = check_tower(levels, connecting)
    assert [lv.ideal_group_order for lv in rep.levels] == [1, 3, 6]
    assert len(rep.coherent_idempotent_chain) == 3


def test_tower_rejects_bad_connecting_map():
    levels, connecting = tower_z6()
    bad = FlowMorphism(levels[2], levels[1], tuple(0 for _ in range(6)))
    with pytest.raises(IncompatibleTower):
        check_tower(levels, [connecting[0], bad])


# ---- independent translates -----------------------------------------------------------

def cube_flow():
    """(Z/2)^3 semidirect S3 acting on {0,1}^3; point index = 4b0 + 2b1 + b2."""
    from elliskit.algebra import group_from_permutations

    def xor_mask(mask):
        return tuple(x ^ mask for x in range(8))

    def permute_bits(perm):
        out = []
        for x in range(8):
            bits = [(x >> (2 - i)) & 1 for i in range(3)]
            y = sum(bits[perm[i]] << (2 - i) for i in range(3))
            out.append(y)
        return tuple(out)

    gens = [xor_mask(4), xor_mask(2), xor_mask(1),
            permute_bits((1, 0, 2)), permute_bits((1, 2, 0))]
    G = group_from_permutations(8, gens, name="cube")
    assert G.order == 48
    return natural_flow(G)


def test_independent_single_translate():
    f = natural_flow(s3())
    res = independent_translates(f, {0}, 1)
    assert res.found
    assert family_is_independent(f, frozenset({0}), res.witness)


def test_cube_three_translates():
    f = cube_flow()
    U = frozenset(x for x in range(8) if not (x >> 2) & 1)  # first bit 0
    res = independent_translates(f, U, 3)
    assert res.found
    assert family_is_independent(f, U, res.witness)


def test_cube_four_exhausted_by_pigeonhole():
    f = cube_flow()
    U = frozenset(x for x in range(8) if not (x >> 2) & 1)
    res = independent_translates(f, U, 4)
    assert not res.found and res.exhausted_reason == "pigeonhole"


def test_exhaustive_search_agrees_with_brute_force():
    # on a small flow, compare against complete enumeration of all k-tuples
    f = natural_flow(named_group("cyclic", n=4))
    U = frozenset({0, 1})
    for k in (1, 2):
        res = independent_translates(f, U, k)
        brute = any(
            family_is_independent(f, U, tup)
            for tup in itertools.product(range(4), repeat=k)
        )
        assert res.found == brute
        if res.found:
            assert family_is_independent(f, U, res.witness)


def test_transformation_flow_orbits():
    f = transformation_flow([(1, 1, 1), (0, 1, 2)])
    assert f.points == 3 and not f.is_group_flow
