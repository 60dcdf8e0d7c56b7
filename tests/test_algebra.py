import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliskit import algebra
from elliskit.algebra import (
    FiniteGroup,
    are_isomorphic,
    direct_product,
    enumerate_subgroups,
    group_from_permutations,
    group_from_table,
    named_group,
    normal_core,
    quaternion_group,
    quotient_group,
    subgroup_generated,
)
from elliskit.errors import (
    GroupMismatch,
    GroupTooLarge,
    InvalidArgument,
    NoInverse,
    NotAssociative,
    NotBijective,
    NotNormal,
    UnsupportedParameters,
)
from elliskit.caps import Caps
from elliskit.generators import group_catalog


# ---- independent oracles ---------------------------------------------------

def brute_force_subgroups(G):
    """All subsets that satisfy the subgroup axioms. Only for |G| <= 16."""
    out = set()
    elems = list(G.elements())
    for r in range(1, len(elems) + 1):
        for cand in itertools.combinations(elems, r):
            s = set(cand)
            if G.identity not in s:
                continue
            if any(G.inverse[a] not in s for a in s):
                continue
            if any(G.mul[a][b] not in s for a in s for b in s):
                continue
            out.add(frozenset(s))
    return out


def brute_force_isomorphic(A, B):
    """Try every identity-fixing bijection. Only for orders <= 8."""
    if A.order != B.order:
        return False
    rest_a = [a for a in A.elements() if a != A.identity]
    rest_b = [b for b in B.elements() if b != B.identity]
    for image in itertools.permutations(rest_b):
        phi = {A.identity: B.identity}
        phi.update(dict(zip(rest_a, image)))
        if all(phi[A.mul[a][b]] == B.mul[phi[a]][phi[b]]
               for a in A.elements() for b in A.elements()):
            return True
    return False


def count_invertible_matrices_f2(dim):
    """Enumerate all dim x dim matrices over F2 and count the invertible ones
    by testing whether the rows span F2^dim."""
    count = 0
    for flat in itertools.product((0, 1), repeat=dim * dim):
        rows = [flat[i * dim:(i + 1) * dim] for i in range(dim)]
        span = {0}
        for row in rows:
            packed = sum(b << i for i, b in enumerate(row))
            span |= {x ^ packed for x in span}
        if len(span) == 2 ** dim:
            count += 1
    return count


def assert_group_axioms(G):
    n = G.order
    e = G.identity
    for a in range(n):
        assert G.mul[e][a] == a and G.mul[a][e] == a
        assert G.mul[a][G.inverse[a]] == e and G.mul[G.inverse[a]][a] == e
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert G.mul[G.mul[a][b]][c] == G.mul[a][G.mul[b][c]]


# ---- group_from_table ------------------------------------------------------

def test_trivial_table():
    G = group_from_table([[0]])
    assert G.order == 1 and G.identity == 0


def test_z2_table():
    G = group_from_table([[0, 1], [1, 0]])
    assert G.order == 2
    assert G.inverse == (0, 1)
    assert_group_axioms(G)


def test_idempotent_table_rejected():
    # mul(a, a) = a for both elements: cannot be a group of order 2
    with pytest.raises((NoInverse, NotAssociative)):
        group_from_table([[0, 1], [1, 1]])


def test_bad_shape_rejected():
    with pytest.raises(ValueError):
        group_from_table([[0, 1], [1]])
    with pytest.raises(ValueError):
        group_from_table([[0, 2], [2, 0]])


# ---- group_from_permutations ------------------------------------------------

def test_s3_from_generators():
    G = group_from_permutations(3, [(1, 0, 2), (1, 2, 0)])
    assert G.order == 6
    # oracle: the closure is exactly the set of all permutations of 3 points
    assert set(G.perms) == set(itertools.permutations(range(3)))
    assert_group_axioms(G)


def test_involution_generator():
    G = group_from_permutations(4, [(1, 0, 3, 2)])
    assert G.order == 2


def test_non_bijection_rejected():
    with pytest.raises(NotBijective) as ei:
        group_from_permutations(2, [(0, 0)])
    assert ei.value.index == 0


def test_discovery_order_is_deterministic():
    a = group_from_permutations(3, [(1, 0, 2), (1, 2, 0)])
    b = group_from_permutations(3, [(1, 0, 2), (1, 2, 0)])
    assert a.perms == b.perms and a.mul == b.mul


@settings(max_examples=25, deadline=None)
@given(st.lists(st.permutations(list(range(4))), min_size=1, max_size=2))
def test_closure_matches_brute_force(gens):
    G = group_from_permutations(4, [tuple(g) for g in gens])
    # oracle: iterate words up to saturation using a different traversal
    frontier = {tuple(g) for g in gens}
    closure = set(frontier)
    while frontier:
        nxt = set()
        for w in frontier:
            for g in gens:
                c = tuple(w[i] for i in g)
                if c not in closure:
                    closure.add(c)
                    nxt.add(c)
        frontier = nxt
    assert set(G.perms) == closure


# ---- subgroups ---------------------------------------------------------------

def test_subgroup_generated_empty_seed():
    G = named_group("symmetric", n=3)
    H = subgroup_generated(G, [])
    assert H.members == {G.identity}


def test_subgroup_generated_transposition():
    G = named_group("symmetric", n=3)
    t = next(g for g in G.elements() if G.element_order(g) == 2)
    H = subgroup_generated(G, [t])
    assert H.order == 2


def test_two_transpositions_generate_s3():
    G = named_group("symmetric", n=3)
    ts = [g for g in G.elements() if G.element_order(g) == 2]
    H = subgroup_generated(G, ts[:2])
    assert H.order == 6


def test_enumerate_subgroups_z4():
    G = named_group("cyclic", n=4)
    subs = enumerate_subgroups(G)
    assert [s.order for s in subs] == [1, 2, 4]
    assert {s.members for s in subs} == brute_force_subgroups(G)


def test_enumerate_subgroups_s3():
    G = named_group("symmetric", n=3)
    subs = enumerate_subgroups(G)
    assert len(subs) == 6
    assert sorted(s.order for s in subs) == [1, 2, 2, 2, 3, 6]
    assert {s.members for s in subs} == brute_force_subgroups(G)


def test_enumerate_subgroups_matches_brute_force_on_catalog():
    for G in [named_group("cyclic", n=6), named_group("dihedral", n=4),
              quaternion_group()]:
        subs = enumerate_subgroups(G)
        assert {s.members for s in subs} == brute_force_subgroups(G)
        orders = [s.order for s in subs]
        assert orders == sorted(orders)


def test_enumerate_subgroups_trivial_group():
    G = named_group("cyclic", n=1)
    assert len(enumerate_subgroups(G)) == 1


def test_enumerate_subgroups_cap():
    G = named_group("cyclic", n=12)
    with pytest.raises(GroupTooLarge):
        enumerate_subgroups(G, max_order_bound=6)


# ---- normal core --------------------------------------------------------------

def test_core_of_normal_subgroup_is_itself():
    G = named_group("symmetric", n=3)
    a3 = next(s for s in enumerate_subgroups(G) if s.order == 3)
    assert normal_core(G, a3).members == a3.members


def test_core_of_point_stabilizer_is_trivial():
    G = named_group("symmetric", n=3)
    stab = frozenset(g for g in G.elements() if G.perms[g][0] == 0)
    H = subgroup_generated(G, stab)
    assert H.order == 2
    core = normal_core(G, H)
    assert core.members == {G.identity}


def test_core_properties_against_subgroup_enumeration():
    # core is normal, inside H, and contains every normal subgroup inside H
    for G in [named_group("symmetric", n=4), named_group("dihedral", n=6)]:
        subs = enumerate_subgroups(G)
        for H in subs:
            core = normal_core(G, H)
            assert core.is_normal()
            assert core.members <= H.members
            for N in subs:
                if N.is_normal() and N.members <= H.members:
                    assert N.members <= core.members


def test_core_of_trivial_subgroup():
    G = named_group("symmetric", n=3)
    H = subgroup_generated(G, [])
    assert normal_core(G, H).members == {G.identity}


# ---- quotients -----------------------------------------------------------------

def test_quotient_by_whole_group():
    G = named_group("symmetric", n=3)
    Q = quotient_group(G, subgroup_generated(G, list(G.elements())))
    assert Q.group.order == 1


def test_quotient_z4_by_order2():
    G = named_group("cyclic", n=4)
    N = subgroup_generated(G, [2])
    Q = quotient_group(G, N)
    assert Q.group.order == 2
    assert_group_axioms(Q.group)
    # projection is a homomorphism
    for a in G.elements():
        for b in G.elements():
            assert Q.projection[G.mul[a][b]] == Q.group.mul[Q.projection[a]][Q.projection[b]]


def test_quotient_by_non_normal_rejected():
    G = named_group("symmetric", n=3)
    t = next(g for g in G.elements() if G.element_order(g) == 2)
    with pytest.raises(NotNormal):
        quotient_group(G, subgroup_generated(G, [t]))


def test_quotient_by_a_subgroup_of_another_group_rejected():
    G, other = named_group("symmetric", n=3), named_group("cyclic", n=6)
    for N in enumerate_subgroups(other):
        assert N.is_normal()
        with pytest.raises(GroupMismatch):
            quotient_group(G, N)


def test_quotient_order_formula():
    G = named_group("dihedral", n=4)
    for N in enumerate_subgroups(G):
        if N.is_normal():
            Q = quotient_group(G, N)
            assert Q.group.order == G.order // N.order


# ---- isomorphism -----------------------------------------------------------------

def test_z4_not_isomorphic_to_klein():
    z4 = named_group("cyclic", n=4)
    klein = direct_product(named_group("cyclic", n=2), named_group("cyclic", n=2))
    res = are_isomorphic(z4, klein)
    assert not res
    assert res.refutation["reason"] == "element_orders"


def test_equal_element_orders_without_isomorphism():
    # Z4xZ4 and Q8xZ2 have the same element orders, and generator images of
    # those orders extend to homomorphisms that are not bijections
    A = direct_product(named_group("cyclic", n=4), named_group("cyclic", n=4))
    B = direct_product(quaternion_group(), named_group("cyclic", n=2))
    assert A.element_order_multiset() == B.element_order_multiset()
    assert not are_isomorphic(A, B)
    assert not are_isomorphic(B, A)


def test_self_isomorphism_is_identity():
    G = named_group("dihedral", n=5)
    res = are_isomorphic(G, G)
    assert res and res.mapping == tuple(range(G.order))


def test_isomorphism_rejects_generators_that_do_not_generate():
    # a hand-built group whose gens miss half of it: no generator images
    # would extend to the whole group, so the search would report
    # "exhausted" for two equal groups
    z4 = named_group("cyclic", n=4)
    short = FiniteGroup(z4.mul, z4.identity, z4.inverse, gens=(2,))
    with pytest.raises(InvalidArgument, match="gens reach 2 of the group's 4"):
        are_isomorphic(short, named_group("cyclic", n=4))


def test_s3_isomorphic_to_d3():
    s3 = named_group("symmetric", n=3)
    d3 = named_group("dihedral", n=3)
    res = are_isomorphic(s3, d3)
    assert res
    phi = res.mapping
    assert sorted(phi) == list(range(6))
    for a in s3.elements():
        for b in s3.elements():
            assert phi[s3.mul[a][b]] == d3.mul[phi[a]][phi[b]]
    assert brute_force_isomorphic(s3, d3)


def test_isomorphism_agrees_with_brute_force():
    groups = [
        named_group("cyclic", n=6),
        direct_product(named_group("cyclic", n=2), named_group("cyclic", n=3)),
        named_group("symmetric", n=3),
        named_group("cyclic", n=8),
        named_group("dihedral", n=4),
        quaternion_group(),
        direct_product(named_group("cyclic", n=4), named_group("cyclic", n=2)),
    ]
    for A in groups:
        for B in groups:
            if A.order != B.order:
                continue
            assert bool(are_isomorphic(A, B)) == brute_force_isomorphic(A, B)


def test_isomorphism_symmetric_on_sample():
    A = named_group("dihedral", n=6)
    B = direct_product(named_group("cyclic", n=2), named_group("symmetric", n=3))
    assert bool(are_isomorphic(A, B)) == bool(are_isomorphic(B, A))


def pruned_bijection_search(A, B):
    """Independent oracle for orders up to 12: assign images element by
    element in index order (no generator words), requiring order
    preservation and consistency with all products among assigned elements."""
    if A.order != B.order:
        return False
    order_of_b = {}
    for b in B.elements():
        order_of_b.setdefault(B.element_order(b), []).append(b)
    phi = {A.identity: B.identity}
    used = {B.identity}
    todo = [a for a in A.elements() if a != A.identity]

    def extend(i):
        if i == len(todo):
            return True
        a = todo[i]
        if a in phi:
            return extend(i + 1)
        for b in order_of_b.get(A.element_order(a), []):
            if b in used:
                continue
            phi[a] = b
            used.add(b)
            ok = True
            for x in list(phi):
                for y in list(phi):
                    z = A.mul[x][y]
                    if z in phi and B.mul[phi[x]][phi[y]] != phi[z]:
                        ok = False
                        break
                if not ok:
                    break
            if ok and extend(i + 1):
                return True
            del phi[a]
            used.discard(b)
        return False

    return extend(0)


def test_isomorphism_agrees_with_pruned_search_up_to_order_12():
    z12 = named_group("cyclic", n=12)
    groups = [
        named_group("cyclic", n=9),
        direct_product(named_group("cyclic", n=3), named_group("cyclic", n=3)),
        z12,
        direct_product(named_group("cyclic", n=6), named_group("cyclic", n=2)),
        named_group("dihedral", n=6),
        direct_product(named_group("cyclic", n=2), named_group("symmetric", n=3)),
    ]
    for A in groups:
        for B in groups:
            if A.order != B.order:
                continue
            assert bool(are_isomorphic(A, B)) == pruned_bijection_search(A, B)


def test_isomorphism_cap():
    G = named_group("cyclic", n=5)
    with pytest.raises(GroupTooLarge):
        are_isomorphic(G, G, caps=Caps(iso_order_cap=3))


# ---- named groups ------------------------------------------------------------------

def test_cyclic5():
    G = named_group("cyclic", n=5)
    assert G.order == 5
    assert_group_axioms(G)


def test_symmetric3():
    assert named_group("symmetric", n=3).order == 6


def test_symmetric4_order():
    assert named_group("symmetric", n=4).order == 24


def test_dihedral_orders():
    for n in (3, 4, 5, 6):
        assert named_group("dihedral", n=n).order == 2 * n


def test_quaternion_structure():
    Q = quaternion_group()
    assert Q.order == 8
    assert_group_axioms(Q)
    assert Q.element_order_multiset() == (1, 2, 4, 4, 4, 4, 4, 4)


def test_affine_2_3_order():
    G = named_group("affine", q=2, dim=3)
    # oracle: |F2^3| * |GL3(F2)| with GL counted by row-span enumeration
    assert count_invertible_matrices_f2(3) == 168
    assert G.order == 8 * 168 == 1344
    # identity/inverse sanity on a sample (full axiom check is too slow here)
    e = G.identity
    for a in range(0, G.order, 97):
        assert G.mul[e][a] == a and G.mul[a][e] == a
        assert G.mul[a][G.inverse[a]] == e


def test_tables_hold_one_int_object_per_element():
    """Every catalog table and affine(2,3)'s (1344 elements, where ints are
    no longer cached by the interpreter) read each entry from one shared
    int object per element."""
    for G in [*group_catalog(), named_group("affine", q=2, dim=3)]:
        assert len({id(x) for row in G.mul for x in row}) <= G.order


def test_affine_2_2_axioms():
    G = named_group("affine", q=2, dim=2)
    assert G.order == 4 * 6
    assert_group_axioms(G)


def test_affine_3_1():
    G = named_group("affine", q=3, dim=1)
    assert G.order == 3 * 2
    assert_group_axioms(G)


def test_affine_multiplication_convention():
    # (v, M)(w, N) = (v + Mw, MN): on the identity-matrix slice,
    # translations compose additively
    G = named_group("affine", q=2, dim=2)
    nm = 6  # |GL2(F2)|
    ident_mat_idx = G.identity % nm
    a = 1 * nm + ident_mat_idx  # vector (0,1), identity matrix
    b = 2 * nm + ident_mat_idx  # vector (1,0), identity matrix
    ab = G.mul[a][b]
    assert ab == 3 * nm + ident_mat_idx  # vector (1,1)


def test_affine_rejects_large(monkeypatch):
    """affine(3,3), order 303,264, is within the family's bounds and refused
    from its order before a matrix is enumerated; q = 5 is outside them."""
    monkeypatch.setattr(algebra, "affine_components", lambda *args: pytest.fail("built"))
    with pytest.raises(GroupTooLarge, match="group order 303264 exceeds bound 2000"):
        named_group("affine", q=3, dim=3)
    with pytest.raises(UnsupportedParameters):
        named_group("affine", q=5, dim=1)


def test_affine_cap_is_checked_before_enumerating(monkeypatch):
    """affine(4,3) is refused from its closed-form order, 64·63·60·48, before
    a single matrix is enumerated."""
    def enumerate_nothing(q, dim):
        raise AssertionError(f"affine_components({q}, {dim}) called")

    monkeypatch.setattr(algebra, "affine_components", enumerate_nothing)
    with pytest.raises(GroupTooLarge, match="order 11612160"):
        named_group("affine", q=4, dim=3)


@pytest.mark.parametrize("name, params, cap, order", [
    ("cyclic", {"n": 2001}, 2000, 2001),
    ("affine", {"q": 4, "dim": 2}, 2000, 2880),
    ("dihedral", {"n": 1001}, 2000, 2002),
    ("symmetric", {"n": 6}, 100, 720),
])
def test_named_group_order_cap_is_hard(monkeypatch, name, params, cap, order):
    """Above `group_order_cap` but within the family's bounds: refused from
    the closed-form order before anything is built."""
    for build in ("_cyclic", "_symmetric", "_dihedral", "_affine", "affine_components"):
        monkeypatch.setattr(algebra, build, lambda *args: pytest.fail("built"))
    with pytest.raises(GroupTooLarge) as exc:
        named_group(name, caps=Caps(group_order_cap=cap), **params)
    assert (exc.value.order, exc.value.bound) == (order, cap)


def test_unknown_family():
    with pytest.raises(UnsupportedParameters):
        named_group("sporadic", n=1)


@pytest.mark.parametrize("build, message", [
    (lambda: named_group("cyclic", n=2.9), "n is 2.9, not an integer"),
    (lambda: named_group("dihedral", n=4.0), "n is 4.0, not an integer"),
    (lambda: named_group("affine", q=2, dim=2.5), "dim is 2.5, not an integer"),
    (lambda: group_from_permutations(3, [[1.9, 0, 2]]),
     "generator 0 entry is 1.9, not an integer"),
    (lambda: group_from_table([[0, 1], [1, 0.0]]), "table entry is 0.0, not an integer"),
], ids=["cyclic-n", "dihedral-n", "affine-dim", "permutation-entry", "table-entry"])
def test_non_integers_are_rejected_not_truncated(build, message):
    with pytest.raises(UnsupportedParameters, match=message):
        build()


# ---- direct products ----------------------------------------------------------------

def test_direct_product_structure():
    A = named_group("cyclic", n=2)
    B = named_group("cyclic", n=3)
    P = direct_product(A, B)
    assert P.order == 6
    assert_group_axioms(P)
    assert are_isomorphic(P, named_group("cyclic", n=6))
