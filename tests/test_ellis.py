import itertools
import random

import pytest

import oracles
from elliskit import ellis
from elliskit.algebra import are_isomorphic, named_group
from elliskit.caps import Caps
from elliskit.errors import (
    ClosureCapExceeded,
    GroupMismatch,
    IsomorphismViolated,
    NotIdempotent,
    NotInIdeal,
    TheoremViolation,
)
from elliskit.flows import (
    FlowMorphism,
    make_ambit,
    natural_flow,
    product_flow,
    regular_flow,
    transformation_flow,
)
from elliskit.ellis import (
    MinimalIdeal,
    _validate_minimal_ideal,
    circ,
    enveloping_semigroup,
    h_subgroup,
    ideal_group,
    ideal_group_isomorphism,
    induced_epimorphism,
    minimal_left_ideals,
    tau_closure,
)


# ---- oracles ----------------------------------------------------------------

def brute_closure(maps):
    """Saturate a set of maps under composition, order-insensitively."""
    closure = {tuple(m) for m in maps}
    while True:
        new = {tuple(a[i] for i in b) for a in closure for b in closure} - closure
        if not new:
            return closure
        closure |= new


def brute_minimal_left_ideals(S):
    """Minimal sets of the form S·s, by direct comparison of all of them."""
    reaches = {}
    for s in range(S.size):
        reaches[s] = frozenset(S.left_reach(s))
    candidates = set(reaches.values())
    return {c for c in candidates if not any(o < c for o in candidates)}


def swap_const_flow():
    # generators on 2 points: a swap and the constant-to-0 map
    return transformation_flow([(1, 0), (0, 0)])


def two_ideal_flow():
    """Rank-two maps with transversal image/kernel pairs on 4 points; the
    closure has two distinct minimal left ideals (one per kernel)."""
    return transformation_flow([(0, 0, 3, 3), (1, 2, 1, 2)])


# ---- enveloping semigroup -----------------------------------------------------

def test_s3_natural_closure_is_group():
    S = enveloping_semigroup(natural_flow(named_group("symmetric", n=3)))
    assert S.size == 6
    assert set(oracles.elements_of(S)) == set(itertools.permutations(range(3)))


def test_swap_const_closure():
    S = enveloping_semigroup(swap_const_flow())
    assert S.size == 4
    assert set(oracles.elements_of(S)) == {(1, 0), (0, 0), (0, 1), (1, 1)}
    assert set(oracles.elements_of(S)) == brute_closure([(1, 0), (0, 0)])


def test_trivial_group_closure():
    S = enveloping_semigroup(natural_flow(named_group("cyclic", n=1)))
    assert S.size == 1


def test_closure_matches_brute_force_on_random_maps():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 4)
        k = rng.randint(1, 3)
        maps = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(k)]
        S = enveloping_semigroup(transformation_flow(maps))
        assert set(oracles.elements_of(S)) == brute_closure(maps)


def test_closure_cap():
    """The cap is exceeded exactly when the closure (610 elements here) has
    more elements than the cap, and the message gives the cap."""
    f = transformation_flow([(1, 2, 3, 4, 0), (0, 0, 2, 3, 4)])
    with pytest.raises(ClosureCapExceeded,
                       match=r"^composition closure exceeded cap 3 \(3 elements found\)$"):
        enveloping_semigroup(f, caps=Caps(closure_cap=3))
    with pytest.raises(ClosureCapExceeded) as info:
        enveloping_semigroup(f, caps=Caps(closure_cap=609))
    assert (info.value.partial_count, info.value.cap) == (609, 609)
    assert str(info.value) == "composition closure exceeded cap 609 (609 elements found)"
    assert enveloping_semigroup(f, caps=Caps(closure_cap=610)).size == 610


def test_mul_is_composition():
    S = enveloping_semigroup(swap_const_flow())
    elements = oracles.elements_of(S)
    for i, f in enumerate(elements):
        for j, g in enumerate(elements):
            composed = tuple(f[g[x]] for x in range(2))
            assert elements[S.mul(i, j)] == composed


def test_lazy_mul_matches_table(monkeypatch):
    f = swap_const_flow()
    with_table = enveloping_semigroup(f)
    monkeypatch.setattr(ellis, "_TABLE_LIMIT", 0)
    lazy = enveloping_semigroup(f)
    assert with_table._table is not None and lazy._table is None
    for i in range(with_table.size):
        for j in range(with_table.size):
            assert with_table.mul(i, j) == lazy.mul(i, j)


# ---- large shapes: full table, on-demand products, huge closure ---------------

def first_ideal_group(flow):
    S = enveloping_semigroup(flow)
    ideals = minimal_left_ideals(S)
    return S, ideals, ideal_group(ideals[0], ideals[0].idempotents[0])


def test_d100_regular_shape():
    S, ideals, G = first_ideal_group(regular_flow(named_group("dihedral", n=100)))
    assert S.size == 200 <= ellis._TABLE_LIMIT
    assert S._table is not None
    assert len(ideals) == 1
    assert G.group_view.order == 200


def test_s6_natural_shape_above_table_cap():
    S, ideals, G = first_ideal_group(natural_flow(named_group("symmetric", n=6)))
    assert S.size == 720 > ellis._TABLE_LIMIT
    assert S._table is None
    assert len(ideals) == 1
    assert G.group_view.order == 720
    assert are_isomorphic(G.group_view, named_group("symmetric", n=6))


def test_t6_full_transformation_monoid_shape():
    n = 6
    cycle = [(x + 1) % n for x in range(n)]
    swap = [1, 0] + list(range(2, n))
    collapse = [0, 0] + list(range(2, n))
    S, ideals, G = first_ideal_group(transformation_flow([cycle, swap, collapse]))
    assert S.size == n ** n
    assert len(ideals) == 1
    elements = oracles.elements_of(S)
    assert {elements[c] for c in ideals[0].members} == \
        {(x,) * n for x in range(n)}
    assert len(ideals[0].idempotents) == 6
    assert G.group_view.order == 1


# ---- minimal ideals ---------------------------------------------------------------

def test_group_flow_single_ideal():
    S = enveloping_semigroup(natural_flow(named_group("symmetric", n=3)))
    ideals = minimal_left_ideals(S)
    assert len(ideals) == 1
    assert ideals[0].member_set == frozenset(range(6))
    assert len(ideals[0].idempotents) == 1


def test_swap_const_ideal():
    S = enveloping_semigroup(swap_const_flow())
    ideals = minimal_left_ideals(S)
    assert len(ideals) == 1
    elements = oracles.elements_of(S)
    members = {elements[i] for i in ideals[0].members}
    assert members == {(0, 0), (1, 1)}
    assert len(ideals[0].idempotents) == 2


def test_two_minimal_ideals():
    S = enveloping_semigroup(two_ideal_flow())
    ideals = minimal_left_ideals(S)
    assert len(ideals) == 2
    assert {m.member_set for m in ideals} == brute_minimal_left_ideals(S)


def test_ideals_match_brute_force_on_random_instances():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 4)
        maps = [tuple(rng.randrange(n) for _ in range(n))
                for _ in range(rng.randint(1, 3))]
        S = enveloping_semigroup(transformation_flow(maps))
        if S.size > 200:
            continue
        got = {m.member_set for m in minimal_left_ideals(S)}
        assert got == brute_minimal_left_ideals(S)


# ---- ideal groups -------------------------------------------------------------------

def test_constant_ideal_group_trivial():
    S = enveloping_semigroup(swap_const_flow())
    M = minimal_left_ideals(S)[0]
    u = M.idempotents[0]
    G = ideal_group(M, u)
    assert G.group_view.order == 1
    # c0 composed with c1 stays c0
    index = oracles.index_of(S)
    c0, c1 = index[(0, 0)], index[(1, 1)]
    assert S.mul(c0, c1) == c0


def test_s3_ideal_group_is_s3():
    S = enveloping_semigroup(natural_flow(named_group("symmetric", n=3)))
    M = minimal_left_ideals(S)[0]
    G = ideal_group(M, M.idempotents[0])
    assert are_isomorphic(G.group_view, named_group("symmetric", n=3))


def test_ideal_group_rejects_non_idempotent():
    S = enveloping_semigroup(natural_flow(named_group("symmetric", n=3)))
    M = minimal_left_ideals(S)[0]
    non_idem = next(s for s in M.members if S.mul(s, s) != s)
    with pytest.raises(NotIdempotent):
        ideal_group(M, non_idem)


def test_ideal_group_rejects_outsider():
    S = enveloping_semigroup(swap_const_flow())
    M = minimal_left_ideals(S)[0]
    outside = next(i for i in range(S.size) if i not in M.member_set)
    with pytest.raises(NotInIdeal):
        ideal_group(M, outside)


def test_ideal_group_isomorphism_same_ideal():
    S = enveloping_semigroup(swap_const_flow())
    M = minimal_left_ideals(S)[0]
    u, v = M.idempotents
    gu = ideal_group(M, u)
    gv = ideal_group(M, v)
    image = ideal_group_isomorphism(gu, gv)
    assert image == (v,)


def test_ideal_group_isomorphism_rejects_groups_of_two_semigroups():
    groups = []
    for _ in range(2):
        M = minimal_left_ideals(enveloping_semigroup(swap_const_flow()))[0]
        groups.append(ideal_group(M, M.idempotents[0]))
    with pytest.raises(GroupMismatch, match="different semigroups"):
        ideal_group_isomorphism(*groups)


def test_ideal_group_rejects_a_set_not_closed_under_composition():
    # u = (0, 0, 2) is idempotent and y = u·(2, 0, 1) = (2, 0, 0), but
    # y·u = (2, 2, 0) is outside {u, y}: the generator row of y leaves the set
    S = enveloping_semigroup(transformation_flow([(1, 2, 0), (1, 0, 2), (0, 0, 2)]))
    index = oracles.index_of(S)
    u, x = index[(0, 0, 2)], index[(2, 0, 1)]
    fake = MinimalIdeal(S, tuple(sorted((u, x))), (u,))
    with pytest.raises(TheoremViolation, match="u·M not closed"):
        ideal_group(fake, u)


def test_ideal_group_refutes_constants_without_inverse():
    # T2 = {id, swap, c0, c1} with u = id: u·M is all of T2, and the
    # constant generator's row c·x = c never reaches u
    S = enveloping_semigroup(swap_const_flow())
    index = oracles.index_of(S)
    assert S.size == 4
    u = index[(0, 1)]
    fake = MinimalIdeal(S, tuple(range(4)), (u,))
    with pytest.raises(TheoremViolation, match="without two-sided inverse") as exc:
        ideal_group(fake, u)
    assert oracles.elements_of(S)[exc.value.witness] in {(0, 0), (1, 1)}


def fake_table_semigroup(table):
    """The closure of a 3-cycle, three elements, with its table replaced by
    `table`: products no composition of maps gives."""
    S = enveloping_semigroup(natural_flow(named_group("cyclic", n=3)))
    S._table = table
    return S, MinimalIdeal(S, (0, 1, 2), (0,))


def test_ideal_group_refutes_a_row_of_u_that_is_not_the_identity():
    # u = 0 is idempotent and u·M = {0, 1, 2}, but u·1 = 2
    _, fake = fake_table_semigroup(((0, 2, 1), (1, 2, 0), (2, 0, 1)))
    with pytest.raises(TheoremViolation, match="not a left identity") as exc:
        ideal_group(fake, 0)
    assert exc.value.witness == 1


def test_ideal_group_refutes_a_one_sided_inverse():
    # generator 1 reaches everything from u = 0 and 1·2 = u, but 2·1 = 1
    _, fake = fake_table_semigroup(((0, 1, 2), (1, 2, 0), (2, 1, 0)))
    with pytest.raises(TheoremViolation, match="without two-sided inverse") as exc:
        ideal_group(fake, 0)
    assert exc.value.witness == 1


def test_ideal_group_isomorphisms_across_ideals():
    S = enveloping_semigroup(two_ideal_flow())
    ideals = minimal_left_ideals(S)
    groups = [ideal_group(M, u) for M in ideals for u in M.idempotents]
    for gu in groups:
        for gv in groups:
            image = ideal_group_isomorphism(gu, gv)
            assert set(image) == set(gv.members)
            # identity goes to identity
            pos = gu.members.index(gu.idempotent)
            assert image[pos] == gv.idempotent


def test_within_ideal_isomorphism_is_left_translation():
    # inside one minimal ideal the explicit isomorphism is s -> v·s
    S = enveloping_semigroup(two_ideal_flow())
    for M in minimal_left_ideals(S):
        for u in M.idempotents:
            gu = ideal_group(M, u)
            for v in M.idempotents:
                gv = ideal_group(M, v)
                image = ideal_group_isomorphism(gu, gv)
                assert image == tuple(S.mul(v, s) for s in gu.members)


def test_two_sided_conjugation_fails_for_incompatible_pairs():
    # regression: v·s·v is a bijection but not a homomorphism when v·u != u
    # and the idempotents sit in different minimal ideals
    S = enveloping_semigroup(two_ideal_flow())
    ideals = minimal_left_ideals(S)
    found_incompatible_failure = False
    for M in ideals:
        for u in M.idempotents:
            gu = ideal_group(M, u)
            for N in ideals:
                for v in N.idempotents:
                    gv = ideal_group(N, v)
                    conj = [S.mul(S.mul(v, s), v) for s in gu.members]
                    is_hom = all(
                        S.mul(S.mul(v, S.mul(a, b)), v) == S.mul(conj[i], conj[j])
                        for i, a in enumerate(gu.members)
                        for j, b in enumerate(gu.members)
                    )
                    if S.mul(v, u) == u:
                        assert is_hom  # compatible pairs: conjugation works
                    elif not is_hom:
                        found_incompatible_failure = True
    assert found_incompatible_failure


def test_isomorphism_through_an_incompatible_idempotent_is_refuted(monkeypatch):
    # s -> v·(s·w) with w the idempotent of N that is not compatible with u
    S = enveloping_semigroup(two_ideal_flow())
    ideals = minimal_left_ideals(S)
    compatible = ellis.compatible_idempotent
    monkeypatch.setattr(ellis, "compatible_idempotent", lambda gu, N: next(
        w for w in N.idempotents if w != compatible(gu, N)))
    refuted = 0
    for M, N in itertools.permutations(ideals, 2):
        for u in M.idempotents:
            for v in N.idempotents:
                with pytest.raises(IsomorphismViolated, match="not a homomorphism"):
                    ideal_group_isomorphism(ideal_group(M, u), ideal_group(N, v))
                refuted += 1
    assert refuted == 8


# ---- circ and closure ------------------------------------------------------------------

def test_circ_identity_element():
    S = enveloping_semigroup(natural_flow(named_group("symmetric", n=3)))
    e = oracles.index_of(S)[tuple(range(3))]
    B = frozenset({0, 2, 4})
    assert circ(S, e, B) == B


def test_circ_empty():
    S = enveloping_semigroup(swap_const_flow())
    assert circ(S, 0, frozenset()) == frozenset()


def test_circ_swap_of_constant():
    S = enveloping_semigroup(swap_const_flow())
    index = oracles.index_of(S)
    swap, c0, c1 = index[(1, 0)], index[(0, 0)], index[(1, 1)]
    assert circ(S, swap, {c0}) == {c1}


def test_circ_identity_battery():
    rng = random.Random(3)
    flows = [swap_const_flow(), two_ideal_flow(),
             natural_flow(named_group("symmetric", n=3))]
    for f in flows:
        S = enveloping_semigroup(f)
        elems = range(S.size)
        for _ in range(50):
            a = rng.choice(elems)
            b = rng.choice(elems)
            c = rng.choice(elems)
            B = frozenset(rng.sample(elems, k=rng.randint(0, S.size)))
            C = frozenset(rng.sample(elems, k=rng.randint(0, S.size)))
            # (a∘B)c = a∘(Bc)
            lhs = frozenset(S.mul(x, c) for x in circ(S, a, B))
            rhs = circ(S, a, frozenset(S.mul(x, c) for x in B))
            assert lhs == rhs
            # a∘(b∘B) ⊆ (ab)∘B
            assert circ(S, a, circ(S, b, B)) <= circ(S, S.mul(a, b), B)
            # aB ⊆ a∘B
            assert frozenset(S.mul(a, x) for x in B) <= circ(S, a, B)
            # a∘(B∪C) = (a∘B)∪(a∘C)
            assert circ(S, a, B | C) == circ(S, a, B) | circ(S, a, C)


def test_circ_identities_exhaustive_on_two_points():
    # every transformation flow with at most two generators on two points,
    # all elements and all subsets: the identity battery holds everywhere
    all_maps = list(itertools.product(range(2), repeat=2))
    gen_sets = [(m,) for m in all_maps] + list(itertools.product(all_maps, repeat=2))
    for gens in gen_sets:
        S = enveloping_semigroup(transformation_flow(list(gens)))
        subsets = [frozenset(c) for r in range(S.size + 1)
                   for c in itertools.combinations(range(S.size), r)]
        for a in range(S.size):
            for b in range(S.size):
                for B in subsets:
                    assert circ(S, a, circ(S, b, B)) <= circ(S, S.mul(a, b), B)
                    assert frozenset(S.mul(a, x) for x in B) <= circ(S, a, B)
                    for c in range(S.size):
                        lhs = frozenset(S.mul(x, c) for x in circ(S, a, B))
                        rhs = circ(S, a, frozenset(S.mul(x, c) for x in B))
                        assert lhs == rhs
        # the ideal structure is validated as a side effect
        minimal_left_ideals(S)


def test_tau_closure_axioms():
    rng = random.Random(5)
    for f in [swap_const_flow(), two_ideal_flow(),
              natural_flow(named_group("symmetric", n=3))]:
        S = enveloping_semigroup(f)
        for M in minimal_left_ideals(S):
            for u in M.idempotents:
                G = ideal_group(M, u)
                assert tau_closure(G, frozenset()) == frozenset()
                full = frozenset(G.members)
                assert tau_closure(G, full) == full
                for _ in range(10):
                    A = frozenset(rng.sample(G.members,
                                             k=rng.randint(0, len(G.members))))
                    B = frozenset(rng.sample(G.members,
                                             k=rng.randint(0, len(G.members))))
                    assert tau_closure(G, A) == A  # discrete
                    assert tau_closure(G, A | B) == tau_closure(G, A) | tau_closure(G, B)


def test_h_subgroup_trivial_and_normal():
    for f in [swap_const_flow(), two_ideal_flow(),
              natural_flow(named_group("symmetric", n=3))]:
        S = enveloping_semigroup(f)
        for M in minimal_left_ideals(S):
            G = ideal_group(M, M.idempotents[0])
            H = h_subgroup(G)
            assert H.members == {G.group_view.identity}
            assert H.is_normal()


# ---- induced epimorphisms ---------------------------------------------------------------

def test_identity_epimorphism():
    amb = make_ambit(natural_flow(named_group("symmetric", n=3)), 0)
    m = FlowMorphism(amb, amb, tuple(range(3)))
    epi = induced_epimorphism(m)
    assert epi.element_map == tuple(range(epi.source.size))


def test_induced_epimorphism_rejects_an_invalid_morphism():
    amb = make_ambit(natural_flow(named_group("symmetric", n=3)), 0)
    with pytest.raises(GroupMismatch, match="invalid morphism"):
        induced_epimorphism(FlowMorphism(amb, amb, (0, 0, 0)))


def test_regular_to_natural_epimorphism():
    G = named_group("symmetric", n=3)
    reg = make_ambit(regular_flow(G), G.identity)
    nat = make_ambit(natural_flow(G), 0)
    pm = tuple(G.perms[g][0] for g in G.elements())
    epi = induced_epimorphism(FlowMorphism(reg, nat, pm))
    assert epi.surjective
    assert epi.source.size == 6 and epi.target.size == 6
    assert epi.ideal_images == ((0, 0),)


def test_induced_epimorphism_checks_products_against_the_target_table():
    # a target table with two rows swapped is not the composition of its maps
    G = named_group("symmetric", n=3)
    reg = make_ambit(regular_flow(G), G.identity)
    nat = make_ambit(natural_flow(G), 0)
    pm = tuple(G.perms[g][0] for g in G.elements())
    target = enveloping_semigroup(nat.flow)
    rows = list(target._table)
    rows[1], rows[2] = rows[2], rows[1]
    target._table = tuple(rows)
    with pytest.raises(TheoremViolation, match="induced map not multiplicative"):
        induced_epimorphism(FlowMorphism(reg, nat, pm), target_semigroup=target)


def test_product_projection_epimorphism():
    f1 = natural_flow(named_group("symmetric", n=3))
    f2 = natural_flow(named_group("cyclic", n=2))
    prod = product_flow([f1, f2])
    amb = make_ambit(prod, 0)
    a1 = make_ambit(f1, 0)
    # project onto the first coordinate; group correspondence sends each
    # product generator (an element of G1 x G2) to its first component
    pm = tuple(x // f2.points for x in range(prod.points))
    nb = f2.group.order
    corr = tuple(g // nb for g in prod.generator_elements())
    epi = induced_epimorphism(FlowMorphism(amb, a1, pm, corr))
    assert epi.surjective
    assert epi.target.size == 6


def test_transformation_flow_epimorphism():
    # glue the two points of the swap+collapse flow together; the collapsed
    # flow's closure is trivial and every ideal maps onto it
    src = make_ambit(swap_const_flow(), 0)
    tgt = make_ambit(transformation_flow([(0,), (0,)]), 0)
    m = FlowMorphism(src, tgt, (0, 0), generator_correspondence=(0, 1))
    epi = induced_epimorphism(m)
    assert epi.surjective and epi.target.size == 1
    assert epi.ideal_images == ((0, 0),)


def test_product_semigroup_isomorphic_to_product_of_semigroups():
    f1 = natural_flow(named_group("cyclic", n=2))
    f2 = natural_flow(named_group("cyclic", n=3))
    prod = product_flow([f1, f2])
    S = enveloping_semigroup(prod)
    S1 = enveloping_semigroup(f1)
    S2 = enveloping_semigroup(f2)
    assert S.size == S1.size * S2.size
    # the pair of projections is injective on the product semigroup
    pairs = set()
    for f in oracles.elements_of(S):
        left = tuple(f[x * 3] // 3 for x in range(2))
        right = tuple(f[x] % 3 for x in range(3))
        pairs.add((left, right))
    assert len(pairs) == S.size


def test_minimal_ideal_validation_rejects_fake_ideals():
    # two minimal left ideals, (1, 3) and (2, 4); element 0 is in neither
    # and both of its left products g·0 land in (2, 4)
    S = enveloping_semigroup(transformation_flow([(0, 0, 2, 1), (1, 1, 2, 2)]))
    first, second = minimal_left_ideals(S)
    assert (first.members, second.members) == ((1, 3), (2, 4))
    assert {S.times(g)[0] for g in S.generators} == {2, 4}
    idems = first.idempotents + second.idempotents
    fakes = {
        # closed, but the walks from 1 never reach (2, 4)
        "union of two ideals": MinimalIdeal(S, (1, 2, 3, 4), idems),
        # g·0 lands in (2, 4), outside the set: not closed
        "ideal plus an element mapping out": MinimalIdeal(S, (0, 1, 3),
                                                          first.idempotents),
        # closed, and the forward walk from 0 covers it; only the backward
        # walk finds that nothing returns to 0
        "ideal plus an element mapping in": MinimalIdeal(S, (0, 2, 4),
                                                         second.idempotents),
    }
    for fake in fakes.values():
        with pytest.raises(TheoremViolation, match="not generated by member"):
            _validate_minimal_ideal(fake)
    for M in (first, second):
        _validate_minimal_ideal(M)
