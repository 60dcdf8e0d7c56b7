import itertools
import json
import random

import pytest

import oracles
from elliskit import algebra, ellis, suites
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
from elliskit.cli import main
from elliskit.ellis import (
    EllisSemigroup,
    MinimalIdeal,
    _validate_minimal_ideal,
    enveloping_semigroup,
    h_subgroup,
    ideal_group,
    ideal_group_isomorphism,
    induced_epimorphism,
    minimal_left_ideals,
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
    table = oracles.composition_table(oracles.elements_of(S))
    candidates = {frozenset(oracles.left_reach(table, S.generators, s))
                  for s in range(S.size)}
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


def test_lazy_mul_matches_table():
    # products composed where they are read against the table `algebra`
    # builds for groups, from literal rows and row(a·g) = row(a)∘row(g)
    S = enveloping_semigroup(swap_const_flow())
    table, _ = algebra._table_by_rows(
        S.size, lambda a: algebra._ComposedRow(S.maps, S.keys, a).literal())
    assert table == tuple(tuple(S.mul(i, j) for j in range(S.size))
                          for i in range(S.size))


# ---- large shapes: products on demand, huge closure ---------------------------

def first_ideal_group(flow):
    S = enveloping_semigroup(flow)
    ideals = minimal_left_ideals(S)
    return S, ideals, ideal_group(ideals[0], ideals[0].idempotents[0])


def test_d100_regular_shape():
    S, ideals, G = first_ideal_group(regular_flow(named_group("dihedral", n=100)))
    assert S.size == 200
    assert len(ideals) == 1
    assert G.group_view.order == 200


def test_s6_natural_shape_above_table_cap():
    S, ideals, G = first_ideal_group(natural_flow(named_group("symmetric", n=6)))
    assert S.size == 720
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


def with_rows(S, row_of):
    """S with row a read as `row_of(a)`: products no composition of its maps
    need give."""

    class Faked(EllisSemigroup):
        __slots__ = ()

        def times(self, a):
            return row_of(a)

    return Faked(S.flow, S.maps, S.keys, len(S.generators))


def fake_table_semigroup(table):
    """The closure of a 3-cycle, three elements, with its rows replaced by
    those of `table`."""
    S = with_rows(enveloping_semigroup(natural_flow(named_group("cyclic", n=3))),
                  table.__getitem__)
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


def test_isomorphism_through_a_collapsing_row_is_refuted():
    # v's row sends s1·w where it sends s0·w, so s -> v·(s·w) repeats a value
    S = enveloping_semigroup(two_ideal_flow())
    ideals = minimal_left_ideals(S)
    refuted = 0
    for M, N in itertools.permutations(ideals, 2):
        for u in M.idempotents:
            for v in N.idempotents:
                gu, gv = ideal_group(M, u), ideal_group(N, v)
                w = ellis.compatible_idempotent(gu, N)
                s0, s1 = (S.mul(s, w) for s in gu.members[:2])
                row = [S.times(v)[b] for b in range(S.size)]
                row[s1] = row[s0]
                F = with_rows(S, lambda a: row if a == v else S.times(a))
                fu, fv = (g._replace(ideal=g.ideal._replace(parent=F)) for g in (gu, gv))
                with pytest.raises(IsomorphismViolated, match="not a bijection"):
                    ideal_group_isomorphism(fu, fv)
                refuted += 1
    assert refuted == 8


# ---- a∘B and the τ-closure ----------------------------------------------------------

def circ(S, a, B):
    """a∘B over the semigroup's products, by the oracle's literal form."""
    return oracles.circ(S.mul, a, B)


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

                def tau_closure(A):
                    closed, failed = oracles.tau_closure(S.mul, G.members, u, A)
                    assert failed == []
                    return closed
                assert tau_closure(frozenset()) == frozenset()
                full = frozenset(G.members)
                assert tau_closure(full) == full
                for _ in range(10):
                    A = frozenset(rng.sample(G.members,
                                             k=rng.randint(0, len(G.members))))
                    B = frozenset(rng.sample(G.members,
                                             k=rng.randint(0, len(G.members))))
                    assert tau_closure(A) == A  # discrete
                    assert tau_closure(A | B) == tau_closure(A) | tau_closure(B)


def test_h_subgroup_trivial_and_normal():
    for f in [swap_const_flow(), two_ideal_flow(),
              natural_flow(named_group("symmetric", n=3))]:
        S = enveloping_semigroup(f)
        for M in minimal_left_ideals(S):
            G = ideal_group(M, M.idempotents[0])
            H = h_subgroup(G)
            assert H.members == {G.group_view.identity}
            assert H.is_normal()


def moved_identity_row(M, u):
    """M on a semigroup whose row of u swaps two members of u·M other than
    u, every other row unchanged; M itself when u·M has no two such
    members. u stays idempotent and u·M keeps its members."""
    S = M.parent
    others = [s for s in ideal_group(M, u).members if s != u]
    if len(others) < 2:
        return M
    row = [S.times(u)[b] for b in range(S.size)]
    a, b = others[:2]
    row[a], row[b] = b, a
    moved = with_rows(S, lambda x: row if x == u else S.times(x))
    return M._replace(parent=moved)


def test_verify_records_a_moved_identity_row_as_a_failed_check(monkeypatch, capsys):
    monkeypatch.setattr(suites, "ideal_group",
                        lambda M, u: ideal_group(moved_identity_row(M, u), u))
    assert main(["verify", "--suite", "ellis", "--instances", "20", "--seed", "7",
                 "--format", "json"]) == 1
    # an ideal group of order 1 or 2 has no two members for u to swap
    failed = [v for v in json.loads(capsys.readouterr().out)["verdicts"]
              if not v["passed"]]
    assert len(failed) >= 3
    assert all("u is not a left identity on u·M" in v["witness"] for v in failed)


# ---- induced epimorphisms ---------------------------------------------------------------

def induced(m):
    """The epimorphism m induces between its flows' closures, built here."""
    return induced_epimorphism(m, enveloping_semigroup(m.source.flow),
                               enveloping_semigroup(m.target.flow))


def test_identity_epimorphism():
    amb = make_ambit(natural_flow(named_group("symmetric", n=3)), 0)
    m = FlowMorphism(amb, amb, tuple(range(3)))
    epi = induced(m)
    assert epi.element_map == tuple(range(epi.source.size))


def test_induced_epimorphism_rejects_an_invalid_morphism():
    amb = make_ambit(natural_flow(named_group("symmetric", n=3)), 0)
    with pytest.raises(GroupMismatch, match="invalid morphism"):
        induced(FlowMorphism(amb, amb, (0, 0, 0)))


def test_regular_to_natural_epimorphism():
    G = named_group("symmetric", n=3)
    reg = make_ambit(regular_flow(G), G.identity)
    nat = make_ambit(natural_flow(G), 0)
    pm = tuple(G.perms[g][0] for g in G.elements())
    epi = induced(FlowMorphism(reg, nat, pm))
    assert sorted(epi.element_map) == list(range(6))
    assert epi.source.size == 6 and epi.target.size == 6
    assert epi.ideal_images == ((0, 0),)


def test_induced_epimorphism_checks_products_against_the_target_table():
    # a target with rows 1 and 2 swapped is not the composition of its maps
    G = named_group("symmetric", n=3)
    reg = make_ambit(regular_flow(G), G.identity)
    nat = make_ambit(natural_flow(G), 0)
    pm = tuple(G.perms[g][0] for g in G.elements())
    S = enveloping_semigroup(nat.flow)
    target = with_rows(S, lambda a: S.times({1: 2, 2: 1}.get(a, a)))
    with pytest.raises(TheoremViolation, match="induced map not multiplicative"):
        induced_epimorphism(FlowMorphism(reg, nat, pm),
                            enveloping_semigroup(reg.flow), target)


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
    epi = induced(FlowMorphism(amb, a1, pm, corr))
    assert set(epi.element_map) == set(range(6))
    assert epi.target.size == 6


def test_transformation_flow_epimorphism():
    # glue the two points of the swap+collapse flow together; the collapsed
    # flow's closure is trivial and every ideal maps onto it
    src = make_ambit(swap_const_flow(), 0)
    tgt = make_ambit(transformation_flow([(0,), (0,)]), 0)
    m = FlowMorphism(src, tgt, (0, 0), generator_correspondence=(0, 1))
    epi = induced(m)
    assert set(epi.element_map) == {0} and epi.target.size == 1
    assert epi.ideal_images == ((0, 0),)


def test_induced_epimorphism_refutes_targets_that_do_not_generate():
    # the swap on two points mapped onto the swap-and-collapse flow by the
    # identity: equivariant for the swap alone, whose closure misses both
    # constants of the target's closure
    src = make_ambit(transformation_flow([(1, 0)]), 0)
    tgt = make_ambit(swap_const_flow(), 0)
    m = FlowMorphism(src, tgt, (0, 1), generator_correspondence=(0,))
    with pytest.raises(TheoremViolation, match="induced map not surjective; witness 2"):
        induced(m)


def test_induced_epimorphism_rejects_a_semigroup_of_another_flow():
    amb = make_ambit(natural_flow(named_group("symmetric", n=3)), 0)
    m = FlowMorphism(amb, amb, tuple(range(3)))
    S = enveloping_semigroup(amb.flow)
    other = enveloping_semigroup(natural_flow(named_group("symmetric", n=3)))
    for given in ((other, S), (S, other)):
        with pytest.raises(GroupMismatch, match="semigroup of another flow"):
            induced_epimorphism(m, *given)


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
    # and both of its left products g·0 land in (2, 4). The certificate
    # reads each member's generator successors, here off the rows.
    S = enveloping_semigroup(transformation_flow([(0, 0, 2, 1), (1, 1, 2, 2)]))
    first, second = minimal_left_ideals(S)
    assert (first.members, second.members) == ((1, 3), (2, 4))
    assert {S.times(g)[0] for g in S.generators} == {2, 4}

    def successors(members):
        return {s: [S.times(g)[s] for g in S.generators] for s in members}
    fakes = {
        # closed, but the walks from 1 never reach (2, 4)
        "union of two ideals": (1, 2, 3, 4),
        # g·0 lands in (2, 4), outside the set: not closed
        "ideal plus an element mapping out": (0, 1, 3),
        # closed, and the forward walk from 0 covers it; only the backward
        # walk finds that nothing returns to 0
        "ideal plus an element mapping in": (0, 2, 4),
    }
    for fake in fakes.values():
        with pytest.raises(TheoremViolation, match="not generated by member"):
            _validate_minimal_ideal(successors(fake))
    for M in (first, second):
        assert _validate_minimal_ideal(successors(reversed(M.members))) == M.members


def test_a_set_not_left_closed_is_not_generated_by_member(monkeypatch):
    # a 3-cycle and the constant map to 0: the kernel is the three constant
    # maps, and S·c0 holds all three. Cut the walk of S·s down to {s}: the
    # constant c0 absorbs right products, so its orbit is {c0} alone, and
    # the 3-cycle times c0 leaves it; the generation certificate sees that
    # recorded edge leave
    S = enveloping_semigroup(transformation_flow([(1, 2, 0), (0, 0, 0)]))
    c0 = S.keys[S.key((0, 0, 0))]
    assert len(minimal_left_ideals(S)) == 1
    monkeypatch.setattr(ellis, "_left_walk",
                        lambda rows, s: {s: [row[s] for row in rows]})
    assert ellis._kernel_element(S) == c0
    with pytest.raises(TheoremViolation, match="not generated by member"):
        minimal_left_ideals(S)


# ---- products read by the ideal pipeline ------------------------------------------

def several_ideal_flows(count):
    """Seeded transformation flows whose closures have at least two minimal
    left ideals and no generator among their members, so a product read
    off a generator's row is a left product g·s and any other is a right
    one r·g."""
    rng = random.Random(34)
    found = 0
    while found < count:
        n = rng.randint(3, 5)
        flow = transformation_flow([[rng.randrange(n) for _ in range(n)]
                                    for _ in range(rng.randint(2, 3))])
        S = enveloping_semigroup(flow)
        ideals = minimal_left_ideals(S)
        if len(ideals) >= 2 and not any(M.member_set & set(S.generators) for M in ideals):
            found += 1
            yield flow


def counted_reads(monkeypatch):
    """The (a, b) of every product a·b read from a row, and the a of every
    row made, as they happen."""
    reads, made = [], []
    init, get = algebra._ComposedRow.__init__, algebra._ComposedRow.__getitem__

    def counted_init(self, maps, keys, a):
        made.append(a)
        init(self, maps, keys, a)

    def counted_get(self, b):
        reads.append((self.a, b))
        return get(self, b)
    monkeypatch.setattr(algebra._ComposedRow, "__init__", counted_init)
    monkeypatch.setattr(algebra._ComposedRow, "__getitem__", counted_get)
    return reads, made


def test_minimal_left_ideals_read_each_generator_product_once(monkeypatch):
    """Past the kernel element, `minimal_left_ideals` reads each member's
    product g·s once for each generator g and no other left product, k
    right products r·g for one member r of each ideal, and makes rows only
    for the generators and those members: no row squares a member."""
    flows = list(several_ideal_flows(8))
    reads, made = counted_reads(monkeypatch)
    for flow in flows:
        S = enveloping_semigroup(flow)
        e = ellis._kernel_element(S)
        S._rows.clear()
        del reads[:], made[:]
        with monkeypatch.context() as patched:
            patched.setattr(ellis, "_kernel_element", lambda S: e)
            ideals = minimal_left_ideals(S)
        assert [(M.members, M.idempotents) for M in ideals] == \
            oracles.minimal_left_ideals(oracles.composition_table(oracles.elements_of(S)),
                                        S.generators)
        gens = set(S.generators)
        members = [s for M in ideals for s in M.members]
        by_row = {}
        for a, b in reads:
            by_row.setdefault(a, []).append(b)
        for g in gens:
            assert sorted(by_row.pop(g)) == sorted(members)
        assert len(by_row) == len(ideals)
        for M in ideals:
            (r,) = M.member_set & set(by_row)
            assert by_row[r] == sorted(gens)
        assert sorted(made) == sorted(gens | set(by_row))
        assert set(S._rows) == gens | set(by_row)


def test_isomorphisms_compose_only_the_image_products(monkeypatch):
    """An isomorphism u·M -> v·N reads |u·M| products v·(s·w) through v's
    row, the column s·w composed from the maps, and for each generator a
    of u·M and for u the |u·M| products image(a)·image(b), a·b read off
    the group's rows: no other product, and rows only for v and those
    images."""
    reads, made = counted_reads(monkeypatch)
    pairs = 0
    for flow in several_ideal_flows(8):
        S = enveloping_semigroup(flow)
        elements, index = oracles.elements_of(S), oracles.index_of(S)
        groups = [ideal_group(M, u) for M in minimal_left_ideals(S) for u in M.idempotents]
        for gu, gv in itertools.permutations(groups, 2):
            w = ellis.compatible_idempotent(gu, gv.ideal)
            S._rows.clear()
            del reads[:], made[:]
            image = ideal_group_isomorphism(gu, gv)
            pairs += 1
            column = [index[oracles.compose(elements[s], elements[w])] for s in gu.members]
            outer = [image[i] for i in (*gu.group_view.gens, gu.group_view.identity)]
            assert sorted(reads) == sorted([(gv.idempotent, sw) for sw in column] +
                                           [(x, y) for x in outer for y in image])
            assert sorted(made) == sorted({gv.idempotent, *outer})
    assert pairs >= 8
