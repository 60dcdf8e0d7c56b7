"""Differential tests: the composed products of the closure, its ideals,
its ideal groups and permutation-group tables (built on first read) against
the literal compose-everything oracles in ``oracles.py``, the product and union action
tables against the coordinate decoders there, the cyclic-extension
subgroup lattice against the pairwise-closure one, the generators-first
invariance check against the all-elements scan, the generator-closed
witnessed relation against the all-translates one, and the minimal left
ideals found from the kernel against the sink components of the left
products, the kernel element found from the image orbit against the
minimum rank over the oracle closure (on closures of more than 512
elements and on 257 points too), the bitmask lattices (members,
membership, products and agreeability) against the frozenset ones, the
witness verdicts and supports found on the relation's own orbitals, and
maximal witnesses, against one pair closure per support, normality by
conjugating with the generators against conjugating with every element,
orbit relations against the pairs x ~ h·x, quotient cosets against
`left_cosets`, quotient tables against the literal coset tables, and the
fiber comparison, left invariance and proper-witness homomorphism check
against their all-pairs loops, the composition-limit identities,
τ-closures and H(u·M) against their literal formulas, and the seeded
draws read from `getrandbits` against `random.Random`'s own calls."""

import json
import math
import random
import tracemalloc
from itertools import islice

import pytest

import oracles
from elliskit import algebra, ellis, grouplike
from elliskit.algebra import (
    Subgroup,
    _composer,
    _table_by_rows,
    direct_product,
    enumerate_subgroups,
    group_from_permutations,
    group_from_table,
    left_cosets,
    named_group,
    normal_core,
    quaternion_group,
    quotient_group,
    subgroup_generated,
)
from elliskit.caps import DEFAULT_CAPS, Caps
from elliskit.catalog import affine_f2_fixture, structured_catalog
from elliskit.cli import main
from elliskit.errors import (
    ClosureCapExceeded,
    GroupTooLarge,
    NotALattice,
    NotAnAction,
    NotAWitness,
    NotInvariant,
    NotNormal,
    SizeCapExceeded,
    TheoremViolation,
)
from elliskit.ellis import (
    _kernel_element,
    enveloping_semigroup,
    ideal_group,
    minimal_left_ideals,
)
from elliskit.flows import (
    FlowMorphism,
    check_morphism,
    coset_flow,
    disjoint_union_flow,
    make_ambit,
    make_flow,
    natural_flow,
    product_flow,
    regular_flow,
    transformation_flow,
)
from elliskit import suites
from elliskit.generators import (
    _battery_draws,
    _skip_sample,
    group_catalog,
    random_group,
    random_group_like_setup,
    random_ellis_flow,
    random_group_flow,
    random_invariant_relation,
)
from elliskit.relations import (
    WitnessPair,
    _classes,
    first_split,
    _orbitals,
    _subgroup_witnesses,
    _witnessed,
    equality_relation,
    invariant_relations,
    is_orbital,
    orbit_relation,
    is_weakly_orbital,
    make_relation,
    maximal_witnesses,
    r_relation,
    total_relation,
)
from elliskit.suites import run_suite
from elliskit.structured import (
    SectionProductLattice,
    StructuredInstance,
    _bits,
    _mask,
    _witnessing_supports,
    default_lattices,
    discrete_lattice,
    is_agreeable,
    make_lattice,
    product_lattice,
    verify_thm_worb,
)

ORACLE_SIZE = 300   # the oracle table composes every pair of elements
LARGE = 512         # closures above it are the large family: no oracle table


def random_flows(seed, count):
    """Transformation flows on 1 to 6 points and suite-style Ellis flows."""
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.5:
            n = rng.randint(2, 6)
            maps = [tuple(rng.randrange(n) for _ in range(n))
                    for _ in range(rng.randint(1, 3))]
            yield transformation_flow(maps)
        else:
            yield random_ellis_flow(rng, 6)


def rank_two_flows(seed, count):
    """Permutations of 3 to 5 points plus one idempotent of rank r >= 2,
    kept when every element of the closure has rank >= 2 (the product of
    the idempotent with the permutations often collapses further). Their
    closures often have several minimal left ideals."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 5)
        maps = [rng.sample(range(n), n) for _ in range(rng.randint(1, 2))]
        image = rng.sample(range(n), rng.randint(2, n - 1))
        maps.append([x if x in image else rng.choice(image) for x in range(n)])
        elements, _ = oracles.closure(maps)
        if min(len(set(w)) for w in elements) >= 2:
            yield transformation_flow(maps)


# Every Ellis product is composed where it is read, at every closure size.
# The tests that ran both row paths while closures of at most 512 elements
# kept a full table keep the id of the one path left.
ON_DEMAND = pytest.mark.parametrize("products", ["on-demand"])


def assert_ideals_and_groups_match_oracles(flow):
    """Compare the closure, its products, its minimal left ideals and every
    ideal group with the oracles; returns the number of ideals."""
    elements, gens = oracles.closure(flow.generator_maps())
    table = oracles.composition_table(elements)
    S = enveloping_semigroup(flow)
    assert oracles.elements_of(S) == elements
    assert S.generators == gens
    for i in range(S.size):
        assert [S.mul(i, j) for j in range(S.size)] == list(table[i])
    ideals = minimal_left_ideals(S)
    assert [(M.members, M.idempotents) for M in ideals] == \
        oracles.minimal_left_ideals(table, gens)
    for M in ideals:
        for s in M.members:
            assert oracles.left_reach(table, gens, s) == M.member_set
        for u in M.idempotents:
            G = ideal_group(M, u)
            members, mul, inverse, group_gens = oracles.ideal_group(
                table, M.members, u)
            assert G.members == members
            assert G.group_view.mul == mul
            assert G.group_view.inverse == inverse
            assert G.group_view.gens == group_gens
    return len(ideals)


@ON_DEMAND
def test_closure_ideals_and_groups_match_oracles(products):
    compared = 0
    for flow in random_flows(11, 300):
        if len(oracles.closure(flow.generator_maps())[0]) > ORACLE_SIZE:
            continue
        compared += 1
        assert_ideals_and_groups_match_oracles(flow)
    assert compared >= 250


@ON_DEMAND
def test_several_ideals_of_rank_two_match_oracles(products):
    counts = [assert_ideals_and_groups_match_oracles(flow)
              for flow in rank_two_flows(5, 300)]
    assert len(counts) >= 90
    assert sum(k > 1 for k in counts) >= 30


def assert_limit_identities_and_tau_match_oracles(flow, rng):
    """On 20 random rounds, the Ellis battery's composition-limit
    identities through `S.times`, and a∘B through `S.times` against the
    literal products; for every ideal group, the literal closure formulas
    on the empty set, the whole group and 5 random subsets, each closure
    the set itself, and `h_subgroup` against the literal intersection, a
    normal subgroup; and all ideal groups share one order. Returns the
    closure size and the ideal groups' orders."""
    S = enveloping_semigroup(flow)
    index, maps = oracles.index_of(S), oracles.elements_of(S)

    def literal(a, b):
        return index[oracles.compose(maps[a], maps[b])]

    def product(a, b):
        return S.times(a)[b]

    elems = range(S.size)
    for _ in range(20):
        a, b, c = (rng.randrange(S.size) for _ in range(3))
        B, C = (frozenset(rng.sample(elems, rng.randint(0, min(S.size, 8))))
                for _ in range(2))
        assert oracles.composition_identity_failures(product, a, b, c, B, C) == []
        assert oracles.circ(product, a, B) == oracles.circ(literal, a, B)
    orders = []
    for M in minimal_left_ideals(S):
        for u in M.idempotents:
            G = ideal_group(M, u)
            orders.append(len(G.members))
            subsets = [frozenset(), frozenset(G.members)] + [
                frozenset(rng.sample(G.members, rng.randint(0, len(G.members))))
                for _ in range(5)]
            for A in subsets:
                assert oracles.tau_closure(literal, G.members, u, A) == (A, [])
            H = ellis.h_subgroup(G)
            assert {G.members[i] for i in H.members} == \
                oracles.h_subgroup(literal, G.members, u)
            assert oracles.is_normal(G.group_view, H.members)
    assert len(set(orders)) == 1
    return S.size, orders


@ON_DEMAND
def test_limit_identities_tau_closure_and_h_match_oracles(products):
    rng = random.Random(26)
    sizes, orders = [], []
    for _ in range(60):
        size, group_orders = assert_limit_identities_and_tau_match_oracles(
            random_ellis_flow(rng, 6), rng)
        sizes.append(size)
        orders += group_orders
    assert max(sizes) > 100 and max(orders) > 2
    assert sum(k > 1 for k in orders) >= 20


def test_off_by_one_products_fail_the_identity_property(monkeypatch):
    times = ellis.EllisSemigroup.times

    def shifted(self, a):
        row = times(self, a)
        return [(row[b] + 1) % self.size for b in range(self.size)]

    monkeypatch.setattr(ellis.EllisSemigroup, "times", shifted)
    rng = random.Random(26)
    with pytest.raises(AssertionError):
        for _ in range(60):
            assert_limit_identities_and_tau_match_oracles(random_ellis_flow(rng, 6), rng)


# The closure holds maps as bytes up to 256 points and as tuples above; these
# flows sit on both sides of that boundary and use the top point values.

def embedded(maps, points, moved):
    """Maps on 0..k-1 acting on the points `moved` of 0..points-1 instead,
    every other point fixed."""
    out = []
    for m in maps:
        full = list(range(points))
        for x, y in zip(moved, m):
            full[x] = moved[y]
        out.append(full)
    return out


def wide_maps(seed, points, count):
    """Few random, mostly non-bijective maps on 2 to 4 points, moved onto
    the top point and (from 256 points on) point 255, plus random others."""
    rng = random.Random(seed)
    top = sorted({points - 1, min(points - 1, 255)})
    for _ in range(count):
        k = rng.randint(2, 4)
        moved = top + rng.sample(range(points - 2), k - len(top))
        rng.shuffle(moved)
        maps = [[rng.randrange(k) for _ in range(k)] for _ in range(rng.randint(1, 2))]
        yield embedded(maps, points, moved)


def left_products(S):
    """Every g·w, g a generator, read from row g, `times(g)`: the semigroup
    holds no Cayley graph."""
    return [[S.times(g)[w] for w in range(S.size)] for g in S.generators]


def right_products(S):
    """Every w·g, g a generator, read from row w, `times(w)`."""
    return [[S.times(w)[g] for w in range(S.size)] for g in S.generators]


def assert_generator_products_match_oracle(S, elements, gens):
    """Left products g·w and right products w·g by the generators against
    literal g∘w and w∘g lookups in the oracle closure."""
    index = {e: i for i, e in enumerate(elements)}
    assert left_products(S) == \
        [[index[oracles.compose(elements[g], w)] for w in elements] for g in gens]
    assert right_products(S) == \
        [[index[oracles.compose(w, elements[g])] for w in elements] for g in gens]


def assert_closure_matches_oracle(S, maps):
    """Elements in discovery order, the map-keyed index, and the left and
    right products by the generators against the oracle closure."""
    elements, gens = oracles.closure(maps)
    assert oracles.elements_of(S) == elements
    assert list(S.keys.items()) == list(zip(S.maps, range(S.size)))
    assert_generator_products_match_oracle(S, elements, gens)


@pytest.mark.parametrize("points", [255, 256, 257])
@ON_DEMAND
def test_closures_around_256_points_match_oracles(points, products):
    compared = 0
    for maps in wide_maps(points, points, 30):
        flow = transformation_flow(maps)
        if len(oracles.closure(maps)[0]) > 40:
            continue
        compared += 1
        assert_closure_matches_oracle(enveloping_semigroup(flow), maps)
        assert_ideals_and_groups_match_oracles(flow)
    assert compared >= 20


def test_closure_above_the_table_cap_around_256_points():
    """A 5-cycle and a rank-4 idempotent moved onto points that include 255
    and the top point: 610 elements, more than `LARGE`. The 256-point
    (bytes) and 257-point (tuples) closures match the oracle and have the
    same products, those by the generators on either side included, and
    minimal ideals as the 5-point one."""
    gens = [[1, 2, 3, 4, 0], [0, 0, 2, 3, 4]]
    S5 = enveloping_semigroup(transformation_flow(gens))
    assert S5.size == 610 > LARGE
    rng = random.Random(3)
    pairs = [(rng.randrange(S5.size), rng.randrange(S5.size)) for _ in range(200)]
    for points, moved in ((256, [255, 3, 254, 100, 0]), (257, [255, 3, 256, 100, 0])):
        maps = embedded(gens, points, moved)
        S = enveloping_semigroup(transformation_flow(maps))
        assert_closure_matches_oracle(S, maps)
        assert (right_products(S), left_products(S)) == \
            (right_products(S5), left_products(S5))
        elements, index = oracles.elements_of(S), oracles.index_of(S)
        for i, j in pairs:
            assert S.mul(i, j) == S5.mul(i, j) == \
                index[oracles.compose(elements[i], elements[j])]
        assert [(M.members, M.idempotents) for M in minimal_left_ideals(S)] == \
            [(M.members, M.idempotents) for M in minimal_left_ideals(S5)]


def mid_sized_closures(seed, points):
    """Random maps on 5 or 6 points, two or three of them, kept when their
    closure holds 500 to 2,000 elements. With `points` above 256 the
    maps are moved onto points that include 255 and the top point, so the
    closure holds tuples."""
    rng = random.Random(seed)
    caps = DEFAULT_CAPS._replace(closure_cap=2000)
    while True:
        k = rng.randint(5, 6)
        maps = [[rng.randrange(k) for _ in range(k)] for _ in range(rng.randint(2, 3))]
        if points > 256:
            maps = embedded(maps, points, [255, points - 1] + rng.sample(range(255), k - 2))
        try:
            S = enveloping_semigroup(transformation_flow(maps), caps=caps)
        except ClosureCapExceeded:
            continue
        if S.size >= 500:
            yield maps, S


@pytest.mark.parametrize("points", [6, 257])
def test_generator_products_above_the_table_cap_match_oracles(points):
    """On closures of more than `LARGE` elements, on bytes (6 points) and
    tuple (257 points) maps: left products composed by `times(g)[w]`
    against literal g∘w lookups, right products `times(w)[g]` against
    literal w∘g, and
    `algebra._right_closure`'s (maps, keys, k) against the oracle's
    right-only discovery order and its distinct generators."""
    for maps, S in islice(mid_sized_closures(points, points), 6):
        assert LARGE < S.size <= 2000
        elements, gens = oracles.closure(maps)
        assert oracles.elements_of(S) == elements
        assert_generator_products_match_oracle(S, elements, gens)
        closed, keys, k = algebra._right_closure(
            S.flow.generator_maps(), S.key, S.size, AssertionError)
        assert (closed, keys, tuple(range(k))) == (S.maps, S.keys, gens)


@pytest.mark.parametrize("points", [6, 257])
def test_kernel_reads_above_the_table_cap_match_oracles(points):
    """On closures of more than `LARGE` elements, on bytes (6 points) and
    tuple (257 points) maps, where each left product g·w is composed by
    `times(g)[w]`: the kernel element has the minimum rank over the oracle
    closure, the minimal left ideals with their idempotents are the sink
    components of the oracle's left products, and the oracle's left reach
    of the kernel element is one of them."""
    above = ((maps, S) for maps, S in mid_sized_closures(100 + points, points)
             if S.size > LARGE)
    for maps, S in islice(above, 4):
        elements, gens = oracles.closure(maps)
        index = oracles.index_of(S)
        left = {g: [index[oracles.compose(elements[g], w)] for w in elements]
                for g in gens}
        e = _kernel_element(S)
        assert len(set(elements[e])) == min(len(set(w)) for w in elements)

        def successors(v):
            return [left[g][v] for g in gens]
        components = map(frozenset, oracles.tarjan_sccs(S.size, successors))
        sinks = sorted(sorted(c) for c in components
                       if all(c.issuperset(successors(v)) for v in c))
        idempotent = [oracles.compose(w, w) == w for w in elements]
        ideals = minimal_left_ideals(S)
        assert [(M.members, M.idempotents) for M in ideals] == \
            [(tuple(c), tuple(x for x in c if idempotent[x])) for c in sinks]
        assert oracles.left_reach(left, gens, e) in {M.member_set for M in ideals}


@pytest.mark.parametrize("points", [5, 257])
@ON_DEMAND
def test_semigroup_holds_no_cayley_graph(points, products):
    """On bytes (5 points) and tuple (257 points) maps: the semigroup holds
    its maps, their index and the rows read, and no table, Cayley graph or
    spanning tree; row a, `times(a)`, gives every product a·b, is kept
    from its first read, and the products by the generators on either side
    match the oracle's."""
    gens = [[1, 2, 3, 4, 0], [0, 0, 2, 3, 4]]
    maps = gens if points == 5 else embedded(gens, points, [255, 3, 256, 100, 0])
    S = enveloping_semigroup(transformation_flow(maps))
    assert S.size == 610
    assert S.generators == (0, 1)
    assert set(type(S).__slots__) == {"flow", "maps", "keys", "key", "generators", "_rows"}
    assert S._rows == {}
    elements, index = oracles.elements_of(S), oracles.index_of(S)
    read = random.Random(5).sample(range(S.size), 8)
    for a in read:
        row = S.times(a)
        assert [row[b] for b in range(S.size)] == \
            [index[oracles.compose(elements[a], w)] for w in elements]
        assert S.times(a) is row
    assert set(S._rows) == set(read)
    assert_generator_products_match_oracle(S, elements, S.generators)


@pytest.mark.parametrize("points", [3, 257])
def test_literal_row_of_a_map_list_not_closed_raises(points, monkeypatch):
    """A row composes a product missing from `keys` when the maps are not
    closed: a 3-cycle and its square without the identity, by hand (the
    literal row and the one product) and as the closure whose minimal
    ideals are read, on bytes (3 points) and tuple (257 points) maps. Each
    raises TheoremViolation, not KeyError, where the product is read."""
    cycle = embedded([[1, 2, 0]], points, [0, min(points - 2, 255), points - 1])[0]
    key = algebra._key_type(points)
    maps = [key(cycle), key(oracles.compose(cycle, cycle))]
    keys = {m: i for i, m in enumerate(maps)}
    with pytest.raises(TheoremViolation, match="composition closure not closed") as err:
        algebra._ComposedRow(maps, keys, 0).literal()
    assert err.value.witness == (0, 1)          # cycle∘cycle² is the identity
    assert algebra._ComposedRow(maps, keys, 0)[0] == 1
    with pytest.raises(TheoremViolation, match="composition closure not closed") as err:
        algebra._ComposedRow(maps, keys, 0)[1]
    assert err.value.witness == (0, 1)
    monkeypatch.setattr(ellis, "_right_closure", lambda *args: (maps, keys, 1))
    S = enveloping_semigroup(transformation_flow([cycle]))
    with pytest.raises(TheoremViolation, match="composition closure not closed"):
        minimal_left_ideals(S)


def test_t6_closure_holds_at_most_200_bytes_an_element():
    """The T6 closure (46,656 elements, three generators) under tracemalloc:
    the maps as bytes and the map -> index dict hold about 131.5 bytes an
    element, checked against 140. A right Cayley graph at 4 bytes an edge
    held 144; a spanning tree as well, at 8 bytes an element, 153; a left
    graph on top, 165; and both graphs as a tuple of edges per element,
    276."""
    _, flow = next(t6_and_s6())
    tracemalloc.start()
    try:
        S = enveloping_semigroup(flow)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert S.size == 46656
    assert held <= 140 * S.size


def test_d100_ideals_and_group_hold_no_multiplication_table():
    """The 200-element closure of D100 acting regularly, its minimal left
    ideal and first ideal group under tracemalloc: the maps, their index,
    the rows of the generators and of the walk's start (each a's map padded
    once) and the group's rows of u and its generators hold about 410 bytes
    an element, checked against 500. A row for every member of the ideal
    held about 780; a full table of the closure held 2,035: its pointers
    alone are 8 bytes an entry, 1,600 an element."""
    flow = regular_flow(named_group("dihedral", n=100))
    tracemalloc.start()
    try:
        S = enveloping_semigroup(flow)
        M = minimal_left_ideals(S)[0]
        G = ideal_group(M, M.idempotents[0])
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert S.size == G.group_view.order == 200
    assert held <= 500 * S.size


def kernel_element_families():
    """Random flows, rank-two flows and the 255/256/257-point families."""
    yield from random_flows(11, 150)
    yield from rank_two_flows(5, 150)
    for points in (255, 256, 257):
        yield from map(transformation_flow, wide_maps(points, points, 30))


@ON_DEMAND
def test_kernel_element_has_minimum_rank(products):
    compared = 0
    for flow in kernel_element_families():
        elements, _ = oracles.closure(flow.generator_maps())
        if len(elements) > ORACLE_SIZE:
            continue
        compared += 1
        e = _kernel_element(enveloping_semigroup(flow))
        assert len(set(elements[e])) == min(len(set(w)) for w in elements)
    assert compared >= 250


def t6_and_s6():
    cycle, swap, collapse = [1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5], [0, 0, 2, 3, 4, 5]
    yield [cycle, swap, collapse], transformation_flow([cycle, swap, collapse])
    yield [cycle, swap], natural_flow(group_from_permutations(6, [cycle, swap]))


@pytest.mark.parametrize("maps, flow", t6_and_s6(), ids=["T6", "S6"])
def test_products_above_the_table_cap_match_oracle(maps, flow):
    """The closures of more than `LARGE` elements (T6 and S6), their first
    ideal group and products composed on demand against the oracle's
    tuples."""
    S = enveloping_semigroup(flow)
    assert S.size > LARGE
    M = minimal_left_ideals(S)[0]
    ideal_group(M, M.idempotents[0])
    rng = random.Random(1)
    pairs = [(rng.randrange(S.size), rng.randrange(S.size)) for _ in range(200)]
    products = [S.mul(i, j) for i, j in pairs]
    elements, _ = oracles.closure(maps)
    assert oracles.elements_of(S) == elements
    index = oracles.index_of(S)
    assert products == [index[oracles.compose(elements[i], elements[j])]
                        for i, j in pairs]


@pytest.mark.parametrize("name, params", [("symmetric", {"n": 5}),
                                          ("dihedral", {"n": 30})])
def test_permutation_group_tables_match_oracle(name, params):
    G = named_group(name, **params)
    perms, mul, inverse = oracles.permutation_group(len(G.perms[0]),
                                                    G.perms[:len(G.gens)])
    assert G.perms == perms
    assert G.mul == mul
    assert G.inverse == inverse
    assert _table_by_rows(G.order, G.mul.__getitem__, start=(G.identity,))[1] == \
        oracles.small_generating_set(mul, G.identity)


@pytest.mark.parametrize("q, dim, step", [(2, 1, 1), (2, 2, 1), (3, 1, 1),
                                          (4, 1, 1), (3, 2, 1), (2, 3, 97)])
def test_affine_tables_match_oracle(q, dim, step):
    """Every `step`-th row of affine(q, dim), its identity and every inverse
    against matrix arithmetic over GF(q)."""
    G = named_group("affine", q=q, dim=dim)
    product, identity, order = oracles.affine_group(q, dim)
    assert G._tables is not None        # built on the first read below
    assert (G.order, G.identity) == (order, identity)
    for a in range(0, order, step):
        assert G.mul[a] == tuple(product(a, b) for b in range(order)), a
    assert all(product(a, G.inverse[a]) == identity for a in range(order))


@pytest.mark.parametrize("q, dim, step", [(2, 1, 1), (2, 2, 1), (3, 1, 1),
                                          (4, 1, 1), (3, 2, 1), (2, 3, 97)])
def test_affine_permutations_compose_like_the_table(q, dim, step):
    """affine(q, dim) acts naturally on its q^dim vectors, its permutations
    compose like its table on every `step`-th row, and on the four smallest
    groups its generators are the oracle's greedy generating set."""
    G = named_group("affine", q=q, dim=dim)
    assert natural_flow(G).points == q ** dim
    perms = G.perms
    for a in range(0, G.order, step):
        assert all(perms[G.mul[a][b]] == oracles.compose(perms[a], perms[b])
                   for b in range(G.order)), a
    if G.order <= 24:
        assert G.gens == oracles.small_generating_set(G.mul, G.identity)


def ideal_products(S, ideal):
    """The oracle's table over one ideal: row a, entry b is the index of
    the composed map a·b, for a and b in the ideal."""
    elements, index = oracles.elements_of(S), oracles.index_of(S)
    return {a: {b: index[oracles.compose(elements[a], elements[b])] for b in ideal}
            for a in ideal}


def test_deferred_ideal_groups_match_oracle():
    """The ideal groups of 400 seeded transformation flows and of S6 acting
    naturally (720 elements, more than `LARGE`): members and generators
    before any table is read, then `mul` and `inverse` built on first read,
    against the oracle's lookups in the composed products."""
    rng = random.Random(23)
    flows = []
    for _ in range(400):
        n = rng.randint(1, 5)
        flows.append(transformation_flow([tuple(rng.randrange(n) for _ in range(n))
                                          for _ in range(rng.randint(1, 3))]))
    flows.append(natural_flow(named_group("symmetric", n=6)))
    orders = set()
    for flow in flows:
        S = enveloping_semigroup(flow)
        for M in minimal_left_ideals(S):
            table = ideal_products(S, M.members)
            for u in M.idempotents:
                G = ideal_group(M, u)
                members, mul, inverse, gens = oracles.ideal_group(table, M.members, u)
                assert (G.members, G.group_view.gens) == (members, gens)
                assert G.group_view._tables is not None
                assert G.group_view.order == len(members)
                assert (G.group_view.mul, G.group_view.inverse) == (mul, inverse)
                assert (G.group_view._tables, type(G.group_view)) == \
                    (None, algebra.FiniteGroup)
                orders.add(len(members))
    assert {1, 720} <= orders and len(orders) >= 4


@pytest.mark.parametrize("degree, generators", [
    (0, []), (3, []), (4, [[0, 1, 2, 3]]),
    (4, [[1, 0, 2, 3], [1, 2, 3, 0]]), (5, [[1, 2, 3, 4, 0], [0, 4, 3, 2, 1]]),
    (5, [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0], [1, 0, 2, 3, 4]])])
def test_deferred_permutation_groups_match_oracle(degree, generators):
    """Degree 0 and empty generators give the trivial group; the oracle
    closes the identity for them."""
    G = group_from_permutations(degree, generators)
    assert G._tables is not None
    perms, mul, inverse = oracles.permutation_group(
        degree, generators or [tuple(range(degree))])
    assert (G.order, G.perms) == (len(perms), perms)
    assert (G.mul, G.inverse) == (mul, inverse)
    assert G.identity == perms.index(tuple(range(degree)))


def test_reading_inverse_before_mul_gives_the_same_tables():
    M = minimal_left_ideals(enveloping_semigroup(
        natural_flow(named_group("symmetric", n=4))))[0]
    built = [(named_group("symmetric", n=5), named_group("symmetric", n=5)),
             (named_group("affine", q=3, dim=1), named_group("affine", q=3, dim=1)),
             (ideal_group(M, M.idempotents[0]).group_view,
              ideal_group(M, M.idempotents[0]).group_view)]
    for inverse_first, mul_first in built:
        inverse = inverse_first.inverse
        assert (inverse_first.mul, inverse) == (mul_first.mul, mul_first.inverse)


def test_ellis_on_s6_builds_no_720_table(tmp_path, capsys, monkeypatch):
    """`elliskit ellis` reads only the order of the ideal group and only the
    permutations of the acting group, so neither 720-element table is built."""
    sizes = []

    def counted(n, literal_row, start=()):
        sizes.append(n)
        return _table_by_rows(n, literal_row, start)

    monkeypatch.setattr(algebra, "_table_by_rows", counted)
    G = named_group("symmetric", n=6)
    path = tmp_path / "s6.json"
    path.write_text(json.dumps({
        "group": {"kind": "permutation", "degree": 6,
                  "generators": [list(p) for p in G.perms[:len(G.gens)]]},
        "points": 6, "action": "natural"}))
    assert main(["ellis", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["structures"]["closure_size"],
            report["structures"]["ideal_group_order"]) == (720, 720)
    assert 720 not in sizes
    sizes.clear()
    assert len(G.mul) == 720 and sizes == [720]


def test_permutation_group_on_300_points_matches_oracle():
    """Above 256 points the closure holds tuples: S4 moved onto points that
    include 255, 256 and the top point, everything else fixed."""
    gens = embedded([[1, 0, 2, 3], [1, 2, 3, 0]], 300, [299, 0, 256, 255])
    G = group_from_permutations(300, gens)
    perms, mul, inverse = oracles.permutation_group(300, gens)
    assert G.order == 24
    assert (G.perms, G.mul, G.inverse) == (perms, mul, inverse)


def test_table_by_rows_rebuilds_catalog_tables_and_generating_sets():
    """From the identity's row and greedy literal rows, every catalog table
    comes back whole, and the rows read are the oracle's greedy generating
    set."""
    for G in group_catalog():
        assert _table_by_rows(G.order, G.mul.__getitem__, start=(G.identity,)) == \
            (G.mul, oracles.small_generating_set(G.mul, G.identity)), G.name


def test_group_from_table_keeps_catalog_tables_and_greedy_generators():
    for G in group_catalog():
        H = group_from_table(G.mul)
        assert (H.mul, H.identity, H.inverse) == (G.mul, G.identity, G.inverse)
        assert H.gens == oracles.small_generating_set(G.mul, G.identity), G.name


def same_group_flow(rng, G):
    """A regular or coset action of G, to sit beside another flow of G."""
    H = rng.choice(enumerate_subgroups(G))
    return coset_flow(G, H) if H.order > 1 else regular_flow(G)


def assert_acts_like(flow, oracle_act, factors, acting):
    for g in acting:
        for x in range(flow.points):
            assert flow.act(g, x) == oracle_act(factors, g, x)


def test_product_and_union_tables_match_decoders():
    rng = random.Random(3)
    for i in range(12):
        count = 2 + i % 2   # two or three factors or blocks
        factors = [random_group_flow(rng, 4, 6) for _ in range(count)]
        prod = product_flow(factors)
        assert prod.points == len(prod.maps[0])
        assert_acts_like(prod, oracles.product_act, factors, prod.group.elements())

        first = random_group_flow(rng, 6, 12)
        blocks = [first] + [same_group_flow(rng, first.group)
                            for _ in range(count - 1)]
        union = disjoint_union_flow(blocks)
        assert_acts_like(union, oracles.union_act, blocks, union.group.elements())

        k = rng.randint(1, 3)
        blocks = [transformation_flow([tuple(rng.randrange(n) for _ in range(n))
                                       for _ in range(k)])
                  for n in (rng.randint(1, 5) for _ in range(count))]
        union = disjoint_union_flow(blocks)
        assert_acts_like(union, oracles.union_act, blocks, range(k))
        assert union.generator_maps() == list(union.maps)

    G = named_group("dihedral", n=5)
    assert regular_flow(G).maps is G.mul
    assert natural_flow(G).maps is G.perms


def test_subgroup_lattices_match_oracle():
    for G in group_catalog() + [named_group("affine", q=2, dim=2)]:
        assert [H.sorted_members for H in enumerate_subgroups(G)] == \
            oracles.enumerate_subgroups(G.mul, G.identity), G.name


def test_s5_subgroup_lattice():
    G = named_group("symmetric", n=5)
    subs = enumerate_subgroups(G)
    assert len(subs) == 156
    assert len({H.members for H in subs}) == 156
    for H in subs:
        assert H == Subgroup(G, H.members)     # closed, with inverses
    keys = [(H.order, H.sorted_members) for H in subs]
    assert keys == sorted(keys)
    assert [H.order for H in subs].count(12) == 15   # 5 A4s, 10 S3 x S2s


def test_subgroup_lattice_memo_is_not_shared_with_callers():
    G = named_group("dihedral", n=6)
    first = enumerate_subgroups(G)
    expected = list(first)
    first.pop()
    first.reverse()
    assert enumerate_subgroups(G) == expected
    assert enumerate_subgroups(G) is not enumerate_subgroups(G)


def test_subgroup_bounds_hold_on_a_memoised_group():
    G = named_group("symmetric", n=4)
    assert len(enumerate_subgroups(G)) == 30
    with pytest.raises(GroupTooLarge):
        enumerate_subgroups(G, caps=DEFAULT_CAPS._replace(subgroup_enum_cap=23))
    with pytest.raises(GroupTooLarge):
        enumerate_subgroups(G, caps=DEFAULT_CAPS._replace(subgroup_enum_cap=12))


def test_group_catalog_shares_its_groups():
    first, second = group_catalog(), group_catalog()
    assert first is not second
    assert len(first) == 17
    assert all(a is b for a, b in zip(first, second, strict=True))


def test_invariance_verdicts_and_witnesses_match_oracle():
    rng = random.Random(5)
    verdicts = []
    regular = [regular_flow(G) for G in group_catalog() for _ in range(3)]
    for flow in list(random_flows(5, 200)) + regular:
        n = flow.points
        labels = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
        relations = [make_relation(n, [[x for x in range(n) if labels[x] == c]
                                       for c in sorted(set(labels))], flow)]
        if flow.is_group_flow:
            relations.append(random_invariant_relation(rng, flow))
        for E in relations:
            assert (E.invariant, E.invariance_witness) == \
                oracles.invariance(flow, E.class_of)
            verdicts.append(E.invariant)
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100


def test_composer_lengths_zero_one_and_more():
    outer = (7, 8, 9)
    for inner in [(), (2,), (2, 0), (1, 1, 0)]:
        assert _composer(inner)(outer) == oracles.compose(outer, inner)


@pytest.mark.parametrize("maps", [[[]], [[0]]], ids=["0-point", "1-point"])
def test_one_element_closures(tmp_path, capsys, maps):
    flow = transformation_flow(maps)
    elements, gens = oracles.closure(flow.generator_maps())
    S = enveloping_semigroup(flow)
    table = oracles.composition_table(elements)
    assert oracles.elements_of(S) == elements == (tuple(maps[0]),)
    assert S.generators == gens
    assert ((S.mul(0, 0),),) == table
    assert [(M.members, M.idempotents) for M in minimal_left_ideals(S)] == \
        oracles.minimal_left_ideals(table, gens)
    path = tmp_path / "flow.json"
    path.write_text(json.dumps({"transformations": maps}))
    assert main(["ellis", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["timing"]
    assert report == {
        "caps": None, "kind": "analysis", "name": "ellis", "passed": True,
        "seed": None, "verdicts": [],
        "structures": {"closure_size": 1, "ideal_group_order": 1,
                       "minimal_ideals": [{"size": 1, "idempotents": 1}]},
    }


def test_trivial_permutation_group_matches_oracle():
    G = group_from_permutations(1, [[0]])
    assert (G.perms, G.mul, G.inverse) == oracles.permutation_group(1, [[0]])
    assert G.gens == (0,)


def test_minimal_ideals_are_the_sink_components():
    several = 0
    for flow in [*random_flows(11, 100), *rank_two_flows(5, 300)]:
        S = enveloping_semigroup(flow)
        rows = [S.times(g) for g in S.generators]

        def successors(v):
            return [row[v] for row in rows]
        components = map(frozenset, oracles.tarjan_sccs(S.size, successors))
        sinks = sorted(sorted(c) for c in components
                       if all(c.issuperset(successors(v)) for v in c))
        ideals = minimal_left_ideals(S)
        assert [list(M.members) for M in ideals] == sinks
        several += len(ideals) > 1
    assert several >= 30


def assert_same_r_relation(flow, w):
    """Equal pairs and verdicts; a failure witness of the same kind that
    really fails (the intransitive triple may differ from the oracle's)."""
    got, want = r_relation(flow, w), oracles.r_relation(flow, w)
    assert (got.pairs, got.reflexive, got.symmetric, got.transitive) == \
        (want.pairs, want.reflexive, want.symmetric, want.transitive)
    if want.failure_witness is None or want.failure_witness[0] != "intransitive":
        assert got.failure_witness == want.failure_witness
    else:
        kind, (a, b, c) = got.failure_witness
        assert kind == "intransitive"
        assert (a, b) in got.pairs and (b, c) in got.pairs
        assert (a, c) not in got.pairs
    return got


def test_r_relation_matches_oracle():
    rng = random.Random(29)
    results = []
    for i in range(400):
        flow = random_group_flow(rng, 8, 24)
        if i % 2:   # intransitive, so a support can miss an orbit
            flow = disjoint_union_flow([flow, same_group_flow(rng, flow.group)])
        H = rng.choice(enumerate_subgroups(flow.group))
        support = rng.sample(range(flow.points), rng.randint(1, flow.points))
        results.append(assert_same_r_relation(flow, WitnessPair(H, frozenset(support))))
    assert sum(r.is_equivalence for r in results) >= 200
    assert sum(not r.reflexive for r in results) >= 40
    assert sum(r.reflexive and not r.transitive for r in results) >= 20


def test_r_relation_matches_oracle_on_affine_f2():
    flow, w1, w2 = affine_f2_fixture()
    for w in (w1, w2):
        got = assert_same_r_relation(flow, w)
        assert got.is_equivalence and len(got.pairs) == 5376


# ---- pseudo-closed lattices ------------------------------------------------

LATTICE_CAP = 100


def built(make):
    """What make() returns, or the type of the lattice error it raises."""
    try:
        return make()
    except (NotALattice, SizeCapExceeded) as exc:
        return type(exc)


def random_lattices(rng, ground, size):
    """The same random lattice from elliskit and from the oracle (each, or
    the error type each raised): discrete, the closure of up to three random
    subsets, or those subsets taken as already closed."""
    if rng.random() < 0.3:
        return discrete_lattice(ground, size), oracles.Lattice(ground, size)
    sets = [rng.sample(range(size), rng.randint(0, size))
            for _ in range(rng.randint(0, 3))]
    auto = rng.random() < 0.8
    mine = built(lambda: make_lattice(ground, size, sets, auto,
                                      caps=Caps(lattice_cap=LATTICE_CAP)))
    theirs = built(lambda: oracles.make_lattice(ground, size, sets, auto,
                                                LATTICE_CAP))
    if isinstance(theirs, tuple):
        theirs, added = theirs
        assert list(mine.added) == added
    return mine, theirs


def products(mine, theirs, left, right):
    return (built(lambda: product_lattice(mine[left], mine[right],
                                          caps=Caps(lattice_cap=LATTICE_CAP))),
            built(lambda: oracles.product_lattice(theirs[left], theirs[right],
                                                  LATTICE_CAP)))


def assert_same_lattice(mine, theirs, rng):
    """The same error, or the same kind, members in the same order, and the
    same answer to `contains` on random subsets and random unions of the
    oracle's generators; elliskit's union generators are members whose
    unions give every member."""
    if isinstance(theirs, type):
        assert mine is theirs
        return
    assert isinstance(mine, SectionProductLattice) == \
        isinstance(theirs, oracles.SectionProduct)
    assert mine.discrete == theirs.discrete and mine.size == theirs.size
    gens = theirs.union_generators()
    if isinstance(theirs, oracles.Lattice) and not theirs.discrete:
        assert list(mine.members()) == theirs.sets
        unions = {frozenset()}
        for g in mine.union_generators():
            assert theirs.contains(g)
            unions |= {u | g for u in unions}
        assert unions == set(theirs.sets)
    probes = [rng.sample(range(theirs.size), rng.randint(0, theirs.size))
              for _ in range(10)]
    probes += [set().union(*rng.sample(gens, rng.randint(0, min(3, len(gens)))))
               for _ in range(10)]
    for s in probes:
        assert mine.contains(s) == theirs.contains(s)


def test_random_lattices_match_oracles():
    rng = random.Random(43)
    failing, section_products, compared = set(), 0, 0
    while compared < 150:
        flow = random_group_flow(rng, 4, 6)
        gn, n = flow.group.order, flow.points
        mine, theirs = {}, {}
        for ground, size in (("G", gn), ("X", n)):
            mine[ground], theirs[ground] = random_lattices(rng, ground, size)
            assert_same_lattice(mine[ground], theirs[ground], rng)
        if isinstance(theirs["G"], type) or isinstance(theirs["X"], type):
            continue
        for (left, right), ground in oracles.PRODUCT_GROUND.items():
            mine[ground], theirs[ground] = products(mine, theirs, left, right)
        if rng.random() < 0.3:
            mine["X2"], theirs["X2"] = random_lattices(rng, "X2", n * n)
            if not isinstance(theirs["X2"], type):
                mine["X2x2"], theirs["X2x2"] = products(mine, theirs, "X2", "X2")
        if rng.random() < 0.2:
            mine["GxX"], theirs["GxX"] = random_lattices(rng, "GxX", gn * n)
        for ground in oracles.PRODUCT_GROUND.values():
            assert_same_lattice(mine[ground], theirs[ground], rng)
        if any(isinstance(lat, type) for lat in theirs.values()):
            continue
        compared += 1
        section_products += sum(isinstance(lat, SectionProductLattice)
                                for lat in mine.values())
        inst = StructuredInstance(flow, total_relation(n, flow), mine)
        got = is_agreeable(inst).failures
        assert got == oracles.is_agreeable(flow, theirs)
        failing.update(axiom for axiom, _ in got)
    assert failing == {1, 2, 3, 4, 5, 6}
    assert section_products >= 50


def oracle_lattice(lat):
    if isinstance(lat, SectionProductLattice):
        return oracles.SectionProduct(lat.ground, oracle_lattice(lat.left),
                                      oracle_lattice(lat.right), lat.left_discrete)
    return oracles.Lattice(lat.ground, lat.size, None if lat.discrete else lat.sets)


def test_structured_catalog_matches_oracles():
    rng = random.Random(47)
    for inst, _ in structured_catalog():
        theirs = {g: oracle_lattice(lat) for g, lat in inst.lattices.items()}
        for (left, right), ground in oracles.PRODUCT_GROUND.items():
            if ground != "X2":   # the counterexample gives its pair lattice
                want = oracles.product_lattice(theirs[left], theirs[right],
                                               DEFAULT_CAPS.lattice_cap)
                assert_same_lattice(inst.lattices[ground], want, rng)
        assert is_agreeable(inst).failures == oracles.is_agreeable(inst.flow, theirs)


# ---- witness supports by orbitals ------------------------------------------

def assert_witness_masks_match_oracle(flow, E, lat_x, supports):
    """For every subgroup: the orbital test of each support gives the
    verdict of the oracle's witnessed relation (equal to E or not), the
    fix-set and its verdict are the oracle's, and the witnessing supports
    are the oracle loop's, in its order. Returns how many subgroups have
    one."""
    target, (_, out) = E.pairs(), _orbitals(E)
    witnessed = 0
    for H, fix, R, fix_witnesses in _subgroup_witnesses(E, DEFAULT_CAPS):
        for S in supports:
            want = oracles.r_relation(flow, WitnessPair(H, frozenset(S))).pairs
            assert (_witnessed(R, S) == out - 1) == (want == target)
        assert fix == oracles.fix_set(flow, E, H)
        assert fix_witnesses == (bool(fix) and oracles.r_relation(
            flow, WitnessPair(H, fix)).pairs == target)
        got = list(_witnessing_supports(lat_x, _mask(fix), fix_witnesses, R))
        assert got == [_mask(S) for S in
                       oracles.witnessing_supports(flow, E, lat_x, H)]
        witnessed += bool(got)
    return witnessed


def flow_or_union(rng, union):
    """A random group flow or, when `union` and both fit in 8 points, its
    union with a regular or coset flow of its group."""
    flow = random_group_flow(rng, 6, 12)
    second = same_group_flow(rng, flow.group)
    if union and flow.points + second.points <= 8:
        return disjoint_union_flow([flow, second])
    return flow


def test_orbitals_number_the_orbits_on_the_relations_pairs():
    """The bits of `_orbitals` cover exactly E's pairs, are 1, 2, 4, ...
    below `out`, and two pairs share one iff a group element maps the
    first to the second; on random and total relations of random flows
    and unions of two flows of one group."""
    rng = random.Random(61)
    shared = 0
    for i in range(30):
        flow = flow_or_union(rng, i % 2)
        n = flow.points
        for E in (random_invariant_relation(rng, flow), total_relation(n, flow)):
            bit, out = _orbitals(E)
            assert sorted(bit) == sorted(a * n + b for a, b in E.pairs())
            assert set(bit.values()) == {1 << j for j in range(out.bit_length() - 1)}
            for p in bit:
                a, b = divmod(p, n)
                orbit = {flow.act(g, a) * n + flow.act(g, b)
                         for g in flow.group.elements()}
                assert orbit == {q for q in bit if bit[q] == bit[p]}
                shared += len(orbit) > 1
    assert shared >= 500


def witness_outcome(find, E, w):
    """The maximal pair `find` reaches from w, or the NotAWitness text."""
    try:
        m = find(E, w)
    except NotAWitness as exc:
        return str(exc)
    return m.subgroup.members, m.support


def test_maximal_witnesses_match_the_pair_closure_fixpoint():
    """From the weak witness, random subsets of its support and random
    pairs, on every invariant relation of random flows and of unions of two
    flows of one group (up to 8 points), and from random pairs on random
    partitions that are not invariant: the same fixpoint as one pair
    closure per step, or the same NotAWitness."""
    rng = random.Random(71)
    fixpoints = refused = not_invariant = 0
    for i in range(40):
        flow = flow_or_union(rng, i % 2)
        n, subgroups = flow.points, enumerate_subgroups(flow.group)
        starts = [WitnessPair(rng.choice(subgroups),
                              frozenset(rng.sample(range(n), rng.randint(1, n))))
                  for _ in range(3)]
        relations = list(invariant_relations(flow))
        for _ in range(3):
            labels = [rng.randrange(3) for _ in range(n)]
            E = make_relation(n, [[x for x in range(n) if labels[x] == c]
                                  for c in set(labels)], flow)
            if not E.invariant:
                relations.append(E)
                not_invariant += 1
        for E in relations:
            weak = E.invariant and is_weakly_orbital(E)
            tries = list(starts)
            if weak:
                support = sorted(weak.witness.support)
                tries += [weak.witness, WitnessPair(weak.witness.subgroup, frozenset(
                    rng.sample(support, rng.randint(1, len(support)))))]
            for w in tries:
                got = witness_outcome(maximal_witnesses, E, w)
                assert got == witness_outcome(oracles.maximal_witnesses, E, w)
                fixpoints += not isinstance(got, str)
                refused += isinstance(got, str)
    assert fixpoints >= 200 and refused >= 200 and not_invariant >= 20


def all_supports(n):
    return [_bits(m) for m in range(1, 1 << n)]


def test_witness_masks_match_oracle_on_random_flows():
    rng = random.Random(53)
    witnessed = 0
    for i in range(30):
        flow = random_group_flow(rng, 6, 12)
        E = random_invariant_relation(rng, flow)
        n = flow.points
        lat_x = discrete_lattice("X", n) if i % 3 == 0 else make_lattice(
            "X", n, [rng.sample(range(n), rng.randint(1, n)) for _ in range(3)],
            auto_complete=True)
        witnessed += assert_witness_masks_match_oracle(flow, E, lat_x,
                                                       all_supports(n))
    assert witnessed >= 60


def test_is_weakly_orbital_matches_the_pair_closure_loop():
    """Verdict, witness pair and subgroups checked equal those of one
    r_relation closure per (subgroup, fix-set) pair, on random group flows
    and on unions of two flows of one group (up to 8 points)."""
    rng = random.Random(67)
    weak = not_weak = 0
    while not_weak < 20:
        flow = random_group_flow(rng, 6, 12)
        second = same_group_flow(rng, flow.group)
        if flow.points + second.points <= 8:
            flow = disjoint_union_flow([flow, second])
        for E in invariant_relations(flow):
            got = is_weakly_orbital(E)
            assert got == oracles.is_weakly_orbital(E)
            weak += bool(got)
            not_weak += not got
    assert weak >= 20


def test_weak_transfer_decides_like_is_weakly_orbital():
    """Unions of two flows of one group, on up to 8 points, with discrete
    lattices, which are agreeable: verify_thm_worb decides weak orbitality
    as is_weakly_orbital does, and the equivalence holds exactly on the
    weakly orbital relations. On the others it fails, since no witness
    exists, and raises nothing, since the theorem's hypothesis fails."""
    rng = random.Random(59)
    weak = not_weak = 0
    while not_weak < 20:
        first = random_group_flow(rng, 4, 8)
        second = same_group_flow(rng, first.group)
        if first.points + second.points > 8:
            continue
        flow = disjoint_union_flow([first, second])
        lats = default_lattices(flow, discrete_lattice("G", flow.group.order),
                                discrete_lattice("X", flow.points))
        for E in invariant_relations(flow):
            got = verify_thm_worb(StructuredInstance(flow, E, lats))
            assert got.weakly_orbital == bool(is_weakly_orbital(E))
            assert got.equivalent == got.weakly_orbital
            weak += got.weakly_orbital
            not_weak += not got.weakly_orbital
    assert weak >= 20


def test_weak_transfer_rejects_a_relation_that_is_not_invariant():
    flow = natural_flow(named_group("symmetric", n=3))
    lats = default_lattices(flow, discrete_lattice("G", 6), discrete_lattice("X", 3))
    inst = StructuredInstance(flow, make_relation(3, [[0, 1], [2]], flow), lats)
    with pytest.raises(NotInvariant):
        verify_thm_worb(inst)


def test_witness_masks_match_oracle_on_the_structured_catalog():
    witnessed = []
    for inst, _ in structured_catalog():
        lat_x = inst.lattices["X"]
        supports = all_supports(inst.flow.points) if lat_x.discrete else \
            [sorted(s) for s in lat_x.members() if s]
        E = inst.relation.bind(inst.flow)
        witnessed.append(assert_witness_masks_match_oracle(inst.flow, E, lat_x,
                                                           supports))
    assert sum(map(bool, witnessed)) == 6 and sum(witnessed) >= 8


# ---- normality from the generators -----------------------------------------

def groups_quotients_and_ideal_group_views():
    """The catalog groups, their quotients by every normal subgroup, and the
    ideal groups of natural and rank-two flows."""
    groups = group_catalog()
    for G in group_catalog():
        groups += [quotient_group(G, N).group for N in enumerate_subgroups(G)
                   if oracles.is_normal(G, N.members)]
    flows = [natural_flow(G) for G in group_catalog() if G.perms is not None]
    for flow in flows + list(rank_two_flows(5, 40)):
        for M in minimal_left_ideals(enveloping_semigroup(flow)):
            groups.append(ideal_group(M, M.idempotents[0]).group_view)
    return groups


def test_is_normal_and_normal_core_match_oracles():
    normal = non_normal = 0
    for G in groups_quotients_and_ideal_group_views():
        assert subgroup_generated(G, G.gens).members == frozenset(G.elements())
        for H in enumerate_subgroups(G):
            want = oracles.is_normal(G, H.members)
            assert H.is_normal() == want
            assert normal_core(G, H).members == oracles.normal_core(G, H.members)
            if want:
                normal += 1
                assert oracles.coset_products_well_defined(G, quotient_group(G, H))
            else:
                non_normal += 1
                with pytest.raises(NotNormal) as exc:
                    quotient_group(G, H)
                g, a = exc.value.conjugator, exc.value.member
                assert (g, a) == next((g, a) for g in G.elements() for a in H.members
                                      if G.conjugate(g, a) not in H.members)
    assert normal >= 250 and non_normal >= 120


# ---- the invariant-relation lattice -------------------------------------------

def test_invariant_relations_match_the_bell_filter():
    """Members and order equal those of the filter over all Bell(n)
    partitions, on random group flows of up to 8 points, unions of two
    flows of one group on up to 8 points, and random transformation and
    group flows of up to 7 points."""
    rng = random.Random(71)
    flows = [random_group_flow(rng, 8, 12) for _ in range(60)]
    while len(flows) < 100:
        first = random_group_flow(rng, 4, 8)
        second = same_group_flow(rng, first.group)
        if first.points + second.points <= 8:
            flows.append(disjoint_union_flow([first, second]))
    flows += [random_ellis_flow(rng, 7) for _ in range(100)]
    relations = 0
    for flow in flows:
        got = list(invariant_relations(flow))
        assert got == list(oracles.invariant_relations(flow))
        relations += len(got)
    assert relations >= 600


def test_joins_with_a_contained_principal_relation_are_skipped(monkeypatch):
    """On the regular flow of S4 (24 points, 30 invariant relations, 16
    principal ones) the lattice takes one `_classes` pass per principal
    closure theta(0, b), one for equality, and one per join E ∨ P with P
    not inside E: 416, against 504 when every E is joined with every P."""
    flow = regular_flow(named_group("symmetric", n=4))
    maps = flow.generator_maps()
    principal = {_classes(24, [(0, b)], maps) for b in range(1, 24)}
    calls = []
    monkeypatch.setattr("elliskit.relations._classes",
                        lambda *args: calls.append(args) or _classes(*args))
    lattice = list(invariant_relations(flow))
    contained = sum(all(E.same(cls[0], x) for cls in P for x in cls)
                    for E in lattice for P in principal)
    assert (len(lattice), len(principal)) == (30, 16)
    assert len(calls) == 23 + 1 + 30 * 16 - contained == 416 < 504


def test_invariant_relations_count_the_overgroups_of_a_stabilizer():
    """On a transitive flow the invariant relations biject with the
    subgroups containing a point stabilizer: on the regular flow of every
    catalog group they are as many as its subgroups, on each coset flow as
    many as the subgroups over the coset's own subgroup."""
    flows = 0
    for G in group_catalog():
        subgroups = enumerate_subgroups(G)
        for H in subgroups:
            flow = regular_flow(G) if H.order == 1 else coset_flow(G, H)
            stabilizer = frozenset(g for g in G.elements() if flow.act(g, 0) == 0)
            overgroups = sum(stabilizer <= K.members for K in subgroups)
            assert len(list(invariant_relations(flow))) == overgroups
            flows += 1
    assert flows >= 100


# ---- orbit relations and quotient cosets -------------------------------------

def test_orbit_relation_matches_the_definition():
    rng = random.Random(43)
    relations = 0
    for i in range(200):
        flow = random_group_flow(rng, 8, 24)
        if i % 2:   # intransitive, so the H-orbits split each G-orbit apart
            flow = disjoint_union_flow([flow, same_group_flow(rng, flow.group)])
        n = flow.points
        for H in enumerate_subgroups(flow.group):
            pairs = {(x, flow.act(h, x)) for x in range(n) for h in H.members}
            want = sorted({tuple(y for y in range(n) if (x, y) in pairs)
                           for x in range(n)})
            assert orbit_relation(flow, H).classes == tuple(want)
            relations += 1
    assert relations >= 1300


def test_quotient_cosets_are_the_left_cosets():
    quotients = 0
    for G in group_catalog():
        for N in enumerate_subgroups(G):
            if oracles.is_normal(G, N.members):
                Q = quotient_group(G, N)
                assert Q.cosets == tuple(left_cosets(G, N))
                assert Q.projection == tuple(
                    next(i for i, c in enumerate(Q.cosets) if g in c)
                    for g in G.elements())
                quotients += 1
    assert quotients >= 70


def test_quotient_tables_are_the_literal_coset_tables():
    """Every quotient of a catalog group or of S5 by a normal subgroup: its
    table is the products of coset representatives, each looked up in the
    projection, and its generators are the oracle's greedy set."""
    quotients = 0
    for G in group_catalog() + [named_group("symmetric", n=5)]:
        for N in enumerate_subgroups(G):
            if oracles.is_normal(G, N.members):
                Q = quotient_group(G, N)
                reps = [c[0] for c in Q.cosets]
                assert Q.group.mul == tuple(
                    tuple(Q.projection[G.mul[a][b]] for b in reps) for a in reps)
                assert Q.group.gens == \
                    oracles.small_generating_set(Q.group.mul, Q.group.identity)
                quotients += 1
    assert quotients == 74


# ---- products checked over the generators --------------------------------------

def corrupted_actions(seed, count):
    """Group flows with their action table corrupted: one element's map
    swapped with another's, or two entries of one map swapped."""
    rng = random.Random(seed)
    for _ in range(count):
        flow = random_group_flow(rng, 6, 24)
        maps = [list(m) for m in flow.maps]
        if flow.points < 2 or rng.random() < 0.5:
            a, b = rng.sample(range(len(maps)), 2)
            maps[a], maps[b] = maps[b], maps[a]
        else:
            m = rng.choice(maps)
            i, j = rng.sample(range(flow.points), 2)
            m[i], m[j] = m[j], m[i]
        yield flow, maps


def test_action_axioms_over_generators_match_the_all_pairs_oracle():
    refuted = accepted = 0
    for flow, maps in corrupted_actions(29, 300):
        G = flow.group
        assert make_flow(G, flow.points, flow.maps).maps == flow.maps
        want = oracles.action_failure(G, maps)
        try:
            make_flow(G, flow.points, maps)
        except NotAnAction as exc:
            assert want is not None
            g, h, x = exc.g, exc.h, exc.x
            assert g in G.gens or (g, h) == (G.identity, G.identity)
            assert maps[g][maps[h][x]] != maps[G.mul[g][h]][x]
            refuted += 1
        else:
            assert want is None
            accepted += 1
    assert refuted >= 200 and accepted >= 10


def test_equivariance_over_generators_matches_the_all_elements_oracle():
    """Point maps from the regular flow onto a random flow of the same
    group, most with one entry changed or two entries swapped."""
    rng = random.Random(31)
    equivariant = 0
    for _ in range(300):
        target = random_group_flow(rng, 6, 24)
        G = target.group
        source = regular_flow(G)
        pm = [target.act(g, 0) for g in G.elements()]
        if rng.random() < 0.4:
            pm[rng.randrange(G.order)] = rng.randrange(target.points)
        elif rng.random() < 0.7:
            i, j = rng.sample(range(G.order), 2)
            pm[i], pm[j] = pm[j], pm[i]
        m = FlowMorphism(make_ambit(source, G.identity), make_ambit(target, 0),
                         tuple(pm))
        want = oracles.equivariant(source, target, pm)
        assert check_morphism(m).equivariant == want
        equivariant += want
    assert 80 <= equivariant <= 220


def test_refinement_by_classes_matches_the_all_pairs_oracle():
    """Random relations on random flows, dominated from the regular ambit
    by the coset relation of a random normal subgroup: the first unrefined
    pair is the all-pairs loop's first pair."""
    rng = random.Random(37)
    unrefined = 0
    for _ in range(300):
        target = random_group_flow(rng, 6, 24)
        G = target.group
        reg = make_ambit(regular_flow(G), G.identity)
        N = rng.choice([N for N in enumerate_subgroups(G) if N.is_normal()])
        F = orbit_relation(reg.flow, N)
        labels = [rng.randrange(rng.randint(1, target.points))
                  for _ in range(target.points)]
        E = make_relation(target.points, [[x for x, c in enumerate(labels) if c == c0]
                                          for c0 in sorted(set(labels))])
        pm = tuple(target.act(g, 0) for g in G.elements())
        w = grouplike.DominationWitness(reg, F, FlowMorphism(reg, make_ambit(target, 0), pm), E)
        verdict = grouplike.check_domination(w)
        want = oracles.unrefined_pair(F, E, pm)
        if want is None:
            assert verdict.refutation is None or verdict.refutation[0] != "no refinement"
        else:
            assert verdict.refutation == ("no refinement", want)
            unrefined += 1
    assert 100 <= unrefined <= 280


def test_class_tables_are_the_literal_class_tables(monkeypatch):
    """Every certificate the group-like suite builds at seeds 1-8, and that
    of the regular-ambit source that dominates each of its instances: the
    class table, identity and inverses are the literal ones."""
    certificates = []
    check = grouplike.check_group_like

    def recording(ambit, E):
        verdict = check(ambit, E)
        certificates.append(verdict.certificate)
        return verdict

    monkeypatch.setattr(grouplike, "check_group_like", recording)
    for seed in range(1, 9):
        assert run_suite("grouplike", 12, seed).passed
    for cert in certificates[:]:
        w = grouplike.default_domination(cert.ambit, cert.relation)
        certificates.append(check(w.source, w.source_relation).certificate)
    assert len(certificates) >= 2 * 8 * 12
    for cert in certificates:
        flow, q = cert.ambit.flow, cert.quotient_group
        assert q.mul == oracles.class_table(flow, cert.relation.class_of,
                                            cert.ambit.basepoint)
        assert q.identity == cert.relation.class_of[cert.ambit.basepoint]
        assert q.inverse == oracles.two_sided_inverses(q.mul, q.identity)


def every_kind_of_group():
    """A group from each constructor: tables, permutations, the named
    families, affine groups up to (2, 3), quotients, direct products,
    the quaternions, ideal-group views and group-like class groups."""
    groups = groups_quotients_and_ideal_group_views()
    groups += [group_from_table(G.mul) for G in group_catalog()]
    rng = random.Random(41)
    for _ in range(20):
        degree = rng.randint(1, 6)
        gens = [rng.sample(range(degree), degree) for _ in range(rng.randint(0, 3))]
        groups.append(group_from_permutations(degree, gens))
    groups += [named_group("cyclic", n=n) for n in (1, 2, 7, 30)]
    groups += [named_group("symmetric", n=n) for n in range(1, 6)]
    groups += [named_group("dihedral", n=n) for n in (3, 7, 12)]
    groups += [named_group("affine", q=q, dim=dim)
               for q, dim in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1))]
    z2, s3 = named_group("cyclic", n=2), named_group("symmetric", n=3)
    groups += [direct_product(s3, s3), direct_product(z2, quaternion_group()),
               direct_product(named_group("cyclic", n=1), z2), quaternion_group()]
    for _ in range(40):
        flow, E = random_group_like_setup(rng, 6, 24)
        groups.append(grouplike.check_group_like(make_ambit(flow, 0), E)
                      .certificate.quotient_group)
    return groups


def test_every_group_is_generated_by_its_gens():
    groups = every_kind_of_group()
    for G in groups:
        assert oracles.generated(G.mul, G.identity, G.gens) == set(G.elements())
    assert len(groups) >= 200


def test_first_split_matches_the_all_pairs_scan():
    """Labellings of 0 to 8 points against a renaming of their own labels,
    most with one point then moved to a random label."""
    rng = random.Random(43)
    split = 0
    for _ in range(400):
        n = rng.randint(0, 8)
        left = [rng.randrange(rng.randint(1, 4)) for _ in range(n)]
        names = rng.sample(range(10), 4)
        right = [names[c] for c in left]
        if n and rng.random() < 0.7:
            right[rng.randrange(n)] = rng.randrange(10)
        want = oracles.fiber_split(left, right)
        assert first_split(left, right) == want
        assert first_split(right, left) == want
        split += want is not None
    assert 100 <= split <= 300


def left_coset_labels(G, H):
    """Each element's left coset gH, labelled by its least member."""
    return [min(G.mul[g][h] for h in H.members) for g in G.elements()]


def test_fibers_against_cosets_match_the_literal_loop():
    """`first_split` of values against the left cosets of a subgroup. On
    every subgroup of the catalog groups, against its renamed cosets,
    another subgroup's cosets and either with one entry changed, the first
    split is the literal loop's first pair."""
    rng = random.Random(47)
    split = total = 0
    for G in group_catalog():
        subs = enumerate_subgroups(G)
        for H in subs:
            labels = left_coset_labels(G, H)
            names = rng.sample(range(G.order), G.order)
            for values in ([names[c] for c in labels],
                           left_coset_labels(G, rng.choice(subs))):
                if rng.random() < 0.4:
                    values[rng.randrange(G.order)] = rng.randrange(G.order)
                want = oracles.coset_fiber_split(G, H.members, values)
                assert first_split(values, labels) == want
                split += want is not None
                total += 1
    assert total // 4 <= split <= 3 * total // 4


def test_is_orbital_counterexamples_match_the_definition():
    """Every invariant relation of random group flows and of two copies of
    small ones side by side: the verdict and the first differing pair are
    those of the all-elements kernel and the all-pairs scan."""
    rng = random.Random(53)
    orbital = not_orbital = 0
    for _ in range(40):
        flow = random_group_flow(rng, 6, 24)
        if flow.points <= 4:
            flow = disjoint_union_flow([flow, flow])
        for E in invariant_relations(flow):
            verdict = is_orbital(E)
            want = oracles.orbital_counterexample(flow, E.class_of)
            assert verdict.counterexample == want
            assert verdict.orbital == (want is None)
            orbital += verdict.orbital
            not_orbital += not verdict.orbital
    assert orbital >= 80 and not_orbital >= 200


def test_proper_witness_homomorphism_matches_the_all_pairs_oracle():
    """Group-like relations with two classes or more, covered by their own
    group through g -> g·x0, most fiber maps with one entry changed or two
    entries swapped: the homomorphism leg, run over the generators, is the
    all-pairs verdict."""
    rng = random.Random(59)
    homomorphisms = checked = 0
    while checked < 200:
        flow, E = random_group_like_setup(rng, 6, 24)
        if len(E.classes) == 1:
            continue
        checked += 1
        G, amb = flow.group, make_ambit(flow, 0)
        fm = [flow.act(g, 0) for g in G.elements()]
        if rng.random() < 0.4:
            fm[rng.randrange(G.order)] = rng.randrange(flow.points)
        elif rng.random() < 0.7:
            i, j = rng.sample(range(G.order), 2)
            fm[i], fm[j] = fm[j], fm[i]
        verdict = grouplike.check_proper_witness(
            grouplike.ProperWitness(G, tuple(fm), amb, E))
        q = grouplike.check_group_like(amb, E).certificate.quotient_group
        phi = [E.class_of[x] for x in fm]
        want = oracles.is_homomorphism(G.mul, q.mul, phi)
        assert verdict.homomorphism == want
        if verdict.refutation and verdict.refutation[0] == "not a homomorphism":
            a, b = verdict.refutation[1]
            assert a in G.gens and phi[G.mul[a][b]] != q.mul[phi[a]][phi[b]]
        homomorphisms += want
    assert 60 <= homomorphisms <= 140


def test_left_invariance_on_generators_matches_the_all_elements_oracle():
    """Equality on the regular ambit of a random group dominating, through
    the identity, a random partition or the left or right cosets of a
    random subgroup: the verdict is the literal left-invariance loop's, and
    a refutation names a generator and a pair it splits."""
    rng = random.Random(61)
    invariant = 0
    for _ in range(300):
        G = random_group(rng, 12)
        reg = make_ambit(regular_flow(G), G.identity)
        H = rng.choice(enumerate_subgroups(G))
        kind = rng.random()
        if kind < 0.3:
            labels = [rng.randrange(rng.randint(1, G.order)) for _ in G.elements()]
        elif kind < 0.65:
            labels = [min(G.mul[g][h] for h in H.members) for g in G.elements()]
        else:
            labels = [min(G.mul[h][g] for h in H.members) for g in G.elements()]
        E = make_relation(G.order, [[x for x, c in enumerate(labels) if c == c0]
                                    for c0 in sorted(set(labels))])
        source = equality_relation(G.order)
        ident = FlowMorphism(reg, reg, tuple(G.elements()))
        verdict = grouplike.check_domination(
            grouplike.DominationWitness(reg, source, ident, E))
        q = grouplike.check_group_like(reg, source).certificate.quotient_group
        want = oracles.left_invariance_break(q.mul, E.class_of)
        assert verdict.dominates == (want is None)
        if want is not None:
            reason, (w, c1, c2) = verdict.refutation
            assert reason == "not left invariant" and w in q.gens
            assert E.same(c1, c2) and not E.same(q.mul[w][c1], q.mul[w][c2])
        invariant += want is None
    assert 60 <= invariant <= 240


# ---- seeded draws from getrandbits ----------------------------------------------

DRAW_SIZES = (*range(1, 41), 84, 85, 86, 100, 500, 1733)


def test_below_and_subset_draw_what_random_draws():
    """`_skip_sample` against `sample` across the pool and set branches
    (setsize 21, and 85 for k of 6 to 9), and `_battery_draws` with no
    ideal groups against the stdlib replay of its `randrange`, `randint`
    and `sample` calls, one size of `DRAW_SIZES` a seed, on 300 seeds: the
    same next word after every sample and the same generator state after
    every size (one `getstate` takes about 16 µs, too long to compare after
    each of the 127,200 samples)."""
    for seed in range(300):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in DRAW_SIZES:
            for k in range(min(n, 9) + 1):
                _skip_sample(ours.getrandbits, n, k)
                theirs.sample(range(n), k)
                assert ours.getrandbits(32) == theirs.getrandbits(32)
            assert ours.getstate() == theirs.getstate()
        n = DRAW_SIZES[seed % len(DRAW_SIZES)]
        _battery_draws(ours, n, ())
        oracles.ellis_battery_draws(theirs, n, [])
        assert ours.getstate() == theirs.getstate()


def _pool_branch(n, k):
    """Whether `random.Random.sample` of k from n picks from a pool."""
    return n <= 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)


def test_ellis_battery_draws_like_the_stdlib_replay():
    """Sixty seeded flows, drawn and checked on one generator as the suite
    does: the battery leaves the generator in the state the oracle's stdlib
    replay of its draws leaves, so the next flow is the same. The replay's
    subsets reach both `sample` branches: closures above 85 elements and
    ideal groups of order above 1."""
    ours, theirs = random.Random(5), random.Random(5)
    sizes, orders, branches = set(), set(), set()
    for _ in range(60):
        flow = random_ellis_flow(ours, 6)
        assert random_ellis_flow(theirs, 6).maps == flow.maps
        size = suites._ellis_instance_checks(flow, ours, DEFAULT_CAPS)
        S = enveloping_semigroup(flow)
        groups = [ideal_group(M, u).members for M in minimal_left_ideals(S)
                  for u in M.idempotents]
        samples = oracles.ellis_battery_draws(theirs, size, groups)
        assert ours.getstate() == theirs.getstate()
        sizes.add(size)
        orders.update(map(len, groups))
        branches.update(_pool_branch(n, k) for n, k in samples)
    assert max(sizes) > 85 and max(orders) > 1
    assert branches == {True, False}


class _BitsOnly(random.Random):
    """A generator whose only drawing method is `getrandbits`."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("drew through a method other than getrandbits")

    random = randrange = randint = choice = sample = shuffle = _refuse


def test_ellis_battery_reads_getrandbits_alone():
    """The battery's draws stay the same on every Python whose `getrandbits`
    does: it calls no other drawing method of its generator."""
    rng, bits_only = random.Random(5), _BitsOnly()
    for _ in range(60):
        flow = random_ellis_flow(rng, 6)
        bits_only.setstate(rng.getstate())
        suites._ellis_instance_checks(flow, bits_only, DEFAULT_CAPS)
        rng.setstate(bits_only.getstate())
    with pytest.raises(AssertionError):
        bits_only.sample(range(3), 1)
