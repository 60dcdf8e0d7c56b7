"""The facts that `elliskit` states by construction and no longer checks at
run time, each run on seeded instances against its literal form in
``oracles.py``: the generators' draws always have a candidate and build
invariant relations; every generator map is an acting map; the kernel of an
invariant relation is the normal class-wise stabilizer; the classes are the
cosets of the basepoint-class stabilizer, and the basepoint fibers of an
ideal group are the cosets of D; a group flow's only idempotent is the
identity; an ideal group's isomorphism onto itself is the identity; and a
tower's idempotent chain stays in the minimal ideals. The
one-step maximal witnesses and the lattice members' invariance are compared
with their oracles in ``test_fast_paths.py``."""

import random

import oracles
from elliskit import grouplike
from elliskit.ellis import (
    compatible_idempotent,
    enveloping_semigroup,
    ideal_group,
    ideal_group_isomorphism,
    minimal_left_ideals,
)
from elliskit.errors import OrbitNotDense
from elliskit.flows import (
    FlowMorphism,
    check_tower,
    disjoint_union_flow,
    make_ambit,
    natural_flow,
    product_flow,
    transformation_flow,
)
from elliskit.generators import (
    _battery_draws,
    group_catalog,
    random_ellis_flow,
    random_group_flow,
    random_group_like_setup,
    random_invariant_relation,
)
from elliskit.relations import invariant_relations, kernel_group


def group_flows(seed, count):
    """Random group flows of up to 6 points, the small ones beside a copy
    of themselves, so that some relations are not transitive."""
    rng = random.Random(seed)
    for _ in range(count):
        flow = random_group_flow(rng, 6, 24)
        yield disjoint_union_flow([flow, flow]) if flow.points <= 3 else flow


def ambit_or_none(flow, x0):
    try:
        return make_ambit(flow, x0)
    except OrbitNotDense:
        return None


def test_every_generator_draw_has_a_candidate():
    """G is a subgroup of index 1 and a normal subgroup of itself, and N·H0
    is a subgroup for every normal N and subgroup H0 of each catalog group;
    so at the smallest admitted bounds every draw returns."""
    products = 0
    for G in group_catalog():
        subgroups = oracles.enumerate_subgroups(G.mul, G.identity)
        assert subgroups[-1] == tuple(G.elements())
        assert oracles.is_normal(G, set(G.elements()))
        for N in subgroups:
            if oracles.is_normal(G, set(N)):
                for H0 in subgroups:
                    product = {G.mul[a][b] for a in N for b in H0}
                    assert oracles.closure_indices(G.mul, product) == product
                    products += 1
    assert products >= 500
    rng = random.Random(61)
    for _ in range(50):
        assert random_group_flow(rng, 2, 2).points <= 2
        flow, E = random_group_like_setup(rng, 2, 2)
        assert flow.points <= 2 and E.invariant


def test_constructed_relations_pass_the_all_maps_scan():
    rng = random.Random(67)
    for _ in range(150):
        flow = random_group_flow(rng, 8, 24)
        E = random_invariant_relation(rng, flow)
        assert oracles.invariance(flow, E.class_of) == (True, None)
        flow, E = random_group_like_setup(rng, 6, 24)
        assert oracles.invariance(flow, E.class_of) == (True, None)


def test_every_generator_map_is_an_acting_map():
    """So a generator that breaks a class gives the all-maps scan of
    `relations._invariance` its witness."""
    rng = random.Random(71)
    flows = [random_ellis_flow(rng, 6) for _ in range(100)]
    flows += [random_group_flow(rng, 8, 24) for _ in range(100)]
    flows += [product_flow([random_group_flow(rng, 3, 6)] * 2) for _ in range(10)]
    flows += [natural_flow(G) for G in group_catalog() if G.perms is not None]
    for flow in flows:
        assert set(flow.generator_maps()) <= set(flow.maps)


def test_kernels_are_the_normal_class_wise_stabilizers():
    """The kernel is every element fixing every class and is normal; on
    many relations it is smaller than the stabilizer of point 0's class."""
    smaller = 0
    for flow in group_flows(73, 60):
        G, n = flow.group, flow.points
        for E in invariant_relations(flow):
            members = kernel_group(E).members
            assert members == oracles.stabilizing_elements(flow, E, range(n))
            assert oracles.is_normal(G, members)
            smaller += members != oracles.stabilizing_elements(
                flow, E, E.classes[0])
    assert smaller >= 50


def test_classes_are_the_cosets_of_the_basepoint_class_stabilizer():
    """For every invariant relation and basepoint: g·x0 ~ h·x0 iff gK = hK,
    K the stabilizer of the basepoint's class; `check_group_like`'s
    certificate carries that K."""
    relations = 0
    for flow in group_flows(79, 30):
        G = flow.group
        for E in invariant_relations(flow):
            for x0 in range(flow.points):
                K = oracles.stabilizing_elements(flow, E, (x0,))
                values = [E.class_of[flow.act(g, x0)] for g in G.elements()]
                assert oracles.coset_fiber_split(G, K, values) is None
            relations += 1
    assert relations >= 100
    rng = random.Random(83)
    for _ in range(40):
        flow, E = random_group_like_setup(rng, 6, 24)
        kernel = grouplike.check_group_like(make_ambit(flow, 0), E).certificate.kernel
        assert kernel.members == oracles.stabilizing_elements(flow, E, (0,))
        assert oracles.is_normal(flow.group, kernel.members)


def test_basepoint_fibers_are_the_cosets_of_D():
    """On every ideal group of random transformation and group flows and
    every basepoint with a dense orbit: i and j agree at x0 iff i⁻¹j lies
    in `compute_D`'s subgroup, the elements agreeing with u there."""
    rng = random.Random(89)
    proper = 0
    for _ in range(120):
        flow = random_ellis_flow(rng, 6)
        S = enveloping_semigroup(flow)
        groups = [ideal_group(M, u) for M in minimal_left_ideals(S)
                  for u in M.idempotents]
        for x0 in range(flow.points):
            ambit = ambit_or_none(flow, x0)
            if ambit is None:
                continue
            for IG in groups:
                D = grouplike.compute_D(IG, ambit)
                values = [S.maps[s][x0] for s in IG.from_group]
                assert D.members == {i for i, v in enumerate(values)
                                     if v == S.maps[IG.idempotent][x0]}
                assert oracles.coset_fiber_split(IG.group_view, D.members,
                                                 values) is None
                proper += 1 < D.order < IG.group_view.order
    assert proper >= 20


def test_a_group_flows_only_idempotent_is_the_identity():
    rng = random.Random(97)
    flows = [random_group_flow(rng, 8, 24) for _ in range(60)]
    flows += [natural_flow(G) for G in group_catalog() if G.perms is not None]
    for flow in flows:
        elements, _ = oracles.closure(flow.generator_maps())
        identity = tuple(range(flow.points))
        assert [f for f in elements if oracles.compose(f, f) == f] == [identity]


def test_a_group_paired_with_itself_maps_by_the_identity():
    """The Ellis battery skips each ideal group's isomorphism onto itself:
    on the suite's first 60 closures at seed 5, u is its own compatible
    idempotent and the checked map s -> u·(s·u) is the identity."""
    rng = random.Random(5)
    groups = nontrivial = 0
    for _ in range(60):
        S = enveloping_semigroup(random_ellis_flow(rng, 6))
        orders = []
        for M in minimal_left_ideals(S):
            for u in M.idempotents:
                g = ideal_group(M, u)
                assert compatible_idempotent(g, M) == u
                assert ideal_group_isomorphism(g, g) == g.members
                orders.append(len(g.members))
        groups += len(orders)
        nontrivial += sum(order > 1 for order in orders)
        _battery_draws(rng, S.size, orders)
    assert groups >= 100 and nontrivial >= 30


def quotient_ambit(ambit, E):
    """The ambit of the classes of an invariant relation, with the class map
    as a morphism onto it."""
    flow = ambit.flow
    maps = [tuple(E.class_of[m[cls[0]]] for cls in E.classes)
            for m in flow.generator_maps()]
    target = make_ambit(transformation_flow(maps), E.class_of[ambit.basepoint])
    return target, FlowMorphism(ambit, target, E.class_of,
                                tuple(range(len(maps))))


def test_tower_chains_stay_in_the_minimal_ideals():
    """Two- and three-level towers of quotients of random transformation
    flows: each link of the idempotent chain is an idempotent in a minimal
    left ideal of its level's closure."""
    rng = random.Random(101)
    towers = nontrivial = 0
    while towers < 150:
        n = rng.randint(3, 5)
        flow = transformation_flow([[rng.randrange(n) for _ in range(n)]
                                    for _ in range(rng.randint(1, 3))])
        top = ambit_or_none(flow, rng.randrange(n))
        if top is None or enveloping_semigroup(flow).size > 60:
            continue
        relations = list(invariant_relations(flow))
        middle, down = quotient_ambit(top, rng.choice(relations))
        levels, connecting = [middle, top], [down]
        coarser = list(invariant_relations(middle.flow))
        if len(coarser) > 1:
            bottom, last = quotient_ambit(middle, rng.choice(coarser))
            levels, connecting = [bottom] + levels, [last, down]
        chain = check_tower(levels, connecting).coherent_idempotent_chain
        for level, e in zip(levels, chain, strict=True):
            elements, gens = oracles.closure(level.flow.generator_maps())
            table = oracles.composition_table(elements)
            ideals = oracles.minimal_left_ideals(table, gens)
            f = tuple(enveloping_semigroup(level.flow).maps[e])
            assert any(elements.index(f) in idempotents
                       for _, idempotents in ideals)
            nontrivial += f != tuple(range(level.flow.points))
        towers += 1
    assert nontrivial >= 200
