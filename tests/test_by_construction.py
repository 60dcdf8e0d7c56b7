"""The facts that `elliskit` states by construction and no longer checks at
run time, each run on seeded instances against its literal form in
``oracles.py``: the generators' draws always have a candidate and build
invariant relations; every generator map is an acting map; the kernel of an
invariant relation is the normal class-wise stabilizer; the classes are the
cosets of the basepoint-class stabilizer, and the basepoint fibers of an
ideal group are the cosets of D; a group flow's only idempotent is the
identity; an ideal group's isomorphism onto itself is the identity, and
its identity fixes every member; on a free action the normal subgroups
biject with the orbital relations; the
minimal-ideal structure that generation by every member gives, below and
above `ORACLE_LIMIT`; the unique compatible idempotent and the
conjugation form of an isomorphism; an induced map as the literal
pushforward, with minimal ideals onto minimal ideals; idempotents pushed
to idempotents; a
tower's idempotent chain stays in the minimal ideals; the quotient
identification, against its literal scans; the domination from the regular
ambit and the onto orbit map, which the identification and the group-like
suite no longer re-prove; and the Galois facts of maximal witnesses that
the orbital suite no longer records. The one-step maximal witnesses and
the lattice members' invariance are compared with their oracles in
``test_fast_paths.py``."""

import random

import oracles
from elliskit import grouplike, suites
from elliskit.algebra import Subgroup, enumerate_subgroups, named_group
from elliskit.caps import DEFAULT_CAPS
from elliskit.ellis import (
    compatible_idempotent,
    enveloping_semigroup,
    ideal_group,
    ideal_group_isomorphism,
    induced_epimorphism,
    minimal_left_ideals,
)
from elliskit.errors import ClosureCapExceeded, OrbitNotDense
from elliskit.flows import (
    FlowMorphism,
    check_tower,
    coset_flow,
    disjoint_union_flow,
    make_ambit,
    natural_flow,
    product_flow,
    regular_flow,
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
from elliskit.relations import (
    EquivRelation,
    WitnessPair,
    free_action_correspondence,
    invariant_relations,
    is_orbital,
    is_weakly_orbital,
    kernel_group,
    maximal_witnesses,
)
from elliskit.suites import run_suite

ORACLE_LIMIT = 512  # largest closure compared with the all-pairs oracle table

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
                values = [S.maps[s][x0] for s in IG.members]
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


def test_every_ideal_group_of_the_ellis_battery_has_u_fixing_its_members(
        monkeypatch):
    """On every ideal group the Ellis battery builds at seeds 1-4, u·s = s
    for each member s, composing the maps by hand: the fact `ideal_group`
    certifies once, on which the discrete τ-topology, `h_subgroup` and the
    battery rest without reading u's row again (`ellis` module docstring)."""
    groups = recorded_draws(monkeypatch, "ideal_group")
    for seed in range(1, 5):
        assert run_suite("ellis", 50, seed).passed
    nontrivial = 0
    for G in groups:
        maps = oracles.elements_of(G.parent)
        u = maps[G.idempotent]
        assert all(oracles.compose(u, maps[s]) == maps[s] for s in G.members)
        nontrivial += len(G.members) > 1
    assert len(groups) >= 300 and nontrivial >= 80


def test_on_free_actions_normal_subgroups_biject_with_orbital_relations():
    """On the regular flow of every catalog group (2 to 24 points), by the
    literal scans: each normal subgroup N has an invariant orbit relation
    whose class-wise stabilizer is N, so distinct normal subgroups give
    distinct relations; and every orbital relation among the invariant
    ones is such an orbit relation. These are the facts
    `free_action_correspondence` no longer re-checks (`relations` module
    docstring). The invariant relations are the Bell filter's up to 8
    points and the lattice's above, which `test_fast_paths.py` compares
    with the filter."""
    normals = 0
    for G in group_catalog():
        flow = regular_flow(G)
        n = flow.points
        relations = (oracles.invariant_relations(flow) if n <= 8
                     else invariant_relations(flow))
        orbital = {E.classes for E in relations
                   if oracles.orbital_counterexample(flow, E.class_of) is None}
        arising = set()
        entries = []
        for members in oracles.enumerate_subgroups(G.mul, G.identity):
            if not oracles.is_normal(G, members):
                continue
            orbit = [min(flow.act(h, x) for h in members) for x in range(n)]
            E = EquivRelation(n, tuple(tuple(x for x in range(n) if orbit[x] == r)
                                       for r in sorted(set(orbit))), flow)
            assert oracles.invariance(flow, E.class_of)[0]
            assert oracles.stabilizing_elements(flow, E, range(n)) == set(members)
            assert E.classes not in arising
            arising.add(E.classes)
            entries.append((members, len(E.classes)))
        assert arising == orbital
        assert list(free_action_correspondence(flow).entries) == entries
        normals += len(entries)
    assert normals >= 60


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


def ellis_closures(seed):
    """Seeded flows with their closures: 400 transformation and group flows
    of up to 6 points, nearly all within `ORACLE_LIMIT`, then S6 on 6
    points and four closures of random maps on 5 or 6 points above it."""
    rng = random.Random(seed)
    for _ in range(400):
        flow = random_ellis_flow(rng, 6)
        yield flow, enveloping_semigroup(flow)
    flow = natural_flow(named_group("symmetric", n=6))
    yield flow, enveloping_semigroup(flow)
    caps = DEFAULT_CAPS._replace(closure_cap=2000)
    large = 0
    while large < 4:
        k = rng.randint(5, 6)
        flow = transformation_flow([[rng.randrange(k) for _ in range(k)]
                                    for _ in range(rng.randint(2, 3))])
        try:
            S = enveloping_semigroup(flow, caps=caps)
        except ClosureCapExceeded:
            continue
        if S.size > ORACLE_LIMIT:
            large += 1
            yield flow, S


def test_minimal_ideals_hold_what_generation_by_every_member_gives():
    """`_validate_minimal_ideal` certifies only that every member generates
    its ideal. On every minimal left ideal of the closures above: the list
    is the all-elements oracle's (within `ORACLE_LIMIT`) and its union is
    closed under left products; each ideal has an idempotent, s·u = s for
    every member s and idempotent u, and the blocks u·M are disjoint and
    cover it (`ellis` module docstring)."""
    ideals = blocks = large = 0
    for flow, S in ellis_closures(107):
        elements, index = oracles.elements_of(S), oracles.index_of(S)
        found = minimal_left_ideals(S)
        if S.size <= ORACLE_LIMIT:
            table = oracles.composition_table(elements)
            assert [(M.members, M.idempotents) for M in found] == \
                oracles.minimal_left_ideals(table, S.generators)
        else:
            large += 1
        union = frozenset().union(*(M.members for M in found))
        assert all(oracles.product(elements, index, g, m) in union
                   for g in S.generators for m in union)
        for M in found:
            idempotents, right_identity, cover = oracles.ideal_blocks(
                elements, index, M.members)
            assert idempotents == M.idempotents and idempotents
            assert right_identity
            assert sum(map(len, cover)) == len(M.members)
            assert frozenset().union(*cover) == M.member_set
            ideals += 1
            blocks += len(cover)
    assert large >= 5 and ideals >= 400 and blocks >= 600


def test_the_compatible_idempotent_is_unique_and_gives_the_conjugation():
    """For every ideal group u·M and minimal ideal N: exactly one
    idempotent w of N has w·u = u, `compatible_idempotent` returns it, and
    u·w = w; when v·u = u for the identity v of v·N, the isomorphism onto
    v·N is the conjugation s -> (v·s)·v (`ellis` module docstring)."""
    pairs = not_first = conjugations = 0
    for flow, S in ellis_closures(113):
        elements, index = oracles.elements_of(S), oracles.index_of(S)

        def mul(a, b):
            return oracles.product(elements, index, a, b)

        ideals = minimal_left_ideals(S)
        groups = {u: ideal_group(M, u) for M in ideals for u in M.idempotents}
        for gu in groups.values():
            u = gu.idempotent
            for N in ideals:
                compatible = [w for w in N.idempotents if mul(w, u) == u]
                w = compatible_idempotent(gu, N)
                assert compatible == [w] and mul(u, w) == w
                pairs += 1
                not_first += w != N.idempotents[0]
                assert ideal_group_isomorphism(gu, groups[w]) == \
                    tuple(mul(mul(w, s), w) for s in gu.members)
                conjugations += len(gu.members) > 1
    assert pairs >= 600 and not_first >= 250 and conjugations >= 150


def test_epimorphisms_send_idempotents_to_idempotents():
    """The epimorphism a random quotient of each closure's flow induces:
    every pushed minimal-ideal idempotent is an idempotent of the target
    closure, by composing its map with itself."""
    rng = random.Random(127)
    epimorphisms = moved = 0
    for flow, S in ellis_closures(131):
        ambit = ambit_or_none(flow, rng.randrange(flow.points))
        if ambit is None:
            continue
        relation = rng.choice(list(invariant_relations(flow)))
        target, morphism = quotient_ambit(ambit, relation)
        epi = induced_epimorphism(morphism, S, enveloping_semigroup(target.flow))
        for _, pushed in epi.idempotent_images:
            f = tuple(epi.target.maps[pushed])
            assert oracles.compose(f, f) == f
            moved += f != tuple(range(target.flow.points))
        epimorphisms += 1
    assert epimorphisms >= 250 and moved >= 150


def test_an_induced_map_is_the_literal_pushforward():
    """The epimorphism a random quotient of each closure's flow induces,
    against its literal form: each source map sends every point of a fiber
    into one fiber, the map this induces lies in the target closure and is
    `element_map`'s, and the image of each minimal ideal is a minimal left
    ideal of the target by the all-elements oracle (within
    `ORACLE_LIMIT`), the one `ideal_images` names (`ellis` module docstring)."""
    rng = random.Random(149)
    epimorphisms = collapsed = ideals_checked = 0
    for flow, S in ellis_closures(151):
        ambit = ambit_or_none(flow, rng.randrange(flow.points))
        if ambit is None:
            continue
        relation = rng.choice(list(invariant_relations(flow)))
        target, morphism = quotient_ambit(ambit, relation)
        epi = induced_epimorphism(morphism, S, enveloping_semigroup(target.flow))
        T, pm = epi.target, morphism.point_map
        index = oracles.index_of(T)
        images = []
        for f in oracles.elements_of(S):
            pushed = [{pm[f[z]] for z in fiber} for fiber in relation.classes]
            assert all(len(values) == 1 for values in pushed)
            images.append(index[tuple(v for (v,) in pushed)])
        assert tuple(images) == epi.element_map
        if T.size <= ORACLE_LIMIT:
            table = oracles.composition_table(oracles.elements_of(T))
            oracle_ideals = [frozenset(members) for members, _ in
                             oracles.minimal_left_ideals(table, T.generators)]
            target_ideals = minimal_left_ideals(T)
            for (si, ti), M in zip(epi.ideal_images, minimal_left_ideals(S), strict=True):
                image = frozenset(images[s] for s in M.members)
                assert image in oracle_ideals and image == target_ideals[ti].member_set
                ideals_checked += 1
        epimorphisms += 1
        collapsed += T.size < S.size
    assert epimorphisms >= 250 and collapsed >= 100 and ideals_checked >= 250


def transitive_catalog_flows():
    """The catalog groups acting on themselves, by their permutations and
    on the cosets of each subgroup of index 3 to 6."""
    for G in group_catalog():
        yield regular_flow(G)
        if G.perms is not None:
            yield natural_flow(G)
        for H in enumerate_subgroups(G):
            if 3 <= G.order // H.order <= 6:
                yield coset_flow(G, H)


def test_identification_matches_the_literal_scans():
    """Every invariant relation of the catalog's transitive flows, at
    basepoint 0 and at a seeded other point: `identify_quotient`'s
    stabilizer and coset-to-class map are those the literal scans give, and
    every scan passes: each coset of Ĝ acts as one map, the values reach
    every class, their fibers are the stabilizer's cosets, |X/E|·|H| =
    |Ĝ|, and the identification is equivariant for every element of G
    (`grouplike` module docstring)."""
    rng = random.Random(137)
    pairs = moved = 0
    for flow in transitive_catalog_flows():
        S = enveloping_semigroup(flow)
        M = minimal_left_ideals(S)[0]
        IG = ideal_group(M, M.idempotents[0])
        u = tuple(S.maps[IG.idempotent])
        for E in invariant_relations(flow):
            for x0 in {0, rng.randrange(flow.points)}:
                ambit = make_ambit(flow, x0)
                report = grouplike.identify_quotient(ambit, E, S)
                ghat = grouplike.compute_ghat(IG, ambit)
                assert report.ghat.cosets == ghat.cosets
                cosets = [[tuple(S.maps[IG.members[g]]) for g in coset]
                          for coset in ghat.cosets]
                assert (report.stabilizer.members, report.coset_to_class) == \
                    oracles.identification(flow, x0, E.class_of, cosets, ghat.group, u)
                assert report.class_count == len(E.classes)
                pairs += 1
                moved += E.class_of[x0] != E.class_of[0]
    assert pairs >= 600 and moved >= 150


def test_the_regular_ambit_dominates_every_invariant_relation():
    """`check_domination(default_domination(...))` holds for every
    invariant relation of the catalog's transitive flows, at basepoint 0
    and at a seeded other point, and its orbit map reaches every class:
    the domination `identify_quotient` no longer builds and re-checks
    (`grouplike` module docstring)."""
    rng = random.Random(139)
    pairs = normal = 0
    for flow in transitive_catalog_flows():
        for E in invariant_relations(flow):
            for x0 in {0, rng.randrange(flow.points)}:
                witness = grouplike.default_domination(make_ambit(flow, x0), E)
                verdict = grouplike.check_domination(witness)
                assert verdict and len(set(verdict.orbit_map)) == len(E.classes)
                pairs += 1
                normal += len(witness.source_relation.classes) < flow.group.order
    assert pairs >= 600 and normal >= 350


def recorded_draws(monkeypatch, name):
    """The values a suite draws from `generators` through `suites.<name>`,
    appended to the returned list as it runs."""
    drawn = []
    draw = getattr(suites, name)
    monkeypatch.setattr(suites, name,
                        lambda *args: drawn.append(draw(*args)) or drawn[-1])
    return drawn


def test_the_orbit_map_is_an_onto_homomorphism_with_the_identity_in_its_kernel(
        monkeypatch):
    """On every setup of the group-like suite at seeds 1-8: `orbit_map_r`
    returns values that reach every class, every idempotent of the closure
    maps to the class group's identity, and the map is multiplicative on
    every pair of elements, by composing their maps: the checks the suite
    no longer runs on a second closure (`grouplike` module docstring)."""
    setups = recorded_draws(monkeypatch, "random_group_like_setup")
    for seed in range(1, 9):
        assert run_suite("grouplike", 12, seed).passed
    assert len(setups) == 8 * 12
    moved = 0
    for flow, E in setups:
        ambit = make_ambit(flow, 0)
        cert = grouplike.check_group_like(ambit, E).certificate
        S = enveloping_semigroup(flow)
        values = grouplike.orbit_map_r(ambit, cert, S)
        elements, index = oracles.elements_of(S), oracles.index_of(S)
        q = cert.quotient_group
        assert set(values) == set(range(len(E.classes)))
        assert [values[s] for s in range(S.size)
                if oracles.product(elements, index, s, s) == s] == [q.identity]
        assert all(values[oracles.product(elements, index, a, b)] ==
                   q.mul[values[a]][values[b]]
                   for a in range(S.size) for b in range(S.size))
        moved += len(E.classes) > 1
    assert moved >= 30


def test_maximal_witnesses_hold_the_galois_facts_on_orbital_suite_instances(
        monkeypatch):
    """On every relation the orbital suite draws at seeds 1-4, and on every
    invariant relation of the catalog's transitive flows, where many are
    weakly orbital and not orbital: from the kernel K of an orbital
    relation with every point as support, the maximal support is every
    point, which is K's literal fix-set; from the weak witness (H, S),
    fix(stab(fix(H))) = fix(H) by the literal scans, and maximal witnesses
    are a fixpoint. The suite no longer records either (`relations` and
    `suites` module docstrings)."""
    relations = recorded_draws(monkeypatch, "random_invariant_relation")
    for seed in range(1, 5):
        assert run_suite("orbital", 25, seed).passed
    assert len(relations) == 4 * 25
    relations += [E for flow in transitive_catalog_flows()
                  for E in invariant_relations(flow)]
    orbital = weak = 0
    for E in relations:
        flow = E.flow
        everything = frozenset(range(flow.points))
        orb = is_orbital(E)
        if orb:
            kern = kernel_group(E)
            assert oracles.fix_set(flow, E, kern) == everything
            w = maximal_witnesses(E, WitnessPair(kern, everything))
            assert w.support == everything
            orbital += 1
        verdict = is_weakly_orbital(E)
        if verdict:
            fix = oracles.fix_set(flow, E, verdict.witness.subgroup)
            stab = Subgroup(flow.group, oracles.stabilizing_elements(flow, E, fix))
            assert oracles.fix_set(flow, E, stab) == fix
            m = maximal_witnesses(E, verdict.witness)
            again = maximal_witnesses(E, m)
            assert (again.support, again.subgroup.members) == \
                (m.support, m.subgroup.members)
            weak += not orb
    assert orbital >= 400 and weak >= 70
