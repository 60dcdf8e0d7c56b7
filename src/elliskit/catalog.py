"""Bundled example fixtures and the instance catalogs driven by the
verification suites. Every example runs a pipeline whose assertions are all
recorded in the returned report; a failed verdict makes the run fail."""

from __future__ import annotations

import functools
import operator

from .algebra import (
    Subgroup,
    affine_components,
    are_isomorphic,
    enumerate_subgroups,
    left_cosets,
    named_group,
    normal_core,
    quotient_group,
    subgroup_generated,
)
from .caps import DEFAULT_CAPS, Caps
from .ellis import (
    enveloping_semigroup,
    ideal_group,
    induced_epimorphism,
    minimal_left_ideals,
)
from .errors import UnknownExample
from .flows import (
    FlowMorphism,
    check_tower,
    coset_flow,
    disjoint_union_flow,
    family_is_independent,
    independent_translates,
    make_ambit,
    natural_flow,
    product_flow,
    regular_flow,
)
from .grouplike import compute_D, identify_quotient
from .relations import (
    WitnessPair,
    equality_relation,
    make_relation,
    maximal_witnesses,
    r_pairs,
    r_relation,
)
from .report import Report
from .structured import (
    StructuredInstance,
    default_lattices,
    discrete_lattice,
    make_lattice,
    product_lattice,
)


def run_s3_stabilizer(caps: Caps = DEFAULT_CAPS) -> Report:
    """The symmetric group on three points, pointed at 0, with equality as
    the relation: the ideal group is the whole closure, the basepoint
    stabilizer has order two and is not normal, its core is trivial, and the
    identification gives three classes as cosets of the stabilizer."""
    rep = Report("example", "s3-stabilizer")
    G = named_group("symmetric", n=3)
    amb = make_ambit(natural_flow(G), 0)
    S = enveloping_semigroup(amb.flow, caps=caps)
    rep.record("closure has six elements", S.size == 6, S.size)
    ideals = minimal_left_ideals(S)
    IG = ideal_group(ideals[0], ideals[0].idempotents[0])
    rep.record("unique minimal ideal equals the closure",
               len(ideals) == 1 and ideals[0].member_set == frozenset(range(6)))
    rep.record("unique idempotent", len(ideals[0].idempotents) == 1,
               ideals[0].idempotents)
    rep.record("ideal group is the full symmetric group",
               bool(are_isomorphic(IG.group_view, G)))
    D = compute_D(IG, amb)
    rep.record("basepoint stabilizer has order two", D.order == 2, D.sorted_members)
    rep.record("stabilizer is not normal", not D.is_normal())
    core = normal_core(IG.group_view, D)
    rep.record("stabilizer core is trivial", core.order == 1)
    ident = identify_quotient(amb, equality_relation(3), IG)
    order = ident.ghat.order
    rep.record("identified group is the full symmetric group",
               bool(are_isomorphic(ident.ghat, G)))
    rep.record("three classes", ident.class_count == 3, ident.class_count)
    rep.record("index of stabilizer is three", order // ident.stabilizer.order == 3)
    rep.record("cardinality identity",
               ident.class_count * ident.stabilizer.order == order)
    rep.structures.update({
        "closure_size": S.size,
        "stabilizer": list(D.sorted_members),
        "identified_group_order": order,
        "class_count": ident.class_count,
    })
    return rep


def _affine_f2(caps: Caps):
    """The setting of both affine fixtures: the rank-three affine group over
    the two-element field, its components, the plane x3 = 0 and the line
    x2 = x3 = 0 as vector indices, and the translation subgroup of a set of
    vector indices."""
    G = named_group("affine", q=2, dim=3, caps=caps)
    comp = affine_components(2, 3)
    nm = len(comp.matrices)
    plane = [i for i, v in enumerate(comp.vectors) if v[2] == 0]
    line = [i for i, v in enumerate(comp.vectors) if v[1] == v[2] == 0]

    def translations(vectors):      # the identity is (0, I): vector 0 comes first
        return Subgroup(G, frozenset(v * nm + G.identity for v in vectors))

    return G, comp, plane, line, translations


def affine_f2_fixture(caps: Caps = DEFAULT_CAPS):
    """Two maximal witness pairs for one relation on the rank-three affine
    group over the two-element field: plane translations with the
    plane-stabilizing support, and line translations with the larger
    line-into-plane support."""
    G, comp, plane, line, translations = _affine_f2(caps)
    nm = len(comp.matrices)
    images = [{act[p] for p in plane} for act in comp.acts]     # M(plane)
    support1 = frozenset(g for g in G.elements() if images[g % nm] == set(plane))
    support2 = frozenset(g for g in G.elements() if set(line) <= images[g % nm])
    return (regular_flow(G), WitnessPair(translations(plane), support1),
            WitnessPair(translations(line), support2))


def run_affine_f2(caps: Caps = DEFAULT_CAPS) -> Report:
    rep = Report("example", "affine-f2")
    flow, w1, w2 = affine_f2_fixture(caps)
    rep.record("group order 1344", flow.group.order == 1344, flow.group.order)
    r1 = r_relation(flow, w1)
    r2 = r_relation(flow, w2)
    rep.record("first pair produces an equivalence", r1.is_equivalence,
               r1.failure_witness)
    rep.record("second pair produces an equivalence", r2.is_equivalence,
               r2.failure_witness)
    rep.record("both pairs produce the same relation", r1.pairs == r2.pairs)
    E = r1.to_relation(flow)
    m1 = maximal_witnesses(E, w1)
    m2 = maximal_witnesses(E, w2)
    rep.record("first pair is a maximal-witness fixpoint",
               m1.subgroup.members == w1.subgroup.members
               and m1.support == w1.support)
    rep.record("second pair is a maximal-witness fixpoint",
               m2.subgroup.members == w2.subgroup.members
               and m2.support == w2.support)
    rep.record("second subgroup strictly inside the first",
               w2.subgroup.members < w1.subgroup.members,
               (w2.subgroup.order, w1.subgroup.order))
    rep.record("first support strictly inside the second",
               w1.support < w2.support,
               (len(w1.support), len(w2.support)))
    rep.structures.update({
        "subgroup_orders": [w1.subgroup.order, w2.subgroup.order],
        "support_sizes": [len(w1.support), len(w2.support)],
        "class_count": len(E.classes),
    })
    return rep


def worb_union_f2_fixture(caps: Caps = DEFAULT_CAPS):
    """The affine group acting on two disjoint copies of itself; classes on
    the first copy are the left cosets of the plane translations, on the
    second copy those of the line translations: (v, M)·(p, I) = (v + Mp, M),
    so each is a matrix-twisted coset. Witnessed by the line translations
    with a support meeting the first copy in the plane-covering matrices and
    the second copy in the identity alone."""
    G, comp, plane, line, translations = _affine_f2(caps)
    flow = disjoint_union_flow([regular_flow(G), regular_flow(G)], caps=caps)
    classes = left_cosets(G, translations(plane)) + [
        tuple(G.order + g for g in coset) for coset in left_cosets(G, translations(line))]
    E = make_relation(2 * G.order, classes, flow)
    # (0, M) for the identity, the swap of e1 and e2, and the M with
    # M(e1) = e1 + e2: the inverse images of the line under them sweep out
    # the plane
    cover = [((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
             ((1, 0, 0), (1, 1, 0), (0, 0, 1))]
    support = frozenset({comp.matrices.index(M) for M in cover} | {G.order + G.identity})
    return flow, E, WitnessPair(translations(line), support)


def run_worb_union_f2(caps: Caps = DEFAULT_CAPS) -> Report:
    rep = Report("example", "worb-union-f2")
    flow, E, w = worb_union_f2_fixture(caps)
    rep.record("relation is invariant", E.invariant, E.invariance_witness)
    rep.record("witness pair produces the relation", r_pairs(flow, w) == E.pairs())
    half = flow.points // 2
    sizes_first = {len(c) for c in E.classes if c[0] < half}
    sizes_second = {len(c) for c in E.classes if c[0] >= half}
    rep.record("first-copy classes have four elements", sizes_first == {4},
               sorted(sizes_first))
    rep.record("second-copy classes have two elements", sizes_second == {2},
               sorted(sizes_second))
    # freeness: only the identity fixes any point
    G = flow.group
    pts = range(flow.points)
    free = not any(any(map(operator.eq, m, pts))
                   for g, m in enumerate(flow.maps) if g != G.identity)
    rep.record("action is free", free)
    # On a free action, a support meeting an orbit in one point forces the
    # witnessing subgroup to carry that point's class exactly, so its order
    # must match the class size; the two copies disagree (4 vs 2), hence no
    # support meeting each copy in exactly one point can witness.
    rep.record("no witness support meets both copies in single points",
               free and sizes_first == {4} and sizes_second == {2})
    rep.structures.update({
        "points": flow.points,
        "class_count": len(E.classes),
        "witness_subgroup_order": w.subgroup.order,
        "support_size": len(w.support),
    })
    return rep


def run_product_demo(caps: Caps = DEFAULT_CAPS) -> Report:
    rep = Report("example", "product-demo")
    pairs = [
        (natural_flow(named_group("cyclic", n=2)),
         natural_flow(named_group("cyclic", n=3))),
        (natural_flow(named_group("symmetric", n=3)),
         natural_flow(named_group("cyclic", n=2))),
    ]
    for f1, f2 in pairs:
        tag = f"{f1.group.name} x {f2.group.name}"
        prod = product_flow([f1, f2], caps=caps)
        S, S1, S2 = (enveloping_semigroup(f, caps=caps) for f in (prod, f1, f2))
        ideals, ideals1, ideals2 = map(minimal_left_ideals, (S, S1, S2))
        rep.record(f"{tag}: closure size multiplies",
                   S.size == S1.size * S2.size, (S.size, S1.size, S2.size))
        amb = make_ambit(prod, 0)
        a1 = make_ambit(f1, 0)
        a2 = make_ambit(f2, 0)
        nb = f2.group.order
        pm1 = tuple(x // f2.points for x in range(prod.points))
        pm2 = tuple(x % f2.points for x in range(prod.points))
        epi1 = induced_epimorphism(
            FlowMorphism(amb, a1, pm1,
                         tuple(g // nb for g in prod.generator_elements())),
            ideals, ideals1)
        epi2 = induced_epimorphism(
            FlowMorphism(amb, a2, pm2,
                         tuple(g % nb for g in prod.generator_elements())),
            ideals, ideals2)
        paired = {(epi1.element_map[i], epi2.element_map[i])
                  for i in range(S.size)}
        rep.record(f"{tag}: projections separate the closure",
                   len(paired) == S.size)
        n_src, n1, n2 = len(ideals), len(ideals1), len(ideals2)
        rep.record(f"{tag}: ideals correspond under both projections",
                   all({t for _, t in epi.ideal_images} == set(range(n))
                       for epi, n in ((epi1, n1), (epi2, n2))))
        rep.record(f"{tag}: minimal ideal counts multiply",
                   n_src == n1 * n2, (n_src, n1, n2))
    return rep


def tower_fixture():
    G = named_group("cyclic", n=6)
    lvl0 = make_ambit(coset_flow(G, subgroup_generated(G, list(G.elements()))), 0)
    N = subgroup_generated(G, [3])
    lvl1 = make_ambit(coset_flow(G, N), 0)
    lvl2 = make_ambit(regular_flow(G), 0)
    m10 = FlowMorphism(lvl1, lvl0, tuple(0 for _ in range(lvl1.points)))
    m21 = FlowMorphism(lvl2, lvl1, quotient_group(G, N).projection)
    return [lvl0, lvl1, lvl2], [m10, m21]


def run_tower_demo(caps: Caps = DEFAULT_CAPS) -> Report:
    rep = Report("example", "tower-demo")
    levels, connecting = tower_fixture()
    tower = check_tower(levels, connecting, caps=caps)
    orders = [lv.ideal_group_order for lv in tower.levels]
    rep.record("ideal groups are trivial, order three, order six",
               orders == [1, 3, 6], orders)
    rep.record("one minimal ideal per level",
               all(lv.ideal_count == 1 for lv in tower.levels))
    rep.record("idempotent chain threads the tower",
               all(e in lv.idempotents for lv, e in
                   zip(tower.levels, tower.coherent_idempotent_chain)))
    rep.structures["ideal_group_orders"] = orders
    return rep


def cube_fixture():
    from .algebra import group_from_permutations

    def xor_mask(mask):
        return tuple(x ^ mask for x in range(8))

    def permute_bits(perm):
        out = []
        for x in range(8):
            bits = [(x >> (2 - i)) & 1 for i in range(3)]
            out.append(sum(bits[perm[i]] << (2 - i) for i in range(3)))
        return tuple(out)

    gens = [xor_mask(4), xor_mask(2), xor_mask(1),
            permute_bits((1, 0, 2)), permute_bits((1, 2, 0))]
    G = group_from_permutations(8, gens, name="cube-symmetries")
    return natural_flow(G)


def run_cube_independence(caps: Caps = DEFAULT_CAPS) -> Report:
    rep = Report("example", "cube-independence")
    flow = cube_fixture()
    rep.record("translation-and-permutation group has order 48",
               flow.group.order == 48, flow.group.order)
    base = frozenset(x for x in range(8) if not (x >> 2) & 1)
    res3 = independent_translates(flow, base, 3, caps=caps)
    rep.record("independent family of three translates found", res3.found,
               res3.witness)
    rep.record("witness verifies",
               res3.found and family_is_independent(flow, base, res3.witness))
    res4 = independent_translates(flow, base, 4, caps=caps)
    rep.record("four translates certified exhausted",
               not res4.found and res4.exhausted_reason == "pigeonhole",
               res4.exhausted_reason)
    rep.structures.update({
        "witness": list(res3.witness) if res3.witness else None,
        "exhaustion": res4.exhausted_reason,
    })
    return rep


EXAMPLES = {
    "s3-stabilizer": run_s3_stabilizer,
    "affine-f2": run_affine_f2,
    "worb-union-f2": run_worb_union_f2,
    "product-demo": run_product_demo,
    "tower-demo": run_tower_demo,
    "cube-independence": run_cube_independence,
}


def run_example(name: str, caps: Caps = DEFAULT_CAPS) -> Report:
    if name not in EXAMPLES:
        raise UnknownExample(name, EXAMPLES)
    return EXAMPLES[name](caps)


# -- structured catalog ---------------------------------------------------------

def counterexample_shape(caps: Caps = DEFAULT_CAPS) -> StructuredInstance:
    """Finite rebuild of the one-group-on-a-chain-of-copies shape with a
    non-discrete pair lattice omitting the relation.

    The relation has three-element classes on the first copy (cosets of the
    cycle subgroup) and two-element classes on the second (cosets of a
    transposition subgroup). On a free action every conjugate orbit has the
    witnessing subgroup's size, so no single subgroup witnesses both fibers:
    the relation is invariant but not weakly orbital, and consequently the
    witness-free weakening of the classes condition diverges from the full
    one. The point lattice is generated by the classes; the pair lattice is
    {empty, everything}, which omits the relation; the class products it is
    missing are exactly why no finite lattice family can make this shape
    agreeable once the classes are pseudo-closed (union closure would force
    the relation in)."""
    G = named_group("symmetric", n=3)
    flow = disjoint_union_flow([regular_flow(G), regular_flow(G)], caps=caps)
    cycle = next(g for g in G.elements() if G.element_order(g) == 3)
    t = next(g for g in G.elements() if G.element_order(g) == 2)
    classes = [tuple(offset + x for x in coset)
               for offset, K in ((0, subgroup_generated(G, [cycle])),
                                 (6, subgroup_generated(G, [t])))
               for coset in left_cosets(G, K)]
    E = make_relation(12, classes, flow)
    lat_g = discrete_lattice("G", 6)
    lat_x = make_lattice("X", 12, [list(c) for c in classes],
                         auto_complete=True, caps=caps)
    lat_x2 = make_lattice("X2", 144, [], caps=caps)
    lats = {
        "G": lat_g,
        "X": lat_x,
        "GxX": product_lattice(lat_g, lat_x, caps=caps),
        "X2": lat_x2,
        "X2x2": product_lattice(lat_x2, lat_x2, caps=caps),
        "XxG": product_lattice(lat_x, lat_g, caps=caps),
    }
    return StructuredInstance(flow, E, lats, "counterexample-shape")


def structured_catalog(caps: Caps = DEFAULT_CAPS):
    """(instance, kind) pairs; kind is orbital, weakly-orbital, or
    counterexample. A new list on every call; the read-only instances are
    built once per caps and shared."""
    return list(_structured_catalog(caps))


@functools.cache
def _structured_catalog(caps: Caps) -> tuple:
    out = []

    G = named_group("symmetric", n=3)
    flow = regular_flow(G)
    a3 = next(s for s in enumerate_subgroups(G, caps=caps) if s.order == 3)
    from .relations import orbit_relation

    E = orbit_relation(flow, a3)
    out.append((StructuredInstance(
        flow, E, default_lattices(flow, discrete_lattice("G", 6),
                                  discrete_lattice("X", 6), caps=caps),
        "discrete-s3-regular-cosets"), "orbital"))

    z4 = named_group("cyclic", n=4)
    fz4 = natural_flow(z4)
    out.append((StructuredInstance(
        fz4, make_relation(4, [[0, 2], [1, 3]], fz4),
        default_lattices(fz4, discrete_lattice("G", 4),
                         discrete_lattice("X", 4), caps=caps),
        "discrete-rotations-opposite-vertices"), "orbital"))

    z2 = named_group("cyclic", n=2)
    fz2 = natural_flow(z2)
    triv = default_lattices(fz2, make_lattice("G", 2, [], caps=caps),
                            make_lattice("X", 2, [], caps=caps), caps=caps)
    out.append((StructuredInstance(fz2, make_relation(2, [[0, 1]], fz2),
                                   triv, "trivial-lattices-total"),
                "orbital"))
    out.append((StructuredInstance(fz2, equality_relation(2, fz2),
                                   triv, "trivial-lattices-equality"),
                "orbital"))

    s3 = named_group("symmetric", n=3)
    union = disjoint_union_flow([regular_flow(s3), natural_flow(s3)], caps=caps)
    t = next(g for g in s3.elements()
             if s3.perms[g][0] == 0 and g != s3.identity)
    cls = left_cosets(s3, subgroup_generated(s3, [t]))
    cls.extend((6 + x,) for x in range(3))
    E2 = make_relation(9, cls, union)
    out.append((StructuredInstance(
        union, E2, default_lattices(union, discrete_lattice("G", 6),
                                    discrete_lattice("X", 9), caps=caps),
        "discrete-separate-orbits"), "weakly-orbital"))

    freg = regular_flow(z2)
    out.append((StructuredInstance(
        freg, make_relation(2, [[0, 1]], freg),
        default_lattices(freg, make_lattice("G", 2, [], caps=caps),
                         make_lattice("X", 2, [], caps=caps), caps=caps),
        "trivial-lattices-regular-total"), "weakly-orbital"))

    out.append((counterexample_shape(caps), "counterexample"))
    return tuple(out)
