import pytest

import oracles
from elliskit.algebra import enumerate_subgroups, named_group, subgroup_generated
from elliskit.errors import NotALattice, SizeCapExceeded
from elliskit.flows import disjoint_union_flow, natural_flow, regular_flow
from elliskit.relations import (
    equality_relation,
    invariant_relations,
    is_orbital,
    is_weakly_orbital,
    make_relation,
    orbit_relation,
    total_relation,
)
from elliskit.structured import (
    StructuredInstance,
    default_lattices,
    discrete_lattice,
    is_agreeable,
    make_lattice,
    product_lattice,
    verify_thm_orb,
    verify_thm_worb,
)


def discrete_instance(flow, E, name=""):
    lats = default_lattices(flow, discrete_lattice("G", flow.group.order),
                            discrete_lattice("X", flow.points))
    return StructuredInstance(flow, E, lats, name)


# ---- lattices -----------------------------------------------------------------

def test_lattice_accepts_closed_family():
    lat = make_lattice("X", 2, [[0]])
    assert lat.contains(frozenset({0}))
    assert lat.contains(frozenset())
    assert lat.contains(frozenset({0, 1}))


def test_lattice_rejects_missing_union():
    with pytest.raises(NotALattice):
        make_lattice("X", 3, [[0], [1]])


def test_lattice_auto_complete_reports_additions():
    lat = make_lattice("X", 3, [[0], [1]], auto_complete=True)
    assert lat.contains(frozenset({0, 1}))
    assert frozenset({0, 1}) in lat.added


def test_discrete_times_discrete_is_discrete():
    a = discrete_lattice("X", 3)
    p = product_lattice(a, a)
    assert p.discrete and p.ground == "X2" and p.size == 9


def test_product_lattice_rectangles():
    a = make_lattice("X", 2, [[0]])
    b = make_lattice("X", 2, [[1]])
    p = product_lattice(a, b)
    assert p.ground == "X2"
    # rectangle products of {empty, {0}, all} x {empty, {1}, all} give five
    # distinct sets; closure adds the union {0,1} | {1,3}
    assert p.contains(frozenset({0 * 2 + 1}))  # {0} x {1}
    assert p.contains(frozenset({1, 3}))       # all x {1}
    assert p.contains(frozenset({0, 1, 3}))
    assert len(p.sets) == 6


def test_product_lattice_with_trivial_factor():
    a = make_lattice("X", 2, [[0]])
    triv = make_lattice("G", 2, [])
    p = product_lattice(a, triv)
    assert p.ground == "XxG"
    assert all(
        s in (frozenset(), frozenset({0, 1}), frozenset({0, 1, 2, 3}),
              frozenset({2, 3}))
        for s in p.sets
    )


def test_lattice_cap():
    from elliskit.caps import Caps

    sets = [[i] for i in range(10)]
    with pytest.raises(SizeCapExceeded):
        make_lattice("X", 10, sets, auto_complete=True, caps=Caps(lattice_cap=20))


# ---- agreeability -----------------------------------------------------------------

def test_discrete_lattices_always_agreeable():
    for flow in [natural_flow(named_group("symmetric", n=3)),
                 regular_flow(named_group("cyclic", n=4)),
                 natural_flow(named_group("dihedral", n=4))]:
        inst = discrete_instance(flow, total_relation(flow.points))
        assert is_agreeable(inst)


def test_trivial_invariant_lattices_agreeable():
    G = named_group("cyclic", n=2)
    flow = natural_flow(G)
    lat_g = make_lattice("G", 2, [])
    lat_x = make_lattice("X", 2, [])
    lats = default_lattices(flow, lat_g, lat_x)
    inst = StructuredInstance(flow, total_relation(2, flow), lats)
    rep = is_agreeable(inst)
    assert rep, rep.failures


def test_non_invariant_x_lattice_fails_axiom_4():
    # swap on two points with a one-point set distinguished
    G = named_group("cyclic", n=2)
    flow = natural_flow(G)
    lat_g = discrete_lattice("G", 2)
    lat_x = make_lattice("X", 2, [[0]])
    lats = default_lattices(flow, lat_g, lat_x)
    inst = StructuredInstance(flow, total_relation(2, flow), lats)
    rep = is_agreeable(inst)
    assert not rep
    assert 4 in rep.failing_axioms()


def test_trivial_group_discrete_lattices_agreeable():
    G = named_group("cyclic", n=1)
    from elliskit.flows import make_flow

    flow = make_flow(G, 3, [tuple(range(3))])
    inst = discrete_instance(flow, equality_relation(3, flow))
    assert is_agreeable(inst)


def test_trivial_group_coarse_lattices_need_diagonals():
    # under the rectangles-plus-closure default, the pairing map sends the
    # full set to the diagonal, which no rectangle closure of coarse point
    # lattices contains: the pairing axiom fails for the trivial group
    G = named_group("cyclic", n=1)
    from elliskit.flows import make_flow

    flow = make_flow(G, 2, [tuple(range(2))])
    lat_g = discrete_lattice("G", 1)
    lat_x = make_lattice("X", 2, [])
    lats = default_lattices(flow, lat_g, lat_x)
    inst = StructuredInstance(flow, equality_relation(2, flow), lats)
    rep = is_agreeable(inst)
    assert not rep and 6 in rep.failing_axioms()
    # supplying the diagonal shifts the failure to its sections, which are
    # singletons: for the trivial group, agreeability forces an essentially
    # discrete point lattice
    lats["X2"] = make_lattice("X2", 4, [[0, 3]])
    lats["X2x2"] = product_lattice(lats["X2"], lats["X2"])
    inst2 = StructuredInstance(flow, equality_relation(2, flow), lats)
    rep2 = is_agreeable(inst2)
    assert not rep2 and 1 in rep2.failing_axioms()


def z3_section_failures(lat_g, lat_x, lat_gxx):
    """Axiom-1 witnesses of the natural Z3 flow on three points with the
    given G, X and GxX lattices (GxX rows are group elements, columns
    points)."""
    flow = natural_flow(named_group("cyclic", n=3))
    lats = default_lattices(flow, lat_g, lat_x)
    lats["GxX"] = lat_gxx
    rep = is_agreeable(StructuredInstance(flow, total_relation(3, flow), lats))
    return [witness for axiom, witness in rep.failures if axiom == 1]


# {(1, 0), (2, 0), (2, 2)}: rows 1 -> {0}, 2 -> {0, 2}; columns 0 -> {1, 2},
# 2 -> {2}. A frozenset of these indices iterates 8 first, so witnesses
# taken in set order would be row 2 and column 2.
SKEW = [[3, 6, 8]]


def g_by_x(ground_sets=None, point_sets=None):
    """A GxX section product of Z3 and three points: discrete on G with
    `point_sets` closed on X, or discrete on X with `ground_sets` closed
    on G."""
    if point_sets is not None:
        return product_lattice(discrete_lattice("G", 3), make_lattice("X", 3, point_sets))
    return product_lattice(make_lattice("G", 3, ground_sets), discrete_lattice("X", 3))


@pytest.mark.parametrize("failing", ["row", "col", "both"])
@pytest.mark.parametrize("gxx, left_discrete, row_witness, col_witness", [
    (lambda rows_fail: make_lattice("GxX", 9, SKEW), None,
     ("GxX", "row", 1, (0,)), ("GxX", "col", 0, (1, 2))),
    (lambda rows_fail: g_by_x(point_sets=[[0]] if rows_fail else []), True,
     ("GxX", "row", 0, (0,)), ("GxX", "col", 0, (0,))),
    (lambda rows_fail: g_by_x(ground_sets=[[1, 2]]), False,
     ("GxX", "row", 1, (0,)), ("GxX", "col", 0, (1, 2))),
], ids=["explicit", "left-discrete", "right-discrete"])
def test_section_axiom_reports_lowest_row_then_lowest_column(
        gxx, left_discrete, row_witness, col_witness, failing):
    # a discrete G passes every column section and a discrete X every row
    # section; with both coarse, rows and columns fail and rows come first
    lat_g = discrete_lattice("G", 3) if failing == "row" else make_lattice("G", 3, [])
    lat_x = discrete_lattice("X", 3) if failing == "col" else make_lattice("X", 3, [])
    lat_gxx = gxx(failing != "col")
    assert getattr(lat_gxx, "left_discrete", None) is left_discrete
    assert z3_section_failures(lat_g, lat_x, lat_gxx) == \
        [col_witness if failing == "col" else row_witness]


# ---- orbital transfer -----------------------------------------------------------------

def test_thm_orb_discrete_all_true():
    G = named_group("symmetric", n=3)
    flow = regular_flow(G)
    a3 = next(s for s in enumerate_subgroups(G) if s.order == 3)
    E = orbit_relation(flow, a3)
    rep = verify_thm_orb(discrete_instance(flow, E))
    assert rep.equivalent
    assert rep.relation_closed and rep.classes_closed
    assert rep.kernel_closed and rep.closed_subgroup_exists


def test_thm_orb_trivial_lattices_total_relation():
    G = named_group("cyclic", n=2)
    flow = natural_flow(G)
    lats = default_lattices(flow, make_lattice("G", 2, []), make_lattice("X", 2, []))
    inst = StructuredInstance(flow, total_relation(2, flow), lats)
    rep = verify_thm_orb(inst)
    assert rep.equivalent and rep.relation_closed


def test_thm_orb_trivial_lattices_equality_all_false():
    G = named_group("cyclic", n=2)
    flow = natural_flow(G)
    lats = default_lattices(flow, make_lattice("G", 2, []), make_lattice("X", 2, []))
    inst = StructuredInstance(flow, equality_relation(2, flow), lats)
    rep = verify_thm_orb(inst)
    assert rep.equivalent
    assert not rep.relation_closed and not rep.classes_closed
    assert not rep.kernel_closed and not rep.closed_subgroup_exists


def test_thm_orb_diagonal_lattice_equality_true():
    # equality relation with the diagonal in the pair lattice and the
    # trivial subgroup distinguished
    G = named_group("cyclic", n=2)
    flow = natural_flow(G)
    lat_g = discrete_lattice("G", 2)
    lat_x = discrete_lattice("X", 2)
    lats = default_lattices(flow, lat_g, lat_x)
    inst = StructuredInstance(flow, equality_relation(2, flow), lats)
    rep = verify_thm_orb(inst)
    assert rep.equivalent and rep.relation_closed


def test_thm_orb_over_all_invariant_relations():
    for G in [named_group("cyclic", n=4), named_group("symmetric", n=3)]:
        flow = natural_flow(G)
        for E in invariant_relations(flow):
            if not is_orbital(E):
                continue
            rep = verify_thm_orb(discrete_instance(flow, E))
            assert rep.equivalent


# ---- weakly orbital transfer -------------------------------------------------------------

def separate_orbits_instance():
    """A weakly orbital, non-orbital relation: transposition cosets on the
    regular block, equality on the natural block."""
    G = named_group("symmetric", n=3)
    flow = disjoint_union_flow([regular_flow(G), natural_flow(G)])
    t = next(g for g in G.elements() if G.perms[g][0] == 0 and g != G.identity)
    H = subgroup_generated(G, [t])
    classes = []
    seen = set()
    for g in G.elements():
        if g in seen:
            continue
        coset = sorted(G.mul[g][h] for h in H.members)
        seen.update(coset)
        classes.append(tuple(coset))
    for x in range(3):
        classes.append((6 + x,))
    E = make_relation(9, classes, flow)
    assert E.invariant
    return flow, E


def test_separate_orbits_weakly_orbital_not_orbital():
    flow, E = separate_orbits_instance()
    assert not is_orbital(E)
    assert is_weakly_orbital(E)


def test_thm_worb_discrete_instance():
    flow, E = separate_orbits_instance()
    rep = verify_thm_worb(discrete_instance(flow, E))
    assert rep.equivalent
    assert rep.relation_closed and rep.classes_closed_with_witness
    assert rep.closed_pair_exists and rep.maximal_witnesses_closed


def test_thm_worb_total_on_transitive():
    flow = natural_flow(named_group("symmetric", n=3))
    rep = verify_thm_worb(discrete_instance(flow, total_relation(3, flow)))
    assert rep.equivalent and rep.relation_closed


def counterexample_shape():
    """The finite rebuild of the one-group-on-two-blocks shape with a
    non-discrete pair lattice omitting the relation.

    The flow is S3 acting by left translation on two copies of itself
    (a two-level chain); the relation has classes the 3-cycle cosets on
    fiber 0 and transposition cosets on fiber 1. Because the class sizes
    on the two fibers differ, no single subgroup can witness both at once
    (conjugate orbits on a free action all have the subgroup's size), so
    the relation is invariant but NOT weakly orbital. The point lattice is
    generated by the classes, the pair lattice is {empty, everything}.
    """
    G = named_group("symmetric", n=3)
    flow = disjoint_union_flow([regular_flow(G), regular_flow(G)])
    cycle = next(g for g in G.elements() if G.element_order(g) == 3)
    t = next(g for g in G.elements() if G.element_order(g) == 2)
    K0 = subgroup_generated(G, [cycle])
    K1 = subgroup_generated(G, [t])
    classes = []
    for offset, K in ((0, K0), (6, K1)):
        seen = set()
        for g in G.elements():
            if g in seen:
                continue
            coset = sorted(G.mul[g][h] for h in K.members)
            seen.update(coset)
            classes.append(tuple(offset + x for x in coset))
    E = make_relation(12, classes, flow)
    assert E.invariant

    lat_g = discrete_lattice("G", 6)
    lat_x = make_lattice("X", 12, [list(c) for c in classes], auto_complete=True)
    lat_x2 = make_lattice("X2", 144, [])
    lats = {
        "G": lat_g,
        "X": lat_x,
        "GxX": product_lattice(lat_g, lat_x),
        "X2": lat_x2,
        "X2x2": product_lattice(lat_x2, lat_x2),
        "XxG": product_lattice(lat_x, lat_g),
    }
    return StructuredInstance(flow, E, lats, "counterexample-shape")


def test_counterexample_not_weakly_orbital():
    inst = counterexample_shape()
    E = inst.relation.bind(inst.flow)
    assert not is_weakly_orbital(E)


def test_counterexample_not_agreeable():
    # with every class pseudo-closed, union closure would force the whole
    # relation into any pair lattice containing the class products, so the
    # pair lattice omitting the relation must break the product axiom
    inst = counterexample_shape()
    rep = is_agreeable(inst)
    assert not rep
    assert 2 in rep.failing_axioms()


def test_counterexample_conditions():
    # neither agreeable nor weakly orbital: the conditions are returned as
    # found, and nothing is raised
    inst = counterexample_shape()
    rep = verify_thm_worb(inst)
    assert not inst.agreement
    assert not rep.weakly_orbital and not rep.equivalent
    # classes are pseudo-closed but the relation is not: the witness-free
    # weakening of the second condition breaks the equivalence with the first
    assert rep.classes_closed
    assert not rep.relation_closed
    # and the full second condition (with the witness clause) is false too
    assert not rep.classes_closed_with_witness
    assert not rep.closed_pair_exists


def test_thm_worb_on_an_agreeable_relation_that_is_not_weakly_orbital():
    """The counterexample's flow and relation with discrete lattices: the
    instance is agreeable, the theorem's hypothesis fails, and the verifier
    returns its conditions without raising. Without a witness the second
    and third conditions fail while the fourth holds vacuously."""
    shape = counterexample_shape()
    inst = discrete_instance(shape.flow, shape.relation)
    assert inst.agreement
    rep = verify_thm_worb(inst)
    assert not rep.weakly_orbital and not rep.equivalent
    assert rep.relation_closed and rep.classes_closed
    assert not rep.classes_closed_with_witness and not rep.closed_pair_exists
    assert rep.maximal_witnesses_closed


def test_instance_keeps_a_read_only_copy_of_its_lattices():
    flow = natural_flow(named_group("cyclic", n=4))
    lats = default_lattices(flow, discrete_lattice("G", 4), discrete_lattice("X", 4))
    inst = StructuredInstance(flow, total_relation(4, flow), lats)
    built = dict(inst.lattices)
    lats["X"] = make_lattice("X", 4, [[0, 2]])
    lats["X2"] = product_lattice(lats["X"], lats["X"])
    assert dict(inst.lattices) == built and inst.lattices["X"].discrete
    assert inst.agreement
    assert not StructuredInstance(flow, total_relation(4, flow), lats).agreement
    with pytest.raises(TypeError):
        inst.lattices["X"] = lats["X"]


def test_psclsd_on_discrete_instances():
    flow = natural_flow(named_group("symmetric", n=3))
    inst = discrete_instance(flow, total_relation(3, flow))
    assert oracles.stabilizer_and_fixset_closed(inst)


def test_structured_suite_checks_agreeability_once_per_catalog_instance(
        monkeypatch):
    """Each instance decides its agreeability when built, and the catalog
    is built once per process: two suite calls decide it once per catalog
    instance in all."""
    from elliskit import catalog, structured, suites

    calls = []

    def counted(inst):
        calls.append(inst.name)
        return is_agreeable(inst)

    monkeypatch.setattr(structured, "is_agreeable", counted)
    catalog._structured_catalog.cache_clear()
    for _ in range(2):
        assert suites.run_suite("structured", 0, 7).passed
    assert calls == [inst.name for inst, _ in catalog.structured_catalog()]


def test_verifiers_still_check_agreeability_themselves():
    """On an instance that is not agreeable the conditions may disagree:
    both verifiers return them as found and raise nothing."""
    flow = natural_flow(named_group("cyclic", n=4))
    lats = default_lattices(flow, discrete_lattice("G", 4), discrete_lattice("X", 4))
    lats["X"] = make_lattice("X", 4, [[0, 2]])
    lats["X2"] = product_lattice(lats["X"], lats["X"])
    inst = StructuredInstance(flow, make_relation(4, [[0, 2], [1, 3]], flow), lats)
    assert not inst.agreement
    orb, worb = verify_thm_orb(inst), verify_thm_worb(inst)
    assert orb == (False, False, True, True, False)
    assert worb.weakly_orbital and not worb.equivalent
    assert (worb.relation_closed, worb.closed_pair_exists) == (False, True)
