"""Families of distinguished subsets ("pseudo-closed" lattices) on the six
product spaces of a group action, the compatibility axioms tying them to the
action, and verifiers for the closedness-transfer equivalences for orbital
and weakly orbital relations.

A lattice here is any family of subsets closed under pairwise union and
intersection that contains the empty set and the ground set; it need not
come from a topology. Discrete lattices (all subsets) are kept intensional,
since product grounds grow to the fourth power of the point count; axiom
checks then run over union-generating families (singletons), which is
complete because sections, images, preimages, and products all distribute
over finite unions.

Inside this module a subset of a ground is an integer bitmask (bit i set
iff index i is in the subset), so unions, intersections, sections and
rectangles are big-int operations. `contains` takes a set of indices, and
`sets`, `members()` and `union_generators()` expand masks to frozensets
only when asked.

The weakly-orbital verifier tests witness supports on the relation's own
orbitals (the G-orbits on its pairs), numbered inside the relation by
relations._subgroup_witnesses, which also decides weak orbitality: testing
a support is an OR of small per-point label masks.

Each transfer theorem holds on agreeable instances under its own
hypothesis. A `StructuredInstance` decides its agreeability once, when
built, and keeps the report as `agreement`. `verify_thm_orb` needs an
orbital relation and raises NotOrbital otherwise; `verify_thm_worb`
decides weak orbitality itself and returns it as `weakly_orbital`. Either
raises TheoremViolation only when the instance is agreeable, its
hypothesis holds and its conditions disagree; otherwise it returns the
conditions as found.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple

from .algebra import _read_only, enumerate_subgroups
from .caps import DEFAULT_CAPS, Caps
from .errors import NotALattice, NotOrbital, SizeCapExceeded, TheoremViolation
from .flows import Flow
from .relations import (
    EquivRelation,
    _orbit_labels,
    _subgroup_witnesses,
    _witnessed,
    is_orbital,
    stabilizing_elements,
)

GROUNDS = ("G", "X", "GxX", "X2", "X2x2", "XxG")


def ground_size(ground: str, group_order: int, points: int) -> int:
    return {"G": group_order, "X": points, "GxX": group_order * points,
            "X2": points ** 2, "X2x2": points ** 4, "XxG": points * group_order}[ground]


def _mask(indices) -> int:
    """The bitmask of a set of non-negative indices, built in linear time."""
    indices = set(indices)
    digits = bytearray(b"0") * (max(indices, default=-1) + 1)
    for i in indices:
        digits[-1 - i] = 49  # ord("1")
    return int(digits or b"0", 2)


def _bits(m: int) -> list[int]:
    """The indices of the set bits of m, ascending."""
    return [i for i, d in enumerate(format(m, "b")[::-1]) if d == "1"]


def _index_set(m: int) -> frozenset[int]:
    return frozenset(_bits(m))


def _spread(a: int, stride: int) -> int:
    """Bit x of a moved to bit x * stride; times a mask b below 2**stride
    this is the rectangle a x b of a row-major product ground."""
    return int(("0" * (stride - 1)).join(format(a, "b")), 2)


def _sections(m: int, rows: int, cols: int, by_row: bool):
    """(index, section) for each non-empty section of a mask over the
    row-major ground rows x cols, by ascending index: the columns of row r
    as a mask over cols, or the rows of column c as a mask over rows."""
    if by_row:
        full = (1 << cols) - 1
        secs = [m >> r * cols & full for r in range(rows)]
    else:
        # read top row first, so each column slice is its mask's binary
        bits = format(m, f"0{rows * cols}b")
        secs = [int(bits[cols - 1 - c::cols], 2) for c in range(cols)]
    return [(i, sec) for i, sec in enumerate(secs) if sec]


def _pair_mask(E: EquivRelation) -> int:
    """E's pairs as a mask over the ground X2: bit a·n+b set iff a ~ b."""
    n = E.points
    return _mask(a * n + b for cls in E.classes for a in cls for b in cls)


def _member_order(masks, size: int) -> list[int]:
    """Masks sorted as their index sets by (len(s), sorted(s)). For equal
    popcounts A's indices sort first iff the lowest bit of A ^ B is in A,
    that is iff the complement of A read from bit 0 up is the smaller
    string."""
    full, spec = (1 << size) - 1, f"0{size}b"
    return sorted(masks, key=lambda m: (m.bit_count(), format(full ^ m, spec)[::-1]))


class _Lattice:
    """The index-set view shared by both lattice kinds, which are read-only."""

    __slots__ = ()
    __setattr__ = __delattr__ = _read_only

    def contains(self, s) -> bool:
        return self.contains_mask(_mask(s))

    def union_generators(self):
        """A family whose finite unions give every member (with the empty
        union giving the empty set)."""
        return [_index_set(m) for m in self.generator_masks()]


class PseudoClosedLattice(_Lattice):
    """Explicit set family, held as member masks in (len(s), sorted(s))
    order, or an intensional 'all subsets' lattice."""

    __slots__ = ("ground", "size", "masks", "discrete", "added", "_mask_set")

    def __init__(self, ground, size, masks=None, discrete=False, added=()):
        masks = None if discrete else tuple(masks)
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "discrete", discrete)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "added", tuple(added))
        object.__setattr__(self, "_mask_set", None if discrete else frozenset(masks))

    @property
    def sets(self):
        return None if self.discrete else tuple(map(_index_set, self.masks))

    def contains_mask(self, m: int) -> bool:
        return self.discrete or m in self._mask_set

    def members(self):
        if self.discrete:
            raise SizeCapExceeded(2 ** self.size, 0, "discrete lattice enumeration")
        return self.sets

    def generator_masks(self):
        """The join-irreducible members, in member order: those holding an
        index no earlier member holds (the least member holding it). The
        first member failing a check that distributes over unions is one
        of them, so checks over them report what checks over all would."""
        if self.discrete:
            return [1 << i for i in range(self.size)]
        gens, covered = [], 0
        for m in self.masks:
            if m & ~covered:
                gens.append(m)
                covered |= m
        return gens

    def member_count(self):
        return 2 ** self.size if self.discrete else len(self.masks)

    def __repr__(self):
        kind = "discrete" if self.discrete else f"{len(self.masks)} sets"
        return f"PseudoClosedLattice({self.ground}, size={self.size}, {kind})"


def discrete_lattice(ground: str, size: int) -> PseudoClosedLattice:
    return PseudoClosedLattice(ground, size, discrete=True)


class SectionProductLattice(_Lattice):
    """Rectangle closure of an explicit lattice with a discrete one, kept
    intensional: it is exactly the family of sets each of whose sections
    along the discrete factor belongs to the explicit factor (finite unions
    of rectangles with singleton discrete side; conversely, any such set is
    the union of its per-section rectangles)."""

    __slots__ = ("ground", "size", "left", "right", "left_discrete")
    discrete, sets, added = False, None, ()

    def __init__(self, ground, left, right, left_discrete):
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "size", left.size * right.size)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "left_discrete", left_discrete)

    def contains_mask(self, m: int) -> bool:
        factor = self.right if self.left_discrete else self.left
        return all(factor.contains_mask(sec) for _, sec in
                   _sections(m, self.left.size, self.right.size,
                             by_row=self.left_discrete))

    def generator_masks(self):
        cols = self.right.size
        if self.left_discrete:
            return [b << l * cols for l in range(self.left.size)
                    for b in self.right.generator_masks()]
        return [_spread(a, cols) << r for a in self.left.generator_masks()
                for r in range(cols)]

    def members(self):
        raise SizeCapExceeded(self.member_count(), 0,
                              "intensional lattice enumeration")

    def member_count(self):
        base = (self.right.member_count() if self.left_discrete
                else self.left.member_count())
        expo = self.left.size if self.left_discrete else self.right.size
        return base ** expo

    def __repr__(self):
        return f"SectionProductLattice({self.ground}, size={self.size})"


def _close_family(masks, cap):
    family = set(masks)
    order = list(family)
    given = len(order)
    for a in order:
        for b in list(family):
            for c in (a | b, a & b):
                if c not in family:
                    if len(family) >= cap:
                        raise SizeCapExceeded(len(family) + 1, cap, "lattice")
                    family.add(c)
                    order.append(c)
    return family, order[given:]


def make_lattice(ground: str, size: int, sets, auto_complete: bool = False,
                 caps: Caps = DEFAULT_CAPS) -> PseudoClosedLattice:
    family = {0, (1 << size) - 1}
    for s in map(frozenset, sets):
        if any(not 0 <= x < size for x in s):
            raise NotALattice(s, s, s)
        family.add(_mask(s))
    if auto_complete:
        closed, added = _close_family(family, caps.lattice_cap)
        return PseudoClosedLattice(ground, size, _member_order(closed, size),
                                   added=sorted(map(_index_set, added), key=sorted))
    fam = _member_order(family, size)
    for a in fam:
        for b in fam:
            for c in (a | b, a & b):
                if c not in family:
                    raise NotALattice(_index_set(a), _index_set(b), _index_set(c))
    return PseudoClosedLattice(ground, size, fam)


_PRODUCT_GROUND = {("G", "X"): "GxX", ("X", "X"): "X2",
                   ("X2", "X2"): "X2x2", ("X", "G"): "XxG"}


def product_lattice(A: PseudoClosedLattice, B: PseudoClosedLattice,
                    caps: Caps = DEFAULT_CAPS) -> PseudoClosedLattice:
    """Union/intersection closure of all rectangles; the convention used
    whenever a product lattice is not supplied explicitly."""
    ground = _PRODUCT_GROUND.get((A.ground, B.ground))
    if ground is None:
        raise NotALattice(frozenset(), frozenset(), frozenset())
    size = A.size * B.size
    if A.discrete and B.discrete:
        return discrete_lattice(ground, size)
    if A.discrete or B.discrete:
        return SectionProductLattice(ground, A, B, A.discrete)
    rects = {_spread(a, B.size) * b for a in A.generator_masks()
             for b in B.generator_masks()}
    closed, _ = _close_family(rects | {0, (1 << size) - 1}, caps.lattice_cap)
    return PseudoClosedLattice(ground, size, _member_order(closed, size))


class StructuredInstance:
    """A group flow, a relation on it and one lattice per ground in GROUNDS,
    each of its ground's size, checked on construction. Read-only: the
    lattice map is a read-only copy of the one given, so a later change to
    the caller's dict reaches neither it nor `agreement`, the instance's
    `AgreeabilityReport`, decided once here by `is_agreeable`."""

    __slots__ = ("flow", "relation", "lattices", "name", "agreement")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, flow: Flow, relation: EquivRelation, lattices: dict,
                 name: str = ""):
        if not flow.is_group_flow:
            raise NotOrbital("structured instances need group flows")
        gn, n = flow.group.order, flow.points
        for ground in GROUNDS:
            if ground not in lattices:
                raise NotALattice(frozenset(), frozenset(), frozenset({ground}))
            lat = lattices[ground]
            if lat.size != ground_size(ground, gn, n):
                raise NotALattice(frozenset({lat.size}), frozenset(),
                                  frozenset({ground}))
        object.__setattr__(self, "flow", flow)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "lattices", MappingProxyType(dict(lattices)))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "agreement", is_agreeable(self))


def default_lattices(flow: Flow, lat_g: PseudoClosedLattice,
                     lat_x: PseudoClosedLattice, caps: Caps = DEFAULT_CAPS,
                     given=None) -> dict:
    """Fill in the four product lattices from the base two by rectangles
    plus closure, except those `given` holds (a given X2 is X2x2's factor)."""
    lats = {"G": lat_g, "X": lat_x}
    for (left, right), ground in _PRODUCT_GROUND.items():
        lats[ground] = (given or {}).get(ground) or \
            product_lattice(lats[left], lats[right], caps=caps)
    return lats


# -- agreeability ------------------------------------------------------------

class AgreeabilityReport(NamedTuple):
    agreeable: bool
    failures: tuple[tuple[int, tuple], ...]  # (axiom number, witness)

    def __bool__(self):
        return self.agreeable

    def failing_axioms(self):
        return tuple(sorted({axiom for axiom, _ in self.failures}))


def _sections_ok(flow, lat, failures):
    """Axiom 1: sections of pseudo-closed sets are pseudo-closed. Within a
    set the lowest failing row is reported first, then the lowest failing
    column."""
    for (row_ground, col_ground), ground in _PRODUCT_GROUND.items():
        src, rows, cols = lat[ground], lat[row_ground].size, lat[col_ground].size
        if lat[row_ground].discrete and lat[col_ground].discrete:
            continue
        if src.discrete:
            # sections of singletons are singletons: every factor singleton
            # must be pseudo-closed
            for kind, count, target in (("col-singleton", cols, lat[col_ground]),
                                        ("row-singleton", rows, lat[row_ground])):
                bad = [i for i in range(count) if not target.contains_mask(1 << i)]
                if bad:
                    failures.append((1, (ground, kind, bad[0])))
                    return
            continue
        directions = [(by_row, kind, target) for by_row, kind, target in
                      ((True, "row", lat[col_ground]), (False, "col", lat[row_ground]))
                      if not target.discrete]
        for S in src.generator_masks():
            for by_row, kind, target in directions:
                for i, sec in _sections(S, rows, cols, by_row):
                    if not target.contains_mask(sec):
                        failures.append((1, (ground, kind, i, tuple(_bits(sec)))))
                        return


def _products_ok(flow, lat, failures):
    """Axiom 2: products of pseudo-closed sets are pseudo-closed."""
    for left, right in _PRODUCT_GROUND:
        target = lat[_PRODUCT_GROUND[(left, right)]]
        if target.discrete:
            continue
        right_gens = lat[right].generator_masks()
        for a in lat[left].generator_masks():
            spread = _spread(a, lat[right].size)
            for b in right_gens:
                if not target.contains_mask(spread * b):
                    failures.append((2, (left, right, tuple(_bits(a)),
                                         tuple(_bits(b)))))
                    return


def _action_continuous(flow, lat, failures):
    """Axiom 3: preimages of pseudo-closed sets under (g, x) -> g·x."""
    if lat["GxX"].discrete:
        return
    n = flow.points
    for S in lat["X"].generator_masks():
        pre = _mask(g * n + x for g, row in enumerate(flow.maps)
                    for x, y in enumerate(row) if S >> y & 1)
        if not lat["GxX"].contains_mask(pre):
            failures.append((3, (tuple(_bits(S)),)))
            return


def _graph_maps_continuous(flow, lat, failures):
    """Axiom 4: preimages under x -> (x, g·x) for each g."""
    if lat["X"].discrete:
        return
    n = flow.points
    pair_gens = lat["X2"].generator_masks()
    for g, row in enumerate(flow.maps):
        for S in pair_gens:
            pre = _mask(x for x, y in enumerate(row) if S >> x * n + y & 1)
            if not lat["X"].contains_mask(pre):
                failures.append((4, (g, tuple(_bits(S))[:6])))
                return


def simultaneous_translation_relation(flow: Flow) -> frozenset[int]:
    """Pairs of pairs related by one simultaneous translation, as indices
    into the fourth power of the point set."""
    n = flow.points
    return frozenset((x1 * n + x2) * n * n + row[x1] * n + row[x2]
                     for row in flow.maps for x1 in range(n) for x2 in range(n))


def _restricted_projection_closed(flow, lat, failures):
    """Axiom 5: the projection of the simultaneous-translation relation to
    its first pair coordinate maps relatively pseudo-closed sets to
    pseudo-closed sets."""
    if lat["X2"].discrete:
        return
    n2 = flow.points ** 2
    if lat["X2x2"].discrete:
        # singleton generators project to pair singletons, and every pair
        # occurs as a first coordinate (the identity translation)
        for p in range(n2):
            if not lat["X2"].contains_mask(1 << p):
                failures.append((5, ("pair-singleton", p)))
                return
        return
    eg = _mask(simultaneous_translation_relation(flow))
    for C in lat["X2x2"].generator_masks():
        # the first coordinates are the non-empty rows of C & eg
        image = _mask(p for p, _ in _sections(C & eg, n2, n2, True))
        if not lat["X2"].contains_mask(image):
            failures.append((5, (tuple(_bits(image))[:6],)))
            return


def _pairing_map_closed(flow, lat, failures):
    """Axiom 6: images of pseudo-closed sets under (x, g) -> (x, g·x)."""
    if lat["X2"].discrete:
        return
    n = flow.points
    gn = flow.group.order
    for S in lat["XxG"].generator_masks():
        image = _mask(x * n + flow.maps[g][x]
                      for x, g in (divmod(idx, gn) for idx in _bits(S)))
        if not lat["X2"].contains_mask(image):
            failures.append((6, (tuple(_bits(S))[:6],)))
            return


def is_agreeable(inst: StructuredInstance) -> AgreeabilityReport:
    """The six compatibility axioms on an instance's flow and lattices; each
    instance holds its own report as `inst.agreement`."""
    failures: list[tuple[int, tuple]] = []
    for axiom in (_sections_ok, _products_ok, _action_continuous,
                  _graph_maps_continuous, _restricted_projection_closed,
                  _pairing_map_closed):
        axiom(inst.flow, inst.lattices, failures)
    return AgreeabilityReport(not failures, tuple(failures))


# -- closedness-transfer verifiers --------------------------------------------

def _describe_lattice(lat) -> object:
    if lat.discrete:
        return "discrete"
    if lat.sets is None:
        return f"intensional({lat.ground})"
    return [sorted(s) for s in lat.sets]


def _serialize_instance(inst: StructuredInstance) -> dict:
    return {
        "name": inst.name,
        "points": inst.flow.points,
        "group_order": inst.flow.group.order,
        "classes": [list(c) for c in inst.relation.classes],
        "lattices": {
            g: _describe_lattice(lat) for g, lat in sorted(inst.lattices.items())
        },
    }


class ThmOrbReport(NamedTuple):
    relation_closed: bool
    classes_closed: bool
    kernel_closed: bool
    closed_subgroup_exists: bool
    equivalent: bool


def verify_thm_orb(inst: StructuredInstance,
                   caps: Caps = DEFAULT_CAPS) -> ThmOrbReport:
    """Evaluate the four closedness conditions for an orbital relation
    independently. Raises NotInvariant or NotOrbital when the relation is
    not orbital, the theorem's hypothesis; raises TheoremViolation only
    when the instance is agreeable and the conditions disagree. On an
    instance that is not agreeable the conditions are returned as found."""
    E = inst.relation.bind(inst.flow)
    verdict = is_orbital(E)
    if not verdict:
        raise NotOrbital(f"relation is not orbital: {verdict.counterexample}")
    lat = inst.lattices
    c1 = lat["X2"].contains_mask(_pair_mask(E))
    c2 = all(lat["X"].contains(frozenset(c)) for c in E.classes)
    c3 = lat["G"].contains(verdict.kernel.members)
    c4 = any(
        lat["G"].contains(H.members) and _orbit_labels(inst.flow, H) == E.class_of
        for H in enumerate_subgroups(inst.flow.group, caps=caps)
    )
    equivalent = c1 == c2 == c3 == c4
    if not equivalent and inst.agreement:
        raise TheoremViolation("orbital closedness-transfer equivalence",
                               _serialize_instance(inst))
    return ThmOrbReport(c1, c2, c3, c4, equivalent)


class ThmWorbReport(NamedTuple):
    weakly_orbital: bool                 # the hypothesis: some pair witnesses E
    relation_closed: bool
    classes_closed: bool                 # the witness-free weakening
    classes_closed_with_witness: bool    # full condition: + closed support
    closed_pair_exists: bool
    maximal_witnesses_closed: bool
    equivalent: bool                     # of the four full conditions


def _witnessing_supports(lat_x, fix: int, fix_witnesses: bool, R):
    """Masks of the supports witnessing the relation E with the subgroup H
    of R: none unless the fix-set `fix` does (a witnessing S lies in the
    fix-set, and then E = r(H, S) ⊆ r(H, fix) ⊆ E); else the fix-set, the
    canonical maximal support, then the other X lattice members whose seeds
    meet the orbitals the fix-set's do, in member order."""
    if not fix_witnesses:
        return
    yield fix
    if not lat_x.discrete:
        full = _witnessed(R, _bits(fix))
        for member in lat_x.masks:
            if member != fix and _witnessed(R, _bits(member)) == full:
                yield member


def verify_thm_worb(inst: StructuredInstance,
                    caps: Caps = DEFAULT_CAPS) -> ThmWorbReport:
    """Evaluate the weakly-orbital closedness-transfer conditions. The
    witness-free weakening of the second condition is reported separately:
    the equivalence is asserted only for the full conditions. Raises
    NotInvariant when the relation is not invariant; raises
    TheoremViolation only when the instance is agreeable, the relation is
    weakly orbital (`weakly_orbital`, the theorem's hypothesis) and the
    conditions disagree. A relation that is not weakly orbital has no
    witness, so the second and third conditions fail while the fourth
    holds vacuously, and `equivalent` reads False."""
    E = inst.relation.bind(inst.flow)
    witnessed = list(_subgroup_witnesses(E, caps))
    weak = any(w[3] for w in witnessed)
    lat = inst.lattices
    w1 = lat["X2"].contains_mask(_pair_mask(E))
    classes_closed = all(lat["X"].contains(frozenset(c)) for c in E.classes)

    w2_witness = w3 = False
    for H, fix, R, fix_witnesses in witnessed:
        if any(lat["X"].contains_mask(sup) for sup in _witnessing_supports(
                lat["X"], _mask(fix), fix_witnesses, R)):
            w2_witness = True
            if lat["G"].contains(H.members):
                w3 = True
                break
    w2 = classes_closed and w2_witness

    w4 = True
    for H, fix, _, fix_witnesses in witnessed:
        # fix is the maximal support partnered with H, and H is a maximal
        # subgroup witness when it is all of fix's stabilizing elements
        if fix_witnesses and (not lat["X"].contains(fix) or (
                stabilizing_elements(E, fix) == H.members
                and not lat["G"].contains(H.members))):
            w4 = False
            break

    equivalent = w1 == w2 == w3 == w4
    if not equivalent and weak and inst.agreement:
        raise TheoremViolation("weakly-orbital closedness-transfer equivalence",
                               _serialize_instance(inst))
    return ThmWorbReport(weak, w1, classes_closed, w2_witness, w3, w4, equivalent)
