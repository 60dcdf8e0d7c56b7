"""Finite dynamical systems: group flows, transformation-generated flows,
ambits, morphisms, products, unions, towers, and the independent-translates
search.

Every flow holds its action as one image table, `maps`: one image tuple per
group element for a group flow, one per generator for a transformation flow.
Acting is a lookup, and the constructors hand over tables they already have
(the regular flow shares the group's multiplication table, the natural flow
its permutations). A group flow's table has |G|·points entries, bounded by
`group_order_cap` × `points_cap` like any explicit or coset action. Product
and union tables share one int object per point, so an entry costs only a
pointer. Transformation flows carry explicitly supplied maps, which need not
be invertible: they stand in for limit elements that finite group actions
cannot produce.

A tower's idempotent chain is not re-checked link by link: it starts at a
minimal-ideal idempotent, and an epimorphism, checked onto and
multiplicative by `ellis.induced_epimorphism`, maps each minimal ideal
onto a minimal ideal and an idempotent to an idempotent (`ellis` module
docstring), so every pushed element is again a minimal-ideal idempotent.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from .algebra import (
    FiniteGroup,
    Subgroup,
    _integer,
    _read_only,
    _require_generating,
    _walk,
    direct_product,
    left_cosets,
)
from .caps import DEFAULT_CAPS, Caps
from .errors import (
    GroupMismatch,
    IncompatibleTower,
    InvalidArgument,
    InvalidArgumentType,
    NotAnAction,
    NotBijective,
    OrbitNotDense,
    ParseError,
    SizeCapExceeded,
)


class TransformationGenerators:
    """Self-maps of 0..degree-1 as image tuples, at least one, checked on
    construction. Read-only."""

    __slots__ = ("degree", "generators")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, degree: int, generators: tuple[tuple[int, ...], ...]):
        if not generators:
            raise ParseError("<flow>", "a transformation flow needs at least one map")
        for i, g in enumerate(generators):
            if len(g) != degree or any(not 0 <= x < degree for x in g):
                raise ParseError("<flow>", f"map {i} is not a self-map of "
                                           f"0..{degree - 1}")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "generators", generators)

    def __repr__(self):
        return (f"TransformationGenerators(degree={self.degree!r}, "
                f"generators={self.generators!r})")


class Flow:
    """A finite action, either of a group (by all its elements) or of a set
    of arbitrary transformation generators, held as one image table:
    `maps[g]` is the image tuple of group element g, or of the g-th
    generator of a transformation flow. Read-only."""

    __slots__ = ("points", "group", "maps", "name")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, points, group, maps, name=None):
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "name", name)

    @property
    def is_group_flow(self) -> bool:
        return self.group is not None

    def act(self, g: int, x: int) -> int:
        """Image of x under acting map g (a group element for group flows,
        a generator index for transformation flows)."""
        return self.maps[g][x]

    # perfbench/tracer.py counts calls to this name
    gen_act = act

    def generator_elements(self) -> tuple[int, ...]:
        """Indices of the acting maps that generate the whole action."""
        if self.group is not None:
            return self.group.gens or (self.group.identity,)
        return tuple(range(len(self.maps)))

    def map_of(self, g: int) -> tuple[int, ...]:
        """Full image tuple of acting map g."""
        return self.maps[g]

    def generator_maps(self) -> list[tuple[int, ...]]:
        return [self.maps[g] for g in self.generator_elements()]

    def __repr__(self):
        kind = "group" if self.is_group_flow else "transformation"
        tag = f" {self.name}" if self.name else ""
        return f"Flow({kind}, points={self.points}{tag})"


class Ambit(NamedTuple):
    flow: Flow
    basepoint: int

    @property
    def points(self) -> int:
        return self.flow.points


def _validate_group_action(group, points, elem_maps):
    ident = tuple(range(points))
    if elem_maps[group.identity] != ident:
        x = next(i for i, v in enumerate(elem_maps[group.identity]) if v != i)
        raise NotAnAction(group.identity, group.identity, x)
    for g in group.elements():
        m = elem_maps[g]
        if sorted(m) != list(range(points)):
            raise NotBijective(g, m)
    for g in group.gens:
        mg = elem_maps[g]
        for h in group.elements():
            mh = elem_maps[h]
            mgh = elem_maps[group.mul[g][h]]
            for x in range(points):
                if mg[mh[x]] != mgh[x]:
                    raise NotAnAction(g, h, x)


def _require_points(points: int, caps: Caps):
    if points > caps.points_cap:
        raise SizeCapExceeded(points, caps.points_cap, "flow point set")


def make_flow(acting, points: int, action=None, caps: Caps = DEFAULT_CAPS,
              name=None) -> Flow:
    """Explicit flow construction with complete validation.

    For a group, `action` lists one map per element. The group's `gens`
    must generate it, and the action axioms are verified over the
    generators: g·(h·x) = (gh)·x for every generator g, every element h and
    every point x, which gives them for every pair (`algebra` module
    docstring). For TransformationGenerators the maps are arbitrary
    self-maps.
    """
    _require_points(points, caps)
    if isinstance(acting, FiniteGroup):
        if action is None or len(action) != acting.order:
            raise InvalidArgument("need one action map per group element")
        _require_generating(acting)
        elem_maps = tuple(tuple(_integer(v, "action entry") for v in m) for m in action)
        for g, m in enumerate(elem_maps):
            if len(m) != points or any(not 0 <= v < points for v in m):
                raise NotAnAction(g, g, -1)
        _validate_group_action(acting, points, elem_maps)
        return Flow(points, acting, elem_maps, name)
    if isinstance(acting, TransformationGenerators):
        if acting.degree != points:
            raise InvalidArgument("degree disagrees with point count")
        return Flow(points, None, acting.generators, name)
    raise InvalidArgumentType(f"cannot act by {type(acting).__name__}")


def transformation_flow(maps, caps: Caps = DEFAULT_CAPS, name=None) -> Flow:
    degree = len(maps[0]) if maps else 0
    gens = TransformationGenerators(
        degree, tuple(tuple(map(operator.index, m)) for m in maps))
    return make_flow(gens, degree, caps=caps, name=name)


def regular_flow(G: FiniteGroup, name=None, caps: Caps = DEFAULT_CAPS) -> Flow:
    """G acting on itself by left translation; the action table is the
    multiplication table, so the axioms hold by construction."""
    _require_points(G.order, caps)
    return Flow(G.order, G, G.mul,
                name or (f"regular({G.name})" if G.name else "regular"))


def natural_flow(G: FiniteGroup, name=None, caps: Caps = DEFAULT_CAPS) -> Flow:
    """A permutation-realized group acting on 0..degree-1 by its permutations."""
    if G.perms is None:
        raise InvalidArgument("group carries no permutation realization")
    _require_points(len(G.perms[0]), caps)
    return Flow(len(G.perms[0]), G, G.perms,
                name or (f"natural({G.name})" if G.name else "natural"))


def coset_flow(G: FiniteGroup, H: Subgroup, name=None,
               caps: Caps = DEFAULT_CAPS) -> Flow:
    """G acting on the left cosets of H; cosets ordered by least member."""
    _require_points(G.order // H.order, caps)
    cosets = left_cosets(G, H)
    coset_of = {m: idx for idx, members in enumerate(cosets) for m in members}
    elem_maps = tuple(tuple(coset_of[G.mul[g][c[0]]] for c in cosets)
                      for g in G.elements())
    return Flow(len(cosets), G, elem_maps, name or "coset")


def transporters(flow: Flow, basepoint: int) -> list[int | None]:
    """For each point x some group element g with g·basepoint = x, found by
    a breadth-first walk over the generators; None where the walk does not
    reach."""
    G = flow.group
    gens = flow.generator_elements()
    out = [None] * flow.points
    out[basepoint] = G.identity
    order = [basepoint]
    for x in order:
        for g in gens:
            y = flow.maps[g][x]
            if out[y] is None:
                out[y] = G.mul[g][out[x]]
                order.append(y)
    return out


def orbit_of(flow: Flow, start: int) -> set[int]:
    """Forward orbit of a point under the generated transformation monoid."""
    return _walk(flow.generator_maps(), (start,))


def orbits(flow: Flow) -> list[tuple[int, ...]]:
    maps = flow.generator_maps()
    seen = set()
    out = []
    for x in range(flow.points):
        if x not in seen:
            orb = _walk(maps, (x,))
            seen |= orb
            out.append(tuple(sorted(orb)))
    return out


def make_ambit(flow: Flow, basepoint: int) -> Ambit:
    try:
        basepoint = operator.index(basepoint)
    except TypeError:
        raise ParseError("<ambit>",
                         f"basepoint {basepoint!r} is not an integer") from None
    if not 0 <= basepoint < flow.points:
        raise ParseError("<ambit>", f"basepoint {basepoint} is not one of "
                                    f"0..{flow.points - 1}")
    reached = orbit_of(flow, basepoint)
    if len(reached) != flow.points:
        raise OrbitNotDense(set(range(flow.points)) - reached)
    return Ambit(flow, basepoint)


def product_flow(flows: list[Flow], caps: Caps = DEFAULT_CAPS) -> Flow:
    """Product group acting coordinatewise; points indexed row-major."""
    if not flows:
        raise InvalidArgument("need at least one flow")
    if any(not f.is_group_flow for f in flows):
        raise GroupMismatch("products are defined for group flows")
    points = 1
    for f in flows:
        points *= f.points
    if points > caps.points_cap:
        raise SizeCapExceeded(points, caps.points_cap, "product point set")
    group = flows[0].group
    for f in flows[1:]:
        group = direct_product(group, f.group, caps=caps)

    # row-major in both the group element and the point, one factor at a time
    pts = list(range(points))
    maps = flows[0].maps
    for f in flows[1:]:
        n = f.points
        maps = tuple(tuple([pts[y * n + z] for y in a for z in b])
                     for a in maps for b in f.maps)
    return Flow(points, group, maps, "x".join(f.name or "?" for f in flows))


def disjoint_union_flow(flows: list[Flow], caps: Caps = DEFAULT_CAPS) -> Flow:
    """Tagged union of flows sharing one acting group (or one generator
    signature, for transformation flows); block b is offset by the sum of
    the preceding block sizes."""
    if not flows:
        raise InvalidArgument("need at least one flow")
    first = flows[0]
    points = sum(f.points for f in flows)
    if points > caps.points_cap:
        raise SizeCapExceeded(points, caps.points_cap, "union point set")
    offsets = []
    acc = 0
    for f in flows:
        offsets.append(acc)
        acc += f.points
    if first.is_group_flow:
        G = first.group
        for f in flows[1:]:
            if not f.is_group_flow or (f.group is not G and f.group.mul != G.mul):
                raise GroupMismatch("union requires one shared acting group")
    else:
        for f in flows[1:]:
            if f.is_group_flow or len(f.maps) != len(first.maps):
                raise GroupMismatch("union requires matching generator counts")
    pts = list(range(points))
    maps = tuple(tuple([pts[off + v] for off, m in zip(offsets, row) for v in m])
                 for row in zip(*(f.maps for f in flows)))
    return Flow(points, first.group, maps, "disjoint_union")


# -- morphisms ----------------------------------------------------------------

class FlowMorphism(NamedTuple):
    """A basepoint-preserving equivariant surjection of ambits.

    `generator_correspondence` pairs the source flow generators with the
    target maps they must intertwine: for group flows, target group element
    per source generator element (None means the flows share one acting
    group and each generator is paired with itself); for transformation
    flows, a target generator index per source generator.
    """
    source: Ambit
    target: Ambit
    point_map: tuple[int, ...]
    generator_correspondence: tuple[int, ...] | None = None


class MorphismReport(NamedTuple):
    valid: bool
    surjective: bool
    equivariant: bool
    basepoint_preserved: bool
    witness: tuple | None

    def __bool__(self):
        return self.valid


def check_morphism(m: FlowMorphism) -> MorphismReport:
    """Shape, surjectivity, basepoint and equivariance of the point map.
    Equivariance is checked on the source generators, which gives it for
    every acting element (`algebra` module docstring)."""
    src, tgt = m.source.flow, m.target.flow
    pm = m.point_map
    if len(pm) != src.points or any(not 0 <= v < tgt.points for v in pm):
        return MorphismReport(False, False, False, False, ("shape", len(pm)))
    surjective = len(set(pm)) == tgt.points
    witness = None
    if not surjective:
        missing = min(set(range(tgt.points)) - set(pm))
        witness = ("unreached", missing)
    basepoint_ok = pm[m.source.basepoint] == m.target.basepoint
    if not basepoint_ok and witness is None:
        witness = ("basepoint", pm[m.source.basepoint])
    gens = src.generator_elements()
    corr = m.generator_correspondence
    if corr is None:
        if not (src.is_group_flow and tgt.is_group_flow):
            return MorphismReport(False, surjective, False, basepoint_ok,
                                  ("correspondence required",))
        if src.group is not tgt.group and src.group.mul != tgt.group.mul:
            return MorphismReport(False, surjective, False, basepoint_ok,
                                  ("acting groups differ",))
        corr = gens
    elif len(corr) != len(gens):
        return MorphismReport(False, surjective, False, basepoint_ok,
                              ("correspondence length",))
    equivariant = True
    for a, b in zip(gens, corr):
        ma, mb = src.maps[a], tgt.maps[b]
        x = next((x for x in range(src.points) if pm[ma[x]] != mb[pm[x]]), None)
        if x is not None:
            equivariant = False
            if witness is None:
                witness = ("equivariance", a, x)
            break
    valid = surjective and basepoint_ok and equivariant
    return MorphismReport(valid, surjective, equivariant, basepoint_ok, witness)


# -- towers ---------------------------------------------------------------------

class TowerLevel(NamedTuple):
    ideal_count: int
    idempotent_counts: tuple[int, ...]
    ideal_group_order: int
    idempotents: frozenset[int]     # of every minimal ideal of the level


class TowerReport(NamedTuple):
    levels: tuple[TowerLevel, ...]
    correspondences: tuple[dict, ...]
    coherent_idempotent_chain: tuple[int, ...]


def check_tower(levels: list[Ambit], connecting: list[FlowMorphism],
                caps: Caps = DEFAULT_CAPS) -> TowerReport:
    """Levels joined by morphisms level[i+1] -> level[i]; verifies that each
    induced semigroup map is an epimorphism, so it sends minimal ideals
    onto minimal ideals and idempotents to idempotents, and threads one
    idempotent chain through the whole tower (module docstring)."""
    from . import ellis

    if len(connecting) != len(levels) - 1:
        raise IncompatibleTower(len(connecting), "need one morphism per adjacent pair")
    for i, mor in enumerate(connecting):
        if mor.source is not levels[i + 1] or mor.target is not levels[i]:
            raise IncompatibleTower(i, "morphism endpoints do not match levels")
        rep = check_morphism(mor)
        if not rep:
            raise IncompatibleTower(i, f"invalid morphism: {rep.witness}")

    closures = (ellis.enveloping_semigroup(a.flow, caps=caps) for a in levels)
    ideal_lists = [ellis.minimal_left_ideals(S) for S in closures]
    level_reports = []
    for ideals in ideal_lists:
        gview = ellis.ideal_group(ideals[0], ideals[0].idempotents[0]).group_view
        level_reports.append(TowerLevel(
            ideal_count=len(ideals),
            idempotent_counts=tuple(len(m.idempotents) for m in ideals),
            ideal_group_order=gview.order,
            idempotents=frozenset(u for m in ideals for u in m.idempotents),
        ))

    correspondences = []
    # chain an idempotent from the deepest level down to level 0
    chain = [ideal_lists[-1][0].idempotents[0]]
    for i in range(len(connecting) - 1, -1, -1):
        mor = connecting[i]
        epi = ellis.induced_epimorphism(mor, ideal_lists[i + 1], ideal_lists[i])
        correspondences.append({
            "level": i,
            "ideal_images": epi.ideal_images,
            "idempotent_images": epi.idempotent_images,
        })
        chain.append(epi.element_map[chain[-1]])
    correspondences.reverse()
    return TowerReport(tuple(level_reports), tuple(correspondences),
                       tuple(reversed(chain)))


# -- independent translates --------------------------------------------------------

class IndependenceResult(NamedTuple):
    found: bool
    witness: tuple[int, ...] | None
    exhausted_reason: str | None
    candidates_tried: int


def _cells_inhabited(points: int, sets: list[frozenset[int]]) -> bool:
    """Every one of the 2^k Boolean cells of k subsets of 0..points-1 is
    inhabited; stops at the first point that completes the count."""
    full = 2 ** len(sets)
    patterns = set()
    for x in range(points):
        patterns.add(sum(1 << i for i, t in enumerate(sets) if x in t))
        if len(patterns) == full:
            return True
    return False


def family_is_independent(flow: Flow, base: frozenset[int],
                          elements: tuple[int, ...]) -> bool:
    """Every one of the 2^k Boolean cells of the translates is inhabited."""
    return _cells_inhabited(
        flow.points, [frozenset(flow.maps[g][x] for x in base) for g in elements])


def independent_translates(flow: Flow, base, k: int,
                           caps: Caps = DEFAULT_CAPS) -> IndependenceResult:
    """First (in lexicographic element order) k-tuple of group elements whose
    translates of `base` form an independent family, or a certificate that
    the exhaustive search failed.

    Search space: strictly increasing element tuples; independence is
    insensitive to order and repeats never work, so this is exhaustive.
    Prefix pruning is sound because subfamilies of independent families are
    independent. If 2^k exceeds the point count the cells cannot all be
    inhabited (they are disjoint), so exhaustion is certified immediately.
    """
    if not flow.is_group_flow:
        raise GroupMismatch("independent translates need a group flow")
    base = frozenset(base)
    if not base or len(base) >= flow.points:
        raise InvalidArgument("base set must be a nonempty proper subset")
    if k < 1:
        raise InvalidArgument(f"translate family size must be at least 1, got {k}")
    if k > caps.independence_k_cap:
        raise SizeCapExceeded(k, caps.independence_k_cap, "translate family")
    n = flow.points
    if 2 ** k > n:
        return IndependenceResult(False, None, "pigeonhole", 0)

    G = flow.group
    translate = [frozenset(m[x] for x in base) for m in flow.maps]
    tried = 0

    def dfs(chosen, start):
        nonlocal tried
        if len(chosen) == k:
            return tuple(chosen)
        for g in range(start, G.order):
            chosen.append(g)
            tried += 1
            if _cells_inhabited(n, [translate[g] for g in chosen]):
                got = dfs(chosen, g + 1)
                if got is not None:
                    return got
            chosen.pop()
        return None

    witness = dfs([], 0)
    if witness is None:
        return IndependenceResult(False, None, "exhausted", tried)
    return IndependenceResult(True, witness, None, tried)
