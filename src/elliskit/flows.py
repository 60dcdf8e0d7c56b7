"""Finite dynamical systems: group flows, transformation-generated flows,
ambits, morphisms, products, unions, towers, and the independent-translates
search.

A group flow stores one map per acting element only when small; large flows
(regular actions on big groups) evaluate the action lazily. Transformation
flows carry explicitly supplied maps, which need not be invertible: they
stand in for limit elements that finite group actions cannot produce.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FiniteGroup, Subgroup, direct_product
from .caps import DEFAULT_CAPS, Caps
from .errors import (
    GroupMismatch,
    IncompatibleTower,
    NotAnAction,
    NotBijective,
    OrbitNotDense,
    ParseError,
    SizeCapExceeded,
)


@dataclass(frozen=True)
class TransformationGenerators:
    degree: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.generators:
            raise ParseError("<flow>", "a transformation flow needs at least one map")
        for i, g in enumerate(self.generators):
            if len(g) != self.degree or any(not 0 <= x < self.degree for x in g):
                raise ParseError("<flow>", f"map {i} is not a self-map of "
                                           f"0..{self.degree - 1}")


class Flow:
    """A finite action, either of a group (by all its elements) or of a set
    of arbitrary transformation generators."""

    __slots__ = ("points", "group", "transformations", "_act", "_elem_maps", "name")

    def __init__(self, points, group, transformations, act, elem_maps=None, name=None):
        self.points = points
        self.group = group
        self.transformations = transformations
        self._act = act
        self._elem_maps = elem_maps
        self.name = name

    @property
    def is_group_flow(self) -> bool:
        return self.group is not None

    def act(self, g: int, x: int) -> int:
        """Apply group element g (group flows only)."""
        return self._act(g, x)

    def generator_elements(self) -> tuple[int, ...]:
        """Indices of the acting maps that generate the whole action."""
        if self.group is not None:
            return self.group.gens or (self.group.identity,)
        return tuple(range(len(self.transformations.generators)))

    def gen_act(self, i: int, x: int) -> int:
        """Apply the i-th generator (generator index for transformation
        flows, group element index for group flows)."""
        if self.group is not None:
            return self._act(i, x)
        return self.transformations.generators[i][x]

    def map_of(self, g: int) -> tuple[int, ...]:
        """Full image tuple of group element g."""
        if self._elem_maps is not None:
            return self._elem_maps[g]
        return tuple(self._act(g, x) for x in range(self.points))

    def generator_maps(self) -> list[tuple[int, ...]]:
        if self.group is not None:
            return [self.map_of(g) for g in self.generator_elements()]
        return list(self.transformations.generators)

    def __repr__(self):
        kind = "group" if self.is_group_flow else "transformation"
        tag = f" {self.name}" if self.name else ""
        return f"Flow({kind}, points={self.points}{tag})"


@dataclass(frozen=True)
class Ambit:
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
    for g in group.elements():
        mg = elem_maps[g]
        for h in group.elements():
            mh = elem_maps[h]
            mgh = elem_maps[group.mul[g][h]]
            for x in range(points):
                if mg[mh[x]] != mgh[x]:
                    raise NotAnAction(g, h, x)


def make_flow(acting, points: int, action=None, caps: Caps = DEFAULT_CAPS,
              name=None) -> Flow:
    """Explicit flow construction with exhaustive validation.

    For a group, `action` lists one map per element and the action axioms
    are verified on all pairs. For TransformationGenerators the maps are
    arbitrary self-maps.
    """
    if points > caps.points_cap:
        raise SizeCapExceeded(points, caps.points_cap, "flow point set")
    if isinstance(acting, FiniteGroup):
        if action is None or len(action) != acting.order:
            raise ValueError("need one action map per group element")
        elem_maps = tuple(tuple(int(v) for v in m) for m in action)
        for g, m in enumerate(elem_maps):
            if len(m) != points or any(not 0 <= v < points for v in m):
                raise NotAnAction(g, g, -1)
        _validate_group_action(acting, points, elem_maps)
        return Flow(points, acting, None,
                    act=lambda g, x: elem_maps[g][x],
                    elem_maps=elem_maps, name=name)
    if isinstance(acting, TransformationGenerators):
        if acting.degree != points:
            raise ValueError("degree disagrees with point count")
        return Flow(points, None, acting, act=None, name=name)
    raise TypeError(f"cannot act by {type(acting).__name__}")


def transformation_flow(maps, caps: Caps = DEFAULT_CAPS, name=None) -> Flow:
    degree = len(maps[0]) if maps else 0
    gens = TransformationGenerators(degree, tuple(tuple(m) for m in maps))
    return make_flow(gens, degree, caps=caps, name=name)


def regular_flow(G: FiniteGroup, name=None) -> Flow:
    """G acting on itself by left translation; the action table is the
    multiplication table, so the axioms hold by construction."""
    return Flow(G.order, G, None, act=lambda g, x: G.mul[g][x],
                name=name or (f"regular({G.name})" if G.name else "regular"))


def natural_flow(G: FiniteGroup, name=None) -> Flow:
    """A permutation-realized group acting on 0..degree-1 by its permutations."""
    if G.perms is None:
        raise ValueError("group carries no permutation realization")
    degree = len(G.perms[0])
    perms = G.perms
    return Flow(degree, G, None, act=lambda g, x: perms[g][x],
                elem_maps=perms,
                name=name or (f"natural({G.name})" if G.name else "natural"))


def coset_flow(G: FiniteGroup, H: Subgroup, name=None) -> Flow:
    """G acting on the left cosets of H; cosets ordered by least member."""
    coset_of = [None] * G.order
    reps = []
    for g in G.elements():
        if coset_of[g] is None:
            members = sorted(G.mul[g][h] for h in H.members)
            idx = len(reps)
            reps.append(members[0])
            for m in members:
                coset_of[m] = idx
    points = len(reps)
    elem_maps = tuple(
        tuple(coset_of[G.mul[g][reps[c]]] for c in range(points))
        for g in G.elements()
    )
    return Flow(points, G, None, act=lambda g, x: elem_maps[g][x],
                elem_maps=elem_maps, name=name or "coset")


def orbit_of(flow: Flow, start: int) -> set[int]:
    """Forward orbit of a point under the generated transformation monoid."""
    gens = flow.generator_maps()
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for x in frontier:
            for m in gens:
                y = m[x]
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def orbits(flow: Flow) -> list[tuple[int, ...]]:
    seen = set()
    out = []
    for x in range(flow.points):
        if x in seen:
            continue
        orb = orbit_of(flow, x)
        seen |= orb
        out.append(tuple(sorted(orb)))
    return out


def make_ambit(flow: Flow, basepoint: int) -> Ambit:
    if not 0 <= basepoint < flow.points:
        raise ValueError("basepoint out of range")
    reached = orbit_of(flow, basepoint)
    if len(reached) != flow.points:
        raise OrbitNotDense(set(range(flow.points)) - reached)
    return Ambit(flow, basepoint)


def product_flow(flows: list[Flow], caps: Caps = DEFAULT_CAPS) -> Flow:
    """Product group acting coordinatewise; points indexed row-major."""
    if not flows:
        raise ValueError("need at least one flow")
    if any(not f.is_group_flow for f in flows):
        raise GroupMismatch("products are defined for group flows")
    points = 1
    for f in flows:
        points *= f.points
    if points > caps.product_points_cap:
        raise SizeCapExceeded(points, caps.product_points_cap, "product point set")
    group = flows[0].group
    for f in flows[1:]:
        group = direct_product(group, f.group, caps=caps)

    sizes = [f.points for f in flows]
    gsizes = [f.group.order for f in flows]

    def act(g, x):
        gs, xs = [], []
        for size in reversed(gsizes):
            g, r = divmod(g, size)
            gs.append(r)
        for size in reversed(sizes):
            x, r = divmod(x, size)
            xs.append(r)
        gs.reverse()
        xs.reverse()
        y = 0
        for f, gi, xi, size in zip(flows, gs, xs, sizes):
            y = y * size + f.act(gi, xi)
        return y

    return Flow(points, group, None, act=act,
                name="x".join(f.name or "?" for f in flows))


def disjoint_union_flow(flows: list[Flow], caps: Caps = DEFAULT_CAPS) -> Flow:
    """Tagged union of flows sharing one acting group (or one generator
    signature, for transformation flows); block b is offset by the sum of
    the preceding block sizes."""
    if not flows:
        raise ValueError("need at least one flow")
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

        def act(g, x):
            for off, f in zip(reversed(offsets), reversed(flows)):
                if x >= off:
                    return off + f.act(g, x - off)
            raise IndexError(x)

        return Flow(points, G, None, act=act, name="disjoint_union")
    k = len(first.transformations.generators)
    for f in flows[1:]:
        if f.is_group_flow or len(f.transformations.generators) != k:
            raise GroupMismatch("union requires matching generator counts")
    maps = []
    for i in range(k):
        m = []
        for off, f in zip(offsets, flows):
            m.extend(off + v for v in f.transformations.generators[i])
        maps.append(tuple(m))
    return transformation_flow(maps, caps=caps, name="disjoint_union")


# -- morphisms ----------------------------------------------------------------

@dataclass(frozen=True)
class FlowMorphism:
    """A basepoint-preserving equivariant surjection of ambits.

    `generator_correspondence` pairs the source flow generators with the
    target maps they must intertwine: for group flows, target group element
    per source generator element (None means the flows share one acting
    group and equivariance is checked over every element); for
    transformation flows, a target generator index per source generator.
    """
    source: Ambit
    target: Ambit
    point_map: tuple[int, ...]
    generator_correspondence: tuple[int, ...] | None = None


@dataclass(frozen=True)
class MorphismReport:
    valid: bool
    surjective: bool
    equivariant: bool
    basepoint_preserved: bool
    witness: tuple | None

    def __bool__(self):
        return self.valid


def check_morphism(m: FlowMorphism) -> MorphismReport:
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
    equivariant = True
    if m.generator_correspondence is None:
        if not (src.is_group_flow and tgt.is_group_flow):
            return MorphismReport(False, surjective, False, basepoint_ok,
                                  ("correspondence required",))
        if src.group is not tgt.group and src.group.mul != tgt.group.mul:
            return MorphismReport(False, surjective, False, basepoint_ok,
                                  ("acting groups differ",))
        for g in src.group.elements():
            for x in range(src.points):
                if pm[src.act(g, x)] != tgt.act(g, pm[x]):
                    equivariant = False
                    if witness is None:
                        witness = ("equivariance", g, x)
                    break
            if not equivariant:
                break
    else:
        corr = m.generator_correspondence
        gens = src.generator_elements()
        if len(corr) != len(gens):
            return MorphismReport(False, surjective, False, basepoint_ok,
                                  ("correspondence length",))
        for i, gsrc in enumerate(gens):
            for x in range(src.points):
                lhs = pm[src.gen_act(gsrc, x)]
                rhs = tgt.gen_act(corr[i], pm[x])
                if lhs != rhs:
                    equivariant = False
                    if witness is None:
                        witness = ("equivariance", gsrc, x)
                    break
            if not equivariant:
                break
    valid = surjective and basepoint_ok and equivariant
    return MorphismReport(valid, surjective, equivariant, basepoint_ok, witness)


# -- towers ---------------------------------------------------------------------

@dataclass(frozen=True)
class TowerLevel:
    ideal_count: int
    idempotent_counts: tuple[int, ...]
    ideal_group_order: int


@dataclass(frozen=True)
class TowerReport:
    levels: tuple[TowerLevel, ...]
    correspondences: tuple[dict, ...]
    coherent_idempotent_chain: tuple[int, ...]


def check_tower(levels: list[Ambit], connecting: list[FlowMorphism],
                caps: Caps = DEFAULT_CAPS) -> TowerReport:
    """Levels joined by morphisms level[i+1] -> level[i]; verifies that each
    induced semigroup epimorphism sends minimal ideals onto minimal ideals
    and idempotents to idempotents, and that one idempotent chain threads
    the whole tower."""
    from . import ellis

    if len(connecting) != len(levels) - 1:
        raise IncompatibleTower(len(connecting), "need one morphism per adjacent pair")
    for i, mor in enumerate(connecting):
        if mor.source is not levels[i + 1] or mor.target is not levels[i]:
            raise IncompatibleTower(i, "morphism endpoints do not match levels")
        rep = check_morphism(mor)
        if not rep:
            raise IncompatibleTower(i, f"invalid morphism: {rep.witness}")

    semis = [ellis.enveloping_semigroup(a.flow, caps=caps) for a in levels]
    level_reports = []
    ideal_lists = []
    for S in semis:
        ideals = ellis.minimal_left_ideals(S)
        ideal_lists.append(ideals)
        gview = ellis.ideal_group(ideals[0], ideals[0].idempotents[0]).group_view
        level_reports.append(TowerLevel(
            ideal_count=len(ideals),
            idempotent_counts=tuple(len(m.idempotents) for m in ideals),
            ideal_group_order=gview.order,
        ))

    correspondences = []
    # chain an idempotent from the deepest level down to level 0
    chain = [ideal_lists[-1][0].idempotents[0]]
    for i in range(len(connecting) - 1, -1, -1):
        mor = connecting[i]
        epi = ellis.induced_epimorphism(mor, source_semigroup=semis[i + 1],
                                        target_semigroup=semis[i], caps=caps)
        correspondences.append({
            "level": i,
            "ideal_images": epi.ideal_images,
            "idempotent_images": epi.idempotent_images,
        })
        top = chain[-1]
        pushed = epi.element_map[top]
        if semis[i].mul(pushed, pushed) != pushed:
            raise IncompatibleTower(i, "pushed idempotent is not idempotent")
        chain.append(pushed)
    correspondences.reverse()
    return TowerReport(tuple(level_reports), tuple(correspondences),
                       tuple(reversed(chain)))


# -- independent translates --------------------------------------------------------

@dataclass(frozen=True)
class IndependenceResult:
    found: bool
    witness: tuple[int, ...] | None
    exhausted_reason: str | None
    candidates_tried: int


def family_is_independent(flow: Flow, base: frozenset[int],
                          elements: tuple[int, ...]) -> bool:
    """Every one of the 2^k Boolean cells of the translates is inhabited."""
    translates = [frozenset(flow.act(g, x) for x in base) for g in elements]
    k = len(elements)
    patterns = set()
    for x in range(flow.points):
        patterns.add(sum(1 << i for i, t in enumerate(translates) if x in t))
    return len(patterns) == 2 ** k


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
        raise ValueError("base set must be a nonempty proper subset")
    if k < 1 or k > caps.independence_k_cap:
        raise SizeCapExceeded(k, caps.independence_k_cap, "family size")
    n = flow.points
    if 2 ** k > n:
        return IndependenceResult(False, None, "pigeonhole", 0)

    G = flow.group
    translate = [frozenset(flow.act(g, x) for x in base) for g in G.elements()]
    tried = 0

    def shatters(chosen):
        patterns = set()
        full = 2 ** len(chosen)
        for x in range(n):
            patterns.add(sum(1 << i for i, g in enumerate(chosen) if x in translate[g]))
            if len(patterns) == full:
                return True
        return False

    def dfs(chosen, start):
        nonlocal tried
        if len(chosen) == k:
            return tuple(chosen)
        for g in range(start, G.order):
            chosen.append(g)
            tried += 1
            if shatters(chosen):
                got = dfs(chosen, g + 1)
                if got is not None:
                    return got
            chosen.pop()
        return None

    witness = dfs([], 0)
    if witness is None:
        return IndependenceResult(False, None, "exhausted", tried)
    return IndependenceResult(True, witness, None, tried)
