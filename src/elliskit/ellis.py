"""Enveloping semigroup of a finite flow and its ideal/idempotent structure.

The enveloping semigroup here is the composition closure of the flow's
acting maps inside the (finite, discrete) space of self-maps of the point
set. In this discrete setting every net of maps is eventually constant, so
the limit-based operations collapse to algebra: a∘B evaluates to aB, the
induced closure operator on an ideal group is the identity, and the
intersection of closures of neighbourhoods of the identity is a singleton.
The operations below still evaluate the defining formulas literally and
raise TheoremViolation if the collapse ever failed to hold.

The closure keeps one Cayley graph over the generators, the right one, and
bulk products are read off it instead of composing point tuples: Froidure
& Pin, "Algorithms for computing finite semigroups" (1997); East,
Egri-Nagy, Mitchell & Péresse, "Computing finite semigroups", J. Symb.
Comput. 92 (2019). The graph is one `array('i')` column per generator, so
an edge costs 4 bytes. The closure itself is `algebra._right_closure`, the
one permutation groups use: only right products are composed and hashed,
one `bytes.translate` each on at most 256 points and one `itemgetter` call
above, and each new element records its spanning-tree parent and
generator. The semigroup keeps the maps as the closure built them. A
closure of at most `_TABLE_LIMIT` (512) elements gets its full table from
`algebra._table_by_rows`: a few literal rows, the rest composed by
row(a·g) = row(a)∘row(g), the literal rows read off the tree by
associativity, i·(p·h) = (i·p)·h, one lookup an entry; the tree is then
dropped. An ideal group reads only the rows of its identity and
generators, checks the group axioms on them, and builds its table from
them on first read (`algebra._group_by_rows`). No left graph is
held: every left product g·w goes through `EllisSemigroup.times`, a table
row lookup or, above `_TABLE_LIMIT`, one composition, and it is read only
where the kernel needs it. Minimal left ideals are read from the minimal
ideal K, the elements of minimum rank: one such e is found from the orbit
of the generators' images under the left action, without looking at every
element; then S·e and its orbit under right multiplication by the
generators, certified complete by closing their union under left and right
products by the generators (the Green's-structure route of East et al.
2019). Each is checked in O(|M|·k) to be closed and strongly connected.
After the closure, finding the minimal ideals reads only the image orbit
and the kernel's own elements.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    FiniteGroup,
    Subgroup,
    _group_by_rows,
    _key_type,
    _right_closure,
    _table_by_rows,
    _walk,
    cayley_row,
    compose_maps,
)
from .caps import DEFAULT_CAPS, Caps
from .errors import (
    ClosureCapExceeded,
    GroupMismatch,
    IsomorphismViolated,
    NotIdempotent,
    NotInIdeal,
    NotWellDefined,
    TheoremViolation,
)
from .flows import Flow, FlowMorphism, check_morphism

# Largest closure that gets its full multiplication table (n² entries);
# above it every product is composed where it is read, with no memo. Small
# closures read their products many times over: with no table at all,
# perfbench's verify-ellis (400 closures, each of at most a few hundred
# elements) took 0.441–0.448 s against 0.318–0.350 s with it, in 3 of 3
# alternated 15-s runs on a 2-core Xeon. Large ones cannot afford it: the
# 46,656-element T6 closure's table would hold 2.2 G entries.
_TABLE_LIMIT = 512


class _ComposedRow:
    """Row a of a multiplication table that is not materialized: row[b] is
    the index of a·b, composed when read, with no memo. One `translate` by
    a's table, padded once, on at most 256 points; one `compose_maps`
    above."""

    __slots__ = ("maps", "keys", "outer")

    def __init__(self, maps, keys, outer):
        self.maps, self.keys = maps, keys
        self.outer = outer.ljust(256, b"\0") if type(outer) is bytes else outer

    def __getitem__(self, b):
        inner = self.maps[b]
        if type(inner) is bytes:
            return self.keys[inner.translate(self.outer)]
        return self.keys[compose_maps(self.outer, inner)]


class EllisSemigroup:
    """Composition closure of the acting maps, in discovery order.

    `maps` holds the elements as the closure built them: `bytes` on at most
    256 points, tuples of ints above; either way maps[i][x] is an int.
    `keys` maps each of them back to its index, and `key` turns any sequence
    of points into that type. Generator g is element g. `right` is the one
    Cayley graph, one `array('i')` column per generator, 4 bytes an edge:
    right[g][w] is the index of w·g. Left products are not held: `times(a)`
    is row a of the multiplication table, and every product, `mul`
    included, is read from it. `_table` holds the full table for a closure
    of at most `_TABLE_LIMIT` elements and is None above, where a row
    composes each product as it is read, with no memo.
    """

    __slots__ = ("flow", "maps", "keys", "key", "generators", "right", "_table")

    def __init__(self, flow, maps, keys, right, table):
        self.flow = flow
        self.maps = maps
        self.keys = keys
        self.key = _key_type(flow.points)
        self.generators = tuple(range(len(right)))
        self.right = right
        self._table = table

    @property
    def size(self) -> int:
        return len(self.maps)

    def mul(self, i: int, j: int) -> int:
        """Index of the map x -> maps[i](maps[j](x))."""
        return self.times(i)[j]

    def times(self, a: int):
        """Row a of the multiplication table, indexed by b: times(a)[b] is
        the index of a·b. The table's own row up to `_TABLE_LIMIT`
        elements, a `_ComposedRow` above."""
        if self._table is not None:
            return self._table[a]
        return _ComposedRow(self.maps, self.keys, self.maps[a])

    def left_reach(self, s: int) -> set[int]:
        """S·s: everything reachable by left multiplication (words >= 1),
        walking the generators' rows."""
        rows = [self.times(g) for g in self.generators]
        return _walk(rows, [row[s] for row in rows])

    def __repr__(self):
        return f"EllisSemigroup(size={self.size}, points={self.flow.points})"


@dataclass(frozen=True)
class MinimalIdeal:
    parent: EllisSemigroup
    members: tuple[int, ...]
    idempotents: tuple[int, ...]

    @property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)


@dataclass(frozen=True)
class IdealGroup:
    ideal: MinimalIdeal
    idempotent: int
    members: tuple[int, ...]            # semigroup element indices
    group_view: FiniteGroup             # same elements re-indexed 0..k-1
    to_group: dict                      # semigroup index -> group index
    from_group: tuple[int, ...]         # group index -> semigroup index

    @property
    def parent(self) -> EllisSemigroup:
        return self.ideal.parent


def enveloping_semigroup(flow: Flow, caps: Caps = DEFAULT_CAPS) -> EllisSemigroup:
    """Breadth-first composition closure of the flow's generator maps.

    For a group flow the closure of any generating set of the (finite) group
    equals the full image of the group, so generators suffice. The closure
    is `algebra._right_closure`: each element w is composed with every
    generator g on the right once, w∘g is looked up and its index appended
    to the right Cayley graph's column g, and a new product records its
    spanning-tree parent w and generator g. No left product is composed,
    hashed or stored here. A closure of at most `_TABLE_LIMIT` elements
    gets its full table, `algebra._table_by_rows` over literal rows read off
    the spanning tree by associativity, i·(p·h) = (i·p)·h
    (`algebra.cayley_row`, Froidure & Pin 1997); above it, left products are
    composed where they are read. The tree is not kept either way.
    """
    cap = caps.closure_cap
    maps, keys, right, parent, via = _right_closure(
        flow.generator_maps(), _key_type(flow.points), cap,
        lambda count: ClosureCapExceeded(count, cap))
    n = len(maps)
    # one-step stability: the closure is closed under the right graph
    if max(map(max, right)) >= n:
        raise TheoremViolation("composition closure not closed", n)
    table = None
    if n <= _TABLE_LIMIT:
        table, _ = _table_by_rows(n, lambda i: tuple(cayley_row(right, parent, via, i)))
    return EllisSemigroup(flow, maps, keys, right, table)


def minimal_left_ideals(S: EllisSemigroup) -> list[MinimalIdeal]:
    """All minimal left ideals, sorted by least member, read from the
    minimal ideal K (East, Egri-Nagy, Mitchell & Péresse, J. Symb. Comput.
    92, 2019).

    In a finite transformation semigroup K is the set of elements of minimum
    rank, so for an e of minimum rank (`_kernel_element`), L = S·e is a
    minimal left ideal. Every minimal left ideal is L·s, so L's orbit under
    right multiplication by the generators lists them all, whichever e was
    taken. Certificate: their union is closed under left and right
    multiplication by every generator, so it is an ideal and contains K.
    Each ideal is validated against the structure facts, so a failure of
    the rank argument raises instead of giving a wrong list.
    """
    found = [frozenset(S.left_reach(_kernel_element(S)))]
    seen = set(found)
    for L in found:
        for col in S.right:
            Lg = frozenset(map(col.__getitem__, L))
            if Lg not in seen:
                seen.add(Lg)
                found.append(Lg)
    union = frozenset().union(*found)
    for row in [S.times(g) for g in S.generators] + S.right:
        if not union.issuperset(map(row.__getitem__, union)):
            raise TheoremViolation("minimal left ideals miss part of the kernel",
                                   next(m for m in union if row[m] not in union))
    ideals = []
    for L in sorted(found, key=min):
        members = tuple(sorted(L))
        ideal = MinimalIdeal(S, members, tuple(s for s in members if S.mul(s, s) == s))
        _validate_minimal_ideal(ideal)
        ideals.append(ideal)
    return ideals


def _kernel_element(S: EllisSemigroup) -> int:
    """An element of minimum rank, from the images alone (East et al. 2019).

    Images are closed under the left action, image(g∘w) = g(image(w)), and
    every element is a generator times generators on the left, so the orbit
    of the generators' images under the generators holds every image. Each
    image is kept with the first element seen to have it, g·w from
    `times(g)`. The orbit is at most the nonempty subsets of the points,
    and a single set for a group flow, so this is O(orbit × k), not O(|S|).
    """
    gens = [(S.maps[g], S.times(g)) for g in S.generators]
    todo = [(frozenset(S.maps[g]), g) for g in S.generators]
    orbit = {image for image, _ in todo}
    for image, w in todo:
        for m, row in gens:
            moved = frozenset([m[x] for x in image])
            if moved not in orbit:
                orbit.add(moved)
                todo.append((moved, row[w]))
    return min(todo, key=lambda item: len(item[0]))[1]


def _validate_minimal_ideal(M: MinimalIdeal):
    S = M.parent
    mset = M.member_set
    # every element generates the ideal, S·s = M: no left edge leaves M, and
    # one forward and one backward walk from a member cover M, so M is
    # strongly connected; every member has a successor (k >= 1), so the
    # nonempty words from any member reach all of M and nothing else. Left
    # translation on M need not be injective, so the backward walk follows
    # predecessor lists, not columns.
    rows = [S.times(g) for g in S.generators]
    back: dict[int, list[int]] = {s: [] for s in M.members}
    for s in M.members:
        for row in rows:
            t = row[s]
            if t not in mset:
                raise TheoremViolation("minimal ideal not generated by member", s)
            back[t].append(s)
    behind, todo = set(M.members[:1]), list(M.members[:1])
    for t in todo:                      # grows: every member with a path to it
        new = set(back[t]) - behind
        behind |= new
        todo.extend(new)
    for reached in (_walk(rows, M.members[:1]), behind):
        missed = mset - reached
        if missed:
            raise TheoremViolation("minimal ideal not generated by member",
                                   min(missed))
    if not M.idempotents:
        raise TheoremViolation("minimal ideal without idempotents", M.members[:4])
    # M is the disjoint union of the groups u·M over idempotents u
    seen: set[int] = set()
    for u in M.idempotents:
        block = set(map(S.times(u).__getitem__, M.members))
        if block & seen:
            raise TheoremViolation("idempotent blocks overlap", u)
        seen |= block
    if seen != mset:
        raise TheoremViolation("idempotent blocks do not cover ideal",
                               sorted(mset - seen)[:4])
    # right identity law: s·u = s for all s in M, idempotent u
    for u in M.idempotents:
        for s in M.members:
            if S.mul(s, u) != s:
                raise TheoremViolation("s·u != s inside minimal ideal", (s, u))


def ideal_group(M: MinimalIdeal, u: int) -> IdealGroup:
    """The group u·M with identity u, its axioms checked here over the rows
    of u and of its generators (the Green's-structure view of East,
    Egri-Nagy, Mitchell & Péresse 2019), its tables built on first read.

    The group is `algebra._group_by_rows` from u: only the rows of u and of
    a greedy generating set (each member not yet reached from u by the
    earlier generators' rows, in member order) are read off the semigroup,
    and these checks run on them:
    - each row read stays in u·M;
    - u's row is the identity, u·s = s;
    - each generator g has a t in its row with g·t = u, and t·g = u.
    They make u·M a group. Every member a is reached from u by left
    products with the generators, a = g1·…·gk·u. Closure: a·b =
    g1·…·gk·(u·b) = g1·(…·(gk·b)), in u·M one generator row at a time.
    Identity: u·a = a, and a·u = g1·…·gk·u·u = a. Inverses: with ti the t
    of gi, a' = tk·…·t1 is in u·M by closure. In a·a' the middle
    gk·u·tk = gk·tk = u, and so on out to g1·t1 = u; in a'·a the middle
    t1·g1 = u, u·g2 = g2, and so on out to tk·gk·u = u. The deferred
    build reads only the rows read here, so no check waits for it.
    """
    S = M.parent
    if u not in M.member_set:
        raise NotInIdeal(u)
    if S.mul(u, u) != u:
        raise NotIdempotent(u)
    members = tuple(sorted(set(map(S.times(u).__getitem__, M.members))))
    pos = {s: i for i, s in enumerate(members)}

    def literal_row(a):
        row_a = S.times(a)
        try:
            return tuple([pos[row_a[b]] for b in members])
        except KeyError:
            b = next(b for b in members if row_a[b] not in pos)
            raise TheoremViolation("u·M not closed under composition", (a, b)) from None

    identity = pos[u]
    gview, rows = _group_by_rows(len(members), lambda i: literal_row(members[i]), identity)
    for i, s in enumerate(members):
        if rows[identity][i] != i:
            raise TheoremViolation("u is not a left identity on u·M", s)
    for g in gview.gens:
        t = rows[g].index(identity) if identity in rows[g] else None
        if t is None or S.mul(members[t], members[g]) != u:
            raise TheoremViolation("u·M element without two-sided inverse", members[g])
    return IdealGroup(M, u, members, gview, pos, members)


def compatible_idempotent(gu: IdealGroup, N: MinimalIdeal) -> int:
    """The idempotent w in N with w·u = u (equivalently u·w = w).

    Existence: N·u is a left ideal inside u's ideal, hence equal to it, so
    some element of N sends u to u, and the set of such elements is a
    subsemigroup of N, hence contains an idempotent. Within u's own ideal
    the right-identity law forces w = u.
    """
    S = gu.parent
    u = gu.idempotent
    for w in N.idempotents:
        if S.mul(w, u) == u:
            if S.mul(u, w) != w:
                raise TheoremViolation("compatible idempotent fails u·w = w", (u, w))
            return w
    raise TheoremViolation("no compatible idempotent in target ideal", u)


def ideal_group_isomorphism(gu: IdealGroup, gv: IdealGroup) -> tuple[int, ...]:
    """An explicit verified group isomorphism u·M -> v·N: s -> v·(s·w), where
    w is the idempotent of N compatible with u (w·u = u).

    When v itself is compatible with u this is the two-sided conjugation
    s -> v·s·v, and within a single ideal it collapses to s -> v·s; the
    two-sided form is NOT a homomorphism for incompatible idempotent pairs
    across distinct ideals (an 8-element transformation semigroup on 4
    points witnesses this), so the compatible intermediate is required.
    Failure of the constructed map is fatal: it would falsify the structure
    theory on a finite instance. Returns the image, indexed like gu.members.
    """
    S = gu.parent
    if S is not gv.parent:
        raise GroupMismatch("ideal groups from different semigroups")
    u, v = gu.idempotent, gv.idempotent
    w = compatible_idempotent(gu, gv.ideal)
    image = tuple(S.mul(v, S.mul(s, w)) for s in gu.members)
    tgt = set(gv.members)
    if set(image) != tgt or len(set(image)) != len(image):
        raise IsomorphismViolated(("not a bijection", image[:4]))
    # over the generators (and u, for the trivial group): a homomorphism
    # (`algebra` module docstring)
    gview = gu.group_view
    for i in gview.gens + (gview.identity,):
        a = gu.members[i]
        for j, b in enumerate(gu.members):
            ab = S.mul(a, b)
            lhs = S.mul(v, S.mul(ab, w))
            rhs = S.mul(image[i], image[j])
            if lhs != rhs:
                raise IsomorphismViolated(("not a homomorphism", a, b))
    if S.mul(v, u) == u:
        # compatible pair: the conjugation form must agree
        for i, s in enumerate(gu.members):
            if S.mul(S.mul(v, s), v) != image[i]:
                raise IsomorphismViolated(("conjugation form disagrees", s))
    return image


def circ(S: EllisSemigroup, a: int, B) -> frozenset[int]:
    """a∘B. In a finite discrete space the maps converging to a are
    eventually a itself, so the set of limits of products is exactly aB."""
    return frozenset(map(S.times(a).__getitem__, B))


def tau_closure(G: IdealGroup, A) -> frozenset[int]:
    """Closure of A inside the ideal group: u(u∘A), verified to agree with
    (u·M) ∩ (u∘A), to be a closure operator, and (finite discreteness) to
    return A itself."""
    S = G.parent
    u = G.idempotent
    members = G.to_group.keys()         # u·M, a set view with no copy
    A = frozenset(A)
    if not A <= members:
        raise NotInIdeal(min(A - members))
    u_times = S.times(u).__getitem__
    u_circ_a = circ(S, u, A)
    closed = frozenset(map(u_times, u_circ_a))
    alt = u_circ_a & members
    if closed != alt:
        raise TheoremViolation("two closure formulas disagree", (sorted(closed)[:4],
                                                                 sorted(alt)[:4]))
    if not A <= closed:
        raise TheoremViolation("closure not extensive", sorted(A - closed)[:4])
    again = frozenset(map(u_times, circ(S, u, closed)))
    if again != closed:
        raise TheoremViolation("closure not idempotent", sorted(again ^ closed)[:4])
    if closed != A:
        raise TheoremViolation("finite ideal-group topology not discrete",
                               sorted(closed - A)[:4])
    return closed


def h_subgroup(G: IdealGroup) -> Subgroup:
    """Intersection of closures of neighbourhoods of the identity in the
    ideal-group topology. Discreteness is certified first (every singleton
    and co-singleton is closed), after which the smallest neighbourhood of
    the identity is the singleton itself and the intersection is {u}."""
    u = G.idempotent
    for s in G.members:
        single = tau_closure(G, {s})
        if single != {s}:
            raise TheoremViolation("singleton not closed", s)
        co = frozenset(G.to_group.keys() - {s})
        if tau_closure(G, co) != co:
            raise TheoremViolation("co-singleton not closed", s)
    core = tau_closure(G, {u})
    if core != {u}:
        raise TheoremViolation("identity neighbourhood closure not trivial",
                               sorted(core))
    sub = Subgroup(G.group_view, frozenset({G.to_group[u]}))
    if not sub.is_normal():
        raise TheoremViolation("trivial subgroup reported non-normal", u)
    return sub


@dataclass(frozen=True)
class EllisEpimorphism:
    source: EllisSemigroup
    target: EllisSemigroup
    element_map: tuple[int, ...]
    surjective: bool
    homomorphism_pairs_checked: int     # generators × elements, |gens|·|S|
    ideal_images: tuple[tuple[int, int], ...]       # (source ideal, target ideal)
    idempotent_images: tuple[tuple[int, int], ...]  # (source idem, target idem)


def induced_epimorphism(m: FlowMorphism, source_semigroup=None,
                        target_semigroup=None,
                        caps: Caps = DEFAULT_CAPS) -> EllisEpimorphism:
    """Push the source enveloping semigroup through an ambit morphism:
    the image of f sends phi(z) to phi(f(z)). Verified well-defined,
    surjective, multiplicative, and structure-preserving (minimal ideals
    onto minimal ideals, idempotents to idempotents)."""
    rep = check_morphism(m)
    if not rep:
        raise GroupMismatch(f"invalid morphism: {rep.witness}")
    src = source_semigroup or enveloping_semigroup(m.source.flow, caps=caps)
    tgt = target_semigroup or enveloping_semigroup(m.target.flow, caps=caps)
    pm = m.point_map
    fibers: list[list[int]] = [[] for _ in range(m.target.flow.points)]
    for z, x in enumerate(pm):
        fibers[x].append(z)

    element_map = []
    for fi, f in enumerate(src.maps):
        img = [None] * m.target.flow.points
        for x, fiber in enumerate(fibers):
            vals = {pm[f[z]] for z in fiber}
            if len(vals) != 1:
                bad = sorted(fiber)[:2]
                raise NotWellDefined(fi, bad[0], bad[-1])
            img[x] = vals.pop()
        got = tgt.keys.get(tgt.key(img))
        if got is None:
            raise TheoremViolation("induced image escapes target semigroup", fi)
        element_map.append(got)
    element_map = tuple(element_map)

    surjective = len(set(element_map)) == tgt.size
    if not surjective:
        raise TheoremViolation("induced map not surjective",
                               tgt.size - len(set(element_map)))

    # generators on the left suffice (`algebra` module docstring)
    for i in src.generators:
        for j in range(src.size):
            if element_map[src.mul(i, j)] != tgt.mul(element_map[i], element_map[j]):
                raise TheoremViolation("induced map not multiplicative", (i, j))

    src_ideals = minimal_left_ideals(src)
    tgt_ideals = minimal_left_ideals(tgt)
    tgt_lookup = {m2.member_set: k for k, m2 in enumerate(tgt_ideals)}
    ideal_images = []
    idem_images = []
    for si, M in enumerate(src_ideals):
        img = frozenset(element_map[s] for s in M.members)
        ti = tgt_lookup.get(img)
        if ti is None:
            raise TheoremViolation("ideal image is not a minimal ideal", si)
        ideal_images.append((si, ti))
        for u in M.idempotents:
            pushed = element_map[u]
            if tgt.mul(pushed, pushed) != pushed:
                raise TheoremViolation("idempotent image not idempotent", u)
            idem_images.append((u, pushed))
    return EllisEpimorphism(src, tgt, element_map, surjective,
                            len(src.generators) * src.size,
                            tuple(ideal_images), tuple(idem_images))
