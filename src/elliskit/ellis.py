"""Enveloping semigroup of a finite flow and its ideal/idempotent structure.

The enveloping semigroup here is the composition closure of the flow's
acting maps inside the (finite, discrete) space of self-maps of the point
set. In this discrete setting every net of maps is eventually constant, so
the limit-based operations collapse to algebra: a∘B evaluates to aB, the
induced closure operator on an ideal group is the identity, and the
intersection of closures of neighbourhoods of the identity is a singleton.
The operations below still evaluate the defining formulas literally and
raise TheoremViolation if the collapse ever failed to hold.

The closure keeps its right and left Cayley graphs over the generators, and
bulk products are read off them instead of composing point tuples: Froidure
& Pin, "Algorithms for computing finite semigroups" (1997); East,
Egri-Nagy, Mitchell & Péresse, "Computing finite semigroups", J. Symb.
Comput. 92 (2019). Each graph is one `array('i')` column per generator, so
an edge costs 4 bytes and every walk reads the columns as generator maps.
Only right products are composed and hashed: the breadth-first search
appends w·g to the right graph and records, for each new element, its
spanning-tree parent and generator. The left graph follows by
associativity along that tree, g·(p·h) = (g·p)·h, one lookup an edge. The
closure composes in C: on at most 256 points each map is `bytes` and w∘g
is one `bytes.translate` (bytes also hash faster than tuples); above, one
`operator.itemgetter` call (`algebra._composer`). The semigroup keeps the
maps as the search built them; tuple forms are made only when read. The
full table is built row by row from the generator rows, since
associativity gives row(p·h) = row(p)∘row(h) along the same tree;
ideal-group tables are filled the same way inside the group. Minimal left
ideals are read from the minimal ideal K, the elements of minimum rank:
one such e is found from the orbit of the generators' images under the left
action, without looking at every element; then S·e and its orbit under
right multiplication by the generators, certified complete by closing their
union under both graphs (the Green's-structure route of East et al. 2019).
Each is checked in O(|M|·k) to be closed and strongly connected. After the
closure, finding the minimal ideals reads only the image orbit and the
kernel's own elements.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain

from .algebra import (
    FiniteGroup,
    Subgroup,
    _composer,
    _locate_inverses,
    _walk,
    cayley_row,
    cayley_table,
    compose_maps,
    small_generating_set,
)
from .caps import DEFAULT_CAPS, Caps
from .errors import (
    ClosureCapExceeded,
    GroupMismatch,
    IsomorphismViolated,
    NoInverse,
    NotIdempotent,
    NotInIdeal,
    NotWellDefined,
    TheoremViolation,
)
from .flows import Flow, FlowMorphism, check_morphism


class EllisSemigroup:
    """Composition closure of the acting maps, in discovery order.

    `maps` holds the elements as the closure built them: `bytes` on at most
    256 points, tuples of ints above; either way maps[i][x] is an int.
    `keys` maps each of them back to its index, and `key` turns any sequence
    of points into that type. `elements` and `index` are the same as tuples
    and a tuple-keyed dict, built from `maps` on first read and cached; the
    library itself never reads them. Generator g is element g. `right` and
    `left` are the Cayley graphs as one `array('i')` column per generator,
    4 bytes an edge: right[g][w] and left[g][w] are the indices of w·g and
    g·w. `tree` is the search's spanning tree, two `array('i')` columns
    (parent, via): element k + t (k generators) was first found as
    parent[t]·via[t]. The search fills `right`; `left` is read off the
    tree (`algebra.cayley_row`). The full multiplication table is only
    materialized up to mul_table_cap (at the default closure cap it would
    not fit in memory); above it, `mul` composes on demand, with no memo.
    """

    __slots__ = ("flow", "maps", "keys", "key", "generators", "right", "left",
                 "tree", "_table", "_elements", "_index")

    def __init__(self, flow, maps, keys, right, left, tree, table):
        self.flow = flow
        self.maps = maps
        self.keys = keys
        self.key = _key_type(flow.points)
        self.generators = tuple(range(len(right)))
        self.right = right
        self.left = left
        self.tree = tree
        self._table = table
        self._elements = self._index = None

    @property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        if self._elements is None:
            self._elements = tuple(map(tuple, self.maps))
        return self._elements

    @property
    def index(self) -> dict[tuple[int, ...], int]:
        if self._index is None:
            self._index = dict(zip(self.elements, range(self.size)))
        return self._index

    @property
    def size(self) -> int:
        return len(self.maps)

    def mul(self, i: int, j: int) -> int:
        """Index of the map x -> maps[i](maps[j](x))."""
        if self._table is not None:
            return self._table[i][j]
        a, b = self.maps[i], self.maps[j]
        if self.key is bytes:
            return self.keys[b.translate(a.ljust(256, b"\0"))]
        return self.keys[compose_maps(a, b)]

    def times(self, a: int):
        """The function b -> index of a·b: the table row's `__getitem__`, or
        without a table one `translate` by a's table, padded once (one
        `compose_maps` above 256 points)."""
        if self._table is not None:
            return self._table[a].__getitem__
        maps, keys, ta = self.maps, self.keys, self.maps[a]
        if self.key is bytes:
            ta = ta.ljust(256, b"\0")
            return lambda b: keys[maps[b].translate(ta)]
        return lambda b: keys[compose_maps(ta, maps[b])]

    def left_reach(self, s: int) -> set[int]:
        """S·s: everything reachable by left multiplication (words >= 1)."""
        return _walk(self.left, [col[s] for col in self.left])

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


def _key_type(points):
    """The type the closure holds maps in: bytes when a byte holds every point."""
    return bytes if points <= 256 else tuple


def enveloping_semigroup(flow: Flow, caps: Caps = DEFAULT_CAPS) -> EllisSemigroup:
    """Breadth-first composition closure of the flow's generator maps.

    For a group flow the closure of any generating set of the (finite) group
    equals the full image of the group, so generators suffice. Each element
    w is composed with every generator g on the right once and w∘g looked
    up; its index is appended to the right Cayley graph's column g. A new
    product also records its spanning-tree parent w and generator g, so
    every element is reached by right multiplication as it is found. No
    left product is composed or hashed: g·(p·h) = (g·p)·h fills each left
    column along the tree (`algebra.cayley_row`, Froidure & Pin 1997).
    """
    key = _key_type(flow.points)
    maps, keys = [], {}
    for m in map(key, flow.generator_maps()):
        if m not in keys:
            keys[m] = len(maps)
            maps.append(m)
    gens = tuple(maps)
    get = keys.get
    right = [array("i") for _ in gens]
    parent, via = array("i"), array("i")

    def add(cand, w, h):
        if len(maps) >= caps.closure_cap:
            raise ClosureCapExceeded(len(maps), caps.closure_cap)
        got = keys[cand] = len(maps)
        maps.append(cand)
        parent.append(w)
        via.append(h)
        return got

    if key is bytes:
        cols = [(g, h, col.append) for h, (g, col) in enumerate(zip(gens, right))]
        for w, m in enumerate(maps):
            tw = m.ljust(256, b"\0")
            for g, h, r_add in cols:
                cand = g.translate(tw)              # w∘g
                got = get(cand)
                r_add(add(cand, w, h) if got is None else got)
    else:
        cols = [(_composer(g), h, col.append)
                for h, (g, col) in enumerate(zip(gens, right))]
        for w, m in enumerate(maps):
            for times_g, h, r_add in cols:
                cand = times_g(m)                   # w∘g
                got = get(cand)
                r_add(add(cand, w, h) if got is None else got)
    n = len(maps)
    # one-step stability: the closure is closed under the right graph
    if max(map(max, right)) >= n:
        raise TheoremViolation("composition closure not closed", n)
    left = [cayley_row(right, parent, via, g) for g in range(len(gens))]
    table = cayley_table(right, parent, via) if n <= caps.mul_table_cap else None
    return EllisSemigroup(flow, maps, keys, right, left, (parent, via), table)


def minimal_left_ideals(S: EllisSemigroup) -> list[MinimalIdeal]:
    """All minimal left ideals, sorted by least member, read from the
    minimal ideal K (East, Egri-Nagy, Mitchell & Péresse, J. Symb. Comput.
    92, 2019).

    In a finite transformation semigroup K is the set of elements of minimum
    rank, so for an e of minimum rank (`_kernel_element`), L = S·e is a
    minimal left ideal. Every minimal left ideal is L·s, so L's orbit under
    right multiplication by the generators lists them all, whichever e was
    taken. Certificate: their union is closed under every left and right
    generator edge, so it is an ideal and contains K. Each ideal is
    validated against the structure facts, so a failure of the rank
    argument raises instead of giving a wrong list.
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
    for col in chain(S.left, S.right):
        if not union.issuperset(map(col.__getitem__, union)):
            raise TheoremViolation("minimal left ideals miss part of the kernel",
                                   next(m for m in union if col[m] not in union))
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
    image is kept with the first element seen to have it, read off the left
    Cayley graph. The orbit is at most the nonempty subsets of the points,
    and a single set for a group flow, so this is O(orbit × k), not O(|S|).
    """
    maps, left = S.maps, S.left
    gens = [maps[g] for g in S.generators]
    orbit = {}
    for g in S.generators:
        orbit.setdefault(frozenset(maps[g]), g)
    todo = list(orbit.items())
    for image, w in todo:
        for g, m in enumerate(gens):
            moved = frozenset([m[x] for x in image])
            if moved not in orbit:
                orbit[moved] = left[g][w]
                todo.append((moved, left[g][w]))
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
    back: dict[int, list[int]] = {s: [] for s in M.members}
    for s in M.members:
        for col in S.left:
            t = col[s]
            if t not in mset:
                raise TheoremViolation("minimal ideal not generated by member", s)
            back[t].append(s)
    behind, todo = set(M.members[:1]), list(M.members[:1])
    for t in todo:                      # grows: every member with a path to it
        new = set(back[t]) - behind
        behind |= new
        todo.extend(new)
    for reached in (_walk(S.left, M.members[:1]), behind):
        missed = mset - reached
        if missed:
            raise TheoremViolation("minimal ideal not generated by member",
                                   min(missed))
    if not M.idempotents:
        raise TheoremViolation("minimal ideal without idempotents", M.members[:4])
    # M is the disjoint union of the groups u·M over idempotents u
    seen: set[int] = set()
    for u in M.idempotents:
        block = set(map(S.times(u), M.members))
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
    """The group u·M with identity u; verified via closure, left identity
    and two-sided inverses (which force a group).

    Only the rows of u and of a greedy generating set (each member not yet
    reached, in member order) are read off the semigroup and checked to
    stay in u·M. The rest of the table follows by associativity along a
    right spanning tree from u: row(a·h) = row(a)∘row(h), one `_composer`
    call per row, the identity `algebra.cayley_table` uses.
    """
    S = M.parent
    if u not in M.member_set:
        raise NotInIdeal(u)
    if S.mul(u, u) != u:
        raise NotIdempotent(u)
    members = tuple(sorted(set(map(S.times(u), M.members))))
    pos = {s: i for i, s in enumerate(members)}

    def literal_row(a):
        times_a = S.times(a)
        try:
            return tuple([pos[times_a(b)] for b in members])
        except KeyError:
            b = next(b for b in members if times_a(b) not in pos)
            raise TheoremViolation("u·M not closed under composition", (a, b)) from None

    identity = pos[u]
    rows = [None] * len(members)
    rows[identity] = literal_row(u)
    order = [identity]
    gens = []                       # (h, row -> row∘row(h))
    for h in range(len(members)):
        if rows[h] is not None:
            continue
        rows[h] = literal_row(members[h])
        order.append(h)
        gens.append((h, _composer(rows[h])))
        for a in order:             # grows: closes the reached set under gens
            for g, times_g in gens:
                ag = rows[a][g]
                if rows[ag] is None:
                    rows[ag] = times_g(rows[a])
                    order.append(ag)
    mul = tuple(rows)
    for i, s in enumerate(members):
        if mul[identity][i] != i:
            raise TheoremViolation("u is not a left identity on u·M", s)
    try:
        inverse = _locate_inverses(mul, identity)
    except NoInverse as exc:
        raise TheoremViolation("u·M element without two-sided inverse",
                               members[exc.element]) from None
    gview = FiniteGroup(mul, identity, inverse,
                        gens=small_generating_set(mul, identity))
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
    for i, a in enumerate(gu.members):
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
    return frozenset(map(S.times(a), B))


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
    u_times = S.times(u)
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
    homomorphism_pairs_checked: int
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

    pairs_checked = 0
    budget = 2_000_000
    if src.size * src.size <= budget:
        pair_iter = ((i, j) for i in range(src.size) for j in range(src.size))
    else:
        pair_iter = ((i, j) for i in src.generators for j in range(src.size))
    for i, j in pair_iter:
        if element_map[src.mul(i, j)] != tgt.mul(element_map[i], element_map[j]):
            raise TheoremViolation("induced map not multiplicative", (i, j))
        pairs_checked += 1

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
    return EllisEpimorphism(src, tgt, element_map, surjective, pairs_checked,
                            tuple(ideal_images), tuple(idem_images))
