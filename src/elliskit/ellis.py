"""Enveloping semigroup of a finite flow and its ideal/idempotent structure.

The enveloping semigroup here is the composition closure of the flow's
acting maps inside the (finite, discrete) space of self-maps of the point
set. In this discrete setting every net of maps is eventually constant, so
the limit-based operations collapse to algebra: a∘B evaluates to aB, the
image of B under row a. What the infinite theory proves about them holds
here by construction, so it is stated once and not re-checked:
- a∘B is an image, so aB ⊆ a∘B and a∘(B ∪ C) = a∘B ∪ a∘C; the other
  composition-limit identities, (a∘B)c = a∘(Bc) and a∘(b∘B) ⊆ (ab)∘B,
  are associativity of `times`, the composition of maps looked up in
  `keys` (a product missing from the closure raises where it is read).
- On an ideal group u·M, `ideal_group` certifies u·s = s for every
  member, once, when it builds the group ("u is not a left identity on
  u·M"). So for A ⊆ u·M, u∘A = u·A = A, and the τ-closure u(u∘A) and
  (u·M) ∩ (u∘A) are both A: τ is discrete, and H(u·M), the intersection
  of the closures of the neighbourhoods of u, is {u}.
So nothing here builds τ or H(u·M); the one reader of H(u·M), Ĝ, is the
ideal group itself where `grouplike` identifies it (`grouplike` module
docstring). The literal a∘B, τ-closure, H(u·M) and Ĝ formulas live in
`tests/oracles.py` and run as seeded property tests against the ideal
groups and ideals built here, and u·s = s, composed by hand, on every ideal
group the seeded Ellis battery builds.

The closure is `algebra._right_closure`, the one permutation groups use
(Froidure & Pin, "Algorithms for computing finite semigroups", 1997; East,
Egri-Nagy, Mitchell & Péresse, "Computing finite semigroups", J. Symb.
Comput. 92, 2019): each element is composed with every generator on the
right once and looked up, one `bytes.translate` each on at most 256 points
and one `itemgetter` call above. It keeps the maps and their index and no
Cayley graph: the closure is only the means to reach the minimal ideals.
It is closed by construction: every element meets every generator on the
right, and every element is a word in the generators, so each product
w∘v lies in it and no table re-checks that. A product is one
composition, made only where it is read, at every closure size. Where a
row is read more than once it goes through `EllisSemigroup.times`: row a
is an `algebra._ComposedRow`, made on first read and kept. A product
read alone (s·s, the column s·w of an isomorphism, w·u) is composed from
the two maps (`_composed`) and makes no row. An ideal group reads only the rows of its identity and generators,
checks the group axioms on them, keeps them, and builds its table from
them on first read (`algebra._group_by_rows`).
Minimal left ideals are read from the minimal ideal K, the elements of
minimum rank: one such e is found from the orbit of the generators' images
under the left action, without looking at every element. S·e is walked
over the generators' rows, recording each member's successors g·s. For a
member r of a minimal left ideal L, L·g = S·(r·g), and distinct minimal
left ideals are disjoint, so one right product r·g per ideal and
generator either lands in an ideal already found, which is then L·g, or
starts the walk of a new one. After the closure, finding the minimal
ideals reads the image orbit, each left product g·s of the kernel's
elements once, |K|·k products, and k right products per ideal.

Each minimal ideal M keeps one certificate, checked in O(|M|·k) over the
successors its walk recorded, with no product read: every member s
generates it, S·s = M. That makes M a minimal left ideal, and
the rest of its structure follows and is not re-checked (the literal forms
run as seeded property tests in `tests/test_by_construction.py`):
- The list is complete and left-closed: S·e is a left ideal by its walk,
  and so is each L·g, since S·(L·g) = (S·L)·g; every minimal left ideal
  L' is L·s for any s in L', and s is a word in the generators.
- s·u = s for s in M and each idempotent u of M: u generates M, so s = t·u
  for a nonempty word t, and s·u = t·u·u = s.
- M has an idempotent: M·M ⊆ M, and a finite semigroup has one.
- The blocks u·M cover M: for s in M let e = s^m be its idempotent power;
  s·e = s gives s^(m+1) = s, so e·s = s and s ∈ e·M.
- The blocks are disjoint: if u·x = x = v·x, let f = x^m; then u·f = f,
  and u·f = u by the right-identity law, so u = f = v.
- The compatible idempotent w of N (w·u = u) is unique and u·w = w: u·w
  is an idempotent of N and lies in w·N, since w·(u·w) = u·w, and an
  idempotent e of N in w·N is e = w·e = w.
- When v·u = u, uniqueness gives w = v, so the isomorphism s -> v·(s·w)
  is the conjugation (v·s)·v, by associativity.
- An epimorphism maps idempotents to idempotents: φ(u)² = φ(u²) = φ(u)
  once φ is multiplicative.
`ideal_group_isomorphism` composes the column s·w once for each member s
of u·M and reads it through v's row. For a generator a of u·M (or u) and
any member b, v·((a·b)·w) is the image of a·b, which a's row, read and
checked by `ideal_group`, gives; so the homomorphism check composes only
image(a)·image(b), one row of image(a) each.

`induced_epimorphism` pushes the closure of a source flow through an
equivariant surjection p of points onto a target flow, checked on the
generators by `flows.check_morphism`, into the target flow's closure. It
reads both closures and their minimal left ideals from the ideal lists its
caller built, and builds none of them. What it builds holds by
construction:
- Each source element f is a word in the source generators, and p·f = f'·p
  for f' the same word in the corresponding target maps, by equivariance
  on each letter. So f' is read off one point z of each fiber, f'(p(z)) =
  p(f(z)), and any other point of the fiber gives the same value.
- f' is a word in target maps, so it lies in the target closure.
- Once φ is onto and multiplicative, the image φ(M) of a minimal left ideal
  is a minimal left ideal: T·φ(M) = φ(S·M) ⊆ φ(M), and a left ideal L
  inside φ(M) pulls back to the left ideal M ∩ φ⁻¹(L) of S inside M, which
  is M, so L = φ(M).
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import (
    FiniteGroup,
    _ComposedRow,
    compose_maps,
    _group_by_rows,
    _key_type,
    _right_closure,
)
from .caps import DEFAULT_CAPS, Caps
from .errors import (
    ClosureCapExceeded,
    GroupMismatch,
    IsomorphismViolated,
    NotIdempotent,
    NotInIdeal,
    TheoremViolation,
)
from .flows import Flow, FlowMorphism, check_morphism

class EllisSemigroup:
    """Composition closure of the acting maps, in discovery order.

    `maps` holds the elements as the closure built them: `bytes` on at most
    256 points, tuples of ints above; either way maps[i][x] is an int.
    `keys` maps each of them back to its index, and `key` turns any sequence
    of points into that type. Generator g is element g. No Cayley graph and
    no multiplication table are held: `times(a)` is row a, composed where
    it is read, and `mul` reads from it. `_rows` keeps each row read, so a
    row's padded map is made once; a product read alone is composed from
    the two maps instead (`_composed`, module docstring).
    """

    __slots__ = ("flow", "maps", "keys", "key", "generators", "_rows")

    def __init__(self, flow, maps, keys, k):
        self.flow = flow
        self.maps = maps
        self.keys = keys
        self.key = _key_type(flow.points)
        self.generators = tuple(range(k))
        self._rows = {}

    @property
    def size(self) -> int:
        return len(self.maps)

    def mul(self, i: int, j: int) -> int:
        """Index of the map x -> maps[i](maps[j](x))."""
        return self.times(i)[j]

    def times(self, a: int):
        """Row a of the multiplication table, indexed by b: times(a)[b] is
        the index of a·b. An `algebra._ComposedRow`, made on first read."""
        row = self._rows.get(a)
        if row is None:
            row = self._rows[a] = _ComposedRow(self.maps, self.keys, a)
        return row

    def __repr__(self):
        return f"EllisSemigroup(size={self.size}, points={self.flow.points})"


class MinimalIdeal(NamedTuple):
    parent: EllisSemigroup
    members: tuple[int, ...]
    idempotents: tuple[int, ...]

    @property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)


class IdealGroup(NamedTuple):
    ideal: MinimalIdeal
    idempotent: int
    members: tuple[int, ...]            # group index -> semigroup index
    group_view: FiniteGroup             # same elements re-indexed 0..k-1
    to_group: dict                      # semigroup index -> group index
    rows: dict                          # identity's and generators' rows, group indices

    @property
    def parent(self) -> EllisSemigroup:
        return self.ideal.parent


def enveloping_semigroup(flow: Flow, caps: Caps = DEFAULT_CAPS) -> EllisSemigroup:
    """Breadth-first composition closure of the flow's generator maps.

    For a group flow the closure of any generating set of the (finite) group
    equals the full image of the group, so generators suffice. The closure
    is `algebra._right_closure`: each element w is composed with every
    generator g on the right once and w∘g is looked up; only the maps and
    their index are kept, and products are composed where they are read
    (`EllisSemigroup.times`).
    """
    cap = caps.closure_cap
    maps, keys, k = _right_closure(
        flow.generator_maps(), _key_type(flow.points), cap,
        lambda count: ClosureCapExceeded(count, cap))
    return EllisSemigroup(flow, maps, keys, k)


def minimal_left_ideals(S: EllisSemigroup) -> list[MinimalIdeal]:
    """All minimal left ideals, sorted by least member, read from the
    minimal ideal K (East, Egri-Nagy, Mitchell & Péresse, J. Symb. Comput.
    92, 2019), each of their generator products read once.

    In a finite transformation semigroup K is the set of elements of minimum
    rank, so for an e of minimum rank (`_kernel_element`), L = S·e is a
    minimal left ideal. Every minimal left ideal is L·s, so L's orbit under
    right multiplication by the generators lists them all, whichever e was
    taken, and for a member r of an ideal L, L·g = S·(r·g). Distinct
    minimal left ideals are disjoint, so one product r·g per ideal and
    generator either lands in an ideal already found, which is L·g, or
    starts the walk of a new one (module docstring). Each walk records its
    members' generator successors, and each ideal is certified generated by
    every member over them, so a failure of the rank argument raises
    instead of giving a wrong list. s·s = s is decided by composing s's map
    with itself, so the only rows read are the generators' and one r's per
    ideal.
    """
    rows = [S.times(g) for g in S.generators]
    walks, seen, starts = [], set(), [_kernel_element(S)]
    for r in starts:                    # grows: r·g for each walk's start r
        if r not in seen:               # else r lies in an ideal found
            walks.append(_left_walk(rows, r))
            seen.update(walks[-1])
            starts += map(S.times(r).__getitem__, S.generators)
    return [MinimalIdeal(S, members, tuple(
        s for s in members if _composed(S.maps[s], S.maps[s]) == S.maps[s]))
        for members in map(_validate_minimal_ideal, sorted(walks, key=min))]


def _kernel_element(S: EllisSemigroup) -> int:
    """An element of minimum rank, from the images alone (East et al. 2019).

    Images are closed under the left action, image(g∘w) = g(image(w)), and
    every element is a generator times generators on the left, so the orbit
    of the generators' images under the generators holds every image. Each
    image is kept with the first element seen to have it, g·w from
    `times(g)`. The orbit is at most the nonempty subsets of the points,
    and a single set for a group flow, so this is O(orbit × k), not O(|S|).
    The walk stops at an image of one point, since no rank is lower.
    """
    gens = [(S.maps[g], S.times(g)) for g in S.generators]
    todo = [(frozenset(S.maps[g]), g) for g in S.generators]
    orbit = {image for image, _ in todo}
    for image, w in todo:
        if len(image) == 1:
            return w
        for m, row in gens:
            moved = frozenset([m[x] for x in image])
            if moved not in orbit:
                orbit.add(moved)
                todo.append((moved, row[w]))
    return min(todo, key=lambda item: len(item[0]))[1]


def _composed(outer, inner):
    """The map outer∘inner, held like the closure's maps: one `translate`
    by outer's padded table on bytes, `compose_maps` on tuples. For a
    product read once, with no row of outer made."""
    return (inner.translate(outer.ljust(256, b"\0")) if type(inner) is bytes
            else compose_maps(outer, inner))


def _left_walk(rows, r) -> dict[int, list[int]]:
    """S·r, r included, walked over the generators' rows: a dict from each
    member s, in walk order from r, to its successors g·s, one per row,
    recorded as the walk reads them. Each product is read once."""
    succ = {}
    _reached(lambda s: succ.setdefault(s, [row[s] for row in rows]), r)
    return succ


def _reached(successors, start) -> set[int]:
    """Everything reachable from `start`, start included: successors(s)
    lists the successors of s, and is called once for each s reached."""
    seen, todo = set(), [start]
    for s in todo:                      # grows
        if s not in seen:
            seen.add(s)
            todo += successors(s)
    return seen


def _validate_minimal_ideal(succ) -> tuple[int, ...]:
    """The members of a minimal left ideal M, sorted, certified to generate
    it each, S·s = M, from `succ`, which maps each member s to its generator
    successors g·s (as `_left_walk` records them); no product is read. No successor
    leaves M, and one forward and one backward walk from the least member
    cover M, so M is strongly connected; every member has a successor
    (k >= 1), so the nonempty words from any member reach all of M and
    nothing else. Left translation on M need not be injective, so the
    backward walk follows predecessor lists, not columns."""
    back: dict[int, list[int]] = {s: [] for s in sorted(succ)}
    for s in back:
        for t in succ[s]:
            if t not in back:
                raise TheoremViolation("minimal ideal not generated by member", s)
            back[t].append(s)
    for edges in (succ, back):
        missed = back.keys() - _reached(edges.__getitem__, min(back))
        if missed:
            raise TheoremViolation("minimal ideal not generated by member", min(missed))
    return tuple(back)


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
    build reads only the rows read here, so no check waits for it. The
    group keeps them, in group indices (`rows`), and its isomorphisms read
    a·b off them.
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
    return IdealGroup(M, u, members, gview, pos, rows)


def compatible_idempotent(gu: IdealGroup, N: MinimalIdeal) -> int:
    """The idempotent w in N with w·u = u (equivalently u·w = w).

    Existence: N·u is a left ideal inside u's ideal, hence equal to it, so
    some element of N sends u to u, and the set of such elements is a
    subsemigroup of N, hence contains an idempotent. It is unique and
    u·w = w (module docstring); within u's own ideal the right-identity law
    forces w = u.
    """
    maps, u = gu.parent.maps, gu.parent.maps[gu.idempotent]
    return next(w for w in N.idempotents if _composed(maps[w], u) == u)


def ideal_group_isomorphism(gu: IdealGroup, gv: IdealGroup) -> tuple[int, ...]:
    """An explicit verified group isomorphism u·M -> v·N: s -> v·(s·w), where
    w is the idempotent of N compatible with u (w·u = u).

    When v itself is compatible with u this is the two-sided conjugation
    s -> v·s·v (module docstring), and within a single ideal it collapses
    to s -> v·s; the two-sided form is NOT a homomorphism for incompatible
    idempotent pairs across distinct ideals (an 8-element transformation
    semigroup on 4 points witnesses this), so the compatible intermediate
    is required.
    The column s·w is composed once per member and read through v's row.
    The homomorphism check runs over the generators of u·M and u; a·b is
    read off the rows `ideal_group` read and checked (`IdealGroup.rows`),
    so v·((a·b)·w) is the image of a·b, and only image(a)·image(b) is
    composed, one row of image(a) for each a.
    Failure of the constructed map is fatal: it would falsify the structure
    theory on a finite instance. Returns the image, indexed like gu.members.
    """
    S = gu.parent
    if S is not gv.parent:
        raise GroupMismatch("ideal groups from different semigroups")
    v, w = gv.idempotent, compatible_idempotent(gu, gv.ideal)
    row_v, w_map = S.times(v), S.maps[w]
    image = tuple([row_v[S.keys[_composed(S.maps[s], w_map)]] for s in gu.members])
    tgt = set(gv.members)
    if set(image) != tgt or len(set(image)) != len(image):
        raise IsomorphismViolated(("not a bijection", image[:4]))
    # over the generators (and u, for the trivial group): a homomorphism
    # (`algebra` module docstring); v·((a·b)·w) is the image of a·b, read
    # off a's row as `ideal_group` read and checked it
    for i, row_a in gu.rows.items():
        row_image = S.times(image[i])
        for j, ab in enumerate(row_a):
            if image[ab] != row_image[image[j]]:
                raise IsomorphismViolated(("not a homomorphism", gu.members[i], gu.members[j]))
    return image


class EllisEpimorphism(NamedTuple):
    source: EllisSemigroup
    target: EllisSemigroup
    element_map: tuple[int, ...]
    ideal_images: tuple[tuple[int, int], ...]       # (source ideal, target ideal)
    idempotent_images: tuple[tuple[int, int], ...]  # (source idem, target idem)


def induced_epimorphism(m: FlowMorphism, src_ideals: list[MinimalIdeal],
                        tgt_ideals: list[MinimalIdeal]) -> EllisEpimorphism:
    """Push the source enveloping semigroup through an ambit morphism into
    the target's: the image of f sends phi(z) to phi(f(z)). Each semigroup
    is read as the parent of its minimal left ideals, `src_ideals` and
    `tgt_ideals` as `minimal_left_ideals` returned them to the caller, and
    must be the closure of the morphism's own flow. Verified surjective and
    multiplicative; it is well-defined and lands in the target semigroup,
    and it maps minimal ideals onto minimal ideals and idempotents to
    idempotents, by construction (module docstring)."""
    rep = check_morphism(m)
    if not rep:
        raise GroupMismatch(f"invalid morphism: {rep.witness}")
    src, tgt = src_ideals[0].parent, tgt_ideals[0].parent
    if src.flow is not m.source.flow or tgt.flow is not m.target.flow:
        raise GroupMismatch("semigroup of another flow than the morphism's")
    pm = m.point_map
    rep_of = dict(zip(pm, range(len(pm))))      # one point per fiber
    reps = [rep_of[x] for x in range(m.target.flow.points)]
    element_map = tuple(tgt.keys[tgt.key([pm[f[z]] for z in reps])]
                        for f in src.maps)

    missed = tgt.size - len(set(element_map))
    if missed:
        raise TheoremViolation("induced map not surjective", missed)

    # generators on the left suffice (`algebra` module docstring)
    for i in src.generators:
        for j in range(src.size):
            if element_map[src.mul(i, j)] != tgt.mul(element_map[i], element_map[j]):
                raise TheoremViolation("induced map not multiplicative", (i, j))

    tgt_lookup = {M.member_set: k for k, M in enumerate(tgt_ideals)}
    ideal_images = []
    idem_images = []
    for si, M in enumerate(src_ideals):
        ideal_images.append((si, tgt_lookup[frozenset(element_map[s] for s in M.members)]))
        idem_images.extend((u, element_map[u]) for u in M.idempotents)
    return EllisEpimorphism(src, tgt, element_map, tuple(ideal_images),
                            tuple(idem_images))
