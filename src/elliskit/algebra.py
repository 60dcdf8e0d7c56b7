"""Finite groups by multiplication table, with subgroup and quotient algebra.

Elements are always the indices 0..n-1. The canonical element order of a
group built from permutation generators is discovery order: a breadth-first
walk that starts from the deduplicated generators (in input order) and
right-multiplies by generators. That walk is the package's one composition
closure (`_right_closure`, Froidure & Pin 1997), and `_table_by_rows` is its
one table builder: a few literal rows, every other row composed from them.
Both serve permutation groups here and enveloping semigroups and their
ideal groups in `ellis`. The table builder also gives a quotient group its
coset table, and quotient and table-given groups their greedy generating
sets. A group known by literal rows (permutation, affine and ideal groups,
`_group_by_rows`) reads only its identity's and generators' rows when it
is built, finds a greedy generating set by walking them when it has none,
and fills in `mul` and `inverse` on first read. An affine group is
its elements' permutations w -> v + Mw of the vector indices, built from
each matrix's map on them, so the only GF(q) arithmetic is one M·w loop.
All values are immutable after construction, except that a group fills in
its tables on first read and its subgroup lattice on first enumeration,
and all operations are pure.

A check that a map respects products needs only the generators. If a map f
on a group (or semigroup) satisfies f(g·x) = f(g)·f(x) for every generator
g and every x, then it satisfies f(a·x) = f(a)·f(x) for every a: write
a = g1·…·gk, and by induction on k, f(g1·w·x) = f(g1)·f(w·x) =
f(g1)·f(w)·f(x) = f(g1·w)·f(x) (Holt, Eick & O'Brien, Handbook of
Computational Group Theory, 2005). The same holds for an action or an
equivariant map in place of the product on the right. So each such check
is complete when the generators generate, which `make_flow` and
`are_isomorphic` require of a caller's group (`_require_generating`).
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass, field
from operator import index, itemgetter

from .caps import DEFAULT_CAPS, Caps
from .errors import (
    GroupMismatch,
    GroupTooLarge,
    InvalidArgument,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotBijective,
    NotNormal,
    UnsupportedParameters,
)


class _Tables:
    """A group's `mul` before it is built: its length and the function that
    builds (mul, inverse) (`_group_by_rows`)."""

    __slots__ = ("n", "build")

    def __init__(self, n, build):
        self.n, self.build = n, build

    def __len__(self):
        return self.n


class FiniteGroup:
    """A finite group on elements 0..order-1 with a multiplication table.

    `mul` is the table as a tuple of rows and `inverse` the inverse of each
    element. A group known by its rows (`_group_by_rows`) is built as a
    `_DeferredGroup` with a `_Tables` for `mul`, and the first read of
    `mul` or `inverse` builds both into their slots; `_tables` holds the
    builder until then and is None after. `perms`, when present, realizes
    each element as a permutation of 0..degree-1, a tuple, and `mul` is
    their composition: the group was built from permutation generators, or
    is cyclic or affine (acting on its q^dim vectors). `gens` is a small
    generating set, always consistent with `mul`. `subgroups` is the sorted
    subgroup lattice, filled by the first `enumerate_subgroups` call.
    """

    __slots__ = ("order", "mul", "identity", "inverse", "gens", "perms", "name",
                 "subgroups", "_tables")

    def __init__(self, mul, identity, inverse, gens, perms=None, name=None):
        self.order = len(mul)
        self._tables = mul.build if type(mul) is _Tables else None
        if self._tables is None:
            self.mul, self.inverse = mul, inverse
        self.identity = identity
        self.gens = tuple(gens)
        self.perms = perms
        self.name = name
        self.subgroups = None

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conjugate(self, g: int, a: int) -> int:
        """g * a * g^-1."""
        return self.mul[self.mul[g][a]][self.inverse[g]]

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mul[x][a]
            k += 1
        return k

    def element_order_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(self.element_order(a) for a in self.elements()))

    def __repr__(self):
        tag = self.name or "group"
        return f"FiniteGroup({tag}, order={self.order})"


class _DeferredGroup(FiniteGroup):
    """A group whose `mul` and `inverse` slots are not filled yet. The first
    read of either fills both through `__getattr__` and makes the group a
    plain FiniteGroup: CPython 3.11 does not specialize attribute reads on a
    type with `__getattr__` (a loop reading S4's `mul` ran 1.5 to 2 times
    slower), so no built group keeps it."""

    __slots__ = ()

    def __getattr__(self, name):
        if name not in ("mul", "inverse"):
            raise AttributeError(name)
        self.mul, self.inverse = self._tables()
        self._tables, self.__class__ = None, FiniteGroup
        return getattr(self, name)


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    members: frozenset[int]
    sorted_members: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "sorted_members", tuple(sorted(self.members)))
        G = self.parent
        if G.identity not in self.members:
            raise NoIdentity()
        for a in self.members:
            if G.inverse[a] not in self.members:
                raise NoInverse(a)
            for b in self.members:
                if G.mul[a][b] not in self.members:
                    raise NotAssociative((a, b, "closure"))

    @property
    def order(self) -> int:
        return len(self.members)

    def is_normal(self) -> bool:
        """Closed under conjugation by the parent's generators. In a finite
        group that is normality: gHg^-1 inside H has |H| elements, so it is
        H, and every element is a product of generators."""
        G, members = self.parent, self.members
        return all(G.conjugate(g, a) in members for g in G.gens for a in members)


@dataclass(frozen=True)
class GroupQuotient:
    parent: FiniteGroup
    normal_subgroup: Subgroup
    cosets: tuple[tuple[int, ...], ...]
    group: FiniteGroup
    projection: tuple[int, ...]  # parent element -> coset index


def _check_associative(mul):
    n = len(mul)
    for a in range(n):
        ra = mul[a]
        for b in range(n):
            ab = ra[b]
            rb = mul[b]
            row_ab = mul[ab]
            for c in range(n):
                if row_ab[c] != ra[rb[c]]:
                    raise NotAssociative((a, b, c))


def _locate_identity(mul):
    n = len(mul)
    for e in range(n):
        if all(mul[e][a] == a and mul[a][e] == a for a in range(n)):
            return e
    raise NoIdentity()


def _locate_inverses(mul, identity):
    """Two-sided inverses. In a finite monoid a right inverse is two-sided,
    so the first one in each row is checked against its column."""
    inverse = []
    for a, row in enumerate(mul):
        try:
            b = row.index(identity)
        except ValueError:
            raise NoInverse(a) from None
        if mul[b][a] != identity:
            raise NoInverse(a)
        inverse.append(b)
    return tuple(inverse)


def _closure_indices(mul, seed, gens):
    """The subgroup generated by `gens` and the nonempty `seed` (a subset of
    that subgroup, such as the identity or a subgroup already known): the
    seed's orbit under left multiplication by the generators, whose rows
    mul[g] are maps. In a finite group the products of generators are the
    whole subgroup. |result|·|gens| lookups."""
    return _walk([mul[g] for g in gens], seed)


def _walk(maps, starts) -> set[int]:
    """Everything reachable from `starts` under `maps`, starts included:
    maps[g][x] is the successor of x under g. Each map is read as it is
    held (a table row, a flow's point map, `EllisSemigroup.times(g)`), so
    no caller transposes or materializes a column."""
    seen = set(starts)
    order = list(seen)
    for x in order:
        for m in maps:
            y = m[x]
            if y not in seen:
                seen.add(y)
                order.append(y)
    return seen


def _require_generating(G: FiniteGroup):
    """Raise unless G.gens generate G: every generator-based check on G
    (module docstring) would otherwise pass on products it never reaches."""
    reached = len(_closure_indices(G.mul, (G.identity,), G.gens))
    if reached != G.order:
        raise InvalidArgument(
            f"gens reach {reached} of the group's {G.order} elements")


def _extend_by_generators(G: FiniteGroup, gens, start, step):
    """Values on every element reached from the identity by left
    multiplication: value(g·x) = step(i, value(x)) for g = gens[i], with
    `start` at the identity. Returns (values indexed by element, None), or
    (None, (g, x)) at the first edge where two words give different values."""
    values = [None] * G.order
    values[G.identity] = start
    order = [G.identity]
    for x in order:
        vx = values[x]
        for i, g in enumerate(gens):
            y = G.mul[g][x]
            v = step(i, vx)
            if values[y] is None:
                values[y] = v
                order.append(y)
            elif values[y] != v:
                return None, (g, x)
    return values, None


def _integer(value, what):
    """value as an int; a float or other non-integer raises, where int()
    would truncate it."""
    try:
        return index(value)
    except TypeError:
        raise UnsupportedParameters(f"{what} is {value!r}, not an integer") from None


def group_from_table(table, caps: Caps = DEFAULT_CAPS) -> FiniteGroup:
    """Validate a multiplication table exhaustively and wrap it as a group."""
    n = len(table)
    if n == 0:
        raise NoIdentity()
    if n > caps.group_order_cap:
        raise GroupTooLarge(n, caps.group_order_cap)
    mul = []
    for row in table:
        row = tuple(_integer(x, "table entry") for x in row)
        if len(row) != n or any(not 0 <= x < n for x in row):
            raise InvalidArgument("table must be square over 0..n-1")
        mul.append(row)
    mul = tuple(mul)
    identity = _locate_identity(mul)
    _check_associative(mul)
    inverse = _locate_inverses(mul, identity)
    _, gens = _table_by_rows(n, mul.__getitem__, start=(identity,))
    return FiniteGroup(mul, identity, inverse, gens=gens)


def compose_maps(outer, inner):
    """The map x -> outer(inner(x))."""
    return tuple(map(outer.__getitem__, inner))


def _composer(inner):
    """The function outer -> outer∘inner, one C call per product:
    `itemgetter` over the entries of `inner`. itemgetter takes at least one
    index and returns a bare item for exactly one, so those lengths get
    their own functions."""
    if len(inner) > 1:
        return itemgetter(*inner)
    if inner:
        (i,) = inner
        return lambda outer: (outer[i],)
    return lambda outer: ()


def cayley_row(right, parent, via, i):
    """Every product i·j, indexed by j, read off a right Cayley graph
    (Froidure & Pin 1997) instead of composing elements.

    Generator g is element g and the graph is one column per generator:
    right[g][w] is the index of w·g. The spanning tree of a closure in
    right-only discovery order is two `array('i')` columns: element
    k + t (k generators) was first found as parent[t]·via[t], so
    i·(p·h) = (i·p)·h is one lookup, and parents come before children.
    """
    row = array("i", [col[i] for col in right])
    append = row.append
    for p, h in zip(parent, via):
        append(right[h][row[p]])
    return row


def _key_type(points):
    """The type a closure holds maps in: bytes when a byte holds every point."""
    return bytes if points <= 256 else tuple


def _right_closure(generators, key, cap, overflow):
    """Breadth-first composition closure of `generators`, maps of the same
    points, under right multiplication (Froidure & Pin 1997).

    Maps are held as `key(map)`: `bytes` on at most 256 points, where w∘g
    is one `bytes.translate` by w's padded table (bytes also hash faster
    than tuples), or tuples, where it is one `itemgetter` call
    (`_composer`). The deduplicated generators come first, in input order;
    each element w is then composed with every generator g on the right
    once. Returns (maps, keys, right, parent, via): the maps in discovery
    order, the dict from each map to its index, the right Cayley graph as
    one `array('i')` column per generator (right[g][w] is the index of
    w·g), and the spanning tree as two `array('i')` columns: element k + t
    (k generators) was first found as parent[t]·via[t]. A new element past
    `cap` raises `overflow(elements found)`.
    """
    maps, keys = [], {}
    for m in map(key, generators):
        if m not in keys:
            keys[m] = len(maps)
            maps.append(m)
    right = [array("i") for _ in maps]
    parent, via = array("i"), array("i")
    padded = key is bytes
    cols = [(g.translate if padded else _composer(g), h, col.append)
            for h, (g, col) in enumerate(zip(maps, right))]
    get = keys.get
    for w, m in enumerate(maps):
        tw = m.ljust(256, b"\0") if padded else m
        for times_g, h, r_add in cols:
            cand = times_g(tw)                      # w∘g
            got = get(cand)
            if got is None:
                if len(maps) >= cap:
                    raise overflow(len(maps))
                got = keys[cand] = len(maps)
                maps.append(cand)
                parent.append(w)
                via.append(h)
            r_add(got)
    return maps, keys, right, parent, via


def _table_by_rows(n, literal_row, start=()):
    """The multiplication table of an associative product on 0..n-1, from
    few literal rows: `literal_row(a)` is the row of a, indexed by b.

    The rows of `start` are read first; then each element not yet reached,
    in index order, has its row read and joins the generators. Every other
    row follows by associativity, (a·g)·x = a·(g·x), so row(a·g) =
    row(a)∘row(g): one `_composer` (C-level) call per row. Each reached
    element meets each generator once; those reached before a generator
    joined meet only that one when it does. Returns (rows, generators): the
    rows as a tuple of tuples, and the elements read after `start`. With
    start = (identity,) of a group those are its greedy generating set:
    each is the least element outside the subgroup the earlier ones
    generate, so there are at most log2(n) of them.
    """
    rows = [None] * n
    order = list(start)
    for s in start:
        rows[s] = literal_row(s)
    steps = []                      # (g, row -> row∘row(g))
    for h in range(n):
        if rows[h] is not None:
            continue
        rows[h] = literal_row(h)
        steps.append((h, _composer(rows[h])))
        closed = len(order)         # order[:closed] is closed under earlier steps
        order.append(h)
        for i, a in enumerate(order):       # grows
            row_a = rows[a]
            for g, times_g in steps if i >= closed else steps[-1:]:
                ag = row_a[g]
                if rows[ag] is None:
                    rows[ag] = times_g(row_a)
                    order.append(ag)
    return tuple(rows), tuple(g for g, _ in steps)


def _group_by_rows(n, literal_row, identity, gens=None, perms=None, name=None):
    """The group on 0..n-1 in which the row of a, indexed by b, is
    `literal_row(a)`, with `mul` and `inverse` built on first read.

    The identity's row is read here. Without `gens`, so are the rows of the
    greedy generating set: the least element not yet reached from the
    identity by the earlier generators' rows (`_walk`) joins, and the walk
    is repeated, until every element is reached. Those are the rows, and
    the generators, `_table_by_rows(start=(identity,))` reads, so then the
    deferred build (that call and `_locate_inverses`) reads no row that was
    not read here. Returns (group, the rows read here, by element).
    """
    rows = {identity: literal_row(identity)}
    if gens is None:
        gens, reached = [], {identity}
        for h in range(n):
            if h not in reached:
                rows[h] = literal_row(h)
                gens.append(h)
                reached = _walk([rows[g] for g in gens], reached)

    def tables():
        mul, _ = _table_by_rows(n, lambda a: rows.get(a) or literal_row(a), start=(identity,))
        return mul, _locate_inverses(mul, identity)

    return _DeferredGroup(_Tables(n, tables), identity, None, gens, perms, name), rows


def group_from_permutations(degree, generators, caps: Caps = DEFAULT_CAPS,
                            name=None) -> FiniteGroup:
    """Close permutation generators under composition (`_right_closure`);
    discovery element order. The table is filled on first read
    (`_group_by_rows`) from literal rows read off the closure's right
    Cayley graph (`cayley_row`)."""
    gens = []
    for i, g in enumerate(generators):
        p = tuple(_integer(x, f"generator {i} entry") for x in g)
        if len(p) != degree or sorted(p) != list(range(degree)):
            raise NotBijective(i, p)
        gens.append(p)
    key, cap = _key_type(degree), caps.group_order_cap
    maps, keys, right, parent, via = _right_closure(
        gens or [range(degree)], key, cap, lambda count: GroupTooLarge(count + 1, cap))
    return _group_by_rows(len(maps), lambda i: tuple(cayley_row(right, parent, via, i)),
                          keys[key(range(degree))], gens=range(len(right)),
                          perms=tuple(map(tuple, maps)), name=name)[0]


def subgroup_generated(G: FiniteGroup, seeds) -> Subgroup:
    members = _closure_indices(G.mul, (G.identity,), tuple(seeds))
    return Subgroup(G, frozenset(members))


def left_cosets(G: FiniteGroup, H: Subgroup) -> list[tuple[int, ...]]:
    """The left cosets gH as sorted tuples, ordered by least member."""
    seen: set[int] = set()
    cosets = []
    for g in G.elements():
        if g not in seen:
            cosets.append(tuple(sorted(G.mul[g][h] for h in H.members)))
            seen.update(cosets[-1])
    return cosets


def enumerate_subgroups(G: FiniteGroup, max_order_bound: int | None = None,
                        caps: Caps = DEFAULT_CAPS) -> list[Subgroup]:
    """Every subgroup exactly once, sorted by (order, member tuple).

    Neubüser's cyclic-extension method (Numer. Math. 2, 1960): breadth-first
    over one-generator extensions <H, g> of known subgroups, each closed from
    H over the generators of H plus g. Every subgroup arises because it is
    reachable by adjoining its own elements one at a time. One g is tried per
    right coset Hg, since <H, hg> = <H, g>. A subgroup of more than half of
    G is G itself and is not extended (Lagrange). The lattice is computed
    once per group and kept on it; the bound is checked on every call and
    every call returns a new list.
    """
    bound = max_order_bound if max_order_bound is not None else caps.subgroup_enum_cap
    if G.order > bound:
        raise GroupTooLarge(G.order, bound)
    if G.subgroups is None:
        G.subgroups = _subgroup_lattice(G)
    return list(G.subgroups)


def _subgroup_lattice(G: FiniteGroup) -> tuple[Subgroup, ...]:
    mul = G.mul
    trivial = frozenset({G.identity})
    found = {trivial: ()}       # subgroup -> a generating tuple
    queue = [trivial]
    while queue:
        H = queue.pop()
        if len(H) * 2 > G.order:
            continue
        gens = found[H]
        tried = set(H)
        for g in G.elements():
            if g in tried:
                continue
            tried.update(mul[h][g] for h in H)
            new = frozenset(_closure_indices(mul, H, gens + (g,)))
            if new not in found:
                found[new] = gens + (g,)
                queue.append(new)
    subs = [Subgroup(G, m) for m in found]
    subs.sort(key=lambda s: (s.order, s.sorted_members))
    return tuple(subs)


def normal_core(G: FiniteGroup, H: Subgroup) -> Subgroup:
    """Intersection of all conjugates of H; the largest normal subgroup inside
    H. Intersecting with the conjugates by the generators until the result
    is normal reaches it: every step keeps the core."""
    sub = Subgroup(G, H.members)
    while not sub.is_normal():
        core = sub.members
        sub = Subgroup(G, core.intersection(*({G.conjugate(g, a) for a in core}
                                              for g in G.gens)))
    return sub


def quotient_group(G: FiniteGroup, N: Subgroup) -> GroupQuotient:
    if N.parent is not G:
        raise GroupMismatch("subgroup of a different group")
    if not N.is_normal():
        raise NotNormal(*next((g, a) for g in G.elements() for a in N.members
                              if G.conjugate(g, a) not in N.members))
    cosets = left_cosets(G, N)
    coset_of = {m: idx for idx, members in enumerate(cosets) for m in members}
    reps = [c[0] for c in cosets]
    identity = coset_of[G.identity]
    mul, gens = _table_by_rows(
        len(cosets), lambda i: tuple(coset_of[G.mul[reps[i]][r]] for r in reps),
        start=(identity,))
    inverse = tuple(coset_of[G.inverse[r]] for r in reps)
    group = FiniteGroup(mul, identity, inverse, gens=gens)
    return GroupQuotient(G, N, tuple(cosets), group,
                         tuple(coset_of[g] for g in G.elements()))


@dataclass(frozen=True)
class IsomorphismResult:
    isomorphic: bool
    mapping: tuple[int, ...] | None  # A element -> B element
    refutation: dict | None

    def __bool__(self):
        return self.isomorphic


def are_isomorphic(A: FiniteGroup, B: FiniteGroup,
                   caps: Caps = DEFAULT_CAPS) -> IsomorphismResult:
    """Screen by cheap invariants, then backtrack over generator images."""
    if A.order > caps.iso_order_cap or B.order > caps.iso_order_cap:
        raise GroupTooLarge(max(A.order, B.order), caps.iso_order_cap)
    if A is B:
        return IsomorphismResult(True, tuple(range(A.order)), None)
    if A.order != B.order:
        return IsomorphismResult(False, None, {
            "reason": "order", "left": A.order, "right": B.order})
    if A.element_order_multiset() != B.element_order_multiset():
        return IsomorphismResult(False, None, {
            "reason": "element_orders",
            "left": list(A.element_order_multiset()),
            "right": list(B.element_order_multiset())})

    _require_generating(A)
    gens = A.gens
    order_of = {g: A.element_order(g) for g in gens}
    candidates = [
        [b for b in B.elements() if B.element_order(b) == order_of[g]] for g in gens
    ]

    def build(images):
        """The homomorphism sending gens to images, if there is one and it
        is a bijection. Extending checks phi(g·x) = phi(g)·phi(x) on every
        generator edge, so phi is a homomorphism (module docstring)."""
        phi, _ = _extend_by_generators(A, gens, B.identity,
                                       lambda i, b: B.mul[images[i]][b])
        if phi is None or len(set(phi)) != B.order:
            return None
        return tuple(phi)

    for images in itertools.product(*candidates):
        phi = build(images)
        if phi is not None:
            return IsomorphismResult(True, phi, None)
    return IsomorphismResult(False, None, {"reason": "exhausted",
                                           "generators": list(gens)})


def direct_product(A: FiniteGroup, B: FiniteGroup,
                   caps: Caps = DEFAULT_CAPS) -> FiniteGroup:
    """Pairs (a, b) indexed row-major as a * |B| + b."""
    n = A.order * B.order
    if n > caps.group_order_cap:
        raise GroupTooLarge(n, caps.group_order_cap)
    nb = B.order
    mul = tuple(
        tuple(A.mul[a1][a2] * nb + B.mul[b1][b2] for a2 in range(A.order)
              for b2 in range(nb))
        for a1 in range(A.order)
        for b1 in range(nb)
    )
    identity = A.identity * nb + B.identity
    inverse = tuple(A.inverse[x // nb] * nb + B.inverse[x % nb] for x in range(n))
    gens = tuple(sorted({g * nb + B.identity for g in A.gens}
                        | {A.identity * nb + g for g in B.gens}))
    name = None
    if A.name and B.name:
        name = f"{A.name}x{B.name}"
    return FiniteGroup(mul, identity, inverse, gens=gens, name=name)


# -- named groups ------------------------------------------------------------

def _cyclic(n: int) -> FiniteGroup:
    mul = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    inverse = tuple((-a) % n for a in range(n))
    gens = (1,) if n > 1 else ()
    perms = tuple(tuple((x + a) % n for x in range(n)) for a in range(n))
    return FiniteGroup(mul, 0, inverse, gens=gens, perms=perms, name=f"cyclic({n})")


def _symmetric(n: int) -> FiniteGroup:
    transposition = tuple([1, 0] + list(range(2, n)))
    cycle = tuple(list(range(1, n)) + [0])
    # S1 takes no generator (its closure is the identity), S2 one
    return group_from_permutations(n, [transposition, cycle][:n - 1], name=f"symmetric({n})")


def _dihedral(n: int) -> FiniteGroup:
    # symmetries of the regular n-gon on vertices 0..n-1
    rotation = tuple((x + 1) % n for x in range(n))
    reflection = tuple((-x) % n for x in range(n))
    return group_from_permutations(n, [rotation, reflection], name=f"dihedral({n})")


def _field(q):
    """The addition and multiplication tables of GF(q), q in {2, 3, 4}.
    GF(4) is F2[w]/(w^2 + w + 1) with element k = k0 + k1·w: addition is
    XOR, and the units 1, w, w^2 = 1 + w are 1, 2, 3, so a·b = w^(a+b-2)."""
    r = range(q)
    if q == 4:
        return ([[a ^ b for b in r] for a in r],
                [[(a + b - 2) % 3 + 1 if a and b else 0 for b in r] for a in r])
    return [[(a + b) % q for b in r] for a in r], [[a * b % q for b in r] for a in r]


@dataclass(frozen=True)
class AffineComponents:
    """An affine group's vectors and matrices, each matrix held as its map on
    the vector indices. `vectors` are in lexicographic order and `matrices`
    are the invertible ones in lexicographic order of their row-major
    entries. `acts[m][w]` is the index of matrices[m]·vectors[w] and
    `shifts[v][w]` that of vectors[v] + vectors[w], one `bytes` each.
    Element index = vector_index * |GL| + matrix_index."""
    q: int
    dim: int
    vectors: tuple
    matrices: tuple
    acts: tuple
    shifts: tuple


def affine_components(q: int, dim: int) -> AffineComponents:
    """The components of affine(q, dim), q in {2, 3, 4} (`named_group`
    checks q, dim and the order first). The M·w loop is the only matrix
    arithmetic: a matrix is invertible iff its act is a bijection."""
    add, mul = _field(q)
    vectors = tuple(itertools.product(range(q), repeat=dim))
    index = {v: i for i, v in enumerate(vectors)}
    matrices, acts = [], []
    for flat in itertools.product(range(q), repeat=dim * dim):
        rows = tuple(flat[i:i + dim] for i in range(0, dim * dim, dim))
        act = []
        for w in vectors:
            image = []
            for row in rows:
                acc = 0
                for a, b in zip(row, w):
                    acc = add[acc][mul[a][b]]
                image.append(acc)
            act.append(index[tuple(image)])
        if len(set(act)) == len(vectors):
            matrices.append(rows)
            acts.append(bytes(act))
    shifts = tuple(bytes(index[tuple(add[a][b] for a, b in zip(v, w))] for w in vectors)
                   for v in vectors)
    return AffineComponents(q, dim, vectors, tuple(matrices), tuple(acts), shifts)


def _affine(q: int, dim: int, order: int) -> FiniteGroup:
    """Vector-matrix pairs (v, M) with (v, M)(w, N) = (v + Mw, MN), element
    index vector_index * |GL| + matrix_index (`AffineComponents`).

    `named_group` checks q, dim and the order first. Element (v, M) is the
    permutation w -> v + Mw of the vector indices, M's act translated by
    v's shift, and these compose like the pairs, so the group is
    `_group_by_rows` over literal rows of composed permutations, one dict
    lookup an entry: the greedy generators' rows are read here, the table
    on first read.
    """
    comp = affine_components(q, dim)
    perms = [act.translate(shift.ljust(256, b"\0"))        # w -> v + Mw
             for shift in comp.shifts for act in comp.acts]
    keys = dict(zip(perms, range(order)))   # one int object per element

    def literal_row(a):
        ta = perms[a].ljust(256, b"\0")
        return tuple([keys[p.translate(ta)] for p in perms])

    return _group_by_rows(order, literal_row, keys[bytes(range(len(comp.vectors)))],  # (0, I)
                          perms=tuple(map(tuple, perms)), name=f"affine({q},{dim})")[0]


def named_group(name: str, caps: Caps = DEFAULT_CAPS, **params) -> FiniteGroup:
    """cyclic(n) | symmetric(n) | dihedral(n) | affine(q, dim).

    Each family's parameters are checked against its bounds
    (UnsupportedParameters), then its closed-form order against
    `group_order_cap` (GroupTooLarge), before anything is built: n, n!, 2n,
    and q^dim·∏_{i<dim}(q^dim − q^i). The bounds only keep the closed form
    cheap and the family supported: n <= 6 before n!, and q in {2, 3, 4}
    with dim <= 3 for the affine groups, whose matrices are enumerated.
    """
    if name == "cyclic":
        n = _integer(params["n"], "n")
        if n < 1:
            raise UnsupportedParameters(f"cyclic({n}) outside bounds")
        order, build, args = n, _cyclic, (n,)
    elif name == "symmetric":
        n = _integer(params["n"], "n")
        if not 1 <= n <= 6:
            raise UnsupportedParameters(f"symmetric({n}) outside bounds (n <= 6)")
        order, build, args = math.factorial(n), _symmetric, (n,)
    elif name == "dihedral":
        n = _integer(params["n"], "n")
        if n < 3:
            raise UnsupportedParameters(f"dihedral({n}) outside bounds")
        order, build, args = 2 * n, _dihedral, (n,)
    elif name == "affine":
        q, dim = _integer(params["q"], "q"), _integer(params["dim"], "dim")
        if q not in (2, 3, 4) or not 1 <= dim <= 3:
            raise UnsupportedParameters(
                f"affine needs q in {{2,3,4}} and dim <= 3, got q={q}, dim={dim}")
        order = q ** dim * math.prod(q ** dim - q ** i for i in range(dim))
        build, args = _affine, (q, dim, order)
    else:
        raise UnsupportedParameters(f"unknown group family {name!r}")
    if order > caps.group_order_cap:
        raise GroupTooLarge(order, caps.group_order_cap)
    return build(*args)


def quaternion_group() -> FiniteGroup:
    """Q8 with elements 1, -1, i, -i, j, -j, k, -k (in that order)."""
    # index: 0:1 1:-1 2:i 3:-i 4:j 5:-j 6:k 7:-k
    sign = [1, -1, 1, -1, 1, -1, 1, -1]
    base = [0, 0, 1, 1, 2, 2, 3, 3]  # 0:1, 1:i, 2:j, 3:k
    basis_mul = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }

    def idx(s, b):
        return 2 * b + (0 if s == 1 else 1)

    mul = []
    for a in range(8):
        row = []
        for b in range(8):
            s, c = basis_mul[(base[a], base[b])]
            s *= sign[a] * sign[b]
            row.append(idx(s, c))
        mul.append(tuple(row))
    mul = tuple(mul)
    identity = 0
    inverse = _locate_inverses(mul, identity)
    return FiniteGroup(mul, identity, inverse, gens=(2, 4), name="quaternion")
