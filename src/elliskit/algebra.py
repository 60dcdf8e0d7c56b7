"""Finite groups by multiplication table, with subgroup and quotient algebra.

Elements are always the indices 0..n-1. The canonical element order of a
group built from permutation generators is discovery order: a breadth-first
walk that starts from the deduplicated generators (in input order) and
right-multiplies by generators. An affine group is built from each
matrix's map on the vector indices: its GL products are composed maps, so
the only GF(q) arithmetic is one M·w loop. All values are immutable after
construction, except that a group fills in its subgroup lattice on first
enumeration, and all operations are pure.
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


class FiniteGroup:
    """A finite group on elements 0..order-1 with a full multiplication table.

    `perms`, when present, realizes each element as a permutation of
    0..degree-1 (the group was built from permutation generators and `mul`
    is composition). `gens` is a small generating set, always consistent
    with `mul`. `subgroups` is the sorted subgroup lattice, filled by the
    first `enumerate_subgroups` call.
    """

    __slots__ = ("order", "mul", "identity", "inverse", "gens", "perms", "name",
                 "subgroups")

    def __init__(self, mul, identity, inverse, gens, perms=None, name=None):
        self.order = len(mul)
        self.mul = mul
        self.identity = identity
        self.inverse = inverse
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


def small_generating_set(mul, identity) -> tuple[int, ...]:
    """Greedy generating set; at most log2(order) elements. The subgroup
    generated so far is regrown by `_closure_indices` from the identity:
    |G|·|gens| lookups a step."""
    n = len(mul)
    gens: list[int] = []
    have = {identity}
    for a in range(n):
        if a in have:
            continue
        gens.append(a)
        have = _closure_indices(mul, (identity,), gens)
        if len(have) == n:
            break
    return tuple(gens)


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
    held (a table row, a flow's point map, a Cayley graph column), so no
    caller transposes."""
    seen = set(starts)
    order = list(seen)
    for x in order:
        for m in maps:
            y = m[x]
            if y not in seen:
                seen.add(y)
                order.append(y)
    return seen


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
    return FiniteGroup(mul, identity, inverse, gens=small_generating_set(mul, identity))


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


def cayley_table(right, parent, via):
    """The full multiplication table, one row at a time.

    Only the generator rows are read off the graph with `cayley_row`. By
    associativity (p·h)·x = p·(h·x), so row(p·h) = row(p)∘row(h): every other
    row is its tree parent's row composed with a generator row, one
    `_composer` (C-level) call per row.
    """
    rows = [tuple(cayley_row(right, parent, via, g)) for g in range(len(right))]
    after = [_composer(row) for row in rows]
    for p, h in zip(parent, via):
        rows.append(after[h](rows[p]))
    return tuple(rows)


def group_from_permutations(degree, generators, caps: Caps = DEFAULT_CAPS,
                            name=None) -> FiniteGroup:
    """Close permutation generators under composition; discovery element
    order. The closure keeps its right Cayley graph and spanning tree,
    which then fill the multiplication table by row composition."""
    perms: list[tuple[int, ...]] = []
    seen: dict[tuple[int, ...], int] = {}
    for i, g in enumerate(generators):
        p = tuple(_integer(x, f"generator {i} entry") for x in g)
        if len(p) != degree or sorted(p) != list(range(degree)):
            raise NotBijective(i, p)
        if p not in seen:
            seen[p] = len(perms)
            perms.append(p)
    if not perms:
        ident = tuple(range(degree))
        seen[ident] = 0
        perms.append(ident)
    gen_count = len(perms)
    after = [(_composer(g), []) for g in perms]     # w -> w∘g, its column
    parent, via = array("i"), array("i")
    for w, perm in enumerate(perms):
        for gi, (times_g, col) in enumerate(after):
            cand = times_g(perm)
            got = seen.get(cand)
            if got is None:
                if len(perms) >= caps.group_order_cap:
                    raise GroupTooLarge(len(perms) + 1, caps.group_order_cap)
                got = seen[cand] = len(perms)
                perms.append(cand)
                parent.append(w)
                via.append(gi)
            col.append(got)
    mul = cayley_table([col for _, col in after], parent, via)
    identity = seen[tuple(range(degree))]
    inverse = _locate_inverses(mul, identity)
    return FiniteGroup(
        mul, identity, inverse,
        gens=tuple(range(gen_count)),
        perms=tuple(perms),
        name=name,
    )


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
    k = len(cosets)
    reps = [c[0] for c in cosets]
    mul = tuple(
        tuple(coset_of[G.mul[reps[i]][reps[j]]] for j in range(k)) for i in range(k)
    )
    identity = coset_of[G.identity]
    inverse = tuple(coset_of[G.inverse[reps[i]]] for i in range(k))
    group = FiniteGroup(mul, identity, inverse,
                        gens=small_generating_set(mul, identity))
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

    gens = A.gens
    generated = len(_closure_indices(A.mul, (A.identity,), gens))
    if generated != A.order:
        raise NotAssociative(("gens", "do not generate", generated))
    order_of = {g: A.element_order(g) for g in gens}
    candidates = [
        [b for b in B.elements() if B.element_order(b) == order_of[g]] for g in gens
    ]

    def build(images):
        """The homomorphism sending gens to images, if there is one and it
        is a bijection."""
        phi, _ = _extend_by_generators(A, gens, B.identity,
                                       lambda i, b: B.mul[images[i]][b])
        if phi is None or len(set(phi)) != B.order:
            return None
        for a in A.elements():
            pa = phi[a]
            for b in A.elements():
                if B.mul[pa][phi[b]] != phi[A.mul[a][b]]:
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
    if n == 1:
        return group_from_permutations(1, [tuple(range(1))], name="symmetric(1)")
    transposition = tuple([1, 0] + list(range(2, n)))
    cycle = tuple(list(range(1, n)) + [0])
    gens = [transposition] if n == 2 else [transposition, cycle]
    return group_from_permutations(n, gens, name=f"symmetric({n})")


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


def _affine(q: int, dim: int, caps: Caps) -> FiniteGroup:
    """Vector-matrix pairs (v, M) with (v, M)(w, N) = (v + Mw, MN), element
    index vector_index * |GL| + matrix_index (`AffineComponents`).

    q and dim are checked, and the order q^dim·∏_{i<dim}(q^dim − q^i)
    against `named_group_cap`, before anything is enumerated. The GL
    product M·N is the composed acts looked up among the acts, and the
    inverses are searched in the table.
    """
    if q not in (2, 3, 4) or not 1 <= dim <= 3:
        raise UnsupportedParameters(
            f"affine needs q in {{2,3,4}} and dim <= 3, got q={q}, dim={dim}")
    order = q ** dim * math.prod(q ** dim - q ** i for i in range(dim))
    if order > caps.named_group_cap:
        raise UnsupportedParameters(
            f"affine({q},{dim}) has order {order}, above cap {caps.named_group_cap}")
    comp = affine_components(q, dim)
    matvec, vecadd = comp.acts, comp.shifts
    nv, nm = len(matvec[0]), len(matvec)
    mat_index = {act: i for i, act in enumerate(matvec)}
    matmul = []
    for m in matvec:
        after_m = m.ljust(256, b"\0")       # w -> M·w as a translate table
        matmul.append([mat_index[n.translate(after_m)] for n in matvec])

    ids = list(range(order))        # one int object per element, shared by the rows
    mul = []
    for vi in range(nv):
        row_add = vecadd[vi]
        for mi in range(nm):
            mv = matvec[mi]
            mm = matmul[mi]
            mul.append(tuple(
                ids[row_add[mv[wj]] * nm + mm[nj]]
                for wj in range(nv) for nj in range(nm)
            ))
    mul = tuple(mul)
    identity = mat_index[bytes(range(nv))]      # (0, I)
    return FiniteGroup(mul, identity, _locate_inverses(mul, identity),
                       gens=small_generating_set(mul, identity),
                       name=f"affine({q},{dim})")


def named_group(name: str, caps: Caps = DEFAULT_CAPS, **params) -> FiniteGroup:
    """cyclic(n) | symmetric(n) | dihedral(n) | affine(q, dim)."""
    if name == "cyclic":
        n = _integer(params["n"], "n")
        if not 1 <= n <= caps.named_group_cap:
            raise UnsupportedParameters(f"cyclic({n}) outside bounds")
        return _cyclic(n)
    if name == "symmetric":
        n = _integer(params["n"], "n")
        if not 1 <= n <= 6:
            raise UnsupportedParameters(f"symmetric({n}) outside bounds (n <= 6)")
        return _symmetric(n)
    if name == "dihedral":
        n = _integer(params["n"], "n")
        if not 3 <= n <= caps.named_group_cap // 2:
            raise UnsupportedParameters(f"dihedral({n}) outside bounds")
        return _dihedral(n)
    if name == "affine":
        return _affine(_integer(params["q"], "q"), _integer(params["dim"], "dim"), caps)
    raise UnsupportedParameters(f"unknown group family {name!r}")


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
