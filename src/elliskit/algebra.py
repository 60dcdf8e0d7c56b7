"""Finite groups by multiplication table, with subgroup and quotient algebra.

Elements are always the indices 0..n-1. The canonical element order of a
group built from permutation generators is discovery order: a breadth-first
walk that starts from the deduplicated generators (in input order) and
right-multiplies by generators. All values are immutable after construction,
except that a group fills in its subgroup lattice on first enumeration, and
all operations are pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import index, itemgetter

from .caps import DEFAULT_CAPS, Caps
from .errors import (
    GroupTooLarge,
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
        G = self.parent
        return all(
            G.conjugate(g, a) in self.members
            for g in G.elements()
            for a in self.members
        )


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
        b = row.index(identity) if identity in row else None
        if b is None or mul[b][a] != identity:
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
    that subgroup, such as the identity or a subgroup already known), by a
    breadth-first walk from the seed right-multiplying by generators: in a
    finite group the products of generators are the whole subgroup.
    |result|·|gens| lookups."""
    members = set(seed)
    frontier = list(members)
    for x in frontier:
        row = mul[x]
        for g in gens:
            y = row[g]
            if y not in members:
                members.add(y)
                frontier.append(y)
    return members


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
            raise ValueError("table must be square over 0..n-1")
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


def cayley_row(right, tree, i):
    """Every product i·j, indexed by j, read off a right Cayley graph
    (Froidure & Pin 1997) instead of composing elements.

    Generator g is element g and right[w][g] is the index of w·g. `tree`
    lists triples (j, p, g) with j = p·g, parents before children, covering
    every non-generator, so i·j = (i·p)·g is one lookup.
    """
    row = [0] * len(right)
    row[:len(right[i])] = right[i]
    for j, p, g in tree:
        row[j] = right[row[p]][g]
    return row


def cayley_table(right, tree):
    """The full multiplication table, one row at a time.

    Only the generator rows are read off the graph with `cayley_row`. By
    associativity (p·g)·x = p·(g·x), so row(p·g) = row(p)∘row(g): every other
    row is its tree parent's row composed with a generator row, one
    `_composer` (C-level) call per row.
    """
    rows = [tuple(cayley_row(right, tree, g)) for g in range(len(right[0]))]
    after = [_composer(row) for row in rows]
    rows.extend([None] * (len(right) - len(rows)))
    for j, p, g in tree:
        rows[j] = after[g](rows[p])
    return tuple(rows)


def group_from_permutations(degree, generators, caps: Caps = DEFAULT_CAPS,
                            name=None) -> FiniteGroup:
    """Close permutation generators under composition; discovery element
    order. The closure keeps its right Cayley graph, which then fills the
    multiplication table by row composition."""
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
    after = [_composer(g) for g in perms]       # w -> w∘g
    right: list[tuple[int, ...]] = []
    tree: list[tuple[int, int, int]] = []
    for w, perm in enumerate(perms):
        edges = []
        for gi, times_g in enumerate(after):
            cand = times_g(perm)
            got = seen.get(cand)
            if got is None:
                if len(perms) >= caps.group_order_cap:
                    raise GroupTooLarge(len(perms) + 1, caps.group_order_cap)
                got = seen[cand] = len(perms)
                perms.append(cand)
                tree.append((got, w, gi))
            edges.append(got)
        right.append(tuple(edges))
    mul = cayley_table(right, tree)
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
    """Intersection of all conjugates of H; the largest normal subgroup inside H."""
    core = set(H.members)
    for g in G.elements():
        conj = {G.conjugate(g, a) for a in H.members}
        core &= conj
        if len(core) == 1:
            break
    sub = Subgroup(G, frozenset(core))
    if not sub.is_normal():
        raise NotNormal("core", sorted(core))
    return sub


def quotient_group(G: FiniteGroup, N: Subgroup) -> GroupQuotient:
    for g in G.elements():
        for a in N.members:
            if G.conjugate(g, a) not in N.members:
                raise NotNormal(g, a)
    coset_of = [None] * G.order
    cosets: list[tuple[int, ...]] = []
    for g in G.elements():
        if coset_of[g] is not None:
            continue
        members = tuple(sorted(G.mul[g][h] for h in N.members))
        idx = len(cosets)
        cosets.append(members)
        for m in members:
            coset_of[m] = idx
    k = len(cosets)
    reps = [c[0] for c in cosets]
    mul = tuple(
        tuple(coset_of[G.mul[reps[i]][reps[j]]] for j in range(k)) for i in range(k)
    )
    # well-definedness over full cosets, not only representatives
    for i in range(k):
        for a in cosets[i]:
            for j in range(k):
                for b in cosets[j]:
                    if coset_of[G.mul[a][b]] != mul[i][j]:
                        raise NotNormal(a, b)
    identity = coset_of[G.identity]
    inverse = tuple(coset_of[G.inverse[reps[i]]] for i in range(k))
    group = FiniteGroup(mul, identity, inverse,
                        gens=small_generating_set(mul, identity))
    return GroupQuotient(G, N, tuple(cosets), group, tuple(coset_of))


@dataclass(frozen=True)
class IsomorphismResult:
    isomorphic: bool
    mapping: tuple[int, ...] | None  # A element -> B element
    refutation: dict | None

    def __bool__(self):
        return self.isomorphic


def _element_words(G: FiniteGroup):
    """parent[x] = (prev, gen) decomposition of every element over G.gens."""
    parent: dict[int, tuple[int, int] | None] = {G.identity: None}
    frontier = [G.identity]
    while frontier:
        new = []
        for x in frontier:
            for g in G.gens:
                y = G.mul[x][g]
                if y not in parent:
                    parent[y] = (x, g)
                    new.append(y)
        frontier = new
    if len(parent) != G.order:
        raise NotAssociative(("gens", "do not generate", len(parent)))
    return parent


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
    words = _element_words(A)
    order_of = {g: A.element_order(g) for g in gens}
    candidates = [
        [b for b in B.elements() if B.element_order(b) == order_of[g]] for g in gens
    ]

    def build(images):
        phi = {A.identity: B.identity}
        frontier = [A.identity]
        while frontier:
            new = []
            for x in frontier:
                for gi, g in enumerate(gens):
                    y = A.mul[x][g]
                    img = B.mul[phi[x]][images[gi]]
                    if y in phi:
                        if phi[y] != img:
                            return None
                    else:
                        phi[y] = img
                        new.append(y)
            frontier = new
        if len(set(phi.values())) != B.order:
            return None
        for a in A.elements():
            pa = phi[a]
            for b in A.elements():
                if B.mul[pa][phi[b]] != phi[A.mul[a][b]]:
                    return None
        return tuple(phi[a] for a in A.elements())

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


class _GF:
    """GF(q) for q in {2, 3, 4} with explicit add/mul tables."""

    def __init__(self, q):
        if q in (2, 3):
            self.q = q
            self.add = [[(a + b) % q for b in range(q)] for a in range(q)]
            self.mul = [[(a * b) % q for b in range(q)] for a in range(q)]
        elif q == 4:
            # GF(4) as F2[w]/(w^2+w+1); element k = bits (k1, k0) of k0 + k1*w
            self.q = 4
            self.add = [[a ^ b for b in range(4)] for a in range(4)]

            def gmul(a, b):
                r = 0
                for bit in (1, 0):
                    r <<= 1
                    if r & 4:
                        r ^= 7  # reduce by w^2 + w + 1
                    if (b >> bit) & 1:
                        r ^= a
                return r

            self.mul = [[gmul(a, b) for b in range(4)] for a in range(4)]
        else:
            raise UnsupportedParameters(f"q={q} is not one of 2, 3, 4")

    def neg(self, a):
        for b in range(self.q):
            if self.add[a][b] == 0:
                return b
        raise AssertionError


def _gf_matrix_rank(F, rows, dim):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(dim):
        pivot = next((r for r in range(rank, dim) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        # scale pivot row to 1
        inv = next(s for s in range(1, F.q) if F.mul[rows[rank][col]][s] == 1)
        rows[rank] = [F.mul[x][inv] for x in rows[rank]]
        for r in range(dim):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [F.add[x][F.neg(F.mul[factor][y])]
                           for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@dataclass(frozen=True)
class AffineComponents:
    """Structure data of an affine group: the field, the lexicographically
    ordered vectors, and the invertible matrices in lexicographic order of
    their row-major entries. Element index = vector_index * |GL| + matrix_index."""
    q: int
    dim: int
    field: "_GF"
    vectors: tuple
    matrices: tuple

    def vector_index(self, v) -> int:
        return self.vectors.index(tuple(v))

    def matrix_index(self, M) -> int:
        return self.matrices.index(tuple(tuple(r) for r in M))

    def mat_vec(self, M, v):
        return tuple(_dot(self.field, row, v) for row in M)


def affine_components(q: int, dim: int) -> AffineComponents:
    if q not in (2, 3, 4) or not 1 <= dim <= 3:
        raise UnsupportedParameters(
            f"affine needs q in {{2,3,4}} and dim <= 3, got q={q}, dim={dim}")
    F = _GF(q)
    vectors = tuple(itertools.product(range(q), repeat=dim))
    matrices = []
    for flat in itertools.product(range(q), repeat=dim * dim):
        rows = tuple(flat[i * dim:(i + 1) * dim] for i in range(dim))
        if _gf_matrix_rank(F, rows, dim) == dim:
            matrices.append(rows)
    return AffineComponents(q, dim, F, vectors, tuple(matrices))


def _affine(q: int, dim: int, caps: Caps) -> FiniteGroup:
    """Vector-matrix pairs (v, M) with (v, M)(w, N) = (v + Mw, MN).

    Vectors are enumerated lexicographically; matrices in lexicographic
    order of their row-major entry tuples, invertible ones kept. Element
    index = vector_index * |GL| + matrix_index.
    """
    comp = affine_components(q, dim)
    F = comp.field
    vectors = list(comp.vectors)
    matrices = list(comp.matrices)
    nv, nm = len(vectors), len(matrices)
    order = nv * nm
    if order > caps.named_group_cap:
        raise UnsupportedParameters(
            f"affine({q},{dim}) has order {order}, above cap {caps.named_group_cap}")
    vec_index = {v: i for i, v in enumerate(vectors)}
    mat_index = {m: i for i, m in enumerate(matrices)}

    def mat_mat(M, N):
        cols = list(zip(*N))
        return tuple(
            tuple(_dot(F, row, col) for col in cols) for row in M
        )

    matvec = [[vec_index[comp.mat_vec(M, v)] for v in vectors] for M in matrices]
    matmul = [[mat_index[mat_mat(M, N)] for N in matrices] for M in matrices]
    vecadd = [[vec_index[tuple(F.add[a][b] for a, b in zip(v, w))] for w in vectors]
              for v in vectors]

    mul = []
    for vi in range(nv):
        row_add = vecadd[vi]
        for mi in range(nm):
            mv = matvec[mi]
            mm = matmul[mi]
            mul.append(tuple(
                row_add[mv[wj]] * nm + mm[nj]
                for wj in range(nv) for nj in range(nm)
            ))
    mul = tuple(mul)
    ident_mat = tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))
    identity = 0 * nm + mat_index[ident_mat]

    inverse = [0] * order
    inv_mat = [None] * nm
    for mi in range(nm):
        for mj in range(nm):
            if matmul[mi][mj] == mat_index[ident_mat] and matmul[mj][mi] == mat_index[ident_mat]:
                inv_mat[mi] = mj
                break
    neg_vec = [vec_index[tuple(F.neg(x) for x in v)] for v in vectors]
    for vi in range(nv):
        for mi in range(nm):
            mj = inv_mat[mi]
            wi = matvec[mj][neg_vec[vi]]
            inverse[vi * nm + mi] = wi * nm + mj
    gens = small_generating_set(mul, identity)
    return FiniteGroup(mul, identity, tuple(inverse), gens=gens,
                       name=f"affine({q},{dim})")


def _dot(F, row, col):
    acc = 0
    for a, b in zip(row, col):
        acc = F.add[acc][F.mul[a][b]]
    return acc


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
