"""Literal reference implementations of the closure, ideal, group-table,
subgroup-lattice, normality, invariance, witnessed-relation,
invariant-relation (every partition, filtered), witness-support and
maximal-witness code in
``elliskit``, the index-walking Tarjan it replaced, the class formula for
witnessed classes, pseudo-closed lattices held as frozensets of
indices, and affine groups by matrix arithmetic over GF(q). The production paths read products off Cayley graphs, work from
generators and hold sets as bitmasks; these compose, multiply, scan
everything or walk sets index by index instead, so they are slow but
obviously right, and the differential tests compare the two.
"""

from __future__ import annotations

import functools
import itertools

from elliskit.algebra import Subgroup
from elliskit.errors import NotALattice, NotAWitness, SizeCapExceeded
from elliskit.relations import (
    EquivRelation,
    RRelationResult,
    WeakOrbitalityVerdict,
    WitnessPair,
)


def compose(outer, inner):
    return tuple(outer[i] for i in inner)


def closure(maps):
    """Discovery-order closure by right-only BFS: each element times every
    generator on the right, the order `permutation_group` uses. Returns the
    elements and the generator indices."""
    elements: list[tuple[int, ...]] = []
    index: dict[tuple[int, ...], int] = {}
    for m in maps:
        m = tuple(m)
        if m not in index:
            index[m] = len(elements)
            elements.append(m)
    gen_count = len(elements)
    cursor = 0
    while cursor < len(elements):
        w = elements[cursor]
        cursor += 1
        for gi in range(gen_count):
            cand = compose(w, elements[gi])
            if cand not in index:
                index[cand] = len(elements)
                elements.append(cand)
    return tuple(elements), tuple(range(gen_count))


def composition_table(elements):
    """table[i][j] is the index of elements[i]∘elements[j]."""
    index = {e: i for i, e in enumerate(elements)}
    return tuple(tuple(index[compose(a, b)] for b in elements) for a in elements)


def left_reach(table, generators, s):
    """S·s by repeated left multiplication with the generators."""
    seen = set()
    frontier = [table[g][s] for g in generators]
    seen.update(frontier)
    while frontier:
        new = []
        for x in frontier:
            for g in generators:
                y = table[g][x]
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def minimal_left_ideals(table, generators):
    """(members, idempotents) of each minimal set S·s, by comparing all of
    them; sorted by least member."""
    reaches = {frozenset(left_reach(table, generators, s)) for s in range(len(table))}
    minimal = [c for c in reaches if not any(o < c for o in reaches)]
    out = []
    for c in minimal:
        members = tuple(sorted(c))
        out.append((members, tuple(s for s in members if table[s][s] == s)))
    return sorted(out)


def closure_indices(mul, seed):
    """Pairwise closure of a subset of a group under multiplication."""
    members = set(seed)
    frontier = sorted(members)
    while frontier:
        new = []
        for a in frontier:
            for b in list(members):
                for c in (mul[a][b], mul[b][a]):
                    if c not in members:
                        members.add(c)
                        new.append(c)
        frontier = new
    return members


def enumerate_subgroups(mul, identity):
    """The member tuple of every subgroup, by pairwise closure of each known
    subgroup with each element outside it; sorted by (order, members)."""
    n = len(mul)
    trivial = frozenset({identity})
    found = {trivial}
    queue = [trivial]
    while queue:
        H = queue.pop()
        for g in range(n):
            if g in H:
                continue
            if (len(H) * 2) > n and len(H) != n:
                # any proper extension at least doubles the subgroup
                continue
            new = frozenset(closure_indices(mul, set(H) | {g}))
            if new not in found:
                found.add(new)
                queue.append(new)
    return sorted((tuple(sorted(m)) for m in found), key=lambda m: (len(m), m))


def is_normal(G, members):
    """Closed under conjugation by every element of G."""
    return all(G.conjugate(g, a) in members for g in G.elements() for a in members)


def normal_core(G, members):
    """The intersection of the conjugates of a subgroup by every element."""
    core = set(members)
    for g in G.elements():
        core &= {G.conjugate(g, a) for a in members}
    return frozenset(core)


def coset_products_well_defined(G, quotient):
    """Every product of coset members lands in the coset the quotient table
    gives for the two cosets."""
    k = len(quotient.cosets)
    return all(quotient.projection[G.mul[a][b]] == quotient.group.mul[i][j]
               for i in range(k) for a in quotient.cosets[i]
               for j in range(k) for b in quotient.cosets[j])


def invariance(flow, class_of):
    """(invariant, first witness (g, x0, x)) by scanning every acting map:
    every element of a group flow, every generator of a transformation
    flow."""
    n = flow.points
    for g, m in enumerate(flow.maps):
        image_class = [None] * len(set(class_of))
        for x in range(n):
            y = m[x]
            c = class_of[x]
            if image_class[c] is None:
                image_class[c] = class_of[y]
            elif image_class[c] != class_of[y]:
                x0 = next(z for z in range(n)
                          if class_of[z] == c and class_of[m[z]] == image_class[c])
                return False, (g, x0, x)
    return True, None


def small_generating_set(mul, identity):
    """Greedy generating set, regrowing the subgroup by pairwise closure."""
    gens = []
    have = {identity}
    for a in range(len(mul)):
        if a in have:
            continue
        gens.append(a)
        have = closure_indices(mul, have | {a})
        if len(have) == len(mul):
            break
    return tuple(gens)


def two_sided_inverses(mul, identity):
    return tuple(
        next(b for b in range(len(mul))
             if mul[a][b] == identity and mul[b][a] == identity)
        for a in range(len(mul))
    )


def ideal_group(table, ideal_members, u):
    """The group u·M: (members, multiplication table, inverses, generators),
    every entry by lookup in the full table and every inverse by search."""
    members = tuple(sorted({table[u][m] for m in ideal_members}))
    pos = {s: i for i, s in enumerate(members)}
    for s in members:
        assert table[u][s] == s, "u is not a left identity on u·M"
        assert any(table[t][s] == u for t in members), "missing left inverse"
    mul = tuple(tuple(pos[table[a][b]] for b in members) for a in members)
    identity = pos[u]
    return (members, mul, two_sided_inverses(mul, identity),
            small_generating_set(mul, identity))


def permutation_group(degree, generators):
    """Discovery-order closure of permutations under right multiplication by
    the generators, with the table filled by composing every pair."""
    perms: list[tuple[int, ...]] = []
    seen: dict[tuple[int, ...], int] = {}
    for g in generators:
        p = tuple(g)
        if p not in seen:
            seen[p] = len(perms)
            perms.append(p)
    gen_count = len(perms)
    cursor = 0
    while cursor < len(perms):
        w = perms[cursor]
        cursor += 1
        for gi in range(gen_count):
            cand = compose(w, perms[gi])
            if cand not in seen:
                seen[cand] = len(perms)
                perms.append(cand)
    n = len(perms)
    mul = tuple(
        tuple(seen[compose(perms[a], perms[b])] for b in range(n))
        for a in range(n)
    )
    return tuple(perms), mul, two_sided_inverses(mul, seen[tuple(range(degree))])


def affine_group(q, dim):
    """AGL(dim, q), q in {2, 3, 4}, by matrix arithmetic: (product, identity,
    order), where product(a, b) is the index of a·b.

    Elements are pairs (v, M) with (v, M)(w, N) = (v + Mw, MN), indexed
    v_index * |GL| + M_index: vectors in lexicographic order, and the
    matrices (tuples of rows) of rank dim by Gaussian elimination, in
    lexicographic order of their rows. GF(4) is F2[w]/(w^2 + w + 1) with
    k = k0 + k1·w, multiplied as polynomials.
    """
    if q == 4:
        def add(a, b):
            return a ^ b

        def mul(a, b):
            r = (a if b & 1 else 0) ^ (a << 1 if b & 2 else 0)
            return r ^ 0b111 if r & 0b100 else r    # w^2 = w + 1
    else:
        def add(a, b):
            return (a + b) % q

        def mul(a, b):
            return a * b % q

    def neg(a):
        return next(b for b in range(q) if add(a, b) == 0)

    def rank(rows):
        rows = [list(r) for r in rows]
        rank = 0
        for col in range(dim):
            pivot = next((r for r in range(rank, dim) if rows[r][col]), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            inv = next(s for s in range(1, q) if mul(rows[rank][col], s) == 1)
            rows[rank] = [mul(x, inv) for x in rows[rank]]
            for r in range(dim):
                if r != rank and rows[r][col]:
                    f = rows[r][col]
                    rows[r] = [add(x, neg(mul(f, y))) for x, y in zip(rows[r], rows[rank])]
            rank += 1
        return rank

    def dot(row, col):
        acc = 0
        for a, b in zip(row, col):
            acc = add(acc, mul(a, b))
        return acc

    vectors = list(itertools.product(range(q), repeat=dim))
    matrices = [m for m in (tuple(flat[i * dim:(i + 1) * dim] for i in range(dim))
                            for flat in itertools.product(range(q), repeat=dim * dim))
                if rank(m) == dim]
    vector_index = {v: i for i, v in enumerate(vectors)}
    matrix_index = {m: i for i, m in enumerate(matrices)}
    nm = len(matrices)

    @functools.cache
    def mat_vec(m, w):
        return tuple(dot(row, vectors[w]) for row in matrices[m])

    @functools.cache
    def mat_mat(m, n):
        cols = list(zip(*matrices[n]))
        return matrix_index[tuple(tuple(dot(row, col) for col in cols)
                                  for row in matrices[m])]

    def product(a, b):
        (v, m), (w, n) = divmod(a, nm), divmod(b, nm)
        vector = tuple(map(add, vectors[v], mat_vec(m, w)))
        return vector_index[vector] * nm + mat_mat(m, n)

    ident = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    return product, matrix_index[ident], len(vectors) * nm


def product_act(flows, g, x):
    """The product action decoded coordinatewise: split the row-major group
    element and point into factor indices, act in each factor, re-encode."""
    gs, xs = [], []
    for f in reversed(flows):
        g, r = divmod(g, f.group.order)
        gs.append(r)
        x, r = divmod(x, f.points)
        xs.append(r)
    y = 0
    for f, gi, xi in zip(flows, reversed(gs), reversed(xs)):
        y = y * f.points + f.act(gi, xi)
    return y


def union_act(flows, g, x):
    """The union action by offset search: find the block holding x, act in
    that block and shift the image back by the block's offset."""
    offsets = [sum(f.points for f in flows[:i]) for i in range(len(flows))]
    for off, f in zip(reversed(offsets), reversed(flows)):
        if x >= off:
            return off + f.act(g, x - off)
    raise IndexError(x)


def tarjan_sccs(n, successors):
    """Iterative Tarjan with (node, successor position) frames; returns the
    components (each a list of nodes) in completion order."""
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index_of[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            succ = successors(v)
            while pi < len(succ):
                w = succ[pi]
                pi += 1
                if index_of[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index_of[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return comps


def r_relation(flow, w):
    """The witnessed relation as the set of translates (g·s, g·h·s) over
    every group element g, with its reflexive, symmetric and transitive
    verdicts."""
    G = flow.group
    n = flow.points
    pairs = set()
    for s in sorted(w.support):
        for h in w.subgroup.sorted_members:
            hs = flow.act(h, s)
            for g in G.elements():
                pairs.add((flow.act(g, s), flow.act(g, hs)))
    reflexive = all((x, x) in pairs for x in range(n))
    witness = None
    if not reflexive:
        witness = ("irreflexive", next(x for x in range(n) if (x, x) not in pairs))
    symmetric = all((b, a) in pairs for (a, b) in pairs)
    if symmetric is False and witness is None:
        witness = ("asymmetric", next((a, b) for (a, b) in pairs if (b, a) not in pairs))
    adj: dict[int, set[int]] = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
    transitive = True
    for a, outs in adj.items():
        for b in outs:
            if not adj.get(b, set()) <= outs:
                transitive = False
                if witness is None:
                    c = next(iter(adj[b] - outs))
                    witness = ("intransitive", (a, b, c))
                break
        if not transitive:
            break
    return RRelationResult(frozenset(pairs), reflexive, symmetric, transitive, witness)


def class_formula(flow, w, x0):
    """Direct evaluation of the witnessed class of x0: the union of
    conjugate-orbit translates over group elements carrying x0 into the
    support. Cross-checks the translate-closure computation."""
    G = flow.group
    out = set()
    for g in G.elements():
        if flow.act(g, x0) not in w.support:
            continue
        ginv = G.inverse[g]
        for h in w.subgroup.members:
            out.add(flow.act(ginv, flow.act(h, flow.act(g, x0))))
    return frozenset(out)


def all_partitions(n):
    """Every partition of 0..n-1, via restricted-growth strings: a[0] = 0
    and a[i] <= max(a[:i]) + 1, stepped in lexicographic order."""
    if n == 0:
        yield ()
        return
    a = [0] * n
    while True:
        blocks = {}
        for i, x in enumerate(a):
            blocks.setdefault(x, []).append(i)
        yield tuple(tuple(blocks[k]) for k in sorted(blocks))
        i = n - 1
        while i > 0 and a[i] > max(a[:i]):
            i -= 1
        if i == 0:
            return
        a[i] += 1
        for j in range(i + 1, n):
            a[j] = 0


def invariant_relations(flow):
    """The Bell filter: every partition of the points, in restricted-growth
    order, kept when every acting map sends classes into classes."""
    for classes in all_partitions(flow.points):
        E = EquivRelation(flow.points, classes, flow)
        if invariance(flow, E.class_of)[0]:
            yield E


def fix_set(flow, E, H):
    """Points equivalent to all their H-translates."""
    return frozenset(x for x in range(flow.points)
                     if all(E.same(x, flow.act(h, x)) for h in H.members))


def witnessing_supports(flow, E, lat_x, H):
    """The supports that witness E together with H, one pair closure per
    candidate: the fix-set of H first, then every other non-empty member of
    the X lattice in member order."""
    target = E.pairs()
    fix = fix_set(flow, E, H)
    if fix and r_relation(flow, WitnessPair(H, fix)).pairs == target:
        yield fix
    if not lat_x.discrete:
        for member in lat_x.members():
            if member and member != fix and \
                    r_relation(flow, WitnessPair(H, member)).pairs == target:
                yield member


def stabilizing_elements(flow, E, support):
    """Group elements g with s ~ g·s for every support point s."""
    return frozenset(g for g in flow.group.elements()
                     if all(E.same(s, flow.act(g, s)) for s in support))


def maximal_witnesses(E, w):
    """Alternate support maximization (the fix-set of the subgroup) and
    subgroup maximization (the elements stabilizing every support point)
    until neither changes, checking the starting pair and each step with one
    pair closure; NotAWitness as elliskit raises it."""
    flow, G = E.flow, E.flow.group
    target = E.pairs()
    if r_relation(flow, w).pairs != target:
        raise NotAWitness("pair does not produce the given relation")
    H, support = w.subgroup, frozenset(w.support)
    for _ in range(2 * flow.points + 2 * G.order + 2):
        new_support = fix_set(flow, E, H)
        new_H = Subgroup(G, stabilizing_elements(flow, E, new_support))
        if new_support == support and new_H.members == H.members:
            return WitnessPair(H, support)
        H, support = new_H, new_support
        if r_relation(flow, WitnessPair(H, support)).pairs != target:
            raise NotAWitness("maximization changed the relation")
    raise NotAWitness("maximization did not stabilize")


def is_weakly_orbital(E):
    """The first subgroup, in canonical order, whose fix-set is non-empty and
    witnesses E by one pair closure, with the number of subgroups tried."""
    flow, G = E.flow, E.flow.group
    checked = 0
    for members in enumerate_subgroups(G.mul, G.identity):
        H = Subgroup(G, frozenset(members))
        checked += 1
        fix = fix_set(flow, E, H)
        if fix and r_relation(flow, WitnessPair(H, fix)).pairs == E.pairs():
            return WeakOrbitalityVerdict(True, WitnessPair(H, fix), checked)
    return WeakOrbitalityVerdict(False, None, checked)


# -- pseudo-closed lattices as frozensets of indices --------------------------

def lattice_order(family):
    return sorted(family, key=lambda s: (len(s), sorted(s)))


class Lattice:
    """An explicit family of frozensets in lattice order, or every subset of
    the ground when `sets` is None."""

    def __init__(self, ground, size, sets=None):
        self.ground = ground
        self.size = size
        self.discrete = sets is None
        self.sets = None if sets is None else lattice_order(sets)
        self.member_set = None if sets is None else frozenset(self.sets)

    def contains(self, s):
        return self.discrete or frozenset(s) in self.member_set

    def union_generators(self):
        if self.discrete:
            return [frozenset({i}) for i in range(self.size)]
        return list(self.sets)


class SectionProduct:
    """The sets each of whose sections along the discrete factor belong to
    the explicit factor, split index by index."""

    discrete = False

    def __init__(self, ground, left, right, left_discrete):
        self.ground = ground
        self.size = left.size * right.size
        self.left = left
        self.right = right
        self.left_discrete = left_discrete

    def contains(self, s):
        cols = self.right.size
        sections: dict[int, set[int]] = {}
        for idx in s:
            r, c = divmod(idx, cols)
            if self.left_discrete:
                sections.setdefault(r, set()).add(c)
            else:
                sections.setdefault(c, set()).add(r)
        factor = self.right if self.left_discrete else self.left
        return all(factor.contains(frozenset(sec)) for sec in sections.values())

    def union_generators(self):
        cols = self.right.size
        if self.left_discrete:
            return [frozenset(l * cols + r for r in b)
                    for l in range(self.left.size)
                    for b in self.right.union_generators()]
        return [frozenset(l * cols + r for l in a)
                for a in self.left.union_generators() for r in range(cols)]


def close_family(sets, cap):
    """Union/intersection closure of frozensets, every new set against every
    known one; returns the family and the sets it added."""
    family = set(sets)
    frontier = list(family)
    added = []
    while frontier:
        new = []
        for a in frontier:
            for b in list(family):
                for c in (a | b, a & b):
                    if c not in family:
                        if len(family) >= cap:
                            raise SizeCapExceeded(len(family) + 1, cap, "lattice")
                        family.add(c)
                        new.append(c)
                        added.append(c)
        frontier = new
    return family, added


def make_lattice(ground, size, sets, auto_complete, cap):
    """(lattice, added sets sorted by their sorted indices)."""
    family = {frozenset(s) for s in sets} | {frozenset(), frozenset(range(size))}
    if auto_complete:
        family, added = close_family(family, cap)
        return Lattice(ground, size, family), sorted(added, key=sorted)
    fam = lattice_order(family)
    for a in fam:
        for b in fam:
            for c in (a | b, a & b):
                if c not in family:
                    raise NotALattice(a, b, c)
    return Lattice(ground, size, family), []


PRODUCT_GROUND = {("G", "X"): "GxX", ("X", "X"): "X2",
                  ("X2", "X2"): "X2x2", ("X", "G"): "XxG"}


def product_lattice(A, B, cap):
    """Discrete, section product, or the closure of every rectangle of two
    union generators."""
    ground = PRODUCT_GROUND[(A.ground, B.ground)]
    size = A.size * B.size
    if A.discrete and B.discrete:
        return Lattice(ground, size)
    if A.discrete or B.discrete:
        return SectionProduct(ground, A, B, A.discrete)
    rects = {frozenset(x * B.size + y for x in a for y in b)
             for a in A.union_generators() for b in B.union_generators()}
    rects |= {frozenset(), frozenset(range(size))}
    return Lattice(ground, size, close_family(rects, cap)[0])


def sections_ok(flow, lat, failures):
    """Axiom 1 over every union generator: rows, then columns, each by
    ascending index."""
    n = flow.points
    gn = flow.group.order
    specs = [
        ("GxX", gn, n, "G", "X"),
        ("X2", n, n, "X", "X"),
        ("X2x2", n * n, n * n, "X2", "X2"),
        ("XxG", n, gn, "X", "G"),
    ]
    for ground, rows, cols, row_ground, col_ground in specs:
        src = lat[ground]
        if lat[row_ground].discrete and lat[col_ground].discrete:
            continue
        if src.discrete:
            for c in range(cols):
                if not lat[col_ground].contains({c}):
                    failures.append((1, (ground, "col-singleton", c)))
                    return
            for r in range(rows):
                if not lat[row_ground].contains({r}):
                    failures.append((1, (ground, "row-singleton", r)))
                    return
            continue
        for S in src.union_generators():
            by_row = {}
            by_col = {}
            for idx in S:
                r, c = divmod(idx, cols)
                by_row.setdefault(r, set()).add(c)
                by_col.setdefault(c, set()).add(r)
            for r, sec in sorted(by_row.items()):
                if not lat[col_ground].contains(sec):
                    failures.append((1, (ground, "row", r, tuple(sorted(sec)))))
                    return
            for c, sec in sorted(by_col.items()):
                if not lat[row_ground].contains(sec):
                    failures.append((1, (ground, "col", c, tuple(sorted(sec)))))
                    return


def products_ok(flow, lat, failures):
    for left, right in PRODUCT_GROUND:
        target = lat[PRODUCT_GROUND[(left, right)]]
        if target.discrete:
            continue
        B_size = lat[right].size
        for a in lat[left].union_generators():
            for b in lat[right].union_generators():
                if not target.contains({x * B_size + y for x in a for y in b}):
                    failures.append((2, (left, right, tuple(sorted(a)),
                                         tuple(sorted(b)))))
                    return


def action_continuous(flow, lat, failures):
    if lat["GxX"].discrete:
        return
    n = flow.points
    for S in lat["X"].union_generators():
        pre = {g * n + x for g in flow.group.elements() for x in range(n)
               if flow.act(g, x) in S}
        if not lat["GxX"].contains(pre):
            failures.append((3, (tuple(sorted(S)),)))
            return


def graph_maps_continuous(flow, lat, failures):
    if lat["X"].discrete:
        return
    n = flow.points
    for g in flow.group.elements():
        for S in lat["X2"].union_generators():
            pre = {x for x in range(n) if (x * n + flow.act(g, x)) in S}
            if not lat["X"].contains(pre):
                failures.append((4, (g, tuple(sorted(S))[:6])))
                return


def restricted_projection_closed(flow, lat, failures):
    if lat["X2"].discrete:
        return
    n = flow.points
    n2 = n * n
    if lat["X2x2"].discrete:
        for p in range(n2):
            if not lat["X2"].contains({p}):
                failures.append((5, ("pair-singleton", p)))
                return
        return
    eg = {(x1 * n + x2) * n2 + flow.act(g, x1) * n + flow.act(g, x2)
          for g in flow.group.elements() for x1 in range(n) for x2 in range(n)}
    for C in lat["X2x2"].union_generators():
        image = {idx // n2 for idx in C & eg}
        if not lat["X2"].contains(image):
            failures.append((5, (tuple(sorted(image))[:6],)))
            return


def pairing_map_closed(flow, lat, failures):
    if lat["X2"].discrete:
        return
    n = flow.points
    gn = flow.group.order
    for S in lat["XxG"].union_generators():
        image = {(idx // gn) * n + flow.act(idx % gn, idx // gn) for idx in S}
        if not lat["X2"].contains(image):
            failures.append((6, (tuple(sorted(S))[:6],)))
            return


def is_agreeable(flow, lat):
    """The failures (axiom, witness) of the six agreeability axioms, each
    checked on frozensets over every union generator."""
    failures = []
    for axiom in (sections_ok, products_ok, action_continuous,
                  graph_maps_continuous, restricted_projection_closed,
                  pairing_map_closed):
        axiom(flow, lat, failures)
    return tuple(failures)
