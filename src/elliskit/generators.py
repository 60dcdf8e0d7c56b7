"""Seeded random instance generation for the verification suites.

Groups come from a fixed catalog; actions are coset actions of random
subgroups (plus regular and natural actions); relations are coset-block
partitions, which are invariant by construction while still exercising
non-normal subgroups.

`_below` and `_subset` draw what `random.Random.randrange` and
`random.Random.sample` draw, bit for bit, reading `getrandbits` alone.

Every draw succeeds at once, so nothing is retried (the suites admit
`max_points` and `max_group_order` of 2 and above, where the catalog's
cyclic group of order 2 qualifies): a group G of order at least 2 always
has the coset action of G itself, of index 1; for a group-like setup, N·H0
is a subgroup whenever N is normal, and N = G gives the normal K = G. The
coset-block relations are invariant, and `make_relation` on the flow still
computes that verdict."""

from __future__ import annotations

import functools
import random
from math import ceil, log

from .algebra import (
    FiniteGroup,
    Subgroup,
    direct_product,
    enumerate_subgroups,
    named_group,
    quaternion_group,
)
from .caps import DEFAULT_CAPS, Caps
from .flows import (
    Flow,
    coset_flow,
    natural_flow,
    regular_flow,
    transformation_flow,
    transporters,
)
from .relations import EquivRelation, make_relation


def group_catalog() -> list[FiniteGroup]:
    """The 17 catalog groups, in a new list on every call; the groups are
    built once and shared, so each keeps its subgroup lattice."""
    return list(_catalog_groups())


@functools.cache
def _catalog_groups() -> tuple[FiniteGroup, ...]:
    base = [named_group("cyclic", n=n) for n in (2, 3, 4, 5, 6, 8, 12)]
    base += [named_group("dihedral", n=n) for n in (3, 4, 5, 6)]
    base += [named_group("symmetric", n=3), named_group("symmetric", n=4),
             quaternion_group()]
    z2 = named_group("cyclic", n=2)
    z3 = named_group("cyclic", n=3)
    base += [direct_product(z2, z2), direct_product(z2, z3),
             direct_product(named_group("symmetric", n=3), z2)]
    return tuple(base)


def _below(rng: random.Random, n: int) -> int:
    """`rng.randrange(n)` for n >= 1, drawn as CPython's
    `Random._randbelow_with_getrandbits` draws it: getrandbits of the bit
    length of n, drawn again until it is below n."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _subset(rng: random.Random, population, k: int) -> frozenset:
    """`frozenset(rng.sample(population, k))`, drawn as CPython's
    `Random.sample` draws it: up to setsize elements from a pool, moving the
    last unchosen element into each vacancy; above it, indices below n
    drawn until k distinct ones are in."""
    n = len(population)
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    if n <= setsize:
        pool = list(population)
        chosen = []
        for i in range(k):
            j = _below(rng, n - i)
            chosen.append(pool[j])
            pool[j] = pool[n - i - 1]
        return frozenset(chosen)
    picked = set()
    for _ in range(k):
        j = _below(rng, n)
        while j in picked:
            j = _below(rng, n)
        picked.add(j)
    return frozenset(map(population.__getitem__, picked))


def random_group(rng: random.Random, max_order: int) -> FiniteGroup:
    options = [G for G in group_catalog() if G.order <= max_order]
    return rng.choice(options)


def random_transformation_flow(rng: random.Random, max_points: int,
                               caps: Caps = DEFAULT_CAPS) -> Flow:
    n = rng.randint(2, min(5, max_points))
    k = rng.randint(1, 3)
    maps = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(k)]
    return transformation_flow(maps, caps)


def random_group_flow(rng: random.Random, max_points: int, max_order: int,
                      caps: Caps = DEFAULT_CAPS) -> Flow:
    """A group action on at most max_points points: natural, regular, or a
    coset action of a random subgroup of small enough index."""
    G = random_group(rng, max_order)
    choices = []
    if G.perms is not None and len(G.perms[0]) <= max_points:
        choices.append(("natural", None))
    if G.order <= max_points:
        choices.append(("regular", None))
    for H in enumerate_subgroups(G, caps=caps):
        if H.order > 1 and G.order // H.order <= max_points:
            choices.append(("coset", H))
    kind, H = rng.choice(choices)
    if kind == "natural":
        return natural_flow(G, caps=caps)
    if kind == "regular":
        return regular_flow(G, caps=caps)
    return coset_flow(G, H, caps=caps)


def random_ellis_flow(rng: random.Random, max_points: int,
                      caps: Caps = DEFAULT_CAPS) -> Flow:
    if rng.random() < 0.6:
        return random_transformation_flow(rng, max_points, caps)
    return random_group_flow(rng, max_points, 24, caps)


def _coset_blocks(G: FiniteGroup, K: Subgroup, trans, points) -> list[list[int]]:
    """Points in the same block when their transporters lie in one left
    coset of K; needs K to contain the basepoint stabilizer to be well
    defined (the callers arrange this), and left cosets make the blocks
    invariant under the left action."""
    blocks: dict[int, list[int]] = {}
    for x in points:
        g = trans[x]
        rep = min(G.mul[g][k] for k in K.sorted_members)
        blocks.setdefault(rep, []).append(x)
    return sorted(blocks.values())


def random_invariant_relation(rng: random.Random, flow: Flow,
                              caps: Caps = DEFAULT_CAPS) -> EquivRelation:
    """Invariant by construction: per orbit, blocks of the left cosets of a
    random subgroup containing the orbit's basepoint stabilizer."""
    G = flow.group
    subs = enumerate_subgroups(G, caps=caps)
    seen = [False] * flow.points
    classes = []
    for x0 in range(flow.points):
        if seen[x0]:
            continue
        trans = transporters(flow, x0)
        orbit = [x for x in range(flow.points) if trans[x] is not None]
        for x in orbit:
            seen[x] = True
        stab = frozenset(g for g in G.elements() if flow.act(g, x0) == x0)
        choices = [H for H in subs if stab <= H.members]
        K = rng.choice(choices)
        classes.extend(_coset_blocks(G, K, trans, orbit))
    return make_relation(flow.points, sorted(classes), flow)


def random_group_like_setup(rng: random.Random, max_points: int, max_order: int,
                            caps: Caps = DEFAULT_CAPS):
    """A transitive pointed action with a group-like relation built from a
    normal subgroup: the block relation of K = N·Stab(basepoint) where the
    product is normal."""
    G = random_group(rng, max_order)
    subs = enumerate_subgroups(G, caps=caps)
    H0 = rng.choice([H for H in subs if G.order // H.order <= max_points])
    flow = (coset_flow(G, H0, caps=caps) if H0.order > 1
            else regular_flow(G, caps=caps))
    candidates = []
    for N in subs:
        if N.is_normal():
            K = Subgroup(G, frozenset(G.mul[a][b] for a in N.members
                                      for b in H0.members))
            if K.is_normal():
                candidates.append(K)
    K = rng.choice(candidates)
    blocks = _coset_blocks(G, K, transporters(flow, 0), range(flow.points))
    return flow, make_relation(flow.points, blocks, flow)
