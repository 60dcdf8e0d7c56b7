"""Seeded random instance generation for the verification suites.

Groups come from a fixed catalog; actions are coset actions of random
subgroups (plus regular and natural actions); relations are coset-block
partitions, which are invariant by construction while still exercising
non-normal subgroups.

`_battery_draws` advances a generator by exactly the `getrandbits` words
that the Ellis battery's `randrange` and `sample` calls would consume,
without forming the values: the battery keeps them only for the state they
leave to the next flow.

Every draw succeeds at once, so nothing is retried (`check_bounds` admits
`max_points` and `max_group_order` of 2 and above, before any draw, where
the catalog's cyclic group of order 2 qualifies): a group G of order at least 2 always
has the coset action of G itself, of index 1; for a group-like setup, N·H0
is a subgroup whenever N is normal, and N = G gives the normal K = G. The
coset-block relations are invariant, and `make_relation` on the flow still
computes that verdict.

What generation derives from a catalog group alone is built once per
process and shared: the actions `random_group_flow` may draw on it, each
drawn action (built when first drawn, so a cap it exceeds is reported for
that flow and not for another candidate) and the normal products N·H0 of a
group-like setup; `catalog.structured_catalog` keeps its instances the same
way. Relations are built afresh on every draw. Every draw is the same `rng`
call on a sequence of the same length and order as a fresh build would
make, so reports do not change, and every check still runs on every
instance. Sharing is safe: flows, subgroups, lattices and structured
instances are read-only, every structured instance's lattice map included
(a read-only copy of the map it was built from); the keys are catalog groups, their subgroups and `Caps` values, none of them
a caller's flow; and each cache holds at most one entry per such key, a
bound the 17-group catalog fixes for each `Caps` value. The gain needs
inputs that repeat, within a call or across calls in one process."""

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
from .errors import InvalidArgument
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


def check_bounds(**bounds) -> None:
    """Raise InvalidArgument for a `max_points` or `max_group_order` below
    2, the smallest bound every generator can meet (module docstring)."""
    for label, value in bounds.items():
        if value is not None and value < 2:
            raise InvalidArgument(f"{label} must be at least 2, got {value}")


def _battery_draws(rng: random.Random, size: int, orders) -> None:
    """Advance rng as the Ellis battery's random data would, forming none
    of it: 20 rounds of three `randrange(size)` and two `sample(range(size),
    k)`, each k a `randint(0, min(size, 8))`, then for each ideal group
    order m in orders ten `sample(range(m), k)`, each k a `randint(0, m)`.
    `randrange(n)` is CPython's `_randbelow_with_getrandbits`: words of n's
    bit length, drawn until one is below n."""
    bits = rng.getrandbits
    plan = ((size, 3, 2, min(size, 8) + 1),) * 20
    for n, elements, subsets, top in plan + tuple((m, 0, 10, m + 1) for m in orders):
        nb, tb = n.bit_length(), top.bit_length()
        for _ in range(elements):
            while bits(nb) >= n:
                pass
        for _ in range(subsets):
            k = bits(tb)
            while k >= top:
                k = bits(tb)
            _skip_sample(bits, n, k)


def _skip_sample(bits, n: int, k: int) -> None:
    """Draw from `bits` (a generator's `getrandbits`) what CPython's
    `Random.sample` of k from n elements draws, forming no sample. Up to
    setsize elements (21, plus 4**ceil(log(3k, 4)) for k above 5) it picks
    from a pool that shrinks by one a pick: one index below each of n,
    n - 1, ..., n - k + 1. Above, it draws indices below n until k distinct
    ones are in; only the set of those indices is kept."""
    if n <= 21 or k > 5 and n <= 21 + 4 ** ceil(log(k * 3, 4)):
        for m in range(n, n - k, -1):
            mb = m.bit_length()
            while bits(mb) >= m:
                pass
    else:
        nb = n.bit_length()
        picked = set()
        for _ in range(k):
            j = bits(nb)
            while j >= n or j in picked:
                j = bits(nb)
            picked.add(j)


def random_group(rng: random.Random, max_order: int) -> FiniteGroup:
    check_bounds(max_group_order=max_order)
    options = [G for G in group_catalog() if G.order <= max_order]
    return rng.choice(options)


def random_transformation_flow(rng: random.Random, max_points: int,
                               caps: Caps = DEFAULT_CAPS) -> Flow:
    check_bounds(max_points=max_points)
    n = rng.randint(2, min(5, max_points))
    k = rng.randint(1, 3)
    maps = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(k)]
    return transformation_flow(maps, caps)


def random_group_flow(rng: random.Random, max_points: int, max_order: int,
                      caps: Caps = DEFAULT_CAPS) -> Flow:
    """A group action on at most max_points points: natural, regular, or a
    coset action of a random subgroup of small enough index."""
    check_bounds(max_points=max_points)
    G = random_group(rng, max_order)
    kind, H = rng.choice([(kind, H) for points, kind, H in _flow_options(G, caps)
                          if points <= max_points])
    return _group_flow(G, kind, H, caps)


@functools.cache
def _flow_options(G: FiniteGroup, caps: Caps) -> tuple:
    """(points, kind, subgroup) for each action `random_group_flow` may
    draw on G, in the order it draws from: natural, regular, then the
    coset action of each nontrivial subgroup."""
    options = []
    if G.perms is not None:
        options.append((len(G.perms[0]), "natural", None))
    options.append((G.order, "regular", None))
    options += [(G.order // H.order, "coset", H)
                for H in enumerate_subgroups(G, caps=caps) if H.order > 1]
    return tuple(options)


@functools.cache
def _group_flow(G: FiniteGroup, kind: str, H: Subgroup | None, caps: Caps) -> Flow:
    """One drawn action, built when first drawn, so a cap it exceeds is
    reported for the flow drawn and not for another candidate."""
    if kind == "natural":
        return natural_flow(G, caps=caps)
    if kind == "regular":
        return regular_flow(G, caps=caps)
    return coset_flow(G, H, caps=caps)


def random_ellis_flow(rng: random.Random, max_points: int, max_order: int = 24,
                      caps: Caps = DEFAULT_CAPS) -> Flow:
    if rng.random() < 0.6:
        return random_transformation_flow(rng, max_points, caps)
    return random_group_flow(rng, max_points, max_order, caps)


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
    check_bounds(max_points=max_points)
    G = random_group(rng, max_order)
    H0 = rng.choice([H for H in enumerate_subgroups(G, caps=caps)
                     if G.order // H.order <= max_points])
    flow = (_group_flow(G, "coset", H0, caps) if H0.order > 1
            else _group_flow(G, "regular", None, caps))
    K = rng.choice(_normal_products(G, H0, caps))
    blocks = _coset_blocks(G, K, transporters(flow, 0), range(flow.points))
    return flow, make_relation(flow.points, blocks, flow)


@functools.cache
def _normal_products(G: FiniteGroup, H0: Subgroup, caps: Caps) -> tuple[Subgroup, ...]:
    """The normal products K = N·H0 over the normal subgroups N of G."""
    candidates = []
    for N in enumerate_subgroups(G, caps=caps):
        if N.is_normal():
            K = Subgroup(G, frozenset(G.mul[a][b] for a in N.members
                                      for b in H0.members))
            if K.is_normal():
                candidates.append(K)
    return tuple(candidates)
