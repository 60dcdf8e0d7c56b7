"""Seeded random instance generation for the verification suites.

Groups come from a fixed catalog; actions are coset actions of random
subgroups (plus regular and natural actions); relations are coset-block
partitions, which are invariant by construction while still exercising
non-normal subgroups."""

from __future__ import annotations

import functools
import random

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


def random_group(rng: random.Random, max_order: int) -> FiniteGroup:
    options = [G for G in group_catalog() if G.order <= max_order]
    return rng.choice(options)


def random_transformation_flow(rng: random.Random, max_points: int) -> Flow:
    n = rng.randint(2, min(5, max_points))
    k = rng.randint(1, 3)
    maps = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(k)]
    return transformation_flow(maps)


def random_group_flow(rng: random.Random, max_points: int, max_order: int,
                      caps: Caps = DEFAULT_CAPS) -> Flow:
    """A group action on at most max_points points: natural, regular, or a
    coset action of a random subgroup of small enough index."""
    for _ in range(200):
        G = random_group(rng, max_order)
        choices = []
        if G.perms is not None and len(G.perms[0]) <= max_points:
            choices.append(("natural", None))
        if G.order <= max_points:
            choices.append(("regular", None))
        subs = enumerate_subgroups(G, caps=caps)
        for H in subs:
            if H.order > 1 and G.order // H.order <= max_points:
                choices.append(("coset", H))
        if not choices:
            continue
        kind, H = rng.choice(choices)
        if kind == "natural":
            return natural_flow(G)
        if kind == "regular":
            return regular_flow(G)
        return coset_flow(G, H)
    raise RuntimeError("no admissible flow in the catalog")


def random_ellis_flow(rng: random.Random, max_points: int,
                      caps: Caps = DEFAULT_CAPS) -> Flow:
    if rng.random() < 0.6:
        return random_transformation_flow(rng, max_points)
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
    E = make_relation(flow.points, sorted(classes), flow)
    if not E.invariant:
        raise AssertionError("constructed relation must be invariant")
    return E


def random_group_like_setup(rng: random.Random, max_points: int, max_order: int,
                            caps: Caps = DEFAULT_CAPS):
    """A transitive pointed action with a group-like relation built from a
    normal subgroup: the block relation of K = N·Stab(basepoint) where the
    product is normal."""
    for _ in range(500):
        G = random_group(rng, max_order)
        subs = enumerate_subgroups(G, caps=caps)
        small = [H for H in subs if G.order // H.order <= max_points]
        if not small:
            continue
        H0 = rng.choice(small)
        flow = coset_flow(G, H0) if H0.order > 1 else regular_flow(G)
        normals = [N for N in subs if N.is_normal()]
        candidates = []
        for N in normals:
            members = frozenset(G.mul[a][b] for a in N.members
                                for b in H0.members)
            try:
                K = Subgroup(G, members)
            except Exception:
                continue
            if K.is_normal():
                candidates.append(K)
        if not candidates:
            continue
        K = rng.choice(candidates)
        blocks = _coset_blocks(G, K, transporters(flow, 0), range(flow.points))
        return flow, make_relation(flow.points, blocks, flow)
    raise RuntimeError("no group-like setup found")
