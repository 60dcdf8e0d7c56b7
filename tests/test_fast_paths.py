"""Differential tests: the Cayley-graph products of the closure, its ideals,
its ideal groups and permutation-group tables against the literal
compose-everything oracles in ``oracles.py``."""

import random
from dataclasses import replace

import pytest

import oracles
from elliskit.algebra import named_group, small_generating_set
from elliskit.caps import DEFAULT_CAPS
from elliskit.ellis import enveloping_semigroup, ideal_group, minimal_left_ideals
from elliskit.flows import transformation_flow
from elliskit.generators import random_ellis_flow

ORACLE_SIZE = 300   # the oracle table composes every pair of elements


def random_flows(seed, count):
    """Transformation flows on 1 to 6 points and suite-style Ellis flows."""
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.5:
            n = rng.randint(2, 6)
            maps = [tuple(rng.randrange(n) for _ in range(n))
                    for _ in range(rng.randint(1, 3))]
            yield transformation_flow(maps)
        else:
            yield random_ellis_flow(rng, 6)


@pytest.mark.parametrize("caps", [DEFAULT_CAPS, replace(DEFAULT_CAPS, mul_table_cap=0)],
                         ids=["full-table", "on-demand"])
def test_closure_ideals_and_groups_match_oracles(caps):
    compared = 0
    for flow in random_flows(11, 300):
        elements, gens = oracles.closure(flow.generator_maps())
        if len(elements) > ORACLE_SIZE:
            continue
        table = oracles.composition_table(elements)
        compared += 1
        S = enveloping_semigroup(flow, caps=caps)
        assert S.elements == elements
        assert S.generators == gens
        for i in range(S.size):
            assert [S.mul(i, j) for j in range(S.size)] == list(table[i])
            assert list(S.row(i)) == list(table[i])
            assert S.left_reach(i) == oracles.left_reach(table, gens, i)
        ideals = minimal_left_ideals(S)
        assert [(M.members, M.idempotents) for M in ideals] == \
            oracles.minimal_left_ideals(table, gens)
        for M in ideals:
            for u in M.idempotents:
                G = ideal_group(M, u)
                members, mul, inverse, group_gens = oracles.ideal_group(
                    table, M.members, u)
                assert G.members == members
                assert G.group_view.mul == mul
                assert G.group_view.inverse == inverse
                assert G.group_view.gens == group_gens
    assert compared >= 250


@pytest.mark.parametrize("name, params", [("symmetric", {"n": 5}),
                                          ("dihedral", {"n": 30})])
def test_permutation_group_tables_match_oracle(name, params):
    G = named_group(name, **params)
    perms, mul, inverse = oracles.permutation_group(len(G.perms[0]),
                                                    G.perms[:len(G.gens)])
    assert G.perms == perms
    assert G.mul == mul
    assert G.inverse == inverse
    assert small_generating_set(G.mul, G.identity) == \
        oracles.small_generating_set(mul, G.identity)
