"""Size caps guarding every potentially explosive computation.

All caps can be overridden at once through the ELLISKIT_CAPS environment
variable, which holds a JSON object, e.g. ELLISKIT_CAPS='{"closure_cap": 1000}'.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Caps:
    group_order_cap: int = 2000      # hard cap on any constructed group
    subgroup_enum_cap: int = 360     # largest group whose subgroups we enumerate
    iso_order_cap: int = 2000        # largest orders fed to isomorphism search
    named_group_cap: int = 5000      # largest named group we will build
    closure_cap: int = 50000         # enveloping semigroup element cap
    mul_table_cap: int = 512         # full semigroup table up to this; above
                                     # it, products on demand from the Cayley
                                     # graphs, with no memo
    product_points_cap: int = 20000  # product flow point cap
    independence_k_cap: int = 4      # largest independent-family size searched
    lattice_cap: int = 4096          # largest explicit lattice (number of sets)
    partition_points_cap: int = 8    # exhaustive partition enumeration bound
    points_cap: int = 20000          # largest flow we will construct


def _from_env() -> Caps:
    raw = os.environ.get("ELLISKIT_CAPS")
    caps = Caps()
    if not raw:
        return caps
    data = json.loads(raw)
    known = {f.name for f in fields(Caps)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown cap names in ELLISKIT_CAPS: {sorted(unknown)}")
    return replace(caps, **data)


DEFAULT_CAPS = _from_env()
