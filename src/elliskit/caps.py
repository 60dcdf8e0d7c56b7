"""Size caps guarding every potentially explosive computation.

Each cap bounds what one computation may build, and going over it raises
an error (exit 2 at the command line). No cap picks between two ways of
computing the same result: those choices are fixed in the code, such as
the size up to which `ellis` keeps a full multiplication table.

All caps can be overridden at once through the ELLISKIT_CAPS environment
variable, which holds a JSON object, e.g. ELLISKIT_CAPS='{"closure_cap": 1000}'.
A name that is not a field of `Caps` is rejected.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace

from .errors import ParseError


@dataclass(frozen=True)
class Caps:
    group_order_cap: int = 2000      # hard cap on any constructed group,
                                     # named groups included: checked on
                                     # the closed-form order, before any
                                     # element is built
    subgroup_enum_cap: int = 360     # largest group whose subgroups we enumerate
    iso_order_cap: int = 2000        # largest orders fed to isomorphism search
    closure_cap: int = 50000         # enveloping semigroup element cap;
                                     # an element holds about 144 bytes on
                                     # 6 points (the T6 closure, 46,656
                                     # elements, 6.7 MB under tracemalloc):
                                     # its bytes map, its list slot and dict
                                     # entry, and 4 bytes per right Cayley
                                     # graph edge (1 per generator)
    independence_k_cap: int = 4      # largest independent-family size searched
    lattice_cap: int = 4096          # largest explicit lattice (number of
                                     # sets), and of invariant relations
    points_cap: int = 20000          # largest flow we will construct, products
                                     # and disjoint unions included


def _unique_keys(pairs) -> dict:
    """`json.loads` object hook: the object as a dict; a repeated key raises
    ValueError, where a plain dict would keep its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _from_env() -> tuple[Caps, ParseError | None]:
    """The caps named in ELLISKIT_CAPS over the defaults, or the defaults and
    the reason the variable is malformed: not a JSON object (a repeated name
    or nesting too deep to parse included), an unknown cap name, or a value that is not a non-negative
    integer."""
    raw = os.environ.get("ELLISKIT_CAPS")
    caps = Caps()
    if not raw:
        return caps, None
    try:
        data = json.loads(raw, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        return caps, ParseError("ELLISKIT_CAPS", f"not valid JSON ({exc})")
    if not isinstance(data, dict):
        return caps, ParseError("ELLISKIT_CAPS", "must be a JSON object")
    unknown = set(data) - {f.name for f in fields(Caps)}
    if unknown:
        return caps, ParseError("ELLISKIT_CAPS",
                                f"unknown cap names {sorted(unknown)}")
    bad = sorted(k for k, v in data.items() if type(v) is not int or v < 0)
    if bad:
        return caps, ParseError("ELLISKIT_CAPS",
                                f"caps {bad} must be non-negative integers")
    return replace(caps, **data), None


# A malformed ELLISKIT_CAPS leaves the defaults in force and is kept in
# ENV_ERROR; the command line reports it (exit 2) before running anything.
DEFAULT_CAPS, ENV_ERROR = _from_env()
