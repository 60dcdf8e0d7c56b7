"""Flat-file JSON schemas for groups, flows, ambits, relations, lattices,
and structured scenarios.

Schemas (one object per file):
  group     {"kind": "permutation", "degree": n, "generators": [[...], ...]}
            {"kind": "table", "mul": [[...], ...]}
            {"kind": "named", "name": "cyclic|symmetric|dihedral|affine", ...params}
  flow      {"group": <group>, "points": n,
             "action": "natural" | "regular" | {"generator_images": [[...], ...]}}
            {"transformations": [[...], ...], "points": n}   (stand-ins)
  ambit     a flow object plus "basepoint": int
  relation  {"points": n, "classes": [[...], ...]}
  lattice   {"ground": "G|X|GxX|X2|X2x2|XxG", "size": n,
             "sets": [[...], ...] | "discrete", "auto_complete": bool}
  scenario  {"flow": <flow>, "relation": <relation>, "name": str,
             "lattices": {"G": <lattice sets or "discrete">, "X": ..., ...}}

Product-space indices are row-major. Every number is an integer: a float
or a boolean (other than "auto_complete") is rejected, never truncated, and
an unlisted key (named groups take n, q and dim) is rejected, never ignored.
parse(serialize(x)) returns an equal instance for every kind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from . import algebra, flows, relations, structured
from .caps import DEFAULT_CAPS, Caps, _unique_keys
from .errors import ElliskitError, NotAnAction, ParseError, ValidationError


@dataclass(frozen=True)
class InstanceFile:
    kind: str
    value: object
    raw: dict


def _canonical(obj) -> dict:
    return json.loads(json.dumps(obj, sort_keys=True))


def detect_kind(data: dict) -> str | None:
    """The schema a top-level object follows, or None if it follows none."""
    if "ground" in data:
        return "lattice"
    if "lattices" in data or ("flow" in data and "relation" in data):
        return "scenario"
    if "basepoint" in data:
        return "ambit"
    if "transformations" in data or "group" in data:
        return "flow"
    if "classes" in data and "points" in data:
        return "relation"
    if data.get("kind") in ("permutation", "table", "named"):
        return "group"
    return None


def _only(data, kind: str, keys, at: str) -> None:
    """Reject a key the builder does not read: it would be silently ignored."""
    if not isinstance(data, dict):
        raise ParseError(f"<{kind}>", f"{at.rstrip('.') or kind} must be a JSON object")
    for key in data:
        if key not in keys:
            raise ParseError(f"<{kind}>", f"unknown key {at + key!r}")


def build_group(data: dict, caps: Caps = DEFAULT_CAPS, *, at="") -> algebra.FiniteGroup:
    if not isinstance(data, dict):
        raise ParseError("<group>", "a group must be a JSON object")
    kind = data.get("kind")
    if kind == "permutation":
        _only(data, "group", ("kind", "degree", "generators"), at)
        return algebra.group_from_permutations(int(data["degree"]),
                                               data["generators"], caps=caps)
    if kind == "table":
        _only(data, "group", ("kind", "mul"), at)
        return algebra.group_from_table(data["mul"], caps=caps)
    if kind == "named":
        _only(data, "group", ("kind", "name", "n", "q", "dim"), at)
        params = {k: v for k, v in data.items() if k not in ("kind", "name")}
        return algebra.named_group(data["name"], caps=caps, **params)
    raise ParseError("<group>", f"unknown group kind {kind!r}")


def _flow_from_generator_images(G: algebra.FiniteGroup, points: int, images,
                                caps: Caps) -> flows.Flow:
    """Extend maps given on the group's generators to every element by
    following words; inconsistencies mean the maps do not define an action."""
    gens = G.gens or (G.identity,)
    if len(images) != len(gens):
        raise ParseError("<flow>", f"need one generator image per generator "
                                   f"({len(gens)} expected)")
    images = [tuple(int(v) for v in m) for m in images]
    for i, m in enumerate(images):
        if len(m) != points or any(not 0 <= v < points for v in m):
            raise ParseError("<flow>", f"generator image {i} is not a self-map "
                                       f"of 0..{points - 1}")
    action, clash = algebra._extend_by_generators(
        G, gens, tuple(range(points)), lambda i, m: algebra.compose_maps(images[i], m))
    if clash is not None:
        raise NotAnAction(*clash, -1)
    return flows.make_flow(G, points, action, caps=caps)


def build_flow(data: dict, caps: Caps = DEFAULT_CAPS, *, at="") -> flows.Flow:
    by_maps = "transformations" in data
    _only(data, "flow", ("transformations", "points") if by_maps
          else ("group", "points", "action"), at)
    points = data.get("points")
    if by_maps:
        f = flows.transformation_flow(data["transformations"], caps=caps)
    else:
        G = build_group(data["group"], caps=caps, at=at + "group.")
        action = data.get("action", "natural")
        if action == "natural":
            f = flows.natural_flow(G)
        elif action == "regular":
            f = flows.regular_flow(G)
        elif isinstance(action, dict) and "generator_images" in action:
            if points is None:
                raise ParseError("<flow>", "explicit actions need a point count")
            f = _flow_from_generator_images(G, int(points),
                                            action["generator_images"], caps)
        else:
            raise ParseError("<flow>", f"unknown action form {action!r}")
    if points is not None and f.points != int(points):
        raise ParseError("<flow>", f"point count {points} disagrees with "
                                   f"action on {f.points} points")
    return f


def build_ambit(data: dict, caps: Caps = DEFAULT_CAPS) -> flows.Ambit:
    f = build_flow({k: v for k, v in data.items() if k != "basepoint"}, caps=caps)
    return flows.make_ambit(f, int(data["basepoint"]))


def build_relation(data: dict, *, at="") -> relations.EquivRelation:
    _only(data, "relation", ("points", "classes"), at)
    return relations.make_relation(int(data["points"]), data["classes"])


def build_lattice(data: dict, caps: Caps = DEFAULT_CAPS, *, at=""):
    _only(data, "lattice", ("ground", "size", "sets", "auto_complete"), at)
    ground = data["ground"]
    size = int(data["size"])
    sets = data.get("sets", [])
    if sets == "discrete":
        return structured.discrete_lattice(ground, size)
    return structured.make_lattice(ground, size, sets,
                                   auto_complete=bool(data.get("auto_complete")),
                                   caps=caps)


def build_scenario(data: dict, caps: Caps = DEFAULT_CAPS) -> structured.StructuredInstance:
    _only(data, "scenario", ("flow", "relation", "lattices", "name"), "")
    flow = build_flow(data["flow"], caps=caps, at="flow.")
    E = build_relation(data["relation"], at="relation.").bind(flow)
    gn, n = flow.group.order, flow.points
    given = data.get("lattices", {})
    _only(given, "scenario", structured.GROUNDS, "lattices.")

    def lat_for(ground):
        entry = given.get(ground)
        if entry is None:
            return None
        if entry == "discrete":
            entry = {"sets": "discrete"}
        body = {"ground": ground, "size": structured.ground_size(ground, gn, n),
                **entry}
        return build_lattice(body, caps=caps, at=f"lattices.{ground}.")

    built = {ground: lat_for(ground) for ground in structured.GROUNDS}
    lats = structured.default_lattices(
        flow, built.pop("G") or structured.discrete_lattice("G", gn),
        built.pop("X") or structured.discrete_lattice("X", n), caps=caps,
        given=built)
    return structured.StructuredInstance(flow, E, lats,
                                         name=data.get("name", ""))


_BUILDERS = {
    "group": build_group,
    "flow": build_flow,
    "ambit": build_ambit,
    "relation": lambda d, _caps: build_relation(d),
    "lattice": build_lattice,
    "scenario": build_scenario,
}


def _check_integers(data, where):
    """Raise TypeError at the first float or boolean: the builders' int()
    would turn 1.9 into 1 and True into 1."""
    if isinstance(data, (bool, float)):
        raise TypeError(f"{where[1:]} is {data!r}, not an integer")
    items = data.items() if isinstance(data, dict) else \
        enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        if type(value) is int or key == "auto_complete" and isinstance(value, bool):
            continue
        step = f".{key}" if isinstance(key, str) else f"[{key}]"
        _check_integers(value, where + step)


def parse_obj(data: dict, caps: Caps = DEFAULT_CAPS, origin="<data>") -> InstanceFile:
    if not isinstance(data, dict):
        raise ParseError(origin, "top-level JSON object expected")
    kind = detect_kind(data)
    if kind is None:
        raise ParseError(origin, "unrecognized instance schema")
    try:
        _check_integers(data, "")
        value = _BUILDERS[kind](data, caps)
    except ElliskitError as exc:
        raise ValidationError(origin, exc) from exc
    except (KeyError, TypeError, ValueError) as exc:
        # a missing field, a value of the wrong type or an impossible value
        raise ParseError(origin, f"malformed {kind}: {type(exc).__name__}: "
                                 f"{exc}") from exc
    return InstanceFile(kind, value, _canonical(data))


def parse_instance(path, caps: Caps = DEFAULT_CAPS) -> InstanceFile:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(str(path), str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(str(path), f"not UTF-8 text (byte {exc.start})") from exc
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(str(path), f"line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:           # a repeated key or an overlong integer
        raise ParseError(str(path), str(exc)) from exc
    except RecursionError as exc:
        raise ParseError(str(path), "JSON nested too deeply") from exc
    return parse_obj(data, caps=caps, origin=str(path))


def serialize_instance(inst: InstanceFile) -> str:
    return json.dumps(inst.raw, sort_keys=True, indent=2) + "\n"
