"""Outside-in layer tracer for elliskit.

The tracer patches the loaded ``elliskit`` package from outside; the source
is never edited. Every public module-level function is replaced, in every
``elliskit.*`` namespace that binds it (and in module-level dicts that hold
it, such as ``catalog.EXAMPLES``), by one timing wrapper that records a span.
A layer is the module that defines the function. A layer's self time is the
duration of its spans minus the time covered by their child spans.

A few methods are too hot to time (ten million calls on one affine example),
so they are only counted: ``Flow.act``, ``Flow.gen_act``, ``Flow.map_of`` and
``EllisSemigroup.mul``. Two constructors are counted with a size, which gives
``algebra.group_elements_built`` and ``relations.pairs_materialised``.
Their time, and the time of every method not listed, lands in the span of
the calling function.

``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "elliskit"

# (module, class, method) -> counter name; each call adds one.
COUNTED_METHODS = {
    ("flows", "Flow", "act"): "flows.act_calls",
    ("flows", "Flow", "gen_act"): "flows.act_calls",
    ("flows", "Flow", "map_of"): "flows.act_calls",
    ("ellis", "EllisSemigroup", "mul"): "ellis.mul_calls",
}


def _group_size(args, result):
    return len(args[1])          # FiniteGroup.__init__(self, mul, ...)


def _pairs_size(args, result):
    return len(result)           # EquivRelation.pairs(self) -> frozenset


# (module, class, method) -> (counter name, size of one call).
SIZED_METHODS = {
    ("algebra", "FiniteGroup", "__init__"): ("algebra.group_elements_built",
                                             _group_size),
    ("relations", "EquivRelation", "pairs"): ("relations.pairs_materialised",
                                              _pairs_size),
}


def layer_of(fn) -> str:
    """The layer of a function: the elliskit module that defines it."""
    return fn.__module__.split(".", 1)[1]


def is_traced_function(name: str, obj) -> bool:
    return (inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__.startswith(PACKAGE + "."))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty list, 0 < q <= 100."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Tracer:
    """Spans and counters for one process. Create, ``install()``, run the
    workload, ``uninstall()``, then read ``snapshot()``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = defaultdict(float)     # layer -> self seconds
        self.calls = defaultdict(int)        # layer -> spans
        self.fn_stats = defaultdict(lambda: [0, 0.0])  # name -> [calls, self_s]
        self.counts = defaultdict(int)
        self.closure_ms: list[float] = []
        self._stack: list[float] = []        # child time of each open span
        self._cells: dict[str, list[int]] = {}
        self._enumerated: set = set()
        self._restore: list[tuple[object, str, object]] = []
        self._dict_restore: list[tuple[dict, object, object]] = []
        self.wrappers: dict = {}             # original function -> wrapper
        self._observers = {
            "algebra.enumerate_subgroups": self._saw_subgroups,
            "relations.r_relation": self._saw_r_relation,
            "relations.is_weakly_orbital": self._saw_weak_decision,
            "ellis.enveloping_semigroup": self._saw_closure,
            "generators.group_catalog": self._saw_catalog,
        }

    # -- observers: counts read from a traced call's arguments and result --

    def _saw_subgroups(self, args, result, seconds):
        self.counts["algebra.subgroup_enum_calls"] += 1
        self.counts["algebra.subgroups_enumerated"] += len(result)
        key = args[0].mul                    # the group, by its table
        if key in self._enumerated:
            self.counts["algebra.subgroup_enum_repeats"] += 1
        self._enumerated.add(key)

    def _saw_r_relation(self, args, result, seconds):
        self.counts["relations.r_relation_calls"] += 1
        self.counts["relations.pairs_materialised"] += len(result.pairs)

    def _saw_weak_decision(self, args, result, seconds):
        self.counts["relations.weak_subgroups_checked"] += result.subgroups_checked
        self.counts["relations.weak_witnesses"] += int(bool(result))

    def _saw_closure(self, args, result, seconds):
        self.counts["ellis.closure_elements"] += result.size
        self.closure_ms.append(seconds * 1000.0)

    def _saw_catalog(self, args, result, seconds):
        self.counts["generators.group_catalog_calls"] += 1

    # -- wrappers --

    def _span(self, fn):
        layer = layer_of(fn)
        name = f"{layer}.{fn.__name__}"
        observe = self._observers.get(name)
        stack, clock = self._stack, self.clock
        self_s, calls, stats = self.self_s, self.calls, self.fn_stats[name]

        def close(t0):
            dt = clock() - t0
            own = dt - stack.pop()
            self_s[layer] += own
            calls[layer] += 1
            stats[0] += 1
            stats[1] += own
            if stack:
                stack[-1] += dt
            return dt

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so iteration time is charged here
            @functools.wraps(fn)
            def gen_span(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    t0 = clock()
                    stack.append(0.0)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(t0)
                    yield item
            return gen_span

        @functools.wraps(fn)
        def span(*args, **kwargs):
            t0 = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = close(t0)
            if observe is not None:
                observe(args, result, dt)
            return result
        return span

    def _counted(self, fn, counter):
        cell = self._cells.setdefault(counter, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return counted

    def _sized(self, fn, counter, size):
        counts = self.counts

        @functools.wraps(fn)
        def sized(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[counter] += size(args, result)
            return result
        return sized

    def _patch(self, owner, name, new):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    @staticmethod
    def modules():
        return sorted((name, mod) for name, mod in sys.modules.items()
                      if name == PACKAGE or name.startswith(PACKAGE + "."))

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = self.modules()
        if not mods:
            raise RuntimeError(f"{PACKAGE} is not imported")
        for _, mod in mods:
            for attr, obj in list(vars(mod).items()):
                if is_traced_function(attr, obj):
                    if obj not in self.wrappers:
                        self.wrappers[obj] = self._span(obj)
                    self._patch(mod, attr, self.wrappers[obj])
        for _, mod in mods:
            for attr, obj in vars(mod).items():
                if isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in self.wrappers:
                            self._dict_restore.append((obj, key, val))
                            obj[key] = self.wrappers[val]
        pkg = dict(mods)
        for (mod, cls, meth), counter in COUNTED_METHODS.items():
            owner = getattr(pkg[f"{PACKAGE}.{mod}"], cls)
            self._patch(owner, meth, self._counted(getattr(owner, meth), counter))
        for (mod, cls, meth), (counter, size) in SIZED_METHODS.items():
            owner = getattr(pkg[f"{PACKAGE}.{mod}"], cls)
            self._patch(owner, meth, self._sized(getattr(owner, meth), counter, size))

    def uninstall(self) -> None:
        for table, key, val in reversed(self._dict_restore):
            table[key] = val
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._dict_restore.clear()
        self._restore.clear()

    def snapshot(self) -> dict:
        counts = dict(self.counts)
        for counter, cell in self._cells.items():
            counts[counter] = counts.get(counter, 0) + cell[0]
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": counts,
            "closure_ms": list(self.closure_ms),
            "functions": {k: list(v) for k, v in self.fn_stats.items()},
        }
