"""Benchmark for elliskit: end-to-end times, memory and verdicts of three
workloads, and an outside-in per-layer trace.

    python3 perfbench/run.py --workload verify-ellis|verify-orbital|ellis-large
                             [--seed 7] [--seconds 38] [--trace 0|1]
    python3 perfbench/run.py --workload all      # each workload, untraced then traced

Run it from the root of a source checkout; each child interpreter imports
``elliskit`` from that checkout's ``src/``. Children run one at a time.

With ``--trace 0`` the workload is repeated pass after pass for
``--seconds``, tracing off, each call timed on its own against the
reference workload (see ``end_to_end``), and the last line of standard
output is a JSON object with the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` one pass runs untraced and one traced, and the JSON
object carries the per-layer metrics instead.

Every run gates its outputs: each call exits 0, every verdict passes, every
pass reports the same digests (the report without ``timing``) as the other
passes and as earlier runs of the seed in this checkout (kept in
``.perfbench_work/``), the digests match ``digests.json``, and
``ellis-large`` reports its known structures. A failed gate prints
``"correct": false`` and exits 1. Missing sources exit 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from reference import REFERENCE_S, at_reference_speed  # noqa: E402
from tracer import percentile  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, observed  # noqa: E402

CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 150
HASH_SEED = "0"
MIN_PASSES = 3


def child_env() -> dict:
    """The parent's environment with caps overrides cleared (DEFAULT_CAPS
    reads ELLISKIT_CAPS at import), a fixed hash seed, and no PYTHONPATH:
    the child puts the checkout's src/ first on its own path."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("ELLISKIT_CAPS", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def run_child(src: Path, calls, trace: bool, timed: bool = False) -> dict:
    """Run one child to completion; a crash, timeout or unreadable result
    comes back as ``{"error": ...}``. A timed child samples the reference
    workload around and during each call (see child.py)."""
    argv = [sys.executable, str(CHILD), str(src), "1" if trace else "0",
            json.dumps([c.argv for c in calls]), "1" if timed else "0"]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(argv, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exit {proc.returncode}: {proc.stderr[-2000:]}"}
    try:
        out = json.loads(lines[-1])
    except ValueError:
        return {"error": f"unreadable child output: {lines[-1][:200]}"}
    out["setup_s"] = out["imported"] - spawned
    return out


class Gate:
    """Collects verdict counts and every reason a run is not correct."""

    def __init__(self, seed: int, pinned: dict, src: Path):
        self.seed, self.pinned, self.src = seed, pinned, src
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.commands: dict[str, str] = {}     # label -> argv, paths as names
        self.pass_checks: list[int] = []
        self.modules: set[str] = set()          # elliskit.cli as the children found it

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def check_pass(self, children, results) -> None:
        checks = 0
        for calls, res in zip(children, results):
            if "error" in res:
                # a crashed child counts every call as failed
                n = len(calls)
                self.attempted += n
                self.failed += n
                checks += n
                self.problem(f"{calls[0].label}: {res['error']}")
                continue
            module = Path(res["module"]).resolve()
            self.modules.add(str(module))
            if self.src not in module.parents:
                self.problem(f"elliskit imported from {module}, not {self.src}")
            for call, got in zip(calls, res["calls"]):
                checks += self._check_call(call, got)
        self.pass_checks.append(checks)

    def _check_call(self, call, got) -> int:
        """Gate one call; returns the number of checks it made. A bad exit,
        a missing report or a wrong digest fails every check of the call."""
        label = call.label
        self.commands[label] = " ".join(os.path.basename(a) for a in call.argv)
        n = max(got.get("verdicts", 0), 1) + len(call.expect)
        digest = got.get("digest")
        wrong = None
        if got["exit"] != 0 or digest is None:
            wrong = f"exit {got['exit']!r}"
        elif self.digests.setdefault(label, digest) != digest:
            wrong = "report differs between passes"
        elif self.pinned.get(label, digest) != digest:
            wrong = f"digest {digest[:12]} != recorded {self.pinned[label][:12]}"
        if wrong:
            self.problem(f"{label}: {wrong}")
            bad = n
        else:
            bad = got["failed"]
            if bad:
                self.problem(f"{label}: {bad} failed verdicts")
            facts = observed(got["structures"])
            for key, want in call.expect.items():
                if facts[key] != want:
                    self.problem(f"{label}: {key} = {facts[key]}, expected {want}")
                    bad += 1
        self.attempted += n
        self.failed += bad
        return n

    def check_ledger(self, path: Path) -> None:
        """Compare this run's digests with earlier runs of the same command
        and seed in this checkout; a correct run adds its digests."""
        try:
            ledger = json.loads(path.read_text())
        except (OSError, ValueError):
            ledger = {}
        seen = ledger.setdefault(str(self.seed), {})
        for label, digest in self.digests.items():
            if seen.get(self.commands[label], digest) != digest:
                self.problem(f"{label}: report differs from an earlier run "
                             f"of seed {self.seed}")
        if self.correct:
            for label, digest in self.digests.items():
                seen.setdefault(self.commands[label], digest)
            path.write_text(json.dumps(ledger, indent=1, sort_keys=True))

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def pinned_digests(workload: str) -> dict:
    """Recorded digests. No workload's reports depend on the seed, which
    only orders the calls or relabels the inputs, so they hold for all."""
    return json.loads((HERE / "digests.json").read_text())[workload]


def run_pass(src, children, trace, gate, timed=False):
    results = [run_child(src, calls, trace, timed) for calls in children]
    gate.check_pass(children, results)
    return results


def pass_wall(results) -> float:
    """A timed pass's call times, summed at the reference speed."""
    return sum(at_reference_speed(got["wall_s"], got["ref_s"])
               for r in results for got in r.get("calls", []))


def setup_probe(src, gate) -> list[dict]:
    """A timed child that only imports elliskit.cli, for its start-up."""
    res = run_child(src, [], False, timed=True)
    if "error" in res:
        gate.problem(f"setup probe: {res['error']}")
        return []
    return [res]


def shuffled_pass(children, rng):
    """The children and the calls within each in a fresh order, so that no
    call always runs first in its interpreter."""
    return [rng.sample(calls, len(calls))
            for calls in rng.sample(children, len(children))]


def another_fits(lengths: list[float], start: float, seconds: float) -> bool:
    """Whether a pass of the median length so far ends within ``seconds``
    of ``start``, so a run lasts about ``seconds`` however slow the host."""
    return (time.perf_counter() - start + statistics.median(lengths)
            <= seconds)


def pass_estimate(samples: dict) -> float:
    """The cost of one pass: each call's median time, summed."""
    return sum(statistics.median(times) for times in samples.values())


def end_to_end(src, children, seconds, seed, gate) -> dict:
    """Repeat passes for ``seconds`` (at least MIN_PASSES), each preceded by
    a set-up probe and run in a seeded order, and time every call.

    The host's CPU speed swings by a third over tens of seconds, so plain
    times depend on when a run fell. Every child therefore samples the
    fixed reference workload (reference.py) after its import, and around
    and during each call, and each time is rescaled to the reference speed
    by the mean rep time it saw (``at_reference_speed``). ``wall_s`` sums
    each call's median rescaled time; ``setup_s`` is the median rescaled
    start-up time. The plain figures are printed too."""
    rng = random.Random(seed)
    setup_probe(src, gate)      # warm-up: byte-compiles, fills file caches
    scaled, plain, starts, rss, lengths = {}, {}, [], [], []
    passes = []         # plain time of each pass's calls
    start = time.perf_counter()
    while len(lengths) < MIN_PASSES or another_fits(lengths, start, seconds):
        began = time.perf_counter()
        probes = setup_probe(src, gate)
        order = shuffled_pass(children, rng)
        results = run_pass(src, order, False, gate, timed=True)
        passes.append(sum(got["wall_s"] for res in results
                          for got in res.get("calls", [])))
        for calls, res in zip(order, results):
            for call, got in zip(calls, res.get("calls", [])):
                plain.setdefault(call.label, []).append(got["wall_s"])
                scaled.setdefault(call.label, []).append(
                    at_reference_speed(got["wall_s"], got["ref_s"]))
        for res in probes + results:
            if "setup_s" in res:
                starts.append((res["setup_s"], res["ref_s"]))
        rss.append(max((r.get("maxrss_kb", 0) for r in results), default=0))
        lengths.append(time.perf_counter() - began)
    ordered = sorted(passes)
    tail = (f"p{100 * (len(passes) - 10) // len(passes)} "
            f"{ordered[len(passes) - 11]:.4f} s"
            if len(passes) > 10 else "no percentile has 10 samples beyond it")
    print(f"plain pass: median {statistics.median(passes):.4f} s, max "
          f"{ordered[-1]:.4f} s, {tail}; samples {len(passes)} passes")
    for label, times in sorted(scaled.items()):
        print(f"call {label}: {statistics.median(times):.4f} s at reference "
              f"speed; plain median {statistics.median(plain[label]):.4f} s, "
              f"fastest {min(plain[label]):.4f} s; {len(times)} samples")
    wall = pass_estimate(scaled) if scaled else 0.0
    setup = (statistics.median(at_reference_speed(s, r) for s, r in starts)
             if starts else 0.0)
    print(f"wall_s: {wall:.4f} s at reference speed over {len(lengths)} "
          f"passes; plain {pass_estimate(plain) if plain else 0.0:.4f} s")
    if starts:
        refs = [r for _, r in starts]
        print(f"setup_s: {setup:.4f} s at reference speed, median of "
              f"{len(starts)} child starts; plain "
              f"{statistics.median(s for s, _ in starts):.4f} s")
        print(f"reference rep: median {1e3 * statistics.median(refs):.3f} ms, "
              f"range {1e3 * min(refs):.3f} to {1e3 * max(refs):.3f} ms "
              f"(nominal {1e3 * REFERENCE_S:.3f} ms)")
    passed = (gate.attempted - gate.failed) / max(gate.attempted, 1)
    print(f"check_failure_rate: {gate.failed}/{gate.attempted} "
          f"= {1 - passed:.6f}")
    return {
        "wall_s": (wall, "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (statistics.median(rss) / 1024.0, "MB"),
        "check_pass_rate": (passed, "frac"),
        "checks_total": (gate.pass_checks[0], "count"),
    }


LAYER_TIMES = ("flows", "relations", "catalog", "algebra", "generators",
               "ellis", "grouplike", "structured", "suites", "io", "cli")
LAYER_CALLS = ("algebra", "ellis", "grouplike", "structured")
COUNTS = ("flows.act_calls", "relations.r_relation_calls",
          "relations.pairs_materialised", "algebra.group_elements_built",
          "algebra.subgroup_enum_calls", "algebra.subgroups_enumerated",
          "generators.group_catalog_calls", "ellis.mul_calls",
          "ellis.closure_elements", "relations.weak_subgroups_checked")


def merge_traces(results) -> dict:
    merged = {"self_s": {}, "calls": {}, "counts": {}, "closure_ms": [],
              "functions": {}}
    for r in results:
        t = r.get("trace") or {}
        for key in ("self_s", "calls", "counts"):
            for name, val in t.get(key, {}).items():
                merged[key][name] = merged[key].get(name, 0) + val
        merged["closure_ms"] += t.get("closure_ms", [])
        for name, (n, s) in t.get("functions", {}).items():
            got = merged["functions"].setdefault(name, [0, 0.0])
            got[0] += n
            got[1] += s
    return merged


def layer_metrics(t: dict, plain: float, traced: float) -> dict:
    """Per-layer metrics from a merged trace and the untraced and traced
    pass times. A layer the workload never reaches reads 0."""
    counts = t["counts"]

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for layer in LAYER_TIMES:
        metrics[f"{layer}.self_s"] = (t["self_s"].get(layer, 0.0), "s")
    for layer in LAYER_CALLS:
        metrics[f"{layer}.calls"] = (t["calls"].get(layer, 0), "count")
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    metrics["algebra.subgroup_enum_repeat_frac"] = (ratio(
        counts.get("algebra.subgroup_enum_repeats", 0),
        counts.get("algebra.subgroup_enum_calls", 0)), "frac")
    metrics["relations.weak_witness_rate"] = (ratio(
        counts.get("relations.weak_witnesses", 0),
        counts.get("relations.weak_subgroups_checked", 0)), "frac")
    closures = t["closure_ms"]
    for q in (50, 95):
        metrics[f"ellis.closure_p{q}_ms"] = (
            percentile(closures, q) if closures else 0.0, "ms")
    metrics["trace.overhead_frac"] = (ratio(traced - plain, plain), "frac")
    return metrics


def per_layer(src, children, gate) -> dict:
    plain = pass_wall(run_pass(src, children, False, gate, timed=True))
    traced_results = run_pass(src, children, True, gate, timed=True)
    traced = pass_wall(traced_results)
    t = merge_traces(traced_results)
    print(f"trace: untraced pass {plain:.4f} s, traced pass {traced:.4f} s "
          f"at reference speed, {len(t['closure_ms'])} closures")
    for name, (n, s) in sorted(t["functions"].items(),
                               key=lambda kv: -kv[1][1])[:15]:
        print(f"  span {name}: {n} calls, self {s:.4f} s")
    return layer_metrics(t, plain, traced)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 src: Path) -> int:
    """One run: print its lines and its result; return the exit code."""
    print(f"python {sys.version.split()[0]}, nproc {os.cpu_count()}, "
          f"workload {workload}, seed {seed}, trace {int(trace)}")
    gate = Gate(seed, pinned_digests(workload), src)
    work_base = src.parent / ".perfbench_work"
    work_base.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_base) as workdir:
        children = WORKLOADS[workload](seed, workdir)
        if trace:
            metrics = per_layer(src, children, gate)
        else:
            metrics = end_to_end(src, children, seconds, seed, gate)
    gate.check_ledger(work_base / "seen-digests.json")
    print(f"elliskit.cli imported from {', '.join(sorted(gate.modules))}")
    for label, digest in sorted(gate.digests.items()):
        print(f"digest {workload} {label} {digest}")
    for problem in gate.problems:
        print(f"gate: {problem}")
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": val, "unit": unit}
                    for name, (val, unit) in metrics.items()},
    }), flush=True)
    return 0 if gate.correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        required=True,
                        help="'all' runs every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = HERE.parent / "src"
    if not (src / "elliskit" / "cli.py").is_file():
        print(f"error: no elliskit sources under {src}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace), src)
    codes = [run_workload(name, args.seed, args.seconds, trace, src)
             for name in WORKLOADS for trace in (False, True)]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
