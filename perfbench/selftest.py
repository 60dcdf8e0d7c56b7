"""Self-tests of the benchmark itself (not of elliskit).

    python3 perfbench/selftest.py

Checks the tracer's self-time arithmetic on a synthetic nested call, that
the tracer wraps every alias of every public function and restores each
binding afterwards, that the output gate trips on the hidden
``verify --corrupt`` path, and that the benchmark refuses to run without
the elliskit sources.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import random
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
from tracer import COUNTED_METHODS, Tracer, is_traced_function, percentile  # noqa: E402
from workloads import Call  # noqa: E402


def _import_elliskit():
    sys.path.insert(0, str(ROOT / "src"))
    import elliskit.cli  # noqa: F401
    return Tracer.modules()


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])

        def inner():
            now[0] += 3.0

        def outer(f):
            now[0] += 2.0
            f()
            f()
            now[0] += 1.0

        inner.__module__ = "elliskit.inner"
        outer.__module__ = "elliskit.outer"
        traced_inner = tracer._span(inner)
        tracer._span(outer)(traced_inner)
        snap = tracer.snapshot()
        self.assertEqual(snap["self_s"], {"inner": 6.0, "outer": 3.0})
        self.assertEqual(snap["calls"], {"inner": 2, "outer": 1})
        self.assertEqual(snap["functions"]["outer.outer"], [1, 3.0])
        self.assertEqual(tracer._stack, [])

    def test_generator_spans_charge_each_resumption(self):
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])

        def gen():
            for i in range(3):
                now[0] += 2.0
                yield i

        gen.__module__ = "elliskit.gen"
        self.assertEqual(list(tracer._span(gen)()), [0, 1, 2])
        self.assertEqual(tracer.snapshot()["self_s"], {"gen": 6.0})

    def test_percentile(self):
        self.assertEqual(percentile([3, 1, 2, 4], 50), 2)
        self.assertEqual(percentile(list(range(1, 101)), 95), 95)
        self.assertEqual(percentile([7.0], 95), 7.0)


class Wrapping(unittest.TestCase):
    def test_every_alias_wrapped_then_restored(self):
        mods = _import_elliskit()
        before = {(name, attr): obj for name, mod in mods
                  for attr, obj in vars(mod).items()
                  if is_traced_function(attr, obj)}
        aliases = {}
        for (name, attr), obj in before.items():
            aliases.setdefault(obj, []).append(f"{name}.{attr}")
        self.assertIn("elliskit.catalog.r_relation", aliases[
            sys.modules["elliskit.relations"].r_relation])
        pkg = dict(mods)
        examples = dict(pkg["elliskit.catalog"].EXAMPLES)
        methods = {key: getattr(getattr(pkg[f"elliskit.{key[0]}"], key[1]), key[2])
                   for key in COUNTED_METHODS}

        tracer = Tracer()
        tracer.install()
        try:
            for (name, attr), orig in before.items():
                now = getattr(pkg[name], attr)
                self.assertIsNot(now, orig, f"{name}.{attr} not wrapped")
                self.assertIs(now.__wrapped__, orig)
                self.assertIs(now, tracer.wrappers[orig])
            for key, fn in pkg["elliskit.catalog"].EXAMPLES.items():
                self.assertIs(fn.__wrapped__, examples[key])
            for key, orig in methods.items():
                now = getattr(getattr(pkg[f"elliskit.{key[0]}"], key[1]), key[2])
                self.assertIs(now.__wrapped__, orig)
            with contextlib.redirect_stdout(io.StringIO()):
                code = pkg["elliskit.cli"].main(["example", "s3-stabilizer"])
        finally:
            tracer.uninstall()
        self.assertEqual(code, 0)

        for (name, attr), orig in before.items():
            self.assertIs(getattr(pkg[name], attr), orig, f"{name}.{attr}")
        self.assertEqual(pkg["elliskit.catalog"].EXAMPLES, examples)
        for key, orig in methods.items():
            self.assertIs(getattr(getattr(pkg[f"elliskit.{key[0]}"], key[1]),
                                  key[2]), orig)

        snap = tracer.snapshot()
        self.assertGreaterEqual(snap["calls"]["cli"], 2)   # main, build_parser, ...
        self.assertGreater(snap["counts"]["flows.act_calls"], 0)
        self.assertGreater(snap["counts"]["ellis.mul_calls"], 0)
        self.assertGreater(snap["counts"]["algebra.group_elements_built"], 0)
        self.assertTrue(all(s >= 0 for s in snap["self_s"].values()))

    def test_public_functions_only(self):
        mods = dict(_import_elliskit())
        algebra = mods["elliskit.algebra"]
        self.assertTrue(is_traced_function("named_group", algebra.named_group))
        self.assertFalse(is_traced_function("_closure_indices",
                                            algebra._closure_indices))
        self.assertFalse(inspect.isfunction(algebra.FiniteGroup))


class Gate(unittest.TestCase):
    def _run(self, argv):
        gate = run.Gate(7, {}, ROOT / "src")
        run.run_pass(ROOT / "src", [[Call("verify-ellis", argv)]], False, gate)
        return gate

    def test_clean_suite_passes(self):
        gate = self._run(["verify", "--suite", "ellis", "--instances", "5",
                          "--seed", "7", "--format", "json"])
        self.assertTrue(gate.correct, gate.problems)
        self.assertEqual((gate.attempted, gate.failed), (5, 0))

    def test_corrupt_suite_trips(self):
        gate = self._run(["verify", "--suite", "ellis", "--instances", "5",
                          "--seed", "7", "--corrupt", "--format", "json"])
        self.assertFalse(gate.correct)
        self.assertGreater(gate.failed / gate.attempted, 0)

    def test_pinned_digest_mismatch_trips(self):
        gate = run.Gate(7, {"verify-ellis": "0" * 64}, ROOT / "src")
        run.run_pass(ROOT / "src", [[Call("verify-ellis", [
            "verify", "--suite", "ellis", "--instances", "3", "--seed", "7",
            "--format", "json"])]], False, gate)
        self.assertFalse(gate.correct)
        self.assertEqual(gate.failed, gate.attempted)
        base = ROOT / ".perfbench_work"
        base.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=base) as tmp:
            gate.check_ledger(Path(tmp) / "seen.json")
            self.assertFalse((Path(tmp) / "seen.json").exists())

    def test_wrong_structure_trips(self):
        gate = run.Gate(7, {}, ROOT / "src")
        call = Call("z6", ["ellis", str(ROOT / "instances" / "z6-regular-ambit.json"),
                           "--format", "json"], {"closure_size": 7})
        run.run_pass(ROOT / "src", [[call]], False, gate)
        self.assertFalse(gate.correct)
        self.assertEqual(gate.failed, 1)


    def test_ledger_catches_a_report_that_changed_between_runs(self):
        base = ROOT / ".perfbench_work"
        base.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=base) as tmp:
            ledger = Path(tmp) / "seen.json"
            verdicts = []
            for digest in ("a" * 64, "a" * 64, "b" * 64):
                gate = run.Gate(3, {}, ROOT / "src")
                gate.digests["verify-ellis"] = digest
                gate.commands["verify-ellis"] = "verify --seed 3"
                gate.check_ledger(ledger)
                verdicts.append(gate.correct)
        self.assertEqual(verdicts, [True, True, False])


class Metrics(unittest.TestCase):
    def test_pass_estimate(self):
        self.assertEqual(run.pass_estimate({"a": [3.0, 1.0, 2.0], "b": [5.0]}),
                         7.0)

    def test_reference(self):
        self.assertEqual(reference.closure_size(), 256)
        self.assertGreater(reference.rep_time(), 0)
        slow = 2 * reference.REFERENCE_S
        self.assertAlmostEqual(reference.at_reference_speed(3.0, slow), 1.5)

    def test_probe_ticks_during_a_call_and_counts_their_time(self):
        probe = reference.SpeedProbe()
        probe.start()
        try:
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass
        finally:
            probe.stop()
        self.assertGreaterEqual(len(probe.reps), 3)
        self.assertGreaterEqual(probe.stolen, sum(probe.reps))
        self.assertLess(probe.stolen, 0.3)

    def test_timed_child_reports_reference_times(self):
        res = run.run_child(ROOT / "src", [Call("s3", [
            "example", "s3-stabilizer", "--format", "json"])], False, timed=True)
        self.assertGreater(res["ref_s"], 0)
        self.assertGreater(res["calls"][0]["ref_s"], 0)
        self.assertEqual(res["calls"][0]["exit"], 0)

    def test_shuffled_pass_keeps_every_call(self):
        children = [[Call(f"c{i}{j}", []) for j in range(4)] for i in range(3)]
        rng = random.Random(1)
        orders = [run.shuffled_pass(children, rng) for _ in range(5)]
        for order in orders:
            self.assertEqual(sorted(sorted(c.label for c in calls)
                                    for calls in order),
                             sorted(sorted(c.label for c in calls)
                                    for calls in children))
        self.assertGreater(len({tuple(c.label for calls in order for c in calls)
                                for order in orders}), 1)

    def test_layer_metrics_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        empty = {"self_s": {}, "calls": {}, "counts": {}, "closure_ms": []}
        got = run.layer_metrics(empty, 1.0, 1.5)
        self.assertEqual(set(got), {m["name"] for m in spec["per_layer"]})
        for m in spec["per_layer"]:
            self.assertEqual(got[m["name"]][1], m["unit"], m["name"])
        self.assertEqual(got["trace.overhead_frac"][0], 0.5)


class Hermetic(unittest.TestCase):
    def test_no_sources_exits_nonzero_without_result(self):
        base = ROOT / ".perfbench_work"
        base.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=base) as tmp:
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "verify-ellis",
                 "--seconds", "1"], cwd=tmp, capture_output=True, text=True,
                timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_child_env(self):
        env = run.child_env()
        self.assertNotIn("ELLISKIT_CAPS", env)
        self.assertNotIn("PYTHONPATH", env)
        self.assertEqual(env["PYTHONHASHSEED"], run.HASH_SEED)

    def test_child_imports_checkout(self):
        res = run.run_child(ROOT / "src", [], False)
        self.assertTrue(Path(res["module"]).resolve().is_relative_to(ROOT / "src"))
        self.assertGreater(res["setup_s"], 0)
        json.dumps(res)


if __name__ == "__main__":
    unittest.main(verbosity=2)
