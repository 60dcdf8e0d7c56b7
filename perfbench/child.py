"""One benchmark child: a fresh interpreter that imports elliskit from a
source tree, runs a list of CLI invocations through ``elliskit.cli.main`` and
prints one JSON line describing what happened.

    python3 perfbench/child.py <src dir> <trace 0|1> <calls as JSON> [<timed 0|1>]

``calls`` is a list of argv lists. The child records when ``elliskit.cli``
finished importing (CLOCK_MONOTONIC, comparable with the parent's clock),
the wall time from then to the last report, its peak RSS, and for each call
its own wall time, the exit code, the report's digest without its ``timing``
block, its verdict counts and its ``structures``. With trace 1 the layer
tracer is installed after the import and its snapshot is added. With timed 1
a ``reference.SpeedProbe`` runs reference reps after the import, after each
call and every 50 ms during it; the child takes the reps' time out of the
call's time and reports the mean rep time of the first reps and, for each
call, of the reps just before, during and just after it.
"""

import sys
import time


def main() -> int:
    src, trace, calls_json = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    timed = len(sys.argv) > 4 and sys.argv[4] == "1"
    sys.path.insert(0, src)
    import elliskit.cli as cli
    imported = time.clock_gettime(time.CLOCK_MONOTONIC)

    import contextlib
    import hashlib
    import io
    import json
    import resource
    import traceback

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    probe = None
    if timed:
        from statistics import fmean

        from reference import BOUNDARY_REPS, SpeedProbe
        probe = SpeedProbe()
        probe.boundary()
    outputs = []
    start = time.perf_counter()
    for argv in json.loads(calls_json):
        buf = io.StringIO()
        if probe is not None:
            first, stolen = len(probe.reps) - BOUNDARY_REPS, probe.stolen
            probe.start()
        began = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:       # a crash is reported, not raised
            code = "crash: " + traceback.format_exc(limit=3)
        if probe is not None:
            probe.stop()
        took = time.perf_counter() - began
        ref = None
        if probe is not None:
            took -= probe.stolen - stolen
            probe.boundary()
            ref = fmean(probe.reps[first:])
        outputs.append((argv, code, buf.getvalue(), took, ref))
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()

    results = []
    for argv, code, out, call_wall, ref in outputs:
        entry = {"argv": argv, "exit": code, "wall_s": call_wall, "ref_s": ref}
        try:
            report = json.loads(out)
        except ValueError:
            report = None
        if isinstance(report, dict):
            report.pop("timing", None)
            canon = json.dumps(report, sort_keys=True).encode()
            verdicts = report.get("verdicts", [])
            entry.update(
                digest=hashlib.sha256(canon).hexdigest(),
                verdicts=len(verdicts),
                failed=sum(1 for v in verdicts if not v["passed"]),
                structures=report.get("structures", {}),
            )
        results.append(entry)

    print(json.dumps({
        "imported": imported,
        "module": cli.__file__,
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ref_s": fmean(probe.reps[:BOUNDARY_REPS]) if timed else None,
        "calls": results,
        "trace": tracer.snapshot() if tracer is not None else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
