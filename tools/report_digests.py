"""Print the exit code and a digest of the JSON report of every command
whose report must stay the same from one change to the next: the six
bundled examples, the four `verify` suites at seed 7, and each README
command that names a file under instances/. Standard library only.

    python3 tools/report_digests.py

Runs the commands in-process against the package in the `src/` next to
this script's parent directory, from that directory. Prints one line per
command: exit code, sha256 of its report with the `timing` block removed,
and the command. Two checkouts give the same lines iff their reports agree
outside `timing`.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERIFY = (("ellis", 200), ("grouplike", 100), ("orbital", 100), ("structured", 10))


def digest(text: str) -> str:
    """sha256 of a JSON report (key order kept) without its `timing`."""
    report = json.loads(text) if text.strip() else {}
    report.pop("timing", None)
    return hashlib.sha256(json.dumps(report).encode()).hexdigest()


def readme_commands() -> list[list[str]]:
    """Each `elliskit ...` line of the README's code blocks naming a file
    under instances/, as arguments."""
    blocks = (ROOT / "README.md").read_text().split("```")[1::2]
    return [shlex.split(line)[1:] for block in blocks
            for line in block.splitlines()
            if line.startswith("elliskit ") and "instances/" in line]


def commands(examples) -> list[list[str]]:
    argvs = [["example", name] for name in sorted(examples)]
    argvs += [["verify", "--suite", suite, "--instances", str(count), "--seed", "7"]
              for suite, count in VERIFY]
    return [argv + ["--format", "json"] for argv in argvs + readme_commands()]


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from elliskit.catalog import EXAMPLES
    from elliskit.cli import main as cli_main

    for argv in commands(EXAMPLES):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli_main(argv)
        print(code, digest(out.getvalue()), shlex.join(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
