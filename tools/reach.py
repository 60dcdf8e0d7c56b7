"""List every function and method of the elliskit package that no command
reaches. Standard library only.

    python3 tools/reach.py

Runs in-process, under `sys.setprofile`, the commands whose reports
`tools/report_digests.py` digests (the bundled examples, the four seed-7
`verify` suites and the README instance commands), plus one
`orbital --decide-weak`, one `analyze --relation` and one `grouplike` call
on the sample instances, the last with the text report. Prints each
function at module level and each method of a module-level class in
`src/elliskit` that none of them calls, dunder methods aside, as
`module.qualname` in source order. README says of each name printed why
no command reaches it.
"""

from __future__ import annotations

import ast
import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

from report_digests import ROOT, commands

SRC = ROOT / "src" / "elliskit"
EXTRA = (
    ["orbital", "instances/z6-regular-ambit.json", "--relation",
     "instances/z6-cosets.json", "--decide-weak", "--format", "json"],
    ["analyze", "instances/z6-regular-ambit.json", "--relation",
     "instances/z6-cosets.json", "--format", "json"],
    ["grouplike", "instances/s3-natural-ambit.json", "--relation",
     "instances/equality-on-3.json", "--format", "text"],
)


def definitions():
    """(path, qualname, node) for each function at module level and each
    method of a module-level class, dunder methods aside, in source order."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__")
                                     and item.name.endswith("__"))):
                        yield path, f"{node.name}.{item.name}", item
            elif isinstance(node, ast.FunctionDef):
                yield path, node.name, node


def called_code() -> set[tuple[str, str, int]]:
    """(file, name, first line) of every Python function the commands
    call, the package's imports included."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_name, code.co_firstlineno))

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.setprofile(profile)
    try:
        from elliskit.catalog import EXAMPLES
        from elliskit.cli import main as cli_main

        for argv in commands(EXAMPLES) + list(EXTRA):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                cli_main(argv)
    finally:
        sys.setprofile(None)
    return called


def main() -> int:
    called = called_code()
    for path, qualname, node in definitions():
        # a decorated function's code starts at its first decorator
        lines = {node.lineno, *(d.lineno for d in node.decorator_list)}
        if not any((str(path), node.name, line) in called for line in lines):
            print(f"{path.stem}.{qualname}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
