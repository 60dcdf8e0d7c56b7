"""The code-line counter in ``tools/code_lines.py``, run as a script on a
package whose lines are counted by hand, and the report digest of
``tools/report_digests.py`` on hand-written reports, and an AST scan of the
package for caps that nothing reads."""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# 9 code lines: the two imports, `def f`, its return, `class C`, `def g`,
# the two lines of the assigned string and `return s`. Not counted: the
# module, one-line and multi-line docstrings, comments and blank lines.
MIXED = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment
import sys


def f(x):
    """One-line docstring."""
    return x + 1


class C:
    """Multi-line
    class docstring.
    """

    def g(self):
        # the string below is a value, not a docstring
        s = """two lines
        of a string"""
        return s
'''


def test_code_lines_counts_per_module_and_total(tmp_path):
    (tmp_path / "mixed.py").write_text(MIXED)
    (tmp_path / "plain.py").write_text("\n\nx = 1\n\n\ny = [\n    x,\n]\n")
    (tmp_path / "__init__.py").write_text('"""Only a docstring."""\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    counts = dict(line.split() for line in done.stdout.splitlines())
    assert counts == {"__init__.py": "0", "mixed.py": "9", "plain.py": "4",
                      "total": "13"}
    assert done.stdout.splitlines()[-1].split()[0] == "total"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REPORT = {"caps": None, "kind": "suite", "name": "orbital", "passed": True,
          "seed": 7, "structures": {"instances": 2},
          "timing": {"seconds": 0.25},
          "verdicts": [{"check": "instance 0", "passed": True, "witness": None},
                       {"check": "instance 1", "passed": True, "witness": None}]}



def test_report_digest_changes_with_everything_but_timing():
    digest = load_tool("report_digests").digest

    def of(report):
        return digest(json.dumps(report, sort_keys=True, indent=2))

    base = of(REPORT)
    untimed = {key: value for key, value in REPORT.items() if key != "timing"}
    assert of(dict(REPORT, timing={"seconds": 9.5, "stages": {"closure": 1}})) == base
    assert of(untimed) == digest(json.dumps(untimed)) == base
    first, second = REPORT["verdicts"]
    variants = [dict(REPORT, seed=8), dict(REPORT, caps={"lattice_cap": 7}),
                dict(REPORT, passed=False), dict(REPORT, name="grouplike"),
                dict(REPORT, structures={"instances": 3}),
                dict(REPORT, verdicts=[first]), dict(REPORT, verdicts=[second, first]),
                dict(REPORT, verdicts=[first, dict(second, witness="(0, 1)")]),
                dict(REPORT, extra=None)]
    digests = {of(report) for report in variants}
    assert len(digests) == len(variants) and base not in digests


def test_no_dead_caps_in_src():
    """Every `Caps` field is read somewhere in the package outside `caps.py`,
    and every function parameter named `caps` is read by its function: a cap
    that nothing reads, or one handed to a function that ignores it, bounds
    nothing."""
    from dataclasses import fields

    from elliskit.caps import Caps

    read, unused = set(), []
    for path in sorted((ROOT / "src" / "elliskit").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and path.name != "caps.py":
                read.add(node.attr)
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                if "caps" in [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] \
                        and not any(isinstance(n, ast.Name) and n.id == "caps"
                                    and isinstance(n.ctx, ast.Load)
                                    for n in ast.walk(node)):
                    unused.append(f"{path.name}:{node.lineno}")
    assert [f.name for f in fields(Caps) if f.name not in read] == []
    assert unused == []
