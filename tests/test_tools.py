"""The code-line counter in ``tools/code_lines.py``, run as a script on a
package whose lines are counted by hand."""

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
