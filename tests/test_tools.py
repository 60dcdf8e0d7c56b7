"""The code-line counter in ``tools/code_lines.py``, run as a script on a
package whose lines are counted by hand, and the report digest of
``tools/report_digests.py`` on hand-written reports, the committed list of
``tools/reach.py`` and its README section, AST scans of the package for
caps that nothing reads and error classes that nothing uses, and the
package's start-up imports and read-only records."""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_reach_lists_the_committed_unreached_names():
    """`tools/reach.py` prints `tools/unreached.txt`, and README's
    library-only section names every function on it."""
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "reach.py")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    committed = (ROOT / "tools" / "unreached.txt").read_text()
    assert done.stdout == committed
    section = (ROOT / "README.md").read_text().split("## Library-only code")[1]
    section = section.split("\n## ")[0]
    assert [name for name in committed.split() if f"`{name}`" not in section] == []


def test_no_dead_caps_in_src():
    """Every `Caps` field is read somewhere in the package outside `caps.py`,
    and every function parameter named `caps` is read by its function: a cap
    that nothing reads, or one handed to a function that ignores it, bounds
    nothing."""
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
    assert [name for name in Caps._fields if name not in read] == []
    assert unused == []


# Raises that a protocol asks for: attribute lookup, attribute assignment on
# a read-only class, a json object hook, the builders' integer check (caught
# by `io` and reported as a ParseError) and an argparse type function.
PROTOCOL_RAISES = {
    ("algebra.py", "__getattr__", "AttributeError"),
    ("algebra.py", "_read_only", "AttributeError"),
    ("caps.py", "_unique_keys", "ValueError"),
    ("io.py", "_check_integers", "TypeError"),
    ("cli.py", "integer", "argparse.ArgumentTypeError"),
}
# Raises of an error built elsewhere: `_record_error`'s ElliskitError passed
# back up, the ParseError `caps._from_env` kept, and the cap error a
# `_right_closure` caller builds.
PASSED_ON = {
    ("suites.py", "_record_error", "exc"),
    ("cli.py", "main", "ENV_ERROR"),
    ("algebra.py", "_right_closure", "overflow"),
}


def test_every_raise_in_src_names_an_elliskit_error():
    """Walks the package's AST: every `raise` names an `ElliskitError`
    subclass, one of the protocol raises or one of the errors passed on. A
    check that "cannot happen" therefore never surfaces as an
    AssertionError or RuntimeError traceback."""
    from elliskit import errors

    found, bad = set(), []

    class Raises(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.functions = module, ["<module>"]

        def visit_FunctionDef(self, node):
            self.functions.append(node.name)
            self.generic_visit(node)
            self.functions.pop()

        def visit_Raise(self, node):
            if node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                site = (self.module, self.functions[-1], ast.unparse(exc))
                cls = getattr(errors, site[2], None)
                if site in PROTOCOL_RAISES | PASSED_ON:
                    found.add(site)
                elif not (isinstance(cls, type) and issubclass(cls, errors.ElliskitError)):
                    bad.append(f"{site[0]}:{node.lineno} {site[2]}")

    for path in sorted((ROOT / "src" / "elliskit").glob("*.py")):
        Raises(path.name).visit(ast.parse(path.read_text(encoding="utf-8")))
    assert bad == []
    assert found == PROTOCOL_RAISES | PASSED_ON


def test_every_error_class_is_used():
    """Every class that `errors.py` defines is read by name somewhere in the
    package outside `errors.py` (an import alone does not count): an error
    that nothing raises or catches is dead code."""
    src = ROOT / "src" / "elliskit"
    defined = [node.name for node in ast.parse(
        (src / "errors.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)]
    read = set()
    for path in sorted(src.glob("*.py")):
        if path.name != "errors.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    assert defined and [name for name in defined if name not in read] == []


def test_startup_loads_no_code_generator():
    """A fresh interpreter that imports the package and its command line
    loads neither `dataclasses` nor `inspect`: records are NamedTuples or
    slots classes. (The NamedTuples still `eval` a `__new__` each and
    compile their annotations at import; that is not checked here.)"""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import elliskit, elliskit.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-B", "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_records_are_read_only_and_keep_their_repr():
    """Assigning to or deleting a record's field raises AttributeError, and a
    record recorded as a witness reads `Name(field=value, ...)`. A shared
    catalog instance's lattice map and its lattices refuse writes too."""
    from elliskit.algebra import Subgroup, named_group
    from elliskit.caps import DEFAULT_CAPS
    from elliskit.catalog import structured_catalog
    from elliskit.ellis import enveloping_semigroup, ideal_group, minimal_left_ideals
    from elliskit.flows import regular_flow
    from elliskit.relations import WitnessPair, make_relation
    from elliskit.report import Report, Verdict

    G = named_group("symmetric", n=3)
    H = Subgroup(G, frozenset({G.identity}))
    pair = WitnessPair(H, frozenset({0, 2}))
    flow = regular_flow(G)
    E = make_relation(6, [[1, 0], [2, 3], [4, 5]], flow)
    M = minimal_left_ideals(enveloping_semigroup(flow))[0]
    for record, field in [(H, "members"), (E, "classes"), (DEFAULT_CAPS, "closure_cap"),
                          (Verdict("check", True), "passed"), (pair, "support"),
                          (ideal_group(M, M.idempotents[0]), "members"),
                          (flow, "maps"), (structured_catalog()[0][0], "lattices")]:
        for change in (lambda: setattr(record, field, None),
                       lambda: delattr(record, field),
                       lambda: setattr(record, "extra", None)):
            with pytest.raises(AttributeError):
                change()
    lattices = structured_catalog()[0][0].lattices
    with pytest.raises(TypeError):
        lattices["X"] = lattices["G"]
    with pytest.raises(AttributeError):
        lattices["X"].masks = ()
    subgroup = ("Subgroup(parent=FiniteGroup(symmetric(3), order=6), "
                "members=frozenset({2}), sorted_members=(2,))")
    assert repr(H) == subgroup
    assert repr(E) == ("EquivRelation(points=6, classes=((0, 1), (2, 3), (4, 5)), "
                       "flow=Flow(group, points=6 regular(symmetric(3))), "
                       "invariant=True, invariance_witness=None)")
    rep = Report("analysis", "records")
    rep.record("witness", False, pair)
    assert rep.verdicts == [Verdict("witness", False, f"WitnessPair(subgroup={subgroup}, "
                                                     "support=frozenset({0, 2}))")]
