import pytest

from elliskit.catalog import (
    EXAMPLES,
    orbital_catalog,
    run_example,
    structured_catalog,
)
from elliskit.errors import UnknownExample


def test_all_examples_pass():
    for name in sorted(EXAMPLES):
        rep = run_example(name)
        assert rep.passed, f"{name}: {rep.to_text()}"


def test_unknown_example_rejected():
    with pytest.raises(UnknownExample):
        run_example("does-not-exist")


def test_structured_catalog_shape():
    kinds = [kind for _, kind in structured_catalog()]
    assert kinds.count("counterexample") == 1
    assert "orbital" in kinds and "weakly-orbital" in kinds


def test_orbital_catalog_within_bounds():
    actions = orbital_catalog()
    assert len(actions) >= 6
    for flow in actions:
        assert flow.points <= 6 and flow.group.order <= 8


def test_example_reports_are_deterministic():
    a = run_example("s3-stabilizer").to_json(include_timing=False)
    b = run_example("s3-stabilizer").to_json(include_timing=False)
    assert a == b
