"""Machine-readable run reports: deterministic modulo the timing block."""

from __future__ import annotations

import json
from typing import NamedTuple


class Verdict(NamedTuple):
    check: str
    passed: bool
    witness: str | None = None


class Report:
    """One run's verdicts, structures and timing; `kind` is example, suite
    or analysis."""

    __slots__ = ("kind", "name", "seed", "caps", "verdicts", "structures",
                 "timing")

    def __init__(self, kind: str, name: str, seed: int | None = None,
                 caps: dict | None = None):
        self.kind, self.name, self.seed, self.caps = kind, name, seed, caps
        self.verdicts: list[Verdict] = []
        self.structures: dict = {}
        self.timing: dict = {}

    def record(self, check: str, passed: bool, witness=None):
        text = None
        if witness is not None:
            text = witness if isinstance(witness, str) else repr(witness)
        self.verdicts.append(Verdict(check, bool(passed), text))

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    @property
    def failure_count(self) -> int:
        return sum(1 for v in self.verdicts if not v.passed)

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "kind": self.kind,
            "name": self.name,
            "seed": self.seed,
            "caps": self.caps,
            "passed": self.passed,
            "verdicts": [
                {"check": v.check, "passed": v.passed, "witness": v.witness}
                for v in self.verdicts
            ],
            "structures": self.structures,
        }
        if include_timing:
            out["timing"] = self.timing
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [f"{self.kind} {self.name}: "
                 f"{'PASS' if self.passed else 'FAIL'} "
                 f"({len(self.verdicts)} checks, {self.failure_count} failures)"]
        for v in self.verdicts:
            mark = "ok " if v.passed else "FAIL"
            suffix = f"  [{v.witness}]" if (v.witness and not v.passed) else ""
            lines.append(f"  {mark} {v.check}{suffix}")
        for key, val in sorted(self.structures.items()):
            lines.append(f"  {key} = {val}")
        return "\n".join(lines)
