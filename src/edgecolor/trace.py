"""Pipeline trace: ordered guard evaluations and free-form notes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class GuardRecord:
    step: str
    guard: str
    lhs: object
    rhs: object
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "guard": self.guard,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
            "note": self.note,
        }


@dataclass
class PipelineTrace:
    entries: list[GuardRecord] = field(default_factory=list)
    seed: Optional[int] = None
    retries: Optional[int] = None
    condition: str = ""  # the engine condition (a)-(e) that matched, if any

    def check(
        self,
        step: str,
        guard: str,
        lhs: object,
        rhs: object,
        passed: bool,
        note: str = "",
    ) -> bool:
        self.entries.append(GuardRecord(step, guard, lhs, rhs, passed, note))
        return passed

    def note(self, step: str, message: str) -> None:
        self.entries.append(GuardRecord(step, "note", None, None, True, message))

    def to_list(self) -> list[dict]:
        return [e.to_dict() for e in self.entries]
