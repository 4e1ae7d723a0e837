"""Pipeline trace, and the one answer both front doors give.

A :class:`PipelineTrace` records guard evaluations and free-form notes in
order.  The two front doors, ``reduction.color_odd_dense`` and
``engine.dcolor``, both end in a :class:`Result`: a verdict, a verified
coloring of the input and the trace.  The five verdicts are named here,
with the set of decided ones.  On a guard failure both go through
:func:`fall_back`, the one fallback tail: it notes the failure, colors the
input with the colorer it is given and verifies that coloring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .coloring import EdgeColoring, verify_proper
from .multigraph import Multigraph

# The odd-order pipeline ends ClassOne (Delta colors), ClassTwo (overfull,
# Delta+1 colors) or FallbackClassUnknown; the engine ends Colored (at
# most Delta colors) or Fallback.
CLASS_ONE = "ClassOne"
CLASS_TWO = "ClassTwo"
COLORED = "Colored"
FALLBACK_CLASS_UNKNOWN = "FallbackClassUnknown"
FALLBACK = "Fallback"
DECIDED = frozenset((CLASS_ONE, CLASS_TWO, COLORED))


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

    def check(self, step: str, guard: str, lhs: object, rhs: object, passed: bool) -> bool:
        """Record a guard.  JSON has no infinity, so a side that overflowed
        to inf is kept as the string "inf"."""
        lhs, rhs = (str(v) if isinstance(v, float) and not math.isfinite(v) else v for v in (lhs, rhs))
        self.entries.append(GuardRecord(step, guard, lhs, rhs, passed))
        return passed

    def note(self, step: str, message: str) -> None:
        self.entries.append(GuardRecord(step, "note", None, None, True, message))

    def to_list(self) -> list[dict]:
        return [e.to_dict() for e in self.entries]


@dataclass
class Result:
    """A front door's answer.  ``case`` is the odd-order reduction case
    (0 when none ran) and ``condition`` the engine condition that matched
    ("" when none did, or when the odd-order pipeline fell back)."""

    verdict: str
    coloring: EdgeColoring
    trace: PipelineTrace
    case: int = 0
    condition: str = ""

    @property
    def colors_used(self) -> int:
        return len(self.coloring.used_colors())


def fall_back(
    g: Multigraph,
    trace: PipelineTrace,
    exc: Exception,
    colorer: Callable[[Multigraph], EdgeColoring],
    verdict: str,
    case: int = 0,
    condition: str = "",
) -> Result:
    """Note ``exc`` as the run's one ``fallback`` entry, color ``g`` with
    ``colorer`` and return that coloring, verified, under ``verdict``."""
    trace.note("fallback", f"{type(exc).__name__}: {exc}")
    coloring = colorer(g)
    if not verify_proper(g, coloring).ok:
        raise AssertionError("fallback coloring failed verification")
    return Result(verdict, coloring, trace, case, condition)
