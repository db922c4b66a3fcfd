"""Structured pass/fail reports returned by every checker in the package."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def worst_residual(entries, label=None) -> tuple:
    """The worst of a stream of (value, key) residuals, as (value, label).

    From (0.0, ""), the first entry strictly above the running worst wins;
    NaN beats every number, so it cannot hide behind a finite residual.
    ``label`` formats the winning key only, else the key is the label.
    """
    top, at = 0.0, None
    for value, key in entries:
        if value > top or (value != value and top == top):
            top, at = value, key
    if at is None:
        return top, ""
    return top, at if label is None else label(at)


def worst_entry(values: np.ndarray) -> tuple[float, int | None]:
    """The entry of an array that ``worst_residual`` picks from its values
    streamed in flat order: the first NaN, else the first largest one if it
    is positive.  Returns (value, flat position), or (0.0, None)."""
    if not values.size:
        return 0.0, None
    at = int(np.argmax(values))
    return (0.0, None) if values.flat[at] <= 0 else (float(values.flat[at]), at)


@dataclass
class CheckResult:
    """Outcome of a single named check.

    ``residual`` and ``tolerance`` are None for exact (integer) checks.
    """

    name: str
    passed: bool
    residual: float | None = None
    tolerance: float | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "residual": None if self.residual is None else float(self.residual),
            "tolerance": None if self.tolerance is None else float(self.tolerance),
            "detail": self.detail,
        }

    def to_text(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        parts = [f"[{tag}] {self.name}"]
        if self.residual is not None:
            parts.append(f"residual={self.residual:.3e}")
        if self.tolerance is not None:
            parts.append(f"tol={self.tolerance:.1e}")
        if self.detail:
            parts.append(f"({self.detail})")
        return " ".join(parts)


@dataclass
class Report:
    """A titled list of check results plus free-form context for reporting."""

    title: str
    checks: list[CheckResult] = field(default_factory=list)
    context: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, residual: float | None = None,
            tolerance: float | None = None, detail: str = "") -> CheckResult:
        """Record a check; a residual that is given but not finite fails it."""
        passed = bool(passed) and (residual is None or math.isfinite(residual))
        check = CheckResult(name, passed, residual, tolerance, detail)
        self.checks.append(check)
        return check

    def extend(self, other: "Report", prefix: str = "") -> None:
        for c in other.checks:
            self.checks.append(CheckResult(prefix + c.name, c.passed, c.residual,
                                           c.tolerance, c.detail))

    def max_residual(self) -> float:
        return worst_residual((c.residual, None) for c in self.checks
                              if c.residual is not None)[0]

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "context": self.context,
        }

    def to_text(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        lines = [f"== {self.title}: {tag} =="]
        lines.extend(c.to_text() for c in self.checks)
        for key in sorted(self.context):
            lines.append(f"  {key}: {self.context[key]}")
        return "\n".join(lines)
