"""Structured pass/fail reports shared by every check in the toolkit.

A check computes named numerical residuals and compares each against a
tolerance.  The report keeps the raw numbers so that a verdict can always be
re-derived (and serialized) without re-running the check.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

PASS = "PASS"
FAIL = "FAIL"
INFO = "INFO"


@dataclass
class CheckItem:
    """One named residual with its tolerance; its verdict ``passed`` is
    derived from the two.

    ``tol is None`` marks a measurement-only item: the value is recorded but
    never asserted against anything.
    """

    name: str
    residual: float
    tol: float | None = None
    note: str = ""

    def __post_init__(self) -> None:
        self.residual = float(self.residual)

    @property
    def passed(self) -> bool | None:
        """residual <= tol; None for a measurement-only item."""
        return None if self.tol is None else self.residual <= self.tol

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "residual": self.residual,
            "tol": self.tol,
            "passed": self.passed,
            "note": self.note,
        }


@dataclass
class CheckReport:
    """Outcome of one verification run.

    Verdict rule: FAIL iff any asserted item exceeds its tolerance, INFO when
    no item is asserted (every ``tol`` is None), PASS otherwise.
    ``witnesses`` carries serialized matrices/regions that explain a failure.
    A report is built from its name alone; its items come from ``add``.
    """

    name: str
    items: list[CheckItem] = field(default_factory=list, init=False)
    witnesses: dict[str, Any] = field(default_factory=dict, init=False)
    notes: list[str] = field(default_factory=list, init=False)
    wall_time: float = field(default=0.0, init=False)
    scenario: dict[str, Any] | None = field(default=None, init=False)

    def add(
        self,
        name: str,
        residual: float,
        tol: float | None = None,
        note: str = "",
    ) -> CheckItem:
        item = CheckItem(name=name, residual=residual, tol=tol, note=note)
        self.items.append(item)
        return item

    @property
    def failed_items(self) -> list[CheckItem]:
        return [it for it in self.items if it.passed is False]

    @property
    def verdict(self) -> str:
        if self.failed_items:
            return FAIL
        return INFO if all(it.tol is None for it in self.items) else PASS

    @property
    def passed(self) -> bool:
        return self.verdict != FAIL

    @property
    def worst_item(self) -> CheckItem | None:
        """The asserted item with the smallest margin tol - residual, failed
        items first; None when no item is asserted."""
        asserted = [it for it in self.items if it.tol is not None]
        return min(asserted, key=lambda it: (bool(it.passed), it.tol - it.residual),
                   default=None)

    def residual(self, name: str) -> float:
        for it in self.items:
            if it.name == name:
                return it.residual
        raise KeyError(name)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "items": [it.to_dict() for it in self.items],
            "witnesses": self.witnesses,
            "notes": self.notes,
            "wall_time": self.wall_time,
            "scenario": self.scenario,
        }

    def summary_row(self) -> dict[str, Any]:
        """The worst asserted item by name, with its own residual, tol and
        margin; those four are None when no item is asserted."""
        row = {"name": self.name, "verdict": self.verdict, "item": None, "residual": None,
               "tol": None, "margin": None, "wall_time": self.wall_time}
        worst = self.worst_item
        if worst is not None:
            row.update(item=worst.name, residual=worst.residual, tol=worst.tol,
                       margin=worst.tol - worst.residual)
        return row
