"""One verdict type and one report base for every gate in the harness.

A *gate* compares a measured number with a bound: a qualification
floor, a headline claim of the paper, a chaos trial's audit, a crash
check cell, the storm's gold SLO.  Each grades through :class:`Verdict`,
and each result is a :class:`Report`, whose ``ok``, pass counts,
canonical JSON, digest and text/markdown table all come from one place.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import asdict, dataclass, field
from itertools import zip_longest
from typing import Any, List, Optional, Sequence, Tuple

__all__ = ["Verdict", "Report"]

_OPS = {">=": operator.ge, "<=": operator.le, ">": operator.gt,
        "<": operator.lt, "==": operator.eq}


@dataclass(frozen=True)
class Verdict:
    """``observed op bound``, graded once; a missing metric
    (``observed=None``) fails.  ``samples`` is the gate's own count where
    one exists (latency samples, gold ops, crash points); failing lines
    show it."""

    metric: str
    op: str
    bound: float
    observed: Optional[float]
    samples: Optional[int] = None
    ok: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ok", self.observed is not None
                           and _OPS[self.op](self.observed, self.bound))

    def __str__(self) -> str:
        if self.observed is None:
            return f"metric {self.metric} missing"
        if self.ok:
            return f"{self.metric}={self.observed:g} {self.op} {self.bound:g}"
        samples = "" if self.samples is None else f" ({self.samples} samples)"
        return (f"{self.metric}={self.observed:g} not {self.op} "
                f"{self.bound:g}{samples}")


class Report:
    """Base of every graded result: a title, a table, notes, verdicts.

    Subclasses set ``title``, ``headers`` and ``notes`` and fill the
    hooks below.  Verdicts group into units (a cell, a claim, a trial):
    ``passed`` and ``failed`` count units, ``failures`` lists the
    failing ones.
    """

    title = ""
    #: Column names; a report without them sets ``()`` and its rows are
    #: plain lines.  (No default here: a dataclass subclass would take it
    #: as its ``headers`` field's default.)
    headers: Sequence[str]
    notes: Sequence[str] = ()

    def _graded(self) -> List[Tuple[Any, List[Verdict]]]:
        """``(unit, its verdicts)`` for every graded unit."""
        return []

    def _table(self) -> List[Tuple[List[str], List[str]]]:
        """``(cells, detail lines)`` per row."""
        return []

    def _footer(self) -> List[str]:
        return []

    def _payload(self) -> dict:
        """The report-specific part of :meth:`as_dict`."""
        return {"title": self.title, "headers": list(self.headers),
                "rows": [cells for cells, _details in self._table()],
                "verdicts": [asdict(v) for v in self.verdicts]}

    @property
    def verdicts(self) -> List[Verdict]:
        return [v for _unit, verdicts in self._graded() for v in verdicts]

    @property
    def ok(self) -> bool:
        return all(verdict.ok for verdict in self.verdicts)

    @property
    def failures(self) -> list:
        """The units with a failing verdict."""
        return [unit for unit, verdicts in self._graded()
                if not all(v.ok for v in verdicts)]

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def passed(self) -> int:
        return len(self._graded()) - self.failed

    def as_dict(self) -> dict:
        return {**self._payload(), "notes": list(self.notes),
                "passed": self.passed, "failed": self.failed, "ok": self.ok}

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, fixed separators): the digest
        input, so two runs agree iff their reports are byte-identical."""
        return json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    def render(self) -> str:
        """The title, the table with each row's detail lines under it
        (columns are padded under headers only), notes, the footer."""
        rows = self._table()
        widths = [max([len(header)] + [len(cells[i]) for cells, _d in rows])
                  for i, header in enumerate(self.headers)]
        lines = [f"== {self.title} =="] if self.title else []
        if self.headers:
            lines.append("  ".join(map(str.ljust, self.headers, widths)))
            lines.append("  ".join("-" * width for width in widths))
        for cells, details in rows:
            lines.append("  ".join(cell.ljust(width) for cell, width
                                   in zip_longest(cells, widths, fillvalue=0)))
            lines.extend(details)
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines + self._footer())

    def render_markdown(self) -> str:
        """A markdown table (a code block when there are no headers)."""
        if not self.headers:
            return f"```\n{self.render()}\n```"
        rows = self._table()
        lines = [f"### {self.title}", "",
                 "| " + " | ".join(self.headers) + " |",
                 "|" + "|".join("---" for _ in self.headers) + "|"]
        lines += ["| " + " | ".join(cells) + " |" for cells, _d in rows]
        lines += [f"\n* `{cells[0]}`: {detail.strip()}"
                  for cells, details in rows for detail in details]
        lines += [f"\n*{note}*" for note in self.notes]
        lines += [f"\n**{line}**" for line in self._footer()]
        return "\n".join(lines)
