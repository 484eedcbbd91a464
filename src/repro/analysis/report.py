"""Paper-vs-measured reporting for the benchmark suite.

``PaperComparison`` is the standard row format every benchmark emits so
EXPERIMENTS.md stays uniform, and :func:`comparison_table` renders a
list of them as markdown.  The experimental diary is not here: it lives
in :mod:`repro.analysis.diary`, because sim layers carry a diary during
runs and simlint SL006 forbids them from importing this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

__all__ = [
    "PaperComparison",
    "comparison_table",
]


@dataclass(frozen=True)
class PaperComparison:
    """One paper-claim-vs-measured row for EXPERIMENTS.md."""

    experiment: str        # e.g. "E1"
    claim: str             # the paper's statement
    paper_value: str       # the number the paper gives
    measured_value: str    # what our reproduction produced
    holds: bool            # does the shape/number hold?
    note: str = ""

    def format(self) -> str:
        """Markdown table row."""
        status = "HOLDS" if self.holds else "DIFFERS"
        return (
            f"| {self.experiment} | {self.claim} | {self.paper_value} "
            f"| {self.measured_value} | {status} | {self.note} |"
        )


def comparison_table(rows: List[PaperComparison]) -> str:
    """Render a full markdown paper-vs-measured table."""
    header = (
        "| Exp | Claim | Paper | Measured | Status | Note |\n"
        "|-----|-------|-------|----------|--------|------|"
    )
    return "\n".join([header, *(row.format() for row in rows)])
