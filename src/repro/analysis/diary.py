"""The living experimental diary (§4.5).

The paper intends its webpage as "a living, public experimental diary"
documenting every maintenance event, recurring cost, and experimenter
handoff.  ``ExperimentDiary`` renders exactly that from a simulation's
ledgers.

This lives below :mod:`repro.analysis.report` on purpose: the diary is
sim-facing state that :class:`repro.experiment.FiftyYearExperiment`
carries during a run, while ``report`` is benchmark-presentation code
that sim layers should not import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..core import units
from ..core.engine import Simulation
from ..reliability.maintenance import MaintenanceLedger


@dataclass(frozen=True)
class DiaryEntry:
    """One line in the public diary."""

    time: float
    category: str   # maintenance | cost | handoff | incident | milestone
    text: str

    def format(self) -> str:
        """Render as ``[yr 12.3] category: text``."""
        return f"[yr {units.as_years(self.time):6.2f}] {self.category}: {self.text}"


@dataclass
class ExperimentDiary:
    """Accumulates diary entries during a run and renders the page."""

    title: str = "centurysensors.com — experimental diary"
    entries: List[DiaryEntry] = field(default_factory=list)

    def note(self, time: float, category: str, text: str) -> None:
        """Append an entry."""
        self.entries.append(DiaryEntry(time, category, text))

    def from_maintenance(self, ledger: MaintenanceLedger) -> None:
        """Import every intervention from a maintenance ledger."""
        for item in ledger.interventions:
            self.note(
                item.time,
                "maintenance",
                f"{item.action} {item.target} ({item.tier}, "
                f"{item.labor_hours:.2f} h, ${item.cost_usd:.2f})",
            )

    def from_sim_log(self, sim: Simulation, channels: Optional[List[str]] = None) -> None:
        """Import engine log records (sunsets, domain lapses, ...)."""
        wanted = channels or ["sunset", "domain-lapse", "domain-recover"]
        for record in sim.log:
            if record.channel in wanted:
                self.note(record.time, "incident", f"{record.channel} {record.message}")

    def render(self) -> str:
        """The diary page, chronological."""
        lines = [self.title, "=" * len(self.title)]
        for entry in sorted(self.entries, key=lambda e: e.time):
            lines.append(entry.format())
        if len(lines) == 2:
            lines.append("(no entries — unattended operation so far)")
        return "\n".join(lines)
