"""Regression: study failure counts must survive into --metrics output.

``MonteCarloStudy.failures`` used to be invisible in the metrics JSONL —
a study with poisoned seeds serialized identically to a clean one.  The
merged line's meta now carries the failure count, through the one
serializer (`study_metrics_jsonl`) the CLI and the service share.
"""

import json
from dataclasses import dataclass

from repro.core import units
from repro.runtime import (
    MonteCarloRunner,
    ScenarioTask,
    study_metrics_entries,
    study_metrics_jsonl,
)


@dataclass(frozen=True)
class _FlakyScenario:
    """Delegates to a real ScenarioTask, but poisons one run index."""

    task: ScenarioTask
    poisoned_index: int

    def __call__(self, index: int, seed: int):
        if index == self.poisoned_index:
            raise ValueError(f"poisoned seed {seed}")
        return self.task(index, seed)


def _tiny_task() -> ScenarioTask:
    return ScenarioTask(
        scenario="owned-only",
        horizon=units.years(0.1),
        report_interval=units.days(2.0),
    )


def test_merged_meta_reports_zero_failures():
    study = MonteCarloRunner(_tiny_task(), runs=2, workers=1).run()
    per_run, (meta, _snapshot) = study_metrics_entries(study)
    assert len(per_run) == 2
    assert meta == {
        "merged": True,
        "runs": 2,
        "base_seed": study.base_seed,
        "failures": 0,
    }


def test_failed_runs_counted_in_metrics_jsonl():
    flaky = _FlakyScenario(task=_tiny_task(), poisoned_index=1)
    study = MonteCarloRunner(flaky, runs=3, workers=1).run()
    assert len(study.failures) == 1
    assert len(study.runs) == 2

    per_run, (meta, _snapshot) = study_metrics_entries(study)
    # Only successful runs get per-run lines; the merged meta says why
    # there are fewer of them than were scheduled.
    assert len(per_run) == 2
    assert meta["runs"] == 2
    assert meta["failures"] == 1

    lines = study_metrics_jsonl(study).decode("utf-8").splitlines()
    assert len(lines) == 3
    merged_line = json.loads(lines[-1])
    assert merged_line["failures"] == 1
    assert merged_line["merged"] is True
