"""Golden event-order equivalence: the optimized kernel vs the seed kernel.

The fixtures under ``tests/experiment/golden/`` were captured from the
pre-optimization kernel (see ``benchmarks/capture_golden.py``).  Each one
pins the SHA-256 of the executed ``(time, priority, sequence, label)``
stream plus the FiftyYearResult summary for one (scenario, seed) pair.

These tests replay the same scenarios on the current kernel and demand
bit-identical traces.  Every replay runs with a *strict*
:class:`~repro.faults.InvariantAuditor` attached: the auditor is
read-only, so the pre-auditor hashes must still hold — and any runtime
invariant violation fails the case with entity and sim-time attached.
The ``as-designed-faults`` case additionally installs the pinned
ten-fault chaos plan (:func:`repro.faults.plans.pinned_chaos_plan`),
pinning the wounded trace and the executed fault stream counts.  A single reordered event, perturbed timestamp, or
shifted RNG draw flips the hash — this is the proof that the tuple-keyed
heap, fused ``run_until`` loop, candidate-gateway cache, and lazy
``hears()`` evaluation are pure optimizations, not behavior changes.

If a future PR changes behavior *intentionally*, re-capture with::

    PYTHONPATH=src python benchmarks/capture_golden.py --faults
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiment.fifty_year import FiftyYearExperiment
from repro.experiment.scenarios import SCENARIOS
from repro.faults import InvariantAuditor
from repro.faults.plans import pinned_chaos_plan

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: (fixture stem, scenario, seed, plan factory or None).
CASES = [
    ("owned-only_seed2021", "owned-only", 2021, None),
    ("owned-only_seed4242", "owned-only", 4242, None),
    ("as-designed_seed2021", "as-designed", 2021, None),
    ("as-designed_seed4242", "as-designed", 4242, None),
    ("as-designed-faults_seed2021", "as-designed", 2021, pinned_chaos_plan),
]


def trace_line(event) -> bytes:
    """Must match ``capture_golden.trace_line`` byte for byte."""
    return f"{event.time!r}|{event.priority}|{event.sequence}|{event.label}\n".encode()


class TraceDigest:
    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.count = 0
        self.head = []
        self.tail = []

    def add(self, event) -> None:
        line = trace_line(event)
        self.sha.update(line)
        self.count += 1
        text = line.decode().rstrip("\n")
        if len(self.head) < 5:
            self.head.append(text)
        self.tail.append(text)
        if len(self.tail) > 5:
            self.tail.pop(0)


def summarize(result, sim) -> dict:
    """Must mirror ``capture_golden.summarize`` exactly."""
    arms = {}
    for key, arm in result.arms.items():
        arms[key] = {
            "weekly_uptime": arm.weekly_uptime,
            "longest_gap_weeks": arm.longest_gap_weeks,
            "devices_alive_at_end": arm.devices_alive_at_end,
            "delivered": arm.delivered,
            "attempts": arm.attempts,
        }
    return {
        "overall_uptime": result.overall.uptime,
        "longest_gap_weeks": result.overall.longest_gap_weeks,
        "arms": arms,
        "gateway_replacements": result.gateway_replacements,
        "device_touches": result.device_touches,
        "wallet_spent": result.wallet.spent,
        "wallet_balance": result.wallet.balance,
        "wallet_refusals": result.wallet.refusals,
        "maintenance_hours": result.maintenance.total_hours(),
        "executed_events": sim.metrics.snapshot().counter_value(
            "sim_events_executed_total"
        ),
        "log_records": len(sim.log),
    }


@pytest.mark.parametrize(
    "stem,scenario,seed,plan_factory", CASES, ids=[case[0] for case in CASES]
)
def test_golden_trace_equivalence(stem, scenario, seed, plan_factory) -> None:
    fixture_path = GOLDEN_DIR / f"{stem}.json"
    fixture = json.loads(fixture_path.read_text())
    assert fixture["version"] == 1

    digest = TraceDigest()
    config = SCENARIOS[scenario](seed)
    experiment = FiftyYearExperiment(config)
    plan = plan_factory() if plan_factory is not None else None
    if plan is not None:
        experiment.sim.install_faults(plan)
    experiment.sim.trace_executed = digest.add
    auditor = InvariantAuditor(experiment.sim, strict=True).install()
    result = experiment.run()
    auditor.check_now()

    # Head/tail first: on mismatch these show *where* execution diverged
    # instead of just "hash differs".
    assert digest.head == fixture["trace_head"]
    assert digest.tail == fixture["trace_tail"]
    assert digest.count == fixture["trace_events"]
    assert digest.sha.hexdigest() == fixture["trace_sha256"]
    assert summarize(result, experiment.sim) == fixture["summary"]
    if plan is not None:
        controller = experiment.sim.fault_controller
        assert fixture["faults"] == {
            "plan": plan.name,
            "specs": len(plan),
            "injected": controller.injected,
            "fired": controller.fired,
        }
