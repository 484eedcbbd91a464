"""Capture golden event-order traces for the kernel equivalence test.

Runs named fifty-year scenarios at fixed seeds, records the executed
(time, priority, sequence, label) stream as a SHA-256 digest plus the
result summary, and writes one JSON fixture per (scenario, seed) into
``tests/experiment/golden/``.  The digests pin the exact execution
order of the kernel: any optimization that reorders events, changes RNG
draw order, or perturbs a single timestamp flips the hash.

Works against either kernel generation:

* the engine's ``trace_executed`` hook when present (current kernel);
* otherwise by wrapping ``EventQueue.pop`` (the pre-optimization kernel
  popped exactly once per executed event), which is how the committed
  baselines were produced from the seed tree.

Every capture runs with the :class:`~repro.faults.InvariantAuditor`
strict — a fixture cannot be produced from a run that violates a
runtime invariant.  The auditor is read-only, so enabling it does not
perturb a trace.

Usage::

    PYTHONPATH=src python benchmarks/capture_golden.py            # 4 base cases
    PYTHONPATH=src python benchmarks/capture_golden.py --faults   # + chaos case
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.core.engine import Simulation
from repro.core.events import EventQueue
from repro.experiment.fifty_year import FiftyYearExperiment
from repro.experiment.scenarios import SCENARIOS
from repro.faults import InvariantAuditor
from repro.faults.plans import pinned_chaos_plan

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "experiment" / "golden"

#: (scenario, seed) pairs pinned by the golden suite.  ``as-designed`` is
#: the default FiftyYearConfig; ``owned-only`` exercises the owned arm
#: (gateway replacement, commissioning) without the Helium population.
CASES = [
    ("owned-only", 2021),
    ("owned-only", 4242),
    ("as-designed", 2021),
    ("as-designed", 4242),
]

#: The chaos case (``--faults``): as-designed wounded by the pinned
#: ten-fault plan.  The fixture stem carries a ``-faults`` marker so it
#: cannot collide with an unwounded capture of the same scenario.
FAULT_SEED = 2021
FAULT_STEM = "as-designed-faults"


def trace_line(event) -> bytes:
    """Canonical encoding of one executed event for the digest."""
    return f"{event.time!r}|{event.priority}|{event.sequence}|{event.label}\n".encode()


class TraceDigest:
    """Incremental SHA-256 over the executed-event stream."""

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


def run_traced(scenario: str, seed: int, faults=None):
    """Run one scenario with execution tracing; returns (digest, result, sim)."""
    digest = TraceDigest()
    config = SCENARIOS[scenario](seed)
    experiment = FiftyYearExperiment(config)
    if faults is not None:
        experiment.sim.install_faults(faults)
    if hasattr(experiment.sim, "trace_executed"):
        experiment.sim.trace_executed = digest.add
        auditor = InvariantAuditor(experiment.sim, strict=True).install()
        result = experiment.run()
        auditor.check_now()
    else:  # pre-optimization kernel: one pop per executed event
        original_pop = EventQueue.pop

        def recording_pop(queue):
            event = original_pop(queue)
            digest.add(event)
            return event

        EventQueue.pop = recording_pop
        try:
            result = experiment.run()
        finally:
            EventQueue.pop = original_pop
    return digest, result, experiment.sim


def summarize(result, sim: Simulation) -> dict:
    """The FiftyYearResult facts the golden test compares exactly."""
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


def capture(scenario: str, seed: int, faults=None) -> dict:
    digest, result, sim = run_traced(scenario, seed, faults=faults)
    fixture = {
        "version": 1,
        "scenario": scenario,
        "seed": seed,
        "trace_sha256": digest.sha.hexdigest(),
        "trace_events": digest.count,
        "trace_head": digest.head,
        "trace_tail": digest.tail,
        "summary": summarize(result, sim),
    }
    if faults is not None:
        controller = sim.fault_controller
        fixture["faults"] = {
            "plan": faults.name,
            "specs": len(faults),
            "injected": controller.injected,
            "fired": controller.fired,
        }
    return fixture


def main(argv=None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    with_faults = "--faults" in argv
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    jobs = [(scenario, seed, None, f"{scenario}_seed{seed}") for scenario, seed in CASES]
    if with_faults:
        jobs.append(
            (
                "as-designed",
                FAULT_SEED,
                pinned_chaos_plan(),
                f"{FAULT_STEM}_seed{FAULT_SEED}",
            )
        )
    for scenario, seed, plan, stem in jobs:
        fixture = capture(scenario, seed, faults=plan)
        path = GOLDEN_DIR / f"{stem}.json"
        path.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")
        print(
            f"{path.name}: {fixture['trace_events']} events, "
            f"sha256 {fixture['trace_sha256'][:16]}…"
        )


if __name__ == "__main__":
    main()
