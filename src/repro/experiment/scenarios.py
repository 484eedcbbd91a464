"""Canned experiment scenarios and Monte-Carlo drivers.

Each scenario is a :class:`FiftyYearConfig` variant probing one of the
paper's questions: both arms as designed, each arm alone, an abandoned
third-party network, an unmaintained owned arm, and the policy ablation
(instance-bound devices / no maintenance) used by E13.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Iterable, Optional, Tuple

from ..analysis.uptime import MonteCarloUptime
from ..core import units
from ..core.policy import AttachmentPolicy
from .fifty_year import FiftyYearConfig, FiftyYearExperiment, FiftyYearResult


def as_designed(seed: int = 2021) -> FiftyYearConfig:
    """The paper's §4 experiment: both arms, maintained infrastructure."""
    return FiftyYearConfig(seed=seed)


def owned_only(seed: int = 2021) -> FiftyYearConfig:
    """Only the owned-802.15.4 arm (no Helium devices)."""
    return replace(as_designed(seed), n_lora_devices=0, initial_hotspots=0,
                   hotspot_arrivals_per_year=0.0, wallet_credits=0)


def helium_only(seed: int = 2021) -> FiftyYearConfig:
    """Only the third-party LoRa arm (no owned gateways)."""
    return replace(as_designed(seed), n_154_devices=0, n_owned_gateways=0)


def unmaintained(seed: int = 2021) -> FiftyYearConfig:
    """Set-and-forget everything: owned gateways are never replaced.

    Tests the paper's aspiration against Raspberry-Pi-class MTBF.
    """
    return replace(as_designed(seed), maintain_gateways=False)


def network_collapse(seed: int = 2021, halflife_years: float = 8.0) -> FiftyYearConfig:
    """The Helium bet goes bad: hotspot arrivals decay with ``halflife``.

    The semi-federated hedge (§4.2) exists precisely for this case; the
    scenario shows the third-party arm decaying as the commercial
    network loses participants.
    """
    return replace(as_designed(seed), network_halflife_years=halflife_years)


def instance_bound(seed: int = 2021) -> FiftyYearConfig:
    """Policy ablation: devices authenticated to one specific gateway.

    Violates §3.1's takeaway; every gateway death strands its devices.
    """
    return replace(as_designed(seed), attachment=AttachmentPolicy.INSTANCE_BOUND)


def underfunded_wallet(seed: int = 2021) -> FiftyYearConfig:
    """Wallet sized for ~10 years instead of 50: prepayment runs dry."""
    return replace(as_designed(seed), wallet_credits=100_000 * 12)


def growing_fleet(seed: int = 2021) -> FiftyYearConfig:
    """§4.1: steady addition of new device instances and types over time,
    riding the existing third-party infrastructure."""
    return replace(as_designed(seed), device_additions_per_year=2.0)


def staff_turnover(seed: int = 2021) -> FiftyYearConfig:
    """§4.5: custodian handoffs erode institutional memory, so routine
    obligations (the 10-year domain lease) get fumbled more over time."""
    return replace(
        as_designed(seed), model_succession=True, renewal_miss_probability=0.02
    )


SCENARIOS: Dict[str, Callable[[int], FiftyYearConfig]] = {
    "as-designed": as_designed,
    "owned-only": owned_only,
    "helium-only": helium_only,
    "unmaintained": unmaintained,
    "network-collapse": network_collapse,
    "instance-bound": instance_bound,
    "underfunded-wallet": underfunded_wallet,
    "staff-turnover": staff_turnover,
    "growing-fleet": growing_fleet,
}


def scenario_config(
    name: str,
    seed: int = 2021,
    horizon: Optional[float] = None,
    report_interval: Optional[float] = None,
    overrides: Iterable[Tuple[str, object]] = (),
) -> FiftyYearConfig:
    """Build one named scenario's config with the standard overrides.

    The single place the horizon / report-interval / field-override
    dance happens — :func:`run_scenario`, the CLI's ``run`` command, and
    :class:`repro.runtime.runner.ScenarioTask` all come through here, so
    an override applied interactively means exactly what it means inside
    a Monte-Carlo worker.  ``overrides`` is an iterable of ``(field,
    value)`` pairs (the picklable-task representation), applied last so
    a pair may override even ``horizon`` — the precedence
    :class:`~repro.runtime.runner.ScenarioTask` has always had.
    """
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; options: {sorted(SCENARIOS)}")
    config = SCENARIOS[name](seed)
    updates = {}
    if horizon is not None:
        updates["horizon"] = horizon
    if report_interval is not None:
        updates["report_interval"] = report_interval
    updates.update(dict(overrides))
    if updates:
        config = replace(config, **updates)
    return config


def run_scenario(
    name: str, seed: int = 2021, horizon: Optional[float] = None
) -> FiftyYearResult:
    """Build and run one named scenario."""
    return FiftyYearExperiment(scenario_config(name, seed, horizon=horizon)).run()


def monte_carlo_uptime(
    name: str,
    runs: int = 5,
    base_seed: int = 100,
    horizon: float = units.years(50.0),
    report_interval: Optional[float] = None,
    workers: int = 1,
    faults=None,
    audit: bool = False,
) -> MonteCarloUptime:
    """Overall weekly uptime across independent seeds of one scenario.

    ``report_interval`` overrides the scenario's device cadence — pass a
    coarser interval (e.g. daily) to make many-seed studies cheap; the
    weekly metric is insensitive to any cadence well under a week.

    Runs execute on :class:`repro.runtime.MonteCarloRunner`: per-run
    seeds come from the fork lineage of ``base_seed``, and ``workers``
    fans runs across processes without changing the result — any worker
    count yields bit-identical statistics.  ``faults`` (an optional
    :class:`~repro.faults.FaultPlan`) is injected identically into every
    run; ``audit=True`` attaches the invariant auditor in collect mode.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; options: {sorted(SCENARIOS)}")
    # Deliberate lazy inversion: runtime imports experiment lazily in its
    # workers, and this convenience wrapper reaches back up only at call
    # time, so no import cycle materialises.
    from ..runtime import MonteCarloRunner, ScenarioTask

    task = ScenarioTask(
        scenario=name,
        horizon=horizon,
        report_interval=report_interval,
        faults=faults,
        audit=audit,
    )
    runner = MonteCarloRunner(
        task, runs=runs, base_seed=base_seed, workers=workers
    )
    return runner.run().uptime
