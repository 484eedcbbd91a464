"""Which ``repro`` entry points make up each layer, and what each
layer reports.

:func:`install_sim_layers` and :func:`install_serve_layers` wrap the
layers' public entry points (and the event callbacks the engine
invokes) on a :class:`~spans.Tracer`; :func:`layer_metrics` turns the
tracer's table into the per-layer metrics ``BENCHMARK.json`` declares.
The layer-to-metric map, with the end-to-end metric and workload each
layer metric should move, is in ``README.md`` next to this file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional

from spans import LayerStats, Tracer

#: ``BENCHMARK.json`` at the repository root: the workloads and every
#: metric the benchmark prints, in print order, with its unit.
DECLARED = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)


def _count_true(name: str):
    def observe(stats: LayerStats, _args: tuple, result: object) -> None:
        if result:
            stats.add(name)

    return observe


def _energy_scalar(stats: LayerStats, _args: tuple, result: object) -> None:
    stats.add("attempts")
    if not result:
        stats.add("denied")


def _energy_many(stats: LayerStats, _args: tuple, result) -> None:
    stats.add("attempts", int(result.size))
    stats.add("denied", int(result.size - result.sum()))


def _energy_members(stats: LayerStats, args: tuple, _result: object) -> None:
    stats.add("cohort_members", int(args[3].size))


def _cache_get(stats: LayerStats, args: tuple, _result: object) -> None:
    cache_stats = args[0].stats
    stats.counts["memory_hits"] = cache_stats.memory_hits
    stats.counts["disk_hits"] = cache_stats.disk_hits
    stats.counts["misses"] = cache_stats.misses


def install_sim_layers(tracer: Tracer) -> None:
    """Wrap the simulation, Monte-Carlo and telemetry layers."""
    from repro.core.engine import Simulation
    from repro.core.events import EventQueue
    from repro.energy.harvester import HarvestingSystem
    from repro.faults.auditor import InvariantAuditor
    from repro.net.cloud import CloudEndpoint
    from repro.net.cohort import CohortPower, DeviceCohort
    from repro.net.device import EdgeDevice
    from repro.net.gateway import Gateway, ThirdPartyGateway
    from repro.net.helium import DataCreditWallet, HeliumNetwork
    from repro.net.topology import GatewayIndex
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.snapshot import MetricsSnapshot
    from repro.runtime.shard import ShardWriter

    for name in ("push", "pop_until", "cancel"):
        tracer.wrap_method(EventQueue, name, "core.events")
    tracer.wrap_method(Simulation, "run_until", "core.engine")
    tracer.wrap_method(EdgeDevice, "_report", "net.device")
    tracer.wrap_method(EdgeDevice, "make_packet", "radio.packets")
    tracer.wrap_method(DeviceCohort, "_report", "net.cohort")
    tracer.wrap_function(
        "repro.radio.link", "attempt_delivery", "radio.link", _count_true("decoded")
    )
    tracer.wrap_method(HarvestingSystem, "step", "energy")
    tracer.wrap_method(HarvestingSystem, "try_transmit", "energy", _energy_scalar)
    tracer.wrap_method(CohortPower, "step_many", "energy", _energy_members)
    tracer.wrap_method(CohortPower, "try_transmit_many", "energy", _energy_many)
    tracer.wrap_method(EdgeDevice, "candidate_gateways", "net.topology")
    tracer.wrap_method(
        GatewayIndex, "nearest_hearing", "net.topology", _count_true("queries")
    )
    for cls in (Gateway, ThirdPartyGateway):
        tracer.wrap_method(cls, "receive", "net.gateway", _count_true("forwarded"))
    tracer.wrap_method(CloudEndpoint, "deliver", "net.cloud", _count_true("accepted"))
    tracer.wrap_method(DataCreditWallet, "debit", "net.helium")
    tracer.wrap_method(HeliumNetwork, "live_hotspots", "net.helium")
    tracer.wrap_method(InvariantAuditor, "check_now", "faults.auditor")
    tracer.wrap_method(MetricsRegistry, "snapshot", "obs.snapshot")
    tracer.wrap_function("repro.obs.snapshot", "merge_all", "obs.merge")
    tracer.wrap_method(MetricsSnapshot, "merge", "obs.merge")
    tracer.wrap_function("repro.obs.export", "snapshot_json", "obs.export")
    tracer.wrap_function("repro.runtime.queue", "execute_runs", "runtime.queue")
    # A pool worker hands its spans back after every chunk it runs.
    tracer.wrap_function(
        "repro.runtime.queue", "_run_chunk", "runtime.worker", then=tracer.dump_child
    )
    tracer.wrap_method(ShardWriter, "write_result", "runtime.shard.write")
    tracer.wrap_function("repro.runtime.shard", "run_shard", "runtime.shard")
    tracer.wrap_function("repro.runtime.shard", "merge_shards", "runtime.shard.merge")


def install_serve_layers(tracer: Tracer) -> None:
    """Wrap the HTTP front end, request codec, cache and service."""
    from repro.serve.cache import ResponseCache
    from repro.serve.http import HttpServer
    from repro.serve.request import ServeRequest
    from repro.serve.service import ScenarioService

    tracer.wrap_method(HttpServer, "_on_client", "serve.http", mode="steps")
    tracer.wrap_function("repro.serve.request", "parse_request_json", "serve.request")
    tracer.wrap_method(ServeRequest, "digest", "serve.request")
    tracer.wrap_method(ResponseCache, "get", "serve.cache", _cache_get)
    tracer.wrap_method(ResponseCache, "put", "serve.cache")
    tracer.wrap_method(ScenarioService, "handle", "serve.service", mode="steps")
    tracer.wrap_method(ScenarioService, "_execute_job", "serve.service", mode="steps")
    tracer.wrap_method(
        ScenarioService, "_run_in_pool", "serve.service", mode="wait:pool_wait_s"
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    layers: Dict[str, LayerStats], extra: Optional[Dict[str, float]] = None
) -> Dict[str, float]:
    """Every per-layer metric :data:`DECLARED` names, from a layer table.

    ``extra`` supplies the metrics the workload measures itself (run
    counts, bytes, queue figures, trace overhead); a layer the workload
    never entered reads 0.
    """
    def get(layer: str) -> LayerStats:
        return layers.get(layer) or LayerStats()

    energy = get("energy")
    approved = energy.counts.get("attempts", 0) - energy.counts.get("denied", 0)
    cache = get("serve.cache")
    hits = cache.counts.get("memory_hits", 0) + cache.counts.get("disk_hits", 0)
    lookups = hits + cache.counts.get("misses", 0)
    names = [metric["name"] for metric in DECLARED["per_layer"]]
    values: Dict[str, float] = {}
    for name in names:
        layer, _, what = name.rpartition(".")
        if what in ("calls", "self_s"):
            values[name] = float(getattr(get(layer), what))
    values["runtime.shard.write_self_s"] = get("runtime.shard.write").self_s
    values["runtime.shard.merge_self_s"] = get("runtime.shard.merge").self_s
    values["net.cohort.members_per_call"] = _ratio(
        energy.counts.get("cohort_members", 0), get("net.cohort").calls
    )
    values["radio.link.decode_ratio"] = _ratio(
        get("radio.link").counts.get("decoded", 0), get("radio.link").calls
    )
    values["energy.denied_ratio"] = _ratio(
        energy.counts.get("denied", 0), energy.counts.get("attempts", 0)
    )
    values["net.topology.query_ratio"] = _ratio(
        get("net.topology").counts.get("queries", 0), approved
    )
    values["net.gateway.forward_ratio"] = _ratio(
        get("net.gateway").counts.get("forwarded", 0), get("net.gateway").calls
    )
    values["net.cloud.accept_ratio"] = _ratio(
        get("net.cloud").counts.get("accepted", 0), get("net.cloud").calls
    )
    values["serve.cache.hit_ratio"] = _ratio(hits, lookups)
    values["serve.cache.disk_hit_ratio"] = _ratio(cache.counts.get("disk_hits", 0), lookups)
    values["serve.service.pool_wait_s"] = get("serve.service").counts.get("pool_wait_s", 0.0)
    for name in names:
        values.setdefault(name, 0.0)
    values.update(extra or {})
    return values
