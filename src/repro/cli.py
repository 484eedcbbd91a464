"""Command-line interface for centurysim.

Exposes the most-used entry points without writing Python::

    python -m repro scenarios                 # list canned scenarios
    python -m repro run as-designed --years 10 --seed 7
    python -m repro mc as-designed --runs 10 --workers 4
    python -m repro mc as-designed --faults plan.json --audit
    python -m repro mc as-designed --runs 4 --metrics out.jsonl
    python -m repro mc as-designed --runs 100 --shard 0/4 --out shard_0.mcr
    python -m repro mc-merge shard_*.mcr --metrics merged.jsonl
    python -m repro run as-designed --metrics run.prom --metrics-format prom
    python -m repro serve --port 8351 --workers 4
    python -m repro quote --years 50 --per-hour 1
    python -m repro tco --gateways 100 --horizon 50
    python -m repro la                        # the §1 labor arithmetic
    python -m repro capacity --interval-s 3600
    python -m repro lint --format json src    # simlint static analysis

Output is plain text, one artifact per subcommand, suitable for piping.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .experiment import SCENARIOS

    for name, factory in sorted(SCENARIOS.items()):
        config = factory(0)
        doc = (factory.__doc__ or "").strip().splitlines()[0]
        print(f"{name:<20} {doc}")
        print(
            f"{'':<20}   devices: {config.n_154_devices}x802.15.4 + "
            f"{config.n_lora_devices}xLoRa; gateways: "
            f"{config.n_owned_gateways} owned + {config.initial_hotspots} hotspots"
        )
    return 0


class UsageError(Exception):
    """A bad command line; :func:`main` prints it as one
    ``repro <cmd>: error: <message>`` line and exits 2, as it does a
    :class:`~repro.serve.request.RequestError`."""


def _request(args: argparse.Namespace, **fields):
    """Parse ``run``/``mc`` flags through the one request validator.

    The payload is the one ``/v1/<command>`` would receive, so a bad
    input gets the served 400's message; only the serving work ceilings
    are lifted.  Raises :class:`~repro.serve.request.RequestError`, or
    :class:`UsageError` when the ``--faults`` file cannot be read.
    """
    from .serve.request import parse_request

    payload = {
        "scenario": args.scenario,
        "years": args.years,
        "report_days": args.report_days,
        "audit": args.audit,
        **fields,
    }
    if args.faults is not None:
        try:
            with open(args.faults, "r", encoding="utf-8") as handle:
                payload["faults"] = json.load(handle)
        except (OSError, ValueError) as exc:
            raise UsageError(f"bad fault plan: {exc}") from exc
    return parse_request(
        payload, args.command, max_years=math.inf, max_runs=math.inf
    )


def _write_metrics(args: argparse.Namespace, snapshot, jsonl) -> None:
    """Write ``--metrics PATH``: the bytes ``jsonl()`` returns, or
    ``snapshot`` as Prometheus text with ``--metrics-format prom``."""
    if args.metrics_format == "prom":
        from .obs import to_prometheus

        body, count = to_prometheus(snapshot).encode("utf-8"), 1
    else:
        body = jsonl()
        count = body.count(b"\n")
    with open(args.metrics, "wb") as handle:
        handle.write(body)
    print(f"metrics: {count} snapshot(s) -> {args.metrics}")


def _cmd_run(args: argparse.Namespace) -> int:
    from .runtime import run_metrics_jsonl

    request = _request(args, seed=args.seed)
    experiment, result, controller, auditor = request.to_task().execute(
        request.seed
    )
    for line in result.summary_lines():
        print(line)
    if controller is not None:
        summary = controller.summary()
        print(
            f"faults ({request.faults.name}): {summary['fired']} fired of "
            f"{summary['injected']} injected, {summary['specs']} specs"
        )
    if auditor is not None:
        print(f"invariant violations: {len(auditor.violations)}")
        for violation in auditor.violations:
            print(f"  {violation}")
    if args.metrics:
        snapshot = experiment.sim.metrics.snapshot()
        _write_metrics(
            args,
            snapshot,
            lambda: run_metrics_jsonl(request.scenario, request.seed, snapshot),
        )
    if args.diary:
        print()
        print(result.diary.render())
    return 0 if auditor is None or not auditor.violations else 1


def _parse_shard(spec: str):
    """Parse ``--shard I/N`` into (shard, nshards)."""
    try:
        shard, nshards = (int(part) for part in spec.split("/"))
    except ValueError:
        raise UsageError(f"--shard must look like I/N, got {spec!r}") from None
    if nshards < 1 or not 0 <= shard < nshards:
        raise UsageError(
            f"--shard needs 0 <= I < N with N >= 1, got {spec!r}"
        )
    return shard, nshards


def _print_study(args: argparse.Namespace, study, with_faults: bool) -> None:
    """Shared study rendering for ``mc`` and ``mc-merge``."""
    for line in study.summary_lines():
        print(line)
    if args.per_run:
        print(
            f"{'run':>4} {'uptime':>8} {'events':>10} {'peak-q':>7} {'secs':>7}"
            + (f" {'faults':>7} {'viols':>6}" if with_faults else "")
        )
        for run in study.runs:
            line = (
                f"{run.index:>4} {run.sample:>8.4f} {run.events_executed:>10,} "
                f"{run.peak_pending_events:>7,} {run.wall_clock_s:>7.2f}"
            )
            if with_faults:
                line += f" {run.faults_fired:>7} {run.invariant_violations:>6}"
            print(line)
    if args.metrics:
        from .runtime import study_metrics_jsonl

        _write_metrics(
            args, study.merged_metrics(), lambda: study_metrics_jsonl(study)
        )


def _cmd_mc(args: argparse.Namespace) -> int:
    from .runtime import MonteCarloRunner, resolve_workers, run_shard

    request = _request(args, runs=args.runs, base_seed=args.base_seed)
    try:
        workers = resolve_workers(args.workers)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    task = request.to_task()
    if args.shard is not None:
        shard, nshards = _parse_shard(args.shard)
        if not args.out:
            raise UsageError("--shard requires --out SHARD.mcr")
        if args.metrics:
            raise UsageError(
                "--metrics is not available with --shard; merge the shards "
                "with `mc-merge --metrics` instead"
            )
        report = run_shard(
            task,
            runs=request.runs,
            base_seed=request.base_seed,
            shard=shard,
            nshards=nshards,
            out_path=args.out,
            workers=workers,
        )
        for line in report.summary_lines():
            print(line)
        return 0 if report.failed == 0 else 1
    study = MonteCarloRunner(
        task, runs=request.runs, base_seed=request.base_seed, workers=workers
    ).run()
    _print_study(
        args, study, with_faults=request.faults is not None or request.audit
    )
    if request.audit and study.total_invariant_violations:
        return 1
    return 0 if not study.failures else 1


def _cmd_mc_merge(args: argparse.Namespace) -> int:
    from .runtime import ShardError, merge_shards

    try:
        study = merge_shards(args.shards)
    except (OSError, ShardError) as exc:
        raise UsageError(f"cannot merge shards: {exc}") from exc
    _print_study(args, study, with_faults=study.total_faults_injected > 0)
    return 0 if not study.failures else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .runtime import resolve_workers
    from .serve import ResponseCache, ScenarioService, serve_forever

    try:
        workers = resolve_workers(args.workers)
        cache = ResponseCache(
            max_memory_bytes=int(args.cache_mem_mb * 1024 * 1024),
            disk_dir=args.cache_dir,
            max_disk_bytes=int(args.cache_disk_mb * 1024 * 1024),
        )
        service = ScenarioService(
            workers=workers,
            queue_limit=args.queue_limit,
            timeout_s=args.timeout_s,
            cache=cache,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    try:
        asyncio.run(serve_forever(service, args.host, args.port))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_quote(args: argparse.Namespace) -> int:
    from .econ.credits import cost_per_device_per_year, paper_prepay_quote

    quote = paper_prepay_quote(years=args.years, packets_per_hour=args.per_hour)
    print(f"credits needed     : {quote.credits_needed:,}")
    print(f"credits provisioned: {quote.credits_provisioned:,}")
    print(f"wallet cost        : ${quote.cost_usd:,.2f}")
    print(
        f"steady state       : "
        f"${cost_per_device_per_year(args.per_hour):.4f} per device-year"
    )
    return 0


def _cmd_tco(args: argparse.Namespace) -> int:
    from .econ import crossover_year, tco_series

    print(f"{'year':>6} {'fiber $':>12} {'cellular $':>12}  leader")
    for point in tco_series(
        args.gateways, horizon_years=args.horizon, step_years=args.step
    ):
        leader = "fiber" if point.fiber_wins else "cellular"
        print(
            f"{point.years:>6.0f} {point.fiber_usd:>12,.0f} "
            f"{point.cellular_usd:>12,.0f}  {leader}"
        )
    year = crossover_year(args.gateways, horizon_years=args.horizon)
    rendered = "never (within horizon)" if year == float("inf") else f"year {year:.1f}"
    print(f"crossover: {rendered}")
    return 0


def _cmd_la(args: argparse.Namespace) -> int:
    from .city import los_angeles

    city = los_angeles()
    for asset in city.assets:
        print(f"{asset.name:<14} {asset.count:>9,} "
              f"(service life {asset.service_life_years:.0f} yr)")
    print(f"{'total':<14} {city.total_assets():>9,}")
    hours = city.replacement_person_hours(minutes_per_device=args.minutes)
    print(f"replacement labor at {args.minutes:.0f} min/device: "
          f"{hours:,.0f} person-hours")
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    from .radio import LoRaParameters, capacity_table, ieee802154

    airtimes = {
        "802.15.4": ieee802154.airtime_s(args.payload),
        "lora-sf7": LoRaParameters(spreading_factor=7).airtime_s(args.payload),
        "lora-sf10": LoRaParameters(spreading_factor=10).airtime_s(args.payload),
        "lora-sf12": LoRaParameters(spreading_factor=12).airtime_s(args.payload),
    }
    table = capacity_table(
        airtimes, interval_s=args.interval_s, min_delivery=args.min_delivery
    )
    print(f"devices per channel at {args.min_delivery:.0%} per-frame delivery, "
          f"{args.payload}-byte payload every {args.interval_s:.0f} s:")
    for name, capacity in table.items():
        print(f"  {name:<10} {capacity:>10,}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .analysis.export import export_all_figures

    written = export_all_figures(args.out, seed=args.seed)
    for path in written:
        print(path)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .devtools.simlint import run

    return run(
        args.paths,
        fmt=args.format,
        list_rules=args.list_rules,
        project=args.project,
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="centurysim: Century-Scale Smart Infrastructure, simulated",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    from .serve.request import MC_DEFAULTS, RUN_DEFAULTS

    sub.add_parser("scenarios", help="list canned 50-year scenarios")

    run = sub.add_parser("run", help="run a 50-year-experiment scenario")
    run.add_argument("scenario")
    run.add_argument("--years", type=float, default=RUN_DEFAULTS["years"])
    run.add_argument("--seed", type=int, default=RUN_DEFAULTS["seed"])
    run.add_argument("--report-days", type=float,
                     default=RUN_DEFAULTS["report_days"],
                     help="device reporting cadence in days")
    run.add_argument("--diary", action="store_true", help="print the diary")
    run.add_argument("--faults", metavar="PLAN.json", default=None,
                     help="install a JSON fault plan before the run")
    run.add_argument("--audit", action="store_true",
                     help="run the invariant auditor (exit 1 on violations)")
    run.add_argument("--metrics", metavar="PATH", default=None,
                     help="write the run's metrics snapshot to PATH")
    run.add_argument("--metrics-format", choices=("jsonl", "prom"),
                     default="jsonl",
                     help="metrics file format (canonical JSONL or "
                          "Prometheus text; default jsonl)")

    mc = sub.add_parser(
        "mc", help="parallel Monte-Carlo uptime study over independent seeds"
    )
    mc.add_argument("scenario")
    mc.add_argument("--runs", type=int, default=MC_DEFAULTS["runs"])
    mc.add_argument("--years", type=float, default=MC_DEFAULTS["years"])
    mc.add_argument("--base-seed", type=int, default=MC_DEFAULTS["base_seed"])
    mc.add_argument("--workers", type=int, default=0,
                    help="worker processes; 0 = one per CPU (default)")
    mc.add_argument("--report-days", type=float,
                    default=MC_DEFAULTS["report_days"],
                    help="device reporting cadence in days")
    mc.add_argument("--per-run", action="store_true",
                    help="print the per-run observability table")
    mc.add_argument("--faults", metavar="PLAN.json", default=None,
                    help="install a JSON fault plan in every run")
    mc.add_argument("--audit", action="store_true",
                    help="audit every run (exit 1 on any violation)")
    mc.add_argument("--metrics", metavar="PATH", default=None,
                    help="write per-run + merged metrics to PATH "
                         "(byte-identical at any --workers count)")
    mc.add_argument("--metrics-format", choices=("jsonl", "prom"),
                    default="jsonl",
                    help="metrics file format (canonical JSONL or "
                         "Prometheus text; default jsonl)")
    mc.add_argument("--shard", metavar="I/N", default=None,
                    help="run only the seed-schedule slice "
                         "{k : k = I (mod N)} and write a shard artifact "
                         "(requires --out; merge with mc-merge)")
    mc.add_argument("--out", metavar="SHARD.mcr", default=None,
                    help="shard artifact output path (with --shard)")

    merge = sub.add_parser(
        "mc-merge",
        help="merge mc --shard artifacts into the exact unsharded study",
    )
    merge.add_argument("shards", nargs="+", metavar="SHARD.mcr",
                       help="shard artifacts covering every run index")
    merge.add_argument("--per-run", action="store_true",
                       help="print the per-run observability table")
    merge.add_argument("--metrics", metavar="PATH", default=None,
                       help="write per-run + merged metrics to PATH "
                            "(byte-identical to the unsharded run's)")
    merge.add_argument("--metrics-format", choices=("jsonl", "prom"),
                       default="jsonl",
                       help="metrics file format (canonical JSONL or "
                            "Prometheus text; default jsonl)")

    serve = sub.add_parser(
        "serve",
        help="HTTP scenario service with an exact content-keyed cache",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8351,
                       help="listen port (0 = pick a free port)")
    serve.add_argument("--workers", type=int, default=0,
                       help="worker processes; 0 = one per CPU (default)")
    serve.add_argument("--queue-limit", type=int, default=None,
                       help="max queued+running executions before 429 "
                            "(default 4 x workers)")
    serve.add_argument("--timeout-s", type=float, default=300.0,
                       help="per-request execution timeout (504 beyond it)")
    serve.add_argument("--cache-dir", default=None,
                       help="directory for the sealed disk cache tier "
                            "(default: memory-only)")
    serve.add_argument("--cache-mem-mb", type=float, default=64.0,
                       help="memory cache budget in MiB")
    serve.add_argument("--cache-disk-mb", type=float, default=256.0,
                       help="disk cache budget in MiB (with --cache-dir)")

    quote = sub.add_parser("quote", help="prepaid data-credit quote (§4.4)")
    quote.add_argument("--years", type=float, default=50.0)
    quote.add_argument("--per-hour", type=float, default=1.0)

    tco = sub.add_parser("tco", help="fiber vs cellular TCO (§3.3)")
    tco.add_argument("--gateways", type=int, default=100)
    tco.add_argument("--horizon", type=float, default=50.0)
    tco.add_argument("--step", type=float, default=5.0)

    la = sub.add_parser("la", help="the §1 Los Angeles labor arithmetic")
    la.add_argument("--minutes", type=float, default=20.0)

    capacity = sub.add_parser("capacity", help="devices-per-channel capacity")
    capacity.add_argument("--interval-s", type=float, default=3600.0)
    capacity.add_argument("--payload", type=int, default=24)
    capacity.add_argument("--min-delivery", type=float, default=0.9)

    export = sub.add_parser(
        "export", help="write figure-grade CSV series for every figure"
    )
    export.add_argument("--out", default="figures")
    export.add_argument("--seed", type=int, default=2021)

    lint = sub.add_parser(
        "lint", help="simlint: determinism & unit-hygiene static analysis"
    )
    from .devtools.simlint import add_lint_arguments

    add_lint_arguments(lint)

    return parser


COMMANDS = {
    "scenarios": _cmd_scenarios,
    "run": _cmd_run,
    "mc": _cmd_mc,
    "mc-merge": _cmd_mc_merge,
    "serve": _cmd_serve,
    "quote": _cmd_quote,
    "tco": _cmd_tco,
    "la": _cmd_la,
    "capacity": _cmd_capacity,
    "export": _cmd_export,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    from .serve.request import RequestError

    try:
        return COMMANDS[args.command](args)
    except (RequestError, UsageError) as exc:
        # A bad input is one line and exit 2 on every subcommand; a
        # scenario request's is worded as its ``/v1/*`` 400 words it.
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
