"""The ``serve-mixed`` workload: ``python -m repro serve`` under an
open-loop request schedule.

The server runs in its own process with one pool worker and a disk cache
directory.  This process is the only client: it opens at most ``nproc``
keep-alive connections and sends ``/v1/run`` requests at fixed times,
whatever the server is doing, pipelining a request behind earlier ones
on the least-loaded connection.  Keys follow a seeded Zipf popularity
over a key space larger than the memory tier, so the server sees memory
hits, disk hits and misses, and cache writes beside reads.

Each request's latency is timed from the moment it was due, so a stall
also delays every request scheduled behind it.  The generator's own
lateness (actual send time minus due time) is reported; a request sent
more than :data:`LATE_S` late is counted as failed, because the
generator, not the server, fell behind.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import layers
import pace
from workloads import HERE, REPO, Outcome, load_pins, percentile, tail

#: A send this far behind its due time means the generator fell behind;
#: such requests count as failed, and past ``LATE_SHARE`` of all sends
#: the run is invalid.
LATE_S = 0.050
LATE_SHARE = 0.01

#: Server starts timed per run (the last one serves the schedule), each
#: after a reference start (``pace.start_probe_s``), with one more
#: reference start after the last.
SERVER_STARTS = 7

SERVER_TIMEOUT_S = 30.0

#: How early the generator wakes before a send is due.
SPIN_S = 0.002

#: Host-speed probes during the schedule: before every ``PROBE_EVERY``th
#: send, the generator wakes ``PROBE_SLACK_S`` before it is due and, if
#: every earlier request is answered and at least ``PROBE_ROOM_S`` is
#: left, runs one short reference loop of ``PROBE_ITERATIONS`` (about
#: 1 ms).
PROBE_EVERY = 5
PROBE_SLACK_S = 0.005
PROBE_ROOM_S = 0.003
PROBE_ITERATIONS = 1200

#: Request latencies scale by host speed to this power.  Answers spend
#: much of their time in the kernel's
#: loopback path and on the vCPU the probes did not run on, so over 20
#: runs on a 2 vCPU Xeon VM raw latency went as speed to the -0.58 (p50)
#: and -0.76 (p99); 0.5 errs toward leaving host drift in, never toward
#: hiding a slower server.
LATENCY_EXPONENT = 0.5


@dataclass
class Reply:
    index: int
    key: str
    due: float
    sent: float
    done: float = 0.0
    status: int = 0
    cache: str = ""
    body_sha256: str = ""


@dataclass
class Server:
    """One ``repro serve`` process and how long it took to answer."""

    process: subprocess.Popen
    port: int
    setup_s: float
    lines: List[str] = field(default_factory=list)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=SERVER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=SERVER_TIMEOUT_S)
        if self.process.stdout is not None:
            self.process.stdout.close()


class ServeMixed:
    """``repro serve`` under a fixed-rate Zipf mix of cached reads and
    fresh computations: the HTTP front end, request codec, two-tier
    cache and service work; the simulation runs only on misses."""

    name = "serve-mixed"

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.pins = load_pins()[self.name]
        self.connections = min(self.pins["max_connections"], os.cpu_count() or 1)

    # -- inputs ---------------------------------------------------------
    def keys(self) -> List[Tuple[str, dict]]:
        """The key space: every ``(key, request payload)`` pair."""
        template = self.pins["request"]
        return [
            (key, dict(template, scenario=key.split("/")[0], seed=int(key.split("/")[1])))
            for key in sorted(self.pins["bodies"])
        ]

    def schedule(self, seed: int, seconds: float):
        """The warm-up keys and the ``seconds``-long timed schedule.

        The seed shuffles the key space.  The first ``warm_keys`` keys
        are requested once before timing starts and then drawn with Zipf
        popularity in rank order; they outnumber what the memory tier
        holds, so they are memory or disk hits.  Every ``cold_every``-th
        request instead takes the next never-requested key, a miss that
        computes and writes a sealed file.  Returns ``(warm-up wires,
        [(due offset s, key, wire bytes), ...])``.
        """
        pins = self.pins
        keys = self.keys()
        wires: Dict[str, bytes] = {}
        for key, payload in keys:
            body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
            wires[key] = (
                f"POST /v1/run HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("latin-1") + body
        rng = random.Random(seed)
        ranked = [key for key, _ in keys]
        rng.shuffle(ranked)
        warm, cold = ranked[: pins["warm_keys"]], itertools.cycle(ranked[pins["warm_keys"]:])
        weights = [1.0 / (rank + 1) ** pins["zipf_s"] for rank in range(len(warm))]
        count = int(pins["rate_per_s"] * seconds)
        drawn = rng.choices(warm, weights=weights, k=count)
        for i in range(pins["cold_every"] - 1, count, pins["cold_every"]):
            drawn[i] = next(cold)
        interval = 1.0 / pins["rate_per_s"]
        timed = [(i * interval, key, wires[key]) for i, key in enumerate(drawn)]
        return [(key, wires[key]) for key in warm], timed

    # -- the server -----------------------------------------------------
    def start_server(self, cache_dir: str, trace_out: Optional[str] = None) -> Server:
        args = [
            "serve",
            "--port", "0",
            "--workers", "1",
            "--queue-limit", str(self.pins["queue_limit"]),
            "--cache-dir", cache_dir,
            "--cache-mem-mb", str(self.pins["cache_mem_mb"]),
        ]
        if trace_out is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(HERE / "traced_server.py"), trace_out, *args]
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        started = time.perf_counter()
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
            text=True, cwd=str(REPO),
        )
        server = Server(process, 0, 0.0)
        try:
            for line in process.stdout:
                server.lines.append(line.rstrip())
                if "listening on http://" in line:
                    server.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
                    break
            if not server.port:
                raise RuntimeError("server exited before listening: " + " | ".join(server.lines))
            status, _, _ = asyncio.run(_get(server.port, "/healthz"))
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
        except BaseException:
            server.stop()
            raise
        server.setup_s = time.perf_counter() - started
        return server

    # -- one schedule ---------------------------------------------------
    def drive(self, seed: int, seconds: float, trace_out: Optional[str] = None):
        """Start servers, warm the last one up, run the schedule on it,
        stop it.  Warm-up replies are checked with the timed ones."""
        warm, schedule = self.schedule(seed, seconds)
        setups: List[float] = []
        start_probes: List[float] = []
        server = None
        for attempt in range(SERVER_STARTS if trace_out is None else 1):
            cache_dir = os.path.join(self.workdir, f"cache-{attempt}")
            shutil.rmtree(cache_dir, ignore_errors=True)
            if server is not None:
                server.stop()
            if trace_out is None:
                start_probes.append(pace.start_probe_s())
            server = self.start_server(cache_dir, trace_out)
            setups.append(server.setup_s)
        try:
            if trace_out is None:
                start_probes.append(pace.start_probe_s())
            warmed = asyncio.run(_warm_up(server.port, warm))
            replies, started, finished, probes = asyncio.run(
                _run_schedule(server.port, schedule, self.connections)
            )
            _, _, metrics_page = asyncio.run(_get(server.port, "/metrics"))
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        return setups, start_probes, warmed, replies, finished - started, metrics_page, rss, probes

    def failed_indices(self, replies: List[Reply]) -> List[int]:
        """Requests answered with an error or with other bytes than the
        offline ``compute_response`` body for their key."""
        bodies = self.pins["bodies"]
        return [
            r.index for r in replies if r.status != 200 or r.body_sha256 != bodies[r.key]
        ]

    def problems(self, replies: List[Reply]) -> List[str]:
        failed = set(self.failed_indices(replies))
        return [
            f"request {r.index} ({r.key}) answered {r.status}"
            + ("" if r.status != 200 else " with a body that differs from offline")
            for r in replies
            if r.index in failed
        ]

    def measure(self, seed: int, seconds: float) -> Outcome:
        setups, start_probes, warmed, replies, wall_s, _, rss, probes = self.drive(seed, seconds)
        bad = self.problems(warmed + replies)
        late = [r for r in replies if r.sent - r.due > LATE_S]
        if len(late) > LATE_SHARE * len(replies):
            bad.append(
                f"invalid run: the generator fell behind ({len(late)} of "
                f"{len(replies)} sends more than {LATE_S * 1e3:g} ms late)"
            )
        failed = set(self.failed_indices(warmed + replies)) | {r.index for r in late}
        ok = [r for r in replies if r.status == 200]
        # The server works in its own process, on either vCPU, so its
        # answers are normalised by one host speed probed all through the
        # schedule, not by probes right around each.  Its starts follow
        # the reference starts made between them, not the loop probes.
        speed = pace.speed_of(probes, PROBE_ITERATIONS)
        start_speed = pace.start_speed_of(start_probes)
        latencies = [(r.done - r.due) * 1e3 * speed**LATENCY_EXPONENT for r in ok]
        metrics = {
            "setup_s": statistics.median(setups) * start_speed,
            "wall_s": wall_s,
            "work_per_s": len(ok) / wall_s,
            "p50_ms": statistics.median(latencies),
            "tail_ms": tail(latencies),
            "peak_rss_mb": rss,
        }
        facts = self.facts(seed, replies, late)
        facts["host_speed"] = round(speed, 4)
        facts["host_probes"] = len(probes)
        facts["start_speed"] = round(start_speed, 4)
        facts["raw_setup_s"] = [round(s, 4) for s in setups]
        return Outcome(
            metrics, len(warmed) + len(replies), len(failed), not bad, facts, bad[:5]
        )

    def facts(self, seed: int, replies: List[Reply], late: List[Reply]) -> Dict[str, object]:
        lateness = [(r.sent - r.due) * 1e3 for r in replies]
        by_tier: Dict[str, List[float]] = {}
        for r in replies:
            if r.status == 200:
                tier = "hit" if r.cache == "hit" else "miss"
                by_tier.setdefault(tier, []).append((r.done - r.due) * 1e3)
        facts: Dict[str, object] = {
            "seed": seed,
            "connections": self.connections,
            "pool_workers": 1,
            "requests": len(replies),
            "rate_per_s": self.pins["rate_per_s"],
            "late_sends": len(late),
            "generator_lateness_p99_ms": percentile(lateness, 99.0),
            "generator_lateness_max_ms": max(lateness),
            "error_share": sum(r.status != 200 for r in replies) / len(replies),
        }
        for tier, values in sorted(by_tier.items()):
            facts[f"{tier}_count"] = len(values)
            facts[f"{tier}_p50_ms"] = statistics.median(values)
            facts[f"{tier}_tail_ms"] = tail(values)
        return facts

    def trace(self, seed: int, seconds: float) -> Outcome:
        """The schedule once untraced, once against a traced server."""
        _, _, warm_plain, plain, _, _, _, _ = self.drive(seed, seconds)
        trace_out = os.path.join(self.workdir, "server-spans.json")
        _, _, warm_traced, traced, _, page, _, _ = self.drive(seed, seconds, trace_out)
        plain, traced = warm_plain + plain, warm_traced + traced
        with open(trace_out, encoding="utf-8") as handle:
            dump = json.load(handle)
        table = {name: layers.LayerStats(**payload) for name, payload in dump["layers"].items()}
        bad = self.problems(plain) + self.problems(traced)
        if {r.key: r.body_sha256 for r in plain} != {r.key: r.body_sha256 for r in traced}:
            bad.append("traced server answered different bodies")
        # An open loop's wall time is its schedule; tracing cost shows
        # as the extra time requests waited.
        waited = sum(r.done - r.due for r in traced if r.index >= 0)
        extra = {
            "trace.overhead_ratio": waited / sum(r.done - r.due for r in plain if r.index >= 0),
            "trace.unattributed_share": (dump["window_s"] - dump["covered_s"]) / dump["window_s"],
            "serve.service.executions": _prometheus(page, "serve_executions_total"),
            "serve.service.coalesced": _prometheus(page, "serve_coalesced_total"),
            "serve.service.refused": _prometheus(page, "serve_requests_total", 'status="429"'),
        }
        metrics = layers.layer_metrics(table, extra)
        facts = {
            "seed": seed,
            "connections": self.connections,
            "server_window_s": dump["window_s"],
        }
        return Outcome(metrics, len(plain) + len(traced), len(bad), not bad, facts, bad[:5])


def _prometheus(page: bytes, name: str, label: str = "") -> float:
    total = 0.0
    for line in page.decode("utf-8").splitlines():
        if line.startswith(name) and (line[len(name)] in " {") and label in line:
            total += float(line.rsplit(" ", 1)[1])
    return total


async def _warm_up(port: int, warm) -> List[Reply]:
    """Request each warm-up key once, one at a time (closed loop)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    replies = []
    try:
        for i, (key, wire) in enumerate(warm):
            sent = time.perf_counter()
            writer.write(wire)
            status, headers, body = await _read_response(reader)
            replies.append(
                Reply(-1 - i, key, sent, sent, time.perf_counter(), status,
                      headers.get("x-cache", ""), hashlib.sha256(body).hexdigest())
            )
    finally:
        writer.close()
        await writer.wait_closed()
    return replies


async def _read_response(reader: asyncio.StreamReader) -> Tuple[int, Dict[str, str], bytes]:
    head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1").split("\r\n")
    status = int(head[0].split(" ", 2)[1])
    headers = {}
    for line in head[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    return status, headers, body


async def _get(port: int, path: str) -> Tuple[int, Dict[str, str], bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n".encode())
        await writer.drain()
        return await _read_response(reader)
    finally:
        writer.close()
        await writer.wait_closed()


async def _run_schedule(port: int, schedule, connections: int):
    """Send every request at its due time; return replies, the span from
    the first due time to the last response, and the host-speed probes
    taken in the gaps between sends."""
    loop = asyncio.get_running_loop()
    conns = [await asyncio.open_connection("127.0.0.1", port) for _ in range(connections)]
    pending: List[List[Reply]] = [[] for _ in conns]
    replies: List[Reply] = []
    probes: List[float] = []
    answered = [0]
    all_answered = asyncio.Event()
    clock = time.perf_counter

    async def read(slot: int) -> None:
        # A response only ever follows a request already queued on this
        # connection, so the reader blocks on the socket, never polls.
        reader, queue = conns[slot][0], pending[slot]
        while True:
            status, headers, body = await _read_response(reader)
            reply = queue.pop(0)
            reply.done = clock()
            reply.status = status
            reply.cache = headers.get("x-cache", "")
            reply.body_sha256 = hashlib.sha256(body).hexdigest()
            answered[0] += 1
            if answered[0] == len(schedule):
                all_answered.set()

    readers = [loop.create_task(read(slot)) for slot in range(len(conns))]
    start = clock() + 0.05
    try:
        for index, (offset, key, wire) in enumerate(schedule):
            due = start + offset
            if index % PROBE_EVERY == 0:
                # Probe only while nothing is in flight, so no response
                # waits for the probe and no request pays for it.
                delay = due - clock() - PROBE_SLACK_S
                if delay > 0:
                    await asyncio.sleep(delay)
                if answered[0] == index and due - clock() > PROBE_ROOM_S:
                    probes.append(pace.probe_s(PROBE_ITERATIONS))
            # The loop's timers wake up to a millisecond late, which
            # would read as latency; wake early and yield until due.
            delay = due - clock() - SPIN_S
            if delay > 0:
                await asyncio.sleep(delay)
            while clock() < due:
                await asyncio.sleep(0)
            slot = min(range(len(conns)), key=lambda s: len(pending[s]))
            reply = Reply(index, key, due, clock())
            pending[slot].append(reply)
            replies.append(reply)
            conns[slot][1].write(wire)
        waiter = loop.create_task(all_answered.wait())
        done, _ = await asyncio.wait(
            [waiter, *readers], timeout=SERVER_TIMEOUT_S, return_when=asyncio.FIRST_COMPLETED
        )
        waiter.cancel()
        for task in done:
            if task is not waiter:
                task.result()  # a reader died: surface why
        if not all_answered.is_set():
            raise RuntimeError(f"{len(schedule) - answered[0]} requests never answered")
    finally:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in conns:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
    return replies, start, max(r.done for r in replies), probes
