"""A dependency-free asyncio HTTP/1.1 front end for the scenario service.

The paper's experiment is judged as a *public data endpoint* with a
weekly-uptime metric; this module is our reproduction's front door.  It
is deliberately a minimal, bounded HTTP/1.1 implementation over
``asyncio.start_server`` — no framework, no thread-per-connection, no
dependency the container would have to bake in:

* ``POST /v1/run`` — one scenario run (canonical JSON request).
* ``POST /v1/mc``  — a Monte-Carlo study.
* ``GET /metrics`` — Prometheus exposition via :mod:`repro.obs`.
* ``GET /healthz`` — liveness (503 while draining).

Connections are keep-alive (the load harness sustains thousands of
cache-hit requests per second over a handful of sockets); request
heads and bodies are size-bounded; parse errors answer 400 and close.
``SIGTERM``/``SIGINT`` trigger a graceful drain: stop accepting, finish
every in-flight run, then exit — the behavior that turns a deploy into
a non-event instead of a weekly-uptime incident.

Cache provenance travels in headers (``X-Cache: hit|miss|coalesced``,
``X-Request-Digest: sha256:…``) so the body stays exactly the canonical
artifact bytes — the byte-identity contract with offline ``--metrics``
files would not survive an envelope.
"""

from __future__ import annotations

import asyncio
import signal
from typing import Dict, Optional, Tuple

from .request import RequestError, parse_request_json
from .service import ScenarioService, ServeResponse, _error_body

#: Bounds on what one request may send; beyond them: 400/413 and close.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _BadRequest(Exception):
    """Protocol-level failure: answer and close the connection."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_head(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str]]]:
    """Read one request head; None on clean EOF between requests."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # peer closed between requests: normal keep-alive end
        raise _BadRequest(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise _BadRequest(413, "request head too large") from None
    if len(head) > MAX_HEADER_BYTES:
        raise _BadRequest(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _BadRequest(400, f"malformed request line {lines[0]!r}")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise _BadRequest(400, f"malformed header line {line!r}")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            # Two framings of one message: refuse rather than pick one.
            raise _BadRequest(
                400, f"bad Content-Length: {headers[name]!r} and {value!r}"
            )
        headers[name] = value
    return method.upper(), target, headers


async def _read_body(
    reader: asyncio.StreamReader, headers: Dict[str, str]
) -> bytes:
    if "transfer-encoding" in headers:
        raise _BadRequest(400, "chunked bodies are not supported")
    raw = headers.get("content-length", "0")
    # RFC 9110 §8.6: 1*DIGIT and nothing else; int() alone would also
    # read "+3", "1_0" and "-5".
    if not (raw.isascii() and raw.isdigit()):
        raise _BadRequest(400, f"bad Content-Length {raw!r}")
    # More digits than the limit has is over it, and int() refuses a
    # string of more than 4300.
    digits = raw.lstrip("0") or "0"
    if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
        raise _BadRequest(
            413, f"body exceeds the limit of {MAX_BODY_BYTES} bytes"
        )
    length = int(digits)
    if length == 0:
        return b""
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise _BadRequest(400, "truncated request body") from None


def _render(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra: Tuple[Tuple[str, str], ...] = (),
    keep_alive: bool = True,
) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    head = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    head.extend(f"{name}: {value}" for name, value in extra)
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


class HttpServer:
    """The asyncio front end binding a :class:`ScenarioService`."""

    def __init__(
        self,
        service: ScenarioService,
        host: str = "127.0.0.1",
        port: int = 8351,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        # Created lazily inside the running loop: on 3.9 an Event built
        # outside asyncio.run() binds to the wrong loop.
        self._stopping: Optional[asyncio.Event] = None
        self._stop_requested = False

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting (``port=0`` picks a free port)."""
        self._server = await asyncio.start_server(
            self._on_client,
            self.host,
            self.port,
            limit=MAX_HEADER_BYTES + MAX_BODY_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def request_stop(self) -> None:
        """Signal-safe shutdown trigger (SIGTERM/SIGINT handler)."""
        self._stop_requested = True
        if self._stopping is not None:
            self._stopping.set()

    async def serve_until_stopped(self) -> None:
        """Run until :meth:`request_stop`, then drain gracefully."""
        if self._server is None:
            await self.start()
        self._stopping = asyncio.Event()
        if self._stop_requested:
            self._stopping.set()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_stop)
            except (NotImplementedError, RuntimeError):
                pass  # platform without signal support: stop via method
        await self._stopping.wait()
        await self.stop()

    async def stop(self) -> None:
        """Graceful drain: no new connections, finish in-flight runs."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.drain()
        self.service.close()

    # -- connection handling -------------------------------------------
    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    head = await _read_head(reader)
                except _BadRequest as exc:
                    writer.write(
                        _render(
                            exc.status,
                            _error_body(exc.status, str(exc)),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if head is None:
                    break
                method, target, headers = head
                try:
                    body = await _read_body(reader, headers)
                except _BadRequest as exc:
                    writer.write(
                        _render(
                            exc.status,
                            _error_body(exc.status, str(exc)),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                payload = await self._dispatch(method, target, body)
                writer.write(payload)
                await writer.drain()
                if headers.get("connection", "").lower() == "close":
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            # A pool worker forked while this connection was open holds a
            # copy of its socket, so close() alone sends no FIN; the
            # half-close acts on the socket itself.
            try:
                if writer.can_write_eof():
                    writer.write_eof()
            except OSError:
                pass
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _dispatch(self, method: str, target: str, body: bytes) -> bytes:
        target = target.split("?", 1)[0]
        if target == "/healthz":
            if method != "GET":
                return _render(405, _error_body(405, "use GET"))
            if self.service.draining:
                return _render(
                    503, b"draining\n", content_type="text/plain"
                )
            return _render(200, b"ok\n", content_type="text/plain")
        if target == "/metrics":
            if method != "GET":
                return _render(405, _error_body(405, "use GET"))
            return _render(
                200,
                self.service.metrics_text().encode("utf-8"),
                content_type="text/plain; version=0.0.4",
            )
        if target in ("/v1/run", "/v1/mc"):
            if method != "POST":
                return _render(405, _error_body(405, "use POST"))
            endpoint = target.rsplit("/", 1)[1]
            try:
                request = parse_request_json(body, endpoint)
            except RequestError as exc:
                return _render(400, _error_body(400, str(exc)))
            response = await self.service.handle(request)
            return self._render_service(response)
        return _render(404, _error_body(404, f"no route for {target!r}"))

    @staticmethod
    def _render_service(response: ServeResponse) -> bytes:
        extra = []
        if response.cache:
            extra.append(("X-Cache", response.cache))
        if response.digest:
            extra.append(("X-Request-Digest", response.digest))
        return _render(
            response.status,
            response.body,
            content_type=response.content_type,
            extra=tuple(extra),
        )


async def serve_forever(
    service: ScenarioService, host: str, port: int
) -> HttpServer:
    """CLI entry: start, announce, and serve until SIGTERM/SIGINT.

    The request parser reads the scenario table, which is imported
    before ``listening`` is announced: a server that says it listens
    answers its first request without importing the model.
    """
    from ..experiment import scenarios  # noqa: F401

    server = HttpServer(service, host=host, port=port)
    await server.start()
    print(
        f"repro serve: listening on http://{server.host}:{server.port} "
        f"({service.workers} worker(s), queue limit "
        f"{service.queue_limit}, timeout {service.timeout_s:g} s)",
        flush=True,
    )
    await server.serve_until_stopped()
    print("repro serve: drained, bye", flush=True)
    return server


__all__ = [
    "HttpServer",
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "serve_forever",
]
