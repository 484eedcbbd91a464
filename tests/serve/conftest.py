"""Shared helpers for the serving-layer suites.

The concurrency tests stub the compute function (they test the
service's scheduling, not the simulator), while the end-to-end and
property suites run real scenarios at tiny horizons through a thread
executor — the compute path is identical, only the process boundary is
elided, which keeps the suite fast and sandbox-proof.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional, Tuple


def run_async(coro):
    """Run one coroutine to completion (no pytest-asyncio dependency)."""
    return asyncio.run(coro)


async def http_request(
    port: int,
    method: str,
    target: str,
    body: bytes = b"",
    reader_writer: Optional[Tuple] = None,
) -> Tuple[int, Dict[str, str], bytes]:
    """A minimal HTTP/1.1 client for the suites.

    Pass ``reader_writer`` (from :func:`open_keepalive`) to reuse one
    connection across requests — the keep-alive path the load harness
    exercises.
    """
    if reader_writer is None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
    else:
        reader, writer = reader_writer
    head = (
        f"{method} {target} HTTP/1.1\r\n"
        f"Host: test\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"\r\n"
    ).encode("latin-1")
    writer.write(head + body)
    await writer.drain()
    raw = await reader.readuntil(b"\r\n\r\n")
    lines = raw.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if ": " in line:
            name, value = line.split(": ", 1)
            headers[name.lower()] = value
    payload = await reader.readexactly(int(headers["content-length"]))
    if reader_writer is None:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return status, headers, payload


async def open_keepalive(port: int):
    """One reusable client connection."""
    return await asyncio.open_connection("127.0.0.1", port)
