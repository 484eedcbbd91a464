"""Content-addressed response cache: memory LRU over sealed disk files.

Determinism makes this cache *perfect*: the request digest fully
determines the response bytes, so an entry can never be stale — the
only reasons to evict are capacity.  Two tiers:

* **Memory** — an ``OrderedDict`` LRU bounded by total body bytes.
  A hit is a dict probe plus a move-to-end; this is the tier that
  serves thousands of requests per second.
* **Disk** — one sealed file per digest (``<hex>.rsp``, the format of
  :mod:`repro.runtime.sealed`), also LRU+size-bounded.  A read that
  fails verification deletes the file and reports a miss — truncation
  or bit rot can only cost a recomputation, never a wrong response.

An entry appears on disk only once sealed; a crash leaves at most a
``.tmp`` leftover, which the next boot deletes unread.  A write that
fails (a full disk) is counted and leaves the entry in memory only.
The disk tier is optional (``disk_dir=None`` keeps the cache purely in
memory, the test default).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..runtime.sealed import TMP_SUFFIX, SealedWriter, read_sealed

#: Disk entry format version (read == written, like the .mcr artifacts).
CACHE_FORMAT_VERSION = 2

#: Suffix for sealed response files.
CACHE_SUFFIX = ".rsp"


@dataclass
class CacheStats:
    """Per-tier accounting, surfaced at ``GET /metrics``."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    insertions: int = 0
    memory_evictions: int = 0
    disk_evictions: int = 0
    verify_failures: int = 0
    #: Disk-tier writes that failed (full disk, I/O error); the entry
    #: stays in memory only and the response is answered as usual.
    disk_write_failures: int = 0


class ResponseCache:
    """LRU + size-bounded two-tier cache keyed by request digest."""

    def __init__(
        self,
        max_memory_bytes: int = 64 * 1024 * 1024,
        disk_dir: Optional[str] = None,
        max_disk_bytes: int = 256 * 1024 * 1024,
    ) -> None:
        if max_memory_bytes < 0 or max_disk_bytes < 0:
            raise ValueError("cache size bounds must be >= 0")
        self.max_memory_bytes = int(max_memory_bytes)
        self.max_disk_bytes = int(max_disk_bytes)
        self.disk_dir = str(disk_dir) if disk_dir is not None else None
        self.stats = CacheStats()
        self._memory: "OrderedDict[str, bytes]" = OrderedDict()
        self._memory_bytes = 0
        #: digest -> on-disk file size (header + body), LRU order.
        self._disk: "OrderedDict[str, int]" = OrderedDict()
        self._disk_bytes = 0
        if self.disk_dir is not None:
            os.makedirs(self.disk_dir, exist_ok=True)
            self._index_disk()

    # -- sizing ---------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        return self._memory_bytes

    @property
    def disk_bytes(self) -> int:
        return self._disk_bytes

    def __len__(self) -> int:
        return len(self._memory)

    # -- lookup ---------------------------------------------------------
    def get(self, key: str) -> Optional[bytes]:
        """The response bytes for ``key``, or None (a true miss).

        Memory first; on a disk hit the entry is verified against its
        seal and promoted back into the memory tier.
        """
        body = self._memory.get(key)
        if body is not None:
            self._memory.move_to_end(key)
            self.stats.memory_hits += 1
            return body
        if self.disk_dir is not None and key in self._disk:
            body = self._read_sealed(key)
            if body is not None:
                self._disk.move_to_end(key)
                self.stats.disk_hits += 1
                self._put_memory(key, body)
                return body
        self.stats.misses += 1
        return None

    def put(self, key: str, body: bytes) -> None:
        """Insert a computed response under its digest (idempotent)."""
        if not isinstance(body, bytes):
            raise TypeError(
                f"cache stores response bytes, got {type(body).__name__}"
            )
        self.stats.insertions += 1
        self._put_memory(key, body)
        if self.disk_dir is not None:
            self._put_disk(key, body)

    # -- memory tier ----------------------------------------------------
    def _put_memory(self, key: str, body: bytes) -> None:
        if len(body) > self.max_memory_bytes:
            return  # larger than the whole tier: disk-only entry
        previous = self._memory.pop(key, None)
        if previous is not None:
            self._memory_bytes -= len(previous)
        self._memory[key] = body
        self._memory_bytes += len(body)
        while self._memory_bytes > self.max_memory_bytes and self._memory:
            _evicted, old = self._memory.popitem(last=False)
            self._memory_bytes -= len(old)
            self.stats.memory_evictions += 1

    # -- disk tier ------------------------------------------------------
    def _path(self, key: str) -> str:
        assert self.disk_dir is not None
        return os.path.join(self.disk_dir, key + CACHE_SUFFIX)

    def _index_disk(self) -> None:
        """Adopt entries left by a previous process.

        Files are indexed in name order (deterministic given a
        directory's contents); verification happens lazily at read
        time, so boot cost is one ``listdir``, not a full re-hash.
        Unsealed ``.tmp`` leftovers of a crashed write are deleted.
        """
        assert self.disk_dir is not None
        for name in sorted(os.listdir(self.disk_dir)):
            path = os.path.join(self.disk_dir, name)
            if name.endswith(TMP_SUFFIX):
                _remove(path)
                continue
            if not name.endswith(CACHE_SUFFIX):
                continue
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            self._disk[name[: -len(CACHE_SUFFIX)]] = size
            self._disk_bytes += size

    def _put_disk(self, key: str, body: bytes) -> None:
        # A disk that cannot take the entry costs its disk copy, not the
        # response: the writer aborts (no ``.tmp`` is left), the failure
        # is counted, and the memory tier still answers.
        try:
            writer = SealedWriter(
                self._path(key),
                {"kind": "serve-cache", "key": key, "version": CACHE_FORMAT_VERSION},
            )
            total = writer.size + len(body)
            if total > self.max_disk_bytes:
                writer.abort()
                return
            with writer:
                writer.write(body)
        except OSError:
            self.stats.disk_write_failures += 1
            return
        previous = self._disk.pop(key, None)
        if previous is not None:
            self._disk_bytes -= previous
        self._disk[key] = total
        self._disk_bytes += total
        while self._disk_bytes > self.max_disk_bytes and self._disk:
            evicted, size = self._disk.popitem(last=False)
            self._disk_bytes -= size
            self.stats.disk_evictions += 1
            _remove(self._path(evicted))

    def _read_sealed(self, key: str) -> Optional[bytes]:
        """Read and verify one sealed file; purge it on any defect."""
        path = self._path(key)
        try:
            header, body = read_sealed(path)
        except (OSError, ValueError):
            header, body = {}, None
        if (
            header.get("kind") == "serve-cache"
            and header.get("version") == CACHE_FORMAT_VERSION
            and header.get("key") == key
        ):
            return body
        self.stats.verify_failures += 1
        size = self._disk.pop(key, None)
        if size is not None:
            self._disk_bytes -= size
        _remove(path)
        return None


def _remove(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass


__all__ = [
    "CACHE_FORMAT_VERSION",
    "CACHE_SUFFIX",
    "CacheStats",
    "ResponseCache",
]
