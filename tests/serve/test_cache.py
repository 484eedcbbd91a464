"""Unit tests for the two-tier content-addressed response cache."""

from __future__ import annotations

import errno
import hashlib
import json
import os

import pytest

from repro.serve import ResponseCache
from repro.serve.cache import CACHE_FORMAT_VERSION, CACHE_SUFFIX


def test_memory_roundtrip_and_stats():
    cache = ResponseCache(max_memory_bytes=1024)
    assert cache.get("k1") is None
    cache.put("k1", b"hello")
    assert cache.get("k1") == b"hello"
    assert cache.stats.memory_hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.insertions == 1
    assert cache.memory_bytes == 5


def test_memory_lru_evicts_by_bytes():
    cache = ResponseCache(max_memory_bytes=10)
    cache.put("a", b"aaaa")
    cache.put("b", b"bbbb")
    cache.get("a")  # refresh a; b is now least-recent
    cache.put("c", b"cccc")  # 12 bytes total -> evict b
    assert cache.get("b") is None
    assert cache.get("a") == b"aaaa"
    assert cache.get("c") == b"cccc"
    assert cache.stats.memory_evictions == 1
    assert cache.memory_bytes <= 10


def test_oversized_body_skips_memory_tier(tmp_path):
    cache = ResponseCache(max_memory_bytes=4, disk_dir=str(tmp_path))
    cache.put("big", b"0123456789")
    assert cache.memory_bytes == 0
    # Still servable from the disk tier.
    assert cache.get("big") == b"0123456789"
    assert cache.stats.disk_hits == 1


def test_disk_roundtrip_promotes_to_memory(tmp_path):
    cache = ResponseCache(max_memory_bytes=1024, disk_dir=str(tmp_path))
    cache.put("k", b"payload")
    # Drop the memory tier to force the disk path.
    cache._memory.clear()
    cache._memory_bytes = 0
    assert cache.get("k") == b"payload"
    assert cache.stats.disk_hits == 1
    # Promoted: second read is a memory hit.
    assert cache.get("k") == b"payload"
    assert cache.stats.memory_hits == 1


def test_disk_file_is_sealed(tmp_path):
    cache = ResponseCache(disk_dir=str(tmp_path))
    cache.put("deadbeef", b"body-bytes")
    path = tmp_path / ("deadbeef" + CACHE_SUFFIX)
    raw = path.read_bytes()
    header_line, body = raw.split(b"\n", 1)
    header = json.loads(header_line)
    assert header["kind"] == "serve-cache"
    assert header["version"] == CACHE_FORMAT_VERSION == 2
    assert header["key"] == "deadbeef"
    # The seal covers every byte after itself: the rest of the header
    # and the body.
    seal = b'{"sha256":"' + header["sha256"].encode() + b'",'
    assert raw.startswith(seal)
    assert header["sha256"] == hashlib.sha256(raw[len(seal):]).hexdigest()
    assert body == b"body-bytes"


def test_corrupt_disk_entry_purged_not_served(tmp_path):
    cache = ResponseCache(disk_dir=str(tmp_path))
    cache.put("k", b"good-bytes")
    path = tmp_path / ("k" + CACHE_SUFFIX)
    raw = path.read_bytes()
    path.write_bytes(raw[:-3] + b"XXX")  # flip tail bytes under the seal
    cache._memory.clear()
    cache._memory_bytes = 0
    assert cache.get("k") is None
    assert cache.stats.verify_failures == 1
    assert not path.exists()
    # A truncated file is likewise a miss, not garbage.
    cache.put("t", b"truncate-me")
    tpath = tmp_path / ("t" + CACHE_SUFFIX)
    tpath.write_bytes(tpath.read_bytes()[:-4])
    cache._memory.clear()
    cache._memory_bytes = 0
    assert cache.get("t") is None
    assert cache.stats.verify_failures == 2


def test_adopts_prior_process_entries(tmp_path):
    first = ResponseCache(disk_dir=str(tmp_path))
    first.put("k1", b"one")
    first.put("k2", b"two")
    # A crashed put leaves an unsealed temp file: never adopted, never
    # counted, and deleted at the next boot.
    stale = tmp_path / ("k3" + CACHE_SUFFIX + ".tmp")
    stale.write_bytes(b"half-written")
    second = ResponseCache(disk_dir=str(tmp_path))
    assert second.get("k1") == b"one"
    assert second.get("k2") == b"two"
    assert second.get("k3") is None
    assert second.stats.disk_hits == 2
    assert second.disk_bytes == first.disk_bytes
    assert not stale.exists()


def test_disk_lru_evicts_files(tmp_path):
    cache = ResponseCache(disk_dir=str(tmp_path), max_disk_bytes=350)
    for index in range(4):
        cache.put(f"k{index}", bytes(100))  # ~220 bytes sealed each
    names = sorted(os.listdir(tmp_path))
    assert cache.stats.disk_evictions >= 2
    assert cache.disk_bytes <= 350
    assert len(names) == len(cache._disk)


def test_put_is_idempotent(tmp_path):
    cache = ResponseCache(disk_dir=str(tmp_path))
    cache.put("k", b"same")
    cache.put("k", b"same")
    assert len(cache) == 1
    assert len(os.listdir(tmp_path)) == 1
    assert cache.get("k") == b"same"


def test_full_disk_keeps_entry_in_memory(tmp_path, monkeypatch):
    # The disk refuses even the header line: the writer must not leave
    # its ``.tmp`` behind, and the entry is still served from memory.
    from repro.runtime import sealed

    class FullFile:
        def __init__(self, path, mode):
            self._handle = open(path, mode)

        def write(self, data):
            raise OSError(errno.ENOSPC, "No space left on device")

        def close(self):
            self._handle.close()

    monkeypatch.setattr(sealed, "open", FullFile, raising=False)
    cache = ResponseCache(disk_dir=str(tmp_path))
    cache.put("k", b"body")
    assert cache.stats.disk_write_failures == 1
    assert os.listdir(tmp_path) == []
    assert cache.disk_bytes == 0
    assert cache.get("k") == b"body"
    assert cache.stats.memory_hits == 1


def test_put_rejects_non_bytes():
    cache = ResponseCache()
    with pytest.raises(TypeError, match="response bytes"):
        cache.put("k", "a string")  # type: ignore[arg-type]


def test_negative_bounds_rejected():
    with pytest.raises(ValueError, match=">= 0"):
        ResponseCache(max_memory_bytes=-1)
