"""Sealed files: the one on-disk format that reads back verified or not at all.

``.mcr`` shard archives (:mod:`repro.runtime.shard`) and ``.rsp``
response-cache entries (:mod:`repro.serve.cache`) are both sealed files:
one JSON header line, then an opaque body::

    {"sha256":"<64 hex>",<the format's own fields: kind, version, ...>}
    <body bytes>

The seal, ``{"sha256":"<64 hex>",``, is the SHA-256 of every byte after
it.  :class:`SealedWriter` streams into ``<path>.tmp`` and publishes with
one ``os.replace`` once the seal is written, so ``path`` only ever holds
a complete file and a crash leaves at most the ``.tmp``.  The readers
recompute the digest and raise :class:`SealError` on any difference:
a truncated, bit-rotted or concatenated file fails loudly.  The layout
is part of each format's version; a format whose bytes change bumps its
own version, and its reader rejects the old one.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Iterator, Tuple

#: Suffix of a file still being written: never a sealed file itself.
TMP_SUFFIX = ".tmp"

_SEAL_KEY = b'{"sha256":"'
#: Length of the seal, ``{"sha256":"<64 hex>",``; the digest covers
#: every byte from here to the end of the file.
_SEAL_BYTES = len(_SEAL_KEY) + 64 + 2


class SealError(ValueError):
    """A sealed file that is malformed, truncated or corrupt."""


class SealedWriter:
    """Stream one sealed file: the header at construction, then the body.

    ``header`` holds the owning format's fields (at least its ``kind``
    and ``version``).  As a context manager the writer commits on a
    clean exit and aborts on an exception.
    """

    def __init__(self, path: str, header: dict) -> None:
        self.path = str(path)
        self._tmp = self.path + TMP_SUFFIX
        fields = json.dumps(header, sort_keys=True, separators=(",", ":"))
        rest = (fields[1:] + "\n").encode("utf-8")
        self._hash = hashlib.sha256(rest)
        self._handle = open(self._tmp, "wb")
        try:
            self._handle.write(_SEAL_KEY + b"0" * 64 + b'",' + rest)
        except BaseException:
            self.abort()
            raise
        #: Bytes in the file so far, header line included.
        self.size = _SEAL_BYTES + len(rest)

    def write(self, data: bytes) -> None:
        self._handle.write(data)
        self._hash.update(data)
        self.size += len(data)

    def commit(self) -> str:
        """Write the seal and publish the file; returns the hex digest."""
        digest = self._hash.hexdigest()
        try:
            self._handle.seek(len(_SEAL_KEY))
            self._handle.write(digest.encode("ascii"))
            self._handle.close()
            os.replace(self._tmp, self.path)
        except BaseException:
            self.abort()
            raise
        return digest

    def abort(self) -> None:
        """Drop the unpublished file; ``path`` is left as it was."""
        self._handle.close()
        try:
            os.remove(self._tmp)
        except OSError:
            pass

    def __enter__(self) -> "SealedWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.abort()


def _parse_header(path: str, line: bytes) -> dict:
    try:
        header = json.loads(line)
    except ValueError:
        header = None
    if not isinstance(header, dict):
        raise SealError(f"{path}: malformed or missing header line")
    return header


def _verify(path: str, header: dict, digest: str) -> None:
    if header.get("sha256") != digest:
        raise SealError(
            f"{path}: content hash mismatch — the file is truncated or "
            f"corrupt (sealed {header.get('sha256')!r}, found {digest!r})"
        )


def read_header(path: str) -> dict:
    """The header line alone, unverified: a cheap peek at the format."""
    with open(path, "rb") as handle:
        return _parse_header(path, handle.readline())


def read_sealed(path: str) -> Tuple[dict, bytes]:
    """``(header, body)`` of a sealed file: one read, one SHA-256."""
    with open(path, "rb") as handle:
        data = handle.read()
    head, _, body = data.partition(b"\n")
    header = _parse_header(path, head)
    _verify(path, header, hashlib.sha256(memoryview(data)[_SEAL_BYTES:]).hexdigest())
    return header, body


def iter_sealed_lines(path: str) -> Iterator[bytes]:
    """Yield the body line by line, then verify the seal.

    Memory stays O(one line).  The check runs after the last line, so a
    consumer must exhaust the iterator before trusting what it read.
    """
    with open(path, "rb") as handle:
        first = handle.readline()
        header = _parse_header(path, first)
        running = hashlib.sha256(first[_SEAL_BYTES:])
        for line in handle:
            running.update(line)
            yield line
    _verify(path, header, running.hexdigest())


__all__ = [
    "SealError",
    "SealedWriter",
    "TMP_SUFFIX",
    "iter_sealed_lines",
    "read_header",
    "read_sealed",
]
