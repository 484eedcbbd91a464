"""Unit tests of the HTTP front end's request framing.

Each case feeds raw bytes to an ``asyncio.StreamReader`` and reads them
with ``_read_head``/``_read_body``, the two functions every connection
goes through before a request reaches the service.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.http import MAX_BODY_BYTES, _BadRequest, _read_body, _read_head


def read(raw: bytes):
    """``(method, target, headers, body)`` of the one request in ``raw``."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        method, target, headers = await _read_head(reader)
        return method, target, headers, await _read_body(reader, headers)

    return asyncio.run(go())


def post(*header_lines: str, body: bytes = b"") -> bytes:
    head = "".join(f"{line}\r\n" for line in header_lines)
    return f"POST /v1/run HTTP/1.1\r\n{head}\r\n".encode("latin-1") + body


def refusal(raw: bytes):
    with pytest.raises(_BadRequest) as caught:
        read(raw)
    return caught.value.status, str(caught.value)


def test_reads_a_framed_body():
    method, target, headers, body = read(
        post("Host: test", "Content-Length: 5", body=b"hello")
    )
    assert (method, target, body) == ("POST", "/v1/run", b"hello")
    assert headers["content-length"] == "5"


def test_no_content_length_is_an_empty_body():
    assert read(post("Host: test"))[3] == b""


def test_leading_zeros_are_digits():
    assert read(post("Content-Length: 003", body=b"abc"))[3] == b"abc"


def test_identical_duplicates_are_one_length():
    raw = post("Content-Length: 3", "content-length: 3", body=b"abc")
    assert read(raw)[3] == b"abc"


@pytest.mark.parametrize(
    "value",
    ["1_0", "+3", "-5", "3.0", "0x3", "3 3", "3, 3", "", "\xb2", "abc"],
)
def test_anything_but_digits_is_a_bad_length(value):
    status, message = refusal(post(f"Content-Length: {value}", body=b"x" * 10))
    assert status == 400
    assert message.startswith("bad Content-Length")


def test_differing_duplicates_are_refused():
    status, message = refusal(
        post("Content-Length: 3", "Content-Length: 4", body=b"abcd")
    )
    assert status == 400
    assert message == "bad Content-Length: '3' and '4'"


@pytest.mark.parametrize(
    "value",
    [str(MAX_BODY_BYTES + 1), "9" * 5000, "0" * 30 + "9" * 30],
    ids=["limit-plus-one", "5000-digits", "zero-padded"],
)
def test_a_length_over_the_limit_is_too_large(value):
    status, message = refusal(post(f"Content-Length: {value}"))
    assert status == 413
    assert message == f"body exceeds the limit of {MAX_BODY_BYTES} bytes"


def test_the_limit_itself_is_accepted():
    value = "0" * 40 + str(MAX_BODY_BYTES)
    status, message = refusal(post(f"Content-Length: {value}"))
    # Accepted as a length: the refusal is the body's absence.
    assert (status, message) == (400, "truncated request body")
