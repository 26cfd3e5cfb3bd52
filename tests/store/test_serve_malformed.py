"""Hostile-protocol tests: every malformed exchange gets a clean answer.

The invariant under test (DESIGN.md §4l): slowloris headers, truncated or
oversized bodies and garbage JSON each receive a definitive 4xx/408
within the configured protocol timeouts — never a hung connection, never
a dead server.  Each scenario finishes by serving a normal query on the
same daemon to prove it is still healthy.
"""

import asyncio
import json

import pytest

from repro.perf.cache import clear_cache
from repro.store import detach
from repro.store.serve import http_request

from .conftest import boot

SPEC = {"n": 1, "c_in": 8, "h_in": 7, "w_in": 7, "c_out": 8,
        "h_filter": 3, "w_filter": 3, "stride": 1, "padding": 1,
        "name": "malformed-probe"}


@pytest.fixture(autouse=True)
def clean_state():
    detach()
    clear_cache()
    yield
    detach()
    clear_cache()


#: Protocol timeouts short enough that a stalled client is answered fast.
TIMEOUTS = {"header_timeout_s": 0.3, "body_timeout_s": 0.3}


async def _raw_exchange(host, port, chunks, *, pause_s=0.0, half_close=False,
                        read_timeout_s=5.0):
    """Send raw byte chunks (with optional pauses) and read the response."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        try:
            for chunk in chunks:
                writer.write(chunk)
                await writer.drain()
                if pause_s:
                    await asyncio.sleep(pause_s)
            if half_close:
                writer.write_eof()
        except (ConnectionError, OSError):
            pass  # the server already answered and hung up mid-drip
        raw = await asyncio.wait_for(reader.read(), timeout=read_timeout_s)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return raw


def _status_of(raw: bytes) -> int:
    assert raw, "server hung up without answering"
    return int(raw.split(b" ", 2)[1])


def _body_of(raw: bytes) -> dict:
    return json.loads(raw.partition(b"\r\n\r\n")[2].decode("utf-8"))


async def _assert_still_serving(host, port):
    status, body = await http_request(host, port, "POST", "/v1/conv",
                                      {"spec": SPEC})
    assert status == 200 and body["cycles"] > 0


def test_slowloris_headers_answered_408():
    async def scenario():
        service, server, host, port = await boot(**TIMEOUTS)
        try:
            # One header byte per pause, then stall: the 0.3s header
            # timeout fires long before the request line would complete.
            raw = await _raw_exchange(
                host, port, [b"G", b"E", b"T"], pause_s=0.08
            )
            assert _status_of(raw) == 408
            body = _body_of(raw)
            assert "headers" in body["error"]
            assert body["run_id"] == "serve-test"
            await _assert_still_serving(host, port)
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_truncated_body_half_close_answered_400():
    async def scenario():
        service, server, host, port = await boot(**TIMEOUTS)
        try:
            head = (b"POST /v1/conv HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 500\r\n\r\n")
            raw = await _raw_exchange(
                host, port, [head, b'{"spec":'], half_close=True
            )
            assert _status_of(raw) == 400
            assert "truncated" in _body_of(raw)["error"]
            await _assert_still_serving(host, port)
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_stalled_body_answered_408():
    async def scenario():
        service, server, host, port = await boot(**TIMEOUTS)
        try:
            head = (b"POST /v1/conv HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 500\r\n\r\n")
            # Send a sliver of the promised body, then stall: the body
            # timeout must answer instead of waiting forever.
            raw = await _raw_exchange(host, port, [head, b'{"spec"'])
            assert _status_of(raw) == 408
            assert "body" in _body_of(raw)["error"]
            await _assert_still_serving(host, port)
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_oversized_body_refused_413_without_reading():
    async def scenario():
        service, server, host, port = await boot(
            **TIMEOUTS, max_body_bytes=1024
        )
        try:
            head = (b"POST /v1/conv HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 1048576\r\n\r\n")
            raw = await _raw_exchange(host, port, [head])
            assert _status_of(raw) == 413
            assert "1024-byte limit" in _body_of(raw)["error"]
            await _assert_still_serving(host, port)
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_header_flood_refused_431():
    async def scenario():
        service, server, host, port = await boot(
            **dict(TIMEOUTS, header_timeout_s=5.0)
        )
        try:
            # 1 MiB of header bytes with no terminator overruns the stream
            # limit long before the header timeout would fire.
            flood = b"GET / HTTP/1.1\r\n" + b"X-Junk: " + b"a" * (1 << 20)
            raw = await _raw_exchange(host, port, [flood])
            assert _status_of(raw) == 431
            await _assert_still_serving(host, port)
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_garbage_json_and_malformed_requests_answered_400():
    async def scenario():
        service, server, host, port = await boot(**TIMEOUTS)
        try:
            garbage = b'{"spec": {' + b"\xff\xfe nonsense"
            head = (f"POST /v1/conv HTTP/1.1\r\nHost: x\r\n"
                    f"Content-Length: {len(garbage)}\r\n\r\n").encode()
            raw = await _raw_exchange(host, port, [head + garbage])
            assert _status_of(raw) == 400
            assert "bad JSON" in _body_of(raw)["error"]

            raw = await _raw_exchange(host, port, [b"NONSENSE\r\n\r\n"])
            assert _status_of(raw) == 400
            assert "request line" in _body_of(raw)["error"]

            head = (b"POST /v1/conv HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: banana\r\n\r\n")
            raw = await _raw_exchange(host, port, [head])
            assert _status_of(raw) == 400
            assert "Content-Length" in _body_of(raw)["error"]
            await _assert_still_serving(host, port)
        finally:
            await server.shutdown()

    asyncio.run(scenario())


#: Well-formed JSON whose numbers do not fit the field: each must be a
#: 400 at parse, never a 500 from inside pricing (which would charge the
#: spec's breaker and count as an SLO failure) nor a silently odd answer.
MALFORMED_NUMBERS = {
    "spec.c_in=16.5": ("c_in", {"spec": dict(SPEC, c_in=16.5)}),
    "spec.c_in=16.0": ("c_in", {"spec": dict(SPEC, c_in=16.0)}),
    "spec.stride=2.0": ("stride", {"spec": dict(SPEC, stride=2.0)}),
    "spec.padding=1.0": ("padding", {"spec": dict(SPEC, padding=1.0)}),
    "spec.n=true": ("'n'", {"spec": dict(SPEC, n=True)}),
    "spec.name=7": ("name", {"spec": dict(SPEC, name=7)}),
    "config.array_rows=64.5": (
        "array_rows", {"spec": SPEC, "config": {"array_rows": 64.5}}
    ),
    "config.array_rows=true": (
        "array_rows", {"spec": SPEC, "config": {"array_rows": True}}
    ),
    "config.clock_ghz=NaN": (
        "clock_ghz", {"spec": SPEC, "config": {"clock_ghz": float("nan")}}
    ),
    "config.weight_double_buffer=1": (
        "weight_double_buffer",
        {"spec": SPEC, "config": {"weight_double_buffer": 1}},
    ),
    "group_size=true": ("group_size", {"spec": SPEC, "group_size": True}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_NUMBERS))
def test_malformed_numbers_answered_400_at_parse(case):
    field, payload = MALFORMED_NUMBERS[case]

    async def scenario():
        service, server, host, port = await boot(**TIMEOUTS)
        try:
            status, body = await http_request(
                host, port, "POST", "/v1/conv", payload
            )
            assert status == 400, body
            assert field in body["error"]
            assert service.breakers.snapshot()["keys"] == 0
            assert service.simulations == 0
            assert all(ok for _, _, ok in service._samples)
            await _assert_still_serving(host, port)
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_connect_then_close_is_not_an_error():
    async def scenario():
        service, server, host, port = await boot(**TIMEOUTS)
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.close()
            await writer.wait_closed()
            await asyncio.sleep(0.05)
            await _assert_still_serving(host, port)
            # A clean connect-and-leave produced no error sample.
            assert service.budget.failed == 0
        finally:
            await server.shutdown()

    asyncio.run(scenario())
