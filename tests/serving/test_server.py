"""The asyncio HTTP front-end: routing, caching, shutdown hygiene.

Every test boots a real server on an ephemeral port inside one event
loop and speaks actual HTTP/1.1 over a stream connection — no mocked
transport. The shutdown tests pin the CI contract: ``stop()`` leaves
zero pending tasks and no open descriptor behind. Hostile input is
answered with a status, never with an exception left in a client task.
"""

import asyncio
import gc
import json
import os
import socket
import struct

import pytest

from repro.obs.metrics import MetricRegistry
from repro.platform.executor import LocalExecutor
from repro.serving import ServingRuntime, ServingServer
from repro.serving.demo import SERVING_BOLT, build_serving_topology, demo_records

SEED = 7


def make_runtime(n_records=400, **kwargs):
    executor = LocalExecutor(build_serving_topology(demo_records(n_records, SEED)))
    kwargs.setdefault("registry", MetricRegistry())
    return ServingRuntime(executor, SERVING_BOLT, **kwargs)


async def request(port, method, path, body=None):
    """One HTTP/1.1 exchange; returns (status, parsed-or-raw body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = json.dumps(body).encode("utf-8") if body is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            "Host: test\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "\r\n"
        )
        writer.write(head.encode("ascii") + payload)
        await writer.drain()
        status_line = await reader.readline()
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        raw = await reader.readexactly(length) if length else b""
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    try:
        return status, json.loads(raw)
    except json.JSONDecodeError:
        return status, raw.decode("utf-8", "replace")


async def exchange(port, raw):
    """Send *raw* bytes on a fresh connection and read until the server
    closes it; the reply's status, or None for no reply."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(raw)
        await writer.drain()
        status_line = await reader.readline()
        await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    return int(status_line.split()[1]) if status_line else None


def run_checked(main):
    """``asyncio.run(main())``, failing if anything reached the loop's
    exception handler, such as an exception left in a client task."""
    unhandled = []

    async def _checked():
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: unhandled.append(context)
        )
        try:
            return await main()
        finally:
            gc.collect()  # a task holding its exception in a cycle reports here

    result = asyncio.run(_checked())
    assert unhandled == []
    return result


def serve(coro_fn, ingest=True):
    """Run *coro_fn(server)* against a started server, then stop it."""

    async def _main():
        server = ServingServer(make_runtime())
        await server.start(ingest=ingest)
        try:
            return await coro_fn(server)
        finally:
            await server.stop()

    return run_checked(_main)


class TestRouting:
    def test_healthz(self):
        async def check(server):
            return await request(server.port, "GET", "/healthz")

        status, body = serve(check)
        assert status == 200 and body["ok"] is True

    def test_query_roundtrip_and_cache_hit(self):
        async def check(server):
            doc = {"op": "point", "synopsis": "freq", "item": "w0"}
            first = await request(server.port, "POST", "/query", doc)
            second = await request(server.port, "POST", "/query", doc)
            return first, second

        (s1, b1), (s2, b2) = serve(check)
        assert s1 == s2 == 200
        assert b1["ok"] and isinstance(b1["result"], int) and b1["result"] > 0
        assert b1["cached"] is False and b2["cached"] is True
        assert b1["result"] == b2["result"] and b1["epoch"] == b2["epoch"]

    def test_bad_query_is_400(self):
        async def check(server):
            return await request(
                server.port, "POST", "/query", {"op": "join"}
            )

        status, body = serve(check)
        assert status == 400
        assert body["ok"] is False and "op must be one of" in body["error"]

    def test_unparsable_body_is_400(self):
        async def check(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                b"POST /query HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 4\r\n\r\n{{{{"
            )
            await writer.drain()
            line = await reader.readline()
            writer.close()
            await writer.wait_closed()
            return int(line.split()[1])

        assert serve(check) == 400

    def test_unknown_path_is_404_and_bad_method_405(self):
        async def check(server):
            missing = await request(server.port, "GET", "/nope")
            wrong = await request(server.port, "GET", "/query")
            return missing[0], wrong[0]

        assert serve(check) == (404, 405)

    def test_refresh_advances_epoch(self):
        async def check(server):
            doc = {"op": "cardinality", "synopsis": "uniques"}
            before = await request(server.port, "POST", "/query", doc)
            bumped = await request(server.port, "POST", "/refresh")
            after = await request(server.port, "POST", "/query", doc)
            return before[1], bumped[1], after[1]

        before, bumped, after = serve(check)
        assert bumped["ok"] and bumped["epoch"] == before["epoch"] + 1
        assert after["epoch"] == bumped["epoch"]
        assert after["cached"] is False  # the new epoch misses by design

    def test_stats_and_metrics(self):
        async def check(server):
            doc = {"op": "point", "synopsis": "freq", "item": "w1"}
            await request(server.port, "POST", "/query", doc)
            await request(server.port, "POST", "/query", doc)
            stats = await request(server.port, "GET", "/stats")
            metrics = await request(server.port, "GET", "/metrics")
            return stats, metrics

        (s_status, stats), (m_status, metrics) = serve(check)
        assert s_status == m_status == 200
        assert stats["requests"] == 2
        assert stats["cache"]["hits"] == 1
        assert "serving_cache_hits_total 1" in metrics
        assert "serving_request_seconds" in metrics


class TestLifecycle:
    def test_stop_leaves_no_pending_tasks(self):
        async def _main():
            server = ServingServer(make_runtime())
            await server.start(ingest=True)
            # Leave a connection open mid-keep-alive, then stop.
            _reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            await request(server.port, "POST", "/refresh")
            await server.stop()
            writer.close()
            leaked = [
                t
                for t in asyncio.all_tasks()
                if t is not asyncio.current_task() and not t.done()
            ]
            return leaked

        assert asyncio.run(_main()) == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_start_stop_cycles_leak_no_descriptor(self):
        async def _main():
            before = len(os.listdir("/proc/self/fd"))
            for _ in range(20):
                server = ServingServer(make_runtime(n_records=2000))
                await server.start(ingest=True)
                _reader, idle = await asyncio.open_connection("127.0.0.1", server.port)
                # Closed by the server before the next one connects, so the
                # second connection gets the first one's descriptor number.
                for _ in range(2):
                    healthz = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
                    assert await exchange(server.port, healthz) == 200
                assert not server.runtime.ingest_done
                await server.stop()
                idle.close()
                await idle.wait_closed()
            leaked = [
                t
                for t in asyncio.all_tasks()
                if t is not asyncio.current_task() and not t.done()
            ]
            return len(os.listdir("/proc/self/fd")) - before, leaked

        assert run_checked(_main) == (0, [])

    def test_ingest_drains_while_serving(self):
        async def _main():
            server = ServingServer(make_runtime(), ingest_budget=64)
            await server.start(ingest=True)
            try:
                for _ in range(200):
                    if server.runtime.ingest_done:
                        break
                    await asyncio.sleep(0.01)
                status, stats = await request(server.port, "GET", "/stats")
            finally:
                await server.stop()
            return status, stats

        status, stats = asyncio.run(_main())
        assert status == 200
        assert stats["ingest"]["done"] is True
        assert stats["ingest"]["source_frontier"] > 0

    def test_port_is_ephemeral_and_reported(self):
        async def _main():
            server = ServingServer(make_runtime())
            await server.start(ingest=False)
            port = server.port
            await server.stop()
            return port

        assert asyncio.run(_main()) > 0


class UnreadServer(ServingServer):
    """Never reads its clients' sockets, which then stay readable: what
    asyncio does while a reader's buffer is full and its handler waits."""

    async def _serve_client(self, reader, writer):
        writer.transport.pause_reading()
        await super()._serve_client(reader, writer)


class TestRequestsBeforeIngest:
    CHUNK = 32  # the server's default ingest_budget

    def test_query_waits_at_most_two_chunks(self):
        """Counts ingest tuples, not seconds. An in-process client reads
        its reply only when the loop next polls, so the reply is timed
        where the server writes it, right after ``runtime.handle``."""

        async def _main():
            runtime = make_runtime(n_records=20_000)
            spent = [0]
            step, handle = runtime.ingest_step, runtime.handle

            def counted_step(budget):
                spent[0] += budget
                return step(budget)

            replied_at = []

            def timed_handle(doc):
                replied_at.append(spent[0])
                return handle(doc)

            runtime.ingest_step, runtime.handle = counted_step, timed_handle
            server = ServingServer(runtime)
            await server.start(ingest=True)
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            waits = []
            try:
                for i in range(50):
                    body = json.dumps({"op": "point", "synopsis": "freq", "item": f"w{i}"})
                    sent_at = spent[0]
                    writer.write(
                        f"POST /query HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n{body}".encode()
                    )
                    head = await reader.readuntil(b"\r\n\r\n")
                    length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
                    assert json.loads(await reader.readexactly(length))["ok"]
                    waits.append(replied_at[-1] - sent_at)
                done = runtime.ingest_done
            finally:
                writer.close()
                await writer.wait_closed()
                await server.stop()
            return waits, spent[0], done

        waits, spent, done = asyncio.run(_main())
        assert not done and spent > 0  # every query met running ingest
        assert max(waits) <= 2 * self.CHUNK, waits

    def test_unread_socket_does_not_stall_ingest(self):
        async def _main():
            server = UnreadServer(make_runtime())
            await server.start(ingest=True)
            _reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
            try:
                for _ in range(1000):
                    if server.runtime.ingest_done:
                        break
                    await asyncio.sleep(0.01)
                return server.runtime.ingest_done
            finally:
                await server.stop()
                writer.close()
                try:
                    await writer.wait_closed()
                except ConnectionError:  # stop() reset the connection
                    pass

        assert asyncio.run(_main())


def test_oversized_body_is_413():
    async def check(server):
        big = {"op": "point", "item": "x" * (2 << 20)}
        return await request(server.port, "POST", "/query", big)

    status, _body = serve(check, ingest=False)
    assert status == 413


class TestHostileInput:
    """Malformed heads get a status and a closed connection."""

    @pytest.mark.parametrize(
        "raw, status",
        [
            (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * (70 << 10) + b"\r\n\r\n", 431),
            (b"GET /" + b"a" * (70 << 10) + b" HTTP/1.1\r\n\r\n", 431),
            (b"POST /query HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
            (b"POST /query HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
            (b"POST /query HTTP/1.1\r\nContent-Length: \xb2\r\n\r\n", 400),
            (b"POST /query HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n", 413),
        ],
        ids=["long-header", "long-request-line", "length-abc", "length-negative",
             "length-superscript", "length-5000-digits"],
    )
    def test_bad_head_is_answered(self, raw, status):
        async def check(server):
            answered = await exchange(server.port, raw)
            healthy = await request(server.port, "GET", "/healthz")
            return answered, healthy[0]

        assert serve(check) == (status, 200)

    def test_disconnect_mid_response(self):
        async def check(server):
            # Ask for the largest answer and reset the connection unread.
            sock = socket.create_connection(("127.0.0.1", server.port))
            sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n" * 50)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
            for _ in range(20):
                await asyncio.sleep(0.005)
            return await request(server.port, "GET", "/healthz")

        status, _body = serve(check)
        assert status == 200


@pytest.mark.parametrize("op", ["point", "topk", "cardinality", "quantile", "range"])
def test_every_op_serves_over_http(op):
    docs = {
        "point": {"op": "point", "synopsis": "freq", "item": "w0"},
        "topk": {"op": "topk", "synopsis": "topk", "k": 3},
        "cardinality": {"op": "cardinality", "synopsis": "uniques"},
        "quantile": {"op": "quantile", "synopsis": "lengths", "q": 0.9},
        "range": {"op": "range", "synopsis": "lengths", "lo": 1, "hi": 4},
    }

    async def check(server):
        return await request(server.port, "POST", "/query", docs[op])

    status, body = serve(check)
    assert status == 200 and body["ok"] is True and body["op"] == op
