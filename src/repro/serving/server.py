"""The asyncio HTTP/JSON front of the serving layer.

Stdlib-only (``asyncio`` streams, no web framework): a minimal
HTTP/1.1 server with keep-alive, serving

* ``POST /query``   — answer one JSON query (:mod:`repro.serving.query`)
* ``POST /refresh`` — force a snapshot capture (epoch advance)
* ``GET  /stats``   — runtime status JSON
* ``GET  /healthz`` — liveness probe
* ``GET  /metrics`` — Prometheus text exposition of the obs registry

A request head is read with one bounded ``readuntil`` under the stream
limit (64 KiB): an overrun is answered 431, a ``Content-Length`` that is
not a decimal number 400, a body over :data:`MAX_BODY_BYTES` 413.

Ingest shares the process. Local executors are stepped on the same
event loop in small chunks, and requests come before ingest: between
chunks the ingest task polls the listening and client sockets with a
zero timeout, and yields the loop as soon as one is readable or the slot
has run :data:`INGEST_SLOT_S` (see :meth:`ServingServer._ingest_loop`).
Cluster executors pump on their own thread with snapshot captures
punted to the default thread pool — the loop itself never blocks.

Shutdown is clean by construction: client tasks are tracked and
awaited, the ingest task is cancelled, the readiness selector is
closed, and :meth:`ServingServer.stop` returns only when nothing is left
running — the property the CI smoke job asserts (no leaked tasks, no
leaked shm segments).
"""

from __future__ import annotations

import asyncio
import json
import selectors
from time import perf_counter
from typing import Any

from repro.obs.exporters import to_prometheus
from repro.serving.query import QueryError
from repro.serving.runtime import ServingRuntime

#: Refuse larger request bodies (we only ever expect small JSON).
MAX_BODY_BYTES = 1 << 20

#: Longest an ingest slot holds the event loop when no client is waiting.
INGEST_SLOT_S = 0.005

#: Loop passes ingest yields in a row to readable sockets before it runs
#: one chunk anyway. A socket can stay readable while asyncio does not
#: read it (a paused transport, a peer trickling bytes); it must slow
#: ingest, never stall it. A normal request needs two passes.
MAX_DEFERRALS = 8

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


def _response(
    status: int, body: bytes, content_type: str, keep_alive: bool
) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


def _json_response(status: int, doc: Any, keep_alive: bool) -> bytes:
    body = (json.dumps(doc) + "\n").encode("utf-8")
    return _response(status, body, "application/json", keep_alive)


async def _refuse(writer: asyncio.StreamWriter, status: int, error: str) -> None:
    """Answer a request that cannot be served and end the connection."""
    writer.write(_json_response(status, {"ok": False, "error": error}, False))
    await writer.drain()


class ServingServer:
    """One serving runtime behind an asyncio HTTP endpoint.

    ``ingest_budget`` is the number of tuples of local ingest run per
    chunk, between two checks for waiting clients.
    """

    def __init__(
        self,
        runtime: ServingRuntime,
        host: str = "127.0.0.1",
        port: int = 0,
        ingest_budget: int = 32,
    ):
        self.runtime = runtime
        self.host = host
        self.port = port  # 0 = ephemeral; the bound port after start()
        self.ingest_budget = ingest_budget
        self._server: asyncio.base_events.Server | None = None
        self._clients: set[asyncio.Task] = set()
        self._ingest_task: asyncio.Task | None = None
        # Watches the listening and client sockets while ingest runs.
        self._selector: selectors.BaseSelector | None = None

    # -- lifecycle --------------------------------------------------

    async def start(self, ingest: bool = True) -> None:
        """Bind the socket and (optionally) start ingest underneath."""
        self._server = await asyncio.start_server(
            self._serve_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if ingest:
            self.runtime.start_ingest()
            if not self.runtime.blocking_capture:
                self._selector = selectors.DefaultSelector()
                for sock in self._server.sockets:
                    self._selector.register(sock.fileno(), selectors.EVENT_READ)
                self._ingest_task = asyncio.ensure_future(self._ingest_loop())

    async def _ingest_loop(self) -> None:
        """Step local ingest in chunks, yielding the loop to clients.

        Each chunk is ``ingest_step(ingest_budget)``. Before each chunk a
        zero-timeout poll asks whether the listening socket or a client
        socket is readable. If one is, ingest yields until the loop has
        read it, then yields one more pass: in CPython's ready-queue
        order ingest runs first in every pass, so without that pass it
        would run a chunk before the woken client task. With no client
        waiting, ingest yields once per :data:`INGEST_SLOT_S`. After
        :data:`MAX_DEFERRALS` yields in a row it runs a chunk regardless.
        """
        step, readable = self.runtime.ingest_step, self._selector.select
        deferrals = 0
        try:
            slot_end = perf_counter() + INGEST_SLOT_S
            while True:
                if deferrals < MAX_DEFERRALS and readable(0):
                    deferrals += 1
                    await asyncio.sleep(0)
                    if not readable(0):
                        await asyncio.sleep(0)
                    slot_end = perf_counter() + INGEST_SLOT_S
                    continue
                if not step(self.ingest_budget):
                    return
                deferrals = 0
                if perf_counter() >= slot_end:
                    await asyncio.sleep(0)
                    slot_end = perf_counter() + INGEST_SLOT_S
        finally:
            self._close_selector()

    def _close_selector(self) -> None:
        if self._selector is not None:
            self._selector.close()
            self._selector = None

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Serve until *stop* is set, then shut down cleanly."""
        await stop.wait()
        await self.stop()

    async def stop(self) -> None:
        """Close the socket, cancel ingest, finish clients — leak-free."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
        if self._ingest_task is not None:
            self._ingest_task.cancel()
            try:
                await self._ingest_task
            except asyncio.CancelledError:
                pass
            self._ingest_task = None
        # A task cancelled before its first step never ran its finally.
        self._close_selector()
        for task in list(self._clients):
            task.cancel()
        if self._clients:
            await asyncio.gather(*self._clients, return_exceptions=True)
        self._clients.clear()
        # From Python 3.12.1 this waits for every connection to close.
        if server is not None:
            await server.wait_closed()

    # -- request handling -------------------------------------------

    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._clients.add(task)
        watcher = self._selector
        if watcher is not None:
            fd = writer.get_extra_info("socket").fileno()
            watcher.register(fd, selectors.EVENT_READ)
        try:
            await self._client_loop(reader, writer)
        except asyncio.CancelledError:
            # Stopping. A close would wait for a peer that may never read.
            # Not re-raised: on 3.11 asyncio's done callback for this task
            # calls task.exception(), which raises on a cancelled task.
            writer.transport.abort()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            # Before the close: a closed fd number is reused by the next client.
            if watcher is not None and watcher is self._selector:
                watcher.unregister(fd)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass
            if task is not None:
                self._clients.discard(task)

    async def _client_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except asyncio.LimitOverrunError:
                await _refuse(writer, 431, "request head too large")
                return
            request_line, *header_lines = head[:-4].decode("latin-1").split("\r\n")
            parts = request_line.split()
            if len(parts) != 3:
                await _refuse(writer, 400, "bad request")
                return
            method, path, version = parts
            headers: dict[str, str] = {}
            for line in header_lines:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            length_text = headers.get("content-length") or "0"
            if not (length_text.isascii() and length_text.isdigit()):
                await _refuse(writer, 400, "bad Content-Length")
                return
            # The length test keeps int() clear of its digit limit.
            if len(length_text) > 16 or (length := int(length_text)) > MAX_BODY_BYTES:
                await _refuse(writer, 413, "body too large")
                return
            body = await reader.readexactly(length) if length else b""
            keep_alive = (
                headers.get("connection", "").lower() != "close"
                and version != "HTTP/1.0"
            )
            response = await self._dispatch(method, path, body, keep_alive)
            writer.write(response)
            await writer.drain()
            if not keep_alive:
                return

    async def _dispatch(
        self, method: str, path: str, body: bytes, keep_alive: bool
    ) -> bytes:
        path = path.split("?", 1)[0]
        if path == "/query":
            if method != "POST":
                return _json_response(
                    405, {"ok": False, "error": "POST only"}, keep_alive
                )
            try:
                doc = json.loads(body.decode("utf-8")) if body else {}
            except (UnicodeDecodeError, json.JSONDecodeError):
                return _json_response(
                    400, {"ok": False, "error": "body is not valid JSON"}, keep_alive
                )
            try:
                if self.runtime.blocking_capture:
                    # Cluster captures wait on the pump; keep the loop free.
                    result = await asyncio.get_event_loop().run_in_executor(
                        None, self.runtime.handle, doc
                    )
                else:
                    result = self.runtime.handle(doc)
            except QueryError as exc:
                return _json_response(
                    400, {"ok": False, "error": str(exc)}, keep_alive
                )
            except Exception as exc:  # keep serving other clients
                return _json_response(
                    500,
                    {"ok": False, "error": f"internal error: {exc}"},
                    keep_alive,
                )
            return _json_response(200, result, keep_alive)
        if path == "/refresh":
            if method != "POST":
                return _json_response(
                    405, {"ok": False, "error": "POST only"}, keep_alive
                )
            if self.runtime.blocking_capture:
                result = await asyncio.get_event_loop().run_in_executor(
                    None, self.runtime.refresh
                )
            else:
                result = self.runtime.refresh()
            return _json_response(200, result, keep_alive)
        if path == "/stats":
            return _json_response(200, self.runtime.stats(), keep_alive)
        if path == "/healthz":
            return _json_response(
                200,
                {"ok": True, "epoch": self.runtime.store.epoch},
                keep_alive,
            )
        if path == "/metrics":
            text = to_prometheus(self.runtime.registry)
            return _response(
                200, text.encode("utf-8"), "text/plain; version=0.0.4", keep_alive
            )
        return _json_response(
            404, {"ok": False, "error": f"no route {path!r}"}, keep_alive
        )
