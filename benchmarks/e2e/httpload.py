"""Load generator for the serving workloads: keep-alive closed-loop users.

Each user is a thread with one HTTP/1.1 connection that sends its next
query only when the previous answer has arrived (closed loop: callers
that each wait for a reply). Blocking socket I/O releases the GIL, and
the server runs in another process, so the generator does not slow the
system it measures.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import threading
from time import perf_counter, sleep
from typing import Any, Callable

from common import HERE


class Connection:
    """One keep-alive HTTP/1.1 connection speaking JSON."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.bytes_in = 0

    def request(self, method: str, path: str, doc: Any = None) -> tuple[int, Any]:
        body = b"" if doc is None else json.dumps(doc).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self.sock.sendall(head.encode("ascii") + body)
        status_line = self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        payload = self.reader.read(length) if length else b""
        self.bytes_in += len(status_line) + length
        try:
            return status, json.loads(payload)
        except json.JSONDecodeError:
            return status, None

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class User:
    """A closed-loop user: thinks for ``think[i]`` seconds, issues
    ``queries[i]``, waits for the answer; in order, until told to stop."""

    def __init__(self, port: int, queries: list[dict], think: list[float]):
        self.port = port
        self.queries = queries
        self.think = think
        # (sent_at, seconds, ok, cached, snapshot_age_s) per completed query
        self.log: list[tuple[float, float, bool, bool, float]] = []
        self.bytes_in = 0
        self.error: BaseException | None = None

    def run(self, keep_going: Callable[[int, Connection], bool]) -> None:
        """Issue queries while ``keep_going(n_done, connection)`` holds."""
        try:
            conn = Connection(self.port)
            try:
                done = 0
                while done < len(self.queries) and keep_going(done, conn):
                    if self.think[done]:
                        sleep(self.think[done])
                    sent = perf_counter()
                    status, reply = conn.request("POST", "/query", self.queries[done])
                    took = perf_counter() - sent
                    ok = status == 200 and isinstance(reply, dict) and bool(reply.get("ok"))
                    self.log.append(
                        (
                            sent,
                            took,
                            ok,
                            bool(ok and reply.get("cached")),
                            float(reply.get("snapshot_age_s", 0.0)) if ok else 0.0,
                        )
                    )
                    done += 1
                self.bytes_in = conn.bytes_in
            finally:
                conn.close()
        except BaseException as exc:  # re-raised by run_users on the main thread
            self.error = exc


def run_users(users: list[User], keep_going: Callable[[int, Connection], bool]) -> None:
    """Run every user to completion on its own thread."""
    threads = [
        threading.Thread(target=user.run, args=(keep_going,), name=f"user-{i}")
        for i, user in enumerate(users)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for user in users:
        if user.error is not None:
            raise user.error


class ServerChild:
    """The server process, driven one round at a time (see serve_child.py)."""

    def __init__(self, records: list, preload: bool, trace: bool, cpu: int):
        self.proc = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "serve_child.py"),
                str(int(preload)),
                str(int(trace)),
                str(cpu),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._say(json.dumps(records))
        self._answer()  # {"ready": true}: imports done

    def _say(self, word: str) -> None:
        self.proc.stdin.write(word + "\n")
        self.proc.stdin.flush()

    def _answer(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise RuntimeError(f"server child died (exit {self.proc.returncode})")
        return json.loads(line)

    def start_round(self) -> tuple[int, float, float]:
        """Build and bind a fresh server; its port, the instant the build
        began and the instant the process was born."""
        self._say("start")
        hello = self._answer()
        return hello["port"], hello["t0"], hello["born"]

    def stop_round(self) -> dict:
        """Shut the round's server down; the child's report on it."""
        self._say("stop")
        return self._answer()

    def close(self) -> None:
        """End of input makes the child exit; reap it (kill it if it won't)."""
        if self.proc.poll() is None:
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        else:
            self.proc.stdin.close()
            self.proc.stdout.close()
