"""The closed-loop "millions of users" serving workload.

N virtual users hammer a serving endpoint over keep-alive HTTP
connections, each issuing its next query only after the previous answer
arrives (closed-loop, so offered load self-regulates to the server's
capacity — the standard serving-benchmark shape). The query mix is
Zipf-skewed the same way the demo word stream is: hot words are hot
queries, which is exactly what makes a result cache pay.

Determinism: each user's query stream is an independent RNG derived
from ``derive_seed(seed, user_index)``, so the *set of queries issued*
is reproducible under a seed regardless of scheduling. Response digests
cover (op, result) pairs per user in issue order, so two runs against
the same frozen snapshot must produce bit-identical digests — the bench
uses that as its cached-vs-uncached equivalence check.

The client is stdlib-asyncio only, mirroring the server.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.common.exceptions import ParameterError
from repro.common.rng import derive_seed, make_rng

#: Default op mix (weights need not sum to 1; they are normalized).
#: Point lookups dominate, as in any real serving tier.
DEFAULT_MIX: tuple[tuple[str, float], ...] = (
    ("point", 0.55),
    ("topk", 0.20),
    ("cardinality", 0.10),
    ("range", 0.10),
    ("quantile", 0.05),
)

#: Which StreamSummary child each op targets in the serving demo summary.
_OP_SYNOPSIS = {
    "point": "freq",
    "topk": "topk",
    "cardinality": "uniques",
    "range": "lengths",
    "quantile": "lengths",
}


def query_stream(
    seed: int,
    user: int = 0,
    mix: tuple[tuple[str, float], ...] = DEFAULT_MIX,
) -> Iterator[dict[str, Any]]:
    """An endless, seeded, Zipf-skewed stream of wire query documents.

    *user* selects an independent derived RNG stream, so N virtual users
    under one seed issue uncorrelated (but reproducible) query mixes.
    """
    total = sum(weight for _op, weight in mix)
    if total <= 0:
        raise ParameterError("mix weights must sum to a positive value")
    rnd = make_rng(derive_seed(seed, user))
    while True:
        pick = rnd.random() * total
        for op, weight in mix:
            pick -= weight
            if pick < 0:
                break
        doc: dict[str, Any] = {"op": op, "synopsis": _OP_SYNOPSIS[op]}
        if op == "point":
            # The demo stream's own skew: quadratic mass toward w0.
            doc["item"] = f"w{int(rnd.random() ** 2 * 50)}"
        elif op == "topk":
            doc["k"] = (3, 5, 10)[int(rnd.random() * 3)]
        elif op == "quantile":
            doc["q"] = round(rnd.random(), 2)
        elif op == "range":
            lo = 1 + int(rnd.random() * 3)
            doc["lo"], doc["hi"] = lo, lo + 1 + int(rnd.random() * 2)
        yield doc


@dataclass
class WorkloadResult:
    """Aggregate outcome of one closed-loop run."""

    n_users: int
    n_queries: int = 0
    n_errors: int = 0
    n_cached: int = 0
    wall_seconds: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    op_counts: dict[str, int] = field(default_factory=dict)
    #: sha256 over every user's (op, result) sequence, users in index
    #: order — the bit-identical-responses equivalence witness.
    digest: str = ""
    epochs: set[int] = field(default_factory=set)
    snapshot_age_max_s: float = 0.0

    @property
    def qps(self) -> float:
        return self.n_queries / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def cache_hit_ratio(self) -> float:
        return self.n_cached / self.n_queries if self.n_queries else 0.0

    def latency_quantile(self, q: float) -> float:
        """The *q*-quantile of observed latencies (0.0 when empty)."""
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]


class _HttpUser:
    """One keep-alive connection issuing queries in lockstep."""

    def __init__(
        self,
        host: str,
        port: int,
        queries: list[dict[str, Any]],
        clock: Callable[[], float],
    ):
        self.host = host
        self.port = port
        self.queries = queries
        self._clock = clock
        self.latencies_s: list[float] = []
        self.n_errors = 0
        self.n_cached = 0
        self.op_counts: dict[str, int] = {}
        self.epochs: set[int] = set()
        self.snapshot_age_max_s = 0.0
        self._sha = hashlib.sha256()

    @property
    def digest_update(self) -> bytes:
        return self._sha.digest()

    async def run(self) -> None:
        import asyncio  # only the live client needs it, not the query mix

        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            for doc in self.queries:
                body = json.dumps(doc).encode("utf-8")
                head = (
                    "POST /query HTTP/1.1\r\n"
                    f"Host: {self.host}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "\r\n"
                )
                start = self._clock()
                writer.write(head.encode("ascii") + body)
                await writer.drain()
                status, payload = await _read_response(reader)
                self.latencies_s.append(self._clock() - start)
                self.op_counts[doc["op"]] = self.op_counts.get(doc["op"], 0) + 1
                if status != 200 or not payload.get("ok"):
                    self.n_errors += 1
                    continue
                if payload.get("cached"):
                    self.n_cached += 1
                self.epochs.add(payload.get("epoch", -1))
                self.snapshot_age_max_s = max(
                    self.snapshot_age_max_s, payload.get("snapshot_age_s", 0.0)
                )
                self._sha.update(
                    json.dumps(
                        [doc["op"], payload.get("result")], sort_keys=True
                    ).encode("utf-8")
                )
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass


async def _read_response(
    reader: asyncio.StreamReader,
) -> tuple[int, dict[str, Any]]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    payload = await reader.readexactly(length) if length else b""
    try:
        return status, json.loads(payload)
    except json.JSONDecodeError:
        return status, {}


async def run_closed_loop(
    host: str,
    port: int,
    *,
    n_users: int = 8,
    queries_per_user: int = 50,
    seed: int = 7,
    mix: tuple[tuple[str, float], ...] = DEFAULT_MIX,
    clock: Callable[[], float] | None = None,
) -> WorkloadResult:
    """Run the seeded closed-loop workload against a live endpoint."""
    import asyncio
    if n_users <= 0 or queries_per_user <= 0:
        raise ParameterError("n_users and queries_per_user must be positive")
    ticker = clock if clock is not None else time.perf_counter
    users = []
    for index in range(n_users):
        stream = query_stream(seed, index, mix)
        queries = [next(stream) for _ in range(queries_per_user)]
        users.append(_HttpUser(host, port, queries, ticker))
    start = ticker()
    await asyncio.gather(*(user.run() for user in users))
    wall = ticker() - start
    result = WorkloadResult(n_users=n_users, wall_seconds=wall)
    sha = hashlib.sha256()
    for user in users:
        result.n_queries += len(user.latencies_s)
        result.n_errors += user.n_errors
        result.n_cached += user.n_cached
        result.latencies_s.extend(user.latencies_s)
        result.epochs |= user.epochs
        result.snapshot_age_max_s = max(
            result.snapshot_age_max_s, user.snapshot_age_max_s
        )
        for op, count in user.op_counts.items():
            result.op_counts[op] = result.op_counts.get(op, 0) + count
        sha.update(user.digest_update)
    result.digest = sha.hexdigest()
    return result


def run_closed_loop_sync(host: str, port: int, **kwargs: Any) -> WorkloadResult:
    """:func:`run_closed_loop` from synchronous code (bench, tests)."""
    import asyncio

    return asyncio.run(run_closed_loop(host, port, **kwargs))
