"""Benchmark-owned HTTP load: a closed loop for throughput, an open loop for latency.

Both drivers run in the benchmark process, one thread and one kept-alive
:class:`~repro.serving.transport.ForecastClient` connection per client,
and record every served block so the caller can check it.  Clients do
not retry: a refused request is a failed request.

The open loop sends request ``i`` at its due time ``t0 + i / rate`` on
client ``i % clients`` and times it *from the due time*, so a stall
delays, and is charged to, every request scheduled behind it.  It also
reports how late the generator itself ran: the gap between when a
client was free to send a request (due, and its previous reply in) and
when it actually sent it.  A late generator voids the run's latencies.
"""

from __future__ import annotations

import gc
import hashlib
import threading
import time
from dataclasses import dataclass, field

import numpy as np

perf = time.perf_counter

MODEL_KEY = "stsm/pems-bay"
#: The live phase's key: refits are swapped in here, never under MODEL_KEY.
LIVE_KEY = "stsm/pems-bay-live"


@dataclass
class LoadResult:
    """What one driver phase sent and got back."""

    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    seconds: float = 0.0
    latencies_ms: list = field(default_factory=list)
    service_ms: list = field(default_factory=list)  # send -> reply
    late_ms: list = field(default_factory=list)
    served: list = field(default_factory=list)  # (window start, block)
    errors: list = field(default_factory=list)

    def merge(self, other: "LoadResult") -> None:
        self.sent += other.sent
        self.succeeded += other.succeeded
        self.failed += other.failed
        self.latencies_ms += other.latencies_ms
        self.service_ms += other.service_ms
        self.late_ms += other.late_ms
        self.served += other.served
        self.errors += other.errors

    def counts(self) -> dict:
        return {"sent": self.sent, "succeeded": self.succeeded, "failed": self.failed}


def _client(port: int):
    from repro.serving.transport import ForecastClient

    return ForecastClient("127.0.0.1", port, timeout=30.0, retries=0)


def _run_clients(target, clients: int) -> list[LoadResult]:
    results = [LoadResult() for _ in range(clients)]
    threads = [
        threading.Thread(target=target, args=(j, results[j]), name=f"client-{j}")
        for j in range(clients)
    ]
    # Keep the collector out of the timed phase: the blocks the clients
    # hold make a full collection slow, and its pause would land in some
    # request's latency.
    gc.collect()
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        gc.enable()
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a load client did not finish within 120 s")
    return results


def closed_loop(port: int, streams: list[list[int]], seconds: float,
                tracer=None) -> LoadResult:
    """Each client sends its stream back to back (cycling) for ``seconds``."""
    deadline = perf() + seconds

    def client(j: int, out: LoadResult) -> None:
        stream = streams[j]
        with _client(port) as conn:
            i = 0
            while perf() < deadline:
                start = stream[i % len(stream)]
                if tracer is not None:
                    tracer.request(f"c{j}-{i}")
                out.sent += 1
                sent_at = perf()
                try:
                    block = conn.forecast_one(MODEL_KEY, start)
                except Exception as error:  # noqa: BLE001 — counted, reported
                    out.failed += 1
                    out.errors.append(repr(error))
                else:
                    out.service_ms.append((perf() - sent_at) * 1e3)
                    out.succeeded += 1
                    out.served.append((start, block))
                i += 1

    began = perf()
    total = LoadResult()
    for part in _run_clients(client, len(streams)):
        total.merge(part)
    total.seconds = perf() - began
    return total


def one_pass(port: int, streams: list[list[int]]) -> LoadResult:
    """Each client sends its stream once, back to back (warm-up)."""

    def client(j: int, out: LoadResult) -> None:
        with _client(port) as conn:
            for start in streams[j]:
                out.sent += 1
                out.served.append((start, conn.forecast_one(MODEL_KEY, start)))
                out.succeeded += 1

    total = LoadResult()
    for part in _run_clients(client, len(streams)):
        total.merge(part)
    return total


def open_loop(port: int, items: list[int], rate: float, clients: int,
              tracer=None, key: str = MODEL_KEY) -> LoadResult:
    """Send ``items`` at ``rate`` per second; latency counts from each due time."""
    t0 = perf() + 0.05

    def client(j: int, out: LoadResult) -> None:
        with _client(port) as conn:
            free_at = t0
            for i in range(j, len(items), clients):
                due = t0 + i / rate
                now = perf()
                if now < due:
                    time.sleep(due - now)
                if tracer is not None:
                    tracer.request(f"o{i}")
                sent_at = perf()
                out.late_ms.append((sent_at - max(due, free_at)) * 1e3)
                out.sent += 1
                try:
                    block = conn.forecast_one(key, items[i])
                except Exception as error:  # noqa: BLE001 — counted, reported
                    free_at = perf()
                    out.failed += 1
                    out.errors.append(repr(error))
                    out.latencies_ms.append(float("inf"))
                    continue
                free_at = perf()
                out.succeeded += 1
                out.latencies_ms.append((free_at - due) * 1e3)
                out.service_ms.append((free_at - sent_at) * 1e3)
                out.served.append((items[i], block))

    total = LoadResult()
    for part in _run_clients(client, clients):
        total.merge(part)
    total.seconds = perf() - t0
    return total


def percentile(values, q: float) -> float:
    """The one percentile definition used for every latency (linear)."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def block_digest(block) -> str:
    """Digest of a forecast block's bytes, as served and as replayed."""
    block = np.ascontiguousarray(block, dtype=np.float64)
    return hashlib.blake2b(block.tobytes(), digest_size=16).hexdigest()


def stream(traffic: dict, rng: np.random.Generator, pool: list[int],
           count: int) -> list[int]:
    """``count`` window starts drawn from ``pool`` as ``traffic`` says.

    ``zipf``: popularity falls off as rank ** -exponent over a seeded
    ranking of the pool; ``uniform``: every window equally likely.
    """
    if traffic["kind"] == "zipf":
        weights = np.arange(1, len(pool) + 1, dtype=float) ** -traffic["exponent"]
        order = rng.permutation(len(pool))
        picks = order[rng.choice(len(pool), size=count, p=weights / weights.sum())]
    else:
        picks = rng.integers(0, len(pool), size=count)
    return [int(pool[k]) for k in picks]
