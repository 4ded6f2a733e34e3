"""perfbench: the repository's end-to-end benchmark, timed per layer from outside.

One run is one user session of an STSM deployment against a system
under test (``sut.py``) in its own process: set-up, then ``ROUNDS``
rounds of the sweep, serve and live phases, each phase getting an even
share of its budget in every round.  Every end-to-end timing is a
median over the rounds (or over all their sweeps or refits): on a
shared host a co-tenant can slow a core by up to 3x or stall it for a
tenth of a second, and a median over rounds spread across the run is
not moved by a burst that spans one of them.

1. **set-up** (``setup_s``, repeated ``SETUPS`` times, median): spawn the
   SUT, build the datasets, fit the served model, start the HTTP server,
   wait for readiness and send a warm-up wire pass.  The first fit and
   the first wire pass of a process are slower, so they are paid here
   and never inside a timed phase.
2. **sweep** (``sweep_s``, ``fit_s``, ``test_mae``, ``test_rmse``): serial
   ``run_matrix(jobs=1)`` sweeps of STSM over two spatial splits of a
   fixed synthetic PEMS-BAY.  The server is up but idle.  Each sweep is
   pinned to one core, the cores taking turns, and the speed probe
   (``speed.py``) times a fixed reference kernel on that core while it
   runs.  ``sweep_s`` and ``fit_s`` are the medians of wall time divided
   by the core's measured slowdown: seconds on the reference machine.
   Co-tenants slow a core by up to 1.7x for minutes at a time, longer
   than a run, so raw wall times of identical runs spread by a quarter;
   the raw median and the slowdown are per-layer metrics
   (``sweep.wall_s``, ``sweep.core_slowdown``).
3. **serve** (``rps``, ``p50_ms``, ``p95_ms``): a closed loop with
   ``nproc`` clients for throughput, then an open loop at a fixed
   offered rate for latency, timed from each request's due time; each
   metric is the median round's.  The p99 over all rounds' requests is a
   per-layer metric (``serve.loadgen.p99_ms``) and is on the details
   line: it rests on the fifteen slowest of about fifteen hundred
   requests, which on a shared host are the ones a co-tenant's burst
   hit, so identical runs spread by a quarter or more.
4. **live** (``refit_lag_s``): a clocked feed replayed into a
   ``StreamBuffer``, warm-started ``RefitScheduler`` refits over a
   disk-backed ``ArtifactStore`` with a quota, each blue/green-swapped
   in by ``LiveSwapBridge`` while open-loop clients keep reading.  The
   rounds' live segments are one live session whose feed pauses while
   the other phases run; its model is served under its own key, so the
   swaps never touch the model the serve phase checks.  The refit loop
   of each segment is pinned to one core with the speed probe beside
   it, and ``refit_lag_s`` is the median refit's lag divided by that
   core's slowdown, as for the sweep (raw: ``live.refit_lag_wall_s``).
   Read latencies, which swing with how long a refit holds the
   interpreter lock, are per-layer metrics (``live.loadgen.*``).

The workload picks the serving traffic (phases 3 and 4): ``hot``
is Zipf traffic over a pool that fits the server's result cache,
``miss`` is uniform traffic over a pool more than twice the cache.

Checks (any failure prints ``"correct": false`` and exits 1): the sweep
metrics are finite and identical across repeats; every block served in
phase 3 is bitwise one of the blocks obtained by replaying the served
batch log through direct ``predict``; no request fails; across the
swaps submitted equals completed (retired schedulers included) and
every block served is finite.

``--trace 1`` wraps each module's public calls (``tracer.py``) and
prints the per-layer metrics instead: per-phase seconds, self seconds
and counts, plus the tracing overhead measured against an untraced
pass of the same sweep and closed loop in the same run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hot --seed 1 --seconds 36 --trace 0

The last stdout line is the result JSON; the line before it holds the
details (machine stanza, per-phase counts, sample counts).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from machine import child_env, machine_stanza, nproc, pin_threads  # noqa: E402

pin_threads()

import numpy as np  # noqa: E402

from drivers import (  # noqa: E402
    LIVE_KEY,
    block_digest,
    closed_loop,
    one_pass,
    open_loop,
    percentile,
    stream,
)
from speed import SpeedProbe, slowdown  # noqa: E402

perf = time.perf_counter

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

SWEEP = {
    "sensors": 24, "days": 2, "data_seed": 7, "model_seed": 0, "epochs": 3,
    "splits": ["horizontal", "vertical"],
}
SERVE = {
    "sensors": 20, "days": 3, "data_seed": 11,
    "model": {
        "hidden_dim": 16, "num_blocks": 1, "tcn_levels": 2, "gcn_depth": 1,
        "epochs": 3, "patience": 3, "batch_size": 8, "window_stride": 4,
        "top_k": 6, "seed": 0,
    },
    "deadline_ms": 2.0, "max_batch": 64,
    # The result cache is a deployment setting, fixed here so the miss
    # pool is more than twice its size.
    "cache_size": 256,
}
LIVE = {
    "window_steps": 432, "refit_every": 48, "refit_epochs": 2,
    "store_quota": "4MB",
    # Seconds between refit triggers (the feed delivers refit_every rows
    # in this time); about twice a refit's wall time, so refits do not
    # queue behind each other when a co-tenant slows the core.
    "period_s": 1.35,
}
SPEC_TOTAL = 16  # input_length + horizon
#: Open-loop offered rate of the live phase (requests per second).
LIVE_RATE = 60.0
WARMUP_REQUESTS = 256
#: Shares of --seconds given to each timed phase, split evenly over the rounds.
BUDGET = {"sweep": 0.22, "closed": 0.12, "open": 0.36, "live": 0.30}
#: Rounds of sweep, serve and live phases, spreading each phase's
#: measurements across the run.
ROUNDS = 3

#: Serving traffic per workload.  ``serve_rate`` is the serve phase's
#: open-loop offered rate, well below the workload's capacity (its
#: closed-loop ``rps``) so latency is measured without a growing backlog.
WORKLOADS = {
    "hot": {"kind": "zipf", "exponent": 1.1, "serve_pool": 64, "live_pool": 64,
            "serve_rate": 120.0},
    "miss": {"kind": "uniform", "serve_pool": 600, "live_pool": None,
             "serve_rate": 120.0},
}

#: (name, unit) of every end-to-end metric, printed with --trace 0.
END_TO_END = [
    ("setup_s", "s"), ("peak_rss_mb", "MiB"),
    ("sweep_s", "s"), ("fit_s", "s"), ("test_mae", "mph"), ("test_rmse", "mph"),
    ("rps", "1/s"), ("p50_ms", "ms"), ("p95_ms", "ms"),
    ("refit_lag_s", "s"),
]

#: Timed layers reported per phase with --trace 1: seconds and self seconds.
TIMED_LAYERS = {
    "sweep": ["temporal.dtw", "core.mask_draw", "core.predict", "nn.forward",
              "autograd.backward", "optim.step", "engine.trainer.epoch",
              "engine.trainer.validate"],
    "serve": ["core.predict", "nn.forward", "serving.codec.encode",
              "serving.codec.decode"],
    "live": ["temporal.dtw", "core.predict", "engine.trainer.epoch",
             "engine.trainer.validate", "engine.store.persist", "engine.store.gc",
             "streaming.buffer.append", "streaming.refit.fit",
             "streaming.bridge.deploy"],
}


def per_layer_spec() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, printed with --trace 1."""
    spec = [("setup.data.build_s", "s")]
    for phase, layers in TIMED_LAYERS.items():
        for layer in layers:
            spec += [(f"{phase}.{layer}_s", "s"), (f"{phase}.{layer}.self_s", "s")]
    for phase in ("sweep", "serve"):
        spec += [(f"{phase}.backend.ops", "count"), (f"{phase}.backend.op_s", "s"),
                 (f"{phase}.backend.matmul_calls", "count"),
                 (f"{phase}.backend.matmul_s", "s")]
    spec += [
        ("sweep.temporal.dtw_calls", "count"), ("sweep.core.predict_windows", "count"),
        ("sweep.engine.trainer.epochs", "count"),
        ("sweep.wall_s", "s"), ("sweep.core_slowdown", "x"),
        ("serve.core.predict_windows", "count"), ("serve.serving.codec.calls", "count"),
        ("serve.serving.runtime.server_ms.p50", "ms"),
        ("serve.serving.runtime.server_ms.p99", "ms"),
        ("serve.serving.http.self_ms", "ms"),
        ("serve.serving.scheduler.batch_size", "count"),
        ("serve.serving.scheduler.batches", "count"),
        ("serve.serving.scheduler.peak_queue", "count"),
        ("serve.serving.service.hit_ratio", "ratio"),
        ("serve.loadgen.p99_ms", "ms"), ("serve.loadgen.late_p99_ms", "ms"),
        ("live.temporal.dtw_calls", "count"), ("live.engine.trainer.epochs", "count"),
        ("live.engine.store.gets", "count"), ("live.engine.store.hit_ratio", "ratio"),
        ("live.engine.store.puts", "count"),
        ("live.streaming.refit.wait_s", "s"), ("live.streaming.bridge.swaps", "count"),
        ("live.refit_lag_wall_s", "s"), ("live.core_slowdown", "x"),
        ("live.serving.runtime.server_ms.p99", "ms"),
        ("live.loadgen.p50_ms", "ms"), ("live.loadgen.p99_ms", "ms"),
        ("live.loadgen.late_p99_ms", "ms"),
        ("trace.sweep_overhead_pct", "%"), ("trace.serve_overhead_pct", "%"),
        ("trace.spans", "count"),
    ]
    return spec


class SutError(RuntimeError):
    """The system under test failed a command or died."""


class Sut:
    """One system-under-test process and its JSON-line command channel."""

    def __init__(self, config: dict, run_dir: Path, *, timeout: float = 120.0) -> None:
        self.log_path = run_dir / f"sut-{config['index']}.log"
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "sut.py"), json.dumps(config)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
            env=child_env(str(SRC)), cwd=str(ROOT), text=True,
        )
        self.peak_rss_mib = 0.0
        self.ready = self._read(timeout)

    def _read(self, timeout: float) -> dict:
        stdout = self.process.stdout
        ready, _, _ = select.select([stdout], [], [], timeout)
        line = stdout.readline() if ready else ""
        if not line:
            self.kill()
            raise SutError(
                f"system under test gave no reply within {timeout:.0f} s; "
                f"log:\n{self.log_path.read_text()[-4000:]}"
            )
        reply = json.loads(line)
        if "error" in reply:
            raise SutError(reply["error"])
        return reply

    def call(self, op: str, *, timeout: float = 150.0, **arguments) -> dict:
        self.process.stdin.write(json.dumps({"op": op, **arguments}) + "\n")
        self.process.stdin.flush()
        return self._read(timeout)

    def stop(self) -> None:
        try:
            self.peak_rss_mib = self.call("stop", timeout=60.0)["peak_rss_mib"]
            self.process.stdin.close()
            self.process.wait(timeout=30.0)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30.0)
        self._log.close()


def spread_pool(size: int | None, last_start: int) -> list[int]:
    """``size`` window starts spread evenly over ``[0, last_start]`` (all if None)."""
    if size is None:
        return list(range(last_start + 1))
    return [int(x) for x in np.linspace(0, last_start, size).round()]


def median(values) -> float:
    return float(statistics.median(values))


class Session:
    """One run of one workload: set-ups, then the sweep, serve and live phases."""

    def __init__(self, args, run_dir: Path) -> None:
        # The client stack is imported here, not inside the first timed
        # set-up: the benchmark's own imports are not the program's cost.
        import repro.serving.transport  # noqa: F401

        self.args = args
        self.run_dir = run_dir
        self.workload = WORKLOADS[args.workload]
        self.clients = nproc()
        self.rng = np.random.default_rng(args.seed)
        self.trace = bool(args.trace)
        self.tracer = None
        self.checks: dict[str, bool] = {}
        self.counts: dict[str, dict] = {}
        self.details: dict = {"workload": args.workload, "seed": args.seed}
        self.attempted = 0
        self.failed = 0
        self.sut_rss = 0.0
        self.cpus = sorted(os.sched_getaffinity(0))
        self.probe: SpeedProbe | None = None
        self.sweep_walls: list[float] = []
        self.sweep_replies: list[dict] = []
        self.sweep_untraced: list[float] = []

        serve_last = SERVE["days"] * 288 - SPEC_TOTAL
        live_last = LIVE["window_steps"] - SPEC_TOTAL
        self.serve_pool = spread_pool(self.workload["serve_pool"], serve_last)
        self.live_pool = spread_pool(self.workload["live_pool"], live_last)
        self.serve_rounds: list[dict] = []
        self.serve_untraced_rps: list[float] = []
        self.live_rounds: list[tuple] = []
        # Refits per live segment: as many as fit the segment's budget
        # (two at least), within the rows the served dataset holds.
        per_round = BUDGET["live"] * args.seconds / ROUNDS / LIVE["period_s"]
        most = (SERVE["days"] * 288 - LIVE["window_steps"]) // LIVE["refit_every"] + 1
        refits = ROUNDS * min(max(2, round(per_round)), most // ROUNDS)
        self.live_config = {
            key: LIVE[key] for key in ("window_steps", "refit_every",
                                       "refit_epochs", "store_quota")
        }
        self.live_config["refits"] = refits
        self.live_config["interval_s"] = LIVE["period_s"] / LIVE["refit_every"]

    # ------------------------------------------------------------------
    def record(self, phase: str, result) -> None:
        """Count a driver phase's requests towards attempted/failed."""
        counts = self.counts.setdefault(phase, {"sent": 0, "succeeded": 0, "failed": 0})
        for key, value in result.counts().items():
            counts[key] += value
        self.attempted += result.sent
        self.failed += result.failed
        if result.errors:
            self.details.setdefault("errors", {})[phase] = result.errors[:5]

    def enter(self, sut: Sut, phase: str) -> None:
        """Attribute the spans that follow, on both sides, to ``phase``."""
        sut.call("phase", name=phase)
        if self.tracer is not None:
            self.tracer.phase = phase

    def config(self, index: int) -> dict:
        return {
            "index": index, "trace": self.trace, "run_dir": str(self.run_dir),
            "sweep": SWEEP, "serve": SERVE, "live": self.live_config,
        }

    def warm_up(self, sut: Sut) -> None:
        """One wire pass: the pool once if it fits, topped up from the stream."""
        pool = self.serve_pool if len(self.serve_pool) <= WARMUP_REQUESTS else []
        items = pool + stream(self.workload, self.rng, self.serve_pool,
                              WARMUP_REQUESTS - len(pool))
        one_pass(sut.ready["port"], [items[j::self.clients] for j in range(self.clients)])

    # ------------------------------------------------------------------
    def setup(self) -> Sut:
        times = []
        sut = None
        for index in range(SETUPS):
            began = perf()
            sut = Sut(self.config(index), self.run_dir)
            try:
                self.warm_up(sut)
            except BaseException:
                sut.stop()
                raise
            times.append(perf() - began)
            if index < SETUPS - 1:
                sut.stop()
                self.sut_rss = max(self.sut_rss, sut.peak_rss_mib)
        self.details["setup_s"] = times
        self.details["served_fit_s"] = sut.ready["fit_s"]
        self.setup_s = median(times)
        return sut

    def probed_sweep(self, sut: Sut, cpu: int) -> dict:
        """One sweep pinned to ``cpu``, with that core's measured slowdown."""
        with self.probe.measuring(cpu) as samples:
            reply = sut.call("sweep", cpu=cpu)
        reply["slowdown"] = slowdown(samples)
        reply["probes"] = len(samples)
        return reply

    def sweep_block(self, sut: Sut, budget: float) -> None:
        """Sweep until the next sweep would end past ``budget`` (one at least).

        Sweeps take turns on the cores, each pinned to one core with the
        speed probe beside it.
        """
        self.enter(sut, "sweep")
        walls = []
        started = perf()
        while not walls or perf() - started + median(walls) <= budget:
            cpu = self.cpus[len(self.sweep_walls) % len(self.cpus)]
            if self.trace:
                # Pair each traced sweep with an untraced one on the same
                # core: the overhead is the ratio of their medians.
                sut.call("trace", on=False)
                untraced = self.probed_sweep(sut, cpu)
                self.sweep_untraced.append(untraced["seconds"] / untraced["slowdown"])
                sut.call("trace", on=True)
            reply = self.probed_sweep(sut, cpu)
            walls.append(reply["seconds"])
            self.sweep_walls.append(reply["seconds"])
            self.sweep_replies.append(reply)

    def sweep_metrics(self) -> dict:
        walls, replies = self.sweep_walls, self.sweep_replies
        cells = sum(r["cells"] for r in replies)
        self.attempted += cells
        self.counts["sweep"] = {"sweeps": len(walls), "cells": cells}
        finite = all(math.isfinite(r["mae"]) and math.isfinite(r["rmse"]) for r in replies)
        self.checks["sweep_identical"] = len({r["digest"] for r in replies}) == 1
        self.checks["sweep_finite"] = finite
        slowdowns = [r["slowdown"] for r in replies]
        self.details["sweep"] = {
            "wall_s": walls, "slowdown": slowdowns,
            "probes": [r["probes"] for r in replies],
        }
        self.sweep_raw = {"wall_s": median(walls), "slowdown": median(slowdowns)}
        # Seconds on the reference machine: each sweep's wall time over
        # the slowdown the probe measured on its core while it ran.
        out = {
            "sweep_s": median([r["seconds"] / r["slowdown"] for r in replies]),
            "fit_s": median([r["fit_s"] / r["slowdown"] for r in replies]),
            "test_mae": replies[0]["mae"],
            "test_rmse": replies[0]["rmse"],
        }
        if self.sweep_untraced:
            self.overhead_sweep = 100.0 * (
                out["sweep_s"] / median(self.sweep_untraced) - 1.0
            )
        return out

    def serve_round(self, sut: Sut) -> None:
        """One slice of the serve phase: a closed loop, then an open loop."""
        port = sut.ready["port"]
        self.enter(sut, "serve")
        closed_s = BUDGET["closed"] * self.args.seconds / ROUNDS

        def streams() -> list[list[int]]:
            return [stream(self.workload, self.rng, self.serve_pool, 4096)
                    for _ in range(self.clients)]

        if self.trace:
            # Its own streams: replaying the traced loop's would warm the
            # result cache for it.
            sut.call("trace", on=False)
            self.tracer.uninstall()
            untraced = closed_loop(port, streams(), closed_s)
            self.serve_untraced_rps.append(untraced.succeeded / untraced.seconds)
            self.record("serve_closed_untraced", untraced)
            self.tracer.install(client_only=True)
            sut.call("trace", on=True)
        before = sut.call("stats")
        closed = closed_loop(port, streams(), closed_s, self.tracer)
        self.record("serve_closed", closed)
        rate = self.workload["serve_rate"]
        items = stream(self.workload, self.rng, self.serve_pool,
                       int(BUDGET["open"] * self.args.seconds / ROUNDS * rate))
        opened = open_loop(port, items, rate, self.clients, self.tracer)
        self.record("serve_open", opened)
        after = sut.call("stats")
        self.serve_rounds.append(
            {"closed": closed, "open": opened, "before": before, "after": after}
        )

    def serve_metrics(self, sut: Sut) -> dict:
        """Checks over every round; rps, p50 and p95 are the median round's."""
        rounds = self.serve_rounds
        closed = [r["closed"] for r in rounds]
        opened = [r["open"] for r in rounds]
        replay = sut.call("replay")
        candidates = replay["candidates"]
        served = [pair for result in closed + opened for pair in result.served]
        self.checks["serve_bitwise_replay"] = bool(served) and all(
            block_digest(block) in candidates.get(str(start), ())
            for start, block in served
        )
        self.details["replay_rows"] = replay["rows"]
        self.checks["serve_no_failures"] = all(r.failed == 0 for r in closed + opened)

        delta = {k: sum(r["after"][k] - r["before"][k] for r in rounds)
                 for k in rounds[0]["after"]}
        rps = [r.succeeded / r.seconds for r in closed]
        p50 = [percentile(r.latencies_ms, 50) for r in opened]
        p95 = [percentile(r.latencies_ms, 95) for r in opened]
        # p99 pools the rounds' open-loop requests, so it rests on about
        # fifteen requests beyond it rather than five.
        latencies = [ms for r in opened for ms in r.latencies_ms]
        late = [ms for r in opened for ms in r.late_ms]
        self.serve_stats = {
            "hit_ratio": delta["cache_hits"] / max(delta["requests"], 1),
            "batches": delta["batches"],
            "batch_size": delta["batched_requests"] / max(delta["batches"], 1),
            "peak_queue": rounds[-1]["after"]["peak_queue"],
            "service_ms_mean": float(np.mean(
                [ms for r in closed + opened for ms in r.service_ms])),
            "requests": sum(r.succeeded for r in closed + opened),
            "late_p99_ms": percentile(late, 99),
            "p99_ms": percentile(latencies, 99),
        }
        self.details["serve"] = {
            "rps": rps, "p50_ms": p50, "p95_ms": p95,
            "p99_ms": self.serve_stats["p99_ms"],
            "p99_ms_by_round": [percentile(r.latencies_ms, 99) for r in opened],
            "closed_rps_samples": [r.succeeded for r in closed],
            "open_latency_samples": len(latencies),
            "offered_rps": self.workload["serve_rate"],
            "hit_ratio": self.serve_stats["hit_ratio"],
            "late_p99_ms": self.serve_stats["late_p99_ms"],
        }
        if self.serve_untraced_rps:
            self.overhead_serve = 100.0 * (
                median(self.serve_untraced_rps) / median(rps) - 1.0
            )
        return {"rps": median(rps), "p50_ms": median(p50), "p95_ms": median(p95)}

    def live_round(self, sut: Sut, index: int) -> None:
        """One live segment: the feed resumes for a few refits, reads go on."""
        port = sut.ready["port"]
        self.enter(sut, "live")
        refits = self.live_config["refits"] // ROUNDS
        items = stream(self.workload, self.rng, self.live_pool,
                       int(refits * LIVE["period_s"] * LIVE_RATE))
        cpu = self.cpus[index % len(self.cpus)]
        with self.probe.measuring(cpu) as samples:
            sut.call("live_start", seed=self.args.seed * ROUNDS + index,
                     refits=refits, cpu=cpu)
            opened = open_loop(port, items, LIVE_RATE, self.clients, self.tracer,
                               key=LIVE_KEY)
            reply = sut.call("live_wait")
        reply["slowdown"] = slowdown(samples)
        self.record("live_open", opened)
        self.live_rounds.append((opened, reply))

    def live_metrics(self) -> dict:
        """Checks over the whole live session; the lag is the median refit's.

        Like a sweep, each refit is rescaled by the slowdown of the core
        its loop was pinned to, probed while the segment ran.
        """
        opened = [result for result, _ in self.live_rounds]
        replies = [reply for _, reply in self.live_rounds]
        last = replies[-1]
        refits = sum(len(reply["lags_s"]) for reply in replies)
        self.attempted += refits
        counters = last["counters"]
        self.checks["live_no_drop"] = (
            all(r.failed == 0 for r in opened)
            and counters["submitted"] == counters["completed"]
            and counters["failed"] == 0
            and counters["rejected"] == 0
            and last["swaps"] == refits == self.live_config["refits"]
        )
        self.checks["live_finite"] = all(r.served for r in opened) and all(
            bool(np.isfinite(block).all()) for r in opened for _, block in r.served
        )
        lags = [lag for reply in replies for lag in reply["lags_s"]]
        rescaled = [lag / reply["slowdown"] for reply in replies
                    for lag in reply["lags_s"]]
        slowdowns = [reply["slowdown"] for reply in replies]
        self.live_raw = {"lag_s": median(lags), "slowdown": median(slowdowns)}
        waits = [wait for reply in replies for wait in reply["waits_s"]]
        latencies = [ms for r in opened for ms in r.latencies_ms]
        self.live_result = {"waits_s": waits, "swaps": last["swaps"]}
        self.live_latency = {
            "p50_ms": percentile(latencies, 50),
            "p99_ms": percentile(latencies, 99),
            "late_p99_ms": percentile([ms for r in opened for ms in r.late_ms], 99),
            "samples": len(latencies),
            "offered_rps": LIVE_RATE,
        }
        self.details["live"] = {
            "refits": refits, "lags_s": lags, "slowdown": slowdowns,
            "fit_s": [fit for reply in replies for fit in reply["fit_s"]],
            "waits_s": waits, "counters": counters, **self.live_latency,
        }
        return {"refit_lag_s": median(rescaled)}

    # ------------------------------------------------------------------
    def run(self) -> dict:
        if self.trace:
            from tracer import Tracer

            self.tracer = Tracer()
            self.tracer.install(client_only=True)
        sut = self.setup()
        try:
            self.probe = SpeedProbe(child_env(str(SRC)))
            values = {"setup_s": self.setup_s}
            for index in range(ROUNDS):
                self.sweep_block(sut, BUDGET["sweep"] * self.args.seconds / ROUNDS)
                self.serve_round(sut)
                self.live_round(sut, index)
            values.update(self.sweep_metrics())
            values.update(self.serve_metrics(sut))
            values.update(self.live_metrics())
            layers = sut.call("layers") if self.trace else None
        finally:
            if self.probe is not None:
                self.probe.close()
            sut.stop()
        self.sut_rss = max(self.sut_rss, sut.peak_rss_mib)
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["peak_rss_mb"] = own + self.sut_rss
        self.details["peak_rss_mib"] = {"benchmark": own, "sut": self.sut_rss}
        if self.trace:
            return self.layer_metrics(layers)
        return {name: {"value": float(values[name]), "unit": unit}
                for name, unit in END_TO_END}

    def layer_metrics(self, sut_report: dict) -> dict:
        bench = self.tracer.report()
        self.tracer.write_spans(self.run_dir / "spans-benchmark.jsonl")
        layers: dict = {}
        for report in (sut_report, bench):
            for phase, entries in report["layers"].items():
                for name, entry in entries.items():
                    into = layers.setdefault(phase, {}).setdefault(
                        name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "units": 0}
                    )
                    for key in into:
                        into[key] += entry[key]
        empty = {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "units": 0}

        def layer(phase: str, name: str) -> dict:
            return layers.get(phase, {}).get(name, empty)

        def backend(phase: str) -> tuple:
            entries = [e for n, e in layers.get(phase, {}).items()
                       if n.startswith("backend.")]
            return (sum(e["calls"] for e in entries), sum(e["seconds"] for e in entries))

        values = {"setup.data.build_s": layer("setup", "data.build")["seconds"]}
        for phase, names in TIMED_LAYERS.items():
            for name in names:
                values[f"{phase}.{name}_s"] = layer(phase, name)["seconds"]
                values[f"{phase}.{name}.self_s"] = layer(phase, name)["self_seconds"]
        for phase in ("sweep", "serve"):
            ops, op_s = backend(phase)
            values[f"{phase}.backend.ops"] = ops
            values[f"{phase}.backend.op_s"] = op_s
            values[f"{phase}.backend.matmul_calls"] = layer(phase, "backend.matmul")["calls"]
            values[f"{phase}.backend.matmul_s"] = layer(phase, "backend.matmul")["seconds"]
        server = sut_report["samples"].get("serve", {}).get(
            "serving.runtime.server_ms", {"p50": 0.0, "p99": 0.0, "mean": 0.0}
        )
        codec_calls = sum(layer("serve", n)["calls"]
                          for n in ("serving.codec.encode", "serving.codec.decode"))
        codec_s = sum(layer("serve", n)["seconds"]
                      for n in ("serving.codec.encode", "serving.codec.decode"))
        stats = self.serve_stats
        store_gets = layer("live", "engine.store.get")["calls"]
        live_server = sut_report["samples"].get("live", {}).get(
            "serving.runtime.server_ms", {"p99": 0.0}
        )
        values.update({
            "sweep.temporal.dtw_calls": layer("sweep", "temporal.dtw")["calls"],
            "sweep.core.predict_windows": layer("sweep", "core.predict")["units"],
            "sweep.engine.trainer.epochs": layer("sweep", "engine.trainer.epoch")["calls"],
            "sweep.wall_s": self.sweep_raw["wall_s"],
            "sweep.core_slowdown": self.sweep_raw["slowdown"],
            "serve.core.predict_windows": layer("serve", "core.predict")["units"],
            "serve.serving.codec.calls": codec_calls,
            "serve.serving.runtime.server_ms.p50": server["p50"],
            "serve.serving.runtime.server_ms.p99": server["p99"],
            # Client time per request not spent in the server's runtime
            # or in the codec: HTTP, sockets and thread hand-offs.
            "serve.serving.http.self_ms": stats["service_ms_mean"] - server["mean"]
            - 1e3 * codec_s / max(stats["requests"], 1),
            "serve.serving.scheduler.batch_size": stats["batch_size"],
            "serve.serving.scheduler.batches": stats["batches"],
            "serve.serving.scheduler.peak_queue": stats["peak_queue"],
            "serve.serving.service.hit_ratio": stats["hit_ratio"],
            "serve.loadgen.p99_ms": stats["p99_ms"],
            "serve.loadgen.late_p99_ms": stats["late_p99_ms"],
            "live.temporal.dtw_calls": layer("live", "temporal.dtw")["calls"],
            "live.engine.trainer.epochs": layer("live", "engine.trainer.epoch")["calls"],
            "live.engine.store.gets": store_gets,
            "live.engine.store.hit_ratio":
                layer("live", "engine.store.hit")["calls"] / max(store_gets, 1),
            "live.engine.store.puts": layer("live", "engine.store.put")["calls"],
            "live.streaming.refit.wait_s": median(self.live_result["waits_s"]),
            "live.streaming.bridge.swaps": self.live_result["swaps"],
            "live.refit_lag_wall_s": self.live_raw["lag_s"],
            "live.core_slowdown": self.live_raw["slowdown"],
            "live.serving.runtime.server_ms.p99": live_server["p99"],
            "live.loadgen.p50_ms": self.live_latency["p50_ms"],
            "live.loadgen.p99_ms": self.live_latency["p99_ms"],
            "live.loadgen.late_p99_ms": self.live_latency["late_p99_ms"],
            "trace.sweep_overhead_pct": self.overhead_sweep,
            "trace.serve_overhead_pct": self.overhead_serve,
            "trace.spans": sut_report["spans_written"] + bench["spans"],
        })
        self.details["layers"] = layers
        return {name: {"value": float(values[name]), "unit": unit}
                for name, unit in per_layer_spec()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to run: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    scratch = ROOT / ".perfbench_runs"
    scratch.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    session = Session(args, run_dir)
    try:
        metrics = session.run()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    correct = all(session.checks.values())
    session.details.update(machine=machine_stanza(), checks=session.checks,
                           counts=session.counts)
    print(json.dumps({"details": session.details}))
    print(json.dumps({
        "correct": correct, "attempted": session.attempted,
        "failed": session.failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
