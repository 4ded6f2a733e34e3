"""The system under test: one STSM deployment in its own process.

``run.py`` spawns ``python3 perfbench/sut.py '<config json>'``.  The
process builds the datasets, fits the served STSM model, hosts it in a
:class:`~repro.serving.ServingRuntime` behind a
:class:`~repro.serving.transport.ForecastHTTPServer`, prints one
``ready`` line and then answers one JSON command per stdin line with
one JSON reply line.  Commands drive the workload's phases: ``sweep``
(a serial ``run_matrix`` of STSM cells), ``stats``, ``replay`` (the
served batch log through direct ``predict``), ``live_start`` /
``live_wait`` (feed replay, warm refits and blue/green swaps),
``trace`` / ``phase`` / ``layers`` (the traced run) and ``stop``.

Replies go to a private copy of stdout; the program's own output is
sent to stderr so it can never corrupt the protocol.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import sys
import threading
import time
import traceback
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from machine import pin_threads  # noqa: E402

pin_threads()

import numpy as np  # noqa: E402

import repro.data as data  # noqa: E402
import repro.data.synthetic as synthetic  # noqa: E402
from repro.core import STSMConfig, STSMForecaster  # noqa: E402
from repro.data import WindowSpec, temporal_split  # noqa: E402
from repro.engine import ArtifactStore, open_store, reset_store  # noqa: E402
from repro.experiments.configs import get_scale  # noqa: E402
from repro.experiments.runners import run_matrix  # noqa: E402
from repro.serving import ServingRuntime  # noqa: E402
from repro.serving.transport import ForecastHTTPServer  # noqa: E402
from repro.streaming import (  # noqa: E402
    FeedReplayer,
    LiveSwapBridge,
    RefitPolicy,
    RefitScheduler,
    StreamBuffer,
)

from drivers import LIVE_KEY, MODEL_KEY, block_digest  # noqa: E402
from tracer import Tracer  # noqa: E402


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Deployment:
    """Everything the SUT hosts; one ``op_<command>`` method per command."""

    def __init__(self, config: dict) -> None:
        self.config = config
        self.run_dir = Path(config["run_dir"])
        self.tracer = Tracer() if config["trace"] else None
        if self.tracer is not None:
            self.tracer.install()
        self.live_thread: threading.Thread | None = None
        self.live_scheduler: RefitScheduler | None = None
        self.live_error: str | None = None
        self.live_waits: list[float] = []

    # ------------------------------------------------------------------
    # Set-up: datasets, the served model, the server
    # ------------------------------------------------------------------
    def setup(self) -> dict:
        cfg = self.config
        began = time.perf_counter()
        sweep = cfg["sweep"]
        self.sweep_data = synthetic.make_dataset(
            "pems-bay", num_sensors=sweep["sensors"], num_days=sweep["days"],
            seed=sweep["data_seed"],
        )
        self.sweep_splits = [
            data.space_split(self.sweep_data.coords, kind) for kind in sweep["splits"]
        ]
        bench = get_scale("bench")
        self.sweep_scale = dataclasses.replace(
            bench,
            dataset_sizes={"pems-bay": (sweep["sensors"], sweep["days"])},
            split_kinds=tuple(sweep["splits"]),
            stsm={**bench.stsm, "epochs": sweep["epochs"], "patience": sweep["epochs"]},
        )
        serve = cfg["serve"]
        self.serve_data = synthetic.make_dataset(
            "pems-bay", num_sensors=serve["sensors"], num_days=serve["days"],
            seed=serve["data_seed"],
        )
        self.split = data.space_split(self.serve_data.coords, "horizontal")
        data_seconds = time.perf_counter() - began
        # The first STSM fit in a process is slower: pay it here, at the
        # sweep's own configuration, so no timed sweep includes it.
        run_matrix(
            self.sweep_data, "pems-bay", ["STSM"],
            dataclasses.replace(
                self.sweep_scale, stsm={**self.sweep_scale.stsm, "epochs": 1}
            ),
            splits=self.sweep_splits[:1], jobs=1, cache_store=False,
        )
        self.spec = WindowSpec(input_length=8, horizon=8)
        self.model_config = STSMConfig(**serve["model"])
        self.model = STSMForecaster(self.model_config)
        train_ix, _ = temporal_split(self.serve_data.num_steps)
        fit_began = time.perf_counter()
        self.served_checkpoint = self.run_dir / "served-checkpoint"
        self.model.fit(
            self.serve_data, self.split, self.spec, train_ix,
            checkpoint_dir=str(self.served_checkpoint),
        )
        fit_seconds = time.perf_counter() - fit_began

        self.runtime = ServingRuntime(
            deadline_ms=serve["deadline_ms"], max_batch=serve["max_batch"],
            max_queue=4096, cache_size=serve["cache_size"], log_batches=True,
        )
        self.runtime.register(MODEL_KEY, self.model)
        self.server = ForecastHTTPServer(self.runtime).start()
        self.server.set_ready()
        return {
            "event": "ready", "port": self.server.port,
            "data_s": data_seconds, "fit_s": fit_seconds,
        }

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------
    def op_phase(self, name: str) -> dict:
        if self.tracer is not None:
            self.tracer.phase = name
        return {"phase": name}

    def op_trace(self, on: bool) -> dict:
        if self.tracer is not None:
            if on:
                self.tracer.install()
            else:
                self.tracer.uninstall()
        return {"trace": bool(on)}

    def op_sweep(self, cpu: int | None = None) -> dict:
        """One serial STSM sweep over the splits, no store, no serving.

        ``cpu`` pins the sweeping thread to that core for the sweep, where
        the benchmark's speed probe runs beside it; the server's idle
        threads keep their own affinity.
        """
        allowed = os.sched_getaffinity(0)
        cpus = {cpu} if cpu is not None else allowed
        os.sched_setaffinity(0, cpus)
        try:
            began = time.perf_counter()
            matrix = run_matrix(
                self.sweep_data, "pems-bay", ["STSM"], self.sweep_scale,
                splits=self.sweep_splits, seed=self.config["sweep"]["model_seed"],
                jobs=1, cache_store=False,
            )
            seconds = time.perf_counter() - began
        finally:
            os.sched_setaffinity(0, allowed)
        info = matrix["STSM"]
        metrics = info["metrics"]
        flat = {
            "mae": float(metrics.mae),
            "rmse": float(metrics.rmse),
            "histories": [
                [float(x) for x in r.fit_report.history] for r in info["results"]
            ],
        }
        return {
            "seconds": seconds,
            "fit_s": float(sum(r.fit_report.train_seconds for r in info["results"])),
            "cells": len(info["results"]),
            "mae": flat["mae"],
            "rmse": flat["rmse"],
            "digest": hashlib.sha256(
                json.dumps(flat, sort_keys=True).encode()
            ).hexdigest(),
        }

    def op_stats(self) -> dict:
        stats = self.runtime.stats()
        model = stats["models"][MODEL_KEY]
        service = model["service"]
        return {
            "submitted": model["submitted"],
            "completed": model["completed"],
            "failed": model["failed"],
            "rejected": model["rejected"],
            "batches": model["batches"],
            "batched_requests": model["avg_batch_size"] * model["batches"],
            "peak_queue": model["peak_queue_depth"],
            "requests": service["requests"],
            "cache_hits": service["cache_hits"],
            "windows_computed": service["windows_computed"],
        }

    def op_replay(self) -> dict:
        """Replay the served batch log through direct ``predict``.

        Every served block must be bitwise one of these candidates: a
        window computed in several batch compositions has several.
        """
        service = self.runtime.scheduler(MODEL_KEY).service
        candidates: dict[str, list[str]] = {}
        rows = 0
        for batch in list(service.batch_log):
            batch = np.asarray(batch, dtype=int)
            blocks = self.model.predict(batch)
            for start, block in zip(batch, blocks):
                digest = block_digest(block)
                known = candidates.setdefault(str(int(start)), [])
                if digest not in known:
                    known.append(digest)
            rows += len(batch)
        return {"candidates": candidates, "rows": rows}

    def op_live_start(self, seed: int, refits: int, cpu: int | None = None) -> dict:
        """Resume the feed for ``refits`` more refits; returns at once.

        The first call builds the live deployment; every call replays the
        feed from where the last one stopped up to the trigger row of its
        last refit, so the segments together are one live session whose
        feed pauses while the other phases run.  Live reads go to their
        own key, so the swaps never replace the model the serve phase
        checks.  ``cpu`` pins the refit loop to that core, where the
        benchmark's speed probe runs beside it.
        """
        live = self.config["live"]
        if self.live_scheduler is None:
            # Refits share DTW pairs and masked adjacencies through a
            # disk-backed store with a quota, installed as the process
            # store (fits persist to it and collect garbage as they end).
            # It is not handed to the RefitScheduler, whose own persist
            # step cannot run with the program's tracing off.
            self.store = ArtifactStore(
                disk_dir=self.run_dir / "store", max_bytes=live["store_quota"]
            )
            open_store(store=self.store)
            self.policy = RefitPolicy(
                window_steps=live["window_steps"], refit_every=live["refit_every"],
                refit_epochs=live["refit_epochs"], max_refits=live["refits"],
            )
            self.buffer = StreamBuffer(
                self.serve_data,
                max_steps=live["window_steps"] + 2 * live["refit_every"],
            )
            # The first window is history already ingested when the
            # session starts, so refit 0 is due at once.
            self.buffer.append(self.serve_data.values[: live["window_steps"]])
            self.live_scheduler = RefitScheduler(
                self.buffer, self.model_config, self.split, self.spec, self.policy,
                self.run_dir / "refits", warm_start_dir=self.served_checkpoint,
            )
            self.runtime.register(LIVE_KEY, self.model)
            self.bridge = LiveSwapBridge(self.runtime, LIVE_KEY, store=self.store)
        self.segment = range(self.live_scheduler.completed,
                             self.live_scheduler.completed + refits)
        self.replayer = FeedReplayer(
            self.serve_data, self.buffer, speedup=1.0,
            interval_s=live["interval_s"], start_step=self.buffer.watermark,
            stop_step=self.policy.trigger_watermark(self.segment[-1]),
            seed=seed, jitter=0.2,
        )
        self.live_thread = threading.Thread(
            target=self._live_loop, args=(cpu,), name="refit-loop"
        )
        self.replayer.start()
        self.live_thread.start()
        return {"refits": list(self.segment)}

    def _live_loop(self, cpu: int | None) -> None:
        try:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            for index in self.segment:
                target = self.policy.trigger_watermark(index)
                if not self.buffer.wait_for_watermark(target, timeout=120.0):
                    raise RuntimeError(f"watermark {target} never arrived")
                ready = float(self.buffer.arrival_times(target - 1, target)[0])
                self.live_waits.append(time.monotonic() - ready)
                record = self.live_scheduler.run_once(timeout=0)
                self.bridge.deploy(self.live_scheduler.model, record)
        except Exception:  # noqa: BLE001 — reported by live_wait
            self.live_error = traceback.format_exc()

    def op_live_wait(self) -> dict:
        """Wait for the segment's refits; its lags and the session's counters."""
        self.live_thread.join(timeout=150.0)
        if self.live_thread.is_alive():
            raise RuntimeError("refit loop still running after 150 s")
        self.replayer.stop()
        self.replayer.join(timeout=10.0)
        if self.live_error is not None:
            raise RuntimeError(self.live_error)
        self.runtime.drain()
        stats = self.runtime.stats()
        totals = stats["totals"]
        retired = stats.get("swaps", {}).get("retired", {})
        counters = {
            field: totals[field] + retired.get(field, 0)
            for field in ("submitted", "completed", "failed", "rejected")
        }
        first = self.segment[0]
        return {
            "lags_s": [d["refit_lag_seconds"] for d in self.bridge.deploys[first:]],
            "fit_s": [r.fit_seconds for r in self.live_scheduler.records[first:]],
            "waits_s": self.live_waits[first:],
            "warm_started": [r.warm_started for r in self.live_scheduler.records[first:]],
            "swaps": stats.get("swaps", {}).get("count", 0),
            "counters": counters,
        }

    def op_layers(self) -> dict:
        """The traced run's per-layer aggregates; spans go to a file."""
        if self.tracer is None:
            return {}
        report = self.tracer.report()
        report["spans_written"] = self.tracer.write_spans(
            self.run_dir / f"spans-sut-{os.getpid()}.jsonl"
        )
        return report

    def op_stop(self) -> dict:
        self.server.shutdown()
        self.runtime.shutdown()
        if self.live_thread is not None:
            self.replayer.stop()
        reset_store()
        return {"peak_rss_mib": peak_rss_mib()}


def main() -> int:
    config = json.loads(sys.argv[1])
    # Replies get a private copy of stdout; anything the program prints
    # goes to stderr instead.
    replies = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    def reply(payload: dict) -> None:
        replies.write(json.dumps(payload) + "\n")
        replies.flush()

    deployment = Deployment(config)
    reply(deployment.setup())
    for line in sys.stdin:
        command = json.loads(line)
        op = command.pop("op")
        try:
            result = getattr(deployment, f"op_{op}")(**command)
        except Exception:  # noqa: BLE001 — the benchmark reports it
            reply({"error": traceback.format_exc()})
            continue
        reply(result)
        if op == "stop":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
