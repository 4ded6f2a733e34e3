"""Per-layer timing installed from outside the program.

A :class:`Tracer` wraps public callables of the program's modules
(class methods and module functions) and the active array backend.
Each wrapped call records a span: id, parent span, name, phase, start,
end and the request id of the calling thread.  Spans stay in memory,
one list per thread, and :meth:`Tracer.write_spans` writes them out when
the run ends.  Array-backend ops are far too many for one span each, so
they are only aggregated (calls, seconds).

Aggregates are kept per ``(phase, layer)``: calls, total seconds, self
seconds and work units.  A call's self time is its duration minus the
durations of the wrapped calls nested inside it on the same thread, so
``nn.forward`` self time excludes the backend ops it issued.

Nothing is wrapped until :meth:`Tracer.install`, and
:meth:`Tracer.uninstall` restores every original attribute, so an
untraced run executes the program's own code only.
"""

from __future__ import annotations

import itertools
import json
import threading
import time

import numpy as np

perf = time.perf_counter

_MISSING = object()


class _ThreadState:
    __slots__ = ("name", "stack", "agg", "spans", "samples", "rid")

    def __init__(self, name: str) -> None:
        self.name = name
        self.stack: list[list] = []  # [span id, child seconds]
        self.agg: dict[tuple, list] = {}  # (phase, layer) -> [calls, s, self s, units]
        self.spans: list[tuple] = []
        self.samples: dict[tuple, list] = {}
        self.rid = None


class Tracer:
    """Span recorder and the wrappers that feed it."""

    def __init__(self) -> None:
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []
        self._backend = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def request(self, rid) -> None:
        """Tag spans this thread records from now on with request ``rid``."""
        self._state().rid = rid

    def sample(self, name: str, value: float) -> None:
        """Record one observation of a distribution (e.g. server latency)."""
        state = self._state()
        state.samples.setdefault((self.phase, name), []).append(value)

    def count(self, name: str, units: int = 1) -> None:
        """Add ``units`` to a count-only layer."""
        agg = self._state().agg.setdefault((self.phase, name), [0, 0.0, 0.0, 0])
        agg[0] += 1
        agg[3] += units

    def timed(self, name: str, fn, *, spans: bool = True, units=None):
        """Wrap ``fn`` so each call is timed as layer ``name``.

        ``units(args, kwargs)`` optionally counts work per call (e.g.
        windows per predict).
        """
        tracer = self

        def wrapper(*args, **kwargs):
            state = tracer._state()
            frame = [next(tracer._ids), 0.0]
            stack = state.stack
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            began = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = perf()
                stack.pop()
                seconds = ended - began
                if stack:
                    stack[-1][1] += seconds
                phase = tracer.phase
                agg = state.agg.get((phase, name))
                if agg is None:
                    agg = state.agg[(phase, name)] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += seconds
                agg[2] += seconds - frame[1]
                if units is not None:
                    agg[3] += units(args, kwargs)
                if spans:
                    state.spans.append(
                        (frame[0], parent, name, phase, began, ended, state.rid)
                    )

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr``; :meth:`uninstall` puts the original back."""
        own = vars(owner)
        self._patches.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, **options) -> None:
        self.patch(owner, attr, self.timed(name, getattr(owner, attr), **options))

    def install(self, *, client_only: bool = False) -> None:
        """Wrap the program's layers (only the codec with ``client_only``)."""
        if self._patches:
            return
        from repro.serving.transport import codec

        self.wrap(codec, "encode_request", "serving.codec.encode")
        self.wrap(codec, "decode_array", "serving.codec.decode")
        if client_only:
            return
        self._install_server_layers(codec)
        self._install_compute_layers()

    def _install_server_layers(self, codec) -> None:
        from repro.serving.runtime import ServingRuntime
        from repro.serving.scheduler import AsyncForecast

        self.wrap(codec, "encode_array", "serving.codec.encode")
        decode_meta = self.timed("serving.codec.decode", codec.decode_request_meta)
        request_ids = itertools.count(1)
        tracer = self

        def decode_request_meta(body):
            # The HTTP handler decodes first: every span its thread
            # records until the next request belongs to this one.
            tracer.request(f"s{next(request_ids)}")
            return decode_meta(body)

        self.patch(codec, "decode_request_meta", decode_request_meta)

        submit = self.timed("serving.runtime.submit", ServingRuntime.submit)

        def timed_submit(runtime, key, start, trace=None):
            began = perf()
            handle = submit(runtime, key, start, trace)
            handle.perfbench_submitted = began
            return handle

        result = AsyncForecast.result

        def timed_result(handle, timeout=None):
            try:
                return result(handle, timeout)
            finally:
                began = getattr(handle, "perfbench_submitted", None)
                if began is not None:
                    tracer.sample("serving.runtime.server_ms", (perf() - began) * 1e3)

        self.patch(ServingRuntime, "submit", timed_submit)
        self.patch(AsyncForecast, "result", timed_result)

    def _install_compute_layers(self) -> None:
        import repro.data as data
        import repro.data.synthetic as synthetic
        from repro.autograd.tensor import Tensor
        from repro.backend import get_backend, set_backend
        from repro.core.masking import SelectiveMasker
        from repro.core.model import STSMForecaster, _STSMProgram
        from repro.core.network import STSMNetwork
        from repro.engine.cache import PairwiseDTWCache
        from repro.engine.store import ArtifactStore
        from repro.engine.trainer import TrainingProgram
        from repro.optim.optimizers import SGD, Adam
        from repro.streaming import LiveSwapBridge, RefitScheduler, StreamBuffer

        self.wrap(synthetic, "make_dataset", "data.build")
        self.wrap(data, "space_split", "data.build")
        self.wrap(PairwiseDTWCache, "distance_matrix", "temporal.dtw")
        self.wrap(SelectiveMasker, "draw", "core.mask_draw")
        self.wrap(
            STSMForecaster, "predict", "core.predict",
            units=lambda args, kwargs: len(args[1]),
        )
        self.wrap(STSMNetwork, "__call__", "nn.forward")
        self.wrap(Tensor, "backward", "autograd.backward")
        self.wrap(Adam, "step", "optim.step")
        self.wrap(SGD, "step", "optim.step")
        self.wrap(TrainingProgram, "run_epoch", "engine.trainer.epoch")
        self.wrap(_STSMProgram, "validation_score", "engine.trainer.validate")
        self.wrap(ArtifactStore, "put", "engine.store.put")
        self.wrap(ArtifactStore, "persist", "engine.store.persist")
        self.wrap(ArtifactStore, "gc", "engine.store.gc")
        self.wrap(StreamBuffer, "append", "streaming.buffer.append")
        self.wrap(RefitScheduler, "run_once", "streaming.refit.fit")
        self.wrap(LiveSwapBridge, "deploy", "streaming.bridge.deploy")

        get = self.timed("engine.store.get", ArtifactStore.get)
        tracer = self

        def store_get(store, namespace, key, default=None):
            value = get(store, namespace, key, _MISSING)
            if value is _MISSING:
                return default
            tracer.count("engine.store.hit")
            return value

        self.patch(ArtifactStore, "get", store_get)

        self._backend = (get_backend(), set_backend)
        set_backend(TimedBackend(get_backend(), self))

    def uninstall(self) -> None:
        """Restore every wrapped attribute and the original backend."""
        if self._backend is not None:
            original, set_backend = self._backend
            set_backend(original)
            self._backend = None
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> dict:
        """``{phase: {layer: {calls, seconds, self_seconds, units}}}`` plus
        distribution summaries under ``samples``."""
        with self._lock:
            threads = list(self._threads)
        layers: dict = {}
        samples: dict = {}
        for state in threads:
            for (phase, name), (calls, seconds, own, units) in list(state.agg.items()):
                entry = layers.setdefault(phase, {}).setdefault(
                    name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "units": 0}
                )
                entry["calls"] += calls
                entry["seconds"] += seconds
                entry["self_seconds"] += own
                entry["units"] += units
            for key, values in list(state.samples.items()):
                samples.setdefault(key, []).extend(values)
        summaries: dict = {}
        for (phase, name), values in samples.items():
            arr = np.asarray(values, dtype=float)
            summaries.setdefault(phase, {})[name] = {
                "count": int(arr.size),
                "mean": float(arr.mean()),
                "p50": float(np.percentile(arr, 50)),
                "p99": float(np.percentile(arr, 99)),
            }
        return {"layers": layers, "samples": summaries, "spans": self.span_count()}

    def span_count(self) -> int:
        with self._lock:
            return sum(len(state.spans) for state in self._threads)

    def write_spans(self, path) -> int:
        """Write every recorded span as one JSON line; returns the count."""
        with self._lock:
            threads = list(self._threads)
        written = 0
        with open(path, "w", encoding="utf-8") as out:
            for state in threads:
                for span_id, parent, name, phase, began, ended, rid in state.spans:
                    out.write(json.dumps({
                        "id": span_id, "parent": parent, "name": name,
                        "phase": phase, "start": began, "end": ended,
                        "request": rid, "thread": state.name,
                    }) + "\n")
                    written += 1
        return written


class TimedBackend:
    """Attribute-forwarding proxy timing every array-backend op.

    Callables are wrapped on first access and cached on the proxy, so
    later lookups skip ``__getattr__``; ``configured()`` results are
    proxied too.  Results pass through untouched.
    """

    def __init__(self, backend, tracer: Tracer) -> None:
        self._perfbench_backend = backend
        self._perfbench_tracer = tracer

    def __getattr__(self, name: str):
        value = getattr(self._perfbench_backend, name)
        if not callable(value):
            return value
        tracer = self._perfbench_tracer
        if name == "configured":
            def wrapper(*args, **kwargs):
                return TimedBackend(value(*args, **kwargs), tracer)
        else:
            wrapper = tracer.timed(f"backend.{name}", value, spans=False)
        setattr(self, name, wrapper)
        return wrapper
