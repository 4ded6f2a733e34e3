"""How fast the core running a timed phase was, measured while the phase ran.

On a shared host, co-tenants slow a core by up to 1.7x for minutes at a
time, far longer than one benchmark run; ``run.py`` therefore rescales
the sweep's wall time by the speed of the core it ran on.  The speed
probe measures that speed: a process of its own, pinned to the same
core as the timed thread, wakes about every ``PROBE_PERIOD_S`` and
times one round of a fixed reference kernel.  The kernel uses numpy and
the interpreter the way an STSM fit does (small matmuls, element-wise
maps, reductions, dict and loop overhead) and nothing from the program,
so a change to the program cannot move it.  Being another process, it
shares the core with the timed thread through the OS scheduler, not
through an interpreter lock: each round takes about a millisecond of
the core, a small fixed share (about 3%) of the timed phase.

The probe process (``python3 perfbench/speed.py``) reads one command a
line: ``on <cpu>`` pins it to ``cpu`` and starts sampling, ``off`` stops
and replies with the round times as a JSON list.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

#: Seconds between probe rounds.
PROBE_PERIOD_S = 0.03
#: Kernel iterations per probe round (about 1 ms on the reference machine).
PROBE_ITERATIONS = 40
#: Median seconds of one probe round on the reference machine (2-vCPU
#: VM at 2.0 GHz, Python 3.11, numpy 2.4, scipy-openblas 0.3.31) with its
#: cores uncontended.  Rescaled times are seconds on that machine.
REFERENCE_ROUND_S = 0.001


def probe_loop() -> int:
    """The probe process: sample while on, reply with the samples when off."""
    import numpy as np

    x0 = np.linspace(-1.0, 1.0, 384 * 12).reshape(384, 12)
    w = np.linspace(-0.5, 0.5, 144).reshape(12, 12)

    def probe_round() -> float:
        began = time.perf_counter()
        x = x0
        for i in range(PROBE_ITERATIONS):
            h = np.tanh(x @ w)
            x = x0 + 0.5 * h
            state = {"step": i, "loss": float(h.sum())}
            state["loss"] += state["step"]
        return time.perf_counter() - began

    def reply(payload) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    samples: list[float] | None = None
    reply("ready")
    while True:
        wait = PROBE_PERIOD_S if samples is not None else None
        ready, _, _ = select.select([sys.stdin], [], [], wait)
        if not ready:
            samples.append(probe_round())
            continue
        command = sys.stdin.readline().split()
        if not command:
            return 0
        if command[0] == "on":
            os.sched_setaffinity(0, {int(command[1])})
            samples = []
            reply("on")
        elif command[0] == "off":
            reply(samples or [])
            samples = None


class SpeedProbe:
    """The benchmark's handle on one probe process."""

    def __init__(self, env: dict, *, timeout: float = 60.0) -> None:
        self.timeout = timeout
        self.process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )
        self._call(None)

    def _call(self, command: str | None):
        if command is not None:
            self.process.stdin.write(command + "\n")
            self.process.stdin.flush()
        ready, _, _ = select.select([self.process.stdout], [], [], self.timeout)
        line = self.process.stdout.readline() if ready else ""
        if not line:
            self.close()
            raise RuntimeError("the speed probe stopped answering")
        return json.loads(line)

    @contextmanager
    def measuring(self, cpu: int):
        """Probe ``cpu`` for the ``with`` block; the yielded list fills at its end."""
        samples: list[float] = []
        self._call(f"on {cpu}")
        try:
            yield samples
        finally:
            samples.extend(self._call("off"))

    def close(self) -> None:
        if self.process.poll() is None:
            try:
                self.process.stdin.close()
                self.process.wait(timeout=10.0)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait(timeout=10.0)


def slowdown(samples: list[float]) -> float:
    """How much slower than the reference machine the probed core ran."""
    if not samples:
        raise ValueError("the speed probe took no samples")
    return statistics.median(samples) / REFERENCE_ROUND_S


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from machine import pin_threads

    pin_threads()
    sys.exit(probe_loop())
