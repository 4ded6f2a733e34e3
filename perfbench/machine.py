"""Thread pinning and the ``machine`` stanza every perfbench result carries.

:func:`pin_threads` must run before numpy is first imported: OpenBLAS,
OpenMP and MKL read their thread counts once, at load time.  The
benchmark process calls it at the top of ``run.py`` and passes
:func:`child_env` to every process it spawns, so a fit never competes
with its own BLAS threads for the machine's cores.
"""

from __future__ import annotations

import os
import platform
import sys

#: BLAS/OpenMP thread variables pinned to one thread in every process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Program switches that would change what is measured: ``REPRO_OBS``
#: mixes the program's own instrumentation into the timings,
#: ``REPRO_CACHE_DIR`` adds a disk tier outside the checkout, and
#: ``REPRO_BACKEND`` swaps the array backend.
SCRUBBED_PREFIX = "REPRO_"


def pin_threads() -> None:
    """Pin BLAS threads and drop ``REPRO_*`` switches in this process."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads() must run before numpy is imported")
    for name in THREAD_VARS:
        os.environ[name] = "1"
    for name in [n for n in os.environ if n.startswith(SCRUBBED_PREFIX)]:
        del os.environ[name]


def child_env(src_dir: str) -> dict:
    """Environment for a spawned process: pinned, scrubbed, ``src`` importable."""
    env = {
        name: value for name, value in os.environ.items()
        if not name.startswith(SCRUBBED_PREFIX)
    }
    for name in THREAD_VARS:
        env[name] = "1"
    env["PYTHONPATH"] = src_dir
    env["PYTHONHASHSEED"] = "0"
    return env


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def machine_stanza() -> dict:
    """CPU count, BLAS vendor and version, thread environment, versions."""
    import numpy as np

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {}) or {}
    except (TypeError, AttributeError):  # numpy < 1.25 prints only
        pass
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "blas": {
            "name": blas.get("name", "unknown"),
            "version": blas.get("version", "unknown"),
        },
        "threads_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
