"""Settings pinned for every run, and the environment record written
beside every result.

``pin`` must run before numpy is imported: BLAS reads its thread settings
once, at load time. glibc reads ``MALLOC_ARENA_MAX`` at process start, so a
process that did not have it must restart.
"""

from __future__ import annotations

import os
import platform
import sys

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PINNED_VARS = BLAS_THREAD_VARS + ("DWSPECTRAL_THREADS", "MALLOC_ARENA_MAX")


def pin(harness_threads: int) -> bool:
    """Pin BLAS to one thread, the sweep pool to ``harness_threads`` and
    malloc to one arena; returns True when the process must restart for the
    arena setting to apply.

    With one arena per thread, peak RSS depended on which arena a new sweep
    pool thread happened to get: the same run read 91 or 106 MB.
    """
    restart = os.environ.get("MALLOC_ARENA_MAX") != "1"
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["DWSPECTRAL_THREADS"] = str(harness_threads)
    os.environ["MALLOC_ARENA_MAX"] = "1"
    return restart


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return {"name": "unknown", "version": "unknown"}
    blas = deps.get("blas", {})
    return {
        "name": blas.get("name", "unknown"),
        "version": blas.get("version", "unknown"),
        "config": blas.get("openblas configuration", ""),
    }


def environment() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "settings": {var: os.environ.get(var) for var in PINNED_VARS},
    }
