"""Environment block printed with every benchmark result.

A timing is only comparable with another taken under the same CPU
count, affinity, BLAS/OpenMP thread settings, library versions and code
revision, so every result carries them.
"""

from __future__ import annotations

import os
import platform
import subprocess

#: thread variables the benchmark pins before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def pin_threads() -> None:
    """One BLAS/OpenMP thread per process (call before importing numpy)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _git_revision(root) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=5
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return {}
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def environment(root) -> dict:
    """Facts about the machine and the software the run used."""
    import numpy as np
    import scipy

    from repro.tuning import machine_fingerprint

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_rev": _git_revision(root),
        "machine_fingerprint": machine_fingerprint(),
    }
