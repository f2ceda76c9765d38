"""BLAS thread pinning and the environment record printed with every result.

NumPy here links an OpenBLAS built with MAX_THREADS=64; left alone it sizes
its thread pool from the machine, so a daemon process could run more BLAS
threads than there are cores while the load generator competes for them.
:func:`pin_blas` must run before NumPy is first imported, in every process
the benchmark starts (the daemon launcher calls it too).
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path
from typing import Dict, Optional

#: BLAS threads in every benchmark process.
BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas() -> None:
    """Pin the BLAS thread count in this process and the ones it starts."""
    for name in _BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)


def blas_threads() -> Optional[int]:
    """The thread count the loaded OpenBLAS reports, or None if unknown."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libraries = sorted(
        {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    )
    for library in libraries:
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git.

    Benchmark checkouts are usually not git repositories; then "unknown".
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def describe(root: Path) -> Dict[str, object]:
    """Git sha, interpreter, NumPy/OpenBLAS versions, CPUs and BLAS threads."""
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "blas_threads_pinned": BLAS_THREADS,
    }
