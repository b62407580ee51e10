"""Process environment of a benchmark run: thread pinning, source path, record.

``pin_threads`` must run before numpy is imported anywhere in the process:
OpenBLAS and OpenMP read their thread counts once, at load time.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> None:
    """Set every BLAS/OpenMP thread variable to one thread.

    At these matrix sizes (up to 256 x 256 dense) a second thread barely
    helps, and one thread keeps results bit-stable and leaves the other
    cores to the rest of the machine.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_source_tree() -> None:
    """Import dlgibbs from this checkout's src/, never from site-packages."""
    if not (SRC / "dlgibbs" / "__init__.py").is_file():
        raise SystemExit(f"error: no dlgibbs sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dlgibbs

    if Path(dlgibbs.__file__).resolve().parent != SRC / "dlgibbs":
        raise SystemExit(f"error: dlgibbs imported from {dlgibbs.__file__}, not {SRC}")


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_digest() -> str:
    """sha256 over src/dlgibbs/*.py, identifying the code under test."""
    h = hashlib.sha256()
    for path in sorted((SRC / "dlgibbs").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def record() -> dict:
    """nproc, interpreter and library versions, BLAS build, thread variables, commit."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": src_digest(),
    }
