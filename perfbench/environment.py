"""Run record: the machine and software a result was measured on.

The reference kernel is a fixed amount of numpy work of the kind the
simulator does (categorical draws, normals, medians, a small matmul).
Timed at the start and end of each run, it shows machine-speed drift
next to every comparison.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import time
from pathlib import Path

from benchstats import median

REFERENCE_REPEATS = 5
REFERENCE_DRAWS = 40


def reference_kernel_ms() -> float:
    import numpy as np

    rng = np.random.default_rng(20211210)
    probs = np.full(12, 1.0 / 12.0)
    matrix = rng.standard_normal((160, 160))
    samples = []
    for _ in range(REFERENCE_REPEATS):
        t0 = time.perf_counter()
        for _ in range(REFERENCE_DRAWS):
            categories = rng.choice(12, size=2000, p=probs)
            noise = rng.normal(0.0, 1.0, 2000)
            np.median(categories + noise)
        for _ in range(4):
            matrix = np.tanh(matrix @ matrix.T / 160.0)
        samples.append(time.perf_counter() - t0)
    return median(samples) * 1e3


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads(np) -> int | None:
    """Threads numpy's bundled OpenBLAS will use, when it can be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path) -> str | None:
    """HEAD's commit from a .git directory, without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def describe() -> dict:
    import numpy as np

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(np),
        "blas_env": {name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": _git_commit(Path.cwd()),
    }
