"""Machine record written next to every result: where the numbers were
measured, and what the measurement cannot see."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

LIMITS = (
    "Data files are read from a warm page cache: the caches are not dropped "
    "between commands, because dropping them needs machine-wide privileges.",
    "No machine-wide tracing and no cgroup controls are used; timings are wall "
    "clock around each child process, spans come from wrappers inside the child.",
    "ru_maxrss is the peak resident set of one child process (os.wait4), not of "
    "the whole benchmark.",
    "The BLAS pool size is set through OMP/OPENBLAS/MKL_NUM_THREADS in each "
    "child's environment as well as --threads: importing okr loads numpy before "
    "the CLI reads --threads, and threadpoolctl is not installed, so --threads "
    "alone does not resize the pool.",
    "The machine may be shared with other work; nothing else is started during a run.",
    "On a virtual machine whose host is shared, the speed of the whole run can "
    "move by 10-30% from one minute to the next, most for commands that spend "
    "their time in interpreter start-up and text parsing; the medians of one run "
    "cannot average that out, so compare runs in sets, not one against one.",
)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    """Cache sizes of cpu0 by level (L1 data/instruction merged per level)."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        key = f"L{level}" if kind == "Unified" else f"L{level}{kind[0].lower()}"
        sizes[key] = size
    return sizes


def _blas() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {lib: {k: deps[lib].get(k) for k in ("name", "version", "openblas configuration")}
            for lib in ("blas", "lapack") if lib in deps}


def record(threads: int) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(),
        "threads": threads,
        "limits": list(LIMITS),
    }
