"""Machine facts recorded with every result: interpreter, numpy, BLAS and
its thread count, cores, cache sizes and the size of the program source."""

from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy as np

# Thread-count queries of the BLAS builds numpy ships with or links to.
_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
                   "openblas_get_num_threads", "MKL_Get_Max_Threads")


def _blas_info() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def blas_threads():
    """Thread count reported by the loaded BLAS library, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh
                     if "blas" in line.lower() or "mkl" in line.lower()}
    except OSError:
        return None
    for path in sorted(p for p in paths if p.startswith("/")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_QUERIES:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def cache_sizes() -> dict:
    """Per-core cache sizes by level, as the kernel reports them."""
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type"), encoding="utf-8") as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def source_lines(root: str) -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(root, "src", "**", "*.py"),
                                 recursive=True)):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def machine_facts(root: str, pinned_threads: int) -> dict:
    blas = _blas_info()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas["name"],
        "blas_version": blas["version"],
        "blas_threads_pinned": pinned_threads,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "src_lines": source_lines(root),
    }
