"""Pin the BLAS numpy loaded to the calling thread.

OpenBLAS starts a pool of worker threads the first time a GEMM is big
enough to split, and between calls those workers spin-wait for the next
one.  The serve path's GEMMs (the mel projection of a flush's frames,
the int8 classifier over one micro-batch) are far too small to gain
from splitting, so on a loaded edge box the pool only burns CPU: on the
2-vCPU reference host the spinning worker was more than half of the
daemon's CPU per served window.  The serving runtime already owns the
process's parallelism (event loop, one serve worker, later process
shards), so :class:`~repro.serve.runtime.AffectServer` pins BLAS to one
thread as a fixed policy.

Stdlib + ``ctypes`` only: the library is found among the process's
mappings (``/proc/self/maps``, falling back to the ``numpy.libs/``
directory wheels bundle it in) and opened with ``RTLD_NOLOAD``, so a
library that is not already loaded is never loaded by this module.
Without OpenBLAS (another BLAS, or a platform without ``RTLD_NOLOAD``)
or without a known thread-count symbol, nothing happens and the count
is reported as unknown (``None``).
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path

#: ``(set, get)`` thread-count symbol pairs, in lookup order: the plain
#: OpenBLAS names, then the prefixed/suffixed ones of the
#: ``scipy-openblas`` builds numpy and scipy wheels bundle.
SYMBOLS = (
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


def mapped_openblas(maps: Path = Path("/proc/self/maps")) -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process.

    Reads the process's memory map; where there is none (not Linux),
    falls back to the libraries in numpy's bundled ``numpy.libs/``
    (only those already loaded will open, see :func:`limit_threads`).
    """
    try:
        text = maps.read_text()
    except OSError:
        import numpy

        libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
        return sorted(str(p) for p in libs.glob("*openblas*"))
    paths: list[str] = []
    for line in text.splitlines():
        path = line.split(maxsplit=5)[5:]
        if path and "openblas" in Path(path[0]).name and path[0] not in paths:
            paths.append(path[0])
    return paths


def _open_loaded(path: str) -> ctypes.CDLL | None:
    """``path`` as a ctypes handle if it is already loaded, else None."""
    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:
        return None
    try:
        return ctypes.CDLL(path, mode=noload)
    except OSError:
        return None


def limit_threads(threads: int = 1) -> int | None:
    """Cap every loaded OpenBLAS at ``threads``; the count read back.

    Safe to call any number of times.  Returns the largest count the
    pinned libraries report, or ``None`` when no OpenBLAS with a known
    thread-count symbol is loaded (nothing was changed).
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    counts: list[int] = []
    for path in mapped_openblas():
        lib = _open_loaded(path)
        if lib is None:
            continue
        for set_name, get_name in SYMBOLS:
            try:
                set_fn = getattr(lib, set_name)
                get_fn = getattr(lib, get_name)
            except AttributeError:
                continue
            set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
            get_fn.argtypes, get_fn.restype = [], ctypes.c_int
            set_fn(threads)
            counts.append(int(get_fn()))
            break
    return max(counts) if counts else None
