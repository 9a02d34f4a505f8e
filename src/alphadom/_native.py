"""The C kernels of ``_native.c``, built on first use: Louvain's local-move
phase (:func:`local_moves`), the greedy fill scan (:func:`fill`), and the
parser of edge lists and weight tables (:func:`ingest`).

The first call of any of them compiles the C file with the system C compiler
(``cc -O2 -shared -fPIC``) into this package's ``__pycache__``, under a name
that carries a hash of the source, the compiler, the flags and the platform
(machine, OS and Python extension suffix), so an edited source is rebuilt
and neither a stale library nor one built for another platform on a shared
checkout is loaded; later calls and processes load that file.  The compiler
writes to a temporary name that is then renamed into place, so processes
building at once do not read half a file.  Without a compiler, or when the
build or the load fails, each of :func:`local_moves`, :func:`fill` and
:func:`ingest` warns once (``RuntimeWarning``, with the reason) and returns
None, as :func:`fill` also does where the compiler has no 128-bit integers,
and :mod:`alphadom.community`, :mod:`alphadom.greedy` and :mod:`alphadom.io`
run the same work in Python, several times slower.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import subprocess
import sys
import sysconfig
import tempfile
import warnings
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_native.c")
COMPILER = "cc"
FLAGS = ("-O2", "-shared", "-fPIC")


def _library() -> Path:
    """Path of the built library, compiling it first if it is not there."""
    build = [COMPILER, *FLAGS, platform.machine(), sys.platform,
             sysconfig.get_config_var("EXT_SUFFIX") or ""]
    tag = hashlib.sha256(SOURCE.read_bytes() + " ".join(build).encode()).hexdigest()[:16]
    target = SOURCE.parent / "__pycache__" / f"{SOURCE.stem}-{tag}.so"
    if not target.exists():
        target.parent.mkdir(exist_ok=True)
        fd, partial = tempfile.mkstemp(suffix=".so", dir=target.parent)
        os.close(fd)
        try:
            subprocess.run([COMPILER, *FLAGS, "-o", partial, str(SOURCE)],
                           check=True, capture_output=True, timeout=120)
            os.replace(partial, target)
        finally:
            if os.path.exists(partial):
                os.remove(partial)
    return target


@functools.cache
def _load(path: Path) -> ctypes.CDLL:
    return ctypes.CDLL(str(path))


def _kernel(name: str, fallback: str):
    """The library's function ``name``, or None when the library cannot be
    built or loaded or lacks it, with the warning "<fallback> could not be
    built or loaded: <reason>"."""
    try:
        return getattr(_load(_library()), name)
    except (OSError, subprocess.SubprocessError, AttributeError) as exc:
        detail = getattr(exc, "stderr", None) or b""
        reason = (detail.decode(errors="replace").strip() or str(exc)).splitlines()[0]
        warnings.warn(f"{fallback} could not be built or loaded: {reason}",
                      RuntimeWarning, stacklevel=3)
        return None


@functools.cache
def local_moves():
    """The C phase as ``run(indptr, indices, weights, strength, two_m) ->
    (community of each vertex as int64, whether anything moved)``, or None
    when it cannot be built or loaded (with a warning that says why).
    ``weights`` holds the integer weight of every CSR entry (all ones at
    Louvain's first level); the caller keeps ``two_m`` at most 2**31."""
    fn = _kernel("alphadom_local_moves",
                 "Louvain local moves run in Python, since the C phase")
    if fn is None:
        return None
    fn.restype = ctypes.c_int64
    fn.argtypes = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                   ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]

    def run(indptr, indices, weights, strength, two_m: int) -> tuple[np.ndarray, bool]:
        indptr, indices, weights, strength = (np.ascontiguousarray(a, dtype=np.int64)
                                              for a in (indptr, indices, weights, strength))
        n = len(strength)
        if len(indptr) != n + 1 or len(weights) != len(indices):
            raise ValueError("the local moves take n + 1 row offsets, n strengths and "
                             "one weight per column index")
        comm = np.empty(n, dtype=np.int64)
        moved = fn(n, indptr.ctypes.data, indices.ctypes.data, weights.ctypes.data,
                   strength.ctypes.data, two_m, comm.ctypes.data)
        if moved < 0:
            raise MemoryError("Louvain local moves: out of memory")
        return comm, bool(moved)

    return run


@functools.cache
def fill():
    """The C fill scan as ``run(indptr, indices, nums, dens, q, demands,
    cover, in_set)``, which updates ``cover`` (int64) and ``in_set`` (uint8)
    in place and returns None, or None when it cannot be built or loaded, or
    the compiler has no 128-bit integers (with a warning that says why)."""
    fn = _kernel("alphadom_fill", "The greedy fill scan runs in Python, since the C scan")
    if fn is None:
        return None
    fn.restype = ctypes.c_int64
    fn.argtypes = [ctypes.c_int64, *[ctypes.c_void_p] * 8]

    def run(indptr, indices, nums, dens, q, demands, cover: np.ndarray,
            in_set: np.ndarray) -> None:
        indptr, indices, nums, dens, demands = (np.ascontiguousarray(a, dtype=np.int64)
                                                for a in (indptr, indices, nums, dens, demands))
        q = np.ascontiguousarray(q, dtype=np.float64)
        n = len(demands)
        if len(indptr) != n + 1 or not len(nums) == len(dens) == len(q) == n or not all(
                a.dtype == dtype and len(a) == n and a.flags.c_contiguous and a.flags.writeable
                for a, dtype in ((cover, np.int64), (in_set, np.uint8))):
            raise ValueError("the fill scan takes n + 1 row offsets, n keys and demands, and "
                             "updates n int64 counts and n uint8 flags in place")
        if fn(n, indptr.ctypes.data, indices.ctypes.data, nums.ctypes.data, dens.ctypes.data,
              q.ctypes.data, demands.ctypes.data, cover.ctypes.data, in_set.ctypes.data) < 0:
            raise MemoryError("greedy fill scan: out of memory")

    return run


@functools.cache
def ingest():
    """The C parse of a weight table and an edge list as ``run(table, edges)
    -> (labels, weights, ends)``, or None when it cannot be built or loaded
    (with a warning that says why).

    ``table`` (or None) and ``edges`` are the files' bytes.  ``labels`` are
    the distinct vertex labels as str, in table order or else in order of
    first appearance, split from the one buffer the kernel writes them to;
    ``weights`` is an int64 array; ``ends`` holds the (m, 2) endpoints of
    the edge lines in file order.  ``run`` returns None when the kernel
    declines the input (see ``alphadom_ingest``), which is then left to the
    Python scanners of :mod:`alphadom.io`.
    """
    fn = _kernel("alphadom_ingest",
                 "Edge lists and weight tables are parsed in Python, since the C parser")
    if fn is None:
        return None
    fn.restype = ctypes.c_int64
    fn.argtypes = [ctypes.c_char_p, ctypes.c_int64, ctypes.c_char_p, ctypes.c_int64,
                   ctypes.c_int64, ctypes.c_int64, *[ctypes.c_void_p] * 4]

    def run(table: bytes | None, edges: bytes):
        text = edges if table is None else table
        # a token and the byte after it take two bytes or more, an edge line four
        max_vertices, max_edges = (len(text) + 1) // 2, (len(edges) + 1) // 4
        weight = np.empty(max_vertices, dtype=np.int64)
        buffer = np.empty(len(text) + 1, dtype=np.uint8)
        ends = np.empty((max_edges, 2), dtype=np.int64)
        counts = np.zeros(3, dtype=np.int64)
        status = fn(table, len(table or b""), edges, len(edges), max_vertices, max_edges,
                    weight.ctypes.data, buffer.ctypes.data, ends.ctypes.data,
                    counts.ctypes.data)
        if status == -1:
            raise MemoryError("ingest parser: out of memory")
        if status < 0:
            raise RuntimeError("ingest parser: more vertices or edges than there was room for")
        if status > 0:
            return None
        n, m, size = counts.tolist()
        return buffer[:size].tobytes().decode("ascii").split(), weight[:n], ends[:m]

    return run
