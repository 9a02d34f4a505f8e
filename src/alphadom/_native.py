"""Louvain's local-move phase in C (``_localmoves.c``), built on first use.

The first call of :func:`local_moves` compiles the C file with the system C
compiler (``cc -O2 -shared -fPIC``) into this package's ``__pycache__``, under
a name that carries a hash of the source, the compiler, the flags and the
platform (machine, OS and Python extension suffix), so an edited source is
rebuilt and neither a stale library nor one built for another platform on a
shared checkout is loaded; later calls and processes load that file.  The
compiler writes to a temporary name that is then renamed into place, so
processes building at once do not read half a file.  Without a compiler, or
when the build or the load fails, :func:`local_moves` warns once
(``RuntimeWarning``, with the reason) and returns None, and
:mod:`alphadom.community` runs the same phase in Python, several times slower.
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

SOURCE = Path(__file__).with_name("_localmoves.c")
COMPILER = "cc"
FLAGS = ("-O2", "-shared", "-fPIC")


def _library() -> Path:
    """Path of the built library, compiling it first if it is not there."""
    build = [COMPILER, *FLAGS, platform.machine(), sys.platform,
             sysconfig.get_config_var("EXT_SUFFIX") or ""]
    tag = hashlib.sha256(SOURCE.read_bytes() + " ".join(build).encode()).hexdigest()[:16]
    target = SOURCE.parent / "__pycache__" / f"_localmoves-{tag}.so"
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
def local_moves():
    """The C phase as ``run(indptr, indices, weights, strength, two_m) ->
    (community of each vertex, whether anything moved)``, or None when it
    cannot be built or loaded (with a warning that says why).  ``weights``
    is None for unit weights; the caller keeps ``two_m`` at most 2**31."""
    try:
        fn = ctypes.CDLL(str(_library())).alphadom_local_moves
    except (OSError, subprocess.SubprocessError) as exc:
        detail = getattr(exc, "stderr", None) or b""
        reason = (detail.decode(errors="replace").strip() or str(exc)).splitlines()[0]
        warnings.warn(f"Louvain local moves run in Python, since the C phase could not be "
                      f"built or loaded: {reason}", RuntimeWarning, stacklevel=2)
        return None
    fn.restype = ctypes.c_int64
    fn.argtypes = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                   ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]

    def run(indptr, indices, weights, strength, two_m: int) -> tuple[list[int], bool]:
        indptr, indices, strength = (np.ascontiguousarray(a, dtype=np.int64)
                                     for a in (indptr, indices, strength))
        if weights is not None:
            weights = np.ascontiguousarray(weights, dtype=np.int64)
        comm = np.empty(len(strength), dtype=np.int64)
        moved = fn(len(strength), indptr.ctypes.data, indices.ctypes.data,
                   None if weights is None else weights.ctypes.data,
                   strength.ctypes.data, two_m, comm.ctypes.data)
        if moved < 0:
            raise MemoryError("Louvain local moves: out of memory")
        return comm.tolist(), bool(moved)

    return run
