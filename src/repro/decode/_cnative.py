"""Lazy build + ctypes bindings for the compiled decoder kernels.

The ``cnative`` array backend (see :mod:`repro.decode.backend`) calls
the C routines in ``_zigzag_kernels.c``.  The shared library is built
on first use with the system C compiler into a per-process temporary
directory — no build step, no packaging hook, and no hard dependency:
when no working compiler is present the backend simply reports itself
unavailable (with the captured reason) and everything else falls back
to the numpy backend.

The compile is attempted once per process and memoised, including the
failure reason, so repeated probes are free.
"""

from __future__ import annotations

import atexit
import ctypes
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Optional

import numpy as np

_SOURCE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "_zigzag_kernels.c"
)

#: Memoised load state: None = not tried, (lib, None) = loaded,
#: (None, reason) = unavailable.
_STATE: Optional[tuple] = None

_I8 = ctypes.POINTER(ctypes.c_int8)
_U8 = ctypes.POINTER(ctypes.c_uint8)
_F64 = ctypes.POINTER(ctypes.c_double)
_I32 = ctypes.POINTER(ctypes.c_int32)
_I64 = ctypes.POINTER(ctypes.c_int64)


def _compiler() -> Optional[str]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _compile() -> tuple:
    cc = _compiler()
    if cc is None:
        return None, "no C compiler found (set $CC to override)"
    if not os.path.exists(_SOURCE):
        return None, f"kernel source missing: {_SOURCE}"
    build_dir = tempfile.mkdtemp(prefix="repro-kernels-")
    atexit.register(shutil.rmtree, build_dir, ignore_errors=True)
    suffix = ".dylib" if sys.platform == "darwin" else ".so"
    lib_path = os.path.join(build_dir, "zigzag_kernels" + suffix)
    base = [cc, "-O3", "-fPIC", "-shared", _SOURCE, "-o", lib_path]
    # -march=native maximises the vectorized row loops but is not
    # universally supported; retry plain if it is rejected.  No OpenMP:
    # a thread pool in a process that later forks leaves the children
    # blocked in it, and worker processes are the parallelism layer.
    attempts = (base[:1] + ["-march=native"] + base[1:], base)
    err = ""
    for cmd in attempts:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
        if proc.returncode == 0 and os.path.exists(lib_path):
            try:
                return ctypes.CDLL(lib_path), None
            except OSError as exc:  # built but not loadable
                err = str(exc)
                continue
        err = (proc.stderr or proc.stdout).strip()
    return None, f"kernel compile failed with {cc}: {err[:500]}"


def load() -> tuple:
    """Return ``(lib, reason)``: the loaded CDLL or the failure reason."""
    global _STATE
    if _STATE is None:
        _STATE = _compile()
        lib = _STATE[0]
        if lib is not None:
            lib.segment_min_scan.restype = None
            lib.segment_min_scan.argtypes = [
                _I8, ctypes.c_int64, ctypes.c_int64,
                _I64, ctypes.c_int64, _I8, _I8, _I64,
            ]
            lib.zigzag_forward_scan.restype = None
            lib.zigzag_forward_scan.argtypes = [
                _I8, _U8, _I8, _I8,
                ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                ctypes.c_int64, _I8, _I8, _I8, _U8,
            ]
            lib.quantize_llrs.restype = ctypes.c_int
            lib.quantize_llrs.argtypes = [
                _F64, ctypes.c_int64, ctypes.c_double, ctypes.c_double,
                ctypes.c_int64, _I8,
            ]
            lib.zigzag_workspace_bytes.restype = ctypes.c_int64
            lib.zigzag_workspace_bytes.argtypes = [ctypes.c_int64] * 4
            lib.zigzag_decode.restype = None
            lib.zigzag_decode.argtypes = [
                _I8, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                ctypes.c_int64, ctypes.c_int64,
                _I32, _I32, _I32, _I32,
                ctypes.c_int64, ctypes.c_int64,
                _I64, ctypes.c_int, ctypes.c_void_p,
                _U8, _U8, _I64,
            ]
    return _STATE


def available() -> bool:
    return load()[0] is not None


def unavailable_reason() -> Optional[str]:
    return load()[1]


def _ptr(arr: np.ndarray, ctype):
    return arr.ctypes.data_as(ctypes.POINTER(ctype))


def segment_min_scan(
    mags: np.ndarray, starts: np.ndarray
) -> tuple:
    """Fused per-segment (min1, min2, argmin) in one C sweep."""
    lib, reason = load()
    if lib is None:  # pragma: no cover - guarded by the backend
        raise RuntimeError(reason)
    m, n_edges = mags.shape
    n_segs = starts.shape[0]
    min1 = np.empty((m, n_segs), dtype=np.int8)
    min2 = np.empty((m, n_segs), dtype=np.int8)
    argmin = np.empty((m, n_segs), dtype=np.int64)
    lib.segment_min_scan(
        _ptr(mags, ctypes.c_int8), m, n_edges,
        _ptr(starts, ctypes.c_int64), n_segs,
        _ptr(min1, ctypes.c_int8), _ptr(min2, ctypes.c_int8),
        _ptr(argmin, ctypes.c_int64),
    )
    return min1, min2, argmin


def zigzag_forward_scan(
    n1: np.ndarray,
    parity_neg: np.ndarray,
    ch_pn: np.ndarray,
    f_old: np.ndarray,
    seg: int,
    mi: int,
    lut: np.ndarray,
    f: np.ndarray,
    a_norm: np.ndarray,
    a_neg: np.ndarray,
) -> None:
    lib, reason = load()
    if lib is None:  # pragma: no cover - guarded by the backend
        raise RuntimeError(reason)
    m, n_par = n1.shape
    lib.zigzag_forward_scan(
        _ptr(n1, ctypes.c_int8), _ptr(parity_neg, ctypes.c_uint8),
        _ptr(ch_pn, ctypes.c_int8), _ptr(f_old, ctypes.c_int8),
        m, n_par, seg, mi, _ptr(lut, ctypes.c_int8),
        _ptr(f, ctypes.c_int8), _ptr(a_norm, ctypes.c_int8),
        _ptr(a_neg, ctypes.c_uint8),
    )


def find_mulshift(lut: np.ndarray, max_int: int) -> Optional[tuple]:
    """Exact integer multiply-shift reproducing ``lut[m] == floor(alpha*m)``.

    The decode kernel applies magnitude normalization as
    ``(mult * m) >> shift`` so its SIMD lanes never gather from a table.
    This searches for the ``(mult, shift)`` pair with the smallest shift
    that matches the decoder's LUT on every representable magnitude
    ``0..max_int``;
    returns ``None`` when no pair reproduces it (the backend then falls
    back to the numpy path for that decoder).
    """
    want = lut[: max_int + 1].astype(np.int64)
    if want[0] != 0:
        return None
    mags = np.arange(1, max_int + 1, dtype=np.int64)
    vals = want[1:]
    for shift in range(0, 25):
        # floor(mult*m / 2^shift) == vals[m] for every m constrains
        # mult to [ceil(vals*2^s / m), ceil((vals+1)*2^s / m) - 1];
        # intersect the per-magnitude intervals.
        lo = int(np.max(-((-vals << shift) // mags)))
        hi = int(np.min(-((-(vals + 1) << shift) // mags) - 1))
        if lo <= hi:
            mult = lo
            if np.all((mult * mags) >> shift == vals):
                return mult, shift
    return None


def quantize_llrs(
    llrs: np.ndarray, gain: float, lsb: float, mi: int
) -> np.ndarray:
    """``clip(round(llrs * gain / lsb), +-mi)`` as int8, in one C pass.

    The same arithmetic as ``FixedPointFormat.quantize(llrs * gain)``:
    round half to even, and non-finite scaled LLRs raise.
    """
    lib, reason = load()
    if lib is None:  # pragma: no cover - guarded by the backend
        raise RuntimeError(reason)
    llrs = np.ascontiguousarray(llrs, dtype=np.float64)
    out = np.empty(llrs.shape, dtype=np.int8)
    if lib.quantize_llrs(
        _ptr(llrs, ctypes.c_double), llrs.size, float(gain),
        1.0 / lsb, mi, _ptr(out, ctypes.c_int8),
    ):
        raise ValueError(
            "channel LLRs must be finite; got NaN or infinity "
            "(int conversion would silently wrap)"
        )
    return out


def zigzag_runs(in_vn: np.ndarray, n_par: int, width: int, seg: int):
    """Run table of the segment-parallel decode for ``seg`` segments.

    With check ``c = s*q + r`` (``q = n_par // seg``), edge row
    ``(t, r)`` (index ``t*q + r``) lists, for every segment ``s``, the
    info VN at ``in_vn[t*n_par + c]``.  A run is a stretch of
    consecutive segments whose VNs are consecutive too; the kernel
    reads each as one contiguous block.  Returns int32 ``(row_ptr,
    run_seg, run_vn, run_len)``.  On a DVB-S2 code with ``seg`` equal
    to its parallelism every row is one VN group rotated: at most 2
    runs.
    """
    q = n_par // seg
    rows = in_vn.reshape(width, seg, q).transpose(0, 2, 1).reshape(-1, seg)
    starts = np.ones(rows.shape, dtype=bool)
    starts[:, 1:] = np.diff(rows, axis=1) != 1
    flat = np.flatnonzero(starts)
    row_ptr = np.zeros(rows.shape[0] + 1, dtype=np.int32)
    np.cumsum(starts.sum(axis=1), out=row_ptr[1:])
    run_len = np.diff(np.append(flat, rows.size))
    return tuple(
        np.ascontiguousarray(a, dtype=np.int32)
        for a in (row_ptr, flat % seg, rows.ravel()[flat], run_len)
    )


def workspace_bytes(k: int, n_par: int, width: int, seg: int) -> int:
    """Bytes of scratch :func:`zigzag_decode` needs for this code."""
    lib, reason = load()
    if lib is None:  # pragma: no cover - guarded by the backend
        raise RuntimeError(reason)
    return int(lib.zigzag_workspace_bytes(k, n_par, width, seg))


def zigzag_decode(
    ch: np.ndarray,
    k: int,
    runs: tuple,
    width: int,
    seg: int,
    mi: int,
    mult: int,
    budgets: np.ndarray,
    early_stop: bool,
    workspace: np.ndarray,
) -> tuple:
    """Decode a whole int8 ``(frames, n)`` quantized batch in C.

    ``floor(alpha*m) == (mult*m) >> 8`` is the magnitude normalization
    (see :func:`find_mulshift`), ``runs`` comes from
    :func:`zigzag_runs`, and ``workspace`` is a uint8 array of at least
    :func:`workspace_bytes` bytes, reused across calls.
    """
    lib, reason = load()
    if lib is None:  # pragma: no cover - guarded by the backend
        raise RuntimeError(reason)
    if ch.ndim != 2 or ch.dtype != np.int8 or not ch.flags.c_contiguous:
        raise ValueError("ch must be a C-contiguous int8 (frames, n) array")
    frames, n = ch.shape
    budgets = np.ascontiguousarray(budgets, dtype=np.int64)
    if budgets.shape != (frames,):
        raise ValueError(f"budgets must have shape ({frames},)")
    if workspace.nbytes < workspace_bytes(k, n - k, width, seg):
        raise ValueError("workspace too small for this code")
    bits = np.empty((frames, n), dtype=np.uint8)
    converged = np.empty(frames, dtype=np.uint8)
    iterations = np.empty(frames, dtype=np.int64)
    row_ptr, run_seg, run_vn, run_len = runs
    lib.zigzag_decode(
        _ptr(ch, ctypes.c_int8), frames, k, n - k, width, seg,
        _ptr(row_ptr, ctypes.c_int32), _ptr(run_seg, ctypes.c_int32),
        _ptr(run_vn, ctypes.c_int32), _ptr(run_len, ctypes.c_int32),
        mi, mult,
        _ptr(budgets, ctypes.c_int64), int(bool(early_stop)),
        workspace.ctypes.data,
        _ptr(bits, ctypes.c_uint8), _ptr(converged, ctypes.c_uint8),
        _ptr(iterations, ctypes.c_int64),
    )
    return bits, converged.view(bool), iterations
