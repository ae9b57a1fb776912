"""Pluggable array backends for the batched fixed-point decoders.

The paper's partly-parallel core gets its throughput from mapping the
min-sum/zigzag update onto wide parallel functional units; the software
analogue — the ``(frames, edges)`` vectorized engines in
:mod:`repro.decode.batch_quantized` — is written against the small seam
defined here instead of being hard-wired to numpy.  A backend exposes
the primitives the decoders actually use:

* a named scratch arena (:meth:`ArrayBackend.buf`),
* gathers, LUT application and branchless blends,
* segment sums and fused segment ``(min1, min2, argmin)``
  (the two ``reduceat`` shapes of the check phase),
* the serial-dependency t-major forward chain scan
  (:meth:`ArrayBackend.zigzag_forward_scan`),
* channel quantization (:meth:`ArrayBackend.quantize`),
* an optional whole-batch fused decode
  (:meth:`ArrayBackend.fused_zigzag_plan` /
  :meth:`ArrayBackend.fused_zigzag_decode`).

Shipped backends:

``numpy``
    The default.  Bit-identical to the historical implementation by
    construction — the decoders' own vectorized numpy loops *are* this
    backend's implementation; it never overrides a kernel hook.
``cnative``
    Compiled C kernels (:mod:`repro.decode._cnative`), built lazily from
    ``_zigzag_kernels.c`` with the system compiler.  Provides the fused
    min1/min2/argmin sweep, the compiled forward scan, one-pass int8
    quantization, and a fused whole-batch zigzag decode whose vector
    rows are the code's parallel checks × the live frames.  Unavailable (with a captured reason)
    when no working C compiler exists.
``numba``
    ``numba.njit(parallel=True)`` twins of the same two kernels
    (:mod:`repro.decode._numba_kernels`).  Import-guarded: without
    numba installed the backend reports itself unavailable and the
    undecorated python twins remain unit-testable.
``cupy``
    Device backend driving the zigzag decoder's device decode loop with
    ``cupy`` arrays.  Unavailable without a CUDA device.
``mock-device``
    ``numpy`` masquerading as a device array module — always available,
    so the device code path (transfers, masked commits, ``xp``-generic
    arithmetic) is exercised by CI without hardware.

``resolve_backend`` also accepts the alias ``"compiled"`` (first
available of ``numba``, ``cnative``) and any :class:`ArrayBackend`
instance (duck-typed backends plug straight in).

Every backend is bound by the bit-identity contract: for identical
inputs it must reproduce the serial quantized golden models exactly
(integer arithmetic is exact in any grouping, so this is a matter of
preserving operation semantics, not tolerances).  The equivalence
sweeps in ``tests/test_batch_quantized.py`` are parametrized over all
installed backends to enforce it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

import numpy as np

from . import _cnative


def mask_into(cond: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with 0 where ``cond`` is False and -1 where True.

    ``np.where`` on byte-sized operands is memory-bound and an order of
    magnitude slower than the arithmetic it gates at full-frame batch
    shapes; an all-ones/all-zeros mask turns every select into a couple
    of in-place bitwise ops (``b ^ ((a ^ b) & mask)``) that stay exact
    for two's-complement integers.
    """
    if out.dtype == np.int8:
        np.negative(cond.view(np.int8), out=out)
    else:
        np.multiply(cond, -1, out=out, casting="unsafe")
    return out


class ArrayBackend:
    """Base array backend: the numpy implementations of every primitive.

    Subclasses override the kernel hooks they accelerate and leave the
    rest inherited; any hook may *decline* at runtime (unsupported
    dtype, non-contiguous input) and the decoder falls back to its own
    numpy path, so partial backends stay bit-identical by construction.
    """

    #: Registry name (``resolve_backend(name)``).
    name = "numpy"
    #: ``"numpy"`` (pure fallback), ``"fused"`` (compiled host kernels)
    #: or ``"device"`` (arrays live on an accelerator; the zigzag
    #: decoder switches to its device decode loop).
    kind = "numpy"
    #: Array module (numpy-compatible namespace) for device-generic code.
    xp = np

    @classmethod
    def available(cls) -> bool:
        return True

    @classmethod
    def unavailable_reason(cls) -> Optional[str]:
        return None

    def __init__(self) -> None:
        #: Named reusable scratch arrays (see :meth:`buf`).
        self._scratch: dict = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} kind={self.kind!r}>"

    # -- scratch arena --------------------------------------------------
    def buf(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """Named scratch array, grown on demand and sliced per batch.

        At full-frame batch sizes the per-iteration temporaries exceed
        the allocator's mmap threshold, so fresh allocations pay a page
        fault per written page every iteration — reuse removes that.
        """
        arr = self._scratch.get(name)
        if (
            arr is None
            or arr.dtype != np.dtype(dtype)
            or arr.shape[1:] != tuple(shape[1:])
            or arr.shape[0] < shape[0]
        ):
            arr = np.empty(shape, dtype)
            self._scratch[name] = arr
        return arr if arr.shape[0] == shape[0] else arr[: shape[0]]

    # -- elementwise primitives -----------------------------------------
    @staticmethod
    def take(arr, indices, axis=1, out=None):
        """Gather along ``axis`` (the decoders' edge-expansion shape)."""
        return np.take(arr, indices, axis=axis, out=out)

    @staticmethod
    def lut_apply(table, idx, out=None):
        """Apply a small lookup table elementwise (normalization)."""
        return np.take(table, idx, out=out)

    mask_into = staticmethod(mask_into)

    # -- segment reductions ----------------------------------------------
    @staticmethod
    def segment_sum(values, starts, dtype=None, out=None):
        """Per-segment sums over a sorted edge axis (VN totals)."""
        return np.add.reduceat(values, starts, axis=1, dtype=dtype, out=out)

    def segment_min1_min2(
        self, mags, starts, seg_of_sorted, edge_index, n_edges_val
    ):
        """Per-segment ``(min1, min2, argmin)`` over sorted magnitudes.

        ``argmin`` is the *global sorted position* of the first minimum
        (first occurrence on ties) and ``min2`` the minimum of the
        remaining entries — the dtype's max when a segment has a single
        edge.  ``mags`` is scratch: this numpy fallback masks the first
        minimum in place for the second ``reduceat``; fused backends
        return all three in one sweep without the second pass.
        """
        min1 = np.minimum.reduceat(mags, starts, axis=1)
        is_min = mags == min1[:, seg_of_sorted]
        positions = np.where(is_min, edge_index, n_edges_val)
        argmin = np.minimum.reduceat(positions, starts, axis=1)
        rows = np.arange(mags.shape[0])[:, None]
        mags[rows, argmin] = np.iinfo(mags.dtype).max
        min2 = np.minimum.reduceat(mags, starts, axis=1)
        return min1, min2, argmin

    # -- channel quantization --------------------------------------------
    def quantize(self, fmt, llrs, gain, dtype):
        """``fmt.quantize(llrs * gain)`` as integers castable to ``dtype``.

        Fused backends may return ``dtype`` directly from one pass; this
        default keeps the int32 result of :meth:`FixedPointFormat.quantize`.
        """
        return fmt.quantize(np.asarray(llrs, dtype=np.float64) * gain)

    # -- kernel hooks ------------------------------------------------------
    def zigzag_forward_scan(
        self, n1, parity_neg, ch_pn, f_old, seg, mi, lut, f, a_norm, a_neg
    ) -> bool:
        """Fill ``(f, a_norm, a_neg)`` for the zigzag forward chain scan.

        Return ``True`` when handled; returning ``False`` declines and
        the decoder runs its own vectorized t-major numpy scan.  All
        arrays are ``(m, n_par)`` in linear parity-node order.
        """
        return False

    def fused_zigzag_plan(self, decoder) -> Optional[dict]:
        """Precompute a whole-batch fused decode plan for ``decoder``.

        Called once at decoder construction (fused-kind backends only).
        Return ``None`` when the decoder's format/normalization falls
        outside what the fused kernel supports — the decoder then uses
        the per-iteration hooks instead.
        """
        return None

    def fused_zigzag_decode(self, decoder, plan, ch, budgets, early_stop):
        """Decode a whole quantized ``(frames, n)`` batch under a plan
        from :meth:`fused_zigzag_plan`; returns ``(bits, converged,
        iterations)`` exactly as the numpy loop would produce them."""
        raise NotImplementedError(
            f"backend {self.name!r} published no fused decode plan"
        )

    # -- device transfer ---------------------------------------------------
    def to_device(self, arr):
        """Move a host array to the backend's array module (no-op here)."""
        return arr

    def asnumpy(self, arr) -> np.ndarray:
        """Move an array back to host numpy (no-op here)."""
        return np.asarray(arr)


#: name -> backend class, in registration (= listing) order.
_REGISTRY: "Dict[str, Type[ArrayBackend]]" = {}


def register_backend(cls: Type[ArrayBackend]) -> Type[ArrayBackend]:
    """Class decorator adding a backend to the registry."""
    _REGISTRY[cls.name] = cls
    return cls


register_backend(ArrayBackend)
NumpyBackend = ArrayBackend


@register_backend
class CNativeBackend(ArrayBackend):
    """Compiled C kernels built lazily with the system compiler.

    Fuses the check-phase min1/min2/argmin into one sweep, runs the
    forward chain scan as a compiled loop, quantizes channel LLRs to
    int8 in one pass, and — for formats whose ``floor(alpha*m)`` table
    admits an exact multiply-shift — decodes whole batches to
    completion in a single C call (the dominant win: no per-iteration
    python/numpy dispatch at all).
    """

    name = "cnative"
    kind = "fused"

    @classmethod
    def available(cls) -> bool:
        return _cnative.available()

    @classmethod
    def unavailable_reason(cls) -> Optional[str]:
        return _cnative.unavailable_reason()

    def segment_min1_min2(
        self, mags, starts, seg_of_sorted, edge_index, n_edges_val
    ):
        if mags.dtype != np.int8 or not mags.flags.c_contiguous:
            return super().segment_min1_min2(
                mags, starts, seg_of_sorted, edge_index, n_edges_val
            )
        # No copy when already int64-contiguous (the cached tables are).
        starts64 = np.ascontiguousarray(starts, dtype=np.int64)
        return _cnative.segment_min_scan(mags, starts64)

    def zigzag_forward_scan(
        self, n1, parity_neg, ch_pn, f_old, seg, mi, lut, f, a_norm, a_neg
    ) -> bool:
        if n1.dtype != np.int8:
            return False
        for arr in (n1, parity_neg, ch_pn, f_old, lut, f, a_norm, a_neg):
            if not arr.flags.c_contiguous:
                return False
        _cnative.zigzag_forward_scan(
            n1,
            parity_neg.view(np.uint8),
            ch_pn,
            f_old,
            seg,
            mi,
            lut,
            f,
            a_norm,
            a_neg.view(np.uint8),
        )
        return True

    def quantize(self, fmt, llrs, gain, dtype):
        if np.dtype(dtype) != np.int8:
            return super().quantize(fmt, llrs, gain, dtype)
        return _cnative.quantize_llrs(llrs, gain, fmt.scale, fmt.max_int)

    def fused_zigzag_plan(self, decoder) -> Optional[dict]:
        mi = int(decoder.fmt.max_int)
        if decoder._mdt != np.int8 or not decoder._narrow_vn:
            return None
        if np.dtype(decoder._adt).itemsize > 2:
            return None
        # The kernel normalizes as (mult*m) >> 8 in 16-bit lanes.
        ms = _cnative.find_mulshift(decoder._norm_lut, mi)
        if ms is None or ms[1] > 8:
            return None
        mult = ms[0] << (8 - ms[1])
        if mult * mi >= 1 << 15:
            return None
        code = decoder.code
        return {
            "runs": _cnative.zigzag_runs(
                decoder._in_vn_i32, code.n_parity, decoder._width,
                decoder.segments,
            ),
            "workspace_bytes": _cnative.workspace_bytes(
                code.k, code.n_parity, decoder._width, decoder.segments
            ),
            "mult": int(mult),
        }

    def fused_zigzag_decode(self, decoder, plan, ch, budgets, early_stop):
        # One workspace per backend, grown to the largest code seen and
        # reused by every call (the kernel decodes in fixed-size groups);
        # like the rest of the scratch arena, one call at a time.
        ws = self.buf("zz_workspace", (plan["workspace_bytes"],), np.uint8)
        return _cnative.zigzag_decode(
            ch,
            decoder.code.k,
            plan["runs"],
            decoder._width,
            decoder.segments,
            int(decoder.fmt.max_int),
            plan["mult"],
            budgets,
            early_stop,
            ws,
        )


@register_backend
class NumbaBackend(ArrayBackend):
    """``numba.njit(parallel=True)`` twins of the two scan kernels."""

    name = "numba"
    kind = "fused"

    @classmethod
    def available(cls) -> bool:
        from . import _numba_kernels

        return _numba_kernels.HAVE_NUMBA

    @classmethod
    def unavailable_reason(cls) -> Optional[str]:
        from . import _numba_kernels

        if _numba_kernels.HAVE_NUMBA:
            return None
        return f"numba not importable: {_numba_kernels.NUMBA_IMPORT_ERROR}"

    def segment_min1_min2(
        self, mags, starts, seg_of_sorted, edge_index, n_edges_val
    ):
        from . import _numba_kernels

        if not mags.flags.c_contiguous:
            return super().segment_min1_min2(
                mags, starts, seg_of_sorted, edge_index, n_edges_val
            )
        starts64 = np.ascontiguousarray(starts, dtype=np.int64)
        m, n_segs = mags.shape[0], starts64.shape[0]
        min1 = np.empty((m, n_segs), dtype=mags.dtype)
        min2 = np.empty((m, n_segs), dtype=mags.dtype)
        argmin = np.empty((m, n_segs), dtype=np.int64)
        _numba_kernels.segment_min_scan(
            mags, starts64, int(np.iinfo(mags.dtype).max),
            min1, min2, argmin,
        )
        return min1, min2, argmin

    def zigzag_forward_scan(
        self, n1, parity_neg, ch_pn, f_old, seg, mi, lut, f, a_norm, a_neg
    ) -> bool:
        from . import _numba_kernels

        _numba_kernels.zigzag_forward_scan(
            n1, parity_neg, ch_pn, f_old, seg, mi, lut, f, a_norm, a_neg
        )
        return True


@register_backend
class CupyBackend(ArrayBackend):
    """CuPy device backend (zigzag device decode loop on a CUDA GPU)."""

    name = "cupy"
    kind = "device"

    _probe: Optional[tuple] = None  # memoised (ok, reason)

    @classmethod
    def _check(cls) -> tuple:
        if cls._probe is None:
            try:  # pragma: no cover - requires CUDA hardware
                import cupy

                if cupy.cuda.runtime.getDeviceCount() < 1:
                    raise RuntimeError("no CUDA device visible")
                cls._probe = (True, None)
            except Exception as exc:
                cls._probe = (False, f"cupy unavailable: {exc}")
        return cls._probe

    @classmethod
    def available(cls) -> bool:
        return cls._check()[0]

    @classmethod
    def unavailable_reason(cls) -> Optional[str]:
        return cls._check()[1]

    def __init__(self) -> None:  # pragma: no cover - requires hardware
        super().__init__()
        import cupy

        self.xp = cupy

    def to_device(self, arr):  # pragma: no cover - requires hardware
        return self.xp.asarray(arr)

    def asnumpy(self, arr):  # pragma: no cover - requires hardware
        return self.xp.asnumpy(arr)


@register_backend
class MockDeviceBackend(ArrayBackend):
    """Numpy masquerading as a device module.

    Always available, so the zigzag device decode loop — host/device
    transfers, ``xp``-generic arithmetic, masked whole-batch commits —
    is exercised on every CI run without accelerator hardware.  Slower
    than the plain numpy backend by design (no subsetting, wide
    dtypes): it exists to test the seam, not to win benchmarks.
    """

    name = "mock-device"
    kind = "device"

    def to_device(self, arr):
        # Copy, as a real transfer would: mutations on "device" arrays
        # must never alias caller memory.
        return np.array(arr)


class InstrumentedBackend(ArrayBackend):
    """Wraps any backend, timing its kernel primitives into a registry.

    The timed surface is the set of hooks a backend can accelerate —
    ``segment_sum``, ``segment_min1_min2``, ``zigzag_forward_scan``,
    ``fused_zigzag_decode`` and the device transfers — recorded as
    ``<prefix>.<kernel>`` timers (default ``decode.kernel.*``), which
    ``repro obs profile`` renders as the decode-stage breakdown.  The
    cheap elementwise primitives (``take``/``lut_apply``/``mask_into``)
    delegate untimed: they run thousands of times per frame and two
    clock reads per call would distort exactly what is being measured.

    The wrapper changes timing only, never values, so the bit-identity
    contract of the wrapped backend carries over unchanged.
    """

    def __init__(
        self, inner: ArrayBackend, registry, prefix: str = "decode.kernel"
    ) -> None:
        super().__init__()
        self.inner = inner
        self.registry = registry
        self.prefix = prefix
        self._scratch = inner._scratch  # share the inner arena
        self.name = inner.name
        self.kind = inner.kind
        self.xp = inner.xp
        self.take = inner.take
        self.lut_apply = inner.lut_apply
        self.mask_into = inner.mask_into

    def _timer(self, kernel: str):
        return self.registry.timer(f"{self.prefix}.{kernel}")

    def buf(self, name, shape, dtype):
        return self.inner.buf(name, shape, dtype)

    def segment_sum(self, values, starts, dtype=None, out=None):
        with self._timer("segment_sum"):
            return self.inner.segment_sum(
                values, starts, dtype=dtype, out=out
            )

    def segment_min1_min2(
        self, mags, starts, seg_of_sorted, edge_index, n_edges_val
    ):
        with self._timer("segment_min1_min2"):
            return self.inner.segment_min1_min2(
                mags, starts, seg_of_sorted, edge_index, n_edges_val
            )

    def zigzag_forward_scan(self, *args) -> bool:
        with self._timer("zigzag_forward_scan"):
            return self.inner.zigzag_forward_scan(*args)

    def fused_zigzag_plan(self, decoder):
        return self.inner.fused_zigzag_plan(decoder)

    def quantize(self, fmt, llrs, gain, dtype):
        return self.inner.quantize(fmt, llrs, gain, dtype)

    def fused_zigzag_decode(self, decoder, plan, ch, budgets, early_stop):
        with self._timer("fused_zigzag_decode"):
            return self.inner.fused_zigzag_decode(
                decoder, plan, ch, budgets, early_stop
            )

    def to_device(self, arr):
        with self._timer("to_device"):
            return self.inner.to_device(arr)

    def asnumpy(self, arr):
        with self._timer("asnumpy"):
            return self.inner.asnumpy(arr)


def instrument_backend(
    spec, registry, prefix: str = "decode.kernel"
) -> InstrumentedBackend:
    """Resolve ``spec`` (as :func:`resolve_backend`) and wrap it with
    kernel timers recording into ``registry``."""
    return InstrumentedBackend(
        resolve_backend(spec), registry, prefix=prefix
    )


# ---------------------------------------------------------------------------
#: ``resolve_backend`` aliases: name -> preference-ordered candidates.
_ALIASES = {"compiled": ("numba", "cnative")}


def backend_status() -> "Dict[str, tuple]":
    """name -> (kind, unavailable_reason-or-None) for every registered
    backend, in registration order."""
    return {
        name: (cls.kind, cls.unavailable_reason())
        for name, cls in _REGISTRY.items()
    }


def available_backends() -> List[str]:
    """Names of the backends usable in this environment."""
    return [name for name, cls in _REGISTRY.items() if cls.available()]


def resolve_backend(spec=None) -> ArrayBackend:
    """Turn a backend spec into a ready :class:`ArrayBackend` instance.

    ``spec`` may be ``None`` (numpy), a registered name, the
    ``"compiled"`` alias (first available of numba, cnative), or an
    :class:`ArrayBackend` instance (returned as-is, so duck-typed
    third-party backends plug in without registration).
    """
    if spec is None:
        spec = "numpy"
    if isinstance(spec, ArrayBackend):
        return spec
    if not isinstance(spec, str):
        raise TypeError(
            f"backend must be a name or ArrayBackend instance, "
            f"got {type(spec).__name__}"
        )
    if spec in _ALIASES:
        reasons = []
        for cand in _ALIASES[spec]:
            cls = _REGISTRY[cand]
            if cls.available():
                return cls()
            reasons.append(f"{cand}: {cls.unavailable_reason()}")
        raise ValueError(
            f"no {spec!r} backend is available ({'; '.join(reasons)})"
        )
    cls = _REGISTRY.get(spec)
    if cls is None:
        names = ", ".join(
            sorted(set(available_backends()) | set(_ALIASES))
        )
        raise ValueError(
            f"unknown backend {spec!r}; available backends: {names}"
        )
    if not cls.available():
        raise ValueError(
            f"backend {spec!r} is not available in this environment: "
            f"{cls.unavailable_reason()}"
        )
    return cls()
