"""Array-backend seam: resolution, caching, kernel parity, fast paths.

The bit-identity sweeps comparing whole decodes against the single-frame
golden models live in ``test_batch_quantized.py`` (parametrized over all
installed backends); this module covers the seam itself — backend
resolution and error reporting, the shared table cache, the individual
kernel hooks against the decoders' numpy reference paths, and that the
fused / device fast paths are actually taken.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import AwgnChannel
from repro.decode import (
    BatchQuantizedMinSumDecoder,
    BatchQuantizedZigzagDecoder,
    available_backends,
    backend_status,
    resolve_backend,
)
from repro.decode import _cnative, _numba_kernels
from repro.decode.backend import (
    ArrayBackend,
    MockDeviceBackend,
    NumpyBackend,
)
from repro.decode.batch import make_batch_decoder
from repro.encode import IraEncoder
from repro.sim.fast import fast_ber

BACKENDS = available_backends()
HAVE_CNATIVE = "cnative" in BACKENDS


def _frame_batch(code, ebn0_db, n_frames, seed, hopeless=0):
    """Noisy encoded frames; the last ``hopeless`` are pure garbage."""
    encoder = IraEncoder(code)
    channel = AwgnChannel(
        ebn0_db=ebn0_db, rate=float(code.profile.rate), seed=seed
    )
    rng = np.random.default_rng(seed)
    llrs = np.empty((n_frames, code.n))
    for i in range(n_frames):
        word = encoder.encode(
            rng.integers(0, 2, code.k, dtype=np.uint8)
        )
        llrs[i] = channel.llrs(word)
    for i in range(n_frames - hopeless, n_frames):
        llrs[i] = rng.normal(0.0, 4.0, code.n)
    return llrs


def _assert_results_equal(ref, got):
    np.testing.assert_array_equal(ref.bits, got.bits)
    np.testing.assert_array_equal(ref.converged, got.converged)
    np.testing.assert_array_equal(ref.iterations, got.iterations)


# ---------------------------------------------------------------------------
# Resolution and error reporting


def test_resolve_default_is_numpy():
    be = resolve_backend(None)
    assert be.name == "numpy"
    assert be.kind == "numpy"
    assert resolve_backend("numpy").kind == "numpy"


def test_resolve_instance_passes_through():
    be = MockDeviceBackend()
    assert resolve_backend(be) is be


def test_unknown_backend_lists_available():
    with pytest.raises(ValueError, match="available backends") as exc:
        resolve_backend("no-such-backend")
    msg = str(exc.value)
    assert "'no-such-backend'" in msg
    for name in available_backends():
        assert name in msg
    assert "compiled" in msg  # the alias is advertised too


def test_unknown_backend_through_factory(code_half):
    with pytest.raises(ValueError, match="available backends"):
        make_batch_decoder(
            code_half,
            schedule="quantized-zigzag",
            backend="no-such-backend",
        )


def test_non_string_spec_raises_type_error():
    with pytest.raises(TypeError, match="ArrayBackend"):
        resolve_backend(42)


def test_unavailable_backend_reports_reason():
    unavailable = [
        name
        for name, (kind, reason) in backend_status().items()
        if reason is not None
    ]
    for name in unavailable:
        with pytest.raises(ValueError, match="not available"):
            resolve_backend(name)


def test_compiled_alias_resolves_or_explains():
    status = backend_status()
    candidates = [
        n for n in ("numba", "cnative") if status[n][1] is None
    ]
    if candidates:
        assert resolve_backend("compiled").name == candidates[0]
    else:
        with pytest.raises(ValueError, match="compiled"):
            resolve_backend("compiled")


def test_backend_status_covers_registry():
    status = backend_status()
    for name in ("numpy", "cnative", "numba", "cupy", "mock-device"):
        assert name in status
    assert status["numpy"] == ("numpy", None)
    assert status["mock-device"] == ("device", None)
    for name in available_backends():
        assert status[name][1] is None


def test_backend_rejected_for_float_schedules(code_half):
    with pytest.raises(ValueError, match="quantized"):
        make_batch_decoder(code_half, schedule="zigzag", backend="numpy")


def test_device_backend_rejected_for_minsum(code_half):
    with pytest.raises(ValueError, match="device"):
        BatchQuantizedMinSumDecoder(code_half, backend="mock-device")


# ---------------------------------------------------------------------------
# Shared table cache (satellite: one read-only copy per Tanner graph)


def test_zigzag_instances_share_cached_tables(code_half):
    d1 = BatchQuantizedZigzagDecoder(code_half, normalization=0.75)
    d2 = BatchQuantizedZigzagDecoder(code_half, normalization=0.75)
    assert d1._in_vn_sorted is d2._in_vn_sorted
    assert d1._vn_gather is d2._vn_gather
    assert d1._vn_gather_tm is d2._vn_gather_tm
    assert d1._norm_lut is d2._norm_lut
    assert not d1._in_vn_sorted.flags.writeable
    assert not d1._norm_lut.flags.writeable


def test_minsum_instances_share_cached_tables(code_half):
    d1 = BatchQuantizedMinSumDecoder(code_half, normalization=0.75)
    d2 = BatchQuantizedMinSumDecoder(code_half, normalization=0.75)
    assert d1._seg_of_sorted is d2._seg_of_sorted
    assert d1._edge_index is d2._edge_index
    assert d1._cn_starts64 is d2._cn_starts64
    assert not d1._seg_of_sorted.flags.writeable


def test_lut_cache_keys_on_normalization(code_half):
    d1 = BatchQuantizedZigzagDecoder(code_half, normalization=0.75)
    d2 = BatchQuantizedZigzagDecoder(code_half, normalization=0.875)
    assert d1._norm_lut is not d2._norm_lut


def test_scratch_arena_grows_and_slices():
    be = ArrayBackend()
    a = be.buf("x", (8, 16), np.int8)
    assert a.shape == (8, 16)
    b = be.buf("x", (4, 16), np.int8)
    assert b.base is be._scratch["x"]
    assert b.shape == (4, 16)
    c = be.buf("x", (12, 16), np.int8)
    assert c.shape == (12, 16)
    d = be.buf("x", (12, 16), np.int16)  # dtype change reallocates
    assert d.dtype == np.int16


def test_mock_device_transfer_never_aliases():
    be = MockDeviceBackend()
    host = np.arange(6, dtype=np.int32)
    dev = be.to_device(host)
    assert dev is not host
    dev[0] = 99
    assert host[0] == 0
    assert isinstance(be.asnumpy(dev), np.ndarray)


# ---------------------------------------------------------------------------
# Kernel hook parity against the numpy reference implementations


def _random_segments(rng, n_segs, m):
    """CN-sorted magnitudes with irregular segment lengths, plus the
    numpy fallback's auxiliary index tables."""
    lengths = rng.integers(1, 7, n_segs)
    starts = np.zeros(n_segs, dtype=np.int64)
    starts[1:] = np.cumsum(lengths)[:-1]
    n_edges = int(lengths.sum())
    mags = rng.integers(0, 32, (m, n_edges)).astype(np.int8)
    seg_of_sorted = np.repeat(np.arange(n_segs), lengths)
    edge_index = np.arange(n_edges, dtype=np.int32)
    return mags, starts, seg_of_sorted, edge_index, n_edges


def _reference_min_scan(mags, starts, seg_of_sorted, edge_index, n_edges):
    ref = NumpyBackend()
    return ref.segment_min1_min2(
        mags.copy(), starts, seg_of_sorted, edge_index,
        edge_index.dtype.type(n_edges),
    )


def test_numba_twin_segment_min_scan_matches_numpy(rng):
    mags, starts, seg_of, eidx, n_edges = _random_segments(rng, 37, 5)
    m1_ref, m2_ref, am_ref = _reference_min_scan(
        mags, starts, seg_of, eidx, n_edges
    )
    m1 = np.empty((5, 37), dtype=np.int8)
    m2 = np.empty((5, 37), dtype=np.int8)
    am = np.empty((5, 37), dtype=np.int64)
    _numba_kernels._segment_min_scan(
        mags, starts, int(np.iinfo(np.int8).max), m1, m2, am
    )
    np.testing.assert_array_equal(m1, m1_ref)
    np.testing.assert_array_equal(m2, m2_ref)
    np.testing.assert_array_equal(am, am_ref)


@pytest.mark.skipif(not HAVE_CNATIVE, reason="no working C compiler")
def test_cnative_segment_min_scan_matches_numpy(rng):
    mags, starts, seg_of, eidx, n_edges = _random_segments(rng, 53, 4)
    m1_ref, m2_ref, am_ref = _reference_min_scan(
        mags, starts, seg_of, eidx, n_edges
    )
    m1, m2, am = _cnative.segment_min_scan(
        np.ascontiguousarray(mags), starts
    )
    np.testing.assert_array_equal(m1, m1_ref)
    np.testing.assert_array_equal(m2, m2_ref)
    np.testing.assert_array_equal(am, am_ref)


def _synthetic_scan_inputs(code, rng, m=3):
    """Random-but-valid forward scan operands for ``code``."""
    n_par = code.n_parity
    mi = 31
    lut = np.floor(0.75 * np.arange(mi + 1)).astype(np.int8)
    n1 = lut[rng.integers(0, mi + 1, (m, n_par))]
    parity_neg = rng.integers(0, 2, (m, n_par)).astype(bool)
    ch_pn = rng.integers(-mi, mi + 1, (m, n_par)).astype(np.int8)
    f_old = rng.integers(-mi, mi + 1, (m, n_par)).astype(np.int8)
    return n1, parity_neg, ch_pn, f_old, mi, lut


def _numpy_scan_reference(code, n1, parity_neg, ch_pn, f_old):
    """The decoder's own vectorized t-major scan (numpy backend)."""
    dec = BatchQuantizedZigzagDecoder(code, normalization=0.75)
    return dec._forward_scan(
        n1.copy(), parity_neg.copy(), ch_pn.copy(), f_old.copy(),
        reuse=False,
    )


def test_numba_twin_forward_scan_matches_decoder(code_half, rng):
    n1, parity_neg, ch_pn, f_old, mi, lut = _synthetic_scan_inputs(
        code_half, rng
    )
    f_ref, an_ref, ag_ref = _numpy_scan_reference(
        code_half, n1, parity_neg, ch_pn, f_old
    )
    m, n_par = n1.shape
    seg = code_half.profile.parallelism
    f = np.empty((m, n_par), dtype=np.int8)
    a_norm = np.empty((m, n_par), dtype=np.int8)
    a_neg = np.empty((m, n_par), dtype=bool)
    _numba_kernels._zigzag_forward_scan(
        n1, parity_neg, ch_pn, f_old, seg, mi, lut, f, a_norm, a_neg
    )
    np.testing.assert_array_equal(f, f_ref)
    np.testing.assert_array_equal(a_norm, an_ref)
    np.testing.assert_array_equal(a_neg, ag_ref)


@pytest.mark.skipif(not HAVE_CNATIVE, reason="no working C compiler")
def test_cnative_forward_scan_matches_decoder(code_half, rng):
    n1, parity_neg, ch_pn, f_old, mi, lut = _synthetic_scan_inputs(
        code_half, rng
    )
    f_ref, an_ref, ag_ref = _numpy_scan_reference(
        code_half, n1, parity_neg, ch_pn, f_old
    )
    m, n_par = n1.shape
    seg = code_half.profile.parallelism
    f = np.empty((m, n_par), dtype=np.int8)
    a_norm = np.empty((m, n_par), dtype=np.int8)
    a_neg = np.zeros((m, n_par), dtype=np.uint8)
    _cnative.zigzag_forward_scan(
        np.ascontiguousarray(n1),
        parity_neg.view(np.uint8),
        ch_pn, f_old, seg, mi, lut, f, a_norm, a_neg,
    )
    np.testing.assert_array_equal(f, f_ref)
    np.testing.assert_array_equal(a_norm, an_ref)
    np.testing.assert_array_equal(a_neg.astype(bool), ag_ref)


# ---------------------------------------------------------------------------
# The fast paths are actually taken (not silently falling back)


@pytest.mark.skipif(not HAVE_CNATIVE, reason="no working C compiler")
def test_cnative_fused_plan_engages(code_half, monkeypatch):
    dec = BatchQuantizedZigzagDecoder(
        code_half, normalization=0.75, channel_scale=0.5,
        backend="cnative",
    )
    assert dec._fused_plan is not None
    calls = []
    orig = type(dec.backend).fused_zigzag_decode

    def spy(self, *args, **kwargs):
        calls.append(1)
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(type(dec.backend), "fused_zigzag_decode", spy)
    llrs = _frame_batch(code_half, 2.2, 4, seed=3, hopeless=1)
    got = dec.decode_batch(llrs, max_iterations=20)
    assert calls  # the whole-batch C kernel ran
    ref = BatchQuantizedZigzagDecoder(
        code_half, normalization=0.75, channel_scale=0.5
    ).decode_batch(llrs, max_iterations=20)
    _assert_results_equal(ref, got)


def test_mock_device_loop_engages(code_half, monkeypatch):
    calls = []
    orig = BatchQuantizedZigzagDecoder._decode_device

    def spy(self, *args, **kwargs):
        calls.append(1)
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(
        BatchQuantizedZigzagDecoder, "_decode_device", spy
    )
    dec = BatchQuantizedZigzagDecoder(
        code_half, normalization=0.75, channel_scale=0.5,
        backend="mock-device",
    )
    llrs = _frame_batch(code_half, 2.2, 4, seed=3, hopeless=1)
    got = dec.decode_batch(llrs, max_iterations=20)
    assert calls  # the device loop ran
    ref = BatchQuantizedZigzagDecoder(
        code_half, normalization=0.75, channel_scale=0.5
    ).decode_batch(llrs, max_iterations=20)
    _assert_results_equal(ref, got)


@pytest.mark.parametrize("backend", BACKENDS)
def test_per_frame_budgets_match_across_backends(code_half, backend):
    """Per-frame budgets (including zero) freeze frames identically on
    every backend, with and without early stopping."""
    llrs = _frame_batch(code_half, 2.2, 5, seed=17, hopeless=1)
    budgets = np.array([0, 3, 9, 1, 14])
    ref = BatchQuantizedZigzagDecoder(
        code_half, normalization=0.75, channel_scale=0.5
    )
    dec = BatchQuantizedZigzagDecoder(
        code_half, normalization=0.75, channel_scale=0.5,
        backend=backend,
    )
    for early_stop in (True, False):
        _assert_results_equal(
            ref.decode_batch(llrs, budgets, early_stop=early_stop),
            dec.decode_batch(llrs, budgets, early_stop=early_stop),
        )


@pytest.mark.parametrize(
    "backend",
    [b for b in BACKENDS if backend_status()[b][0] == "fused"],
)
def test_trace_falls_back_bit_identically(code_half, backend):
    """Tracing forces the stepwise numpy loop (+ per-iteration hooks);
    events and outputs must match the numpy backend exactly."""
    from repro.obs.iteration import IterationTraceRecorder

    llrs = _frame_batch(code_half, 2.2, 4, seed=5, hopeless=1)
    results, events = [], []
    for spec in (None, backend):
        dec = BatchQuantizedZigzagDecoder(
            code_half, normalization=0.75, channel_scale=0.5,
            backend=spec,
        )
        trace = IterationTraceRecorder()
        results.append(
            dec.decode_batch(llrs, max_iterations=15,
                             iteration_trace=trace)
        )
        events.append(trace.drain())
    _assert_results_equal(results[0], results[1])
    assert events[0] == events[1]


def test_duck_typed_backend_instance(code_half):
    """An unregistered ArrayBackend subclass plugs straight in."""

    class TracingBackend(ArrayBackend):
        name = "tracing"
        kind = "numpy"

        def __init__(self):
            super().__init__()
            self.gathers = 0

        def segment_sum(self, values, starts, dtype=None, out=None):
            self.gathers += 1
            return np.add.reduceat(
                values, starts, axis=1, dtype=dtype, out=out
            )

    be = TracingBackend()
    llrs = _frame_batch(code_half, 2.2, 3, seed=9)
    got = BatchQuantizedMinSumDecoder(
        code_half, normalization=0.75, channel_scale=0.5, backend=be
    ).decode_batch(llrs, max_iterations=10)
    assert be.gathers > 0
    ref = BatchQuantizedMinSumDecoder(
        code_half, normalization=0.75, channel_scale=0.5
    ).decode_batch(llrs, max_iterations=10)
    _assert_results_equal(ref, got)


@pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "numpy"])
def test_fast_ber_equal_across_backends(code_half_tiny, backend):
    kwargs = dict(
        ebn0_db=1.8, frames=24, max_iterations=15, seed=4,
        batch_size=8, schedule="quantized-zigzag", channel_scale=0.5,
    )
    ref = fast_ber(code_half_tiny, **kwargs)
    got = fast_ber(code_half_tiny, backend=backend, **kwargs)
    assert ref == got


# ---------------------------------------------------------------------------
# The segment-parallel cnative kernel: layout, compaction and grouping.
# The kernel decodes up to 32 frames at once (wider batches in groups)
# and drops frames from its rows as they finish, so these sweeps cross
# group boundaries and shrink the live set several times per group.

needs_cnative = pytest.mark.skipif(
    not HAVE_CNATIVE, reason="no working C compiler"
)


def _mixed_batch(code, n_frames, seed):
    """Clean, marginal and hopeless frames interleaved, so frames leave
    the kernel at many different iterations."""
    ebn0 = np.array([4.0, 2.4, 2.0, 1.6, 3.0, 1.2, 2.2, 5.0])
    llrs = np.empty((n_frames, code.n))
    for i in range(n_frames):
        llrs[i] = _frame_batch(
            code, ebn0[i % ebn0.size], 1, seed=seed + i,
            hopeless=int(i % 11 == 10),
        )[0]
    return llrs


def _zigzag_pair(code, **kwargs):
    kwargs = dict(normalization=0.75, channel_scale=0.5, **kwargs)
    return (
        BatchQuantizedZigzagDecoder(code, **kwargs),
        BatchQuantizedZigzagDecoder(code, backend="cnative", **kwargs),
    )


@pytest.fixture(scope="module")
def mixed_half(code_half):
    return _mixed_batch(code_half, 97, seed=100)


@needs_cnative
@pytest.mark.parametrize("occupancy", [1, 2, 31, 32, 33, 64, 65, 97])
def test_cnative_occupancies_match_numpy(code_half, mixed_half, occupancy):
    ref, dec = _zigzag_pair(code_half)
    assert dec._fused_plan is not None
    llrs = mixed_half[:occupancy]
    _assert_results_equal(
        ref.decode_batch(llrs, max_iterations=25),
        dec.decode_batch(llrs, max_iterations=25),
    )


@needs_cnative
def test_cnative_live_set_shrinks_repeatedly(code_half, mixed_half):
    """The reference exits frames at many distinct iterations (each one
    a compaction in the kernel), and the kernel agrees on all of them."""
    ref, dec = _zigzag_pair(code_half)
    want = ref.decode_batch(mixed_half[:32], max_iterations=30)
    assert np.unique(want.iterations).size >= 5
    assert want.converged.any() and not want.converged.all()
    _assert_results_equal(
        want, dec.decode_batch(mixed_half[:32], max_iterations=30)
    )


@needs_cnative
def test_cnative_budget_vectors_match_numpy(code_half, mixed_half):
    ref, dec = _zigzag_pair(code_half)
    budgets = np.random.default_rng(3).integers(0, 20, 40)
    for early_stop in (True, False):
        _assert_results_equal(
            ref.decode_batch(mixed_half[:40], budgets, early_stop=early_stop),
            dec.decode_batch(mixed_half[:40], budgets, early_stop=early_stop),
        )


@needs_cnative
def test_cnative_without_early_stop_matches_numpy(code_half, mixed_half):
    ref, dec = _zigzag_pair(code_half)
    got = dec.decode_batch(mixed_half[:34], 9, early_stop=False)
    assert (got.iterations == 9).all() and not got.converged.any()
    _assert_results_equal(
        ref.decode_batch(mixed_half[:34], 9, early_stop=False), got
    )


@needs_cnative
@pytest.mark.parametrize("segments", [18, 12, 1])
def test_cnative_generic_segments_match_numpy(code_half, mixed_half,
                                              segments):
    """segments != parallelism: rows are no longer one rotated VN
    group, so the run table takes its generic many-run shape."""
    ref, dec = _zigzag_pair(code_half, segments=segments)
    row_ptr, _, _, run_len = dec._fused_plan["runs"]
    assert np.diff(row_ptr).max() > 2 or run_len.max() == 1
    _assert_results_equal(
        ref.decode_batch(mixed_half[:9], max_iterations=20),
        dec.decode_batch(mixed_half[:9], max_iterations=20),
    )


@needs_cnative
def test_zigzag_runs_are_rotated_groups(code_half):
    """With segments == P every edge row is one VN group read as at
    most two runs, and the run table covers every edge exactly once."""
    dec = BatchQuantizedZigzagDecoder(code_half)
    width, n_par, seg = dec._width, code_half.n_parity, dec.segments
    row_ptr, run_seg, run_vn, run_len = _cnative.zigzag_runs(
        dec._in_vn_i32, n_par, width, seg
    )
    q = n_par // seg
    assert row_ptr.size == q * width + 1
    assert np.diff(row_ptr).max() <= 2
    covered = np.zeros((q * width, seg), dtype=int)
    for row in range(q * width):
        for i in range(row_ptr[row], row_ptr[row + 1]):
            s = np.arange(run_seg[i], run_seg[i] + run_len[i])
            covered[row, s] += 1
            t, r = divmod(row, q)
            np.testing.assert_array_equal(
                dec._in_vn_sorted[t * n_par + s * q + r],
                run_vn[i] + np.arange(run_len[i]),
            )
    assert (covered == 1).all()


@needs_cnative
def test_cnative_quantize_matches_fixed_point_format(code_half):
    """The one-pass int8 quantizer keeps FixedPointFormat.quantize's
    round-half-even rule, saturation and non-finite guard."""
    from repro.quantize.fixed_point import MESSAGE_6BIT

    be = resolve_backend("cnative")
    rng = np.random.default_rng(11)
    llrs = np.concatenate([
        rng.normal(0.0, 6.0, 4000),
        np.arange(-40, 41) * 0.125,  # exact ties at the 0.25 LSB / 0.5
        [1e300, -1e300, 0.0, -0.0],
    ]).reshape(-1, 5)
    for gain in (0.5, 1.0, 0.3):
        got = be.quantize(MESSAGE_6BIT, llrs, gain, np.int8)
        assert got.dtype == np.int8
        np.testing.assert_array_equal(
            got, MESSAGE_6BIT.quantize(llrs * gain)
        )
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            be.quantize(MESSAGE_6BIT, np.array([1.0, bad]), 1.0, np.int8)


@needs_cnative
def test_cnative_workspace_is_reused(code_half, mixed_half):
    ref, dec = _zigzag_pair(code_half)
    dec.decode_batch(mixed_half[:3], max_iterations=5)
    ws = dec.backend._scratch["zz_workspace"]
    got = dec.decode_batch(mixed_half[:40], max_iterations=12)
    assert dec.backend._scratch["zz_workspace"] is ws
    _assert_results_equal(
        ref.decode_batch(mixed_half[:40], max_iterations=12), got
    )


@needs_cnative
def test_cnative_full_frame_mixed_batch_matches_numpy():
    """The paper's 64800-bit frame: P = 360 segments of q = 90 checks."""
    from repro.codes import build_code

    code = build_code("1/2")
    llrs = _mixed_batch(code, 12, seed=7)
    ref, dec = _zigzag_pair(code)
    want = ref.decode_batch(llrs, max_iterations=20)
    assert np.unique(want.iterations).size >= 3
    _assert_results_equal(want, dec.decode_batch(llrs, max_iterations=20))
