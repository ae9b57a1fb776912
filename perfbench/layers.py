"""Single-layer probes, each run in a process of its own.

``python3 perfbench/child.py layers ...`` runs :func:`probe_layers`: it
first forks a ``PersistentPool`` (``sim.pool`` spawn and the hop of one
32-frame LLR batch through it) and only then calls the ``cnative``
kernel (``decode``), so no compiled kernel has run in the process
before it forks.  :func:`hw_metrics` turns measured iteration counts
into the paper's cycle-model yardstick.
"""

from __future__ import annotations

import pickle
import time

import numpy as np

from repro.decode.batch import make_batch_decoder
from repro.hw import FramePipelineModel, ThroughputModel
from repro.serve import make_frame_pool
from repro.sim import PersistentPool

from util import median
from workloads import (
    DECODER, ITERATIONS, MAX_BATCH, WORKERS, WORKLOADS, MonteCarlo,
)

HOP_REPEATS = 7
#: Timed calls per batch occupancy.
OCCUPANCY_REPEATS = {1: 5, 32: 3, 64: 2}


def _echo(payload):
    """Pool task: send the payload straight back."""
    return payload


def _noop() -> None:
    return None


def probe_pool(llrs: np.ndarray, bytes_per_frame: float) -> dict:
    """``sim.pool``: fork 2 workers, then echo one 32-frame LLR batch."""
    start = time.monotonic()
    pool = PersistentPool(WORKERS, label="benchmark pool probe")
    pool.configure(None, (), key="probe")
    for future in [pool.submit(_noop) for _ in range(WORKERS)]:
        future.result()
    spawn_s = time.monotonic() - start
    batch = np.ascontiguousarray(llrs[:MAX_BATCH])
    hops = []
    for _ in range(HOP_REPEATS):
        t0 = time.monotonic()
        pool.submit(_echo, batch).result()
        hops.append(time.monotonic() - t0)
    pool.shutdown()
    return {
        "pool.spawn_s": (spawn_s, "s"),
        "pool.hop_ms.b32": (median(hops) * 1e3, "ms"),
        "pool.bytes_per_frame": (bytes_per_frame, "B"),
    }


def probe_decode(code, llrs: np.ndarray) -> dict:
    """``decode``: cold first call, then batches of 1, 32 and 64 frames."""
    start = time.monotonic()
    decoder = make_batch_decoder(
        code, schedule=DECODER["schedule"],
        normalization=DECODER["normalization"], backend=DECODER["backend"],
    )
    decoder.decode_batch(llrs[:1], max_iterations=ITERATIONS, early_stop=True)
    first_call_s = time.monotonic() - start
    out = {"decode.first_call_s": (first_call_s, "s")}
    iters = slots = 0
    busy = 0.0
    for occ, repeats in OCCUPANCY_REPEATS.items():
        frames = np.concatenate([llrs] * (-(-occ // llrs.shape[0])))[:occ]
        times = []
        for _ in range(repeats):
            t0 = time.monotonic()
            result = decoder.decode_batch(
                frames, max_iterations=ITERATIONS, early_stop=True
            )
            times.append(time.monotonic() - t0)
            if occ > 1:
                iters += int(result.iterations.sum())
                slots += occ * int(result.iterations.max())
                busy += times[-1]
        out[f"decode.batch_ms.occ{occ}"] = (median(times) * 1e3, "ms")
    out["decode.edge_updates_per_s"] = (
        iters * code.profile.e_total / busy, "1/s"
    )
    out["decode.iter_util"] = (iters / slots, "ratio")
    return out


def probe_layers(workload: str, seed: int) -> dict:
    """Pool and decode probes on the workload's own code and frames."""
    cls = WORKLOADS[workload]
    code, ebn0 = cls.probe_code()
    llrs = make_frame_pool(code, pool_size=MAX_BATCH, ebn0_db=ebn0,
                           seed=seed).llrs
    if cls is MonteCarlo:
        # Monte-Carlo workers draw their own frames: only a shard's
        # seed sequence crosses the hop.
        seq = np.random.SeedSequence(seed).spawn(1)[0]
        bytes_per_frame = len(pickle.dumps(seq)) / MAX_BATCH
    else:
        bytes_per_frame = float(llrs[0].nbytes)
    out = probe_pool(llrs, bytes_per_frame)
    out.update(probe_decode(code, llrs))
    return out


def hw_metrics(code, mean_iterations: float) -> dict:
    """Paper Eq. 8 and the frame-pipelined core at the measured mean
    iterations (simulated time, not measured)."""
    its = max(1, int(round(mean_iterations)))
    eq8 = ThroughputModel(code.profile)
    return {
        "hw.eq8_fps": (eq8.clock_hz / eq8.cycles_per_block(its), "frames/s"),
        "hw.pipeline_fps": (
            FramePipelineModel(code.profile).frames_per_s(its), "frames/s"
        ),
    }
