"""The workloads and layer probes: how each sets up, sends and checks.

Every workload serves the paper's decoder configuration — 6-bit
``quantized-zigzag``, alpha = 0.75, 30 iterations, ``cnative`` kernel,
``max_batch = 32`` — on 2 decode workers.  Shedding is neutral
(``min_iterations == max_iterations``) and nothing has a deadline, so
the decoded bits do not depend on timing and every completed frame can
be compared with a ``numpy`` reference decode of the same pool frame.

A workload object has four steps, called in this order by ``child.py``:

``setup(spans)``
    Build codes and start the serving plane, then decode one warm-up
    frame.  Process start to the end of this call is ``setup_s``.
``prepare(seed)``
    Generate the seeded frame pool and its reference decode (outside
    ``setup_s``).
``run(seconds, spans)``
    The measured phases; returns :class:`drive.PhaseResult` s.
``close()``
    Stop every process the workload started.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from repro.acm import (
    DEFAULT_SCALED_BPSK_THRESHOLDS_DB,
    ModCod,
    MultiModcodService,
    SnrEstimator,
    build_modcod_code,
    make_channel,
)
from repro.codes import build_code, build_small_code
from repro.decode.batch import make_batch_decoder
from repro.serve import DecodeFabric, FabricConfig, ServeConfig, make_frame_pool
from repro.sim import PersistentPool, parallel_ber

from drive import GatewayPlane, LocalPlane, PhaseResult, run_phase
from util import NO_SPANS, Spans, cpu_delta_s, tree_cpu_s, tree_pids

WORKERS = 2
MAX_BATCH = 32
ITERATIONS = 30
DECODER = dict(
    schedule="quantized-zigzag", normalization=0.75, backend="cnative"
)
SERVE = ServeConfig(
    max_batch=MAX_BATCH,
    max_iterations=ITERATIONS,
    min_iterations=ITERATIONS,
    **DECODER,
)
#: Frames kept in flight by the closed loop: every worker's window of
#: 32-frame chunks full (2 workers x window 2), never more than the
#: admission queue holds, so nothing is rejected.
SATURATION_OUTSTANDING = WORKERS * 2 * MAX_BATCH
#: Requests addressable by one phase's frame order (cycled beyond).
ORDER_LENGTH = 1 << 14
#: Frames in the pool of a workload run as a short layer probe.
PROBE_POOL = 64


@dataclass(frozen=True)
class Rates:
    """Fixed open-loop rates (frames/s) and the reported tail percentile.

    ``light`` and ``heavy`` are about 15% and 50% of the capacity the
    workload measured on the benchmark's first commit; ``tail`` is the
    highest of p90/p99 with at least 10 samples beyond it at the
    workload's run length.  ``shares`` splits ``--seconds`` over the
    saturation, heavy and light phases.
    """

    light: float
    heavy: float
    tail: int
    shares: tuple


def reference_bits(code, llrs: np.ndarray) -> np.ndarray:
    """Decode ``llrs`` with the numpy backend at the served budget."""
    decoder = make_batch_decoder(
        code,
        schedule=DECODER["schedule"],
        normalization=DECODER["normalization"],
        backend="numpy",
    )
    out = []
    for lo in range(0, llrs.shape[0], MAX_BATCH):
        result = decoder.decode_batch(
            llrs[lo:lo + MAX_BATCH], max_iterations=ITERATIONS,
            early_stop=True,
        )
        out.append(result.bits.astype(np.uint8))
    return np.concatenate(out)


def measured(phase, server=None) -> PhaseResult:
    """Run ``phase()`` and attach the CPU its process tree spent."""
    me = os.getpid()
    before = tree_cpu_s()
    result = phase()
    after = tree_cpu_s()
    result.cpu_s = cpu_delta_s(before, after)
    result.self_cpu_s = after[me] - before[me]
    if server is not None:
        sub = set(tree_pids(server.pid))
        result.server_cpu_s = cpu_delta_s(
            {p: v for p, v in before.items() if p in sub},
            {p: v for p, v in after.items() if p in sub},
        )
    return result


def _warm_frame(n: int) -> np.ndarray:
    """A clean all-zero-codeword frame: converges in one iteration."""
    return np.full(n, 4.0)


class ServeWorkload:
    """Shared phase plan of the three request-serving workloads."""

    name = ""
    rates: Rates
    rounds = 3
    pool_size: int
    ebn0_db: float
    #: A server subprocess whose CPU is also reported on its own.
    proc: Optional[subprocess.Popen] = None

    def __init__(self) -> None:
        self.plane = None
        self.llrs: Optional[np.ndarray] = None
        self.reference: Optional[np.ndarray] = None
        self.order: Optional[np.ndarray] = None

    def run(self, seconds: float, spans: Spans = NO_SPANS,
            untraced_saturation: bool = False) -> List[PhaseResult]:
        """``rounds`` rounds of saturation, heavy and light phases.

        The host's speed drifts on a scale of seconds, so each figure
        pools several short phases spread over the run instead of one
        long one.  A traced run first adds one untraced saturation
        phase, the base of the tracing overhead.
        """
        sat, heavy, light = (
            share * seconds / self.rounds for share in self.rates.shares
        )
        round_plan = [
            ("saturation", dict(outstanding=SATURATION_OUTSTANDING,
                                duration_s=sat)),
            ("heavy", dict(rate=self.rates.heavy, duration_s=heavy)),
            ("light", dict(rate=self.rates.light, duration_s=light)),
        ]
        plan = round_plan * self.rounds
        if untraced_saturation:
            plan.insert(0, ("saturation-untraced", round_plan[0][1]))
        results = []
        for name, kwargs in plan:
            self.plane.spans = NO_SPANS if name.endswith("untraced") else spans
            results.append(measured(
                lambda: run_phase(
                    name, self.plane, self.order, self.reference,
                    timeout_s=3 * kwargs["duration_s"] + 30, **kwargs,
                ),
                self.proc,
            ))
        self.plane.spans = spans
        return results

    @property
    def hw_code(self):
        return self.code

    @property
    def tail(self) -> int:
        return self.rates.tail

    def as_probe(self) -> None:
        """Shrink to a short probe of the workload's serving layers:
        one round over a small pool."""
        self.rounds = 1
        self.pool_size = PROBE_POOL

    def prepare(self, seed: int) -> None:
        """A seeded pool of ``pool_size`` frames at ``ebn0_db`` and its
        reference decode."""
        pool = make_frame_pool(
            self.code, pool_size=self.pool_size, ebn0_db=self.ebn0_db,
            seed=seed,
        )
        self.llrs = pool.llrs
        self.reference = reference_bits(self.code, pool.llrs)
        self.order = self.pool_order(seed, np.arange(self.pool_size))

    def pool_order(self, seed: int, base: np.ndarray) -> np.ndarray:
        """Request ``i`` sends pool frame ``order[i]``: back-to-back
        seeded shuffles of ``base``, so every phase sends each frame of
        the pool about equally often."""
        rng = np.random.default_rng([seed, 7])
        reps = -(-ORDER_LENGTH // base.size)
        return np.concatenate([rng.permutation(base) for _ in range(reps)])


class FullFrame(ServeWorkload):
    """R=1/2 64800-bit code through an in-process 2-worker DecodeFabric."""

    name = "full-frame"
    rates = Rates(light=20.0, heavy=65.0, tail=90, shares=(0.36, 0.27, 0.37))
    #: Latency settles over seconds here (a batch takes ~0.5 s): one
    #: long round.  About half the frames run all 30 iterations at
    #: 3 dB; over 64 frames that share moved throughput by up to 10%
    #: from seed to seed.  128 frames halve its variance; more would
    #: add seconds of reference decode to every run.
    rounds = 1
    ebn0_db = 3.0
    pool_size = 128

    def setup(self, spans: Spans) -> None:
        with spans.span("codes.build"):
            self.code = self.make_code()
        with spans.span("fabric.start"):
            self.fabric = DecodeFabric(
                self.code, FabricConfig(workers=WORKERS, serve=SERVE)
            )
        self.fabric.submit(_warm_frame(self.code.n))
        self.fabric.flush()
        self.fabric.poll()
        self.plane = LocalPlane(
            self.fabric,
            lambda idx, now: self.fabric.submit(self.llrs[idx], now=now),
            spans=spans, layer="fabric",
        )

    def close(self) -> None:
        self.fabric.close()

    @staticmethod
    def make_code():
        return build_code("1/2")

    @classmethod
    def probe_code(cls):
        return cls.make_code(), cls.ebn0_db


class FabricScaled(FullFrame):
    """The in-process 2-worker DecodeFabric on the n=6480 code at 3 dB.

    Not a workload of its own: the traced run of a workload that does
    not serve through ``DecodeFabric`` probes the ``serve.fabric`` and
    ``serve.engine`` layers with it.  Its rates are those of
    ``gateway-scaled``, which serves the same code through a fabric.
    """

    name = "fabric-scaled"
    rates = Rates(light=110.0, heavy=365.0, tail=90, shares=(0.4, 0.14, 0.46))
    pool_size = PROBE_POOL

    @staticmethod
    def make_code():
        return build_small_code("1/2", parallelism=36)


class GatewayScaled(ServeWorkload):
    """R=1/2 n=6480 code behind a ``repro fabric`` gateway subprocess."""

    name = "gateway-scaled"
    rates = Rates(light=110.0, heavy=365.0, tail=90, shares=(0.4, 0.14, 0.46))
    ebn0_db = 3.0
    #: About 7% of the frames run all 30 iterations at 3 dB, and a
    #: batch runs as long as its slowest frame: a small pool would make
    #: throughput hinge on how many such frames the seed happened to
    #: draw.
    pool_size = 512

    def setup(self, spans: Spans) -> None:
        self.tmp = tempfile.mkdtemp(prefix="gateway-")
        port_file = os.path.join(self.tmp, "port")
        with spans.span("gateway.ready"):
            self.log = open(os.path.join(self.tmp, "gateway.log"), "w")
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "fabric",
                    "--listen", "127.0.0.1:0", "--port-file", port_file,
                    "--fabric-workers", str(WORKERS),
                    "--rate", "1/2", "--parallelism", "36",
                    "--schedule", DECODER["schedule"],
                    "--backend", DECODER["backend"],
                    "--max-batch", str(MAX_BATCH),
                    "--iterations", str(ITERATIONS),
                    "--min-iterations", str(ITERATIONS),
                    "--conn-window", str(SATURATION_OUTSTANDING // 2),
                ],
                stdout=self.log, stderr=subprocess.STDOUT,
            )
            with spans.span("codes.build"):
                self.code = build_small_code("1/2", parallelism=36)
            self.port = self._wait_port(port_file)
        warm = GatewayPlane(self.port, _warm_frame(self.code.n)[None, :])
        run_phase(
            "warm-up", warm, np.zeros(1, dtype=np.int64),
            np.zeros((1, self.code.n), dtype=np.uint8),
            rate=1000.0, duration_s=0.001, timeout_s=60,
        )
        warm.close()

    def _wait_port(self, path: str) -> int:
        deadline = time.monotonic() + 90
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("gateway exited during start-up")
            try:
                with open(path) as handle:
                    text = handle.read().strip()
                if text:
                    return int(text)
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("gateway did not bind within 90 s")

    def prepare(self, seed: int) -> None:
        super().prepare(seed)
        self.plane = GatewayPlane(self.port, self.llrs)

    def close(self) -> None:
        if self.plane is not None:
            self.plane.close()
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
                    raise RuntimeError(
                        "gateway did not stop within 20 s of SIGINT")
        finally:
            self.log.close()

    @classmethod
    def probe_code(cls):
        return build_small_code("1/2", parallelism=36), cls.ebn0_db


#: The committed scaled BPSK ladder and each rate's weight in the mix
#: (25% / 50% / 25% of the frames).
ACM_MIX = {"1/4": 1, "1/2": 2, "3/4": 1}
#: Operating point above each rate's committed threshold (dB).
ACM_MARGIN_DB = 1.0


class AcmMixed(ServeWorkload):
    """MultiModcodService over the scaled BPSK ladder, seeded MODCOD mix.

    Run only as the probe of the ``acm`` layer.  As a workload of its
    own its latencies followed the shared host's speed too closely to
    be steady: its 3x2 decode processes share 2 cores, and over 10
    seeds the quartile spread of heavy p50 reached 0.23 of the median.
    """

    name = "acm-mixed"
    rates = Rates(light=105.0, heavy=350.0, tail=90, shares=(0.4, 0.14, 0.46))
    per_rate_pool = PROBE_POOL // 2

    def setup(self, spans: Spans) -> None:
        self.modcods = [ModCod(rate) for rate in ACM_MIX]
        with spans.span("codes.build"):
            self.codes = {
                m.label: build_modcod_code(m, parallelism=36)
                for m in self.modcods
            }
        self.service = MultiModcodService(
            replace(SERVE, workers=WORKERS), parallelism=36
        )
        self.estimator = SnrEstimator()
        for m in self.modcods:
            self.service.submit(_warm_frame(self.codes[m.label].n), m)
        self.service.flush()
        self.service.poll()
        self.plane = LocalPlane(self.service, self._submit, spans=spans,
                                layer="acm")

    def _submit(self, idx: int, now: float) -> int:
        llrs = self.llrs[idx]
        with self.plane.spans.span("acm.observe"):
            self.estimator.observe(llrs)
        return self.service.submit(llrs, self.modcod_of[idx], now=now)

    def prepare(self, seed: int) -> None:
        llrs, refs, modcod_of = [], [], []
        for k, m in enumerate(self.modcods):
            code = self.codes[m.label]
            esn0 = DEFAULT_SCALED_BPSK_THRESHOLDS_DB[m.rate] + ACM_MARGIN_DB
            channel = make_channel(
                m, esn0_db=esn0, seed=np.random.SeedSequence([seed, k])
            )
            pool = make_frame_pool(
                code, pool_size=self.per_rate_pool, seed=seed + k,
                channel=channel,
            )
            llrs.append(pool.llrs)
            refs.append(reference_bits(code, pool.llrs))
            modcod_of += [m] * self.per_rate_pool
        self.llrs = np.concatenate(llrs)
        self.reference = np.concatenate(refs)
        self.modcod_of = modcod_of
        # Each cycle of the order holds every frame of a rate ``weight``
        # times: the MODCOD mix is exact, not just expected.
        base = np.concatenate([
            np.repeat(np.arange(self.per_rate_pool) + k * self.per_rate_pool,
                      weight)
            for k, weight in enumerate(ACM_MIX.values())
        ])
        self.order = self.pool_order(seed, base)

    def close(self) -> None:
        self.service.close()

    @property
    def hw_code(self):
        """The mix's majority rate stands for the ladder."""
        return self.codes[ModCod("1/2").label]


class MonteCarlo:
    """``parallel_ber`` on the n=6480 code over one warm 2-worker pool.

    Saturation repeats a sweep over three Eb/N0 points across the
    waterfall with fixed frame budgets (no adaptive stopping).  The
    latency phases time whole BER jobs back to back: ``light`` jobs are
    one 32-frame shard (one worker busy), ``heavy`` jobs two shards
    (both workers), rotating over the three points.  Each point's
    BER/FER is checked against a ``workers=1`` numpy run at the same
    seed.
    """

    name = "montecarlo"
    points = (1.0, 1.5, 2.0)
    sweep_frames = 128
    job_frames = {"light": 32, "heavy": 64}
    #: A multiple of the three points, large enough to leave 10 jobs
    #: beyond the p90 tail.
    jobs_per_phase = 102
    tail = 90
    #: Share of ``--seconds`` spent in the saturation sweeps; the job
    #: phases run a fixed number of jobs (about 11 s on 2 cores).
    saturation_share = 0.55

    def setup(self, spans: Spans) -> None:
        with spans.span("codes.build"):
            self.code = build_small_code("1/2", parallelism=36)
        with spans.span("pool.start"):
            self.pool = PersistentPool(WORKERS, label="benchmark montecarlo")
            self._ber(self.points[-1], 2, 0, shard_frames=1)

    def _ber(self, ebn0: float, frames: int, seed: int, *,
             shard_frames: int = MAX_BATCH, reference: bool = False):
        kwargs = dict(
            max_frames=frames, shard_frames=shard_frames,
            max_iterations=ITERATIONS, seed=seed,
            schedule=DECODER["schedule"],
            normalization=DECODER["normalization"],
        )
        if reference:
            return parallel_ber(self.code, ebn0, workers=1, backend="numpy",
                                **kwargs).result
        return parallel_ber(self.code, ebn0, pool=self.pool,
                            backend=DECODER["backend"], **kwargs).result

    def prepare(self, seed: int) -> None:
        self.seed = seed
        self.expected: Dict[tuple, tuple] = {}
        for j, ebn0 in enumerate(self.points):
            for frames in (self.sweep_frames, *self.job_frames.values()):
                key = (ebn0, frames, self._seed(j))
                self.expected[key] = _counts(
                    self._ber(ebn0, frames, key[2], reference=True)
                )

    def _seed(self, point: int) -> int:
        return self.seed * 10 + point

    def _job(self, j: int, frames: int):
        ebn0 = self.points[j % len(self.points)]
        seed = self._seed(j % len(self.points))
        result = self._ber(ebn0, frames, seed)
        ok = _counts(result) == self.expected[(ebn0, frames, seed)]
        return result, ok

    def run(self, seconds: float, spans: Spans = NO_SPANS,
            untraced_saturation: bool = False) -> List[PhaseResult]:
        sat = self.saturation_share * seconds
        plan = [("saturation", lambda: self._saturation(sat, spans))]
        plan += [
            (name, lambda frames=frames: self._jobs(frames, spans))
            for name, frames in self.job_frames.items()
        ]
        if untraced_saturation:
            plan.insert(0, ("saturation-untraced",
                            lambda: self._saturation(sat, NO_SPANS)))
        results = []
        for name, phase in plan:
            results.append(measured(phase))
            results[-1].name = name
        return results

    @property
    def hw_code(self):
        return self.code

    def _saturation(self, seconds: float, spans: Spans) -> PhaseResult:
        """Whole sweeps until ``seconds`` are used (at least one)."""
        records, start, j = [], time.monotonic(), 0
        while j == 0 or time.monotonic() - start < seconds:
            for _ in self.points:
                self._timed_job(records, j, self.sweep_frames, spans)
                j += 1
        return _job_phase(records, start)

    def _jobs(self, frames: int, spans: Spans) -> PhaseResult:
        """Closed loop: the next job is due when the previous returns."""
        records, start = [], time.monotonic()
        for j in range(self.jobs_per_phase):
            self._timed_job(records, j, frames, spans)
        return _job_phase(records, start)

    def _timed_job(self, records: list, j: int, frames: int,
                   spans: Spans) -> None:
        sched = time.monotonic()
        with spans.span("sim.parallel_ber"):
            result, ok = self._job(j, frames)
        records.append((sched, time.monotonic(), int(ok), {
            "frames": result.frames, "iterations": result.total_iterations,
        }))

    def close(self) -> None:
        self.pool.shutdown()

    @classmethod
    def probe_code(cls):
        return build_small_code("1/2", parallelism=36), cls.points[1]


def _counts(result) -> tuple:
    return (result.frames, result.bit_errors, result.frame_errors)


def _job_phase(records: list, start: float) -> PhaseResult:
    sched, done, good, infos = (list(col) for col in zip(*records))
    return PhaseResult(
        name="", sched=np.asarray(sched), sent=np.asarray(sched),
        done=np.asarray(done), good=np.asarray(good, dtype=np.int8),
        mismatches=len(good) - sum(good),
        wall_s=time.monotonic() - start, infos=infos, jobs=True,
    )


WORKLOADS = {cls.name: cls for cls in (FullFrame, GatewayScaled, MonteCarlo)}
#: Everything ``child.py`` can run: the workloads and the layer probes.
RUNNABLE = {
    **WORKLOADS,
    **{cls.name: cls for cls in (FabricScaled, AcmMixed)},
}

