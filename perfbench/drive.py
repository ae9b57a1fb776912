"""Load generation: open- and closed-loop drivers over one "plane".

A plane is whatever serves the workload's frames — an in-process
``DecodeFabric`` or ``MultiModcodService`` (:class:`LocalPlane`) or a
``repro fabric`` gateway reached over loopback NDJSON
(:class:`GatewayPlane`).  The drivers only ``send`` a pool frame,
``collect`` completions and ``wait``; every request is timed from its
scheduled send until the driver sees its result, and every completed
frame's bits are compared with the reference decode of its pool frame.
"""

from __future__ import annotations

import json
import select
import socket
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from util import NO_SPANS, Spans

#: How long a plane with frames in flight sleeps between pumps (the
#: gateway's own busy tick).
BUSY_TICK_S = 0.001
#: Longest idle sleep, so a stalled plane is noticed.
IDLE_TICK_S = 0.02
#: Leading share of a phase left out of its latency and throughput
#: figures: the plane starts each phase empty.
WARMUP_SHARE = 0.2


@dataclass
class Done:
    """One completion as the driver sees it."""

    req: int
    ok: bool
    bits: Optional[np.ndarray] = None
    #: Plane-specific facts (server latency, queue wait, occupancy ...).
    info: dict = field(default_factory=dict)


@dataclass
class PhaseResult:
    name: str
    sched: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    #: 1 = bits match, 0 = failed (reject / expiry / error / timeout / mismatch).
    good: np.ndarray
    mismatches: int
    wall_s: float
    infos: List[dict]
    #: CPU seconds during the phase: the whole process tree, the
    #: generator process alone, and the gateway server's subtree.
    cpu_s: float = 0.0
    self_cpu_s: float = 0.0
    server_cpu_s: float = 0.0
    #: True when each request is a whole Monte-Carlo job whose info
    #: carries its frame count (``montecarlo``), not a single frame.
    jobs: bool = False

    @property
    def attempted(self) -> int:
        return int(self.sched.size)

    @property
    def failed(self) -> int:
        return int(self.attempted - self.good.sum())

    def latencies_ms(self) -> np.ndarray:
        """Scheduled-send-to-result times of the checked-good requests
        scheduled after the phase's first ``WARMUP_SHARE`` (the queue
        fills from empty then)."""
        if self.jobs:
            keep = self.good.astype(bool)
        else:
            start = self.sched[0] + WARMUP_SHARE * (self.sched[-1] - self.sched[0])
            keep = self.good.astype(bool) & (self.sched >= start)
        return (self.done[keep] - self.sched[keep]) * 1e3

    def lateness_ms(self) -> np.ndarray:
        """How late the generator sent each request.  Jobs run back to
        back, so for them it is the gap between a job's result and the
        start of the next job."""
        if self.jobs:
            return (self.sched[1:] - self.done[:-1]) * 1e3
        return (self.sent - self.sched) * 1e3

    def steady_window(self) -> tuple:
        """``(frames, seconds)`` of the phase's steady part.

        Jobs count whole.  Served frames come back a batch at a time
        (one collect stamps them all alike); the window runs from the
        last result of the first burst completing after
        ``WARMUP_SHARE`` of the phase to the last result of the phase,
        and counts every result after its start.
        """
        if self.jobs:
            return self.frames, self.wall_s
        t = np.sort(self.done[np.isfinite(self.done)])
        if t.size < 2:
            return 0, 0.0
        ends = np.append(np.nonzero(np.diff(t) > 0)[0], t.size - 1)
        warm = self.sched[0] + WARMUP_SHARE * (t[-1] - self.sched[0])
        first = ends[min(np.searchsorted(t[ends], warm), ends.size - 1)]
        if first == ends[-1]:
            first = ends[-2] if ends.size > 1 else 0
        return t.size - 1 - first, t[-1] - t[first]

    @property
    def frames(self) -> int:
        """Frames completed in the phase."""
        if self.jobs:
            return sum(info["frames"] for info in self.infos)
        return int(np.isfinite(self.done).sum())


def throughput(phases: List[PhaseResult]) -> float:
    """Frames per second pooled over the steady parts of ``phases``."""
    windows = [p.steady_window() for p in phases]
    span = sum(w[1] for w in windows)
    return sum(w[0] for w in windows) / span if span > 0 else float("nan")


class LocalPlane:
    """An in-process serve plane with the submit/pump/poll/next_due API."""

    def __init__(
        self,
        service,
        submit: Callable[[int, float], int],
        *,
        spans: Spans = NO_SPANS,
        layer: str = "plane",
    ) -> None:
        self.service = service
        self._submit = submit
        self.spans = spans
        self.layer = layer
        self._req_of: Dict[int, int] = {}
        self.outstanding = 0
        self.closed = False

    def send(self, idx: int, req: int, now: float) -> None:
        with self.spans.span(f"{self.layer}.submit"):
            rid = self._submit(idx, now)
        self._req_of[rid] = req
        self.outstanding += 1

    def collect(self, now: float) -> List[Done]:
        with self.spans.span(f"{self.layer}.pump"):
            self.service.pump(now)
            results = self.service.poll()
        out = []
        for result in results:
            req = self._req_of.pop(result.request_id)
            self.outstanding -= 1
            out.append(Done(
                req=req,
                ok=result.ok,
                bits=result.bits,
                info={
                    "queued_s": result.queued_s,
                    "occupancy": result.batch_occupancy,
                    "iterations": result.iterations,
                    "modcod": result.modcod,
                    "status": result.status,
                },
            ))
        return out

    def wait(self, until: Optional[float]) -> None:
        now = time.monotonic()
        if self.outstanding:
            delay = BUSY_TICK_S
        else:
            due = self.service.next_due(now)
            delay = IDLE_TICK_S if due is None else max(due - now, 0.0)
        if until is not None:
            delay = min(delay, until - now)
        if delay > 0:
            time.sleep(min(delay, IDLE_TICK_S))


class GatewayPlane:
    """NDJSON client that reads replies as they arrive (``select``).

    Each request goes to the connection with the fewest replies
    outstanding, so no connection outgrows the gateway's per-connection
    window: past it the gateway stops reading that socket, and a client
    blocked writing to it would stop reading replies too.  Each pool
    frame's request line is encoded once (little-endian float32 hex,
    the gateway's compact form); only the id differs per request.
    """

    def __init__(
        self,
        port: int,
        llrs: np.ndarray,
        *,
        connections: int = 2,
        spans: Spans = NO_SPANS,
    ) -> None:
        self.spans = spans
        self.socks = [
            socket.create_connection(("127.0.0.1", port), timeout=30)
            for _ in range(connections)
        ]
        for sock in self.socks:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = {sock.fileno(): b"" for sock in self.socks}
        self._prefix = [encode_prefix(row) for row in llrs]
        self._inbox: List[dict] = []
        #: Replies outstanding per connection, and each request's connection.
        self._per_conn = [0] * connections
        self._conn_of: Dict[int, int] = {}
        self.outstanding = 0
        self.protocol_errors = 0
        self.closed = False
        self.bytes_sent = 0
        self.requests_sent = 0

    def send(self, idx: int, req: int, now: float) -> None:
        line = self._prefix[idx] + b"%d}\n" % req
        conn = self._per_conn.index(min(self._per_conn))
        with self.spans.span("gateway.send"):
            self.socks[conn].sendall(line)
        self._conn_of[req] = conn
        self._per_conn[conn] += 1
        self.bytes_sent += len(line)
        self.requests_sent += 1
        self.outstanding += 1

    def _read(self, timeout: float) -> List[dict]:
        ready, _, _ = select.select(self.socks, [], [], max(timeout, 0.0))
        messages = []
        for sock in ready:
            chunk = sock.recv(1 << 20)
            if not chunk:
                self.closed = True
                continue
            data = self._buf[sock.fileno()] + chunk
            *lines, rest = data.split(b"\n")
            self._buf[sock.fileno()] = rest
            messages.extend(json.loads(line) for line in lines if line)
        return messages

    def _to_done(self, messages: List[dict]) -> List[Done]:
        out = []
        for msg in messages:
            if not msg.get("ok") or msg.get("op") != "decode":
                self.protocol_errors += 1
                continue
            req = int(msg["id"])
            self._per_conn[self._conn_of.pop(req)] -= 1
            self.outstanding -= 1
            ok = msg.get("status") == "ok"
            bits = None
            if ok:
                packed = np.frombuffer(bytes.fromhex(msg["bits"]), np.uint8)
                bits = np.unpackbits(packed)[: msg["n"]]
            out.append(Done(
                req=req,
                ok=ok,
                bits=bits,
                info={
                    "server_ms": msg.get("latency_ms", float("nan")),
                    "iterations": msg.get("iterations", 0),
                    "status": msg.get("status"),
                },
            ))
        return out

    def collect(self, now: float) -> List[Done]:
        messages, self._inbox = self._inbox + self._read(0.0), []
        return self._to_done(messages)

    def wait(self, until: Optional[float]) -> None:
        # select() wakes on the first reply; what it reads waits in the
        # inbox for the next collect().
        now = time.monotonic()
        delay = IDLE_TICK_S if until is None else min(until - now, IDLE_TICK_S)
        self._inbox.extend(self._read(delay))

    def close(self) -> None:
        for sock in self.socks:
            sock.close()


def encode_prefix(llrs: np.ndarray) -> bytes:
    """A decode request line up to (not including) its id."""
    hexed = np.asarray(llrs, dtype="<f4").tobytes().hex()
    return b'{"op": "decode", "llrs_f32": "%s", "id": ' % hexed.encode()


def run_phase(
    name: str,
    plane,
    order: np.ndarray,
    reference: np.ndarray,
    *,
    rate: Optional[float] = None,
    outstanding: Optional[int] = None,
    duration_s: float,
    timeout_s: float,
) -> PhaseResult:
    """Drive one phase and check every completed frame.

    ``rate`` (frames/s) makes an open loop: request ``i`` is due at
    ``start + i / rate`` whatever the plane does, and ``rate *
    duration_s`` requests are sent.  ``outstanding`` makes a closed
    loop: that many frames stay in flight until ``duration_s`` has
    passed, then the loop drains.  ``order[i]`` is the pool frame of
    request ``i`` (cycled).  Requests still unanswered at
    ``timeout_s`` count as failed.
    """
    open_loop = rate is not None
    total = int(round(rate * duration_s)) if open_loop else None
    start = time.monotonic() + 0.005
    stop_sending = start + duration_s
    deadline = start + timeout_s
    sched: List[float] = []
    sent: List[float] = []
    frame: List[int] = []
    done: List[float] = []
    good: List[int] = []
    infos: List[dict] = []
    mismatches = completed = 0
    while time.monotonic() < deadline:
        now = time.monotonic()
        while True:  # send everything that is due
            i = len(sched)
            if open_loop:
                due = start + i / rate
                if i >= total or due > now:
                    break
            elif now >= stop_sending or plane.outstanding >= outstanding:
                break
            else:
                due = now
            sched.append(due)
            frame.append(int(order[i % order.size]))
            done.append(float("nan"))
            good.append(0)
            plane.send(frame[i], i, now)
            now = time.monotonic()
            sent.append(now)
        results = plane.collect(now)
        seen = time.monotonic()
        for d in results:
            done[d.req] = seen
            completed += 1
            d.info["req"] = d.req
            infos.append(d.info)
            if d.ok and np.array_equal(d.bits, reference[frame[d.req]]):
                good[d.req] = 1
            elif d.ok:
                mismatches += 1
        sending_over = (
            len(sched) >= total if open_loop
            else time.monotonic() >= stop_sending
        )
        if (sending_over and completed == len(sched)) or plane.closed:
            break
        plane.wait(
            start + len(sched) / rate
            if open_loop and len(sched) < total else None
        )
    wall = time.monotonic() - start
    if open_loop:
        # Requests never sent before the timeout still count as attempted.
        missing = total - len(sched)
        sched += [start + i / rate for i in range(len(sched), total)]
        sent += [float("nan")] * missing
        done += [float("nan")] * missing
        good += [0] * missing
    return PhaseResult(
        name=name,
        sched=np.asarray(sched),
        sent=np.asarray(sent),
        done=np.asarray(done),
        good=np.asarray(good, dtype=np.int8),
        mismatches=mismatches,
        wall_s=wall,
        infos=infos,
    )
