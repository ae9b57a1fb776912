"""One benchmark process: ``setup``, ``measure``, ``probe`` or ``layers``.

``run.py`` starts every mode in a fresh process (``PYTHONPATH=src``)
and reads the JSON object this prints as its last line.  ``probe`` is a
traced ``measure`` of a workload shrunk to one short round over a small
pool (:meth:`workloads.ServeWorkload.as_probe`), run for the serving
layers a traced workload does not reach itself.  ``--t0`` is
the orchestrator's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so ``setup_s`` counts interpreter
start and imports too.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from typing import Dict, List

import numpy as np

from drive import PhaseResult, encode_prefix, throughput
from layers import hw_metrics, probe_layers
from util import NO_SPANS, Spans, median, pct, tree_peak_rss_mb, tree_pids
from workloads import RUNNABLE


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _batch_mean_occupancy(infos) -> float:
    """Mean occupancy per batch from per-frame records: a batch of
    occupancy ``o`` contributes ``o`` frames of weight ``1/o``."""
    occ = np.array([i["occupancy"] for i in infos if i.get("occupancy")])
    return occ.size / np.sum(1.0 / occ) if occ.size else float("nan")


def _group(phases: List[PhaseResult]) -> Dict[str, List[PhaseResult]]:
    """Phases by name: the rounds of one phase pool into one figure."""
    groups: Dict[str, List[PhaseResult]] = {}
    for phase in phases:
        groups.setdefault(phase.name, []).append(phase)
    return groups


def end_to_end(wl, groups, peak_rss_mb) -> tuple:
    sat = groups["saturation"]
    out = {
        "throughput_fps": _metric(throughput(sat), "frames/s"),
        "cpu_ms_per_frame": _metric(
            sum(p.cpu_s for p in sat) / sum(p.frames for p in sat) * 1e3,
            "ms"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    samples = {}
    for name in ("light", "heavy"):
        lat = np.concatenate([p.latencies_ms() for p in groups[name]])
        out[f"latency_p50_ms.{name}"] = _metric(pct(lat, 50), "ms")
        out[f"latency_tail_ms.{name}"] = _metric(pct(lat, wl.tail), "ms")
        samples[f"{name} (tail p{wl.tail})"] = int(lat.size)
    return out, samples


def per_layer(wl, groups, spans: Spans) -> dict:
    traced = [p for name, ps in groups.items() for p in ps
              if not name.endswith("untraced")]
    infos = [i for p in traced for i in p.infos]
    wall = sum(p.wall_s for p in traced)
    sat = groups["saturation"]
    out = {
        "codes.build_s": _metric(sum(spans.durations("codes.build")), "s"),
        "loadgen.busy_share": _metric(
            sum(p.self_cpu_s for p in traced) / wall, "ratio"),
    }
    if "saturation-untraced" in groups:
        out["trace.throughput_ratio"] = _metric(
            throughput(sat) / throughput(groups["saturation-untraced"]),
            "ratio")
    loaded = [p for name in ("light", "heavy") for p in groups[name]]
    late = np.concatenate([p.lateness_ms() for p in loaded])
    out["loadgen.late_p99_ms"] = _metric(
        pct(late[np.isfinite(late)], 99), "ms")
    if spans.durations("fabric.start"):
        busy = sum(spans.durations("fabric.submit")) + \
            sum(spans.durations("fabric.pump"))
        out.update({
            "fabric.start_s": _metric(spans.durations("fabric.start")[0], "s"),
            "fabric.parent_busy_share": _metric(busy / wall, "ratio"),
            "fabric.pump_ms.p50": _metric(
                median(spans.durations("fabric.pump")) * 1e3, "ms"),
            "fabric.submit_us": _metric(
                median(spans.durations("fabric.submit")) * 1e6, "us"),
        })
    if infos and "queued_s" in infos[0]:
        out.update({
            "engine.queue_wait_ms.p50": _metric(
                median(i["queued_s"] for i in infos) * 1e3, "ms"),
            "engine.occupancy_mean": _metric(
                _batch_mean_occupancy(infos), "frames"),
            "engine.iterations_mean": _metric(
                np.mean([i["iterations"] for i in infos]), "iterations"),
        })
    if wl.name == "acm-mixed":
        out["acm.observe_us"] = _metric(
            median(spans.durations("acm.observe")) * 1e6, "us")
        out["acm.decode_processes"] = _metric(wl.decode_processes, "count")
        for m in wl.modcods:
            rate = "r" + m.rate.replace("/", "_")
            out[f"acm.occupancy_mean.{rate}"] = _metric(
                _batch_mean_occupancy(
                    [i for i in infos if i["modcod"] == m.label]), "frames")
    if wl.name == "gateway-scaled":
        encode = []
        for row in wl.llrs:
            t0 = time.monotonic()
            encode_prefix(row)
            encode.append(time.monotonic() - t0)
        overhead = [
            (p.done[i["req"]] - p.sent[i["req"]]) * 1e3 - i["server_ms"]
            for p in loaded for i in p.infos if i.get("status") == "ok"
        ]
        out.update({
            "gateway.ready_s": _metric(spans.durations("gateway.ready")[0], "s"),
            "gateway.req_bytes_per_frame": _metric(
                wl.plane.bytes_sent / wl.plane.requests_sent, "B"),
            "gateway.encode_us": _metric(median(encode) * 1e6, "us"),
            "gateway.overhead_ms.p50": _metric(median(overhead), "ms"),
            "gateway.server_cpu_ms_per_frame": _metric(
                sum(p.server_cpu_s for p in sat)
                / sum(p.frames for p in sat) * 1e3, "ms"),
        })
    iters = sum(i["iterations"] for i in infos)
    frames = sum(p.frames for p in traced)
    for name, (value, unit) in hw_metrics(wl.hw_code, iters / frames).items():
        out[name] = _metric(value, unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode",
                        choices=("setup", "measure", "probe", "layers"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--probe-of", default=None,
                        help="probe mode: the workload to run as the probe")
    args = parser.parse_args(argv)
    # A process started in the background of a shell inherits SIGINT
    # ignored, and so would the gateway subprocess, which stops on
    # SIGINT.  Installing a handler here lets exec reset it to default.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    if args.mode == "layers":
        result = probe_layers(args.workload, args.seed)
        print(json.dumps({k: _metric(*v) for k, v in result.items()}))
        return 0

    if args.mode == "probe":
        wl = RUNNABLE[args.probe_of]()
        wl.as_probe()
        args.trace = 1
    else:
        wl = RUNNABLE[args.workload]()
    spans = Spans() if args.trace else NO_SPANS
    wl.setup(spans)
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        wl.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    wl.prepare(args.seed)
    untraced = args.mode == "measure" and bool(args.trace)
    phases = wl.run(args.seconds, spans, untraced_saturation=untraced)
    wl.decode_processes = len(tree_pids()) - 1
    peak = tree_peak_rss_mb()
    wl.close()
    groups = _group(phases)
    metrics, samples = end_to_end(wl, groups, peak)
    if args.trace:
        metrics = per_layer(wl, groups, spans)
        spans.dump(args.spans_out)
    report = {
        "setup_s": setup_s,
        "metrics": metrics,
        "samples": samples,
        "phases": {
            name: {
                "rounds": len(ps),
                "attempted": sum(p.attempted for p in ps),
                "failed": sum(p.failed for p in ps),
                "mismatches": sum(p.mismatches for p in ps),
                "wall_s": sum(p.wall_s for p in ps),
            }
            for name, ps in groups.items()
        },
        "protocol_errors": getattr(
            getattr(wl, "plane", None), "protocol_errors", 0),
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
