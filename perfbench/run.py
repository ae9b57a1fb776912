"""Layered decode benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload full-frame --seed 1 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics: a fresh ``measure``
process runs the workload's saturation, heavy and light phases with
every decoded frame checked bit for bit, and two more fresh ``setup``
processes give ``setup_s`` three samples (the median is reported).
``--trace 1`` prints the per-layer metrics: a ``layers`` process times
``sim.pool`` and the ``decode`` kernel on their own, then a traced
``measure`` process records spans around every call into the serving
layers (written to ``.bench_build/spans/``) and compares its traced
saturation throughput with an untraced one.  Every per-layer metric is
printed on every workload: the serving layers a workload does not reach
itself (``serve.fabric``/``serve.engine``, ``serve.gateway``, ``acm``)
are timed by a ``probe`` process that serves a small pool through that
layer for a few seconds (``fabric-scaled``, ``gateway-scaled`` and
``acm-mixed`` in ``workloads.py``); the table marks those metrics with
the probe they came from.

Every process runs under one hard deadline; a process that overruns is
killed with its whole process group and the run fails naming the
workload.  The program is read only from ``src/`` of the checkout; the
compiled kernels it builds at run time land under ``.bench_build/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("full-frame", "gateway-scaled", "montecarlo")
#: Whole-run budget; one run must end within 180 s.
BUDGET_S = 165.0
SETUP_SAMPLES = 3
#: Layer probes, in order: what ``workloads.RUNNABLE`` runs as the probe
#: and the metric groups it supplies when the traced workload lacks them.
PROBES = (
    ("fabric-scaled", ("fabric.", "engine.")),
    ("gateway-scaled", ("gateway.",)),
    ("acm-mixed", ("acm.",)),
)
PROBE_SECONDS = 4

#: Per-layer metric prefix -> the end-to-end metrics it should move.
MOVES = {
    "codes.": "setup_s",
    "decode.first_call_s": "setup_s",
    "decode.": "throughput_fps, latency_p50_ms.light",
    "pool.": "throughput_fps, cpu_ms_per_frame",
    "engine.": "latency_*",
    "fabric.start_s": "setup_s",
    "fabric.": "throughput_fps, latency_*.heavy",
    "gateway.": "throughput_fps, latency_*",
    "acm.": "none here: probe only (acm-mixed is not a workload)",
    "hw.": "nothing: simulated time (yardstick)",
    "loadgen.": "validity of the run",
    "trace.": "tracing overhead (traced / untraced)",
}


class RunFailed(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + BUDGET_S
        self.build = ROOT / ".bench_build"
        self.tmp = self.build / "tmp" / f"{workload}-{seed}-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=src if not path else src + os.pathsep + path,
            # The kernel compiler's scratch directory stays in the checkout.
            TMPDIR=str(self.tmp),
        )

    def child(self, mode: str, *extra: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunFailed(f"{self.workload}: out of time before {mode}")
        log = self.tmp / f"{mode}.stderr"
        t0 = time.monotonic()
        with open(log, "w") as err:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), mode,
                 "--workload", self.workload, "--seed", str(self.seed),
                 "--t0", repr(t0), *extra],
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=err,
                start_new_session=True,
            )
            try:
                out, _ = proc.communicate(timeout=remaining)
            except subprocess.TimeoutExpired:
                _kill_group(proc.pid)
                proc.communicate()
                raise RunFailed(
                    f"{self.workload}: {mode} process hung "
                    f"(killed after {time.monotonic() - t0:.0f} s)"
                )
            finally:
                # Whatever the child left behind (workers, a gateway)
                # goes with its process group.
                _kill_group(proc.pid)
        if proc.returncode != 0:
            tail = log.read_text()[-2000:]
            raise RunFailed(
                f"{self.workload}: {mode} exited {proc.returncode}\n{tail}"
            )
        lines = out.decode().strip().splitlines()
        return json.loads(lines[-1])

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run(args) -> dict:
    runner = Runner(args.workload, args.seed)
    probed = {}
    try:
        common = ("--seconds", str(args.seconds))
        if args.trace:
            layers = runner.child("layers")
            spans = runner.build / "spans" / f"{args.workload}-{args.seed}"
            report = runner.child("measure", *common, "--trace", "1",
                                  "--spans-out", f"{spans}.jsonl")
            metrics = {**layers, **report["metrics"]}
            for owner, prefixes in PROBES:
                missing = tuple(
                    p for p in prefixes
                    if not any(name.startswith(p) for name in metrics)
                )
                if not missing:
                    continue
                probe = runner.child(
                    "probe", "--probe-of", owner,
                    "--seconds", str(PROBE_SECONDS),
                    "--spans-out", f"{spans}-probe-{owner}.jsonl",
                )
                for name, value in probe["metrics"].items():
                    if name.startswith(missing):
                        metrics[name] = value
                        probed[name] = owner
                for name, phase in probe["phases"].items():
                    report["phases"][f"probe {owner}/{name}"] = phase
                report["protocol_errors"] += probe["protocol_errors"]
            kernel_fps = 32e3 / layers["decode.batch_ms.occ32"]["value"]
            metrics["hw.kernel_share_of_eq8"] = {
                "value": kernel_fps / metrics["hw.eq8_fps"]["value"],
                "unit": "ratio",
            }
        else:
            report = runner.child("measure", *common)
            setups = [report["setup_s"]] + [
                runner.child("setup")["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)
            ]
            metrics = dict(report["metrics"])
            metrics["setup_s"] = {
                "value": statistics.median(setups), "unit": "s"
            }
    finally:
        runner.close()
    phases = report["phases"]
    attempted = sum(p["attempted"] for p in phases.values())
    failed = sum(p["failed"] for p in phases.values())
    mismatches = sum(p["mismatches"] for p in phases.values())
    if not args.trace:
        metrics["ok_share"] = {
            "value": (attempted - failed) / attempted, "unit": "ratio"
        }
    _print_table(args, metrics, report, attempted, failed, mismatches,
                 probed)
    return {
        "correct": mismatches == 0 and report["protocol_errors"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _moves(name: str) -> str:
    for prefix, target in MOVES.items():
        if name.startswith(prefix):
            return target
    return ""


def _print_table(args, metrics, report, attempted, failed, mismatches,
                 probed):
    kind = "per-layer (traced run)" if args.trace else "end-to-end"
    print(f"# {args.workload}  seed={args.seed}  seconds={args.seconds}  "
          f"{kind}")
    for name, phase in report["phases"].items():
        print(f"#   phase {name:<34} rounds={phase['rounds']} "
              f"attempted={phase['attempted']:<6} "
              f"failed={phase['failed']:<4} bit_mismatches="
              f"{phase['mismatches']:<4} wall={phase['wall_s']:.2f}s")
    for name, count in report.get("samples", {}).items():
        print(f"#   latency samples {name}: {count}")
    print(f"#   failed_share = {failed / attempted:.6f} "
          f"({failed} of {attempted}; bit mismatches {mismatches}, "
          f"protocol errors {report['protocol_errors']})")
    for name in sorted(metrics):
        m = metrics[name]
        line = f"  {name:<34} {m['value']:>14.6g} {m['unit']:<10}"
        if args.trace:
            line += f" -> {_moves(name)}"
            if name in probed:
                line += f"  [probe: {probed[name]}]"
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except RunFailed as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
