"""Benchmark entry point: one workload, one run, one JSON line at the end.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 28 --trace 0

Run from the root of a checkout.  ``--trace 0`` reports the end-to-end
metrics; set-up is repeated ``SETUP_REPS`` times in fresh processes and its
median reported as ``setup_s``.  ``--trace 1`` runs a fixed job list with
spans around each layer and reports the per-layer metrics.  Workloads,
metrics and predictions are described in ``perfbench/PLAN.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 5
TIMEOUT_S = 170  # the whole run must end within 180 s


def start_worker(args, probe, setup_only):
    """Start a worker; return (process, wall seconds from start to READY,
    the worker's CPU seconds until READY rescaled to the reference machine
    speed by the workload's speed probe, sampled before and after)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    before = probe.measure()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline().split()
    ready = time.perf_counter() - t0
    if not line or line[0] != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker set-up failed (exit {proc.returncode})")
    return proc, ready, float(line[1]) * probe.ref / ((before + probe.measure()) / 2)


def finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker failed (exit {proc.returncode})")
    return json.loads(out.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "extcalc", "__init__.py")):
        print("error: run from the root of an extcalc checkout (no src/extcalc here)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    probe = WORKLOADS[args.workload].speed_probe()
    try:
        setups, raw_setups = [], []
        reps = SETUP_REPS if args.trace == 0 else 1
        for rep in range(reps):
            last = rep == reps - 1
            proc, ready, scaled = start_worker(args, probe, setup_only=not last)
            raw_setups.append(ready)
            setups.append(scaled)
            if not last:
                finish_setup(proc, deadline)
        result = finish(proc, deadline)
    except (RuntimeError, ValueError, subprocess.SubprocessError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        probe.close()
    if args.trace == 0:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["raw"]["setup_s"] = {"value": statistics.median(raw_setups), "unit": "s"}
    report(args, result)
    result = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


def finish_setup(proc, deadline):
    try:
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up worker failed (exit {proc.returncode})")


def report(args, result):
    """Human-readable lines before the JSON result."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  oracle: {attempted} jobs attempted, {failed} failed "
          f"(fail_ratio {failed / attempted:.4f}), correct={result['correct']}")
    for note in result["notes"]:
        print(f"  failure: {note}")
    for name, m in sorted(result["metrics"].items()):
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    for name, m in sorted(result["raw"].items()):
        print(f"  raw wall-clock {name:17s} {m['value']:14.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
