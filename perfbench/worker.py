"""One benchmark worker process: set up a workload, then run it.

Started by ``run.py``; prints ``READY`` and its CPU seconds so far when its
set-up is done and, unless ``--setup-only``, one JSON line with its results
at the end.  Run from the root of a checkout: the library is imported from
``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import speed  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
PROBES = 5  # repeats of each cli probe; the median is reported


def timed_loop(workload, seconds):
    """Closed loop, one client: the next job starts when the last is checked.
    It runs for ``seconds``, or ``workload.job_count(seconds)`` jobs.

    Returns raw wall-clock latencies, the jobs' CPU times rescaled to the
    reference machine speed (see ``speed.py``), and (job, Outcome) pairs."""
    jobs = workload.jobs
    count = workload.job_count(seconds)
    probe = workload.speed_probe()
    meter = speed.Speedometer(probe)
    walls, cpus, mids, outcomes = [], [], [], []
    try:
        meter.sample(force=True)
        start = time.perf_counter()
        i = 0
        while True:
            elapsed = time.perf_counter() - start
            if count is not None:
                if i == count:
                    break
            elif elapsed >= seconds and (not workload.whole_passes or i % len(jobs) == 0):
                break
            meter.sample()
            job = jobs[i % len(jobs)]
            c0, t0 = workload.cpu_clock(), time.perf_counter()
            result = attempt(workload.execute, job)
            walls.append(time.perf_counter() - t0)
            cpus.append(workload.cpu_clock() - c0)
            mids.append(t0 + walls[-1] / 2)
            outcomes.append((job, judge(workload, job, result)))
            i += 1
        meter.sample(force=True)
    finally:
        probe.close()
    scaled = [cpu * meter.scale(t) for cpu, t in zip(cpus, mids)]
    return walls, scaled, outcomes


def attempt(execute, job):
    """``execute(job)``: (True, result), or (False, message) when it raises."""
    try:
        return True, execute(job)
    except Exception as err:  # any escaping exception is a failed job
        return False, f"{type(err).__name__}: {err}"[:200]


def judge(workload, job, attempted):
    ok, value = attempted
    return workload.check(job, value) if ok else workloads.Outcome(False, None, value)


def summarize(outcomes):
    """outcomes: (job, Outcome) pairs."""
    failed = [(job, o) for job, o in outcomes if not o.ok]
    # A wrong answer to a well-formed job, or an error path that works
    # today and is no longer rejected cleanly, makes the run incorrect; the
    # hostile inputs of ROADMAP item 5 that are not rejected cleanly count
    # as failed jobs only.
    correct = all(job[0] == "hostile" for job, _ in failed)
    notes = sorted({o.note for _, o in failed})
    return len(outcomes), len(failed), correct, notes


def timing_metrics(latencies):
    return {
        "jobs_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
    }


def untraced(workload, seconds):
    raw, scaled, outcomes = timed_loop(workload, seconds)
    attempted, failed, correct, notes = summarize(outcomes)
    digits = [o.digits for _, o in outcomes if o.digits is not None]
    who = resource.RUSAGE_CHILDREN if isinstance(workload, workloads.Cli) else resource.RUSAGE_SELF
    metrics = {
        **timing_metrics(scaled),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
        "err_digits": (min(digits) if digits else workloads.DIGITS_CAP, "digits"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    return attempted, failed, correct, notes, metrics, timing_metrics(raw)


def traced(workload, args):
    """Run a fixed job list twice, once with spans and once without, in
    alternating order per job so that neither side always runs on warm
    caches.  Only the traced executions are checked and counted."""
    from tracing import Tracer

    jobs = workload.jobs[: len(workload.jobs) if workload.whole_passes else workload.traced_jobs]
    execute = workload.execute_in_process
    tracer = Tracer()
    base, times, outcomes = [], [], []
    for n, job in enumerate(jobs, 1):
        for with_spans in ((True, False) if n % 2 else (False, True)):
            t0 = time.perf_counter()
            if not with_spans:
                attempt(execute, job)
                base.append(time.perf_counter() - t0)
                continue
            tracer.job = n
            tracer.install()
            try:
                result = attempt(execute, job)
            finally:
                tracer.uninstall()
            times.append(time.perf_counter() - t0)
            outcomes.append((job, judge(workload, job, result)))
    attempted, failed, correct, notes = summarize(outcomes)
    metrics = tracer.metrics()
    metrics["trace.overhead_pct"] = ((sum(times) / sum(base) - 1.0) * 100.0, "%")
    metrics.update(cli_probes(base) if isinstance(workload, workloads.Cli) else {
        "cli.interp_ms": (0.0, "ms"), "cli.import_ms": (0.0, "ms"),
        "cli.import_numpy_ms": (0.0, "ms"), "cli.verb_ms": (0.0, "ms")})
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv"))
    return attempted, failed, correct, notes, metrics, {}


def cli_probes(verb_times):
    """Bare interpreter, import times from -X importtime, in-process verbs."""
    env = dict(os.environ, PYTHONPATH="src")
    interp, imp, imp_np = [], [], []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
        interp.append((time.perf_counter() - t0) * 1e3)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import extcalc.cli"],
                              cwd=ROOT, env=env, check=True, capture_output=True, text=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) / 1e3
        imp.append(cumulative["extcalc.cli"])
        imp_np.append(cumulative.get("numpy", 0.0))
    return {
        "cli.interp_ms": (statistics.median(interp), "ms"),
        "cli.import_ms": (statistics.median(imp), "ms"),
        "cli.import_numpy_ms": (statistics.median(imp_np), "ms"),
        "cli.verb_ms": (statistics.median(verb_times) * 1e3, "ms"),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    try:
        # the CPU time of this process so far: interpreter, imports, inputs
        print(f"READY {time.process_time()!r}", flush=True)
        if args.setup_only:
            return 0
        run = traced(workload, args) if args.trace else untraced(workload, args.seconds)
        attempted, failed, correct, notes, metrics, raw = run
    finally:
        workload.close()

    def as_json(table):
        return {k: {"value": v, "unit": u} for k, (v, u) in table.items()}

    print(json.dumps({"attempted": attempted, "failed": failed, "correct": correct,
                      "notes": notes[:20], "metrics": as_json(metrics), "raw": as_json(raw)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
