"""Steadiness self-check for the benchmark.

    python3 perfbench/steady.py --runs 10 --seed 100

Runs ``run.py`` on each workload of ``BENCHMARK.json`` ``--runs`` times,
for its ``run_seconds``, with seeds ``--seed``, ``--seed + 1``, ...  For
every end-to-end metric it prints the distance between the first and third
quartile of the runs as a share of their median, next to the metric's
bound in ``BENCHMARK.json``; ``setup_s`` is shown but exempt.  Then it
makes two traced runs of each workload with the same seed and checks that
the count metrics repeat exactly.  Exits 1 when a spread reaches its bound
or a count differs.  Run from the root of a checkout; a summary is written
to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
COUNTS = ("integrate.nodes", "geometry.nodes", "cohomology.rank_entries", "maps.jacobian_evals")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # the raw wall-clock figures run.py prints before the result, for comparison
    result["raw"] = {ln.split()[2]: float(ln.split()[3]) for ln in lines[:-1]
                     if ln.strip().startswith("raw wall-clock")}
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100)
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary, bad = {}, []
    for workload in (w["name"] for w in bench["workloads"]):
        results = [run(workload, args.seed + i, seconds, 0) for i in range(args.runs)]
        rows = summary.setdefault(workload, {})
        print(f"{workload}: {args.runs} runs, failed {[r['failed'] for r in results]}, "
              f"correct {all(r['correct'] for r in results)}", flush=True)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            s = spread(values)
            raw = [r["raw"][name] for r in results if name in r["raw"]]
            rows[name] = {"values": values, "median": statistics.median(values), "spread": s,
                          "bound": bound, "raw_values": raw}
            flag = "" if name == "setup_s" or s < bound else "  OVER BOUND"
            if flag:
                bad.append(f"{workload} {name}")
            raw_note = f"  (raw wall-clock spread {spread(raw):.4f})" if raw else ""
            print(f"  {name:16s} median {statistics.median(values):12.6g}  spread {s:7.4f}"
                  f"  bound {bound:5.2f}  ({s / bound:5.2f} of bound){flag}{raw_note}", flush=True)
        if not all(r["correct"] for r in results):
            bad.append(f"{workload} incorrect")
        first, second = (run(workload, args.seed, seconds, 1)["metrics"] for _ in range(2))
        names = [n for n in first if n.endswith(".calls") or n in COUNTS]
        differ = [n for n in names if first[n]["value"] != second[n]["value"]]
        rows["counts"] = {n: first[n]["value"] for n in names}
        print(f"  counts repeat exactly: {not differ}" + (f" (differ: {differ})" if differ else ""),
              flush=True)
        bad.extend(f"{workload} count {n}" for n in differ)
    os.makedirs(os.path.join(".bench_build", "perfbench"), exist_ok=True)
    path = os.path.join(".bench_build", "perfbench", f"steady-{int(time.time())}.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1)
    print(f"summary: {path}")
    if bad:
        print("NOT STEADY: " + ", ".join(bad))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
