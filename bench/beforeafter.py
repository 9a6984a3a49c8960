"""The before/after driver shared by the ``bench/`` scripts that time calls.

A script names its rows, ``name -> (unit, units per call, thunk)``, where the
unit is a time per node, operation or call ("ns/node", "us/op", "ms"), and
hands them to ``main``.  With ``--before OLD/src`` each of ``rounds`` rounds
runs one measuring process per side, alternating which side goes first, with
PYTHONPATH pointing at that side's ``src``; the script then writes
``BENCH_<topic>.json``.  A measuring process (``--measure``) builds every
row's inputs, calls the row once untimed, so code generation and caches are
warm, then times ``repeat`` calls with ``time.perf_counter``.  For every row
and side the output holds the number of timed calls and their min and median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

_PER_SECOND = {"ns": 1e9, "us": 1e6, "ms": 1e3}


def measure(rows, repeat):
    out = {}
    for name, (unit, units, thunk) in rows.items():
        thunk()
        scale = _PER_SECOND[unit.split("/")[0]] / units
        times = []
        for _ in range(repeat):
            start = time.perf_counter()
            thunk()
            times.append((time.perf_counter() - start) * scale)
        out[name] = {"unit": unit, "times": times}
    return out


def _run_side(script, src):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, script, "--measure"],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare(script, before, after, rounds, repeat):
    sides = {"before": before, "after": after}
    times = {"before": {}, "after": {}}
    units = {}
    for r in range(rounds):
        order = ("before", "after") if r % 2 == 0 else ("after", "before")
        for side in order:
            for name, row in _run_side(script, sides[side]).items():
                units[name] = row["unit"]
                times[side].setdefault(name, []).extend(row["times"])
    rows = {}
    for name, unit in units.items():
        entry = {"unit": unit}
        for side in ("before", "after"):
            ts = times[side][name]
            entry[side] = {"repeat": len(ts), "min": round(min(ts), 4),
                           "median": round(statistics.median(ts), 4)}
        ratio = entry["before"]["median"] / entry["after"]["median"]
        entry["speedup_median"] = round(ratio, 2)
        rows[name] = entry
    return {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}",
        "method": f"{rounds} rounds of one measuring process per side, alternating "
                  f"which side runs first, {repeat} timed calls per row per process "
                  "after one untimed call; wall time by time.perf_counter",
        "rows": rows,
    }


def main(doc, script, topic, rows, rounds, repeat, argv=None):
    """The command line of the before/after script at path ``script`` whose
    docstring is ``doc``; ``rows`` is a function that imports extcalc and
    returns the rows."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--measure", action="store_true",
                    help="time the importable extcalc and print JSON")
    ap.add_argument("--before", help="src directory of the old checkout")
    args = ap.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(rows(), repeat)))
        return
    if not args.before:
        ap.error("--before is required unless --measure is given")
    result = compare(script, args.before, "src", rounds, repeat)
    with open(f"BENCH_{topic}.json", "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    for name, row in result["rows"].items():
        before, after = row["before"]["median"], row["after"]["median"]
        print(f"{name:28s} {before:12.4f} -> {after:10.4f} {row['unit']:8s} "
              f"x{row['speedup_median']}")
