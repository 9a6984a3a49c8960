"""The before/after driver shared by the ``bench/`` scripts that time calls.

A script names its rows, ``name -> (unit, units per call, thunk)``, where the
unit is a time per node, operation or call ("ns/node", "us/op", "ms"), and
hands them to ``main``.  With ``--before OLD/src`` one measuring process per
side starts once (``--serve``), with PYTHONPATH pointing at that side's
``src``; it builds every row's inputs and calls each row once untimed, so
code generation and caches are warm.  Then for ``rounds`` rounds, row by
row, each side makes one untimed call and then times a batch of ``repeat``
calls with ``time.perf_counter``, the two sides of a row one right after
the other and the side that goes first alternating, so a burst of host load
hits both sides of a row rather than a whole row of one side.  The untimed
call takes the wake-up after the request's pipe round trip, so no timed
call is a cold one.  The script then writes ``BENCH_<topic>.json``.  For
every row and side the output holds the number of timed calls and their min
and median, and every row the before/after ratios of both: on a shared host
the medians wander with the load, so a ratio by min may be the one that
resolves.  ``--serve < /dev/null`` builds and calls every row once in the
importable extcalc and exits, as a quick check that every row runs.
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


def _time(row, count):
    """count timed calls of a row's thunk, each in the row's unit."""
    unit, units, thunk = row
    scale = _PER_SECOND[unit.split("/")[0]] / units
    times = []
    for _ in range(count):
        start = time.perf_counter()
        thunk()
        times.append((time.perf_counter() - start) * scale)
    return times


def serve(rows):
    """The measuring side of ``compare``: call every row once untimed,
    print the rows' units, then answer each request line "name count" on
    stdin with one untimed call and the times of count calls after it,
    until stdin closes."""
    for _, _, thunk in rows.values():
        thunk()
    print(json.dumps({name: row[0] for name, row in rows.items()}), flush=True)
    for line in sys.stdin:
        name, count = line.split()
        rows[name][2]()
        print(json.dumps(_time(rows[name], int(count))), flush=True)


def _reply(proc):
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"a measuring process exited (code {proc.wait()})")
    return json.loads(line)


def compare(script, before, after, rounds, repeat):
    procs = {}
    try:
        for side, src in (("before", before), ("after", after)):
            env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
            procs[side] = subprocess.Popen(
                [sys.executable, script, "--serve"], env=env, text=True,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        built = {side: _reply(proc) for side, proc in procs.items()}
        if built["before"] != built["after"]:
            raise RuntimeError("the two sides built different rows")
        units = built["after"]
        times = {"before": {}, "after": {}}
        for r in range(rounds):
            for i, name in enumerate(units):
                order = ("before", "after") if (r + i) % 2 == 0 else ("after", "before")
                for side in order:
                    procs[side].stdin.write(f"{name} {repeat}\n")
                    procs[side].stdin.flush()
                    times[side].setdefault(name, []).extend(_reply(procs[side]))
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait()
    rows = {}
    for name, unit in units.items():
        entry = {"unit": unit}
        for side in ("before", "after"):
            ts = times[side][name]
            entry[side] = {"repeat": len(ts), "min": round(min(ts), 4),
                           "median": round(statistics.median(ts), 4)}
        for stat in ("min", "median"):
            entry[f"speedup_{stat}"] = round(entry["before"][stat] / entry["after"][stat], 2)
        rows[name] = entry
    return {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}",
        "method": f"one measuring process per side for the whole run; {rounds} rounds, "
                  f"in each every row makes one untimed call and times a batch of "
                  f"{repeat} calls on one side and then on the other, the side that goes "
                  "first alternating from row to row and round to round; one untimed "
                  "call per row before the first round; wall time by time.perf_counter",
        "rows": rows,
    }


def main(doc, script, topic, rows, rounds, repeat, argv=None):
    """The command line of the before/after script at path ``script`` whose
    docstring is ``doc``; ``rows`` is a function that imports extcalc and
    returns the rows."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--serve", action="store_true",
                    help="answer timing requests on stdin (the measuring side of --before)")
    ap.add_argument("--before", help="src directory of the old checkout")
    args = ap.parse_args(argv)
    if args.serve:
        serve(rows())
        return
    if not args.before:
        ap.error("--before is required unless --serve is given")
    result = compare(script, args.before, "src", rounds, repeat)
    with open(f"BENCH_{topic}.json", "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    for name, row in result["rows"].items():
        before, after = row["before"]["median"], row["after"]["median"]
        print(f"{name:28s} {before:12.4f} -> {after:10.4f} {row['unit']:8s} "
              f"x{row['speedup_median']} (by min x{row['speedup_min']})")
