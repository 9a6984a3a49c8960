"""Before/after start-up timings of the CLI verbs, written as BENCH_imports.json.

    python bench/startup.py --before OLD/src

Run it from the root of a checkout; OLD is a checkout of the commit to
compare against.  A row is one command line run in a fresh interpreter:
each of the 14 verbs on a small fixed input, as
``python -c "from extcalc.cli import entry; entry()" VERB ...``, and two
reference rows, ``python -c pass`` and ``python -c "import numpy"``.  Each of
ROUNDS rounds runs every row once per side, alternating which side goes
first, with PYTHONPATH pointing at that side's ``src``.  A run records the
child's user+sys CPU time (the change in ``RUSAGE_CHILDREN`` across the
run) and its wall time (``time.perf_counter``); the output holds min and
median per side.  The stdout of every run of a row must be byte-identical
on both sides, or the script fails.

Whether PYTHONDONTWRITEBYTECODE was set is recorded: without bytecode files
every run compiles the extcalc source again, which shows in every row.
BENCH_startup.json is an earlier record of the same script, from when every
verb imported the whole package.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROUNDS = 10
CLI = "from extcalc.cli import entry; entry()"


def _write(directory, name, payload):
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def _rows(directory):
    """name -> argv after the interpreter."""
    two_pi = 2 * math.pi
    circle = _write(directory, "circle.json", {
        "ambient": 2, "cells": [{"box": [[0.0, two_pi]], "map": ["cos(x)", "sin(x)"]}]})
    disk = _write(directory, "disk.json", {
        "ambient": 2, "cells": [{"box": [[0.0, 1.0], [0.0, two_pi]],
                                 "map": ["x*cos(y)", "x*sin(y)"]}]})
    loop1 = _write(directory, "loop1.json", {
        "ambient": 3, "cells": [{"box": [[0.0, two_pi]], "map": ["cos(x)", "sin(x)", "0"]}]})
    loop2 = _write(directory, "loop2.json", {
        "ambient": 3, "cells": [{"box": [[0.0, two_pi]], "map": ["1 + cos(x)", "0", "sin(x)"]}]})
    sphere = _write(directory, "sphere.json", {
        "ambient": 3, "cells": [{"box": [[0.0, math.pi], [0.0, two_pi]],
                                 "map": ["sin(x)*cos(y)", "sin(x)*sin(y)", "cos(x)"]}]})
    problem = _write(directory, "mv.json", {
        "slots": [{"dim": 0}, {"dim": 1}, {"dim": 2}, {"dim": 2}, {}, {"dim": 0}]})
    verbs = {
        "eval": ["--form", "x*y*dz + sin(x)*dx", "--point", "1,2,3"],
        "d": ["--form", "x*y*dx + exp(x)*dy", "--dim", "2"],
        "wedge": ["--form", "x*dx", "--form", "y*dy", "--dim", "2"],
        "pullback": ["--map", "map(r, theta) = r*cos(theta); r*sin(theta)", "--form", "dx/\\dy"],
        "integrate": ["--form", "x*dy - y*dx", "--chain", circle, "--quad", "32"],
        "stokes": ["--form", "x*dy", "--chain", disk, "--quad", "32"],
        "primitive": ["--form", "y*dx + x*dy", "--dim", "2"],
        "cohomology": ["--sphere", "3"],
        "mv-solve": ["--problem", problem],
        "winding": ["--loop", circle, "--quad", "32"],
        "linking": ["--loop1", loop1, "--loop2", loop2, "--quad", "32"],
        "degree": ["--map", "map(x, y) = x^2 - y^2; 2*x*y", "--domain", circle,
                   "--codomain", circle, "--form", "(x*dy - y*dx)/(x^2 + y^2)", "--quad", "32"],
        "gauss-bonnet": ["--surface", sphere, "--chi", "2", "--quad", "16"],
        "explain": [],
    }
    rows = {"python -c pass": ["-c", "pass"], "python -c 'import numpy'": ["-c", "import numpy"]}
    for verb, args in verbs.items():
        rows[f"extcalc {verb}"] = ["-c", CLI, verb, *args]
    return rows


def _run(argv, src):
    """(stdout, child CPU ms, wall ms) of one run."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, check=True)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return proc.stdout, cpu * 1e3, wall * 1e3


def _summary(values):
    return {"min": round(min(values), 1), "median": round(statistics.median(values), 1)}


def compare(before, after):
    sides = {"before": before, "after": after}
    with tempfile.TemporaryDirectory() as directory:
        rows = _rows(directory)
        runs = {name: {"before": [], "after": []} for name in rows}
        for r in range(ROUNDS):
            order = ("before", "after") if r % 2 == 0 else ("after", "before")
            for name, argv in rows.items():
                for side in order:
                    runs[name][side].append(_run(argv, sides[side]))
    out = {}
    for name, by_side in runs.items():
        outputs = {stdout for side in by_side.values() for stdout, _, _ in side}
        if len(outputs) != 1:
            raise SystemExit(f"{name}: stdout differs between runs or sides")
        entry = {}
        for side, results in by_side.items():
            entry[side] = {
                "repeat": len(results),
                "cpu_ms": _summary([cpu for _, cpu, _ in results]),
                "wall_ms": _summary([wall for _, _, wall in results]),
            }
        for metric in ("cpu_ms", "wall_ms"):
            ratio = entry["before"][metric]["median"] / entry["after"][metric]["median"]
            entry[f"speedup_{metric}_median"] = round(ratio, 2)
        out[name] = entry
    return {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}",
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "method": f"{ROUNDS} rounds; each round runs every row once per side, alternating "
                  "which side runs first; one fresh interpreter per run; cpu_ms is the "
                  "child's user+sys time from RUSAGE_CHILDREN, wall_ms is "
                  "time.perf_counter around the run; stdout byte-identical on both sides",
        "rows": out,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="src directory of the old checkout")
    args = ap.parse_args(argv)
    result = compare(args.before, "src")
    with open("BENCH_imports.json", "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    for name, row in result["rows"].items():
        b, a = row["before"], row["after"]
        print(f"{name:28s} cpu {b['cpu_ms']['median']:7.1f} -> {a['cpu_ms']['median']:7.1f} ms"
              f"   wall {b['wall_ms']['median']:7.1f} -> {a['wall_ms']['median']:7.1f} ms")


if __name__ == "__main__":
    main()
