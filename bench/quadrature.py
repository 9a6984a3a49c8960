"""Before/after timings of the quadrature paths, written as BENCH_quadrature.json.

    python bench/quadrature.py --before OLD/src

Run it from the root of a checkout; OLD is a checkout of the commit to
compare against.  Each of ROUNDS rounds runs one measuring process per side,
alternating which side goes first, with PYTHONPATH pointing at that side's
``src``.  A measuring process builds every row's inputs, calls the row once
untimed (so code generation and symbolic caches are warm, as in a reused
geometry), then times REPEAT calls with ``time.perf_counter``.  The
``integrate_cell`` rows include the symbolic pullback of the form, which
runs on every call; a ``stokes_check`` row runs 20 checks on fresh
integrands, so it includes pullback and code generation too, and reports
the time per check.  For every row
and side the output holds the number of timed calls and their min and
median.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time

ROUNDS = 8
REPEAT = 5


def _stokes_inputs(seed, count):
    """(k, form text, map text) of random polynomial (k-1)-forms over
    quadratic perturbations of the unit k-box."""
    rng = random.Random(seed)
    axes, params = ("x", "y", "z"), ("u", "v", "w")
    out = []
    for _ in range(count):
        k = rng.randint(1, 3)
        terms = []
        for idx in itertools.combinations(range(k), k - 1):
            monomials = []
            for _ in range(rng.randint(1, 3)):
                factors = [rng.choice(axes[:k]) for _ in range(rng.randint(0, 2))]
                monomials.append("*".join([str(rng.randint(1, 5))] + factors))
            coeff = " + ".join(monomials)
            basis = "/\\".join(f"d{axes[i]}" for i in idx)
            terms.append(f"({coeff})*{basis}" if basis else coeff)
        form = " + ".join(terms)
        comps = []
        for p in params[:k]:
            comp = p
            for _ in range(rng.randint(1, 2)):
                a, b = rng.choice(params[:k]), rng.choice(params[:k])
                comp += f" {rng.choice('+-')} 1/{rng.choice((8, 12, 16))}*{a}*{b}"
            comps.append(comp)
        out.append((k, form, f"map({', '.join(params[:k])}) = {'; '.join(comps)}"))
    return out


def _rows():
    """name -> (unit, nodes or Stokes checks per call, thunk); the unit is
    per node or per check."""
    import extcalc as ec
    from extcalc import shapes
    from extcalc.cells import Cell

    pi = math.pi
    rows = {}
    area = ec.sphere_area_form()
    ball = ec.parse_form("(1 + z + x^2)*dx/\\dy/\\dz", 3)
    circle = shapes.circle_cell()
    sphere, half_ball = shapes.sphere_cell(), shapes.half_ball_cell()
    angular = ec.angular_form()
    rows["quadrature_k1_q64"] = ("ns/node", 64, lambda: ec.integrate_cell(angular, circle, 64))
    rows["quadrature_k2_q64"] = ("ns/node", 64**2, lambda: ec.integrate_cell(area, sphere, 64))
    rows["quadrature_k3_q32"] = ("ns/node", 32**3, lambda: ec.integrate_cell(ball, half_ball, 32))
    surfaces = {
        "sphere": ec.Surface([shapes.sphere_cell()], 2),
        "torus": ec.Surface([shapes.torus_cell()], 0),
        "ellipsoid": ec.Surface([shapes.ellipsoid_cell()], 2),
    }
    for name, surface in surfaces.items():
        for q in (24, 64):
            rows[f"gauss_bonnet_{name}_q{q}"] = (
                "ms", 1, lambda s=surface, q=q: ec.gauss_bonnet_check(s, q))
    l1, l2 = (ec.Loop(Cell(((0.0, 2 * pi),), ec.parse_map(text)))
              for text in ("map(s) = cos(s); sin(s); 0", "map(s) = 1 + cos(s); 0; sin(s)"))
    for q in (32, 64):
        rows[f"linking_hopf_q{q}"] = ("ms", 1, lambda q=q: ec.linking_number(l1, l2, q))
    torus = surfaces["torus"]
    rows["surface_area_torus_q24"] = ("ms", 1, lambda: ec.surface_area(torus, 24))
    inputs = _stokes_inputs(7, 20)
    for q in (5, 10):
        def stokes(q=q):
            for k, form, chart in inputs:
                cell = Cell(((0.0, 1.0),) * k, ec.parse_map(chart))
                ec.stokes_check(ec.parse_form(form, k), cell, q)
        rows[f"stokes_fresh_q{q}"] = ("ms", len(inputs), stokes)
    return rows


def measure():
    out = {}
    for name, (unit, units, thunk) in _rows().items():
        thunk()
        scale = (1e9 if unit == "ns/node" else 1e3) / units
        times = []
        for _ in range(REPEAT):
            start = time.perf_counter()
            thunk()
            times.append((time.perf_counter() - start) * scale)
        out[name] = {"unit": unit, "times": times}
    return out


def _run_side(src):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, __file__, "--measure"],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare(before, after):
    sides = {"before": before, "after": after}
    times = {"before": {}, "after": {}}
    units = {}
    for r in range(ROUNDS):
        order = ("before", "after") if r % 2 == 0 else ("after", "before")
        for side in order:
            for name, row in _run_side(sides[side]).items():
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
        "method": f"{ROUNDS} rounds of one measuring process per side, alternating "
                  f"which side runs first, {REPEAT} timed calls per row per process "
                  "after one untimed call; wall time by time.perf_counter",
        "rows": rows,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--measure", action="store_true",
                    help="time the importable extcalc and print JSON")
    ap.add_argument("--before", help="src directory of the old checkout")
    args = ap.parse_args(argv)
    if args.measure:
        print(json.dumps(measure()))
        return
    if not args.before:
        ap.error("--before is required unless --measure is given")
    result = compare(args.before, "src")
    with open("BENCH_quadrature.json", "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    for name, row in result["rows"].items():
        before, after = row["before"]["median"], row["after"]["median"]
        print(f"{name:28s} {before:12.4f} -> {after:10.4f} {row['unit']:8s} "
              f"x{row['speedup_median']}")


if __name__ == "__main__":
    main()
