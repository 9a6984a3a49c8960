"""Before/after timings of exact rank, written as BENCH_rank.json.

    python bench/cohomology.py --before OLD/src

Run it from the root of a checkout; OLD is a checkout of the commit to
compare against.  ``bench/beforeafter.py`` starts one measuring process
per side, which calls each row once untimed; then for ROUNDS rounds both
sides time a batch of REPEAT calls of each row in turn, each batch after
one untimed call.  A row reports the
time per call:

* sphere_s3, sphere_s5, sphere_s6, sphere_s7: ``cech_betti`` of the
  minimal nerve of S^n (the boundary of the (n+1)-simplex; S^7 has
  coboundaries up to 126 x 126);
* closure_s7: ``Nerve.from_json`` of the S^7 facets with shuffled vertex
  labels, as ``perfbench/gen.py`` (``sphere_nerve``) writes them: the
  downward closure alone;
* simplex_12: ``cech_betti`` of the full simplex on 12 vertices (4095
  simplices, coboundaries up to 924 x 792);
* torus, klein: ``cech_betti`` of the 9-vertex grid nerves;
* eleven_vertex: ``cech_betti`` of the 11-vertex nerve of
  ``tests/helpers.py`` (Betti numbers [1, 0, 2, 0]);
* rank_no_unit_12x12: ``rank_exact`` of a fixed random 12 x 12 integer
  matrix with no entry +-1, so that no pivot is +-1.

A row times the whole call, the building of the coboundary matrices
included.  The rows do not check their results: a side that computes a
wrong rank is timed all the same.
"""

from __future__ import annotations

import os
import random
import sys

import beforeafter

ROUNDS = 8
REPEAT = 10
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _rows():
    """name -> (unit, units per call, thunk)."""
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import gen
    from helpers import ELEVEN_VERTEX_SIMPLICES

    from extcalc import cohomology as co

    nerves = {f"sphere_s{n}": co.sphere_nerve(n) for n in (3, 5, 6, 7)}
    nerves["torus"] = co.torus_nerve()
    nerves["klein"] = co.klein_nerve()
    nerves["eleven_vertex"] = co.Nerve(11, ELEVEN_VERTEX_SIMPLICES)
    nerves["simplex_12"] = co.Nerve(12, [range(12)])
    rows = {name: ("ms", 1, lambda nerve=nerve: co.cech_betti(nerve))
            for name, nerve in nerves.items()}
    facets = gen.sphere_nerve(random.Random(7), 7)[0]
    rows["closure_s7"] = ("ms", 1, lambda: co.Nerve.from_json(facets))
    rng = random.Random(12)
    values = [v for v in range(-9, 10) if abs(v) != 1]
    matrix = [[rng.choice(values) for _ in range(12)] for _ in range(12)]
    rows["rank_no_unit_12x12"] = ("ms", 1, lambda: co.rank_exact(matrix))
    return rows


if __name__ == "__main__":
    beforeafter.main(__doc__, __file__, "rank", _rows, ROUNDS, REPEAT)
