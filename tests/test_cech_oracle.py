"""Cech Betti numbers against sympy, an independent oracle.

Each nerve's closure is built here from every subset of every given
simplex, its coboundaries as sympy matrices, and their ranks by
``Matrix.rank()``: no sparse elimination and no clearing.  The corpus is
seeded: random downward-closed complexes on at most 7 vertices, cones over
them, S^1..S^6, the torus and Klein bottle grids, a 6-vertex RP^2 (whose
integer cohomology has torsion, so one of its pivot entries is 2), the
11-vertex nerve and a disjoint union.
"""

import itertools
import random

import pytest

from extcalc.cohomology import (
    Nerve,
    cech_betti,
    klein_nerve,
    torus_nerve,
)

from helpers import ELEVEN_VERTEX_SIMPLICES

sympy = pytest.importorskip("sympy")

# the 6-vertex real projective plane (the hemi-icosahedron)
RP2_SIMPLICES = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
    (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
]


def random_complex(rng):
    vertices = rng.randint(1, 7)
    simplices = [rng.sample(range(vertices), rng.randint(1, vertices))
                 for _ in range(rng.randint(0, 6))]
    return vertices, simplices


def cone(vertices, simplices):
    return vertices + 1, [list(s) + [vertices] for s in simplices] + [[vertices]]


def sphere_facets(n):
    """The facets of the boundary of the (n+1)-simplex, a triangulated S^n."""
    return list(itertools.combinations(range(n + 2), n + 1))


def corpus():
    rng = random.Random(29)
    out = [(f"random{i}", *random_complex(rng)) for i in range(40)]
    out += [(f"cone{i}", *cone(*random_complex(rng))) for i in range(10)]
    out += [(f"sphere{n}", n + 2, sphere_facets(n)) for n in range(1, 7)]
    out += [("torus", 9, torus_nerve().levels[2]), ("klein", 9, klein_nerve().levels[2])]
    out += [("rp2", 6, RP2_SIMPLICES), ("eleven", 11, ELEVEN_VERTEX_SIMPLICES)]
    cycle = [(5 + i, 5 + (i + 1) % 4) for i in range(4)]
    out.append(("union", 9, sphere_facets(3) + cycle))
    return [pytest.param(*case, id=case[0]) for case in out]


def closure(vertices, simplices):
    """Every nonempty subset of every simplex, and every vertex."""
    closed = {frozenset((v,)) for v in range(vertices)}
    for s in simplices:
        for r in range(1, len(s) + 1):
            closed.update(map(frozenset, itertools.combinations(s, r)))
    return closed


def oracle_betti(closed):
    top = max(map(len, closed))
    levels = [sorted(tuple(sorted(s)) for s in closed if len(s) == k + 1) for k in range(top)]
    ranks = [0] * (top + 1)  # ranks[k + 1] = rank of delta_k
    for k in range(top - 1):
        index = {s: j for j, s in enumerate(levels[k])}
        delta = sympy.zeros(len(levels[k + 1]), len(levels[k]))
        for i, s in enumerate(levels[k + 1]):
            for j in range(len(s)):
                delta[i, index[s[:j] + s[j + 1:]]] = (-1) ** j
        ranks[k + 1] = delta.rank()
    return [len(level) - ranks[k + 1] - ranks[k] for k, level in enumerate(levels)]


@pytest.mark.parametrize("name, vertices, simplices", corpus())
def test_cech_betti_against_sympy(name, vertices, simplices):
    nerve = Nerve(vertices, simplices)
    closed = closure(vertices, simplices)
    assert nerve.simplices == closed
    betti = cech_betti(nerve)
    assert betti == oracle_betti(closed)
    alternating = sum((-1) ** k * b for k, b in enumerate(betti))
    assert alternating == nerve.euler_characteristic()
    assert alternating == sum((-1) ** (len(s) - 1) for s in closed)


def test_known_answers_in_the_corpus():
    # answers no other test pins; with the test above they pin the oracle too
    expected = {"rp2": [1, 0, 0], "union": [2, 1, 0, 1], "sphere6": [1, 0, 0, 0, 0, 0, 1]}
    nerves = {name: Nerve(v, s) for name, v, s in (p.values for p in corpus()) if name in expected}
    assert {name: cech_betti(n) for name, n in nerves.items()} == expected
