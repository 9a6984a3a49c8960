"""Before/after timings of the exact scalar layer, written as BENCH_scalar.json.

    python bench/scalar.py --before OLD/src

Run it from the root of a checkout; OLD is a checkout of the commit to
compare against.  ``bench/beforeafter.py`` starts one measuring process
per side, which calls each row once untimed; then for ROUNDS rounds both
sides time a batch of REPEAT calls of each row in turn, each batch after
one untimed call.  The inputs come
from ``perfbench/gen.py`` with a fixed seed:
COUNT coefficients of every kind it makes (polynomials with rational
coefficients, exp, sin, cos, one quotient, sqrt) on R^2 and R^3, forms of
the same kinds, and maps with quadratic and sin components.  A row applies
one operation to every input and reports the time per operation:

* parse: ``parse_form`` of the form texts;
* parse_scalar, parse_map: ``parse_scalar`` of the coefficient texts and
  ``parse_map`` of the map texts;
* parse_coarse: per job of the ``quad_coarse`` benchmark, ``parse_form`` of
  its form and ``parse_map`` of its chart, made by that workload's
  generators (``gen.form`` with polynomial coefficients and
  ``gen.perturbed_box_map``) from their own seed;
* add, mul: ``a + b`` and ``a * b`` of consecutive coefficients;
* substitute: a coefficient through the components of a map into its space;
* differentiate: a coefficient along each of its axes;
* pullback: a form through a map;
* dd: ``d`` twice of a form;
* wedge: a form wedged with the next form of its dimension;
* lie_derivative: a form along a vector field of the next coefficients of
  its dimension;
* compose: each map on R^2 or R^3 after the next map into its domain;
* d_nest_25, d_nest_50, d_nest_75: ``d`` of ``sin(sin(...(x)))*dy`` on R^2
  with sin nested 25, 50 and 75 deep, per call;
* tape_map_k3: a fresh ``Batch`` (its evaluation tape) of the components
  and the Jacobian entries of a quadratic perturbation of the unit 3-box
  chart (``perfbench/gen.py``), the batch a Stokes check builds for its
  map, per map; the Jacobians are taken before the timing.

The ``criterion_2`` row runs the body of acceptance criterion 2 (the
200-instance symbolic property suites of ``tests/test_acceptance.py``) and
reports the time per run.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys

import beforeafter

ROUNDS = 8
REPEAT = 5
COUNT = 60
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _rows():
    """name -> (unit, operations per call, thunk)."""
    sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "tests")]
    import gen
    import test_acceptance

    import extcalc as ec
    from extcalc.scalar import Batch

    rng = random.Random(1)
    scalars, forms, maps, texts = [], [], [], []
    for i in range(COUNT):
        n = rng.randint(2, 3)
        kind = gen.COEFF_KINDS[i % len(gen.COEFF_KINDS)]
        coeff = gen.coefficient(rng, gen.AXES[:n], kind)
        scalars.append((n, ec.parse_scalar(coeff, n)))
        text = gen.form(rng, n, rng.randint(0, n - 1), kinds=(kind,), max_terms=2)
        forms.append((n, text, ec.parse_form(text, n)))
        chart = gen.smooth_map(rng, rng.randint(1, 3), n)
        maps.append(ec.parse_map(chart))
        texts.append((n, coeff, chart))
    pairs = list(zip(scalars, scalars[1:] + scalars[:1]))

    def after(i, items, fits):
        """The first of the items after the i-th, cyclically, that fits."""
        return next(b for b in items[i + 1:] + items[:i + 1] if fits(b))

    wedges = [(w, after(i, forms, lambda f: f[0] == n)[2]) for i, (n, _, w) in enumerate(forms)]
    fields = [(ec.VectorFieldSym(n, [after(i + j, scalars, lambda s: s[0] == n)[1]
                                     for j in range(n)]), w) for i, (n, _, w) in enumerate(forms)]
    composable = [(h, after(i, maps, lambda g: g.m == h.n)) for i, h in enumerate(maps) if h.n > 1]
    derivatives = [(s, axis) for n, s in scalars for axis in range(n)]
    nests = {depth: ec.parse_form("sin(" * depth + "x" + ")" * depth + "*dy", 2)
             for depth in (25, 50, 75)}
    charts = [ec.parse_map(gen.perturbed_box_map(rng, 3)) for _ in range(COUNT)]
    jets = [list(g.components) + [e for row in g.jacobian() for e in row] for g in charts]
    coarse_rng, coarse = random.Random(1), []  # as perfbench's QuadCoarse draws its jobs
    for _ in range(COUNT):
        k = coarse_rng.randint(1, 3)
        coarse.append((k, gen.form(coarse_rng, k, k - 1, kinds=("poly",)),
                       gen.perturbed_box_map(coarse_rng, k)))
        coarse_rng.randint(5, 10)  # the job's quadrature order

    def criterion_2():
        with contextlib.redirect_stdout(io.StringIO()):
            test_acceptance.test_criterion_02_property_suite()

    return {
        "parse": ("us/op", COUNT, lambda: [ec.parse_form(t, n) for n, t, _ in forms]),
        "parse_scalar": ("us/op", COUNT, lambda: [ec.parse_scalar(c, n) for n, c, _ in texts]),
        "parse_map": ("us/op", COUNT, lambda: [ec.parse_map(g) for _, _, g in texts]),
        "parse_coarse": ("us/op", COUNT, lambda: [
            (ec.parse_form(w, k), ec.parse_map(g)) for k, w, g in coarse]),
        "add": ("us/op", COUNT, lambda: [a + b for (_, a), (_, b) in pairs]),
        "mul": ("us/op", COUNT, lambda: [a * b for (_, a), (_, b) in pairs]),
        "substitute": ("us/op", COUNT, lambda: [
            s.substitute(g.components) for (_, s), g in zip(scalars, maps)]),
        "differentiate": ("us/op", len(derivatives), lambda: [
            s.differentiate(axis) for s, axis in derivatives]),
        "pullback": ("us/op", COUNT, lambda: [
            ec.pullback(g, w) for (_, _, w), g in zip(forms, maps)]),
        "dd": ("us/op", COUNT, lambda: [w.d().d() for _, _, w in forms]),
        "wedge": ("us/op", COUNT, lambda: [a.wedge(b) for a, b in wedges]),
        "lie_derivative": ("us/op", COUNT, lambda: [ec.lie_derivative(v, w) for v, w in fields]),
        "compose": ("us/op", len(composable), lambda: [ec.compose(h, g) for h, g in composable]),
        "criterion_2": ("ms", 1, criterion_2),
        **{f"d_nest_{depth}": ("ms", 1, w.d) for depth, w in nests.items()},
        "tape_map_k3": ("us/op", COUNT, lambda: [Batch(exprs) for exprs in jets]),
    }


if __name__ == "__main__":
    beforeafter.main(__doc__, __file__, "scalar", _rows, ROUNDS, REPEAT)
