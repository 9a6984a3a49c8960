"""Before/after timings of quadrature and the loop guard, written as BENCH_chain.json.

    python bench/quadrature.py --before OLD/src

Run it from the root of a checkout; OLD is a checkout of the commit to
compare against.  ``bench/beforeafter.py`` starts one measuring process
per side, which calls each row once untimed (so the evaluation tapes of a
reused map are built, as in a reused geometry); then for ROUNDS rounds
both sides time a batch of REPEAT calls of each row in turn, each batch
after one untimed call, so that no timed call is the first after the
process waited for its request.  The ``quadrature_*`` and
``stokes_half_ball`` rows include what the integration path builds from the form on every call: the
symbolic pullback on the "before" side of BENCH_integrate.json, a compiled
batch of the form's coefficients on its "after" side and on both sides of
BENCH_guard.json, and nothing on the "after" side of BENCH_grid.json and on
either side of BENCH_tape.json and BENCH_chain.json, where a form keeps its
batches (``stokes_half_ball`` builds d of the form, and so a batch of its
coefficients, on every call).  A ``stokes_fresh`` row runs 20 checks on
fresh integrands and maps, so it includes all symbolic work and the
building of every batch (Python source generated and compiled on the
"before" side of BENCH_tape.json, a tape on its "after" side), and reports
the time per check.  A ``stokes_reused`` row runs the same 20 checks on
forms, their d, cells and boundaries built before the timing, so it times
only the numeric cost of the cell integral and of its boundary's faces.
A ``stokes_prebuilt`` row runs ``stokes_check`` on the same forms and cells
built before the timing, so it adds to ``stokes_reused`` what a check
builds on every call: d of the form and its batch, and the boundary.
For every row and side the output holds the number of timed calls, their
min and median, and the before/after ratio of each.  The ``linking_*`` and
``winding_q32`` rows include the distance guard on 1024 samples per loop;
``linking_far_q64`` is a pair far apart and ``linking_touching_q32`` a pair
the guard rejects, the case where it compares the most points.
BENCH_guard.json, BENCH_integrate.json, BENCH_quadrature.json,
BENCH_grid.json and BENCH_tape.json are earlier records of the same script,
from when the guard began to prune with bounding boxes, when the integral
stopped building the symbolic pullback, when it replaced the per-node
loops, when it moved to the open grid and when the evaluation tape replaced
generated source.
"""

from __future__ import annotations

import itertools
import math
import random

import beforeafter

ROUNDS = 40
REPEAT = 2


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
    rows["quadrature_k3_q48"] = ("ns/node", 48**3, lambda: ec.integrate_cell(ball, half_ball, 48))
    flux = ec.parse_form("x*z*dx/\\dy + (y + 1)*dy/\\dz", 3)
    rows["stokes_half_ball_q16"] = ("ms", 1, lambda: ec.stokes_check(flux, half_ball, 16))
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
    far, touching = (ec.Loop(Cell(((0.0, 2 * pi),), ec.parse_map(text)))
                     for text in ("map(s) = 5 + cos(s); 0; sin(s)",
                                  "map(s) = 1.99999 + cos(s); 0; sin(s)"))
    for q in (32, 64):
        rows[f"linking_hopf_q{q}"] = ("ms", 1, lambda q=q: ec.linking_number(l1, l2, q))
    rows["linking_far_q64"] = ("ms", 1, lambda: ec.linking_number(l1, far, 64))

    def linking_touching():
        try:
            ec.linking_number(l1, touching, 32)
        except ec.SingularityError:
            return
        raise AssertionError("the guard let a touching pair through")
    rows["linking_touching_q32"] = ("ms", 1, linking_touching)
    ellipse = ec.Loop(shapes.ellipse_cell(2, 1))
    rows["winding_q32"] = ("ms", 1, lambda: ec.winding_number(ellipse, 32))
    torus = surfaces["torus"]
    rows["surface_area_torus_q24"] = ("ms", 1, lambda: ec.surface_area(torus, 24))
    inputs = _stokes_inputs(7, 20)
    for q in (5, 10):
        def stokes(q=q):
            for k, form, chart in inputs:
                cell = Cell(((0.0, 1.0),) * k, ec.parse_map(chart))
                ec.stokes_check(ec.parse_form(form, k), cell, q)
        rows[f"stokes_fresh_q{q}"] = ("ms", len(inputs), stokes)
    reused = []
    for k, form, chart in inputs:
        cell = Cell(((0.0, 1.0),) * k, ec.parse_map(chart))
        form = ec.parse_form(form, k)
        reused.append((form.d(), cell, form, ec.boundary(cell)))
    for q in (5, 10):
        def stokes_reused(q=q):
            for d_form, cell, form, faces in reused:
                ec.integrate(d_form, cell, q)
                ec.integrate(form, faces, q)
        rows[f"stokes_reused_q{q}"] = ("ms", len(reused), stokes_reused)

        def stokes_prebuilt(q=q):
            for _, cell, form, _ in reused:
                ec.stokes_check(form, cell, q)
        rows[f"stokes_prebuilt_q{q}"] = ("ms", len(reused), stokes_prebuilt)
    return rows


if __name__ == "__main__":
    beforeafter.main(__doc__, __file__, "chain", _rows, ROUNDS, REPEAT)
