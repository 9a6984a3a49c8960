"""The vectorized quadrature core against a node-by-node scalar reference."""

import itertools
import math

import numpy as np
import pytest

from extcalc import scalar as S
from extcalc.cells import Cell
from extcalc.errors import SingularityError
from extcalc.forms import DifferentialForm
from extcalc.geometry import Loop, linking_number
from extcalc.integrate import box_rule, integrate_cell
from extcalc.maps import SmoothMap
from extcalc.scalar import evaluate_columns

from helpers import make_rng, rand_elementary, rand_poly

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

x = S.variable(0)
BOXES = (
    ((-1.5, 2.0),),
    ((-1.0, 1.0), (0.25, 1.75)),
    ((-0.5, 1.0), (-2.0, 0.5), (0.0, 1.0)),
)


def reference_rule(box, q):
    """(point, weight) pairs in lexicographic order, one node at a time."""
    xs, ws = np.polynomial.legendre.leggauss(q)
    rules = [
        [((b + a) / 2.0 + (b - a) / 2.0 * xi, (b - a) / 2.0 * wi)
         for xi, wi in zip(xs.tolist(), ws.tolist())]
        for a, b in box
    ]
    for combo in itertools.product(*rules):
        weight = 1.0
        for _, w in combo:
            weight *= w
        yield [p for p, _ in combo], weight


def reference_integral(coeff, box, q):
    """Quadrature with the scalar evaluator, one node at a time."""
    f = coeff.compiled()
    total = 0.0
    for point, weight in reference_rule(box, q):
        try:
            total += weight * f(point)
        except SingularityError as err:
            raise SingularityError(
                f"integrand singular at quadrature node {tuple(point)}: {err}"
            ) from err
    return total


def top_form(coeff, k):
    return DifferentialForm(k, k, {tuple(range(k)): coeff})


def identity_cell(box):
    return Cell(box, SmoothMap.identity(len(box)))


def outcome(fn):
    try:
        return "value", fn()
    except Exception as err:  # noqa: BLE001 - the exception itself is compared
        return type(err), str(err)


def test_box_rule_matches_reference_nodes_and_weights():
    for box in BOXES:
        for q in (2, 5, 16):
            cols, weights = box_rule(box, q)
            ref = list(reference_rule(box, q))
            assert np.array_equal(np.column_stack(cols), [p for p, _ in ref])
            assert np.array_equal(weights, [w for _, w in ref])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_column_values_match_scalar_loop(k):
    rng = make_rng(300 + k)
    box = BOXES[k - 1]
    for _ in range(12):
        coeff = rand_elementary(rng, k) * rand_poly(rng, k, 2)
        f = coeff.compiled()
        for q in (2, 5, 16):
            cols, _ = box_rule(box, q)
            (values,) = evaluate_columns([coeff], cols)
            ref = np.array([f(p) for p, _ in reference_rule(box, q)])
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(values - ref)) <= 1e-13 * scale
            expected = reference_integral(coeff, box, q)
            got = integrate_cell(top_form(coeff, k), identity_cell(box), q)
            assert isinstance(got, float)
            assert abs(got - expected) <= 1e-13 * max(1.0, abs(expected))


def test_constant_expression_fills_the_column():
    cols, _ = box_rule(BOXES[1], 5)
    (values,) = evaluate_columns([S.constant(3)], cols)
    assert values.shape == (25,) and np.all(values == 3.0)


HOSTILE = [
    ("ln(x) on [-1, 1]", S.ln(x), (-1.0, 1.0), 16),
    ("1/x at odd q", 1 / x, (-1.0, 1.0), 5),
    ("exp(1000*x)", S.exp(1000 * x), (0.0, 1.0), 16),
    ("x^400 on [0, 10]", x**400, (0.0, 10.0), 16),
]


@pytest.mark.parametrize(
    "name, coeff, interval, q", HOSTILE, ids=[h[0] for h in HOSTILE]
)
@pytest.mark.parametrize("k", [1, 2])
def test_hostile_integrand_fails_like_the_scalar_loop(name, coeff, interval, q, k):
    box = (interval, (0.0, 1.0))[:k]
    expected = outcome(lambda: reference_integral(coeff, box, q))
    got = outcome(lambda: integrate_cell(top_form(coeff, k), identity_cell(box), q))
    assert expected[0] != "value"
    assert got == expected


def test_linking_guard_names_the_dense_minimum():
    from fractions import Fraction

    th, zero = S.variable(0), S.constant(0)
    box = ((0.0, 2 * math.pi),)
    ring = Loop(Cell(box, SmoothMap(1, 3, [S.cos(th), S.sin(th), zero])))
    c = 2 - Fraction(1, 100000)
    touching = Loop(Cell(box, SmoothMap(1, 3, [c + S.cos(th), zero, S.sin(th)])))
    p1, p2 = ring.sample(1024), touching.sample(1024)
    gaps = p1[:, None, :] - p2[None, :, :]
    dense = float(np.sqrt(np.min(np.sum(gaps * gaps, axis=2))))
    with pytest.raises(SingularityError) as info:
        linking_number(ring, touching, 32)
    assert str(info.value) == (
        f"loops come within {dense:.3e} of each other; "
        "the linking integrand is nearly singular"
    )
