"""The vectorized quadrature core against a node-by-node scalar reference."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from extcalc import scalar as S
from extcalc.cells import Cell, Chain
from extcalc.errors import SingularityError
from extcalc.forms import DifferentialForm
from extcalc.geometry import Loop, linking_number
from extcalc.integrate import box_rule, integrate, integrate_cell
from extcalc.maps import SmoothMap
from extcalc.scalar import Batch, flat_nodes

from helpers import make_rng, rand_elementary, rand_form, rand_map, rand_poly

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

x = S.variable(0)
BOXES = (
    ((-1.5, 2.0),),
    ((-1.0, 1.0), (0.25, 1.75)),
    ((-0.5, 1.0), (-2.0, 0.5), (0.0, 1.0)),
)


def reference_rule(box, q):
    """(point, weight) pairs in lexicographic order, one node at a time; a
    pinned entry is one node of weight 1."""
    xs, ws = np.polynomial.legendre.leggauss(q)
    rules = [
        [(float(entry), 1.0)] if isinstance(entry, (int, float)) else
        [((entry[1] + entry[0]) / 2.0 + (entry[1] - entry[0]) / 2.0 * xi,
          (entry[1] - entry[0]) / 2.0 * wi)
         for xi, wi in zip(xs.tolist(), ws.tolist())]
        for entry in box
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


def flat_rule(box, q):
    """The nodes of box_rule as flat columns, and the weights in the same
    order."""
    grid, weights = box_rule(box, q)
    return flat_nodes(grid), weights.ravel()


def test_box_rule_matches_reference_nodes_and_weights():
    for box in BOXES:
        for q in (2, 5, 16):
            cols, weights = flat_rule(box, q)
            ref = list(reference_rule(box, q))
            assert np.array_equal(np.column_stack(cols), [p for p, _ in ref])
            assert np.array_equal(weights, [w for _, w in ref])


def test_open_grid_lists_the_reference_nodes():
    pinned = (((-1.0, 1.0), 0.75, (0.25, 1.75)), (0.5, -2.0))
    for box in BOXES + pinned:
        k = sum(isinstance(entry, tuple) for entry in box)
        for q in (2, 5, 16):
            grid, weights = box_rule(box, q)
            assert weights.shape == ((q,) * k or (1,))
            # the i-th free axis varies along dimension i only, and a pinned
            # one is a single value
            free = [c for c in grid if np.size(c) > 1]
            assert [np.shape(c) for c in free] == [
                tuple(q if d == i else 1 for d in range(k)) for i in range(k)]
            assert all(np.shape(c) == (1,) * max(k, 1) for c in grid if np.size(c) == 1)
            ref = list(reference_rule(box, q))
            assert np.array_equal(np.column_stack(flat_nodes(grid)), [p for p, _ in ref])
            assert np.array_equal(weights.ravel(), [w for _, w in ref])


def flat_integral(form, cell, q):
    """integrate_cell on flat columns: every node at full length, the map
    and the coefficients through Batch.evaluate, one np.sum."""
    from extcalc.integrate import _minors

    grid, weights = box_rule(cell.box, q)
    cols = flat_nodes(grid)
    g = cell.mapping
    comps, jac = g.columns(cols)
    zero = [[e.is_zero() for e in row] for row in g.jacobian()]
    minors = _minors(lambda i, j: None if zero[i][j] else jac[i, j], list(form.terms),
                     cell.free_axes)
    coeffs = Batch(form.terms.values()).evaluate(list(comps))
    values = sum(a * minor for a, minor in zip(coeffs, minors) if minor is not None)
    return cell.orientation * float(np.sum(weights.ravel() * values))


def random_cell(rng, pinned, k, m):
    """A k-cell in R^m through a random map, with `pinned` parameters
    pinned in front at random values."""
    box = tuple(rng.uniform(-1.0, 1.0) for _ in range(pinned))
    for _ in range(k):
        a = rng.uniform(-1.0, 0.5)
        box += ((a, a + rng.uniform(0.25, 1.5)),)
    return Cell(box, rand_map(rng, pinned + k, m), rng.choice((1, -1)))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_open_grid_integral_equals_the_flat_one(k):
    rng = make_rng(700 + k)
    for q in (2, 5, 16, 47, 48):
        # a full cell, and (for k >= 1) a face pinned on its first axis;
        # points (k = 0) are pinned on every axis
        for pinned in ((0, 1) if k else (1, 2, 3)):
            m = rng.randint(max(k, 1), 3)
            cell = random_cell(rng, pinned, k, m)
            for kind in ("poly", "elementary"):
                form = rand_form(rng, m, k)
                if kind == "elementary":
                    form = DifferentialForm(m, k, {i: rand_elementary(rng, m) for i in form.terms})
                assert integrate_cell(form, cell, q) == flat_integral(form, cell, q)
        grid, _ = box_rule(cell.box, q)
        assert np.array_equal(np.concatenate(cell.mapping.columns(grid), axis=None),
                              np.concatenate(cell.mapping.columns(flat_nodes(grid)), axis=None))


def test_a_pinned_value_rounds_like_a_flat_column():
    # numpy rounds some powers of an array differently from Python's
    # float ** (libm pow), so a pinned axis must stay an array
    rng = make_rng(77)
    y = S.variable(1)
    form = DifferentialForm(2, 1, {(1,): x**3 + x**5 * y})
    for _ in range(200):
        cell = Cell((rng.uniform(-2.0, 2.0), (0.0, 1.0)), SmoothMap.identity(2))
        assert integrate_cell(form, cell, 2) == flat_integral(form, cell, 2)


def test_a_constant_component_rounds_like_a_flat_column():
    # a constant map component reaches the coefficients as an array, so
    # numpy, not Python's float **, raises it to powers
    rng = make_rng(78)
    u, v, z = S.variable(0), S.variable(1), S.variable(2)
    form = DifferentialForm(3, 2, {(0, 1): z**3 + z**5 * x})
    for _ in range(300):
        c = Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
        a = rng.uniform(-1.0, 0.5)
        box = ((a, a + rng.uniform(0.25, 1.5)), (0.0, 1.0))
        cell = Cell(box, SmoothMap(2, 3, [u, v, S.constant(c)]))
        assert integrate_cell(form, cell, 2) == flat_integral(form, cell, 2)


def test_fine_three_cell_peak_memory():
    import tracemalloc

    from extcalc import shapes

    x, y, z = (S.variable(i) for i in range(3))
    ball = DifferentialForm(3, 3, {(0, 1, 2): 1 + z + x * x})
    integrate_cell(ball, shapes.half_ball_cell(), 2)  # lazy imports
    tracemalloc.start()
    try:
        integrate_cell(ball, shapes.half_ball_cell(), 48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("k", [1, 2, 3])
def test_column_values_match_scalar_loop(k):
    rng = make_rng(300 + k)
    box = BOXES[k - 1]
    for _ in range(12):
        coeff = rand_elementary(rng, k) * rand_poly(rng, k, 2)
        f = coeff.compiled()
        for q in (2, 5, 16):
            cols, _ = flat_rule(box, q)
            (values,) = Batch([coeff]).evaluate(cols)
            ref = np.array([f(p) for p, _ in reference_rule(box, q)])
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(values - ref)) <= 1e-13 * scale
            expected = reference_integral(coeff, box, q)
            got = integrate_cell(top_form(coeff, k), identity_cell(box), q)
            assert isinstance(got, float)
            assert abs(got - expected) <= 1e-13 * max(1.0, abs(expected))


def test_constant_expression_fills_the_column():
    cols, _ = flat_rule(BOXES[1], 5)
    (values,) = Batch([S.constant(3)]).evaluate(cols)
    assert values.shape == (25,) and np.all(values == 3.0)


def test_batch_computes_a_shared_atom_once(monkeypatch):
    calls = []
    monkeypatch.setitem(S._column_fns(), "sin", lambda u: calls.append(u) or np.sin(u))
    exprs = [S.sin(x), 2 * S.sin(x) * S.cos(x), S.sin(x) ** 2 + x]
    cols, _ = flat_rule(BOXES[0], 5)
    values = Batch(exprs).evaluate(cols)
    assert len(calls) == 1
    for e, row in zip(exprs, values):
        f = e.compiled()
        ref = np.array([f(p) for p, _ in reference_rule(BOXES[0], 5)])
        assert np.max(np.abs(row - ref)) <= 1e-13 * max(1.0, float(np.max(np.abs(ref))))


def test_coefficients_that_round_to_one_double_share_a_register():
    # 1/3 and 1/3 + 10^-30 differ exactly but round to one double: one step
    # computes both terms, with the bits of either alone
    third, near = Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30)
    assert float(third) == float(near) and third != near
    y = S.variable(1)
    exprs = [third * x * y, near * x * y, near * x * y + 1]
    width, steps, outputs = S._tape(exprs)
    assert outputs[0] == outputs[1]
    assert sum(op == "*" and c == float(third) for op, c, _ in steps) == 1
    cols, _ = flat_rule(BOXES[1], 5)
    values = Batch(exprs).evaluate(cols)
    for e, row in zip(exprs, values):
        assert np.array_equal(row, Batch([e]).evaluate(cols)[0])
    point = (0.3, -1.7)
    assert Batch(exprs).at(point) == tuple(Batch([e]).at(point)[0] for e in exprs)


def test_coefficients_that_round_to_zero_keep_their_sign():
    # +-10^-400 both round to a zero, which compare equal as floats: each
    # keeps its own register and the sign of its zero
    tiny = Fraction(1, 10**400)
    exprs = [tiny * x, -tiny * x, -tiny * x, tiny * x * x]
    _, _, outputs = S._tape(exprs)
    assert outputs[0] != outputs[1] and outputs[1] == outputs[2]
    signs = [1.0, -1.0, -1.0, 1.0]
    values = Batch(exprs).at((2.0,))
    assert values == (0.0, -0.0, -0.0, 0.0)
    assert [math.copysign(1.0, v) for v in values] == signs
    cols, _ = flat_rule(((0.5, 2.0),), 4)  # x > 0, so a product keeps the sign
    for row, sign in zip(Batch(exprs).evaluate(cols), signs):
        assert np.all(row == 0.0) and np.all(np.copysign(1.0, row) == sign)


def test_column_guards_give_nan_where_the_scalar_evaluator_raises():
    # no warning either: this module turns a RuntimeWarning into an error
    batch = Batch([S.ln(x), 1 / x, S.sqrt(x), x])
    col = np.array([-1.0, 0.0, 2.0])
    values = batch.columns([col])
    for e, row in zip(batch.exprs, values):
        f = e.compiled()
        for value, point in zip(np.broadcast_to(row, col.shape).tolist(), col.tolist()):
            kind, expected = outcome(lambda: f([point]))
            if kind == "value":
                assert math.isclose(value, expected, rel_tol=1e-15)
            else:
                assert kind is SingularityError and math.isnan(value)


HOSTILE = [
    ("ln(x) on [-1, 1]", S.ln(x), (-1.0, 1.0), 16),
    ("1/x at odd q", 1 / x, (-1.0, 1.0), 5),
    # a guard that let -inf through would make exp give 0 at the node x = 0
    ("exp(-1/x^2) at odd q", S.exp(-1 / x**2), (-1.0, 1.0), 5),
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


def test_an_overflowing_product_names_its_first_node_once(monkeypatch):
    # every node overflows to inf, and Python's float * raises nothing, so
    # the scalar evaluators run at the first node only
    seen = []
    at = Batch.at
    monkeypatch.setattr(Batch, "at", lambda self, p: seen.append(tuple(p)) or at(self, p))
    y = S.variable(1)
    box = ((1e60, 2e60), (1e60, 2e60))
    form = DifferentialForm(2, 2, {(0, 1): S.constant(10**200) * x * y})
    with pytest.raises(SingularityError) as err:
        integrate_cell(form, identity_cell(box), 64)
    cols, _ = flat_rule(box, 64)
    first = (cols[0][0].item(), cols[1][0].item())
    assert str(err.value) == f"integrand singular at quadrature node {first}: not a finite number"
    assert set(seen) == {first}


def test_an_overflowing_weighted_sum_is_refused():
    # every node value is finite, but the weighted sum of a cell, or of a
    # chain of finite cell integrals, is not
    cell = Cell(((0.0, 1e308),), SmoothMap(1, 2, [x, x]))
    with pytest.raises(SingularityError, match="sum is not a finite number"):
        integrate_cell(DifferentialForm(2, 1, {(0,): x}), cell, 16)
    line = identity_cell(((0.0, 1e308),))
    assert integrate_cell(top_form(S.constant(1), 1), line) == 1e308
    with pytest.raises(SingularityError, match="sum is not a finite number"):
        integrate(top_form(S.constant(1), 1), Chain.of(line, line))


def test_batch_names_the_first_node_a_product_overflows():
    # 1e200 * 1e200 is inf without a Python exception; 2 * 1e300 is finite
    y = S.variable(1)
    cols = [np.array([1.0, 1e200, 1e300, 2.0]), np.array([1.0, 1e200, 1e300, 1e300])]
    with pytest.raises(SingularityError) as err:
        Batch([x, x * y]).evaluate(cols)
    assert str(err.value) == "value not finite at node (1e+200, 1e+200)"


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


def test_winding_guard_names_the_dense_minimum():
    from fractions import Fraction

    from extcalc.geometry import winding_number

    th = S.variable(0)
    c = 1 + Fraction(1, 10000)
    near = Loop(Cell(((0.0, 2 * math.pi),), SmoothMap(1, 2, [c + S.cos(th), S.sin(th)])))
    p = near.sample(1024)
    dense = float(np.sqrt(np.min(np.sum(p * p, axis=1))))
    with pytest.raises(SingularityError) as info:
        winding_number(near, 32)
    assert str(info.value) == f"loop comes within {dense:.3e} of the origin"


GUARD_SIZES = [1, 31, 32, 33, 1024]


def guard_points(kind, size, d, rng, offset):
    """A point set of the given size in R^d: the origin for size 1, else a
    random cloud or samples along a random closed polyline, shifted by
    offset along the first axis."""
    if size == 1:
        return np.zeros((1, d))
    if kind == "cloud":
        pts = rng.uniform(-1.0, 1.0, (size, d))
    else:
        corners = rng.uniform(-1.0, 1.0, (5, d))
        ends = np.roll(corners, -1, axis=0)
        t = np.linspace(0.0, 5.0, size, endpoint=False)
        i = t.astype(int)
        pts = corners[i] + (t - i)[:, None] * (ends[i] - corners[i])
    pts[:, 0] += offset
    return pts


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["cloud", "polyline"])
@pytest.mark.parametrize("size1", GUARD_SIZES)
@pytest.mark.parametrize("size2", GUARD_SIZES)
def test_pruned_guard_matches_the_dense_minimum(d, kind, size1, size2):
    from extcalc.geometry import _min_distance

    rng = np.random.default_rng([d, size1, size2, len(kind)])
    for offset in (0.0, 1.5, 2.2, 4.0):
        p1 = guard_points(kind, size1, d, rng, 0.0)
        p2 = guard_points(kind, size2, d, rng, offset)
        squares = sum((p1[:, None, i] - p2[None, :, i]) ** 2 for i in range(d))
        dense = math.sqrt(float(squares.min()))
        bounds = (dense / 2, dense, math.nextafter(dense, math.inf), 2 * dense, math.inf)
        for bound in bounds:
            got = _min_distance(p1, p2, bound)
            if dense < bound:
                assert got == dense
            else:
                assert got >= bound
