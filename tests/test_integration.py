"""Numeric integration over chains: periods, boundaries, Stokes."""

import hashlib
import importlib
import itertools
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from extcalc import scalar as S
from extcalc import shapes as sh
from extcalc.cells import Cell, Chain, free_axes
from extcalc.errors import DegreeError, DimensionMismatch, ParseError, SingularityError
from extcalc.forms import (
    DifferentialForm,
    VectorFieldSym,
    angular_form,
    flux_form,
    interior_product,
    sphere_area_form,
    work_form,
)
from extcalc.integrate import (
    boundary,
    box_rule,
    hemisphere_transfer_check,
    integrate,
    integrate_cell,
    stokes_check,
)
from extcalc.maps import SmoothMap, compose, freeze_axis, pullback
from extcalc.scalar import flat_nodes

from helpers import count_calls, make_rng, rand_elementary, rand_form, rand_map, rand_poly

x, y, z = S.variable(0), S.variable(1), S.variable(2)
DF = DifferentialForm
TWO_PI = 2 * math.pi


class TestPeriods:
    def test_circle_period(self):
        w = DF(2, 1, {(0,): -y, (1,): x})
        value = integrate_cell(w, sh.circle_cell(), 32)
        assert abs(value - TWO_PI) <= 1e-10

    def test_sphere_period(self):
        value = integrate_cell(sphere_area_form(), sh.sphere_cell(), 32)
        assert abs(value - 4 * math.pi) <= 1e-6

    def test_zero_form(self):
        assert integrate_cell(DF.zero(2, 1), sh.circle_cell(), 8) == 0.0


class TestChains:
    def test_cancellation(self):
        cell = sh.circle_cell()
        chain = Chain([(1, cell), (-1, cell)])
        w = DF(2, 1, {(1,): x})
        assert integrate(w, chain, 16) == 0.0

    def test_point_chain(self):
        # a point is a 0-cell: a pinned box, or an empty box with a constant map
        identity = SmoothMap.identity(1)
        pc = Chain([(1, Cell((3,), identity)), (-1, Cell((1,), identity))])
        f = DF.from_scalar(1, x)
        assert integrate(f, pc) == 2.0
        point = Cell((), SmoothMap(0, 1, [S.constant(5)]))
        assert integrate(f, Chain([(2, point)])) == 10.0

    def test_weights_must_be_integers(self):
        cell = sh.interval_cell(0, 1)
        for weight in (0.5, 1.9, "2"):
            with pytest.raises(ParseError):
                Chain([(weight, cell)])
        chain = Chain([(2.0, cell)])
        assert chain.terms[0][0] == 2 and isinstance(chain.terms[0][0], int)
        assert integrate(DF.basis(1, 0), chain) == 2.0

    def test_zero_weight_chain_has_a_boundary(self):
        # the faces of a weight-0 cell carry weight 0; the boundary is not empty
        chain = Chain([(0, sh.interval_cell(0, 1))])
        assert stokes_check(DF.from_scalar(1, x), chain) == (0.0, 0.0, 0.0)

    def test_fundamental_theorem(self):
        f = DF.from_scalar(1, x**3 + x)
        lhs, rhs, res = stokes_check(f, sh.interval_cell(0, 1), 16)
        assert abs(lhs - 2.0) <= 1e-12
        assert abs(rhs - 2.0) <= 1e-12
        assert res <= 1e-12


class TestBoundary:
    def test_interval(self):
        cell = sh.interval_cell(0, 1)
        b = boundary(cell)
        assert b.k == 0
        assert [(w, face.box) for w, face in b] == [(1, (1.0,)), (-1, (0.0,))]
        assert all(face.mapping is cell.mapping for _, face in b)
        assert integrate(DF.from_scalar(1, x * x + 3), b) == 1.0

    def test_unit_square_is_counterclockwise(self):
        chain = boundary(sh.square_cell())
        value = integrate(DF(2, 1, {(1,): x}), chain, 16)
        assert abs(value - 1.0) <= 1e-12

    def test_half_space_sign_pattern(self):
        # lower face of the last axis carries sign (-1)^n (axes counted from 1)
        for n in range(1, 5):
            cell = sh.box_cell(*(((0.0, 1.0),) * n))
            faces = list(boundary(cell))
            weight_last_lower = faces[2 * (n - 1) + 1][0]
            assert weight_last_lower == (-1) ** n
            for j in range(n):
                assert faces[2 * j][0] == (-1) ** j
                assert faces[2 * j + 1][0] == -((-1) ** j)

    def test_boundary_of_boundary_vanishes(self):
        rng = make_rng(10)
        disk_bb = boundary(boundary(sh.disk_cell()))
        f = DF.from_scalar(2, rand_poly(rng, 2, 3))
        assert disk_bb.k == 0
        assert abs(integrate(f, disk_bb)) <= 1e-10
        ball_bb = boundary(boundary(sh.half_ball_cell()))
        w = DF(3, 1, {(i,): rand_poly(rng, 3, 2) for i in range(3)})
        assert abs(integrate(w, ball_bb, 8)) <= 1e-10


class TestFaces:
    """A face is its parent cell with one parameter pinned."""

    def test_pinned_face_matches_frozen_map(self):
        rng = make_rng(21)
        for _ in range(30):
            k = rng.randint(1, 3)
            n = rng.randint(k, 3)
            g = rand_map(rng, k, n, degree=2)
            box = []
            for _ in range(k):
                a = rng.choice((-1.0, -0.5, 0.0, 0.25))
                box.append((a, a + rng.choice((0.5, 1.0, 1.5))))
            form = rand_form(rng, n, k - 1)
            for _, face in boundary(Cell(tuple(box), g)):
                assert face.mapping is g and face.k == k - 1
                (j,) = [i for i, entry in enumerate(face.box) if not isinstance(entry, tuple)]
                rest = face.box[:j] + face.box[j + 1:]
                frozen = Cell(rest, freeze_axis(g, j, Fraction(face.box[j])))
                pinned = integrate_cell(form, face, 6)
                expected = integrate_cell(form, frozen, 6)
                assert math.isclose(pinned, expected, rel_tol=1e-13, abs_tol=1e-15)

    def test_faces_equal_validated_cells(self):
        # faces are built without re-validation; each equals the Cell that
        # the checking constructor makes of its box and map
        rng = make_rng(2101)
        for _ in range(40):
            pinned = rng.randint(0, 2)
            k = rng.randint(1, 3)
            box = [rng.choice((-1, 0.5, Fraction(1, 3), -0.0)) for _ in range(pinned)]
            for _ in range(k):
                a = rng.choice((-1, 0, 0.25))
                box.append((a, a + rng.choice((1, 0.5, Fraction(3, 2)))))
            rng.shuffle(box)
            cell = Cell(tuple(box), rand_map(rng, len(box), 2), rng.choice((1, -1)))
            for chain in (boundary(cell), boundary(Chain([(2, cell), (-1, cell.flipped())]))):
                assert chain.k == k - 1 and chain.ambient == 2
                for w, face in chain:
                    checked = Cell(face.box, face.mapping)
                    assert type(w) is int
                    assert face == checked and hash(face) == hash(checked)
                    assert repr(face) == repr(checked)
                    assert face.free_axes == checked.free_axes
                    assert face.orientation == 1 and face.k == k - 1
                    assert all(type(e) is float or type(e) is tuple and
                               all(type(v) is float for v in e) for e in face.box)

    def test_stokes_builds_no_pullback_and_one_map_batch(self, monkeypatch):
        maps = importlib.import_module("extcalc.maps")
        # count pullback wherever a module of the package looks it up
        pullbacks = [
            count_calls(monkeypatch, module, "pullback")
            for name, module in list(sys.modules.items())
            if name.split(".")[0] == "extcalc"
            and getattr(module, "pullback", None) is maps.pullback
        ]
        batches = count_calls(monkeypatch, maps, "Batch")
        w = DF(3, 2, {(0, 1): x * z, (1, 2): y + 1})
        _, _, res = stokes_check(w, sh.half_ball_cell(), 8)
        assert res <= 1e-8
        assert pullbacks and all(calls == [] for calls in pullbacks)
        # the ball and its six faces share the map's value-and-Jacobian batch
        assert len(batches) == 1

    def test_repeated_integral_builds_no_batch(self, monkeypatch):
        forms, maps = (importlib.import_module(f"extcalc.{name}") for name in ("forms", "maps"))
        built = [count_calls(monkeypatch, module, "Batch") for module in (forms, maps)]
        w = DF(3, 2, {(0, 1): x * z, (1, 2): y + 1})
        cell = sh.hemisphere_cell()
        first = integrate_cell(w, cell, 8)
        # one batch of the form's coefficients and one of the map
        assert [len(calls) for calls in built] == [1, 1]
        assert integrate_cell(w, cell, 8) == first
        assert integrate(w, Chain.of(cell, cell), 16) == 2 * integrate_cell(w, cell, 16)
        assert [len(calls) for calls in built] == [1, 1]

    def test_face_singularity_names_parent_coordinates(self):
        u, v = S.variable(0), S.variable(1)
        cell = Cell(((0.0, 1.0), (2.0, 3.0)), SmoothMap(2, 2, [u, v]))
        w = DF(2, 1, {(1,): S.ln(x)})
        with pytest.raises(SingularityError) as err:
            integrate(w, boundary(cell), 4)
        assert err.value.__cause__.node[0] == 0.0
        assert "node (0.0, 2." in str(err.value)

    def test_face_singularity_through_a_map_names_parameters(self):
        # g(0, v) = (0, 2 + v): ln(x) blows up on the face u = 0, and the
        # node is named in the parameters (u, v), not at the point g(u, v)
        u, v = S.variable(0), S.variable(1)
        cell = Cell(((0.0, 1.0), (0.0, 1.0)), SmoothMap(2, 2, [u * v, 2 + u + v]))
        w = DF(2, 1, {(1,): S.ln(x)})
        with pytest.raises(SingularityError) as err:
            integrate(w, boundary(cell), 4)
        first = flat_nodes(box_rule(((0.0, 1.0),), 4)[0])[0][0].item()
        assert err.value.__cause__.node == (0.0, first)
        assert f"quadrature node (0.0, {first!r}): ln of a non-positive value" in str(err.value)

    def test_face_never_evaluates_its_pinned_derivative(self, monkeypatch):
        # d/dr sqrt(r) is singular on the face r = 0, which does not use it
        r, t = S.variable(0), S.variable(1)
        comps = [S.sqrt(r) * S.cos(t), S.sqrt(r) * S.sin(t)]
        disk = Cell(((0.0, 1.0), (0.0, TWO_PI)), SmoothMap(2, 2, comps))
        w = DF(2, 1, {(1,): x})
        center = list(boundary(disk))[1][1]
        assert center.box[0] == 0.0
        assert integrate_cell(w, center, 8) == 0.0
        lhs, rhs, _ = stokes_check(w, disk, 8)
        assert abs(lhs - math.pi) <= 1e-12 and abs(rhs - math.pi) <= 1e-4
        # nor does the face fall back on the scalar evaluators
        compiled = count_calls(monkeypatch, S.ScalarExpr, "compiled")
        at = count_calls(monkeypatch, S.Batch, "at")
        stokes_check(w, disk, 16)
        assert (len(compiled), len(at)) == (0, 0)

    def test_stokes_on_points_rejected(self):
        points = boundary(sh.interval_cell(0, 1))
        with pytest.raises(DegreeError, match="dimension >= 1"):
            stokes_check(DF.from_scalar(1, x), points)
        with pytest.raises(DegreeError):
            boundary(points)

    def test_pinned_box_rule(self):
        grid, weights = box_rule(((0.0, 1.0), 0.5, (2.0, 4.0)), 3)
        cols = flat_nodes(grid)
        assert [len(c) for c in cols] == [9, 9, 9]
        assert (cols[1] == 0.5).all()
        assert abs(weights.sum() - 2.0) <= 1e-15
        full_grid, full_weights = box_rule(((0.0, 1.0), (2.0, 4.0)), 3)
        full = flat_nodes(full_grid)
        assert (cols[0] == full[0]).all() and (cols[2] == full[1]).all()
        assert (weights == full_weights).all()

    def test_map_must_take_every_box_entry(self):
        with pytest.raises(DimensionMismatch):
            Cell(((0.0, 1.0), 0.5), SmoothMap.identity(1))


def symbolic_integral(form, cell, q):
    """The reference route: the pulled-back form built symbolically, then
    the quadrature of its coefficient on the free axes, with the printed
    coefficient evaluated at every node in 40-digit arithmetic, so that the
    round-off of the expanded coefficient does not enter.  Returns the
    integral and the sum of |weight * value| over the nodes."""
    mpmath = pytest.importorskip("mpmath")

    coeff = pullback(cell.mapping, form).terms.get(free_axes(cell.box))
    if coeff is None:
        return 0.0, 0.0
    # integer literals become exact mpf values; exponents stay ints
    text = re.sub(r"(?<![\^\w])(\d+)", r"mpf(\1)", S.format_expr(coeff, 3))
    code = compile(text.replace("^", "**"), "<coefficient>", "eval")
    env = {"mpf": mpmath.mpf, "exp": mpmath.exp, "ln": mpmath.log,
           "sin": mpmath.sin, "cos": mpmath.cos, "sqrt": mpmath.sqrt}
    grid, weights = box_rule(cell.box, q)
    cols, weights = flat_nodes(grid), weights.ravel()
    with mpmath.workdps(40):
        terms = [mpmath.mpf(w) * eval(code, {**env, **dict(zip("xyz", map(mpmath.mpf, p)))})
                 for p, w in zip(zip(*(c.tolist() for c in cols)), weights.tolist())]
        total, scale = mpmath.fsum(terms), mpmath.fsum(abs(t) for t in terms)
    return cell.orientation * float(total), float(scale)


class TestPullbackOracle:
    """integrate against the symbolic pullback on random maps and forms."""

    @staticmethod
    def _case(rng, k, m, kind):
        box = []
        for _ in range(k):
            a = rng.choice((-1.0, -0.5, 0.0, 0.25))
            box.append((a, a + rng.choice((0.5, 1.0, 1.5))))
        if kind == "elementary-map":
            # no quotient components: without a polynomial gcd their symbolic
            # pullback swells past what the reference route can compile
            comps = [rand_poly(rng, k, 2) + rng.choice((S.exp, S.sin, S.cos))(
                rand_poly(rng, k, 1, terms=2)) for _ in range(m)]
            g = SmoothMap(k, m, comps)
        else:
            g = rand_map(rng, k, m, degree=2)
        form = rand_form(rng, m, k - 1)
        if kind == "elementary-form":
            form = DF(m, k - 1, {idx: rand_elementary(rng, m) for idx in form.terms})
        return Cell(tuple(box), g), form

    def _check(self, form, cell, q):
        expected, scale = symbolic_integral(form, cell, q)
        got = integrate(form, cell, q)
        assert math.isclose(got, expected, rel_tol=1e-13, abs_tol=1e-13 * scale)

    @pytest.mark.parametrize("kind", ["poly", "elementary-map", "elementary-form"])
    def test_cells_faces_and_points(self, kind):
        """Full cells with k <= m, where the minors of several index sets add
        up; each of their faces, pinned on one parameter; and the 0-cells at
        the ends of 1-cells."""
        rng = make_rng(90)
        seen = set()
        for _ in range(12):
            k = rng.randint(1, 3)
            m = rng.randint(k, 3)
            cell, form = self._case(rng, k, m, kind)
            self._check(form.d(), cell, 5)
            for _, face in boundary(cell):
                self._check(form, face, 5)
            seen.add((k, m))
        assert {(1, 1), (2, 3), (1, 3)} <= seen


class TestStokes:
    def test_green_on_disk(self):
        w = DF(2, 1, {(1,): x})
        lhs, rhs, res = stokes_check(w, sh.disk_cell(), 32)
        assert abs(lhs - math.pi) <= 1e-8
        assert abs(rhs - math.pi) <= 1e-8
        assert res <= 1e-8

    def test_kelvin_stokes_on_hemisphere(self):
        v = VectorFieldSym(3, [y * z, -x, x * x])
        lhs, rhs, res = stokes_check(work_form(v), sh.hemisphere_cell(), 32)
        assert res <= 1e-6

    def test_degree_mismatch_rejected(self):
        w = DF(2, 1, {(1,): x})
        with pytest.raises(DegreeError):
            stokes_check(w, sh.circle_cell(), 8)

    def test_random_forms_on_random_cells(self):
        rng = make_rng(11)
        u, v = S.variable(0), S.variable(1)
        mapping = SmoothMap(2, 3, [u + v * v, u * v, v - u * u])
        cell = Cell(((0.0, 1.0), (-0.5, 0.5)), mapping)
        for _ in range(5):
            w = rand_form(rng, 3, 1, degree=2)
            _, _, res = stokes_check(w, cell, 24)
            assert res <= 1e-9


class TestTransfer:
    def test_mixed_polynomial_exponential_form(self):
        w = DF(3, 2, {(0, 1): x * x + y * y, (1, 2): x + y * S.exp(z), (0, 2): S.exp(x)})
        assert hemisphere_transfer_check(w, 16) <= 1e-6

    def test_exact_form(self):
        rng = make_rng(12)
        beta = rand_form(rng, 3, 1, degree=2)
        assert hemisphere_transfer_check(beta.d(), 16) <= 1e-8

    def test_z_area_form(self):
        assert hemisphere_transfer_check(DF(3, 2, {(0, 1): z}), 16) <= 1e-8


class TestChangeOfVariables:
    def _base_cell(self):
        u, v = S.variable(0), S.variable(1)
        mapping = SmoothMap(2, 2, [u + v, u * v + 1])
        return Cell(((0.0, 1.0), (0.0, 1.0)), mapping)

    def test_orientation_preserving(self):
        cell = self._base_cell()
        w = DF(2, 2, {(0, 1): x + y * y})
        u, v = S.variable(0), S.variable(1)
        reparam = SmoothMap(2, 2, [u * u * (3 - 2 * u), v])
        warped = Cell(cell.box, compose(cell.mapping, reparam), cell.orientation)
        a = integrate_cell(w, cell, 32)
        b = integrate_cell(w, warped, 32)
        assert abs(a - b) <= 1e-8

    def test_orientation_reversing_flips_sign(self):
        cell = self._base_cell()
        w = DF(2, 2, {(0, 1): x + y * y})
        u, v = S.variable(0), S.variable(1)
        mirror = SmoothMap(2, 2, [1 - u, v])
        warped = Cell(cell.box, compose(cell.mapping, mirror), cell.orientation)
        a = integrate_cell(w, cell, 32)
        b = integrate_cell(w, warped, 32)
        assert abs(a + b) <= 1e-8


class TestCorrespondences:
    def test_line_integral_is_work(self):
        rng = make_rng(13)
        t = S.variable(0)
        path = Cell(
            ((0.0, 1.0),),
            SmoothMap(1, 3, [t * t, S.sin(t), t + 1]),
        )
        v = VectorFieldSym(3, [rand_poly(rng, 3, 2) for _ in range(3)])
        form_value = integrate_cell(work_form(v), path, 32)
        comps = [c.compiled() for c in path.mapping.components]
        dcomps = [c.differentiate(0).compiled() for c in path.mapping.components]
        vfns = [c.compiled() for c in v.components]
        xs, ws = np.polynomial.legendre.leggauss(32)
        xs = (xs + 1) / 2
        ws = ws / 2
        direct = 0.0
        for xi, wi in zip(xs, ws):
            p = [f([xi]) for f in comps]
            dp = [f([xi]) for f in dcomps]
            direct += wi * sum(vf(p) * d for vf, d in zip(vfns, dp))
        assert abs(form_value - direct) <= 1e-9

    def test_flux_two_ways(self):
        rng = make_rng(14)
        v = VectorFieldSym(3, [rand_poly(rng, 3, 2) for _ in range(3)])
        surface = sh.hemisphere_cell()
        via_form = integrate_cell(flux_form(v), surface, 24)
        vol = DF.basis(3, 0, 1, 2)
        via_contraction = integrate_cell(interior_product(v, vol), surface, 24)
        assert abs(via_form - via_contraction) <= 1e-10
        # direct cross-product flux
        vfns = [c.compiled() for c in v.components]
        comp_fns = [c.compiled() for c in surface.mapping.components]
        jac = surface.mapping.jacobian()
        jac_fns = [[e.compiled() for e in row] for row in jac]
        xs, ws = np.polynomial.legendre.leggauss(24)
        phi_nodes = (xs + 1) * (math.pi / 2) / 2
        phi_w = ws * (math.pi / 2) / 2
        th_nodes = (xs + 1) * math.pi
        th_w = ws * math.pi
        direct = 0.0
        for p, wp in zip(phi_nodes, phi_w):
            for t, wt in zip(th_nodes, th_w):
                params = [p, t]
                point = [f(params) for f in comp_fns]
                cols = np.array([[f(params) for f in row] for row in jac_fns])
                normal = np.cross(cols[:, 0], cols[:, 1])
                vv = np.array([f(point) for f in vfns])
                direct += wp * wt * float(vv @ normal)
        assert abs(via_form - direct) <= 1e-9

    def test_homotopic_loops_same_period(self):
        a = angular_form()
        circle_val = integrate_cell(a, sh.circle_cell(), 64)
        ellipse_val = integrate_cell(a, sh.ellipse_cell(2, 1), 64)
        assert abs(circle_val - ellipse_val) <= 1e-8


class TestQuadratureBehavior:
    def test_convergence_on_ellipse_period(self):
        # q = 4 is still in the pre-asymptotic noise regime for this
        # integrand (complex poles at sin^2 = 4/3), so start at 8
        a = angular_form()
        errors = []
        for q in (8, 16, 32, 64):
            val = integrate_cell(a, sh.ellipse_cell(2, 1), q)
            errors.append(abs(val - TWO_PI))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse * 1.2 + 1e-13
        assert errors[-1] <= 1e-8

    def test_convergence_of_stokes_residual(self):
        v = VectorFieldSym(3, [y * z * z, -x * y, x * x])
        w = work_form(v)
        residuals = []
        for q in (4, 8, 16, 32):
            _, _, res = stokes_check(w, sh.hemisphere_cell(), q)
            residuals.append(res)
        for coarse, fine in zip(residuals, residuals[1:]):
            assert fine <= coarse * 1.2 + 1e-12
        assert residuals[-1] <= 1e-8

    def test_singularity_reported_with_node(self):
        f = DF(1, 1, {(0,): S.ln(x)})
        cell = sh.interval_cell(-1.0, 1.0)
        with pytest.raises(SingularityError) as err:
            integrate_cell(f, cell, 8)
        assert "node" in str(err.value)

    def test_quadrature_order_validated(self):
        w = DF(2, 1, {(1,): x})
        cell = sh.circle_cell()
        with pytest.raises(ParseError):
            integrate_cell(w, cell, 1)
        with pytest.raises(ParseError):
            integrate_cell(w, cell, 65)

    def test_degenerate_box_rejected(self):
        from extcalc.maps import SmoothMap as SM

        with pytest.raises(ParseError):
            Cell(((1.0, 1.0),), SM(1, 1, [x]))


class TestChainGroups:
    """A run of chain terms through one map is integrated as one group,
    with the values and faults of one cell at a time."""

    @staticmethod
    def _in_order(form, chain, q):
        total = 0.0
        for w, cell in chain:
            total += w * integrate_cell(form, cell, q)
        return total

    def test_chain_equals_the_in_order_sum_of_its_cells(self):
        rng = make_rng(1900)
        for trial in range(60):
            k = rng.randint(1, 3)
            m = rng.randint(k, 3)
            q = rng.randint(2, 12)
            cells = []
            for _ in range(2):
                box = []
                for _ in range(k):
                    a = rng.uniform(-1.0, 0.5)
                    box.append((a, a + rng.uniform(0.25, 1.5)))
                cells.append(Cell(tuple(box), rand_map(rng, k, m, degree=2), rng.choice((1, -1))))
            # the faces of two cells through two maps, interleaved at random,
            # some flipped, with weights 0, +-1 and +-2
            faces = [face for cell in cells for _, face in boundary(cell)]
            rng.shuffle(faces)
            terms = [(rng.choice((0, 1, -1, 2, -2)),
                      face.flipped() if rng.random() < 0.3 else face) for face in faces]
            chains = [Chain(terms), Chain([(1, c) for c in cells])]
            if k >= 2:
                chains.append(boundary(boundary(cells[0])))
            for chain in chains:
                form = rand_form(rng, m, chain.k)
                expected = self._in_order(form, chain, q)
                assert integrate(form, chain, q) == expected, (trial, chain.k)

    def test_large_chains_split_into_groups(self):
        # a chain of more nodes than one group holds: every cell still
        # integrates as it does alone
        rng = make_rng(1901)
        g = rand_map(rng, 2, 2)
        terms = [(rng.choice((1, -1, 2)), Cell(((0.0, 1.0 + i / 8), (0.0, 1.0)), g))
                 for i in range(12)]
        form = rand_form(rng, 2, 2)
        for q in (24, 64):
            chain = Chain(terms)
            assert integrate(form, chain, q) == self._in_order(form, chain, q)

    # the texts and nodes of the faults, as the integration that ran one
    # cell at a time raised them
    FAULTS = {
        "third-face": (
            SingularityError,
            "integrand singular at quadrature node (0.04691007703066802, 4.0): "
            "ln of a non-positive value",
            (0.04691007703066802, 4.0)),
        "cube-last-face": (
            SingularityError,
            "integrand singular at quadrature node (0.06943184420297371, 0.06943184420297371, "
            "0.0): ln of a non-positive value",
            (0.06943184420297371, 0.06943184420297371, 0.0)),
        "pinned-zero": (
            SingularityError,
            "integrand singular at quadrature node (0.0, 0.06943184420297371): "
            "ln of a non-positive value",
            (0.0, 0.06943184420297371)),
        "pinned-minus-zero": (
            SingularityError,
            "integrand singular at quadrature node (-0.0, 0.06943184420297371): "
            "ln of a non-positive value",
            (-0.0, 0.06943184420297371)),
        "overflow-first": (
            SingularityError, "the weighted quadrature sum is not a finite number", None),
        "point": (
            SingularityError,
            "integrand singular at quadrature node (2.0,): division by zero during evaluation",
            (2.0,)),
        "inf-value": (
            SingularityError,
            "integrand singular at quadrature node (2e+60, 1.1127016653792582e+60): "
            "not a finite number",
            None),
        "exp-overflow": (OverflowError, "math range error", None),
    }

    @staticmethod
    def _fault_case(name):
        u, v, w = x, y, z
        square = Cell(((0.0, 1.0), (0.0, 4.0)), SmoothMap.identity(2))
        # z = w*(1 + u*v) is 0 on the last face, w = 0, only
        cube = Cell(((0.0, 1.0),) * 3, SmoothMap(3, 3, [u + v * w, v - u * u, w + w * u * v]))
        huge = Cell(((1e60, 2e60), (1e60, 2e60)), SmoothMap.identity(2))
        ln_x = DF(2, 1, {(1,): S.ln(x)})
        cases = {
            # the faces x = 1, x = 0 come first; ln(4 - y) fails on y = 4, the third
            "third-face": (DF(2, 1, {(0,): S.ln(4 - y), (1,): x}), boundary(square), 5),
            "cube-last-face": (DF(3, 2, {(0, 1): S.ln(z), (1, 2): x * y}), boundary(cube), 4),
            "pinned-zero": (ln_x, Chain([(1, Cell((0.0, (0.0, 1.0)), SmoothMap.identity(2)))]), 4),
            "pinned-minus-zero": (
                ln_x, Chain([(1, Cell((-0.0, (0.0, 1.0)), SmoothMap.identity(2)))]), 4),
            # the weighted sum on the face x = 0 overflows before the third
            # face, with its singular node, is reached
            "overflow-first": (
                DF(2, 1, {(0,): S.ln(4 - y), (1,): Fraction(3, 2) * 10**308 * (1 - x)}),
                boundary(square), 6),
            "point": (DF.from_scalar(1, 1 / (x - 2)),
                      boundary(Cell(((0.0, 2.0),), SmoothMap.identity(1))), 4),
            "inf-value": (DF(2, 1, {(1,): 10**200 * x * y}), boundary(huge), 3),
            "exp-overflow": (DF(2, 1, {(1,): S.exp(800 * (1 - x))}), boundary(square), 3),
        }
        return cases[name]

    @pytest.mark.parametrize("name", list(FAULTS))
    def test_fault_text_and_node(self, name):
        error, text, node = self.FAULTS[name]
        form, chain, q = self._fault_case(name)
        with pytest.raises(error) as err:
            integrate(form, chain, q)
        assert str(err.value) == text
        assert getattr(err.value.__cause__, "node", None) == node
        if node is not None:
            assert [math.copysign(1.0, c) for c in err.value.__cause__.node] == [
                math.copysign(1.0, c) for c in node]

    def test_overflow_case_has_a_singular_third_face(self):
        form, chain, q = self._fault_case("overflow-first")
        with pytest.raises(SingularityError, match="ln of a non-positive value"):
            integrate_cell(form, list(chain)[2][1], q)

    def test_pinned_zero_keeps_its_sign_in_the_layout_cache(self):
        ln_x = DF(2, 1, {(1,): S.ln(x)})
        for value in (0.0, -0.0, 0.0, -0.0):
            cell = Cell((value, (0.0, 1.0)), SmoothMap.identity(2))
            with pytest.raises(SingularityError) as err:
                integrate_cell(ln_x, cell, 4)
            assert math.copysign(1.0, err.value.__cause__.node[0]) == math.copysign(1.0, value)
            assert str(err.value).startswith(f"integrand singular at quadrature node ({value!r}, ")

    def test_cached_layout_is_read_only(self):
        from extcalc.integrate import _layout

        boxes = tuple(face.box for _, face in boundary(sh.square_cell()))
        grid, weights = _layout(boxes, 5)
        assert _layout(boxes, 5)[1] is weights
        for a in grid + [weights]:
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1.0

    def test_layout_cache_is_bounded(self):
        I = importlib.import_module("extcalc.integrate")
        for i in range(2 * I._LAYOUT_COUNT):
            I._layout((((0.0, 1.0 + i),) * 3), 16)
        assert len(I._LAYOUTS) <= I._LAYOUT_COUNT
        held = sum(a.nbytes for arrays in I._LAYOUTS.values() for a in arrays)
        assert held <= I._LAYOUT_BYTES

    def test_cell_with_no_needed_term_is_not_checked(self):
        # dx through (x, y/x): on the faces x = 1 and x = 0 the minor dx/dy
        # is identically 0, so no node of them is evaluated into the sum,
        # though y/x is not finite on x = 0
        g = SmoothMap(2, 2, [x, y / x])
        square = Cell(((0.0, 1.0), (0.0, 1.0)), g)
        assert repr(integrate(DF(2, 1, {(0,): S.constant(1)}), boundary(square), 8)) == "0.0"

    def test_zero_weights_still_check_the_degree(self):
        square = sh.square_cell()
        for w in (0, 1):
            with pytest.raises(DegreeError):
                integrate(DF(2, 1, {(0,): x}), Chain([(w, square)]))
            with pytest.raises(DimensionMismatch):
                integrate(DF(3, 2, {(0, 1): x}), Chain([(w, square)]))


class TestQuadratureCore:
    """``_quadrature`` sums every cell or names the first node, in the order
    of the cells and then of the nodes, whose value is not finite."""

    BOXES = (((0.0, 1.0), (0.0, 2.0)), ((1.0, 2.0), (0.0, 1.0)))
    # nan at node (2, 1) of the second cell, inf after it
    FAULTY = {(1, 2, 2): math.inf, (1, 2, 1): math.nan}

    @staticmethod
    def _fill(values):
        def fill(out, grid):
            out[...] = 1.0
            for index, value in values.items():
                out[index] = value
        return fill

    @staticmethod
    def _node():
        # node (2, 1) of the second cell, where its layout puts it
        nodes = np.polynomial.legendre.leggauss(3)[0]
        return (float(1.5 + 0.5 * nodes[2]), float(0.5 + 0.5 * nodes[1]))

    def test_finite_values_are_summed_per_cell(self):
        from extcalc.integrate import _quadrature, box_rule

        sums = _quadrature(self.BOXES, 3, self._fill({}))
        assert sums == [float(np.sum(box_rule(box, 3)[1])) for box in self.BOXES]

    def test_first_non_finite_node_is_named(self):
        from extcalc.integrate import _quadrature

        with pytest.raises(SingularityError) as err:
            _quadrature(self.BOXES, 3, self._fill(self.FAULTY))
        assert str(err.value) == (
            f"integrand singular at quadrature node {self._node()}: not a finite number")
        assert err.value.__cause__ is None

    def test_explain_supplies_the_cause(self):
        from extcalc.integrate import _quadrature

        seen = []

        def explain(cell, node):
            seen.append((cell, node))
            raise SingularityError("ln of a non-positive value")

        with pytest.raises(SingularityError) as err:
            _quadrature(self.BOXES, 3, self._fill(self.FAULTY), explain)
        assert seen == [(1, self._node())]
        assert str(err.value) == (
            f"integrand singular at quadrature node {self._node()}: ln of a non-positive value")
        assert err.value.__cause__.node == self._node()

    def test_explain_overflow_passes_through(self):
        from extcalc.integrate import _quadrature

        def explain(cell, node):
            raise OverflowError("math range error")

        with pytest.raises(OverflowError, match="^math range error$"):
            _quadrature(self.BOXES, 3, self._fill(self.FAULTY), explain)

    def test_sum_fault_of_an_earlier_cell_comes_first(self):
        from extcalc.integrate import _quadrature

        # every value of the first cell is finite, but their weighted sum is not
        with pytest.raises(SingularityError,
                           match="^the weighted quadrature sum is not a finite number$"):
            _quadrature(self.BOXES, 3, self._fill({0: 1e308, **self.FAULTY}))


class TestBitIdentityPin:
    """The repr of every value and fault text of a seeded corpus of fresh
    Stokes checks, and of the fault cases above, hashed: a change to how
    evaluators are built must leave every bit as it was."""

    PIN = "4dbacaaa8f0f77eec6dfab3e3770259039e71e2720753b4f18b1f8537b512a7c"

    @staticmethod
    def _coefficient(rng, axes):
        monomials = []
        for _ in range(rng.randint(1, 3)):
            c = rng.choice((str(rng.randint(1, 5)), f"{rng.randint(1, 9)}/{rng.randint(2, 13)}"))
            factors = [rng.choice(axes) for _ in range(rng.randint(0, 2))]
            monomials.append("*".join([c] + factors))
        text = " + ".join(monomials)
        if rng.random() < 0.2:
            # a quotient whose denominator stays >= 2 on the charts below
            text = f"({text})/(2 + {rng.choice(axes)}^2)"
        return text

    @classmethod
    def _stokes_corpus(cls, seed, count):
        from extcalc.parsing import parse_form, parse_map

        rng = make_rng(seed)
        axes, params = ("x", "y", "z"), ("u", "v", "w")
        for _ in range(count):
            k = rng.randint(1, 3)
            terms = []
            for idx in itertools.combinations(range(k), k - 1):
                basis = "/\\".join(f"d{axes[i]}" for i in idx)
                coeff = cls._coefficient(rng, axes[:k])
                terms.append(f"({coeff})*{basis}" if basis else coeff)
            comps = []
            for p in params[:k]:
                comp = p
                for _ in range(rng.randint(1, 2)):
                    a, b = rng.choice(params[:k]), rng.choice(params[:k])
                    comp += f" {rng.choice('+-')} 1/{rng.choice((8, 12, 16))}*{a}*{b}"
                comps.append(comp)
            chart = f"map({', '.join(params[:k])}) = {'; '.join(comps)}"
            cell = Cell(((0.0, 1.0),) * k, parse_map(chart))
            yield parse_form(" + ".join(terms), k), cell, rng.randint(5, 10)

    def _lines(self):
        for form, cell, q in self._stokes_corpus(2026, 150):
            lhs, rhs, _ = stokes_check(form, cell, q)
            yield repr((lhs, rhs))
        for name in TestChainGroups.FAULTS:
            form, chain, q = TestChainGroups._fault_case(name)
            try:
                value = integrate(form, chain, q)
            except (SingularityError, OverflowError) as err:
                node = getattr(err.__cause__, "node", None)
                yield repr((type(err).__name__, str(err), node,
                            node and [math.copysign(1.0, c) for c in node]))
            else:
                yield repr(value)

    def test_values_and_fault_texts_are_pinned(self):
        digest = hashlib.sha256("\n".join(self._lines()).encode()).hexdigest()
        assert digest == self.PIN

