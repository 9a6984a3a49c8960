"""Numeric integration over chains: periods, boundaries, Stokes."""

import math

import numpy as np
import pytest

from extcalc import scalar as S
from extcalc import shapes as sh
from extcalc.cells import Cell, Chain, PointChain
from extcalc.errors import DegreeError, SingularityError
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
    hemisphere_transfer_check,
    integrate,
    integrate_cell,
    integrate_points,
    stokes_check,
)
from extcalc.maps import SmoothMap, compose

from helpers import make_rng, rand_form, rand_poly

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
        pc = PointChain([(1, (3,)), (-1, (1,))])
        f = DF.from_scalar(1, x)
        assert integrate_points(f, pc) == 2.0

    def test_fundamental_theorem(self):
        f = DF.from_scalar(1, x**3 + x)
        lhs, rhs, res = stokes_check(f, sh.interval_cell(0, 1), 16)
        assert abs(lhs - 2.0) <= 1e-12
        assert abs(rhs - 2.0) <= 1e-12
        assert res <= 1e-12


class TestBoundary:
    def test_interval(self):
        pc = boundary(sh.interval_cell(0, 1))
        assert isinstance(pc, PointChain)
        assert pc.points == [(1, (1.0,)), (-1, (0.0,))]

    def test_unit_square_is_counterclockwise(self):
        chain = boundary(sh.square_cell())
        value = integrate(DF(2, 1, {(1,): x}), chain, 16)
        assert abs(value - 1.0) <= 1e-12

    def test_half_space_sign_pattern(self):
        # lower face of the last axis carries sign (-1)^n (axes counted from 1)
        for n in range(1, 5):
            cell = sh.box_cell(*(((0.0, 1.0),) * n))
            b = boundary(cell)
            if n == 1:
                assert b.points[-1][0] == -1  # (-1)^1
                continue
            faces = list(b)
            weight_last_lower = faces[2 * (n - 1) + 1][0]
            assert weight_last_lower == (-1) ** n
            for j in range(n):
                assert faces[2 * j][0] == (-1) ** j
                assert faces[2 * j + 1][0] == -((-1) ** j)

    def test_boundary_of_boundary_vanishes(self):
        rng = make_rng(10)
        disk_bb = boundary(boundary(sh.disk_cell()))
        f = DF.from_scalar(2, rand_poly(rng, 2, 3))
        assert abs(integrate_points(f, disk_bb)) <= 1e-10
        ball_bb = boundary(boundary(sh.half_ball_cell()))
        w = DF(3, 1, {(i,): rand_poly(rng, 3, 2) for i in range(3)})
        assert abs(integrate(w, ball_bb, 8)) <= 1e-10


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
        with pytest.raises(ValueError):
            integrate_cell(w, cell, 1)
        with pytest.raises(ValueError):
            integrate_cell(w, cell, 65)

    def test_degenerate_box_rejected(self):
        from extcalc.maps import SmoothMap as SM

        with pytest.raises(ValueError):
            Cell(((1.0, 1.0),), SM(1, 1, [x]))
