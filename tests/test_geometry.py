"""Winding, linking, mapping degree, curvature, Gauss-Bonnet."""

import math
from fractions import Fraction

import numpy as np
import pytest

from extcalc import scalar as S
from extcalc import shapes as sh
from extcalc.cells import Cell, Chain
from extcalc.errors import DimensionMismatch, NotClosedError, RankDeficientError, SingularityError
from extcalc.forms import DifferentialForm, angular_form, solid_angle_form, sphere_area_form
from extcalc.geometry import (
    Loop,
    Surface,
    area_form_evaluator,
    gauss_bonnet_check,
    gauss_curvature,
    gauss_map,
    gauss_map_area_pullback,
    linking_integrand_symbolic,
    linking_number,
    local_degree_sign,
    mapping_degree,
    nonexactness_certificate,
    shape_operator,
    surface_area,
    winding_number,
)
from extcalc.integrate import boundary, integrate
from extcalc.maps import SmoothMap

from helpers import count_calls, make_rng

x, y, z = S.variable(0), S.variable(1), S.variable(2)
DF = DifferentialForm
TWO_PI = 2 * math.pi


def circle_loop_3d(center=(0, 0, 0), plane="xy", radius=1):
    th = S.variable(0)
    r = sh.as_expr(radius)
    zero = S.constant(0)
    cx, cy, cz = (sh.as_expr(c) for c in center)
    if plane == "xy":
        comps = [cx + r * S.cos(th), cy + r * S.sin(th), cz + zero]
    elif plane == "xz":
        comps = [cx + r * S.cos(th), cy + zero, cz + r * S.sin(th)]
    else:
        raise ValueError(plane)
    return Loop(Cell(((0.0, TWO_PI),), SmoothMap(1, 3, comps)))


class TestWinding:
    def test_integer_windings(self):
        for k in (-2, -1, 0, 1, 2, 3):
            loop = Loop(sh.circle_cell(k=k))
            value, nearest = winding_number(loop, 32)
            assert nearest == k
            assert abs(value - k) <= 1e-6

    def test_offset_loop_does_not_wind(self):
        loop = Loop(sh.circle_cell(center=(2, 0)))
        value, nearest = winding_number(loop, 48)
        assert nearest == 0
        assert abs(value) <= 1e-6
        # independent oracle: unwrap the polar angle along the samples
        pts = loop.sample(720)
        angles = np.unwrap(np.arctan2(pts[:, 1], pts[:, 0]))
        turns = (angles[-1] - angles[0] + (angles[1] - angles[0])) / TWO_PI
        assert round(float(turns)) == 0

    def test_forward_backward_cancellation(self):
        th = S.variable(0)
        u = 2 * S.sin(th)
        loop = Loop(
            Cell(((0.0, TWO_PI),), SmoothMap(1, 2, [S.cos(u), S.sin(u)]))
        )
        value, nearest = winding_number(loop, 32)
        assert nearest == 0
        assert abs(value) <= 1e-9

    def test_origin_crossing_rejected(self):
        # circle through the origin itself
        th = S.variable(0)
        loop = Loop(
            Cell(((0.0, TWO_PI),), SmoothMap(1, 2, [S.cos(th) - 1, S.sin(th)]))
        )
        with pytest.raises(SingularityError):
            winding_number(loop, 32)

    def test_refinement_shrinks_integer_gap(self):
        loop = Loop(sh.ellipse_cell(2, 1))
        gaps = []
        for q in (8, 16, 32):
            value, nearest = winding_number(loop, q)
            assert nearest == 1
            gaps.append(abs(value - 1))
        assert gaps[1] <= gaps[0] and gaps[2] <= gaps[1]
        assert gaps[2] <= 1e-3

    def test_open_curve_rejected_as_loop(self):
        th = S.variable(0)
        with pytest.raises(NotClosedError):
            Loop(Cell(((0.0, 3.0),), SmoothMap(1, 2, [S.cos(th), S.sin(th)])))

    @pytest.mark.parametrize("other", [S.sin(S.variable(0)), S.constant(1)])
    def test_loop_with_an_endpoint_not_finite_rejected(self, other):
        # both first coordinates overflow to inf, so their gap is nan, whether
        # the second coordinates differ or agree
        s = S.variable(0)
        far = SmoothMap(1, 2, [S.constant(10) ** 200 * s * s, other])
        with pytest.raises(NotClosedError, match=r"endpoints \(inf, .*\) and \(inf, "):
            Loop(Cell(((1e60, 2e60),), far))
        with pytest.raises(NotClosedError):
            Loop(Cell(((1e60, 2e60),), SmoothMap(1, 2, far.components[::-1])))

    def test_pinned_cell_rejected_as_loop(self):
        # the outer rim of the disk, a face whose map still takes (r, theta)
        rim = next(face for _, face in boundary(sh.disk_cell()))
        with pytest.raises(DimensionMismatch):
            Loop(rim)

    def test_small_perturbation_keeps_winding(self):
        from fractions import Fraction

        th = S.variable(0)
        eps = S.constant(Fraction(1, 1000))
        bump = 1 + eps * S.cos(3 * th)
        loop = Loop(
            Cell(((0.0, TWO_PI),), SmoothMap(1, 2, [bump * S.cos(th), bump * S.sin(th)]))
        )
        base, _ = winding_number(Loop(sh.circle_cell()), 32)
        pert, nearest = winding_number(loop, 32)
        assert nearest == 1
        assert abs(pert - base) < 1e-3


    @pytest.mark.parametrize("radius", [10**4, 10**6])
    def test_large_circles_wind_once(self, radius):
        # the endpoint gap at y = 0 is about 2.4e-16 times the radius
        value, nearest = winding_number(Loop(sh.circle_cell(radius)), 32)
        assert nearest == 1 and abs(value - 1) <= 1e-12

    @pytest.mark.filterwarnings("error")
    def test_circle_too_large_for_the_angular_form_rejected(self):
        # x^2 + y^2 overflows past about 1.3e154, and every node would read 0
        message = r"^loop reaches 1\.000e\+160, where x\^2 \+ y\^2 overflows$"
        with pytest.raises(SingularityError, match=message):
            winding_number(Loop(sh.circle_cell(10**160)), 32)

    def test_open_arc_of_a_large_circle_rejected(self):
        th = S.variable(0)
        arc = SmoothMap(1, 2, [10**6 * S.cos(th), 10**6 * S.sin(th)])
        with pytest.raises(NotClosedError):
            Loop(Cell(((0.0, 6.28),), arc))

    @pytest.mark.parametrize("radius", [Fraction(1, 10**4), Fraction(1, 10**8)])
    def test_small_circles_wind_once(self, radius):
        value, nearest = winding_number(Loop(sh.circle_cell(radius)), 32)
        assert nearest == 1 and abs(value - 1) <= 1e-12

    def test_angular_form_is_built_once(self, monkeypatch):
        loop = Loop(sh.circle_cell())
        first = winding_number(loop, 32)
        built = count_calls(monkeypatch, DifferentialForm, "__init__")
        assert winding_number(loop, 32) == first
        assert built == []

class TestNonexactness:
    def test_angular_form_period(self):
        value, verdict = nonexactness_certificate(angular_form(), sh.circle_chain(), 32)
        assert verdict == "not exact on this domain"
        assert abs(value - TWO_PI) <= 1e-8

    def test_solid_angle_period(self):
        value, verdict = nonexactness_certificate(
            solid_angle_form(), sh.sphere_chain(), 32
        )
        assert verdict == "not exact on this domain"
        assert abs(value - 4 * math.pi) <= 1e-6

    def test_exact_form_inconclusive(self):
        exact = DF.from_scalar(2, x * y).d()
        value, verdict = nonexactness_certificate(exact, sh.circle_chain(), 32)
        assert verdict == "inconclusive"
        assert abs(value) <= 1e-10


class TestMappingDegree:
    def test_identity_on_sphere(self):
        value, nearest = mapping_degree(
            SmoothMap.identity(3),
            sh.sphere_chain(),
            sh.sphere_chain(),
            sphere_area_form(),
            24,
        )
        assert nearest == 1 and abs(value - 1) <= 1e-9

    def test_antipodal_on_sphere(self):
        # expected value pinned by the Jacobian-sign oracle below: -1
        anti = SmoothMap.linear([[-1, 0, 0], [0, -1, 0], [0, 0, -1]])
        value, nearest = mapping_degree(
            anti, sh.sphere_chain(), sh.sphere_chain(), sphere_area_form(), 24
        )
        assert nearest == -1 and abs(value + 1) <= 1e-9
        sign = local_degree_sign(
            anti,
            sh.sphere_cell(),
            (1.1, 0.7),
            sh.sphere_cell(),
            (math.pi - 1.1, 0.7 + math.pi),
        )
        assert sign == -1

    def test_double_cover_of_circle(self):
        squaring = SmoothMap(2, 2, [x * x - y * y, 2 * x * y])
        value, nearest = mapping_degree(
            squaring, sh.circle_chain(), sh.circle_chain(), angular_form(), 32
        )
        assert nearest == 2 and abs(value - 2) <= 1e-9

    def test_zero_denominator(self):
        exact = DF.from_scalar(2, x * y).d()
        with pytest.raises(SingularityError):
            mapping_degree(
                SmoothMap.identity(2), sh.circle_chain(), sh.circle_chain(), exact, 16
            )


class TestCurvature:
    def test_unit_sphere(self):
        cell = sh.sphere_cell()
        for params in ((1.0, 2.0), (0.4, 5.0), (2.4, 0.3)):
            assert abs(gauss_curvature(cell, params) - 1.0) <= 1e-12

    def test_gauss_map_is_radial_on_sphere(self):
        cell = sh.sphere_cell()
        params = (1.2, 0.8)
        n = gauss_map(cell, params)
        p = np.array(cell.mapping(list(params)))
        assert np.allclose(n, p, atol=1e-12)

    def test_shape_operator_identity_on_sphere(self):
        s = shape_operator(sh.sphere_cell(), (1.0, 1.5))
        assert np.allclose(s, np.eye(2), rtol=0, atol=1e-12)

    def test_hyperbolic_paraboloid_negative_both_orientations(self):
        u, v = S.variable(0), S.variable(1)
        mapping = SmoothMap(2, 3, [u, v, u * u - v * v])
        cell = Cell(((-1.0, 1.0), (-1.0, 1.0)), mapping)
        k_plus = gauss_curvature(cell, (0.0, 0.0))
        k_minus = gauss_curvature(cell.flipped(), (0.0, 0.0))
        assert k_plus < 0 and k_minus < 0
        assert abs(k_plus - k_minus) <= 1e-12

    def test_elliptic_paraboloid_positive(self):
        u, v = S.variable(0), S.variable(1)
        mapping = SmoothMap(2, 3, [u, v, u * u + v * v])
        cell = Cell(((-1.0, 1.0), (-1.0, 1.0)), mapping)
        assert gauss_curvature(cell, (0.0, 0.0)) > 0

    def test_general_paraboloid_formula(self):
        # K(0) = 4ac - b^2, confirmed by the graph-Hessian finite-difference
        # oracle before freezing
        rng = make_rng(18)
        u, v = S.variable(0), S.variable(1)
        for _ in range(5):
            a, b, c = (rng.randint(-3, 3) for _ in range(3))
            mapping = SmoothMap(2, 3, [u, v, a * u * u + b * u * v + c * v * v])
            cell = Cell(((-1.0, 1.0), (-1.0, 1.0)), mapping)
            k = gauss_curvature(cell, (0.0, 0.0))
            height = mapping.components[2].evaluate
            h = 1e-4
            fxx = (height([h, 0.0]) - 2 * height([0.0, 0.0]) + height([-h, 0.0])) / h**2
            fyy = (height([0.0, h]) - 2 * height([0.0, 0.0]) + height([0.0, -h])) / h**2
            fxy = (
                height([h, h]) - height([h, -h]) - height([-h, h]) + height([-h, -h])
            ) / (4 * h**2)
            oracle = fxx * fyy - fxy**2
            assert abs(oracle - (4 * a * c - b * b)) <= 1e-5
            assert abs(k - (4 * a * c - b * b)) <= 1e-12

    def test_torus_closed_form(self):
        big, small = 2, 1
        cell = sh.torus_cell(big, small)
        for u, v in ((0.3, 0.7), (1.9, 2.5), (4.0, 3.3)):
            exact = math.cos(v) / (small * (big + small * math.cos(v)))
            assert abs(gauss_curvature(cell, (u, v)) - exact) <= 1e-12

    def test_rank_deficiency_detected(self):
        u, v = S.variable(0), S.variable(1)
        degenerate = Cell(((0.0, 1.0), (0.0, 1.0)), SmoothMap(2, 3, [u, u, u]))
        with pytest.raises(RankDeficientError) as info:
            gauss_map(degenerate, (0.5, 0.5))
        assert str(info.value) == "rank-deficient node (0.5, 0.5)"


class TestGaussBonnet:
    def test_sphere(self):
        surface = Surface([sh.sphere_cell()], chi=2)
        total, expected, residual = gauss_bonnet_check(surface, 24)
        assert abs(expected - 4 * math.pi) < 1e-12
        assert residual <= 1e-12

    def test_torus_of_revolution(self):
        surface = Surface([sh.torus_cell(2, 1)], chi=0)
        total, expected, residual = gauss_bonnet_check(surface, 24)
        assert expected == 0.0
        assert residual <= 1e-12

    def test_sheared_torus(self):
        # (u, v) -> (u + v, v) reparametrizes the torus with F and M nonzero;
        # K dA is unchanged, so the residual stays at round-off
        u, v = S.variable(0), S.variable(1)
        ring = 2 + S.cos(v)
        sheared = SmoothMap(2, 3, [ring * S.cos(u + v), ring * S.sin(u + v), S.sin(v)])
        surface = Surface([Cell(((0.0, TWO_PI), (0.0, TWO_PI)), sheared)], chi=0)
        total, expected, residual = gauss_bonnet_check(surface, 24)
        assert residual <= 1e-12
        assert abs(gauss_map_area_pullback(surface, 24) - total) <= 1e-12

    def test_ellipsoid(self):
        surface = Surface([sh.ellipsoid_cell(1.5, 1.0, 0.75)], chi=2)
        total, expected, residual = gauss_bonnet_check(surface, 24)
        assert residual <= 1e-3
        residuals = [gauss_bonnet_check(surface, q)[2] for q in (16, 24, 32, 48)]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))

    def test_two_cell_sphere(self):
        mapping = sh.sphere_cell().mapping
        upper = Cell(((0.0, math.pi / 2), (0.0, TWO_PI)), mapping)
        lower = Cell(((math.pi / 2, math.pi), (0.0, TWO_PI)), mapping)
        surface = Surface([upper, lower], chi=2)
        # the seams cancel: a 1-form with a circulation term integrates to 0
        # over the boundary of the two cells
        probe = DF(3, 1, {(0,): y * z + x, (1,): x * z - y * y + x, (2,): x * y * z})
        assert abs(integrate(probe, boundary(Chain.of(upper, lower)), 16)) <= 1e-6
        total, expected, residual = gauss_bonnet_check(surface, 16)
        assert residual <= 1e-12

    def test_rank_deficient_node_is_named(self):
        # a double cone: rank-deficient where u = 0, the middle node at odd q
        u, v = S.variable(0), S.variable(1)
        cone = SmoothMap(2, 3, [u * S.cos(v), u * S.sin(v), u])
        surface = Surface([Cell(((-1.0, 1.0), (0.0, TWO_PI)), cone)], chi=0)
        x0 = float(np.polynomial.legendre.leggauss(5)[0][0])
        first_v = TWO_PI / 2.0 + TWO_PI / 2.0 * x0
        with pytest.raises(RankDeficientError) as info:
            gauss_bonnet_check(surface, 5)
        assert str(info.value) == f"rank-deficient node (0.0, {first_v})"

    def test_overflowing_sum_is_refused(self):
        # a sphere of radius 10^200: its area element overflows to inf at
        # every node, so the first node is named
        surface = Surface([sh.sphere_cell(10**200)], chi=2)
        for integral in (gauss_bonnet_check, surface_area, gauss_map_area_pullback):
            with pytest.raises(SingularityError) as info:
                integral(surface, 8)
            assert str(info.value) == (
                "area element not finite at node (0.062376547550168304, 0.12475309510033661)"
            )

    @pytest.mark.filterwarnings("error")
    def test_pointwise_frame_of_overflowing_sphere_is_refused(self):
        cell = sh.sphere_cell(10**200)
        for helper in (gauss_map, gauss_curvature, lambda c, p: area_form_evaluator(c)(p)):
            with pytest.raises(SingularityError, match=r"^area element not finite at node \(1\.0, 1\.0\)$"):
                helper(cell, (1.0, 1.0))

    def test_pullback_of_area_matches_curvature_integral(self):
        surface = Surface([sh.ellipsoid_cell(1.25, 1.0, 0.8)], chi=2)
        lhs = gauss_map_area_pullback(surface, 24)
        rhs, _, _ = gauss_bonnet_check(surface, 24)
        assert abs(lhs - rhs) <= 1e-12

    @pytest.mark.parametrize("radius", [Fraction(1, 10**6), Fraction(1, 10**9)])
    def test_tiny_spheres(self, radius):
        # K dA does not depend on the scale, and no node is rank-deficient
        surface = Surface([sh.sphere_cell(radius)], chi=2)
        assert gauss_bonnet_check(surface, 24)[2] <= 1e-12
        exact = 4 * math.pi * float(radius) ** 2
        assert abs(surface_area(surface, 24) - exact) <= 1e-12 * exact


class TestAreas:
    def test_sphere_area(self):
        surface = Surface([sh.sphere_cell()], chi=2)
        assert abs(surface_area(surface, 32) - 4 * math.pi) <= 1e-6

    def test_flat_square(self):
        evaluator = area_form_evaluator(sh.flat_square_cell())
        assert abs(evaluator((0.25, 0.75)) - 1.0) <= 1e-12

    def test_torus_area(self):
        surface = Surface([sh.torus_cell(2, 1)], chi=0)
        assert abs(surface_area(surface, 32) - 8 * math.pi**2) <= 1e-6

    def test_pinned_face_refused(self):
        # the rho = 1 face of the half ball is the hemisphere, but its map
        # takes (rho, phi, theta); reading Jacobian columns 0 and 1 would
        # give the (rho, phi) frame and an area of pi^2, not 2 pi
        sphere_face = next(face for _, face in boundary(sh.half_ball_cell()))
        assert sphere_face.box[0] == 1.0
        with pytest.raises(DimensionMismatch):
            surface_area(Surface([sphere_face], chi=1), 24)
        with pytest.raises(DimensionMismatch):
            gauss_map(sphere_face, (1.0, 0.5, 0.5))


def _crossing_count_linking(points1, points2, direction):
    """Signed crossing count between two projected closed polylines / 2."""
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    helper = np.array([1.0, 0.0, 0.0])
    if abs(d @ helper) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(d, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(d, e1)

    def project(points):
        flat = np.column_stack([points @ e1, points @ e2])
        depth = points @ d
        return flat, depth

    f1, h1 = project(points1)
    f2, h2 = project(points2)
    total = 0
    n1, n2 = len(f1), len(f2)
    for i in range(n1):
        a0, a1 = f1[i], f1[(i + 1) % n1]
        for j in range(n2):
            b0, b1 = f2[j], f2[(j + 1) % n2]
            r = a1 - a0
            s = b1 - b0
            denom = r[0] * s[1] - r[1] * s[0]
            if abs(denom) < 1e-14:
                continue
            q = b0 - a0
            t1 = (q[0] * s[1] - q[1] * s[0]) / denom
            t2 = (q[0] * r[1] - q[1] * r[0]) / denom
            if not (0 <= t1 < 1 and 0 <= t2 < 1):
                continue
            depth_a = h1[i] * (1 - t1) + h1[(i + 1) % n1] * t1
            depth_b = h2[j] * (1 - t2) + h2[(j + 1) % n2] * t2
            # positive crossing: det[over tangent, under tangent] > 0
            cross2 = denom  # det[r, s]
            if depth_a > depth_b:
                total += 1 if cross2 > 0 else -1
            else:
                total += -1 if cross2 > 0 else 1
    assert total % 2 == 0
    return total // 2


class TestLinking:
    def hopf_pair(self):
        l1 = circle_loop_3d(plane="xy")
        l2 = circle_loop_3d(center=(1, 0, 0), plane="xz")
        return l1, l2

    def test_hopf_pair_links_once(self):
        l1, l2 = self.hopf_pair()
        value, nearest = linking_number(l1, l2, 32)
        assert nearest == -1
        assert abs(value - nearest) <= 1e-3

    def test_crossing_count_oracle(self):
        l1, l2 = self.hopf_pair()
        _, nearest = linking_number(l1, l2, 32)
        crossings = _crossing_count_linking(
            l1.sample(400), l2.sample(400), (0.213, -0.531, 0.829)
        )
        assert crossings == nearest

    def test_far_apart_pair(self):
        l1 = circle_loop_3d(plane="xy")
        l2 = circle_loop_3d(center=(10, 0, 0), plane="xz")
        value, nearest = linking_number(l1, l2, 32)
        assert nearest == 0
        assert abs(value) <= 1e-6

    def test_orientation_reversal_flips_sign(self):
        l1, l2 = self.hopf_pair()
        v1, _ = linking_number(l1, l2, 32)
        v2, _ = linking_number(l1.reversed(), l2, 32)
        assert abs(v1 + v2) <= 1e-12

    def test_near_singular_rejected(self):
        from fractions import Fraction

        # second circle slides along x until the curves almost touch at (1,0,0)
        l1 = circle_loop_3d(plane="xy")
        touching = circle_loop_3d(
            center=(2 - Fraction(1, 100000), 0, 0), plane="xz"
        )
        with pytest.raises(SingularityError):
            linking_number(l1, touching, 32)

    def test_small_perturbation_keeps_linking(self):
        from fractions import Fraction

        l1, l2 = self.hopf_pair()
        base, nearest = linking_number(l1, l2, 32)
        th = S.variable(0)
        bump = 1 + S.constant(Fraction(1, 1000)) * S.cos(2 * th)
        wobbly = Loop(
            Cell(
                ((0.0, TWO_PI),),
                SmoothMap(1, 3, [bump * S.cos(th), bump * S.sin(th), S.constant(0)]),
            )
        )
        value, still = linking_number(wobbly, l2, 32)
        assert still == nearest
        assert abs(value - base) < 1e-3

    def test_frozen_kernel_matches_symbolic_pullback(self):
        l1, l2 = self.hopf_pair()
        integrand = linking_integrand_symbolic(l1, l2)
        coeff = integrand.terms[(0, 1)]
        rng = make_rng(19)
        for _ in range(8):
            s_val = rng.uniform(0, TWO_PI)
            t_val = rng.uniform(0, TWO_PI)
            sym = coeff.evaluate([s_val, t_val])
            p1 = np.array([math.cos(s_val), math.sin(s_val), 0.0])
            d1 = np.array([-math.sin(s_val), math.cos(s_val), 0.0])
            p2 = np.array([1 + math.cos(t_val), 0.0, math.sin(t_val)])
            d2 = np.array([-math.sin(t_val), 0.0, math.cos(t_val)])
            diff = p1 - p2
            kern = np.linalg.det(np.column_stack([d1, d2, diff])) / np.linalg.norm(
                diff
            ) ** 3
            assert abs(sym - kern) <= 1e-10

    @pytest.mark.parametrize("scale", [Fraction(1, 10**4), 10**6])
    def test_scaled_hopf_pair_links_once(self, scale):
        l1 = circle_loop_3d(plane="xy", radius=scale)
        l2 = circle_loop_3d(center=(scale, 0, 0), plane="xz", radius=scale)
        value, nearest = linking_number(l1, l2, 32)
        assert nearest == -1 and abs(value + 1) <= 1e-3

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [10**110, 10**160], ids=["1e110", "1e160"])
    def test_overflowing_kernel_is_refused(self, scale):
        # the cube of the distance overflows: no numpy warning and no bare
        # ValueError from round(nan), but one SingularityError
        l1 = circle_loop_3d(plane="xy", radius=scale)
        l2 = circle_loop_3d(center=(scale, 0, 0), plane="xz", radius=scale)
        message = "^the weighted quadrature sum is not a finite number$"
        with pytest.raises(SingularityError, match=message):
            linking_number(l1, l2, 32)
