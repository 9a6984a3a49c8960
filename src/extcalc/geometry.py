"""Degree-theoretic and curvature integrals.

Winding numbers, Stokes-obstruction certificates, mapping degree by
integration, the Gauss map / shape operator / Gauss curvature of parametric
surfaces, Gauss-Bonnet, hypersurface area via the contracted volume form,
and the Gauss linking integral.

Curvature is exact up to rounding: the first and second derivatives of a
surface parametrization are differentiated symbolically once per map and
evaluated at the nodes.  K = (LN - M^2)/(EG - F^2), and the shape operator
is -I^{-1} II, whose determinant K does not depend on the orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cells import Cell, Chain, quad_points
from .errors import (
    DegreeError,
    DimensionMismatch,
    RankDeficientError,
    SingularityError,
)
from .forms import DifferentialForm, angular_form
from .integrate import boundary, box_rule, integrate, integrate_cell
from .maps import SmoothMap, compose, pullback
from .scalar import evaluate_columns, variable


@dataclass(frozen=True)
class Loop:
    """A closed parametrized curve: a 1-cell whose endpoints coincide."""

    cell: Cell
    closure_tol: float = 1e-12

    def __post_init__(self):
        if self.cell.k != 1:
            raise DegreeError("a loop is a 1-cell")
        (a, b), = self.cell.box
        pa = self.cell.mapping([a])
        pb = self.cell.mapping([b])
        gap = max(abs(x - y) for x, y in zip(pa, pb))
        if gap > self.closure_tol:
            raise ValueError(f"endpoints differ by {gap:.3e}; not a closed loop")

    @property
    def ambient(self):
        return self.cell.ambient

    def reversed(self) -> "Loop":
        return Loop(self.cell.flipped(), self.closure_tol)

    def sample(self, count: int) -> np.ndarray:
        (a, b), = self.cell.box
        ts = np.linspace(a, b, count, endpoint=False)
        return evaluate_columns(self.cell.mapping.components, [ts]).T


_GUARD_SAMPLES = 1024


def winding_number(loop: Loop, spec=32, min_distance_factor=1e-3):
    """Winding of a loop in R^2 minus the origin.

    Returns (value, nearest integer); value is the loop integral of the
    angular form divided by 2 pi.  Loops coming within
    min_distance_factor * extent of the origin (sampled densely) are
    rejected rather than integrated.
    """
    if loop.ambient != 2:
        raise DimensionMismatch("winding numbers live in R^2")
    pts = loop.sample(_GUARD_SAMPLES)
    gap = _min_distance(pts, np.zeros((1, 2)))
    if gap < min_distance_factor * max(1.0, _loop_extent(pts)):
        raise SingularityError(f"loop comes within {gap:.3e} of the origin")
    value = integrate_cell(angular_form(), loop.cell, spec) / (2 * math.pi)
    return value, round(value)


def nonexactness_certificate(form, chain, spec=16, tol=1e-6):
    """Integrate a closed form over a closed chain.

    A nonzero period certifies that the form is not exact on any domain
    containing the chain (Stokes obstruction).  Returns (integral, verdict).
    """
    value = integrate(form, chain, spec)
    if abs(value) > tol:
        return value, "not exact on this domain"
    return value, "inconclusive"


def mapping_degree(f: SmoothMap, domain, codomain, testform, spec=16):
    """Degree of f as the ratio of periods of a test form.

    domain and codomain are closed chains of equal dimension; the test form
    must have nonzero integral over the codomain.
    """
    denom = integrate(testform, codomain, spec)
    if abs(denom) < 1e-12:
        raise ZeroDivisionError("test form integrates to zero over the codomain")
    if isinstance(domain, Cell):
        domain = Chain.of(domain)
    # integrating the test form over the cells remapped by f is exactly the
    # integral of f*(testform) over the original domain
    remapped = Chain(
        [(w, Cell(c.box, compose(f, c.mapping), c.orientation)) for w, c in domain]
    )
    value = integrate(testform, remapped, spec) / denom
    return value, round(value)


def local_degree_sign(f: SmoothMap, cell: Cell, params, codomain_cell: Cell, codomain_params):
    """Sign of det(df) at a point, measured between outward-oriented surfaces.

    The domain tangent frame is pushed through the Jacobian of f and compared
    with the codomain orientation; used to pin expected mapping degrees.
    """
    tangents = np.array(cell.mapping.jacobian_at(list(params)))  # 3 x 2
    pushed = np.array(f.jacobian_at(cell.mapping(list(params)))) @ tangents
    dom_det = area_form_evaluator(cell)(params)
    n_cod = gauss_map(codomain_cell, codomain_params)
    img_det = np.linalg.det(np.column_stack([n_cod, pushed[:, 0], pushed[:, 1]]))
    return int(np.sign(dom_det * img_det))


# ---------------------------------------------------------------------------
# Curvature


_HERE = "parametrization is rank-deficient here"


def _point(params):
    return [np.array([float(p)]) for p in params]


def _surface_frame(cell: Cell, cols, rank_message=_HERE):
    """Exact tangents r_s, r_t (3 x n arrays), the oriented unit normal and
    the area element |r_s x r_t| at the nodes; the first node with an area
    element below 1e-12 raises RankDeficientError(rank_message.format(node=...))."""
    if cell.k != 2 or cell.ambient != 3:
        raise DimensionMismatch("Gauss map needs a surface cell in R^3")
    exprs = [row[j] for j in (0, 1) for row in cell.mapping.jacobian()]
    r_s, r_t = evaluate_columns(exprs, cols).reshape(2, 3, -1)
    cross = np.cross(r_s, r_t, axis=0)
    area = np.sqrt(np.sum(cross * cross, axis=0))
    bad = np.flatnonzero(area < 1e-12)
    if bad.size:
        node = tuple(float(c[bad[0]]) for c in cols)
        raise RankDeficientError(rank_message.format(node=node))
    return r_s, r_t, cell.orientation * cross / area, area


def _second_partials(cell: Cell, cols):
    """Exact r_ss, r_st, r_tt at the nodes, each a 3 x n array."""
    pairs = ((0, 0), (0, 1), (1, 1))
    exprs = [h[j][l] for j, l in pairs for h in cell.mapping.hessian()]
    return evaluate_columns(exprs, cols).reshape(3, 3, -1)


def gauss_map(cell: Cell, params) -> np.ndarray:
    """Outward unit normal of an oriented surface cell at parameter values."""
    return _surface_frame(cell, _point(params))[2][:, 0]


def shape_operator(cell: Cell, params) -> np.ndarray:
    """The derivative of the Gauss map in the tangent frame (2x2 matrix).

    Differentiating n . r_s = n . r_t = 0 gives r_i . n_j = -II_ij, so the
    operator is -I^{-1} II.
    """
    cols = _point(params)
    r_s, r_t, normal, _ = _surface_frame(cell, cols)
    tangents = (r_s[:, 0], r_t[:, 0])
    first = [[a @ b for b in tangents] for a in tangents]
    l, m, n = (r[:, 0] @ normal[:, 0] for r in _second_partials(cell, cols))
    return -np.linalg.solve(first, [[l, m], [m, n]])


def gauss_curvature(cell: Cell, params) -> float:
    """det of the shape operator; independent of the chosen orientation."""
    return float(np.linalg.det(shape_operator(cell, params)))


@dataclass
class Surface:
    """A closed oriented surface given by parametric cells plus its declared
    Euler characteristic."""

    cells: list
    chi: int
    seam_tol: float = 1e-6

    def __post_init__(self):
        for c in self.cells:
            if c.k != 2 or c.ambient != 3:
                raise DimensionMismatch("surface cells are 2-cells in R^3")

    def validate_closed(self, spec=16):
        """Integrate a fixed 1-form over the total boundary; near zero for a
        closed surface (seams cancel)."""
        x, y, z = variable(0), variable(1), variable(2)
        # includes a circulation term (x dy) so open equatorial seams register
        probe = DifferentialForm(
            3, 1, {(0,): y * z + x, (1,): x * z - y * y + x, (2,): x * y * z}
        )
        total = 0.0
        for c in self.cells:
            total += integrate(probe, boundary(c), spec)
        if abs(total) > self.seam_tol:
            raise ValueError(
                f"surface seams do not cancel: probe boundary integral {total:.3e}"
            )
        return total


def _surface_integral(surface: Surface, spec, density) -> float:
    """Quadrature of density(cell, cols) over every cell, summed in order."""
    q = quad_points(spec)
    total = 0.0
    for cell in surface.cells:
        cols, weights = box_rule(cell.box, q)
        total += float(np.sum(weights * density(cell, cols)))
    return total


def _curvature_density(cell: Cell, cols):
    """K dA at the nodes: K = (LN - M^2)/(EG - F^2) (do Carmo, Differential
    Geometry of Curves and Surfaces, 1976, section 3-3), EG - F^2 = dA^2."""
    r_s, r_t, normal, area = _surface_frame(cell, cols, "rank-deficient node {node}")
    l, m, n = (np.sum(r * normal, axis=0) for r in _second_partials(cell, cols))
    return (l * n - m * m) / area


def gauss_bonnet_check(surface: Surface, spec=24):
    """Quadrature of K dA over the surface against 2 pi chi.

    Returns (integral, expected, residual).
    """
    total = _surface_integral(surface, spec, _curvature_density)
    expected = 2 * math.pi * surface.chi
    return total, expected, abs(total - expected)


def area_form_evaluator(cell: Cell):
    """Pointwise evaluator of the hypersurface volume form.

    Returns f(params) = dV(n, d psi/ds, d psi/dt), the coefficient of the
    area form pulled back to the parameter box; integrating it over the box
    gives the (oriented) surface area: orientation * |r_s x r_t|.
    """
    return lambda params: cell.orientation * float(_surface_frame(cell, _point(params))[3][0])


def surface_area(surface: Surface, spec=24) -> float:
    """Total area: integral of the contracted volume form over all cells."""
    return _surface_integral(surface, spec, lambda cell, cols: _surface_frame(cell, cols)[3])


def _pullback_density(cell: Cell, cols):
    """det[n, n_s, n_t] at the nodes.  With c = r_s x r_t the normal is
    n = c/|c| and n_j = (c_j - n (n . c_j))/|c|, where
    c_s = r_ss x r_t + r_s x r_st and c_t = r_st x r_t + r_s x r_tt; the
    normal parts drop out of the determinant, leaving n . (c_s x c_t)/|c|^2."""
    r_s, r_t, normal, area = _surface_frame(cell, cols)
    r_ss, r_st, r_tt = _second_partials(cell, cols)
    c_s = np.cross(r_ss, r_t, axis=0) + np.cross(r_s, r_st, axis=0)
    c_t = np.cross(r_st, r_t, axis=0) + np.cross(r_s, r_tt, axis=0)
    return np.sum(normal * np.cross(c_s, c_t, axis=0), axis=0) / (area * area)


def gauss_map_area_pullback(surface: Surface, spec=24) -> float:
    """Integral over the surface of the Gauss-map pullback of the sphere
    area form; equals the total curvature integral."""
    return _surface_integral(surface, spec, _pullback_density)


# ---------------------------------------------------------------------------
# Linking


def linking_number(loop1: Loop, loop2: Loop, spec=32, min_distance_factor=1e-3):
    """Gauss linking integral of two disjoint loops in R^3.

    The kernel det[g1'(s), g2'(t), g1(s) - g2(t)] / |g1(s) - g2(t)|^3 is the
    coefficient of the pullback of the solid-angle form through
    (s, t) -> (g2(t) - g1(s)) / |...|, frozen here and cross-checked against
    the generic symbolic pullback in the test suite.  Returns
    (value, nearest integer).
    """
    if loop1.ambient != 3 or loop2.ambient != 3:
        raise DimensionMismatch("linking numbers live in R^3")
    q = quad_points(spec)
    guard1 = loop1.sample(_GUARD_SAMPLES)
    guard2 = loop2.sample(_GUARD_SAMPLES)
    scale = max(_loop_extent(guard1), _loop_extent(guard2))
    min_gap = _min_distance(guard1, guard2)
    if min_gap < min_distance_factor * scale:
        raise SingularityError(
            f"loops come within {min_gap:.3e} of each other; "
            "the linking integrand is nearly singular"
        )
    pos1, vel1, w1 = _loop_tables(loop1, q)
    pos2, vel2, w2 = _loop_tables(loop2, q)
    diff = pos1[:, None, :] - pos2[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    # det[g1', g2', diff] as the triple product diff . (g1' x g2')
    triple = np.sum(np.cross(vel1[:, None, :], vel2[None, :, :]) * diff, axis=2)
    total = float(np.sum(np.outer(w1, w2) * (triple / dist**3)))
    value = loop1.cell.orientation * loop2.cell.orientation * total / (4 * math.pi)
    return value, round(value)


def _min_distance(points1, points2) -> float:
    """Least distance between two point sets, 128 rows at a time."""
    least = math.inf
    for block in np.split(points1, range(128, len(points1), 128)):
        squares = sum((block[:, None, i] - c) ** 2 for i, c in enumerate(points2.T))
        least = min(least, float(squares.min()))
    return math.sqrt(least)


def _loop_tables(loop: Loop, q: int):
    """Positions and velocities (q x m arrays) at the Gauss-Legendre nodes,
    and the node weights."""
    cols, weights = box_rule(loop.cell.box, q)
    mapping = loop.cell.mapping
    exprs = list(mapping.components) + [row[0] for row in mapping.jacobian()]
    values = evaluate_columns(exprs, cols)
    return values[:mapping.m].T, values[mapping.m:].T, weights


def _loop_extent(points: np.ndarray) -> float:
    return float(np.max(points.max(axis=0) - points.min(axis=0)))


def linking_integrand_symbolic(loop1: Loop, loop2: Loop) -> DifferentialForm:
    """The pullback of the solid-angle form through the difference map,
    as a symbolic 2-form in the two loop parameters (s = axis 0, t = axis 1).

    This is the generic route the frozen kernel is checked against.
    """
    from .forms import solid_angle_form

    s_comps = [c.substitute([variable(0)]) for c in loop1.cell.mapping.components]
    t_comps = [c.substitute([variable(1)]) for c in loop2.cell.mapping.components]
    g = SmoothMap(2, 3, [tc - sc for sc, tc in zip(s_comps, t_comps)])
    return pullback(g, solid_angle_form())
