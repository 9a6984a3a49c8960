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

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .cells import Cell, Chain, quad_points
from .errors import (
    DegreeError,
    DimensionMismatch,
    NotClosedError,
    RankDeficientError,
    SingularityError,
)
from .forms import DifferentialForm, angular_form, solid_angle_form
from .integrate import _finite_sum, box_rule, integrate, integrate_cell
from .maps import SmoothMap, compose, pullback
from .scalar import first_node, variable

# numpy is imported inside the functions that use it, so that importing
# extcalc (and every symbolic CLI verb) does not pay for loading it
if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class Loop:
    """A closed parametrized curve: a 1-cell whose endpoints are finite and
    agree in every coordinate to 1e-12 times the largest endpoint coordinate
    magnitude, or to 1e-12 where that is below 1."""

    cell: Cell

    def __post_init__(self):
        if self.cell.k != 1:
            raise DegreeError("a loop is a 1-cell")
        if self.cell.mapping.n != 1:
            raise DimensionMismatch("a loop cell must have no pinned parameters")
        (a, b), = self.cell.box
        pa = self.cell.mapping([a])
        pb = self.cell.mapping([b])
        ends = [*pa, *pb]
        # one scale for every coordinate, since a gap may sit where a
        # coordinate is near 0; finite first, since an inf would make the
        # tolerance inf, and max() keeps or drops a nan by its position
        if not all(map(math.isfinite, ends)) or (
                max(abs(x - y) for x, y in zip(pa, pb)) > 1e-12 * max(1.0, *map(abs, ends))):
            raise NotClosedError(f"endpoints {tuple(pa)} and {tuple(pb)} differ by more "
                                 "than 1e-12 relative to their size; not a closed loop")

    @property
    def ambient(self):
        return self.cell.ambient

    def reversed(self) -> "Loop":
        return Loop(self.cell.flipped())

    def sample(self, count: int) -> np.ndarray:
        import numpy as np

        (a, b), = self.cell.box
        ts = np.linspace(a, b, count, endpoint=False)
        return self.cell.mapping.columns([ts])[0].T


_GUARD_SAMPLES = 1024
# loops closer than this times their extent (sampled at _GUARD_SAMPLES
# points) are rejected
_MIN_DISTANCE_FACTOR = 1e-3

# the angular form and its coefficient tape, built once per process
_angular_form = functools.cache(angular_form)


def winding_number(loop: Loop, spec=32):
    """Winding of a loop in R^2 minus the origin.

    Returns (value, nearest integer); value is the loop integral of the
    angular form divided by 2 pi.  A loop whose _GUARD_SAMPLES samples come
    within 1e-3 times its extent of the origin is rejected rather than
    integrated, as ``linking_number`` rejects loops, and the error names the
    least sampled distance; so is a loop whose samples reach so far that
    x^2 + y^2 overflows.
    """
    import numpy as np

    if loop.ambient != 2:
        raise DimensionMismatch("winding numbers live in R^2")
    pts = loop.sample(_GUARD_SAMPLES)
    with np.errstate(all="ignore"):
        bound = _MIN_DISTANCE_FACTOR * _loop_extent(pts)
        gap = _min_distance(pts, np.zeros((1, 2)), bound)
    if gap < bound:
        raise SingularityError(f"loop comes within {gap:.3e} of the origin")
    reach = float(np.max(np.abs(pts)))
    # where x^2 + y^2 overflows, every node value of the angular form reads 0
    if reach * reach == math.inf:
        raise SingularityError(f"loop reaches {reach:.3e}, where x^2 + y^2 overflows")
    value = integrate_cell(_angular_form(), loop.cell, spec) / (2 * math.pi)
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
        raise SingularityError("test form integrates to zero over the codomain")
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
    import numpy as np

    tangents = np.array(cell.mapping.jacobian_at(list(params)))  # 3 x 2
    pushed = np.array(f.jacobian_at(cell.mapping(list(params)))) @ tangents
    dom_det = area_form_evaluator(cell)(params)
    n_cod = gauss_map(codomain_cell, codomain_params)
    img_det = np.linalg.det(np.column_stack([n_cod, pushed[:, 0], pushed[:, 1]]))
    return int(np.sign(dom_det * img_det))


# ---------------------------------------------------------------------------
# Curvature


def _point(params):
    import numpy as np

    return [np.array([float(p)]) for p in params]


def _surface_frame(cell: Cell, cols, order=1):
    """Exact tangents r_s, r_t (3 x n arrays), the oriented unit normal and
    the area element |r_s x r_t| at the nodes, and for order 2 also the
    exact r_ss, r_st, r_tt, all from one batch of the map.  The first node
    where the tangents are parallel relative to their lengths or one
    vanishes, |r_s x r_t|^2 <= 1e-24 |r_s|^2 |r_t|^2 with a finite left
    side, raises RankDeficientError naming that node, so the test does not
    depend on the surface's scale; then the first with an area element that
    is not finite raises SingularityError (with a finite jet, the frame is
    finite exactly where the area element is)."""
    import numpy as np

    if cell.k != 2 or cell.mapping.n != 2 or cell.ambient != 3:
        raise DimensionMismatch("Gauss map needs an unpinned surface cell in R^3")
    _, jac, *second = cell.mapping.columns(cols, order)
    r_s, r_t = jac[:, 0], jac[:, 1]
    with np.errstate(all="ignore"):
        cross = np.cross(r_s, r_t, axis=0)
        square = np.sum(cross * cross, axis=0)
        area = np.sqrt(square)
        frame = (r_s, r_t, cell.orientation * cross / area, area)
        flat = square <= 1e-24 * np.sum(r_s * r_s, axis=0) * np.sum(r_t * r_t, axis=0)
    node = first_node(cols, flat & np.isfinite(square))
    if node is not None:
        raise RankDeficientError(f"rank-deficient node {node}")
    node = first_node(cols, ~np.isfinite(area))
    if node is not None:
        raise SingularityError(f"area element not finite at node {node}")
    for h in second:
        frame += (h[:, 0], h[:, 1], h[:, 2])
    return frame


def gauss_map(cell: Cell, params) -> np.ndarray:
    """Outward unit normal of an oriented surface cell at parameter values."""
    return _surface_frame(cell, _point(params))[2][:, 0]


def shape_operator(cell: Cell, params) -> np.ndarray:
    """The derivative of the Gauss map in the tangent frame (2x2 matrix).

    Differentiating n . r_s = n . r_t = 0 gives r_i . n_j = -II_ij, so the
    operator is -I^{-1} II.
    """
    import numpy as np

    r_s, r_t, normal, _, *second = _surface_frame(cell, _point(params), 2)
    tangents = (r_s[:, 0], r_t[:, 0])
    first = [[a @ b for b in tangents] for a in tangents]
    l, m, n = (r[:, 0] @ normal[:, 0] for r in second)
    return -np.linalg.solve(first, [[l, m], [m, n]])


def gauss_curvature(cell: Cell, params) -> float:
    """det of the shape operator; independent of the chosen orientation."""
    import numpy as np

    return float(np.linalg.det(shape_operator(cell, params)))


@dataclass
class Surface:
    """A closed oriented surface given by parametric cells plus its declared
    Euler characteristic."""

    cells: list
    chi: int

    def __post_init__(self):
        for c in self.cells:
            if c.k != 2 or c.mapping.n != 2 or c.ambient != 3:
                raise DimensionMismatch("surface cells are unpinned 2-cells in R^3")


def _surface_integral(surface: Surface, spec, density) -> float:
    """Quadrature of density(cell, grid) over every cell, on the open grid of
    ``box_rule``, summed in order."""
    import numpy as np

    q = quad_points(spec)
    total = 0.0
    for cell in surface.cells:
        grid, weights = box_rule(cell.box, q)
        with np.errstate(all="ignore"):
            total += float(np.sum(weights.ravel() * density(cell, grid)))
    return _finite_sum(total)


def _curvature_density(cell: Cell, cols):
    """K dA at the nodes: K = (LN - M^2)/(EG - F^2) (do Carmo, Differential
    Geometry of Curves and Surfaces, 1976, section 3-3), EG - F^2 = dA^2."""
    import numpy as np

    _, _, normal, area, *second = _surface_frame(cell, cols, 2)
    l, m, n = (np.sum(r * normal, axis=0) for r in second)
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
    import numpy as np

    r_s, r_t, normal, area, r_ss, r_st, r_tt = _surface_frame(cell, cols, 2)
    c_s = np.cross(r_ss, r_t, axis=0) + np.cross(r_s, r_st, axis=0)
    c_t = np.cross(r_st, r_t, axis=0) + np.cross(r_s, r_tt, axis=0)
    return np.sum(normal * np.cross(c_s, c_t, axis=0), axis=0) / (area * area)


def gauss_map_area_pullback(surface: Surface, spec=24) -> float:
    """Integral over the surface of the Gauss-map pullback of the sphere
    area form; equals the total curvature integral."""
    return _surface_integral(surface, spec, _pullback_density)


# ---------------------------------------------------------------------------
# Linking


def linking_number(loop1: Loop, loop2: Loop, spec=32):
    """Gauss linking integral of two disjoint loops in R^3.

    The kernel det[g1'(s), g2'(t), g1(s) - g2(t)] / |g1(s) - g2(t)|^3 is the
    coefficient of the pullback of the solid-angle form through
    (s, t) -> (g2(t) - g1(s)) / |...|, frozen here and cross-checked against
    the generic symbolic pullback in the test suite.  Returns
    (value, nearest integer).  Two loops whose samples, _GUARD_SAMPLES on
    each, come within 1e-3 times the larger loop extent of each other are
    rejected rather than integrated, and the error names the least sampled
    distance.  A guard or kernel that overflows warns nothing, and a sum
    that is not finite raises SingularityError.
    """
    import numpy as np

    if loop1.ambient != 3 or loop2.ambient != 3:
        raise DimensionMismatch("linking numbers live in R^3")
    q = quad_points(spec)
    guard1 = loop1.sample(_GUARD_SAMPLES)
    guard2 = loop2.sample(_GUARD_SAMPLES)
    with np.errstate(all="ignore"):
        bound = _MIN_DISTANCE_FACTOR * max(_loop_extent(guard1), _loop_extent(guard2))
        min_gap = _min_distance(guard1, guard2, bound)
        if min_gap < bound:
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
        total = _finite_sum(float(np.sum(np.outer(w1, w2) * (triple / dist**3))))
    value = loop1.cell.orientation * loop2.cell.orientation * total / (4 * math.pi)
    return value, round(value)


# consecutive guard samples per run; a box around each run prunes the pairs
_RUN = 32


def _min_distance(points1, points2, bound: float) -> float:
    """The least distance between two point sets (n x d arrays) if it is
    below ``bound``; otherwise some value >= ``bound``, possibly inf.

    Each set is cut into runs of _RUN consecutive points, each run is
    enclosed in its axis-aligned box, and only the pairs of runs whose
    boxes come closer than ``bound`` are compared point by point, each row
    run against all its partners at once.  Per axis a box gap never exceeds
    the rounded coordinate difference of two points inside, and the squares
    are summed over the axes in the same order, so every pair of points
    closer than ``bound`` is compared and a minimum below ``bound`` is the
    one the full distance matrix gives, bit for bit.
    """
    import numpy as np

    runs1, runs2 = _runs(points1), _runs(points2)
    lo1, hi1 = runs1.min(axis=2), runs1.max(axis=2)
    lo2, hi2 = runs2.min(axis=2), runs2.max(axis=2)
    # per axis, the gap between the boxes of every pair of runs (d x r1 x r2)
    gaps = np.maximum(lo2[:, None, :] - hi1[:, :, None], lo1[:, :, None] - hi2[:, None, :])
    near = np.sqrt(sum(np.maximum(0.0, g) ** 2 for g in gaps)) < bound
    least = math.inf
    for row in np.flatnonzero(near.any(axis=1)):
        partners = runs2[:, near[row]].reshape(len(runs2), -1)
        squares = sum((a[:, None] - b) ** 2 for a, b in zip(runs1[:, row], partners))
        least = min(least, float(squares.min()))
    return math.sqrt(least)


def _runs(points: np.ndarray) -> np.ndarray:
    """The coordinates of the points cut into runs of _RUN, a d x r x _RUN
    array; the last run is filled up with the final point, which changes
    no minimum."""
    import numpy as np

    cols = points.T
    pad = np.repeat(cols[:, -1:], -len(points) % _RUN, axis=1)
    return np.concatenate([cols, pad], axis=1).reshape(len(cols), -1, _RUN)


def _loop_tables(loop: Loop, q: int):
    """Positions and velocities (q x m arrays) at the Gauss-Legendre nodes,
    and the node weights."""
    cols, weights = box_rule(loop.cell.box, q)
    values, jac = loop.cell.mapping.columns(cols)
    return values.T, jac[:, 0].T, weights


def _loop_extent(points: np.ndarray) -> float:
    import numpy as np

    return float(np.max(points.max(axis=0) - points.min(axis=0)))


def linking_integrand_symbolic(loop1: Loop, loop2: Loop) -> DifferentialForm:
    """The pullback of the solid-angle form through the difference map,
    as a symbolic 2-form in the two loop parameters (s = axis 0, t = axis 1).

    This is the generic route the frozen kernel is checked against.
    """
    s_comps = [c.substitute([variable(0)]) for c in loop1.cell.mapping.components]
    t_comps = [c.substitute([variable(1)]) for c in loop2.cell.mapping.components]
    g = SmoothMap(2, 3, [tc - sc for sc, tc in zip(s_comps, t_comps)])
    return pullback(g, solid_angle_form())
