"""Numeric integration of forms over chains; boundaries; Stokes checks.

The semantics is the limit of Riemann sums over parameter boxes; the
evaluator is tensor-product Gauss-Legendre quadrature applied to the single
coefficient of the pulled-back form; ``box_rule`` lays out the nodes of
every quadrature in the package.  Node contributions are summed by ``np.sum``
in lexicographic order and chain terms in list order, so results are
bit-reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cells import Cell, Chain, PointChain, quad_points
from .errors import DegreeError, DimensionMismatch, SingularityError
from .forms import DifferentialForm
from .maps import freeze_axis, pullback
from .scalar import evaluate_columns


@lru_cache(maxsize=None)
def _leggauss(q: int):
    return np.polynomial.legendre.leggauss(q)


def box_rule(box, q: int):
    """Tensor-product Gauss-Legendre rule with q points per axis: one array
    per axis with the q^k nodes in lexicographic order (first axis slowest),
    and their weights, each the product of the axis weights in axis order."""
    x, w = _leggauss(q)
    k = len(box)
    cols = []
    weights = np.ones(1)
    for i, (a, b) in enumerate(box):
        half = (b - a) / 2.0
        col = np.empty((q**i, q, q ** (k - 1 - i)))
        col[...] = ((b + a) / 2.0 + half * x)[:, None]
        cols.append(col.ravel())
        weights = np.multiply.outer(weights, half * w).ravel()
    return cols, weights


def integrate_cell(form: DifferentialForm, cell: Cell, spec=16) -> float:
    """Integral of a k-form over an oriented k-cell."""
    q = quad_points(spec)
    if form.k != cell.k:
        raise DegreeError(
            f"degree-{form.k} form cannot be integrated over a {cell.k}-cell"
        )
    if form.n != cell.ambient:
        raise DimensionMismatch(
            f"form on R^{form.n} vs cell in R^{cell.ambient}"
        )
    pulled = pullback(cell.mapping, form)
    coeff = pulled.terms.get(tuple(range(cell.k)))
    if coeff is None:
        return 0.0
    cols, weights = box_rule(cell.box, q)
    try:
        (values,) = evaluate_columns([coeff], cols)
    except SingularityError as err:
        raise SingularityError(
            f"integrand singular at quadrature node {err.node}: {err}"
        ) from err
    return cell.orientation * float((weights * values).sum())


def integrate_points(form: DifferentialForm, pc: PointChain) -> float:
    """Signed sum of a 0-form over a point chain."""
    if form.k != 0:
        raise DegreeError("point chains integrate 0-forms only")
    coeff = form.terms.get((), None)
    if coeff is None:
        return 0.0
    f = coeff.compiled()
    total = 0.0
    for sign, point in pc:
        total += sign * f(list(point))
    return total


def integrate(form: DifferentialForm, domain, spec=16) -> float:
    """Integrate a form over a Cell, Chain, or PointChain."""
    if isinstance(domain, Cell):
        return integrate_cell(form, domain, spec)
    if isinstance(domain, Chain):
        total = 0.0
        for w, cell in domain:
            if w:
                total += w * integrate_cell(form, cell, spec)
        return total
    if isinstance(domain, PointChain):
        return integrate_points(form, domain)
    raise TypeError(f"cannot integrate over {type(domain).__name__}")


def boundary(domain):
    """Oriented boundary of a cell or chain.

    Faces follow the product-box convention: with axes numbered from 1, the
    face {x_j = b_j} enters with sign (-1)^(j-1) and {x_j = a_j} with sign
    (-1)^j, both multiplied by the cell orientation.  For k = 1 the result is
    a PointChain, otherwise a Chain of (k-1)-cells.
    """
    if isinstance(domain, Chain):
        parts = [(w, boundary(c)) for w, c in domain if w]
        if domain.k == 1:
            points = []
            for w, pc in parts:
                points.extend((w * s, p) for s, p in pc)
            return PointChain(points)
        terms = []
        for w, ch in parts:
            terms.extend((w * wc, cc) for wc, cc in ch)
        return Chain(terms)
    cell = domain
    if cell.k < 1:
        raise DegreeError("boundary needs a cell of dimension >= 1")
    if cell.k == 1:
        (a, b), = cell.box
        pa = cell.mapping([a])
        pb = cell.mapping([b])
        return PointChain(
            [(cell.orientation, pb), (-cell.orientation, pa)]
        )
    faces = []
    for j in range(cell.k):
        upper_sign = (-1) ** j  # axis j is the (j+1)-th coordinate
        a, b = cell.box[j]
        rest = cell.box[:j] + cell.box[j + 1:]
        for value, sign in ((b, upper_sign), (a, -upper_sign)):
            # floats are exact binary rationals, so Fraction(value) loses nothing
            face_map = freeze_axis(cell.mapping, j, Fraction(value))
            faces.append(
                (sign * cell.orientation, Cell(rest, face_map, 1))
            )
    return Chain(faces)


def stokes_check(form: DifferentialForm, domain, spec=16):
    """Evaluate both sides of the Stokes identity.

    Returns (lhs, rhs, residual) with lhs the integral of d(form) over the
    domain and rhs the integral of form over its boundary.
    """
    k = domain.k if isinstance(domain, (Cell, Chain)) else None
    if k is None:
        raise TypeError("stokes_check needs a Cell or Chain")
    if form.k != k - 1:
        raise DegreeError(
            f"need a degree-{k - 1} form on a {k}-dimensional domain, "
            f"got degree {form.k}"
        )
    lhs = integrate(form.d(), domain, spec)
    rhs = integrate(form, boundary(domain), spec)
    return lhs, rhs, abs(lhs - rhs)


def hemisphere_transfer_check(form: DifferentialForm, spec=16) -> float:
    """Residual of moving a 2-form integral from the upper unit hemisphere S
    to the equatorial disk S' through the half ball B:

        | int_S w  -  int_S' w  -  int_B dw |

    S carries the outward (upward) orientation and S' the upward one.
    """
    from .shapes import equatorial_disk_cell, half_ball_cell, hemisphere_cell

    if form.n != 3 or form.k != 2:
        raise DimensionMismatch("transfer check applies to 2-forms on R^3")
    s = integrate_cell(form, hemisphere_cell(), spec)
    s_prime = integrate_cell(form, equatorial_disk_cell(), spec)
    b = integrate_cell(form.d(), half_ball_cell(), spec)
    return abs(s - s_prime - b)
