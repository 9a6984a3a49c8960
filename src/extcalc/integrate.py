"""Numeric integration of forms over chains; boundaries; Stokes checks.

The semantics is the limit of Riemann sums over parameter boxes.  The
evaluator is tensor-product Gauss-Legendre quadrature, over the free axes u
of a cell with map g, of the pulled-back coefficient
sum_I a_I(g(u)) det(dg_I/du) (Spivak, Calculus on Manifolds, ch. 4): the
map's components and Jacobian come from the evaluation tape of its batch,
the coefficients a_I are evaluated on the component values by the tape of
the form's batch, and each k x k minor is an explicit sum of products, so
no pulled-back form is built.  ``box_rule`` lays out the nodes of every
quadrature in the package as an open grid: the i-th free axis is an array
that varies along dimension i only, so numpy broadcasting computes a value
of one parameter once per node of its axis, not once per node of the cell
(the first step of sum factorization; Orszag, J. Comput. Phys. 37, 1980).
A face is its parent cell with one parameter pinned, so it is integrated
through the parent's map with the pinned column of the Jacobian left out;
a derivative along the pinned axis, even a singular one, never reaches the
integrand.  The grid is evaluated in blocks of rows along the first free
axis, about _BLOCK nodes each, into one array of all the node values; that
array is summed by one ``np.sum`` in lexicographic order and chain terms in
list order, so results are bit-reproducible.  Every node value comes from
the column evaluators, whose guards give nan where the scalar evaluator
would fail.  No integral comes back inf or nan: the first node, in
lexicographic order, where the integrand or the map's value is not finite
raises, and the scalar evaluators run at that one node to name the fault;
a weighted sum of finite node values that overflows raises too.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .cells import Cell, Chain, free_axes, quad_points
from .errors import DegreeError, DimensionMismatch, SingularityError
from .forms import DifferentialForm
from .maps import _minors
from .scalar import first_node

# numpy is imported inside the functions that use it, so that importing
# extcalc (and every symbolic CLI verb) does not pay for loading it


@lru_cache(maxsize=None)
def _leggauss(q: int):
    import numpy as np

    return np.polynomial.legendre.leggauss(q)


def box_rule(box, q: int):
    """Tensor-product Gauss-Legendre rule with q points per free axis, as an
    open grid of k dimensions (one for a point): one array per box entry,
    for the i-th of k free axes its q nodes with shape q in dimension i and
    1 elsewhere, for a pinned axis its value in an array of one element; and
    the weights, one (q,)*k array, each the product of the interval weights
    in axis order.  ``flat_nodes`` lists the nodes in lexicographic order
    (first free axis slowest)."""
    import numpy as np

    x, w = _leggauss(q)
    free = free_axes(box)
    k = len(free)
    grid = []
    weights = np.ones(())
    for j, entry in enumerate(box):
        if j not in free:
            # an array, not a float: Python's float ** rounds some powers
            # otherwise than numpy, which rounds them as on a flat column
            grid.append(np.full((1,) * max(k, 1), float(entry)))
            continue
        i = free.index(j)
        a, b = entry
        half = (b - a) / 2.0
        shape = [1] * k
        shape[i] = q
        grid.append(((b + a) / 2.0 + half * x).reshape(shape))
        weights = weights[..., None] * (half * w)
    return grid, np.atleast_1d(weights)


# Nodes evaluated at a time, in whole rows of the first free axis: a whole
# fine 3-cell (q=48 has 110592 nodes) runs slower than blocks that stay in
# cache, and takes more memory.
_BLOCK = 4096


def _cell_integral(form: DifferentialForm, cell: Cell, q: int) -> float:
    """Integral of a k-form over an oriented k-cell.  At the first node
    where the integrand or the map's value is not finite, the scalar
    evaluators run once: their SingularityError is the cause of the one
    raised, an OverflowError passes through, and if they raise nothing, the
    value is named not a finite number."""
    import numpy as np

    if form.k != cell.k:
        raise DegreeError(
            f"degree-{form.k} form cannot be integrated over a {cell.k}-cell"
        )
    if form.n != cell.ambient:
        raise DimensionMismatch(
            f"form on R^{form.n} vs cell in R^{cell.ambient}"
        )
    g = cell.mapping
    m, n = g.m, g.n
    free = cell.free_axes
    jac = g.jacobian()
    zero = [[e.is_zero() for e in row] for row in jac]
    # the terms whose minor is not identically zero
    shape = _minors(lambda i, j: None if zero[i][j] else 1, list(form.terms), free)
    terms = tuple(idx for idx, s in zip(form.terms, shape) if s is not None)
    if not terms:
        return 0.0
    coeffs = form.batch(terms)

    def integrand(comps, entry, evaluate):
        """sum_I a_I(g) det(dg_I/du) from the component values and the
        Jacobian entries entry(i, j), None where identically zero."""
        minors = _minors(entry, terms, free)
        return sum(a * minor for a, minor in zip(evaluate(comps), minors))

    def at_node(p):
        """The integrand at one node from the scalar evaluators, run for
        the error they raise: the components from g(p), and each Jacobian
        entry of a free column from its own evaluator, so that a derivative
        along a pinned axis is never evaluated."""
        return integrand(
            g(p), lambda i, j: None if zero[i][j] else jac[i][j].compiled()(p), coeffs.at
        )

    batch = g.batch()
    grid, weights = box_rule(cell.box, q)
    values = np.empty(weights.shape)
    # whole rows of the first free axis, at least _BLOCK nodes a block
    rows = -(-_BLOCK // (values.size // len(values)))
    for start in range(0, len(values), rows):
        cut = slice(start, start + rows)
        block = list(grid)
        if free:
            block[free[0]] = grid[free[0]][cut]
        with np.errstate(all="ignore"):
            jet = batch.columns(block)
            # a constant component as an array, so that numpy, not Python's
            # float **, raises it to powers, as on a flat column
            comps = [np.atleast_1d(c) for c in jet[:m]]
            values[cut] = integrand(
                comps, lambda i, j: None if zero[i][j] else jet[m + i * n + j], coeffs.columns
            )
        # named in the parent's parameter coordinates, pinned values included
        finite = np.isfinite(values[cut])
        for c in comps:
            finite &= np.isfinite(c)
        node = first_node(block, ~finite)
        if node is not None:
            where = f"integrand singular at quadrature node {node}"
            try:
                at_node(node)
            except SingularityError as err:
                err.node = node
                raise SingularityError(f"{where}: {err}") from err
            raise SingularityError(f"{where}: not a finite number")
    with np.errstate(all="ignore"):
        values *= weights
        return cell.orientation * _finite_sum(float(np.sum(values.ravel())))


def _finite_sum(total: float) -> float:
    """total, or SingularityError where a sum of finite values overflowed."""
    if not math.isfinite(total):
        raise SingularityError("the weighted quadrature sum is not a finite number")
    return total


def integrate_cell(form: DifferentialForm, cell: Cell, spec=16) -> float:
    """Integral of a k-form over an oriented k-cell."""
    return _cell_integral(form, cell, quad_points(spec))


def integrate(form: DifferentialForm, domain, spec=16) -> float:
    """Integrate a form over a Cell or a Chain."""
    if isinstance(domain, Cell):
        return integrate_cell(form, domain, spec)
    if not isinstance(domain, Chain):
        raise TypeError(f"cannot integrate over {type(domain).__name__}")
    q = quad_points(spec)
    total = 0.0
    for w, cell in domain:
        if w:
            total += w * _cell_integral(form, cell, q)
    return _finite_sum(total)


def boundary(domain):
    """Oriented boundary of a cell or chain, a Chain of (k-1)-cells.

    Each face is the parent cell with one free parameter pinned at an end of
    its interval.  With the free axes numbered from 1, the face {x_j = b_j}
    enters with sign (-1)^(j-1) and {x_j = a_j} with sign (-1)^j, both
    multiplied by the cell orientation; the faces of [a, b] are 0-cells.
    """
    if isinstance(domain, Chain):
        return Chain([(w * s, face) for w, c in domain for s, face in boundary(c)])
    cell = domain
    free = cell.free_axes
    if not free:
        raise DegreeError("boundary needs a cell of dimension >= 1")
    faces = []
    for i, j in enumerate(free):
        a, b = cell.box[j]
        for value, sign in ((b, (-1) ** i), (a, -(-1) ** i)):
            box = cell.box[:j] + (value,) + cell.box[j + 1:]
            faces.append((sign * cell.orientation, Cell(box, cell.mapping)))
    return Chain(faces)


def stokes_check(form: DifferentialForm, domain, spec=16):
    """Evaluate both sides of the Stokes identity.

    Returns (lhs, rhs, residual) with lhs the integral of d(form) over the
    domain and rhs the integral of form over its boundary.
    """
    k = domain.k if isinstance(domain, (Cell, Chain)) else None
    if k is None:
        raise TypeError("stokes_check needs a Cell or Chain")
    if k < 1:
        raise DegreeError("Stokes needs a domain of dimension >= 1")
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
