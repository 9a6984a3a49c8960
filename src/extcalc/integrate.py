"""Numeric integration of forms over chains; boundaries; Stokes checks.

The semantics is the limit of Riemann sums over parameter boxes.  The
evaluator is tensor-product Gauss-Legendre quadrature, over the free axes u
of a cell with map g, of the pulled-back coefficient
sum_I a_I(g(u)) det(dg_I/du) (Spivak, Calculus on Manifolds, ch. 4): the
map's components and Jacobian come from its compiled batch, the
coefficients a_I are evaluated on the component columns, and each k x k
minor is an explicit sum of products, so no pulled-back form is built.
``box_rule`` lays out the nodes of every quadrature in the package.  A face
is its parent cell with one parameter pinned, so it is integrated through
the parent's map with the pinned column of the Jacobian left out.  Nodes are
evaluated in blocks of _BLOCK, node contributions are summed by one
``np.sum`` in lexicographic order and chain terms in list order, so results
are bit-reproducible.
"""

from __future__ import annotations

from functools import lru_cache

from .cells import Cell, Chain, free_axes, quad_points
from .errors import DegreeError, DimensionMismatch, SingularityError
from .forms import DifferentialForm
from .scalar import Batch, evaluate_nodes

# numpy is imported inside the functions that use it, so that importing
# extcalc (and every symbolic CLI verb) does not pay for loading it


@lru_cache(maxsize=None)
def _leggauss(q: int):
    import numpy as np

    return np.polynomial.legendre.leggauss(q)


def box_rule(box, q: int):
    """Tensor-product Gauss-Legendre rule with q points per free axis: one
    array per box entry with the q^k nodes in lexicographic order (first free
    axis slowest), constant on a pinned axis, and their weights, each the
    product of the interval weights in axis order."""
    import numpy as np

    x, w = _leggauss(q)
    free = free_axes(box)
    k = len(free)
    cols = []
    weights = np.ones(1)
    for j, entry in enumerate(box):
        if j not in free:
            cols.append(np.full(q**k, entry))
            continue
        i = free.index(j)
        a, b = entry
        half = (b - a) / 2.0
        col = np.empty((q**i, q, q ** (k - 1 - i)))
        col[...] = ((b + a) / 2.0 + half * x)[:, None]
        cols.append(col.ravel())
        weights = np.multiply.outer(weights, half * w).ravel()
    return cols, weights


# Nodes evaluated at a time: columns of a whole fine 3-cell (q=48 has 110592
# nodes) run slower than blocks that stay in cache, and take more memory.
_BLOCK = 4096


def _minors(entry, row_sets, free):
    """The determinant of the Jacobian on each set of rows (codomain axes)
    and the free columns, expanded along the last column, sub-minors shared.
    entry(i, j) is an entry, or None where it is identically zero; a minor
    with no nonzero term is None."""
    memo = {(): 1.0}
    return [_minor(entry, rows, free, memo) for rows in row_sets]


# a module function: a nested closure that calls itself is a reference cycle,
# which would hold every block's arrays until the cyclic collector runs
def _minor(entry, rows, free, memo):
    if rows not in memo:
        last = len(rows) - 1
        total = None
        for r, i in enumerate(rows):
            a = entry(i, free[last])
            sub = None if a is None else _minor(entry, rows[:r] + rows[r + 1:], free, memo)
            if sub is None:
                continue
            term = a if last == 0 else a * sub
            if total is None:
                total = -term if (last - r) % 2 else term
            else:
                total = total - term if (last - r) % 2 else total + term
        memo[rows] = total
    return memo[rows]


def _cell_integral(form: DifferentialForm, cell: Cell, q: int, batches: dict) -> float:
    """Integral of a k-form over an oriented k-cell; ``batches`` holds the
    coefficient batches compiled so far in this call, keyed by the terms
    they evaluate."""
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
    if terms not in batches:
        batches[terms] = Batch(form.terms[idx] for idx in terms)
    coeffs = batches[terms]

    def integrand(comps, entry, evaluate):
        """sum_I a_I(g) det(dg_I/du) from the component values and the
        Jacobian entries entry(i, j), None where identically zero."""
        minors = _minors(entry, terms, free)
        return sum(a * minor for a, minor in zip(evaluate(comps), minors))

    def at_node(p):
        """The integrand at one node from the scalar evaluators of what it
        uses, so a derivative along a pinned axis is never evaluated."""
        comps = [c.compiled()(p) for c in g.components]
        return integrand(
            comps, lambda i, j: None if zero[i][j] else jac[i][j].compiled()(p), coeffs.at
        )

    batch = g.batch()
    cols, weights = box_rule(cell.box, q)
    values = np.empty(len(weights))
    for start in range(0, len(weights), _BLOCK):
        block = [c[start:start + _BLOCK] for c in cols]
        try:
            with np.errstate(all="ignore"):
                jet = batch.columns(block)
                part = integrand(
                    jet[:m],
                    lambda i, j: None if zero[i][j] else jet[m + i * n + j],
                    coeffs.columns,
                )
            good = np.isfinite(part).all()
        except (SingularityError, ArithmeticError):
            good = False
        if not good:
            # again one node at a time, so the first bad node is named in
            # the parent's parameter coordinates, pinned values included
            try:
                part = evaluate_nodes(at_node, block)
            except SingularityError as err:
                raise SingularityError(
                    f"integrand singular at quadrature node {err.node}: {err}"
                ) from err
        values[start:start + _BLOCK] = part
    return cell.orientation * float(np.sum(weights * values))


def integrate_cell(form: DifferentialForm, cell: Cell, spec=16) -> float:
    """Integral of a k-form over an oriented k-cell."""
    return _cell_integral(form, cell, quad_points(spec), {})


def integrate(form: DifferentialForm, domain, spec=16) -> float:
    """Integrate a form over a Cell or a Chain."""
    if isinstance(domain, Cell):
        return integrate_cell(form, domain, spec)
    if not isinstance(domain, Chain):
        raise TypeError(f"cannot integrate over {type(domain).__name__}")
    q = quad_points(spec)
    batches = {}
    total = 0.0
    for w, cell in domain:
        if w:
            total += w * _cell_integral(form, cell, q, batches)
    return total


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
