"""Numeric integration of forms over chains; boundaries; Stokes checks.

The semantics is the limit of Riemann sums over parameter boxes.  The
evaluator is tensor-product Gauss-Legendre quadrature, over the free axes u
of a cell with map g, of the pulled-back coefficient
sum_I a_I(g(u)) det(dg_I/du) (Spivak, Calculus on Manifolds, ch. 4): the
map's components and Jacobian come from the evaluation tape of its batch,
the coefficients a_I are evaluated on the component values by the tape of
the form's batch, and each k x k minor is an explicit sum of products, so
no pulled-back form is built.  ``box_rule`` lays out the nodes as an open
grid: the i-th free axis is an array that varies along dimension i only, so
numpy broadcasting computes a value of one parameter once per node of its
axis (the first step of sum factorization; Orszag, J. Comput. Phys. 37,
1980).  A face is its parent cell with one parameter pinned, integrated
through the parent's map with the pinned column of the Jacobian left out,
so a derivative along the pinned axis, even a singular one, never reaches
the integrand.

One quadrature core, ``_quadrature``, lays out, checks and sums every
integral of the package: forms over chains here, and the Gauss-Bonnet,
area and Gauss-map densities and the Gauss linking kernel of ``geometry``;
each names the first node whose value is not finite.  ``integrate`` takes
each run of chain terms through one map, such as the faces of a boundary,
as one group of about _BLOCK nodes or one cell, over which the map's and
the form's tapes run once.  Nodes are summed in lexicographic order and
chain terms in list order, so results are bit-reproducible and do not
depend on the grouping, and no integral comes back inf or nan.
"""

from __future__ import annotations

import marshal
import math
import threading
from functools import lru_cache
from itertools import groupby

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


# Nodes evaluated at a time: a group holds about this many, or one cell,
# evaluated in blocks of whole rows of its first free axis, at least _BLOCK
# nodes a block; a whole fine 3-cell (q=48 has 110592 nodes) runs slower
# than blocks that stay in cache, and takes more memory.
_BLOCK = 4096

# (q, marshal.dumps(boxes)) -> layout, least recently used first; the bytes
# tell a value pinned at -0.0, named with its sign in a fault, from 0.0
_LAYOUTS = {}
_LAYOUT_COUNT, _LAYOUT_BYTES = 64, 1 << 22
_LAYOUT_LOCK = threading.Lock()


def _layout(boxes, q: int):
    """The arrays of ``box_rule`` for each box, stacked along a leading
    cell dimension, read-only: an open grid whose entry has size q in a
    dimension where it is free in some cell (so one cell keeps its grid,
    with a leading 1), and the weights.  The oldest layouts kept go while
    there would be more than _LAYOUT_COUNT or _LAYOUT_BYTES of them."""
    import numpy as np

    key = (q, marshal.dumps(boxes))
    with _LAYOUT_LOCK:
        layout = _LAYOUTS.pop(key, None)
        if layout is None:
            rules = [grid + [w] for grid, w in (box_rule(box, q) for box in boxes)]
            layout = [np.stack(np.broadcast_arrays(*parts)) for parts in zip(*rules)]
            for a in layout:
                a.flags.writeable = False
            held = [sum(a.nbytes for a in arrays) for arrays in [layout, *_LAYOUTS.values()]]
            while _LAYOUTS and (len(_LAYOUTS) >= _LAYOUT_COUNT or sum(held) > _LAYOUT_BYTES):
                del _LAYOUTS[next(iter(_LAYOUTS))], held[1]
        _LAYOUTS[key] = layout
    return layout[:-1], layout[-1]


def _cells(a, cut):
    """a[cut] for an array over the layout's dimensions, or a itself where
    it is a number or broadcast (size 1) along the cells."""
    return a if isinstance(a, float) or len(a) == 1 else a[cut]


def _quadrature(boxes, q: int, fill, explain=lambda i, node: None) -> list:
    """The quadrature sum over each box (one cell a box), in order.
    fill(out, grid) writes the integrand at the nodes of ``_layout(boxes,
    q)`` into out, in blocks of whole rows of the first free axis, at least
    _BLOCK nodes a block (grid: the layout's arrays cut to the block; out:
    the block of every cell).  Then, cell by cell, the first node in
    lexicographic order whose value is not finite raises SingularityError
    naming it, caused by the SingularityError of explain(i, node) for the
    i-th cell (an OverflowError passes through) or else "not a finite
    number"; or the cell's weighted values are summed along the fast axis,
    as ``np.sum`` sums one cell alone, and a sum that is not finite raises."""
    import numpy as np

    grid, weights = _layout(boxes, q)
    values = np.empty(weights.shape)
    rows = -(-_BLOCK // (values[0].size // values.shape[1]))
    with np.errstate(all="ignore"):
        for start in range(0, values.shape[1], rows):
            cut = slice(start, start + rows)
            fill(values[:, cut], [a if a.shape[1] == 1 else a[:, cut] for a in grid])
        # a plain sum (no BLAS call) is finite where every value is; the mask only where not
        bad = None if math.isfinite(values.sum()) else ~np.isfinite(values)
        values *= weights
        sums = values.reshape(len(values), -1).sum(axis=1).tolist()
        for i, total in enumerate(sums):
            if bad is not None and bad[i].any():
                # named in the parent's parameter coordinates, pinned values included
                node = first_node([_cells(a, slice(i, i + 1)) for a in grid], bad[i])
                where = f"integrand singular at quadrature node {node}"
                try:
                    explain(i, node)
                except SingularityError as err:
                    err.node = node
                    raise SingularityError(f"{where}: {err}") from err
                raise SingularityError(f"{where}: not a finite number")
            _finite_sum(total)
        return sums


def _integrals(form: DifferentialForm, cells, q: int) -> list:
    """Integrals of a k-form over oriented k-cells through one map, in
    order: a node where the integrand or the map's value is not finite is a
    fault, whose cause the scalar evaluators name.  A cell whose every
    minor is identically zero integrates to 0.0, its nodes unchecked."""
    import numpy as np

    g = cells[0].mapping
    m, n = g.m, g.n
    jac = g.jacobian()
    zero = tuple(tuple(e.is_zero() for e in row) for row in jac)
    runs, terms = _plan(zero, tuple(form.terms), tuple(c.free_axes for c in cells))
    if not terms:
        return [0.0] * len(cells)
    batch, coeffs = g.batch(), form.batch(terms)

    def fill(out, grid):
        jet = batch.columns(grid)
        # a constant component as an array, so that numpy, not Python's
        # float **, raises it to powers, as on a flat column
        comps = [np.atleast_1d(c) for c in jet[:m]]
        cols = dict(zip(terms, coeffs.columns(comps)))
        nonfinite = [c for c in comps if not math.isfinite(c.sum())]
        for part, free, need in runs:
            minors = _minors(lambda i, j: None if zero[i][j] else _cells(jet[m + i * n + j], part),
                             need, free)
            out[part] = sum(_cells(cols[t], part) * minor for t, minor in zip(need, minors))
            # a node of a needed cell where the map's value is not finite is a fault too
            for c in nonfinite if need else ():
                np.copyto(out[part], np.nan, where=~np.isfinite(_cells(c, part)))

    def explain(i, node):
        # g, each Jacobian entry of a free column (a derivative along a
        # pinned axis is never evaluated) and the coefficients, for their error
        free, need = next((free, need) for part, free, need in runs if i < part.stop)
        comps = g(node)
        _minors(lambda r, j: None if zero[r][j] else jac[r][j].compiled()(node), need, free)
        form.batch(need).at(comps)

    sums = _quadrature(tuple(c.box for c in cells), q, fill, explain)
    # a cell with no needed term keeps its sum of zeros, 0.0
    for part, _, need in runs:
        if need:
            sums[part] = [c.orientation * s for c, s in zip(cells[part], sums[part])]
    return sums


@lru_cache(maxsize=1 << 12)
def _plan(zero, terms, frees):
    """The runs of cells with one set of free axes (frees lists each cell's)
    as (cells, free axes, needed terms), and the terms some run needs.  A
    term is needed unless ``_minors`` over the zero pattern finds its minor
    identically zero for want of nonzero entries."""
    needs = {}
    for free in set(frees):
        shape = _minors(lambda i, j: None if zero[i][j] else 1, list(terms), free)
        needs[free] = tuple(t for t, s in zip(terms, shape) if s is not None)
    runs = []
    for free, run in groupby(range(len(frees)), key=frees.__getitem__):
        run = list(run)
        runs.append((slice(run[0], run[-1] + 1), free, needs[free]))
    return tuple(runs), tuple(t for t in terms if any(t in need for need in needs.values()))


def _finite_sum(total: float) -> float:
    """total, or SingularityError where a sum of finite values overflowed."""
    if not math.isfinite(total):
        raise SingularityError("the weighted quadrature sum is not a finite number")
    return total


def _check_degree(form: DifferentialForm, domain) -> None:
    if form.k != domain.k:
        raise DegreeError(f"degree-{form.k} form cannot be integrated over a {domain.k}-cell")
    if form.n != domain.ambient:
        raise DimensionMismatch(f"form on R^{form.n} vs cell in R^{domain.ambient}")


def integrate_cell(form: DifferentialForm, cell: Cell, spec=16) -> float:
    """Integral of a k-form over an oriented k-cell."""
    q = quad_points(spec)
    _check_degree(form, cell)
    return _integrals(form, [cell], q)[0]


def integrate(form: DifferentialForm, domain, spec=16) -> float:
    """Integrate a form over a Cell or a Chain."""
    if isinstance(domain, Cell):
        return integrate_cell(form, domain, spec)
    if not isinstance(domain, Chain):
        raise TypeError(f"cannot integrate over {type(domain).__name__}")
    q = quad_points(spec)
    _check_degree(form, domain)
    total = 0.0
    # a run of terms through one map is one group, cut at every size-th term
    size = -(-_BLOCK // q ** domain.k)
    terms = enumerate(t for t in domain if t[0])
    for _, group in groupby(terms, key=lambda t: (t[1][1].mapping, t[0] // size)):
        group = [t for _, t in group]
        for (w, _), value in zip(group, _integrals(form, [c for _, c in group], q)):
            total += w * value
    return _finite_sum(total)


def boundary(domain):
    """Oriented boundary of a cell or chain, a Chain of (k-1)-cells.

    Each face is the parent cell with one free parameter pinned at an end of
    its interval.  With the free axes numbered from 1, the face {x_j = b_j}
    enters with sign (-1)^(j-1) and {x_j = a_j} with sign (-1)^j, both
    multiplied by the cell orientation; the faces of [a, b] are 0-cells.
    A face of a valid cell is valid, so faces are built without re-validation.
    """
    if isinstance(domain, Chain):
        faces = [(w * s, face) for w, c in domain for s, face in boundary(c)]
        return Chain._of(faces, domain.k - 1, domain.ambient)
    cell = domain
    free = cell.free_axes
    if not free:
        raise DegreeError("boundary needs a cell of dimension >= 1")
    faces = []
    for i, j in enumerate(free):
        a, b = cell.box[j]
        for value, sign in ((b, (-1) ** i), (a, -(-1) ** i)):
            faces.append((sign * cell.orientation, cell._face(i, value)))
    return Chain._of(faces, cell.k - 1, cell.ambient)


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
