"""Smooth maps R^n -> R^m as tuples of symbolic components; pullbacks."""

from __future__ import annotations

from itertools import combinations

from .errors import DimensionMismatch
from .forms import DifferentialForm
from .scalar import ZERO, Batch, ScalarExpr, as_expr, cos, loose, sin, sum_terms, variable


class SmoothMap:
    """A map R^n -> R^m given by m component expressions in n variables."""

    __slots__ = ("n", "m", "components", "_jac", "_hess", "_batches")

    def __init__(self, n, m, components):
        components = tuple(as_expr(c) for c in components)
        if len(components) != m:
            raise DimensionMismatch(f"expected {m} components, got {len(components)}")
        for c in components:
            if c.max_axis() >= n:
                raise DimensionMismatch(
                    f"component {c} uses an axis outside the {n}-dimensional domain"
                )
        self.n = n
        self.m = m
        self.components = components
        self._jac = None
        self._hess = None
        self._batches = {}

    @staticmethod
    def identity(n):
        return SmoothMap(n, n, [variable(i) for i in range(n)])

    @staticmethod
    def linear(matrix):
        """Map x -> A x for an m x n matrix of numbers/expressions."""
        m = len(matrix)
        n = len(matrix[0]) if m else 0
        if any(len(row) != n for row in matrix):
            raise DimensionMismatch("ragged matrix")
        return SmoothMap(n, m, [
            sum_terms(loose(as_expr(a) * variable(j)) for j, a in enumerate(row)) for row in matrix])

    def __call__(self, point):
        """Evaluate numerically at a point."""
        return list(self.batch(0).at(list(point)))

    def jacobian(self):
        """Symbolic Jacobian: entry (i, j) = d g_i / d x_j."""
        if self._jac is None:
            self._jac = tuple(
                tuple(c.differentiate(j) for j in range(self.n))
                for c in self.components
            )
        return self._jac

    def hessian(self):
        """Symbolic second derivatives: entry (i, j, l) = d^2 g_i / dx_j dx_l."""
        if self._hess is None:
            self._hess = tuple(
                tuple(tuple(d.differentiate(l) for l in range(self.n)) for d in row)
                for row in self.jacobian()
            )
        return self._hess

    def jacobian_at(self, point):
        values = self.batch(1).at(list(point))
        m, n = self.m, self.n
        return [list(values[m + i * n:m + i * n + n]) for i in range(m)]

    def batch(self, order=1) -> Batch:
        """One evaluator of the components, then for order 1 or 2 the
        Jacobian entries row by row, then for order 2 the second derivatives
        d^2 g_i / dx_j dx_l with j <= l, row by row; built once and kept
        for the map's lifetime."""
        if order not in self._batches:
            exprs = list(self.components)
            if order:
                exprs += [e for row in self.jacobian() for e in row]
            if order == 2:
                exprs += [h[j][l] for h in self.hessian()
                          for j in range(self.n) for l in range(j, self.n)]
            self._batches[order] = Batch(exprs)
        return self._batches[order]

    def columns(self, cols, order=1):
        """g, its Jacobian and for order 2 its second derivatives at the
        nodes of the columns (one float array per parameter): arrays of
        shape (m, N), (m, n, N) and (m, n(n+1)/2, N), the last with the
        pairs j <= l in the order of ``batch``, from ``Batch.evaluate``, so
        a failure names its node."""
        values = self.batch(order).evaluate(cols)
        m, n = self.m, self.n
        out = [values[:m], values[m:m + m * n].reshape(m, n, -1)]
        if order == 2:
            out.append(values[m + m * n:].reshape(m, n * (n + 1) // 2, -1))
        return out

    def jacobian_determinant(self) -> ScalarExpr:
        if self.n != self.m:
            raise DimensionMismatch("determinant needs a square Jacobian")
        axes = tuple(range(self.n))
        (det,) = _minors(self._entry, [axes], axes)
        return ZERO if det is None else as_expr(det)

    def _entry(self, i, j):
        """Jacobian entry (i, j) for ``_minors``: None where it is zero."""
        e = self.jacobian()[i][j]
        return None if e.is_zero() else e

    def __repr__(self):
        comps = "; ".join(str(c) for c in self.components)
        return f"SmoothMap({self.n}->{self.m}: {comps})"


def _minors(entry, row_sets, free):
    """The determinant of the Jacobian on each set of rows (codomain axes)
    and the free columns, expanded along the last column, sub-minors shared.
    entry(i, j) is an entry, or None where it is identically zero; a minor
    with no nonzero term is None."""
    memo = {(): 1}
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


def compose(h: SmoothMap, g: SmoothMap) -> SmoothMap:
    """The composite h o g (apply g first)."""
    if g.m != h.n:
        raise DimensionMismatch(
            f"cannot compose {h.n}->{h.m} after {g.n}->{g.m}"
        )
    comps = [c.substitute(g.components) for c in h.components]
    return SmoothMap(g.n, h.m, comps)


def freeze_axis(g: SmoothMap, axis: int, value) -> SmoothMap:
    """Restrict a map to the slice {x_axis = value}, dropping that axis."""
    if not 0 <= axis < g.n:
        raise DimensionMismatch("axis outside domain")
    xs = [variable(i) for i in range(g.n - 1)]
    return compose(g, SmoothMap(g.n - 1, g.n, xs[:axis] + [value] + xs[axis:]))


def pullback(g: SmoothMap, form: DifferentialForm) -> DifferentialForm:
    """Pull a form on the codomain back through g: the coefficient of dx_J
    is sum_I (a_I o g) det(dg_I/dx_J) (the paper's g*(a dy_I)), with the
    minors of the cached Jacobian from ``_minors``, added by ``sum_terms``.
    """
    if form.n != g.m:
        raise DimensionMismatch(
            f"form lives on R^{form.n} but the map has codomain R^{g.m}"
        )
    n = g.n
    if form.k > n:
        return DifferentialForm.zero(n, form.k)
    pulled = [c.substitute(g.components) for c in form.terms.values()]
    out = {}
    for cols in combinations(range(n), form.k):
        minors = _minors(g._entry, list(form.terms), cols)
        out[cols] = sum_terms(loose(a * det) for a, det in zip(pulled, minors) if det is not None)
    return DifferentialForm(n, form.k, out)


def polar_map() -> SmoothMap:
    """(r, theta) -> (r cos theta, r sin theta)."""
    r, th = variable(0), variable(1)
    return SmoothMap(2, 2, [r * cos(th), r * sin(th)])
