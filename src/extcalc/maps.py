"""Smooth maps R^n -> R^m as tuples of symbolic components; pullbacks."""

from __future__ import annotations

from .errors import DimensionMismatch
from .forms import DifferentialForm, _add_term
from .scalar import ScalarExpr, as_expr, variable


class SmoothMap:
    """A map R^n -> R^m given by m component expressions in n variables."""

    __slots__ = ("n", "m", "components", "_jac", "_hess")

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

    @staticmethod
    def identity(n):
        return SmoothMap(n, n, [variable(i) for i in range(n)])

    @staticmethod
    def linear(matrix):
        """Map x -> A x for an m x n matrix of numbers/expressions."""
        m = len(matrix)
        n = len(matrix[0]) if m else 0
        comps = []
        for row in matrix:
            if len(row) != n:
                raise DimensionMismatch("ragged matrix")
            total = as_expr(0)
            for j, a in enumerate(row):
                total = total + as_expr(a) * variable(j)
            comps.append(total)
        return SmoothMap(n, m, comps)

    def __call__(self, point):
        """Evaluate numerically at a point."""
        point = list(point)
        return [c.compiled()(point) for c in self.components]

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
        point = list(point)
        return [[e.compiled()(point) for e in row] for row in self.jacobian()]

    def jacobian_determinant(self) -> ScalarExpr:
        if self.n != self.m:
            raise DimensionMismatch("determinant needs a square Jacobian")
        jac = self.jacobian()
        return _symbolic_det(jac)

    def __repr__(self):
        comps = "; ".join(str(c) for c in self.components)
        return f"SmoothMap({self.n}->{self.m}: {comps})"


def _symbolic_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = as_expr(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _symbolic_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


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
    """Pull a form on the codomain back through g.

    Coefficients are composed with g and each dy^i becomes
    dg^i = sum_j (dg_i/dx_j) dx^j, read off the cached Jacobian and wedged in
    index order.
    """
    if form.n != g.m:
        raise DimensionMismatch(
            f"form lives on R^{form.n} but the map has codomain R^{g.m}"
        )
    n = g.n
    if form.k > n:
        return DifferentialForm.zero(n, form.k)
    # differentials of the needed components, as 1-forms on the domain
    needed = {i for idx in form.terms for i in idx}
    dg = {
        i: DifferentialForm(n, 1, {(j,): c for j, c in enumerate(g.jacobian()[i])})
        for i in needed
    }
    out = {}
    for idx, coeff in form.terms.items():
        pulled = DifferentialForm.from_scalar(n, coeff.substitute(g.components))
        for i in idx:
            pulled = pulled.wedge(dg[i])
            if pulled.is_zero():
                break
        for j, c in pulled.terms.items():
            _add_term(out, j, c)
    return DifferentialForm(n, form.k, out)


def polar_map() -> SmoothMap:
    """(r, theta) -> (r cos theta, r sin theta)."""
    from .scalar import cos, sin

    r, th = variable(0), variable(1)
    return SmoothMap(2, 2, [r * cos(th), r * sin(th)])
