"""Differential forms on R^n with symbolic coefficients.

A k-form is stored as a map from strictly increasing multi-indices (tuples of
axis indices) to nonzero ScalarExpr coefficients.  All constructors
canonicalize index order with the appropriate sign, so equality of forms is
decidable by comparing coefficients.
"""

from __future__ import annotations

from .errors import DegreeError, DimensionMismatch, ParseError
from .scalar import (
    Batch,
    ScalarExpr,
    ZERO,
    as_expr,
    axis_name,
    format_coefficient,
    format_expr,
    loose,
    sqrt,
    sum_terms,
    variable,
)


def canonicalize_index(indices, n=None):
    """Sort a multi-index, tracking the permutation sign.

    Returns ``(sign, tuple)`` where sign is +1/-1 for the parity of the sort
    and 0 when an index repeats (in which case the tuple is empty).
    """
    idx = list(indices)
    if n is not None:
        for i in idx:
            if not 0 <= i < n:
                raise DimensionMismatch(f"axis {i} outside ambient dimension {n}")
    if len(set(idx)) != len(idx):
        return 0, ()
    sign = 1
    # insertion sort; counts inversions mod 2
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(idx)


def _add_term(out, idx, c):
    """Add c to the coefficient of dx_idx in out, dropping it if it cancels."""
    prev = out.get(idx)
    if prev is not None:
        c = prev + c
    if c.is_zero():
        out.pop(idx, None)
    else:
        out[idx] = c


class DifferentialForm:
    """A degree-k differential form on R^n."""

    __slots__ = ("n", "k", "terms", "_batches")

    def __init__(self, n, k, terms=None):
        if n < 0 or k < 0:
            raise ParseError("dimension and degree must be nonnegative")
        clean = {}
        for idx, coeff in (terms or {}).items():
            idx = tuple(idx)
            if len(idx) != k:
                raise DegreeError(f"index {idx} has length != {k}")
            if any(not 0 <= i < n for i in idx):
                raise DimensionMismatch(f"index {idx} outside ambient {n}")
            if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
                raise ParseError(f"index {idx} is not strictly increasing")
            coeff = as_expr(coeff)
            if coeff.max_axis() >= n:
                raise DimensionMismatch(f"coefficient of {idx} uses an axis outside R^{n}")
            if not coeff.is_zero():
                clean[idx] = coeff
        if k > n and clean:
            raise DegreeError(f"no nonzero {k}-forms exist on R^{n}")
        self.n = n
        self.k = k
        self.terms = clean
        self._batches = {}

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(n, k):
        return DifferentialForm(n, k, {})

    @staticmethod
    def from_scalar(n, expr):
        return DifferentialForm(n, 0, {(): expr})

    @staticmethod
    def basis(n, *indices):
        """dx^{i_1} /\\ ... /\\ dx^{i_k} (canonicalized)."""
        sign, idx = canonicalize_index(indices, n)
        if sign == 0:
            return DifferentialForm.zero(n, len(indices))
        return DifferentialForm(n, len(idx), {idx: as_expr(sign)})

    # -- structure ------------------------------------------------------------

    def batch(self, indices) -> Batch:
        """One evaluator of the coefficients of the given multi-indices, in
        that order; built once and kept for the form's lifetime."""
        if indices not in self._batches:
            self._batches[indices] = Batch(self.terms[idx] for idx in indices)
        return self._batches[indices]

    def is_zero(self):
        return not self.terms

    def coefficient(self, indices) -> ScalarExpr:
        sign, idx = canonicalize_index(indices, self.n)
        if sign == 0:
            return ZERO
        c = self.terms.get(idx)
        if c is None:
            return ZERO
        return c if sign == 1 else -c

    def __eq__(self, other):
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        return (
            self.n == other.n and self.k == other.k and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.k, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    # -- linear structure -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatch("forms live on different spaces")
        if self.k != other.k:
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise DegreeError("cannot add forms of different degree")
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            _add_term(terms, idx, c)
        return DifferentialForm(self.n, self.k, terms)

    def __neg__(self):
        return DifferentialForm(
            self.n, self.k, {i: -c for i, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        scalar = as_expr(scalar)
        return DifferentialForm(
            self.n, self.k, {i: c * scalar for i, c in self.terms.items()}
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (as_expr(1) / as_expr(scalar))

    # -- exterior algebra -------------------------------------------------------

    def wedge(self, other) -> "DifferentialForm":
        if self.n != other.n:
            raise DimensionMismatch("forms live on different spaces")
        out = {}
        for i1, c1 in self.terms.items():
            for i2, c2 in other.terms.items():
                sign, idx = canonicalize_index(i1 + i2)
                if sign:
                    c = c1 * c2
                    _add_term(out, idx, c if sign > 0 else -c)
        return DifferentialForm(self.n, self.k + other.k, out)

    def d(self) -> "DifferentialForm":
        """d(c dx_I) = sum over j not in I of (dc/dx_j) dx_j /\\ dx_I; only the
        axes c depends on contribute."""
        out = {}
        for idx, c in self.terms.items():
            for j in sorted(c.axes().difference(idx)):
                sign, new_idx = canonicalize_index((j,) + idx)
                dc = c.differentiate(j)
                _add_term(out, new_idx, dc if sign > 0 else -dc)
        return DifferentialForm(self.n, self.k + 1, out)

    def is_closed(self) -> bool:
        return self.d().is_zero()

    # -- presentation ------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for idx in sorted(self.terms):
            c = self.terms[idx]
            dx_part = "/\\".join(f"d{axis_name(i, self.n)}" for i in idx)
            if not dx_part:
                sign, body = format_coefficient(c, self.n)
                if body.startswith("("):
                    body = format_expr(c, self.n)
                    sign = "+"
            elif c == as_expr(1):
                sign, body = "+", dx_part
            elif c == as_expr(-1):
                sign, body = "-", dx_part
            else:
                sign, coeff_body = format_coefficient(c, self.n)
                body = f"{coeff_body}*{dx_part}"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = [first_body if first_sign == "+" else f"-{first_body}"]
        for sign, body in pieces[1:]:
            out.append(f" {sign} {body}")
        return "".join(out)

    def __repr__(self):
        return f"DifferentialForm({self.n}, {self.k}, {self})"


# ---------------------------------------------------------------------------
# Module-level operations


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    return a.wedge(b)


def d(a: DifferentialForm) -> DifferentialForm:
    return a.d()


class VectorFieldSym:
    """A symbolic vector field on R^n: one component expression per axis."""

    __slots__ = ("n", "components")

    def __init__(self, n, components):
        components = tuple(as_expr(c) for c in components)
        if len(components) != n:
            raise DimensionMismatch(f"expected {n} components")
        for c in components:
            if c.max_axis() >= n:
                raise DimensionMismatch("component uses an axis outside R^n")
        self.n = n
        self.components = components

    def __repr__(self):
        return f"VectorFieldSym({self.n}, {[str(c) for c in self.components]})"


def interior_product(v: VectorFieldSym, a: DifferentialForm) -> DifferentialForm:
    """Contraction i_v(a); lowers degree by one."""
    if v.n != a.n:
        raise DimensionMismatch("vector field and form live on different spaces")
    if a.k == 0:
        raise DegreeError("interior product needs a form of degree >= 1")
    out = {}
    for idx, c in a.terms.items():
        for r, axis in enumerate(idx):
            term = c * v.components[axis]
            _add_term(out, idx[:r] + idx[r + 1:], -term if r % 2 else term)
    return DifferentialForm(a.n, a.k - 1, out)


def lie_derivative(v: VectorFieldSym, a: DifferentialForm) -> DifferentialForm:
    """Cartan formula: d(i_v a) + i_v(d a)."""
    if v.n != a.n:
        raise DimensionMismatch("vector field and form live on different spaces")
    second = interior_product(v, a.d())
    if a.k == 0:
        return second
    return interior_product(v, a).d() + second


def work_form(v: VectorFieldSym) -> DifferentialForm:
    """The 1-form v1 dx + v2 dy + v3 dz whose line integral is work."""
    if v.n != 3:
        raise DimensionMismatch("work form is defined on R^3")
    return DifferentialForm(
        3, 1, {(0,): v.components[0], (1,): v.components[1], (2,): v.components[2]}
    )


def flux_form(v: VectorFieldSym) -> DifferentialForm:
    """The 2-form v1 dy/\\dz + v2 dz/\\dx + v3 dx/\\dy whose integral is flux."""
    if v.n != 3:
        raise DimensionMismatch("flux form is defined on R^3")
    return DifferentialForm(
        3,
        2,
        {
            (1, 2): v.components[0],
            (0, 2): -v.components[1],
            (0, 1): v.components[2],
        },
    )


def gradient(f: ScalarExpr, n: int) -> VectorFieldSym:
    f = as_expr(f)
    return VectorFieldSym(n, [f.differentiate(i) for i in range(n)])


def curl(v: VectorFieldSym) -> VectorFieldSym:
    if v.n != 3:
        raise DimensionMismatch("curl is defined on R^3")
    p, q, r = v.components
    return VectorFieldSym(
        3,
        [
            r.differentiate(1) - q.differentiate(2),
            p.differentiate(2) - r.differentiate(0),
            q.differentiate(0) - p.differentiate(1),
        ],
    )


def divergence(v: VectorFieldSym) -> ScalarExpr:
    return sum_terms(loose(c.differentiate(i)) for i, c in enumerate(v.components))


def angular_form() -> DifferentialForm:
    """(x dy - y dx)/(x^2 + y^2) on R^2 minus the origin."""
    x, y = variable(0), variable(1)
    r2 = x * x + y * y
    return DifferentialForm(2, 1, {(0,): -y / r2, (1,): x / r2})


def sphere_area_form() -> DifferentialForm:
    """x dy/\\dz + y dz/\\dx + z dx/\\dy; restricts to the area form of S^2."""
    v = VectorFieldSym(3, [variable(0), variable(1), variable(2)])
    return flux_form(v)


def solid_angle_form() -> DifferentialForm:
    """The sphere area form divided by |x|^3; closed on R^3 minus the origin."""
    x, y, z = variable(0), variable(1), variable(2)
    r3 = sqrt(x * x + y * y + z * z) ** 3
    return sphere_area_form() / r3
