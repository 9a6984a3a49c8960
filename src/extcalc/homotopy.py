"""Constructive Poincare lemma: fiber splitting, the homotopy operator,
and primitives of closed polynomial forms on R^n.

Splitting a form on R x X along the first axis t gives

    a = dt /\\ beta + gamma

with neither part containing dt.  The homotopy operator integrates the beta
coefficients from 0 to t; the identity

    d(P(a)) + P(d(a)) = a - (gamma with t = 0)

holds for every form with coefficients polynomial in t, and iterating it one
axis at a time yields an explicit primitive for any closed polynomial form of
positive degree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotClosedError, NotPolynomialError
from .forms import DifferentialForm
from .scalar import integrate_polynomial


@dataclass(frozen=True)
class FiberSplit:
    """a = dt /\\ beta + gamma with the fiber axis absent from both parts."""

    beta: DifferentialForm
    gamma: DifferentialForm
    axis: int = 0

    def reconstruct(self) -> DifferentialForm:
        n = self.gamma.n
        dt = DifferentialForm.basis(n, self.axis)
        return dt.wedge(self.beta) + self.gamma


def fiber_split(a: DifferentialForm, axis: int = 0) -> FiberSplit:
    """Split off the dt factor of every term, with dt moved leftmost."""
    beta = {}
    gamma = {}
    for idx, c in a.terms.items():
        if axis in idx:
            pos = idx.index(axis)
            rest = idx[:pos] + idx[pos + 1:]
            beta[rest] = c if pos % 2 == 0 else -c
        else:
            gamma[idx] = c
    return FiberSplit(
        DifferentialForm(a.n, max(a.k - 1, 0), beta),
        DifferentialForm(a.n, a.k, gamma),
        axis,
    )


def fiber_integral(a: DifferentialForm, axis: int = 0) -> DifferentialForm:
    """The homotopy operator P: integrate the dt-part from 0 along the axis.

    Coefficients must be polynomial in the fiber axis.
    """
    split = fiber_split(a, axis)
    out = {}
    for idx, c in split.beta.terms.items():
        try:
            out[idx] = integrate_polynomial(c, axis)
        except NotPolynomialError as err:
            raise NotPolynomialError(
                f"coefficient {c} is not polynomial in axis {axis}"
            ) from err
    return DifferentialForm(a.n, max(a.k - 1, 0), out)


def zero_section_pullback(a: DifferentialForm, axis: int = 0) -> DifferentialForm:
    """Drop the dt-part and set the fiber coordinate to 0 in what remains."""
    split = fiber_split(a, axis)
    out = {
        idx: c.substitute_axis(axis, 0)
        for idx, c in split.gamma.terms.items()
    }
    return DifferentialForm(a.n, a.k, out)


def homotopy_identity_residual(a: DifferentialForm, axis: int = 0) -> DifferentialForm:
    """d(P a) + P(d a) - (a - zero-section pullback); zero for polynomial-in-t a."""
    lhs = fiber_integral(a, axis).d() + fiber_integral(a.d(), axis)
    rhs = a - zero_section_pullback(a, axis)
    return lhs - rhs


def primitive(a: DifferentialForm) -> DifferentialForm:
    """A form b with d(b) = a, for closed polynomial a of degree >= 1.

    Built by peeling one axis at a time with the homotopy operator.
    """
    if a.k < 1:
        raise NotClosedError("primitives exist for forms of degree >= 1 only")
    for c in a.terms.values():
        if not c.is_polynomial():
            raise NotPolynomialError(f"coefficient {c} is not polynomial")
    if not a.is_closed():
        raise NotClosedError("the form is not closed")
    # once every axis is pulled back to its zero section, a form of degree
    # >= 1 has no terms left
    b, rest = DifferentialForm.zero(a.n, a.k - 1), a
    for axis in range(a.n):
        if rest.is_zero():
            break
        b = b + fiber_integral(rest, axis)
        rest = zero_section_pullback(rest, axis)
    return b
