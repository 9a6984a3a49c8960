"""Oriented parametrized cells and integer-weighted chains.

A cell is a box of parameters mapped into R^N.  Each box entry is either an
interval (a, b) with a < b, a free parameter, or a bare number, a parameter
pinned at that value; the degree k counts the intervals.  The face c_(i,a) of
a cube c is c with its i-th free parameter pinned at an endpoint (Spivak,
Calculus on Manifolds, ch. 4), so a face keeps its parent's map, and a point
is a 0-cell.  ``Cell`` and ``Chain`` convert and check what they are given;
a face of a valid cell is valid, so ``boundary`` builds faces and their
chain without the checks (``Cell._face``, ``Chain._of``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real

from .errors import DimensionMismatch, ParseError
from .maps import SmoothMap


def quad_points(spec) -> int:
    """The Gauss-Legendre points per axis, an integer in 2..64, given as an
    integer, an integral float or an integer string such as "16"."""
    if isinstance(spec, str):
        try:
            spec = int(spec)
        except ValueError:
            raise ParseError(f"quadrature order {spec!r} is not an integer") from None
    elif isinstance(spec, float) and spec.is_integer():
        spec = int(spec)
    if not isinstance(spec, Integral):
        raise ParseError(f"quadrature order {spec!r} is not an integer")
    if not 2 <= spec <= 64:
        raise ParseError("quadrature order must be in 2..64")
    return int(spec)


def free_axes(box) -> tuple:
    """The axes of a box that are intervals rather than pinned values."""
    return tuple(j for j, entry in enumerate(box) if not isinstance(entry, Real))


@dataclass(frozen=True)
class Cell:
    """An oriented k-box mapped into R^N by a smooth parametrization; the
    map takes one parameter per box entry, pinned or free."""

    box: tuple
    mapping: SmoothMap
    orientation: int = 1
    # the axes of the box that are intervals, found once at construction
    free_axes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        box = tuple(float(e) if isinstance(e, Real) else tuple(map(float, e)) for e in self.box)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "free_axes", free_axes(box))
        if not all(math.isfinite(x) for e in box for x in ((e,) if isinstance(e, float) else e)):
            raise ParseError("box bounds must be finite numbers")
        for a, b in (box[j] for j in self.free_axes):
            if not a < b:
                raise ParseError(f"degenerate interval [{a}, {b}]")
        if self.orientation not in (1, -1):
            raise ParseError("orientation must be +1 or -1")
        if self.mapping.n != len(box):
            raise DimensionMismatch(
                f"map takes {self.mapping.n} parameters but the box has {len(box)}"
            )

    @property
    def k(self) -> int:
        return len(self.free_axes)

    @property
    def ambient(self) -> int:
        return self.mapping.m

    def flipped(self) -> "Cell":
        return Cell(self.box, self.mapping, -self.orientation)

    def _face(self, i: int, value: float) -> "Cell":
        """The face with the i-th free axis pinned at value, an end of its
        interval, built without the checks, which it passes."""
        free, j = self.free_axes, self.free_axes[i]
        face = object.__new__(Cell)
        vars(face).update(box=self.box[:j] + (value,) + self.box[j + 1:], mapping=self.mapping,
                          orientation=1, free_axes=free[:i] + free[i + 1:])
        return face


class Chain:
    """Integer-weighted formal sum of cells of equal degree and ambient."""

    __slots__ = ("terms", "k", "ambient")

    def __init__(self, terms):
        terms = list(terms)
        for w, _ in terms:
            if not (isinstance(w, Integral) or isinstance(w, float) and w.is_integer()):
                raise ParseError(f"chain weight {w!r} is not an integer")
        terms = [(int(w), c) for w, c in terms]
        if not terms:
            raise ParseError("empty chain; use a weight of zero on some cell instead")
        k = terms[0][1].k
        ambient = terms[0][1].ambient
        for _, c in terms:
            if c.k != k or c.ambient != ambient:
                raise DimensionMismatch("chain mixes degrees or ambient spaces")
        self.terms = terms
        self.k = k
        self.ambient = ambient

    @staticmethod
    def _of(terms, k, ambient):
        """The chain of checked terms, int weights and k-cells in R^ambient."""
        chain = object.__new__(Chain)
        chain.terms, chain.k, chain.ambient = terms, k, ambient
        return chain

    @staticmethod
    def of(*cells):
        return Chain([(1, c) for c in cells])

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)
