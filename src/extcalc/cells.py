"""Oriented parametrized cells and integer-weighted chains."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch
from .maps import SmoothMap


def quad_points(spec) -> int:
    """The Gauss-Legendre points per axis, an integer in 2..64."""
    spec = int(spec)
    if not 2 <= spec <= 64:
        raise ValueError("quadrature order must be in 2..64")
    return spec


@dataclass(frozen=True)
class Cell:
    """An oriented k-box mapped into R^N by a smooth parametrization."""

    box: tuple
    mapping: SmoothMap
    orientation: int = 1

    def __post_init__(self):
        box = tuple((float(a), float(b)) for a, b in self.box)
        object.__setattr__(self, "box", box)
        for a, b in box:
            if not a < b:
                raise ValueError(f"degenerate interval [{a}, {b}]")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        if self.mapping.n != len(box):
            raise DimensionMismatch(
                f"map takes {self.mapping.n} parameters but the box has {len(box)}"
            )

    @property
    def k(self) -> int:
        return len(self.box)

    @property
    def ambient(self) -> int:
        return self.mapping.m

    def flipped(self) -> "Cell":
        return Cell(self.box, self.mapping, -self.orientation)


class Chain:
    """Integer-weighted formal sum of cells of equal degree and ambient."""

    __slots__ = ("terms", "k", "ambient")

    def __init__(self, terms):
        terms = [(int(w), c) for w, c in terms]
        if not terms:
            raise ValueError("empty chain; use a weight of zero on some cell instead")
        k = terms[0][1].k
        ambient = terms[0][1].ambient
        for _, c in terms:
            if c.k != k or c.ambient != ambient:
                raise DimensionMismatch("chain mixes degrees or ambient spaces")
        self.terms = terms
        self.k = k
        self.ambient = ambient

    @staticmethod
    def of(*cells):
        return Chain([(1, c) for c in cells])

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)


class PointChain:
    """Signed formal sum of points; the 0-dimensional integration domain."""

    __slots__ = ("points",)

    def __init__(self, points):
        self.points = [(int(s), tuple(float(x) for x in p)) for s, p in points]

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)
