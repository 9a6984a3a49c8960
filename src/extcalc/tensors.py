"""Numeric multilinear algebra at a point.

GenericTensor holds a dense array over all ordered k-indices; AltTensor is
sparse on strictly increasing multi-indices.  The wedge product uses the
binomial normalization C_{k,l} = (k+l)!/(k! l!), under which
phi^1 /\\ ... /\\ phi^n equals the determinant; passing convention="unit"
(C = 1) reproduces the alternative normalization, which differs by
factorials.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DegreeError, DimensionMismatch, ParseError

_MAX_ALT_DEGREE = 8


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class GenericTensor:
    """A k-linear map R^n x ... x R^n -> R as a dense coefficient array."""

    __slots__ = ("n", "k", "coeffs")

    def __init__(self, n, k, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (n,) * k:
            raise DimensionMismatch(
                f"coefficients must have shape {(n,) * k}, got {coeffs.shape}"
            )
        self.n = n
        self.k = k
        self.coeffs = coeffs

    @staticmethod
    def scalar(n, value):
        return GenericTensor(n, 0, np.asarray(float(value)))

    def evaluate(self, vectors) -> float:
        vectors = [np.asarray(v, dtype=float) for v in vectors]
        if len(vectors) != self.k:
            raise DimensionMismatch(f"need {self.k} vectors, got {len(vectors)}")
        out = self.coeffs
        for v in vectors:
            if v.shape != (self.n,):
                raise DimensionMismatch(f"vectors must lie in R^{self.n}")
            out = np.tensordot(out, v, axes=([0], [0]))
        return float(out)

    def __add__(self, other):
        self._check_match(other)
        return GenericTensor(self.n, self.k, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_match(other)
        return GenericTensor(self.n, self.k, self.coeffs - other.coeffs)

    def __mul__(self, c):
        return GenericTensor(self.n, self.k, self.coeffs * float(c))

    __rmul__ = __mul__

    def _check_match(self, other):
        if self.n != other.n or self.k != other.k:
            raise DimensionMismatch("tensor shapes differ")

    def is_alternating(self, tol=1e-12) -> bool:
        for i in range(self.k - 1):
            swapped = np.swapaxes(self.coeffs, i, i + 1)
            if not np.allclose(swapped, -self.coeffs, atol=tol):
                return False
        return True

    def __repr__(self):
        return f"GenericTensor(n={self.n}, k={self.k})"


class AltTensor:
    """An alternating k-tensor, stored on strictly increasing multi-indices."""

    __slots__ = ("n", "k", "coeffs")

    def __init__(self, n, k, coeffs=None):
        clean = {}
        for idx, c in (coeffs or {}).items():
            idx = tuple(idx)
            if len(idx) != k:
                raise DegreeError(f"index {idx} has length != {k}")
            if any(not 0 <= i < n for i in idx):
                raise DimensionMismatch(f"index {idx} outside R^{n}")
            if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
                raise ParseError(f"index {idx} not strictly increasing")
            c = float(c)
            if c != 0.0:
                clean[idx] = c
        if k > n and clean:
            raise DegreeError(f"no nonzero alternating {k}-tensors on R^{n}")
        self.n = n
        self.k = k
        self.coeffs = clean

    @staticmethod
    def from_generic(g: GenericTensor, tol=1e-10) -> "AltTensor":
        if not g.is_alternating(tol):
            raise ParseError("tensor is not alternating; apply alt() first")
        coeffs = {}
        for idx in itertools.combinations(range(g.n), g.k):
            coeffs[idx] = float(g.coeffs[idx]) if g.k else float(g.coeffs)
        return AltTensor(g.n, g.k, coeffs)

    @staticmethod
    def from_form_at(form, point) -> "AltTensor":
        """Freeze a symbolic differential form at a point."""
        coeffs = {
            idx: c.evaluate(point) for idx, c in form.terms.items()
        }
        return AltTensor(form.n, form.k, coeffs)

    def expand(self) -> GenericTensor:
        g = np.zeros((self.n,) * self.k)
        for idx, c in self.coeffs.items():
            for perm in itertools.permutations(range(self.k)):
                target = tuple(idx[p] for p in perm)
                g[target] = _perm_sign(perm) * c
        if self.k == 0:
            g = np.asarray(self.coeffs.get((), 0.0))
        return GenericTensor(self.n, self.k, g)

    def evaluate(self, vectors) -> float:
        return self.expand().evaluate(vectors)

    def __add__(self, other):
        if self.n != other.n or self.k != other.k:
            raise DimensionMismatch("tensor shapes differ")
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = out.get(idx, 0.0) + c
        return AltTensor(self.n, self.k, out)

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, c):
        return AltTensor(self.n, self.k, {i: v * float(c) for i, v in self.coeffs.items()})

    __rmul__ = __mul__

    def norm(self) -> float:
        return math.sqrt(sum(v * v for v in self.coeffs.values()))

    def __repr__(self):
        return f"AltTensor(n={self.n}, k={self.k}, {self.coeffs})"


def covector(values) -> AltTensor:
    """The 1-tensor v -> sum_i values[i] v^i."""
    values = list(values)
    n = len(values)
    return AltTensor(n, 1, {(i,): v for i, v in enumerate(values)})


def basis_covector(n: int, i: int) -> AltTensor:
    return AltTensor(n, 1, {(i,): 1.0})


def tensor_product(a, b) -> GenericTensor:
    """(a (x) b)(v_1..v_{k+l}) = a(first k) * b(rest)."""
    a = _as_generic(a)
    b = _as_generic(b)
    if a.n != b.n:
        raise DimensionMismatch("tensor factors live on different spaces")
    coeffs = np.multiply.outer(a.coeffs, b.coeffs)
    return GenericTensor(a.n, a.k + b.k, coeffs)


def _as_generic(t) -> GenericTensor:
    if isinstance(t, AltTensor):
        return t.expand()
    return t


def alt(t) -> GenericTensor:
    """The alternation projector (1/k!) sum_sigma sign(sigma) t o sigma."""
    t = _as_generic(t)
    if t.k > _MAX_ALT_DEGREE:
        raise DegreeError(
            f"alternation of degree {t.k} > {_MAX_ALT_DEGREE} refused "
            "(factorial blowup)"
        )
    if t.k <= 1:
        return GenericTensor(t.n, t.k, t.coeffs.copy())
    acc = np.zeros_like(t.coeffs)
    for perm in itertools.permutations(range(t.k)):
        acc += _perm_sign(perm) * np.transpose(t.coeffs, perm)
    return GenericTensor(t.n, t.k, acc / math.factorial(t.k))


def wedge_constant(k: int, el: int, convention: str = "binomial") -> float:
    if convention == "binomial":
        return float(math.comb(k + el, k))
    if convention == "unit":
        return 1.0
    raise ParseError(f"unknown wedge convention {convention!r}")


def wedge_alt(a: AltTensor, b: AltTensor, convention: str = "binomial") -> AltTensor:
    """a /\\ b = C_{k,l} Alt(a (x) b)."""
    if a.n != b.n:
        raise DimensionMismatch("tensor factors live on different spaces")
    c = wedge_constant(a.k, b.k, convention)
    product = alt(tensor_product(a, b)) * c
    return AltTensor.from_generic(product, tol=1e-9)


def pullback_linear(matrix, t):
    """Pull a tensor on R^m back through the linear map with the given
    m x n matrix; returns a tensor on R^n of the same flavor.
    """
    a = np.asarray(matrix, dtype=float)
    was_alt = isinstance(t, AltTensor)
    g = _as_generic(t)
    if a.ndim != 2 or a.shape[0] != g.n:
        raise DimensionMismatch(
            f"matrix must be {g.n} x n to pull back a tensor on R^{g.n}"
        )
    out = g.coeffs
    for _ in range(g.k):
        out = np.tensordot(out, a, axes=([0], [0]))
    result = GenericTensor(a.shape[1], g.k, out)
    if was_alt:
        return AltTensor.from_generic(result)
    return result


def covector_wedge_determinant(covectors, vectors) -> float:
    """(a_1 /\\ ... /\\ a_k)(v_1, ..., v_k), computed through the wedge
    product; under the binomial convention it equals det[a_i(v_j)].
    """
    covs = [covector(c) if not isinstance(c, AltTensor) else c for c in covectors]
    if len(covs) != len(vectors):
        raise DimensionMismatch("need as many covectors as vectors")
    if not covs:
        return 1.0  # the empty wedge is the constant 1
    acc = covs[0]
    for c in covs[1:]:
        acc = wedge_alt(acc, c)
    return acc.evaluate(vectors)


def projection_area_tensors():
    """Signed projected-area 2-tensors on R^3.

    Returns (xy, xz, yz) where each tensor gives the signed area of the
    projection of its two argument vectors onto the named coordinate plane.
    """
    phi = [basis_covector(3, i) for i in range(3)]
    return wedge_alt(phi[0], phi[1]), wedge_alt(phi[0], phi[2]), wedge_alt(phi[1], phi[2])
