"""Desk-scale de Rham cohomology.

Good covers are encoded combinatorially: a Nerve records which finite
intersections of cover elements are nonempty (and hence contractible).  Its
Cech complex over Q computes the Betti numbers; ranks are found by exact
sparse elimination, never by floating point.

The Mayer-Vietoris solver propagates rank-nullity bookkeeping through a long
exact sequence: at every interior slot, dim = rank(incoming) + rank(outgoing).
Under-determined data is reported, never guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import InconsistentSequenceError, ParseError, json_fields, json_list

if TYPE_CHECKING:
    from .scalar import ScalarExpr


# ---------------------------------------------------------------------------
# Exact linear algebra


def rank_exact(rows) -> int:
    """Rank of a matrix with int/Fraction entries, by Gaussian elimination
    over sparse rows {column: nonzero entry}.

    Each step takes a shortest remaining row as the pivot row and pivots on
    a +-1 entry where the row has one, so a coboundary (entries 0, +-1)
    stays in the integers with little fill; a row with no such entry
    divides exactly with Fraction.
    """
    work = [{c: x for c, x in enumerate(row) if x} for row in rows]
    rank = 0
    while work := [row for row in work if row]:
        pivot = work.pop(min(range(len(work)), key=lambda i: len(work[i])))
        col = next((c for c, x in pivot.items() if abs(x) == 1), next(iter(pivot)))
        p = pivot[col]
        for row in work:
            if col in row:
                scale = row[col] * p if abs(p) == 1 else Fraction(row[col], p)
                for c, x in pivot.items():
                    v = row.get(c, 0) - scale * x
                    if v:
                        row[c] = v
                    else:
                        del row[c]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# Nerves and Cech cohomology


class Nerve:
    """Downward-closed family of nonempty-intersection index sets."""

    __slots__ = ("vertices", "simplices")

    def __init__(self, vertices: int, simplices):
        if vertices < 1:
            raise ParseError("a nerve needs at least one vertex")
        closed = set()
        for s in simplices:
            s = frozenset(s)
            if not s:
                continue
            if any(not 0 <= v < vertices for v in s):
                raise ParseError(f"simplex {sorted(s)} mentions a missing vertex")
            closed.add(s)
        # complete downward closure and singletons
        stack = list(closed)
        while stack:
            s = stack.pop()
            if len(s) <= 1:
                continue
            for v in s:
                face = s - {v}
                if face not in closed:
                    closed.add(face)
                    stack.append(face)
        for v in range(vertices):
            closed.add(frozenset((v,)))
        self.vertices = vertices
        self.simplices = closed

    def simplices_of_dimension(self, k: int):
        return sorted(
            tuple(sorted(s)) for s in self.simplices if len(s) == k + 1
        )

    @property
    def dimension(self) -> int:
        return max(len(s) for s in self.simplices) - 1

    def euler_characteristic(self) -> int:
        chi = 0
        for k in range(self.dimension + 1):
            chi += (-1) ** k * len(self.simplices_of_dimension(k))
        return chi

    @staticmethod
    def from_json(data) -> "Nerve":
        vertices, simplices = json_fields(data, "nerve", "vertices", simplices=[])
        indices = [v for s in json_list(simplices, "simplices") for v in json_list(s, "simplex")]
        if not all(type(v) is int for v in [vertices] + indices):  # not a bool
            raise ParseError("nerve vertex count and simplex vertices must be integers")
        return Nerve(vertices, simplices)


@dataclass
class CochainComplex:
    """Dimensions and coboundary matrices delta_k : C^k -> C^{k+1} over Q."""

    dims: list
    deltas: list  # deltas[k] has shape (dims[k+1], dims[k]); last entry empty

    def betti(self):
        out = []
        prev_rank = 0
        for k, dim in enumerate(self.dims):
            rank = rank_exact(self.deltas[k]) if k < len(self.deltas) else 0
            out.append(dim - rank - prev_rank)
            prev_rank = rank
        return out


def cech_complex(nerve: Nerve) -> CochainComplex:
    """The alternating face signs make delta_{k+1} delta_k = 0 by
    construction (Bott & Tu, Differential Forms in Algebraic Topology, §8)."""
    top = nerve.dimension
    levels = [nerve.simplices_of_dimension(k) for k in range(top + 1)]
    dims = [len(level) for level in levels]
    deltas = []
    for k in range(top):
        lower_index = {s: i for i, s in enumerate(levels[k])}
        rows = []
        for s in levels[k + 1]:
            row = [0] * dims[k]
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                row[lower_index[face]] += (-1) ** i
            rows.append(row)
        deltas.append(rows)
    deltas.append([])
    return CochainComplex(dims, deltas)


def cech_betti(nerve: Nerve):
    """Betti numbers of the nerve, one entry per dimension 0..dim."""
    return cech_complex(nerve).betti()


# Standard nerves used by tests and the Mayer-Vietoris pipeline


def point_nerve() -> Nerve:
    return Nerve(1, [])


def two_points_nerve() -> Nerve:
    return Nerve(2, [])


def cycle_nerve(m: int = 4) -> Nerve:
    """An m-gon; the nerve of an m-arc good cover of the circle (m >= 3)."""
    if m < 3:
        raise ParseError("a simplicial circle needs at least 3 vertices")
    return Nerve(m, [(i, (i + 1) % m) for i in range(m)])


def sphere_nerve(n: int) -> Nerve:
    """Boundary of the (n+1)-simplex: the minimal triangulation of S^n."""
    if n < 1:
        raise ParseError("a sphere S^n needs n >= 1")
    verts = n + 2
    full = tuple(range(verts))
    faces = [full[:i] + full[i + 1:] for i in range(verts)]
    return Nerve(verts, faces)


def _grid_triangles(wrap_vertical):
    """3x3 grid triangulation with horizontal wrap and the given vertical
    gluing rule wrap_vertical(i) for row 3 -> row 0."""
    size = 3

    def vert(i, j):
        i %= size
        if j < size:
            return j * size + i
        return wrap_vertical(i)

    triangles = []
    for j in range(size):
        for i in range(size):
            a = vert(i, j)
            b = vert(i + 1, j)
            c = vert(i + 1, j + 1)
            d = vert(i, j + 1)
            triangles.append((a, b, c))
            triangles.append((a, d, c))
    return triangles


def torus_nerve() -> Nerve:
    """Nerve of a 3x3 grid of patches on the flat torus."""
    return Nerve(9, _grid_triangles(lambda i: i % 3))


def klein_nerve() -> Nerve:
    """Like the torus grid, but the vertical gluing reverses orientation."""
    return Nerve(9, _grid_triangles(lambda i: (-i) % 3))


# ---------------------------------------------------------------------------
# Exact-sequence solver


@dataclass
class ExactSequenceProblem:
    """An exact sequence of vector spaces, fenced by zero slots.

    ``dims[i]`` is the dimension of slot i (None when unknown) and
    ``ranks[j]`` the rank of the map from slot j to slot j+1 (None unknown).
    """

    dims: list
    ranks: list = None

    def __post_init__(self):
        if self.ranks is None:
            self.ranks = [None] * (len(self.dims) - 1)
        if len(self.ranks) != len(self.dims) - 1:
            raise ParseError("need exactly one map between consecutive slots")
        if len(self.dims) < 2:
            raise ParseError("sequence too short")
        for end in (0, -1):
            if self.dims[end] not in (None, 0):
                raise InconsistentSequenceError(
                    "sequence must start and end at zero-dimensional slots"
                )

    @staticmethod
    def from_json(data) -> "ExactSequenceProblem":
        slots, maps = json_fields(data, "sequence problem", "slots", maps=None)
        dims = [json_fields(s, "slot", dim=None)[0] for s in json_list(slots, "slots")]
        ranks = None
        if maps is not None:
            ranks = [json_fields(m, "map", rank=None)[0] for m in json_list(maps, "maps")]
        if not all(v is None or type(v) is int for v in dims + (ranks or [])):  # not a bool
            raise ParseError("slot dims and map ranks must be integers")
        return ExactSequenceProblem(dims, ranks)


@dataclass
class MVSolution:
    dims: list
    ranks: list
    determined: bool
    unknown_slots: list = field(default_factory=list)

    def __str__(self):
        if self.determined:
            return f"dims = {self.dims}"
        return f"under-determined; unknown slots {self.unknown_slots}"


def mv_solve(problem: ExactSequenceProblem) -> MVSolution:
    """Solve for all slot dimensions, or report under-determination.

    Raises InconsistentSequenceError when the data admits no solution.
    """
    # one list: slot i at 2i, map j at 2j + 1, so each map sits between
    # its source and target and each slot between its in- and out-map
    vals = [None] * (2 * len(problem.dims) - 1)
    vals[0::2] = problem.dims
    vals[1::2] = problem.ranks
    vals[0] = vals[-1] = 0

    def settle(p, v):
        """Give value p the derived value v; True if it was unknown."""
        if vals[p] == v:
            return False
        slot = p % 2 == 0
        name = f"{'slot' if slot else 'map'} {p // 2}"
        if v < 0:
            raise InconsistentSequenceError(
                f"{name} would need {'dimension' if slot else 'rank'} {v}"
            )
        if vals[p] is not None:
            raise InconsistentSequenceError(
                f"{name}: {'' if slot else 'rank '}{vals[p]} conflicts with derived value {v}"
            )
        vals[p] = v
        return True

    changed = True
    while changed:
        changed = False
        for p in range(1, len(vals), 2):
            source, rank, target = vals[p - 1], vals[p], vals[p + 1]
            if rank != 0 and (source == 0 or target == 0):
                changed |= settle(p, 0)
                rank = 0
            if rank is not None:
                if source is not None and rank > source:
                    raise InconsistentSequenceError(f"map {p // 2} rank exceeds source dimension")
                if target is not None and rank > target:
                    raise InconsistentSequenceError(f"map {p // 2} rank exceeds target dimension")
        # exactness at each inner slot: dimension = rank in + rank out
        for p in range(2, len(vals) - 2, 2):
            trio = vals[p - 1:p + 2]
            if None not in trio:
                if trio[1] != trio[0] + trio[2]:
                    raise InconsistentSequenceError(f"exactness fails at slot {p // 2}")
            elif trio.count(None) == 1:
                i = trio.index(None)
                # the unknown from the other two: a sum, or a difference
                v = trio[0] + trio[2] if i == 1 else trio[1] - trio[2 - i]
                changed |= settle(p - 1 + i, v)
    dims, ranks = vals[0::2], vals[1::2]
    unknown = [i for i, v in enumerate(dims) if v is None]
    return MVSolution(dims, ranks, not unknown, unknown)


# ---------------------------------------------------------------------------
# Spheres via the Mayer-Vietoris recursion


def _betti_entry(betti, k):
    return betti[k] if k < len(betti) else 0


def sphere_sequence_problem(n: int, intersection_betti) -> ExactSequenceProblem:
    """The long exact sequence for S^n = (cap) u (cap), overlap ~ S^{n-1}.

    Knowns: H^0(S^n) = 1 (connected), both caps are contractible, and the
    overlap has the given Betti numbers.  Slots for H^k(S^n), k >= 1, are
    left unknown.
    """
    dims = [0, 1]  # leading zero, then H^0(X) = 1 since S^n is connected
    for k in range(n + 1):
        caps = 2 if k == 0 else 0
        dims.append(caps)
        if k < n:
            dims.append(_betti_entry(intersection_betti, k))
            dims.append(None)  # H^{k+1}(X)
    dims.append(0)
    return ExactSequenceProblem(dims)


def sphere_betti(n: int):
    """Betti numbers of S^n computed by the Mayer-Vietoris recursion."""
    if n < 1:
        raise ParseError("a sphere S^n needs n >= 1")
    intersection = [2]  # two disjoint intervals for the circle's overlap
    betti = None
    for dim in range(1, n + 1):
        problem = sphere_sequence_problem(dim, intersection)
        solution = mv_solve(problem)
        if not solution.determined:
            raise InconsistentSequenceError("sphere recursion under-determined")
        betti = [1] + [solution.dims[1 + 3 * k + 3] for k in range(dim)]
        intersection = betti
    return betti


def poincare_duality_check(betti, orientable: bool = True) -> bool:
    """Palindrome test b_k == b_{n-k}; meaningful for compact orientable X."""
    if not orientable:
        raise ParseError("duality pairing requires an orientable manifold")
    return list(betti) == list(reversed(list(betti)))


# ---------------------------------------------------------------------------
# Known-value tables


def compact_support_euclidean_betti(n: int):
    """Compactly supported cohomology of R^n: one dimension in top degree."""
    if n < 0:
        raise ParseError("R^n needs n >= 0")
    return [0] * n + [1]


def known_cohomology_tables() -> dict:
    return {
        "H0_connected": 1,
        "top_compact_connected_orientable": 1,
        "top_compact_connected_nonorientable": 0,
        "compact_support_euclidean": {
            n: compact_support_euclidean_betti(n) for n in range(7)
        },
        "spheres": {n: sphere_betti(n) for n in range(1, 7)},
    }


# ---------------------------------------------------------------------------
# The explicit connecting-map generator on the circle


@dataclass
class CircleGenerator:
    """A bump 1-form on the circle produced by the connecting construction.

    The circle is covered by the arcs U = {y < 1/2} and V = {y > -1/2}; the
    overlap has an x > 0 component and an x < 0 component.  The partition of
    unity is the cubic smoothstep in y (C^1, not C-infinity; the construction
    only needs its derivative to be integrable).  For an input class
    (a, b) in H^0(U n V), the resulting form is a d(rho_V) on the x > 0
    component and b d(rho_V) on the x < 0 component, and integrates to a - b.

    ``arc_u`` and ``arc_v`` give the two cover arcs as angle intervals; the
    coefficient is expressed in the angle coordinate shared by both charts.
    """

    klass: tuple
    coefficient: ScalarExpr  # d/dtheta of rho_V(sin theta), per unit class
    rho_v: ScalarExpr  # smoothstep in y, valid on the transition band
    arc_u: tuple  # theta interval of the arc {y < 1/2}
    arc_v: tuple  # theta interval of the arc {y > -1/2}
    support_positive_x: tuple  # theta interval carrying the x > 0 bump
    support_negative_x: tuple
    integral: float
    notes: str = (
        "partition of unity is a C^1 cubic smoothstep in y; "
        "the transition band is |y| <= 1/10"
    )


def circle_connecting_generator(klass=(1, 0), spec=32) -> CircleGenerator:
    from .cells import Cell
    from .forms import DifferentialForm
    from .integrate import integrate_cell
    from .maps import SmoothMap
    from .scalar import sin, variable

    a, b = klass
    y = variable(0)
    u = 5 * y + Fraction(1, 2)  # rescales y in [-1/10, 1/10] to [0, 1]
    rho_v = 3 * u**2 - 2 * u**3
    theta = variable(0)
    coeff = rho_v.substitute([sin(theta)]).differentiate(0)
    half_band = math.asin(0.1)
    total = 0.0
    for weight, (lo, hi) in (
        (a, (-half_band, half_band)),
        (b, (math.pi - half_band, math.pi + half_band)),
    ):
        if weight == 0:
            continue
        form = DifferentialForm(1, 1, {(0,): coeff * weight})
        cell = Cell(((lo, hi),), SmoothMap(1, 1, [variable(0)]))
        total += integrate_cell(form, cell, spec)
    sixth = math.asin(0.5)
    return CircleGenerator(
        klass=(a, b),
        coefficient=coeff,
        rho_v=rho_v,
        arc_u=(math.pi - sixth, 2 * math.pi + sixth),  # y < 1/2, wrapped
        arc_v=(-sixth, math.pi + sixth),  # y > -1/2
        support_positive_x=(-half_band, half_band),
        support_negative_x=(math.pi - half_band, math.pi + half_band),
        integral=total,
    )
