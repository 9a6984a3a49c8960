"""Seeded input generators for the benchmark, in pure Python.

Everything here returns text or JSON-ready data built with ``random.Random``
only, so the library under test sees nothing but generated inputs.  The nerve
generators also return their Betti numbers, known from how they are built.
"""

from __future__ import annotations

import itertools

AXES = ("x", "y", "z", "t")
PARAMS = ("u", "v", "w", "s")


def _coeff(rng, rational):
    """A small nonzero rational coefficient as (num, den)."""
    num = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
    den = rng.choice((1, 1, 2, 3, 4, 7)) if rational else 1
    return num, den


def poly(rng, names, degree, terms, rational=True):
    """Random polynomial in the given variable names, as extcalc text."""
    pieces = []
    for _ in range(terms):
        num, den = _coeff(rng, rational)
        factors = []
        for _ in range(rng.randint(0, degree)):
            factors.append(rng.choice(names))
        mono = "*".join(
            f"{v}^{e}" if e > 1 else v
            for v, e in sorted((v, factors.count(v)) for v in set(factors))
        )
        c = f"{abs(num)}/{den}" if den != 1 else f"{abs(num)}"
        body = f"{c}*{mono}" if mono else c
        pieces.append(("-" if num < 0 else "+", body))
    first_sign, first = pieces[0]
    out = ("-" if first_sign == "-" else "") + first
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


COEFF_KINDS = ("poly", "exp", "sin", "cos", "quotient", "sqrt")


def coefficient(rng, names, kind, degree=2):
    """A coefficient of the given kind from ``COEFF_KINDS``: a polynomial,
    a polynomial times exp/sin or plus cos of a random linear form L, a
    polynomial over L^2 + 1, or a polynomial times sqrt(L^2 + 1)."""
    base = poly(rng, names, degree, rng.randint(1, 3))
    if kind == "poly":
        return base
    inner = poly(rng, names, 1, 2, rational=kind != "quotient")
    if kind == "exp":
        return f"({base})*exp({inner})"
    if kind == "sin":
        return f"({base})*sin({inner})"
    if kind == "cos":
        return f"({base}) + cos({inner})"
    if kind == "quotient":
        return f"({base})/(({inner})^2 + 1)"
    return f"({base})*sqrt(({inner})^2 + 1)"


def form(rng, n, k, kinds=COEFF_KINDS, max_terms=3):
    """A k-form on R^n as extcalc text (a bare scalar when k == 0).

    All coefficients of one form share a kind drawn from ``kinds``.  A form
    with a quotient or square-root coefficient has one term: sums of such
    terms make the exact arithmetic swell by orders of magnitude (there is
    no polynomial gcd), so that single jobs of a few terms take 5-20 s and
    dominate a run.
    """
    names = AXES[:n]
    kind = rng.choice(kinds)
    if kind in ("quotient", "sqrt"):
        max_terms = 1
    if k == 0:
        return coefficient(rng, names, kind)
    idxs = list(itertools.combinations(range(n), k))
    chosen = sorted(rng.sample(idxs, min(len(idxs), rng.randint(1, max_terms))))
    pieces = []
    for idx in chosen:
        dx = "/\\".join(f"d{AXES[i]}" for i in idx)
        pieces.append(f"({coefficient(rng, names, kind)})*{dx}")
    return " + ".join(pieces)


def smooth_map(rng, p, q, trig=True):
    """A map literal R^p -> R^q: quadratic components, about a third of
    them plus sin of a linear form when ``trig``."""
    params = PARAMS[:p]
    comps = []
    for _ in range(q):
        c = poly(rng, params, 2, rng.randint(1, 3))
        if trig and rng.random() < 0.3:
            c = f"{c} + sin({poly(rng, params, 1, 2, rational=False)})"
        comps.append(c)
    return f"map({', '.join(params)}) = {'; '.join(comps)}"


def perturbed_box_map(rng, k):
    """A quadratic perturbation of the unit-box chart of R^k, as a map
    literal: each component is ``u_i`` plus one or two terms ``c*a*b`` with
    |c| <= 1/8, small enough that the chart stays regular on the box."""
    params = PARAMS[:k]
    comps = []
    for p in params:
        comp = p
        for _ in range(rng.randint(1, 2)):
            a, b = rng.choice(params), rng.choice(params)
            comp += f" {rng.choice('+-')} 1/{rng.choice((8, 12, 16))}*{a}*{b}"
        comps.append(comp)
    return f"map({', '.join(params)}) = {'; '.join(comps)}"


# ---------------------------------------------------------------------------
# Nerves with known cohomology


def _closure(simplices):
    closed = set()
    for s in simplices:
        s = frozenset(s)
        for r in range(1, len(s) + 1):
            closed.update(frozenset(f) for f in itertools.combinations(sorted(s), r))
    return closed


def euler_characteristic(vertices, simplices):
    closed = _closure(simplices) | {frozenset((v,)) for v in range(vertices)}
    return sum((-1) ** (len(s) - 1) for s in closed)


def sphere_betti(n):
    return [1] + [0] * (n - 1) + [1]


def sphere_nerve(rng, n):
    """The boundary of an (n+1)-simplex (S^n) with shuffled vertex labels."""
    verts = n + 2
    labels = list(range(verts))
    rng.shuffle(labels)
    faces = [[labels[j] for j in range(verts) if j != i] for i in range(verts)]
    return {"vertices": verts, "simplices": faces}, sphere_betti(n), n


def nerve(rng):
    """A generated nerve as (json_dict, expected_betti, sphere_dim or None).

    Kinds: an m-cycle (S^1), the 9-vertex torus, a cone over a random
    complex (contractible), and a disjoint union of a sphere and a cycle.
    """
    kind = rng.randrange(4)
    if kind == 0:
        m = rng.randint(3, 40)
        return {"vertices": m, "simplices": [[i, (i + 1) % m] for i in range(m)]}, [1, 1], 1
    if kind == 1:
        def vert(i, j):
            return 3 * (i % 3) + (j % 3)

        tris = []
        for i in range(3):
            for j in range(3):
                tris.append([vert(i, j), vert(i + 1, j), vert(i + 1, j + 1)])
                tris.append([vert(i, j), vert(i, j + 1), vert(i + 1, j + 1)])
        return {"vertices": 9, "simplices": tris}, [1, 2, 1], None
    if kind == 2:
        base_v = rng.randint(3, 7)
        base = []
        for _ in range(rng.randint(2, 6)):
            size = rng.randint(1, min(3, base_v))
            base.append(sorted(rng.sample(range(base_v), size)))
        apex = base_v
        cone = [s + [apex] for s in base] + [[v, apex] for v in range(base_v)]
        dim = max(len(s) for s in _closure(cone)) - 1
        return {"vertices": base_v + 1, "simplices": cone}, [1] + [0] * dim, None
    n = rng.randint(2, 4)
    m = rng.randint(3, 12)
    verts = n + 2
    faces = [[j for j in range(verts) if j != i] for i in range(verts)]
    cycle = [[verts + i, verts + (i + 1) % m] for i in range(m)]
    betti = [2, 1] + [0] * (n - 2) + [1]
    return {"vertices": verts + m, "simplices": faces + cycle}, betti, None


def sphere_sequence_json(n):
    """The Mayer-Vietoris sequence for S^n = cap u cap with overlap S^{n-1},
    as mv-solve JSON, with the H^k(S^n) slots left unknown."""
    inter = [2] if n == 1 else sphere_betti(n - 1)
    dims = [0, 1]
    for k in range(n + 1):
        dims.append(2 if k == 0 else 0)
        if k < n:
            dims.append(inter[k] if k < len(inter) else 0)
            dims.append(None)
    dims.append(0)
    return {"slots": [{} if d is None else {"dim": d} for d in dims]}


def sphere_sequence_answer(n):
    """Expected slot dimensions: H^k(S^n) sits at slot 3k + 1."""
    return {3 * k + 1: (1 if k in (0, n) else 0) for k in range(n + 1)}
