"""The scalar engine against sympy, an independent oracle.

Expressions come from the ``helpers`` generators, seeded by hypothesis, and
reach sympy through their printed form.  On the rational-function fragment
the zero test must agree with ``sympy.cancel``; on the elementary fragment
float evaluation (of the expression and of a derivative) must agree with
sympy's; and equal expressions must hash equally.
"""

import math
from fractions import Fraction

import pytest

from extcalc import scalar as S

from helpers import make_rng, rand_elementary, rand_point, rand_poly

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy.parsing.sympy_parser import parse_expr  # noqa: E402

NAMES = ("x", "y", "z")
SYMBOLS = {name: sympy.Symbol(name) for name in NAMES}
FUNCTIONS = {"exp": sympy.exp, "ln": sympy.log, "sin": sympy.sin, "cos": sympy.cos,
             "sqrt": sympy.sqrt}
seeds = st.integers(min_value=0, max_value=2**32 - 1)
oracle = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def to_sympy(e):
    """The printed form of e (axis names of R^3) read by sympy."""
    text = S.format_expr(e, 3).replace("^", "**")
    return parse_expr(text, local_dict={**SYMBOLS, **FUNCTIONS})


def nonzero_poly(rng, n, degree):
    p = rand_poly(rng, n, degree)
    return p if not p.is_zero() else S.constant(rng.choice((1, 2, 3)))


def rational_pair(rng, n):
    """Two rational functions, computed along different routes; they are
    equal unless a random polynomial perturbs the second."""
    p, q, r = (rand_poly(rng, n, 2) for _ in range(3))
    d1, d2 = nonzero_poly(rng, n, 2), nonzero_poly(rng, n, 1)
    kind = rng.randrange(4)
    if kind == 0:
        a, b = (p + q) * r / d1, p * r / d1 + q * r / d1
    elif kind == 1:
        a, b = p / d1 + q / d2, (p * d2 + q * d1) / (d1 * d2)
    elif kind == 2:
        a, b = (p / d1) * (d1 / d2), p / d2
    else:
        a, b = (p + d1) ** 2 / d2, (p * p + 2 * p * d1 + d1 * d1) / d2
    if rng.random() < 0.5:
        b = b + rand_poly(rng, n, 1, terms=1)
    return a, b


@oracle
@given(seeds)
def test_zero_detection_agrees_with_cancel(seed):
    rng = make_rng(seed)
    a, b = rational_pair(rng, rng.randint(1, 3))
    assert (a - b).is_zero() == (sympy.cancel(to_sympy(a) - to_sympy(b)) == 0)
    if a == b:
        assert hash(a) == hash(b)


@oracle
@given(seeds)
def test_polynomials_equal_when_their_difference_is_zero(seed):
    # polynomial normal forms are canonical, so == is the zero test there
    rng = make_rng(seed)
    n = rng.randint(1, 3)
    p, q, r = (rand_poly(rng, n, 2) for _ in range(3))
    pairs = [(p + q, q + p), ((p + q) * r, p * r + q * r), ((p - q) * (p + q), p * p - q * q)]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert sympy.expand(to_sympy(a) - to_sympy(b)) == 0


@settings(oracle, max_examples=20)  # sympy.diff takes most of the time
@given(seeds)
def test_float_evaluation_agrees(seed):
    rng = make_rng(seed)
    n = rng.randint(1, 3)
    a, b = rand_elementary(rng, n), rand_elementary(rng, n)
    e = a * (a + b)  # a*a triggers the exp and cos^2 rewrites
    axis = rng.randrange(n)
    de = e.differentiate(axis)
    ref = to_sympy(a) * (to_sympy(a) + to_sympy(b))  # the product formed by sympy
    dref = sympy.diff(ref, SYMBOLS[NAMES[axis]])
    point = rand_point(rng, n, -1.5, 1.5)
    subs = {SYMBOLS[NAMES[i]]: sympy.Float(v, 30) for i, v in enumerate(point)}
    for expr, sym in ((e, ref), (de, dref)):
        want = float(sym.evalf(30, subs=subs))
        assert math.isclose(expr.evaluate(point), want, rel_tol=1e-9, abs_tol=1e-9)


@pytest.mark.parametrize("value", [2, Fraction(2), Fraction(1, 2), 0, -3])
def test_constants_hash_like_their_value(value):
    c = S.constant(value)
    for other in (value, Fraction(value), S.constant(Fraction(value)), S.constant(4 * value) / 4):
        assert c == other and hash(c) == hash(other)


def function_nest(rng, n, depth):
    """exp, ln, sin, cos and sqrt composed depth times in random order; the
    argument of ln and sqrt is positive, and the values stay moderate.  ln is
    rare: each ln(u) puts u into the derivative's denominator, whose normal
    form multiplies out, so that k of them give it about 2^k terms."""
    e = S.variable(rng.randrange(n))
    for _ in range(depth):
        name = rng.choice(("exp", "sin", "cos", "sqrt") * 3 + ("ln",))
        if name in ("ln", "sqrt"):
            arg = e * e + 1
        else:
            arg = e / 2 + S.variable(rng.randrange(n)) / 3
        e = getattr(S, name)(arg)
    return e


@pytest.mark.parametrize("depth", [2, 10, 30])
def test_derivative_of_a_function_nest_agrees(depth):
    rng = make_rng(depth)
    for _ in range(3):
        n = rng.randint(1, 3)
        e = function_nest(rng, n, depth)
        axis = rng.randrange(n)
        dref = sympy.diff(to_sympy(e), SYMBOLS[NAMES[axis]])
        point = rand_point(rng, n, -1.5, 1.5)
        subs = {SYMBOLS[NAMES[i]]: sympy.Float(v, 30) for i, v in enumerate(point)}
        # evalf(subs=...) takes time exponential in the depth; xreplace does not
        want = float(dref.xreplace(subs).evalf(30))
        got = e.differentiate(axis).evaluate(point)
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
