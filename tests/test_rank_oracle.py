"""Exact rank against sympy, an independent oracle.

Matrices of ints and Fractions come from hypothesis: empty and zero rows,
repeated rows, rows that are combinations of earlier ones, and matrices
with no +-1 entry, so that elimination must divide with Fraction.
"""

from fractions import Fraction

import pytest

from extcalc.cohomology import rank_exact

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

entries = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)),
)


@st.composite
def matrices(draw):
    m, n = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    rows = []
    for _ in range(m):
        if rows and draw(st.booleans()):
            # zero (0, 0), repeated (1, 0) or a combination of earlier rows
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([a * p + b * q for p, q in zip(x, y)])
        else:
            rows.append([draw(entries) for _ in range(n)])
    if draw(st.booleans()):
        # denominators are at most 5, so no entry of 6 * rows is +-1
        rows = [[6 * x for x in row] for row in rows]
    return n, rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(matrices())
def test_rank_agrees_with_sympy(matrix):
    n, rows = matrix
    flat = [sympy.Rational(x.numerator, x.denominator) for row in rows for x in row]
    assert rank_exact(rows) == sympy.Matrix(len(rows), n, flat).rank()
