"""Which Jacobian minors the integrator skips as identically zero.

A minor on rows I and free columns F is identically zero for want of
entries exactly when no permutation p of F has every zero[i][p_i] false.
Zero patterns come from hypothesis, and that permutation test is the
oracle for ``_plan``, which runs the ``maps._minors`` shape pass.
"""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from extcalc.integrate import _plan  # noqa: E402


def oracle(zero, terms, free):
    return tuple(t for t in terms
                 if any(all(not zero[i][j] for i, j in zip(t, p))
                        for p in itertools.permutations(free)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_plan_needs_the_terms_with_a_nonzero_permutation(data):
    n = data.draw(st.integers(1, 6), label="n")
    m = data.draw(st.integers(1, 6), label="m")
    k = data.draw(st.integers(0, min(5, n, m)), label="k")
    zero = tuple(tuple(data.draw(st.booleans()) for _ in range(n)) for _ in range(m))
    free = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=k, max_size=k))))
    rows = list(itertools.combinations(range(m), k))
    terms = tuple(data.draw(st.lists(st.sampled_from(rows), unique=True, max_size=6)))
    expected = oracle(zero, terms, free)
    # two cells with these free axes are one run, which needs these terms
    runs, needed = _plan(zero, terms, (free, free))
    assert runs == ((slice(0, 2), free, expected),) and needed == expected


def test_runs_follow_the_cells_in_order():
    # the faces of a square alternate free axes in pairs; each run keeps
    # its own terms, and the group needs their union in the form's order
    zero = ((False, True), (True, False))
    terms = ((1,), (0,))
    frees = ((1,), (1,), (0,), (0,), (1,))
    runs, needed = _plan(zero, terms, frees)
    assert runs == ((slice(0, 2), (1,), ((1,),)), (slice(2, 4), (0,), ((0,),)),
                    (slice(4, 5), (1,), ((1,),)))
    assert needed == terms
