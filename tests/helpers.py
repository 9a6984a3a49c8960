"""Shared generators and oracles for the test suite."""

import itertools
import os
import random
import subprocess
import sys

from extcalc import scalar as S
from extcalc.forms import DifferentialForm
from extcalc.maps import SmoothMap


def rand_poly(rng, n, degree, terms=3):
    """Random polynomial with small integer coefficients."""
    e = S.constant(0)
    for _ in range(terms):
        c = rng.randint(-4, 4) or 1
        term = S.constant(c)
        for _ in range(rng.randint(0, degree)):
            term = term * S.variable(rng.randrange(n))
        e = e + term
    return e


def rand_elementary(rng, n, depth=1):
    """Random expression mixing polynomials, quotients, and exp/sin/cos."""
    base = rand_poly(rng, n, 2)
    pick = rng.random()
    if pick < 0.25:
        return base + S.exp(rand_poly(rng, n, 1, terms=2))
    if pick < 0.5:
        return base * S.sin(rand_poly(rng, n, 1, terms=2))
    if pick < 0.7:
        den = rand_poly(rng, n, 2, terms=2)
        if den.is_zero():
            den = S.constant(1)
        num = rand_poly(rng, n, 2)
        return base + num / (den * den + 1)
    if pick < 0.85:
        return base + S.cos(rand_poly(rng, n, 1, terms=2))
    return base


def rand_form(rng, n, k, degree=2, max_terms=3):
    idxs = list(itertools.combinations(range(n), k))
    count = min(len(idxs), rng.randint(1, max_terms))
    terms = {idx: rand_poly(rng, n, degree) for idx in rng.sample(idxs, count)}
    return DifferentialForm(n, k, terms)


def rand_map(rng, n, m, degree=2):
    return SmoothMap(n, m, [rand_poly(rng, n, degree) for _ in range(m)])


def rand_point(rng, n, lo=-2.0, hi=2.0):
    return [rng.uniform(lo, hi) for _ in range(n)]


def central_difference(f, point, axis, step=1e-5):
    hi = list(point)
    lo = list(point)
    hi[axis] += step
    lo[axis] -= step
    return (f(hi) - f(lo)) / (2 * step)


def make_rng(seed):
    return random.Random(seed)


def count_calls(monkeypatch, owner, name):
    """Record the arguments of every call of owner.name from now on.  owner is
    a class, or the module whose calls of a function are to be counted: a
    function is counted where its callers look it up."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def python(*args, **env):
    """Run a fresh interpreter that imports this checkout's extcalc; ``env``
    sets variables of the child, and a value of None removes one."""
    import extcalc

    src = os.path.dirname(os.path.dirname(extcalc.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    child = {**os.environ, "PYTHONPATH": path, **env}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60,
        env={k: v for k, v in child.items() if v is not None},
    )
