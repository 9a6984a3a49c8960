"""Symbolic scalar engine: parsing, calculus, normal form."""

import gc
import hashlib
import math
import os
import sys
from fractions import Fraction

import pytest

from extcalc import scalar as S
from extcalc.errors import (
    DimensionMismatch,
    NotPolynomialError,
    ParseError,
    SingularityError,
)
from extcalc.parsing import parse_scalar

from helpers import (
    central_difference,
    make_rng,
    rand_elementary,
    rand_form,
    rand_map,
    rand_point,
    rand_poly,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
import gen  # noqa: E402

x, y, z = S.variable(0), S.variable(1), S.variable(2)


class TestParse:
    def test_product_of_variables(self):
        assert parse_scalar("x*y", 2) == x * y

    def test_exp(self):
        assert parse_scalar("exp(x)", 2) == S.exp(x)

    def test_form_symbol_rejected(self):
        with pytest.raises(ParseError):
            parse_scalar("(x*dy)", 2)

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse_scalar("x*q", 2)

    def test_axis_out_of_range(self):
        with pytest.raises(ParseError):
            parse_scalar("z", 2)

    def test_position_reported(self):
        with pytest.raises(ParseError) as err:
            parse_scalar("x + @", 2)
        assert "position" in str(err.value)

    def test_numbers_and_precedence(self):
        assert parse_scalar("1/2*x", 1) == x / 2
        assert parse_scalar("3/4", 1) == S.constant(Fraction(3, 4))
        assert parse_scalar("2.5", 1) == S.constant(Fraction(5, 2))
        assert parse_scalar("x^2 - 3", 1) == x * x - 3
        assert parse_scalar("-x + x", 1).is_zero()
        assert parse_scalar("x^-2", 1) == 1 / (x * x)

    def test_aliases(self):
        assert parse_scalar("x1*x2", 2) == x * y
        assert parse_scalar("t", 4) == S.variable(3)


class TestDifferentiate:
    def test_product_rule(self):
        assert (x * y).differentiate(0) == y

    def test_exp(self):
        assert S.exp(x).differentiate(0) == S.exp(x)

    def test_quotient_matches_finite_difference(self):
        e = x / (x * x + y * y)
        sym = e.differentiate(0).evaluate([1.0, 2.0])
        fd = central_difference(e.evaluate, [1.0, 2.0], 0)
        assert abs(sym - fd) <= 1e-8

    def test_elementary_chain_rules(self):
        assert S.ln(x).differentiate(0) == 1 / x
        assert S.sin(x * y).differentiate(0) == y * S.cos(x * y)
        assert S.cos(x).differentiate(0) == -S.sin(x)
        assert S.sqrt(x).differentiate(0) == 1 / (2 * S.sqrt(x))



class TestSumTerms:
    def test_polynomials_add_first_then_quotients(self):
        q = x / (y * y + 1)
        values = [S.loose(x * y), q, 3, S.loose(-x * y), S.loose(z), -q / 2]
        assert S.sum_terms(values) == z + 3 + q / 2
        assert S.sum_terms([S.loose(x), S.loose(-x)]) is S.ZERO
        assert S.sum_terms([q, -q]) == S.ZERO

    def test_derivative_of_a_polynomial_makes_one_expression(self, monkeypatch):
        poly = parse_scalar("(x + 2*y - 3*z + 1)^12", 3)
        assert len(poly._num) == 455
        made = []
        make = S.ScalarExpr._make

        def counted(num, den):
            made.append(len(num[0]))
            return make(num, den)

        monkeypatch.setattr(S.ScalarExpr, "_make", staticmethod(counted))
        derivative = poly.differentiate(1)
        assert made == [len(derivative._num)]
        monkeypatch.undo()
        assert derivative == parse_scalar("24*(x + 2*y - 3*z + 1)^11", 3)

    def test_derivative_mixing_polynomial_and_quotient_terms(self):
        e = x * x * S.ln(x) + y * S.exp(x * y) + S.sqrt(x) * y
        got = e.differentiate(0)
        want = 2 * x * S.ln(x) + x + y * y * S.exp(x * y) + y / (2 * S.sqrt(x))
        assert got == want
        for point in ([0.5, 1.5], [2.0, -0.25]):
            fd = central_difference(e.evaluate, point, 0)
            assert abs(got.evaluate(point) - fd) <= 1e-7

class TestSubstitute:
    def test_polar_radius(self):
        r, th = S.variable(0), S.variable(1)
        result = (x * x + y * y).substitute([r * S.cos(th), r * S.sin(th)])
        assert result == r * r
        rng = make_rng(11)
        for _ in range(20):
            pr, pt = rng.uniform(0.1, 3), rng.uniform(0, 6)
            direct = (pr * math.cos(pt)) ** 2 + (pr * math.sin(pt)) ** 2
            assert abs(result.evaluate([pr, pt]) - direct) <= 1e-12

    def test_identity(self):
        assert x.substitute([x, y]) == x

    def test_constant_fixed_point(self):
        assert S.constant(5).substitute([y]) == S.constant(5)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            (x * y).substitute([x])


class TestEvaluate:
    def test_product(self):
        assert (x * y).evaluate([2.0, 3.0]) == 6.0

    def test_singularity(self):
        e = 1 / (x * x + y * y)
        with pytest.raises(SingularityError):
            e.evaluate([0.0, 0.0])

    def test_exp_minus_x(self):
        assert abs((S.exp(x) - x).evaluate([1.0]) - (math.e - 1)) < 1e-12

    def test_ln_domain(self):
        with pytest.raises(SingularityError):
            S.ln(x).evaluate([-1.0])
        with pytest.raises(SingularityError):
            S.sqrt(x).evaluate([-1.0])

    def test_exact_rational_subtree(self):
        e = S.constant(Fraction(1, 3)) * 3
        assert e.evaluate([]) == 1.0

    @staticmethod
    def product_of_sums(lengths):
        """prod over the axes of sum_i (i + 1) v^i, as a polynomial and as
        the exact value at a point."""
        factors = [sum(((i + 1) * S.variable(a) ** i for i in range(n)), S.constant(0))
                   for a, n in enumerate(lengths)]
        poly = math.prod(factors[1:], start=factors[0])

        def exact(point):
            return math.prod(sum((i + 1) * Fraction(v) ** i for i in range(n))
                             for v, n in zip(point, lengths))
        return poly, exact

    def test_long_sum_compiles(self):
        import numpy as np

        poly, exact = self.product_of_sums((18, 18, 16))
        assert len(poly._num) >= 5000
        point = (0.5, 0.75, 1.25)
        want = float(exact(point))
        by_point = poly.compiled()(point)
        by_column = S.Batch([poly]).columns([np.array([v]) for v in point])[0][0]
        for got in (by_point, by_column):
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_long_sum_adds_in_grlex_order(self):
        # the reference of the evaluation order: terms in _grlex order, each
        # its coefficient times its factors left to right, added left to
        # right (1.0 * v and v ** 1 are v exactly)
        poly, _ = self.product_of_sums((18, 18, 16))
        coefs = poly._num  # a property that builds a new dict at each read
        assert len(coefs) >= 5000
        for point in [(0.5, 0.75, 1.25), (-1.1, 0.3, 0.9), (1.7, -0.6, -1.3)]:
            want = None
            for m in sorted(coefs, key=S._grlex):
                term = float(coefs[m])
                for a, e in m:
                    term = term * point[a.axis] ** e
                want = term if want is None else want + term
            assert poly.compiled()(point) == want


class TestIntegratePolynomial:
    def test_power_rule(self):
        t = S.variable(0)
        assert S.integrate_polynomial(t, 0) == t * t / 2

    def test_constant_in_axis(self):
        s, xx = S.variable(0), S.variable(1)
        assert S.integrate_polynomial(xx * xx, 0) == xx * xx * s

    def test_round_trip(self):
        s, xx = S.variable(0), S.variable(1)
        integrand = 3 * s * s + 2 * xx * s
        f = S.integrate_polynomial(integrand, 0)
        assert f == s ** 3 + xx * s * s
        assert f.differentiate(0) == integrand
        assert f.substitute_axis(0, 0).is_zero()

    def test_nonzero_lower_limit(self):
        t = S.variable(0)
        f = S.integrate_polynomial(t, 0, lower=1)
        assert f.differentiate(0) == t
        assert f.substitute_axis(0, 1).is_zero()

    def test_not_polynomial(self):
        with pytest.raises(NotPolynomialError):
            S.integrate_polynomial(S.exp(x), 0)
        with pytest.raises(NotPolynomialError):
            S.integrate_polynomial(1 / (1 + x * x), 0)


class TestNormalForm:
    def test_trig_identity(self):
        u = x * y + 1
        assert (S.sin(u) ** 2 + S.cos(u) ** 2 - 1).is_zero()

    def test_exp_merge(self):
        a, b = x, y * y
        assert (S.exp(a) * S.exp(b) - S.exp(a + b)).is_zero()

    def test_sqrt_square(self):
        u = x * x + y * y + 1
        assert (S.sqrt(u) ** 2 - u).is_zero()

    def test_sqrt_of_perfect_square_monomial(self):
        assert S.sqrt(4 * x * x) == 2 * x
        assert S.sqrt(S.constant(9)) == S.constant(3)

    def test_trig_parity(self):
        assert S.sin(-x) == -S.sin(x)
        assert S.cos(-x) == S.cos(x)
        assert (S.sin(x - y) + S.sin(y - x)).is_zero()

    def test_quotient_common_denominator(self):
        e = 1 / x + 1 / y
        assert e == (x + y) / (x * y)

    def test_same_denominator_sum_keeps_it(self):
        r2 = x * x + y * y
        e = x / r2 + y / r2
        assert e == (x + y) / r2
        assert str(e) == "(x + y)/(x^2 + y^2)"

    def test_quotient_cancellation(self):
        assert (x * x) / x == x
        assert (x * x - y * y) / (x - y) == x + y
        assert (x - y) / (x * x - y * y) == 1 / (x + y)

    def test_zero_detection_rational_fragment(self):
        e = (x + y) ** 2 - x * x - 2 * x * y - y * y
        assert e.is_zero()
        q = x / y - (x * z) / (y * z)
        assert q.is_zero()

    def test_float_constants_rejected(self):
        with pytest.raises(TypeError):
            S.as_expr(0.5)


def coefficients(e):
    """Every coefficient of e, those inside function arguments included."""
    for p in (e._num, e._den):
        for m, c in p.items():
            yield c
            for a, _ in m:
                if a.arg is not None:
                    yield from coefficients(a.arg)


class TestCoefficientTypes:
    """A coefficient is an int, or a Fraction whose denominator is not 1."""

    @staticmethod
    def check(e):
        for c in coefficients(e):
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)

    def test_results_of_the_form_operations(self):
        from extcalc.forms import DifferentialForm
        from extcalc.homotopy import primitive
        from extcalc.maps import pullback

        rng = make_rng(31)
        for _ in range(30):
            n = rng.randint(2, 3)
            scale = S.constant(Fraction(rng.randint(1, 5), rng.randint(2, 6)))
            a = rand_form(rng, n, rng.randint(0, n - 1)) * scale
            b = DifferentialForm(n, 1, {(rng.randrange(n),): rand_elementary(rng, n) * scale})
            g = rand_map(rng, rng.randint(1, 3), n)
            for form in (a.d(), b.d(), a.wedge(b), pullback(g, a), pullback(g, b), primitive(a.d())):
                for c in form.terms.values():
                    self.check(c)
            p = rand_poly(rng, n, 3) * scale
            self.check(S.integrate_polynomial(p, 0))
            self.check(S.integrate_polynomial(p, 1, lower=scale))

    def test_constants(self):
        for value in (True, 3, Fraction(6, 3), Fraction(1, 2)):
            self.check(S.constant(value))
        for e in (S.constant(3), S.constant(Fraction(1, 2)) * 2, S.ZERO, x / x):
            assert type(e.constant_value()) is Fraction


class TestPrintRoundTrip:
    def test_round_trip_random(self):
        rng = make_rng(23)
        for _ in range(60):
            n = rng.randint(1, 4)
            e = rand_elementary(rng, n)
            again = parse_scalar(S.format_expr(e, n), n)
            assert again == e

    def test_round_trip_quotient(self):
        e = x / (x * x + y * y)
        assert parse_scalar(str(e), 2) == e


class TestPropertySuites:
    def test_derivative_matches_finite_differences(self):
        rng = make_rng(101)
        for _ in range(200):
            n = rng.randint(1, 4)
            e = rand_poly(rng, n, 4)
            axis = rng.randrange(n)
            de = e.differentiate(axis)
            f = e.evaluate
            for _ in range(10):
                p = rand_point(rng, n)
                sym = de.evaluate(p)
                fd = central_difference(f, p, axis)
                assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym))

    def test_mixed_partials_commute(self):
        rng = make_rng(102)
        for _ in range(60):
            n = rng.randint(2, 4)
            e = rand_elementary(rng, n)
            i, j = rng.randrange(n), rng.randrange(n)
            lhs = e.differentiate(i).differentiate(j)
            rhs = e.differentiate(j).differentiate(i)
            assert (lhs - rhs).is_zero()

    def test_substitute_chain_rule(self):
        rng = make_rng(103)
        for _ in range(40):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            e = rand_poly(rng, m, 3)
            g = [rand_poly(rng, n, 2) for _ in range(m)]
            j = rng.randrange(n)
            lhs = e.substitute(g).differentiate(j)
            rhs = S.constant(0)
            for i in range(m):
                rhs = rhs + e.differentiate(i).substitute(g) * g[i].differentiate(j)
            assert (lhs - rhs).is_zero()


class TestNormalizationFuzz:
    """Build expressions by random operations, mirrored by a float recipe.

    Every normalization step must preserve the numeric value of the
    expression, so the canonical form and the naive float evaluation have to
    agree at random points.
    """

    def _build(self, rng, n, depth):
        if depth == 0:
            choice = rng.random()
            if choice < 0.5:
                axis = rng.randrange(n)
                return S.variable(axis), lambda p, a=axis: p[a]
            c = rng.randint(-3, 3)
            return S.constant(c), lambda p, c=c: float(c)
        op = rng.random()
        a, fa = self._build(rng, n, depth - 1)
        if op < 0.55:
            b, fb = self._build(rng, n, depth - 1)
            kind = rng.randrange(3)
            if kind == 0:
                return a + b, lambda p: fa(p) + fb(p)
            if kind == 1:
                return a - b, lambda p: fa(p) - fb(p)
            return a * b, lambda p: fa(p) * fb(p)
        if op < 0.7:
            b, fb = self._build(rng, n, depth - 1)
            den = b * b + 1
            return a / den, lambda p: fa(p) / (fb(p) ** 2 + 1)
        if op < 0.8:
            k = rng.randint(2, 3)
            return a**k, lambda p, k=k: fa(p) ** k
        if op < 0.9:
            return S.sin(a), lambda p: math.sin(fa(p))
        if op < 0.97:
            return S.cos(a), lambda p: math.cos(fa(p))
        return S.exp(a), lambda p: math.exp(fa(p))

    def test_value_preserved_through_normalization(self):
        rng = make_rng(999)
        checked = 0
        for _ in range(60):
            n = rng.randint(1, 3)
            expr, reference = self._build(rng, n, rng.randint(2, 3))
            for _ in range(5):
                p = rand_point(rng, n, -1.5, 1.5)
                try:
                    want = reference(p)
                except OverflowError:
                    continue
                if abs(want) > 1e6:
                    continue
                got = expr.evaluate(p)
                assert abs(got - want) <= 1e-7 * max(1.0, abs(want))
                checked += 1
        assert checked > 150

    def test_idempotence_through_reparse(self):
        rng = make_rng(998)
        for _ in range(40):
            n = rng.randint(1, 3)
            expr, _ = self._build(rng, n, 2)
            assert parse_scalar(S.format_expr(expr, n), n) == expr


class TestLooseValues:
    """A parser's loose arithmetic gives what ScalarExpr arithmetic gives, down
    to the order of the terms of each numerator and denominator."""

    @staticmethod
    def _terms(e):
        return [[(m, type(c), c) for m, c in p.items()] for p in (e._num, e._den)]

    @staticmethod
    def _operand(rng, n):
        pick = rng.random()
        if pick < 0.2:
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            return S.constant(c), c  # a number is its own loose value
        e = rand_poly(rng, n, 2) if pick < 0.6 else rand_elementary(rng, n)
        return e, S.loose(e)

    def test_operations_match_scalar_arithmetic(self):
        rng = make_rng(997)
        for _ in range(300):
            n = rng.randint(1, 3)
            (a, la), (b, lb) = self._operand(rng, n), self._operand(rng, n)
            k = rng.randint(-2, 3)
            cases = [(a + b, S.loose_add(la, lb)), (a * b, S.loose_mul(la, lb)),
                     (-a, S.loose_neg(la)), (S.sin(a), S.loose(S.sin(S.tight(la))))]
            if not b.is_zero():
                cases.append((a / b, S.loose_div(la, lb)))
            if k >= 0 or not a.is_zero():
                cases.append((a**k, S.loose_pow(la, k)))
            for want, got in cases:
                assert self._terms(S.tight(got)) == self._terms(want)

    def test_variable(self):
        assert self._terms(S.tight(S.loose_variable(2))) == self._terms(z)


def test_atom_cache_lets_unused_atoms_go():
    gc.collect()
    before = len(S._ATOM_CACHE)
    for i in range(200):
        e = parse_scalar(f"sin(x*{i}+1)*exp(y+{i})", 2)
    assert len(S._ATOM_CACHE) > before
    del e
    gc.collect()
    assert len(S._ATOM_CACHE) == before


# The nested keys atoms had before their keys were flat, as the reference
# the flat keys must sort like.
def nested_atom_key(a):
    if a.kind == "v":
        return (0, a.axis)
    return (1, S._FUNC_INDEX[a.name], (nested_poly_key(a.arg._num), nested_poly_key(a.arg._den)))


def nested_mono_key(m):
    return tuple((nested_atom_key(a), e) for a, e in m)


def nested_poly_key(p):
    return tuple(sorted((nested_mono_key(m), (c.numerator, c.denominator)) for m, c in p.items()))


def test_flat_keys_sort_like_the_nested_ones():
    rng = make_rng(15)
    exprs = []
    for _ in range(120):
        n = rng.randint(1, 3)
        e = rand_elementary(rng, n)
        for _ in range(rng.randint(0, 3)):
            e = rand_elementary(rng, n) + rng.choice((S.exp, S.sin, S.cos))(e)
        exprs.append(e)
    polys = [p for e in exprs for p in (e._num, e._den) if p]
    atoms = list(S._walk(exprs)) + [S._var_atom(i) for i in range(3)]
    assert sorted(atoms, key=lambda a: a.key) == sorted(atoms, key=nested_atom_key)
    assert len({a.key for a in atoms}) == len(atoms)
    assert sorted(exprs, key=lambda e: e._key) == sorted(
        exprs, key=lambda e: (nested_poly_key(e._num), nested_poly_key(e._den)))
    monos = list(dict.fromkeys(m for p in polys for m in p))
    assert sorted(monos, key=S._grlex) == sorted(
        monos, key=lambda m: (S._mono_degree(m), nested_mono_key(m)))
    names = {a: f"f{i}" for i, a in enumerate(atoms) if a.kind == "f"}
    for p in polys:
        assert S._p_lead(p) == min(p, key=lambda m: (
            -S._mono_degree(m), tuple((nested_atom_key(a), -e) for a, e in m)))
        order = sorted(p, key=lambda m: (p[m] < 0, -S._mono_degree(m), nested_mono_key(m)))
        assert S._poly_terms(p, 3, names) == [S._poly_terms({m: p[m]}, 3, names)[0] for m in order]


class TestSymbolicPin:
    """The printed form, key and evaluation tape of a seeded corpus of
    ``perfbench/gen.py`` coefficients, forms and maps, and of the results of
    the symbolic operations on them, hashed: a change to how coefficients
    are stored must leave every text, key and tape coefficient as it was."""

    PIN = "136d147797a2df986cfa9668c53d178613619e8510691ab3b133407a88b32ad4"

    @staticmethod
    def _corpus(rng):
        from extcalc.parsing import parse_form, parse_map

        for n in (2, 3, 2, 3):
            names = gen.AXES[:n]
            scalars = [parse_scalar(gen.coefficient(rng, names, kind), n)
                       for kind in gen.COEFF_KINDS for _ in range(3)]
            forms = [parse_form(gen.form(rng, n, k, kinds=(kind,), max_terms=2), n)
                     for kind in gen.COEFF_KINDS for k in range(n + 1)]
            maps = [parse_map(gen.smooth_map(rng, p, n)) for p in (1, 2, 3)]
            maps += [parse_map(gen.perturbed_box_map(rng, n))]
            yield n, scalars, forms, maps

    @staticmethod
    def _results(rng, n, scalars, forms, maps):
        """Thunks of the corpus values and of the operations on them; each is
        called before the next is made, so the loop variables it reads are
        the current ones."""
        from extcalc.forms import VectorFieldSym, lie_derivative
        from extcalc.homotopy import primitive
        from extcalc.maps import pullback

        for value in scalars + forms + maps:
            yield lambda: value
        for a, b in zip(scalars, scalars[1:] + scalars[:1]):
            yield lambda: a + b
            yield lambda: a * b
            yield lambda: a / b
            yield lambda: a ** rng.randint(-2, 3)
            for i in range(n):
                yield lambda: a.differentiate(i)
            g = rng.choice(maps)
            yield lambda: a.substitute(g.components)
        for a, b in zip(forms, forms[1:] + forms[:1]):
            yield a.d
            yield lambda: a.wedge(b)
            g = rng.choice(maps)
            yield lambda: pullback(g, a)
            yield lambda: primitive(a.d())
            v = VectorFieldSym(n, rng.sample(scalars, n))
            yield lambda: lie_derivative(v, a)

    @staticmethod
    def _describe(value):
        """The text, key and tape of a scalar, or of each coefficient of a
        form or component of a map."""
        if isinstance(value, S.ScalarExpr):
            return [repr((str(value), value._key, S.Batch([value])._tape))]
        if hasattr(value, "components"):
            return [line for c in value.components for line in TestSymbolicPin._describe(c)]
        return [f"{value.k} {value}"] + [f"{idx} {line}" for idx, c in value.terms.items()
                                         for line in TestSymbolicPin._describe(c)]

    def _lines(self):
        rng = make_rng(2024)
        for n, scalars, forms, maps in self._corpus(rng):
            for value in self._results(rng, n, scalars, forms, maps):
                try:
                    value = value()
                except Exception as err:  # a fault's text is pinned too
                    yield f"{type(err).__name__}: {err}"
                    continue
                yield from self._describe(value)

    def test_texts_keys_and_tapes_are_pinned(self):
        lines = list(self._lines())
        assert len(lines) > 500
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.PIN

def stored_polynomials(e):
    """The (terms, d) pairs of e and of every function argument inside it."""
    for p in (e._p, e._q):
        yield p
        for m in p[0]:
            for a, _ in m:
                if a.arg is not None:
                    yield from stored_polynomials(a.arg)


def test_stored_polynomials_are_reduced_and_equality_is_the_zero_test():
    """Every polynomial is int numerators over a positive int denominator in
    lowest terms; two polynomials are equal exactly where their difference
    is zero, and equal ones hash alike."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    terms = st.lists(st.tuples(st.integers(-6, 6).filter(bool), st.integers(1, 6),
                               st.integers(0, 2), st.integers(0, 2)), max_size=4)

    def poly(ts):
        return sum((S.constant(Fraction(c, d)) * x**i * y**j for c, d, i, j in ts), S.ZERO)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(terms, terms, terms, st.integers(0, 3))
    def check(ta, tb, tq, route):
        a, q = poly(ta), poly(tq) + 1 + x * x
        # b is a itself by another route, or a second polynomial
        b = [poly(tb), poly(ta[::-1]), a * q / q, a + poly(tb) - poly(tb)][route]
        for e in (a, b, a + b, a - b, a * b, a / q, a / q - b / q**2, a * S.sin(b), S.exp(a / 2)):
            for terms_, d in stored_polynomials(e):
                assert type(d) is int and d > 0
                assert all(type(c) is int and c for c in terms_.values())
                assert math.gcd(d, *terms_.values()) == 1
        assert (a == b) == (a - b).is_zero()
        if a == b:
            assert hash(a) == hash(b)
        if route:
            assert a == b

    check()
