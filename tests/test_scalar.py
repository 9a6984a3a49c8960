"""Symbolic scalar engine: parsing, calculus, normal form."""

import gc
import math
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

from helpers import central_difference, make_rng, rand_elementary, rand_point, rand_poly

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


def test_atom_cache_lets_unused_atoms_go():
    gc.collect()
    before = len(S._ATOM_CACHE)
    for i in range(200):
        e = parse_scalar(f"sin(x*{i}+1)*exp(y+{i})", 2)
    assert len(S._ATOM_CACHE) > before
    del e
    gc.collect()
    assert len(S._ATOM_CACHE) == before
