"""Exterior algebra: canonicalization, wedge, d, interior/Lie, bridges."""

import pytest

from extcalc import scalar as S
from extcalc.errors import DegreeError, DimensionMismatch
from extcalc.forms import (
    DifferentialForm,
    VectorFieldSym,
    angular_form,
    canonicalize_index,
    curl,
    divergence,
    flux_form,
    gradient,
    interior_product,
    lie_derivative,
    solid_angle_form,
    work_form,
)
from extcalc.parsing import parse_form

from helpers import count_differentiate, make_rng, rand_form, rand_poly

x, y, z = S.variable(0), S.variable(1), S.variable(2)
DF = DifferentialForm


class TestCanonicalize:
    def test_swap(self):
        assert canonicalize_index((2, 1)) == (-1, (1, 2))

    def test_repeat_kills(self):
        assert canonicalize_index((1, 2, 1)) == (0, ())

    def test_sorted_passthrough(self):
        assert canonicalize_index((1, 2, 3)) == (1, (1, 2, 3))

    def test_parity_matches_permutation_count(self):
        rng = make_rng(5)
        for _ in range(50):
            k = rng.randint(1, 5)
            perm = rng.sample(range(k), k)
            sign, idx = canonicalize_index(perm)
            inversions = sum(
                1
                for i in range(k)
                for j in range(i + 1, k)
                if perm[i] > perm[j]
            )
            assert idx == tuple(range(k))
            assert sign == (-1) ** inversions


class TestWedge:
    def test_single_terms(self):
        a = DF(2, 1, {(0,): x})
        b = DF(2, 1, {(1,): y})
        assert a.wedge(b) == DF(2, 2, {(0, 1): x * y})

    def test_dx_dx_zero(self):
        dx = DF.basis(2, 0)
        assert dx.wedge(dx).is_zero()

    def test_graded_commutativity_1_2(self):
        rng = make_rng(31)
        for _ in range(20):
            a = rand_form(rng, 4, 1)
            b = rand_form(rng, 4, 2)
            assert (b.wedge(a) - a.wedge(b) * ((-1) ** (1 * 2))).is_zero()

    def test_zero_form_is_scalar_multiplication(self):
        f = DF.from_scalar(2, x + 1)
        a = DF(2, 1, {(1,): y})
        assert f.wedge(a) == a * (x + 1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            DF.basis(2, 0).wedge(DF.basis(3, 0))


class TestExteriorDerivative:
    def test_worked_example(self):
        a = DF(2, 1, {(0,): x * y, (1,): S.exp(x)})
        assert a.d() == DF(2, 2, {(0, 1): S.exp(x) - x})
        assert str(a.d()) == "(exp(x) - x)*dx/\\dy"

    def test_constant_coefficients(self):
        a = DF(3, 2, {(0, 2): S.constant(7)})
        assert a.d().is_zero()

    def test_angular_form_closed(self):
        assert angular_form().is_closed()

    def test_solid_angle_form_closed(self):
        assert solid_angle_form().is_closed()

    def test_x_dy_not_closed(self):
        assert not DF(2, 1, {(1,): x}).is_closed()

    def test_top_forms_closed(self):
        rng = make_rng(77)
        for n in (1, 2, 3, 4):
            a = rand_form(rng, n, n)
            assert a.is_closed()

    def test_only_free_axes_are_differentiated(self, monkeypatch):
        # every coefficient depends only on axes already in its index
        calls = count_differentiate(monkeypatch)
        a = parse_form("x*y*dx/\\dy + z*dz/\\dx", 3)
        assert a.d().is_zero()
        assert calls == []


class TestInteriorProduct:
    def test_volume_contraction_is_flux_form(self):
        v = VectorFieldSym(3, [x, y * y, S.exp(z)])
        vol = DF.basis(3, 0, 1, 2)
        assert interior_product(v, vol) == flux_form(v)

    def test_basis_pairing(self):
        e1 = VectorFieldSym(2, [S.constant(1), S.constant(0)])
        assert interior_product(e1, DF.basis(2, 0)) == DF.from_scalar(2, 1)

    def test_double_contraction_vanishes(self):
        rng = make_rng(41)
        for _ in range(15):
            v = VectorFieldSym(4, [rand_poly(rng, 4, 2) for _ in range(4)])
            a = rand_form(rng, 4, 3)
            assert interior_product(v, interior_product(v, a)).is_zero()

    def test_antisymmetry(self):
        rng = make_rng(43)
        for _ in range(15):
            v = VectorFieldSym(4, [rand_poly(rng, 4, 1) for _ in range(4)])
            w = VectorFieldSym(4, [rand_poly(rng, 4, 1) for _ in range(4)])
            a = rand_form(rng, 4, rng.randint(2, 4))
            lhs = interior_product(v, interior_product(w, a))
            rhs = interior_product(w, interior_product(v, a))
            assert (lhs + rhs).is_zero()

    def test_degree_zero_rejected(self):
        v = VectorFieldSym(2, [x, y])
        with pytest.raises(DegreeError):
            interior_product(v, DF.from_scalar(2, x))


class TestLieDerivative:
    def test_constant_field_is_componentwise_derivative(self):
        rng = make_rng(53)
        for _ in range(20):
            n = rng.randint(2, 4)
            i = rng.randrange(n)
            comps = [S.constant(1 if j == i else 0) for j in range(n)]
            v = VectorFieldSym(n, comps)
            a = rand_form(rng, n, rng.randint(0, n - 1))
            expected = DF(
                n, a.k, {idx: c.differentiate(i) for idx, c in a.terms.items()}
            )
            assert lie_derivative(v, a) == expected

    def test_closed_form_constant_field(self):
        v = VectorFieldSym(2, [S.constant(1), S.constant(2)])
        a = DF(2, 1, {(0,): y, (1,): x})  # closed
        assert lie_derivative(v, a) == interior_product(v, a).d()

    def test_general_field_on_dx(self):
        v = VectorFieldSym(2, [rand_poly(make_rng(3), 2, 2), S.constant(0)])
        a = DF.basis(2, 0)
        v1 = v.components[0]
        expected = DF(2, 1, {(0,): v1.differentiate(0), (1,): v1.differentiate(1)})
        assert lie_derivative(v, a) == expected


class TestVectorCalculusBridge:
    def test_gradient(self):
        f = x * x * y + z
        assert work_form(gradient(f, 3)) == DF.from_scalar(3, f).d()

    def test_curl(self):
        v = VectorFieldSym(3, [y * z, -x, x * x])
        assert work_form(v).d() == flux_form(curl(v))

    def test_divergence(self):
        rng = make_rng(61)
        for _ in range(10):
            v = VectorFieldSym(3, [rand_poly(rng, 3, 2) for _ in range(3)])
            assert flux_form(v).d() == DF(3, 3, {(0, 1, 2): divergence(v)})

    def test_identities_on_random_fields(self):
        rng = make_rng(67)
        for _ in range(10):
            f = rand_poly(rng, 3, 3)
            assert work_form(gradient(f, 3)) == DF.from_scalar(3, f).d()
            v = VectorFieldSym(3, [rand_poly(rng, 3, 2) for _ in range(3)])
            assert work_form(v).d() == flux_form(curl(v))


class TestAlgebraProperties:
    def test_d_squared_zero(self):
        rng = make_rng(71)
        for _ in range(100):
            n = rng.randint(1, 5)
            k = rng.randint(0, n)
            a = rand_form(rng, n, k, degree=3)
            assert a.d().d().is_zero()

    def test_graded_leibniz(self):
        rng = make_rng(73)
        for _ in range(40):
            n = rng.randint(2, 4)
            ka = rng.randint(0, 2)
            kb = rng.randint(0, 2)
            a = rand_form(rng, n, min(ka, n), degree=2)
            b = rand_form(rng, n, min(kb, n), degree=2)
            lhs = a.wedge(b).d()
            rhs = a.d().wedge(b) + a.wedge(b.d()) * ((-1) ** a.k)
            assert (lhs - rhs).is_zero()

    def test_graded_commutativity(self):
        rng = make_rng(79)
        for _ in range(40):
            n = rng.randint(2, 4)
            ka, kb = rng.randint(0, n), rng.randint(0, n)
            a = rand_form(rng, n, ka)
            b = rand_form(rng, n, kb)
            assert (b.wedge(a) - a.wedge(b) * ((-1) ** (ka * kb))).is_zero()

    def test_wedge_associativity(self):
        rng = make_rng(83)
        for _ in range(30):
            n = rng.randint(2, 4)
            forms = [rand_form(rng, n, rng.randint(0, 2)) for _ in range(3)]
            a, b, c = forms
            assert (a.wedge(b).wedge(c) - a.wedge(b.wedge(c))).is_zero()


class TestStructure:
    def test_zero_form_any_degree(self):
        f = DF.zero(2, 5)
        assert f.k == 5 and f.is_zero()

    def test_nonzero_above_dimension_rejected(self):
        # any concrete index above the dimension fails one constraint or the other
        with pytest.raises((DegreeError, DimensionMismatch)):
            DF(2, 3, {(0, 1, 2): S.constant(1)})

    def test_zero_coefficients_dropped(self):
        a = DF(2, 1, {(0,): x - x, (1,): y})
        assert a.terms == {(1,): y}

    def test_coefficient_lookup_with_sign(self):
        a = DF(3, 2, {(0, 1): x})
        assert a.coefficient((1, 0)) == -x
        assert a.coefficient((2, 1)).is_zero()

    def test_form_literal_parsing(self):
        a = parse_form("(x*y)*dx + exp(x)*dy", 2)
        assert a == DF(2, 1, {(0,): x * y, (1,): S.exp(x)})
        b = parse_form("x*dy/\\dz", 3)
        assert b == DF(3, 2, {(1, 2): x})
        c = parse_form("(x*dy - y*dx)/(x^2 + y^2)", 2)
        assert c == angular_form()

    def test_form_print_parse_round_trip(self):
        rng = make_rng(89)
        for _ in range(30):
            n = rng.randint(1, 4)
            k = rng.randint(0, n)
            a = rand_form(rng, n, k)
            assert parse_form(str(a), n) == a
        assert parse_form(str(angular_form()), 2) == angular_form()
        assert parse_form(str(solid_angle_form()), 3) == solid_angle_form()
