"""Smooth maps, Jacobians, pullbacks of forms, naturality."""

from itertools import combinations

import numpy as np
import pytest

from extcalc import scalar as S
from extcalc.errors import DimensionMismatch
from extcalc.forms import DifferentialForm
from extcalc.maps import SmoothMap, compose, freeze_axis, polar_map, pullback
from extcalc.parsing import parse_map
from extcalc.tensors import AltTensor, pullback_linear

from helpers import count_calls, make_rng, rand_elementary, rand_form, rand_map, rand_point

x, y, z = S.variable(0), S.variable(1), S.variable(2)
DF = DifferentialForm


class TestJacobian:
    def test_polar_determinant(self):
        g = polar_map()
        det = g.jacobian_determinant()
        assert det == S.variable(0)
        rng = make_rng(1)
        for _ in range(10):
            p = [rng.uniform(0.2, 2.0), rng.uniform(0, 6)]
            jac = np.array(g.jacobian_at(p))
            assert abs(np.linalg.det(jac) - p[0]) < 1e-12

    def test_identity(self):
        g = SmoothMap.identity(3)
        assert np.allclose(np.array(g.jacobian_at([0.3, -1.0, 2.0])), np.eye(3))

    def test_linear_map(self):
        a = [[1, 2], [3, 4], [5, 6]]
        g = SmoothMap.linear(a)
        for p in ([0.0, 0.0], [1.5, -2.0]):
            assert np.allclose(np.array(g.jacobian_at(p)), np.array(a, dtype=float))

    def test_second_derivative_columns_in_batch_order(self):
        g = SmoothMap(2, 3, [x * x * y, S.sin(x) * y, x + y * y * y])
        cols = [np.array([0.5, -1.0]), np.array([2.0, 0.25])]
        _, _, second = g.columns(cols, 2)
        assert second.shape == (3, 3, 2)
        for i, h in enumerate(g.hessian()):
            for r, (j, l) in enumerate(((0, 0), (0, 1), (1, 1))):
                f = h[j][l].compiled()
                assert np.allclose(second[i, r], [f(p) for p in zip(*cols)], rtol=1e-15, atol=0)

    def test_composition_jacobian_is_product(self):
        rng = make_rng(2)
        g = rand_map(rng, 2, 3)
        h = rand_map(rng, 3, 2)
        p = rand_point(rng, 2)
        comp = compose(h, g)
        lhs = np.array(comp.jacobian_at(p))
        rhs = np.array(h.jacobian_at(g(p))) @ np.array(g.jacobian_at(p))
        assert np.allclose(lhs, rhs)


class TestPullback:
    def test_polar_area_form(self):
        g = polar_map()
        result = pullback(g, DF.basis(2, 0, 1))
        assert result == DF(2, 2, {(0, 1): S.variable(0)})

    def test_volume_scales_by_jacobian_determinant(self):
        rng = make_rng(3)
        for _ in range(10):
            g = rand_map(rng, 3, 3)
            vol = DF.basis(3, 0, 1, 2)
            lhs = pullback(g, vol)
            rhs = vol * g.jacobian_determinant()
            assert (lhs - rhs).is_zero()

    def test_zero_form_is_composition(self):
        rng = make_rng(4)
        g = rand_map(rng, 2, 3)
        f = rand_form(rng, 3, 0)
        pulled = pullback(g, f)
        expected = f.terms[()].substitute(g.components)
        assert pulled == DF.from_scalar(2, expected)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pullback(polar_map(), DF.basis(3, 0))

    def test_reuses_the_cached_jacobian(self, monkeypatch):
        from extcalc.forms import sphere_area_form
        from extcalc.shapes import sphere_cell

        g = sphere_cell().mapping
        g.jacobian()
        calls = count_calls(monkeypatch, S.ScalarExpr, "differentiate")
        pulled = pullback(g, sphere_area_form())
        assert calls == []
        assert pulled == DF(2, 2, {(0, 1): S.sin(x)})

    def test_degree_above_domain_dimension(self):
        g = SmoothMap(1, 3, [x, x * x, x + 1])
        assert pullback(g, DF.basis(3, 0, 1)).is_zero()


    def test_equals_the_wedge_of_the_component_differentials(self, monkeypatch):
        # the oracle: g*(a dy_I) = (a o g) dg_i1 /\ ... /\ dg_ik with
        # dg_i = sum_j (dg_i/dx_j) dx_j, wedged and added term by term; the
        # maps of odd trials have elementary components
        rng = make_rng(21)
        wedges = count_calls(monkeypatch, DF, "wedge")
        for trial in range(40):
            n, m = rng.randint(1, 3), rng.randint(1, 4)
            if trial % 2:
                g = SmoothMap(n, m, [rand_elementary(rng, n) for _ in range(m)])
            else:
                g = rand_map(rng, n, m)
            k = rng.randint(0, min(n, m))
            pool = list(combinations(range(m), k))
            idxs = rng.sample(pool, min(len(pool), rng.randint(1, 2)))
            a = DF(m, k, {idx: rand_elementary(rng, m) for idx in idxs})
            dg = [DF(n, 1, {(j,): c.differentiate(j) for j in range(n)}) for c in g.components]
            want = DF.zero(n, k)
            for idx, c in a.terms.items():
                term = DF.from_scalar(n, c.substitute(g.components))
                for i in idx:
                    term = term.wedge(dg[i])
                want = want + term
            wedges.clear()
            got = pullback(g, a)
            assert wedges == []
            assert (got - want).is_zero()
            if trial % 2 == 0:
                # through a polynomial map, the same normal form term for term
                assert str(got) == str(want)

class TestCompose:
    def test_identity_neutral(self):
        rng = make_rng(5)
        g = rand_map(rng, 2, 3)
        assert compose(SmoothMap.identity(3), g).components == g.components
        assert compose(g, SmoothMap.identity(2)).components == g.components

    def test_radius_after_polar(self):
        g = polar_map()
        h = SmoothMap(2, 1, [S.sqrt(x * x + y * y)])
        # valid for r > 0; the formal square root of r^2 is r
        assert compose(h, g).components == (S.variable(0),)

    def test_linear_composition_is_matrix_product(self):
        a = [[1, 2], [3, 4]]
        b = [[0, 1], [1, 1], [2, -1]]
        lhs = compose(SmoothMap.linear(b), SmoothMap.linear(a))
        rhs = SmoothMap.linear((np.array(b) @ np.array(a)).tolist())
        assert lhs.components == rhs.components

    def test_freeze_axis(self):
        g = SmoothMap(2, 2, [x * y, x + y])
        frozen = freeze_axis(g, 0, 2)
        assert frozen.components == (2 * x, x + 2)


class TestNaturality:
    def test_pullback_of_composition(self):
        rng = make_rng(6)
        for _ in range(25):
            n, m, p = rng.randint(2, 3), rng.randint(2, 3), rng.randint(2, 3)
            g = rand_map(rng, n, m)
            h = rand_map(rng, m, p)
            a = rand_form(rng, p, rng.randint(0, min(2, p)))
            lhs = pullback(compose(h, g), a)
            rhs = pullback(g, pullback(h, a))
            assert (lhs - rhs).is_zero()

    def test_commutes_with_d(self):
        rng = make_rng(7)
        for _ in range(25):
            n, m = rng.randint(2, 3), rng.randint(2, 4)
            g = rand_map(rng, n, m)
            a = rand_form(rng, m, rng.randint(0, min(2, m - 1)))
            assert (pullback(g, a.d()) - pullback(g, a).d()).is_zero()

    def test_multiplicative(self):
        rng = make_rng(8)
        for _ in range(25):
            n, m = rng.randint(2, 3), rng.randint(2, 4)
            g = rand_map(rng, n, m)
            a = rand_form(rng, m, rng.randint(0, 2))
            b = rand_form(rng, m, rng.randint(0, 2))
            lhs = pullback(g, a.wedge(b))
            rhs = pullback(g, a).wedge(pullback(g, b))
            assert (lhs - rhs).is_zero()


class TestPointwiseTensorAgreement:
    def test_matches_linear_pullback_of_frozen_tensor(self):
        rng = make_rng(9)
        for _ in range(10):
            n, m = rng.randint(2, 3), rng.randint(2, 3)
            k = rng.randint(1, 2)
            g = rand_map(rng, n, m)
            a = rand_form(rng, m, min(k, m))
            p = rand_point(rng, n)
            pulled = pullback(g, a)
            lhs = AltTensor.from_form_at(pulled, p)
            jac = np.array(g.jacobian_at(p))
            rhs = pullback_linear(jac, AltTensor.from_form_at(a, g(p)))
            diff = lhs - rhs
            assert diff.norm() < 1e-10


class TestMapLiteral:
    def test_parse_polar(self):
        g = parse_map("map(r, theta) = r*cos(theta); r*sin(theta)")
        assert g.components == polar_map().components

    def test_unknown_parameter_rejected(self):
        from extcalc.errors import ParseError

        with pytest.raises(ParseError):
            parse_map("map(u) = u + v")
