"""Cech cohomology of nerves, the Mayer-Vietoris solver, known values."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from extcalc.cohomology import (
    CircleGenerator,
    ExactSequenceProblem,
    Nerve,
    cech_betti,
    cech_complex,
    circle_connecting_generator,
    compact_support_euclidean_betti,
    cycle_nerve,
    klein_nerve,
    known_cohomology_tables,
    mv_solve,
    point_nerve,
    poincare_duality_check,
    rank_exact,
    sphere_betti,
    sphere_nerve,
    sphere_sequence_problem,
    torus_nerve,
    two_points_nerve,
)
from extcalc.errors import InconsistentSequenceError, ParseError

from helpers import ELEVEN_VERTEX_SIMPLICES


class TestRankExact:
    def test_small_matrices(self):
        assert rank_exact([[1, 2], [2, 4]]) == 1
        assert rank_exact([[1, 0], [0, 1]]) == 2
        assert rank_exact([[0, 0], [0, 0]]) == 0
        assert rank_exact([[Fraction(1, 2), 1], [1, 2]]) == 1

    def test_no_float_wobble(self):
        # a matrix whose float rank is ambiguous: exact arithmetic says 2
        big = 10**20
        rows = [[big, 1, 0], [0, big, 1]]
        assert rank_exact(rows) == 2

    def test_row_with_a_zero_pivot_entry_under_a_non_unit_pivot(self):
        # the last row is the first plus 8 times the second; an elimination
        # that skips the second row under the pivot 5 (its entry there is 0)
        # but later divides it by 5 gave rank 4
        rows = [[5, 8, -16, -4, 0], [0, 0, 2, -1, -4], [-1, 0, 1, 3, -1], [5, 8, 0, -12, -32]]
        assert rank_exact(rows) == 3


class TestCech:
    def test_point(self):
        assert cech_betti(point_nerve()) == [1]

    def test_two_points(self):
        assert cech_betti(two_points_nerve()) == [2]

    def test_circle_two_arc_pipeline(self):
        # the two-arc cover realized as a 4-vertex cycle to stay simplicial
        assert cech_betti(cycle_nerve(4)) == [1, 1]

    def test_larger_cycles(self):
        assert cech_betti(cycle_nerve(60)) == [1, 1]

    def test_spheres(self):
        assert cech_betti(sphere_nerve(2)) == [1, 0, 1]
        assert cech_betti(sphere_nerve(3)) == [1, 0, 0, 1]

    def test_torus(self):
        assert cech_betti(torus_nerve()) == [1, 2, 1]

    def test_klein_bottle(self):
        betti = cech_betti(klein_nerve())
        assert betti == [1, 1, 0]
        assert betti[1] == 1  # H^1 over the rationals
        assert betti[2] == 0  # matches the non-orientable top-degree theorem

    def test_eleven_vertex_nerve(self):
        assert cech_betti(Nerve(11, ELEVEN_VERTEX_SIMPLICES)) == [1, 0, 2, 0]

    def test_coboundary_squares_to_zero(self):
        nerves = [cycle_nerve(5), torus_nerve(), klein_nerve()]
        nerves += [sphere_nerve(n) for n in range(2, 6)]
        for nerve in nerves:
            deltas = cech_complex(nerve).deltas
            for later, earlier in zip(deltas[1:], deltas):
                for row in later:
                    total = {}
                    for i, a in row.items():
                        for j, b in earlier[i].items():
                            total[j] = total.get(j, 0) + a * b
                    assert not any(total.values())

    def test_euler_characteristic_consistency(self):
        for nerve in (
            point_nerve(),
            cycle_nerve(4),
            sphere_nerve(2),
            sphere_nerve(3),
            torus_nerve(),
            klein_nerve(),
        ):
            betti = cech_betti(nerve)
            alt_sum = sum((-1) ** k * b for k, b in enumerate(betti))
            assert alt_sum == nerve.euler_characteristic()

    def test_grid_nerves_are_pseudomanifolds(self):
        for nerve in (torus_nerve(), klein_nerve()):
            triangles = nerve.simplices_of_dimension(2)
            edge_count = {}
            for tri in triangles:
                for e in itertools.combinations(tri, 2):
                    edge_count[e] = edge_count.get(e, 0) + 1
            assert set(edge_count.values()) == {2}
            assert len(nerve.simplices_of_dimension(1)) == len(edge_count)

    def test_downward_closure_completed(self):
        nerve = Nerve(3, [(0, 1, 2)])
        assert frozenset((0, 1)) in nerve.simplices
        assert frozenset((2,)) in nerve.simplices

    def test_nerve_error_texts(self):
        for make, message in (
            (lambda: Nerve(0, []), "a nerve needs at least one vertex"),
            (lambda: Nerve(2, [[0, 1], [0, -1]]), "simplex [-1, 0] mentions a missing vertex"),
            (lambda: Nerve(2, [[2, 0, 2]]), "simplex [0, 2] mentions a missing vertex"),
            (lambda: Nerve.from_json({"vertices": 2, "simplices": [[0, True]]}),
             "nerve vertex count and simplex vertices must be integers"),
        ):
            with pytest.raises(ParseError) as err:
                make()
            assert str(err.value) == message

    def test_desk_scale_termination(self):
        nerve = torus_nerve()
        assert len(nerve.simplices) <= 200
        assert cech_betti(nerve) == [1, 2, 1]


class TestMVSolve:
    def test_circle_sequence(self):
        problem = ExactSequenceProblem([0, 1, 2, 2, None, 0])
        solution = mv_solve(problem)
        assert solution.determined
        assert solution.dims == [0, 1, 2, 2, 1, 0]

    def test_torus_underdetermined(self):
        problem = ExactSequenceProblem([0, 1, 2, 2, None, 2, 2, None, 0, 0, 0])
        solution = mv_solve(problem)
        assert not solution.determined
        assert solution.unknown_slots == [4, 7]

    def test_torus_with_first_connecting_rank(self):
        ranks = [None] * 10
        ranks[5] = 1  # restriction H^1(U)+H^1(V) -> H^1(overlap) has rank 1
        problem = ExactSequenceProblem(
            [0, 1, 2, 2, None, 2, 2, None, 0, 0, 0], ranks
        )
        solution = mv_solve(problem)
        assert solution.determined
        assert solution.dims[4] == 2  # H^1 of the torus
        assert solution.dims[7] == 1  # H^2 of the torus

    def test_klein_with_rank_two(self):
        ranks = [None] * 10
        ranks[5] = 2
        problem = ExactSequenceProblem(
            [0, 1, 2, 2, None, 2, 2, None, 0, 0, 0], ranks
        )
        solution = mv_solve(problem)
        assert solution.determined
        assert solution.dims[4] == 1  # H^1(K)
        assert solution.dims[7] == 0  # H^2(K) = 0: not orientable

    def test_inconsistent_data(self):
        with pytest.raises(InconsistentSequenceError):
            mv_solve(ExactSequenceProblem([0, 2, 1, None, 0]))

    # one problem per raise site: (dims, ranks, message)
    RAISES = [
        ([0, None, None, 0], [None, -1, None], "slot 1 would need dimension -1"),
        ([0, 5, 2, None, 0], None, "map 2 would need rank -3"),
        # a derived dimension meets a given one only in the exactness check
        ([0, 2, 3, 0], None, "exactness fails at slot 2"),
        ([0, 0, 1, 0], [None, 3, None], "map 1: rank 3 conflicts with derived value 0"),
        ([0, 1, None, 0], [None, 2, None], "map 1 rank exceeds source dimension"),
        ([0, None, 1, 0], [None, 2, None], "map 1 rank exceeds target dimension"),
        ([0, 2, 1, 0], [0, 1, 0], "exactness fails at slot 1"),
    ]

    @pytest.mark.parametrize("dims, ranks, message", RAISES)
    def test_each_raise_site(self, dims, ranks, message):
        with pytest.raises(InconsistentSequenceError) as err:
            mv_solve(ExactSequenceProblem(dims, ranks))
        assert str(err.value) == message

    def test_filled_values_equal_the_hidden_ones(self):
        rng = random.Random(2026)
        for _ in range(500):
            m = rng.randint(2, 9)
            ranks = [rng.randint(0, 4) for _ in range(m - 1)]
            ranks[0] = ranks[-1] = 0
            dims = [0] + [ranks[i - 1] + ranks[i] for i in range(1, m - 1)] + [0]
            hide = lambda values: [None if rng.random() < 0.5 else v for v in values]  # noqa: E731
            solution = mv_solve(ExactSequenceProblem(hide(dims), hide(ranks)))
            for got, hidden in zip(solution.dims + solution.ranks, dims + ranks):
                assert got in (None, hidden)
            assert solution.determined == (None not in solution.dims)
            assert solution.unknown_slots == [i for i, d in enumerate(solution.dims) if d is None]

    def test_alternating_sum_vanishes(self):
        problem = ExactSequenceProblem([0, 1, 2, 2, None, 0])
        solution = mv_solve(problem)
        assert sum((-1) ** i * d for i, d in enumerate(solution.dims)) == 0

    def test_json_round_trip(self):
        data = {
            "slots": [{"dim": 0}, {"dim": 1}, {"dim": 2}, {"dim": 2}, {}, {"dim": 0}],
            "maps": [{}, {}, {}, {}, {}],
        }
        problem = ExactSequenceProblem.from_json(data)
        assert mv_solve(problem).dims[4] == 1


class TestSphereRecursion:
    def test_betti_tables(self):
        assert sphere_betti(1) == [1, 1]
        assert sphere_betti(2) == [1, 0, 1]
        assert sphere_betti(5) == [1, 0, 0, 0, 0, 1]
        for n in range(1, 6):
            expect = [1] + [0] * (n - 1) + [1]
            assert sphere_betti(n) == expect

    def test_pipeline_from_cech_covers(self):
        # U, V contractible caps; overlap has the homotopy type of S^{n-1}
        overlap_nerves = {1: two_points_nerve(), 2: cycle_nerve(4), 3: sphere_nerve(2)}
        for n in range(1, 4):
            assert cech_betti(point_nerve()) == [1]
            overlap = cech_betti(overlap_nerves[n])
            solution = mv_solve(sphere_sequence_problem(n, overlap))
            assert solution.determined
            betti = [1] + [solution.dims[1 + 3 * k + 3] for k in range(n)]
            assert betti == sphere_betti(n)


class TestConnectingGenerator:
    def test_integral_one(self):
        gen = circle_connecting_generator((1, 0))
        assert abs(gen.integral - 1.0) <= 1e-8

    def test_support_inside_positive_x_overlap(self):
        gen = circle_connecting_generator((1, 0))
        lo, hi = gen.support_positive_x
        assert -math.pi / 6 < lo < hi < math.pi / 6
        # C^1 spline: the coefficient vanishes at the edges of the band
        assert abs(gen.coefficient.evaluate([lo])) <= 1e-12
        assert abs(gen.coefficient.evaluate([hi])) <= 1e-12

    def test_image_class_maps_to_zero(self):
        gen = circle_connecting_generator((1, 1))
        assert abs(gen.integral) <= 1e-8

    def test_notes_mention_spline(self):
        gen = circle_connecting_generator()
        assert isinstance(gen, CircleGenerator)
        assert "smoothstep" in gen.notes


class TestKnownValues:
    def test_compact_support_table(self):
        assert compact_support_euclidean_betti(2) == [0, 0, 1]
        tables = known_cohomology_tables()
        assert tables["compact_support_euclidean"][2][2] == 1
        assert tables["top_compact_connected_orientable"] == 1
        assert tables["H0_connected"] == 1
        assert tables["top_compact_connected_nonorientable"] == 0

    def test_duality_palindrome(self):
        assert poincare_duality_check([1, 2, 1])
        assert poincare_duality_check([1, 0, 1])
        assert not poincare_duality_check([1, 1, 0])
        with pytest.raises(ParseError):
            poincare_duality_check([1, 1, 0], orientable=False)

    def test_duality_for_spheres_and_torus(self):
        for n in range(1, 6):
            assert poincare_duality_check(sphere_betti(n))
        assert poincare_duality_check(cech_betti(torus_nerve()))
