"""Exact linear algebra and polynomial layer."""

import random
from fractions import Fraction as F

import pytest

from solvhull.linalg import (
    Interval,
    Mat,
    Poly,
    char_poly,
    eval_poly_at_matrix,
    is_semisimple_matrix,
    kernel_basis,
    poly_ext_gcd,
    poly_gcd,
    rank,
    solve,
    squarefree_part,
    sturm_real_roots_in,
)

from conftest import random_matrix, random_vector


class TestConstruction:
    @pytest.mark.parametrize("cols", [[(F(1),), (F(1), F(2))], [(F(1), F(2)), (F(1),)]],
                             ids=["long-last", "short-last"])
    def test_from_cols_rejects_ragged_columns(self, cols):
        with pytest.raises(ValueError, match="ragged columns"):
            Mat.from_cols(cols)

    def test_from_cols_rejects_wrong_row_count(self):
        with pytest.raises(ValueError, match="row count mismatch"):
            Mat.from_cols([(F(1), F(2))], rows=3)


class TestKernelRankSolve:
    def test_kernel_rank_one_projection(self):
        assert kernel_basis(Mat([[1, 0], [0, 0]])) == [(F(0), F(1))]

    def test_kernel_identity_trivial(self):
        assert kernel_basis(Mat.identity(3)) == []

    def test_kernel_proportional_rows(self):
        assert kernel_basis(Mat([[1, 2], [2, 4]])) == [(F(-2), F(1))]

    def test_kernel_zero_matrix_standard_basis(self):
        assert kernel_basis(Mat.zero(2, 3)) == [
            (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]

    def test_rank_examples(self):
        assert rank(Mat.zero(2, 2)) == 0
        assert rank(Mat.identity(4)) == 4
        assert rank(Mat([[1, 2], [2, 4]])) == 1

    def test_solve_identity(self):
        b = (F(3), F(-1))
        assert solve(Mat.identity(2), b) == b

    def test_solve_underdetermined_free_vars_zero(self):
        assert solve(Mat([[1, 1]]), (F(2),)) == (F(2), F(0))

    def test_solve_inconsistent_is_none(self):
        assert solve(Mat([[1], [1]]), (F(1), F(2))) is None

    def test_rank_nullity_random(self):
        rng = random.Random(7)
        for _ in range(30):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = Mat([[F(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)])
            assert rank(m) + len(kernel_basis(m)) == cols

    def test_solve_round_trip_random(self):
        rng = random.Random(8)
        for _ in range(30):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = Mat([[F(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)])
            x = random_vector(rng, cols)
            b = m.apply(x)
            got = solve(m, b)
            assert got is not None
            assert m.apply(got) == b

    def test_kernel_vectors_annihilated(self):
        rng = random.Random(9)
        for _ in range(20):
            m = random_matrix(rng, rng.randint(1, 5))
            for v in kernel_basis(m):
                assert all(x == 0 for x in m.apply(v))

    def test_deterministic_outputs(self):
        m = Mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert kernel_basis(m) == kernel_basis(m)
        assert char_poly(m) == char_poly(m)


class TestCharPoly:
    def test_diag(self):
        assert char_poly(Mat.diag([1, -1])) == Poly.of(-1, 0, 1)

    def test_rotation_generator(self):
        assert char_poly(Mat([[0, -1], [1, 0]])) == Poly.of(1, 0, 1)

    def test_strictly_upper(self):
        m = Mat([[0, 1, 5], [0, 0, 2], [0, 0, 0]])
        assert char_poly(m) == Poly.of(0, 0, 0, 1)

    def test_monic_and_degree(self):
        rng = random.Random(10)
        for _ in range(10):
            n = rng.randint(1, 6)
            p = char_poly(random_matrix(rng, n))
            assert p.degree() == n
            assert p.leading() == 1

    def test_cayley_hamilton_random(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 8)
            m = random_matrix(rng, n, span=2)
            assert eval_poly_at_matrix(char_poly(m), m).is_zero()


class TestPoly:
    def test_eval_at_matrix_identity_poly(self):
        m = Mat([[1, 2], [3, 4]])
        assert eval_poly_at_matrix(Poly.x(), m) == m

    def test_eval_rotation_annihilated(self):
        m = Mat([[0, -1], [1, 0]])
        assert eval_poly_at_matrix(Poly.of(1, 0, 1), m).is_zero()

    def test_divmod_exact(self):
        a = Poly.of(-1, 0, 1)  # t^2 - 1
        b = Poly.of(-1, 1)     # t - 1
        q, r = divmod(a, b)
        assert q == Poly.of(1, 1)
        assert r.is_zero()

    def test_ext_gcd_bezout(self):
        rng = random.Random(12)
        for _ in range(20):
            a = Poly.of(*[rng.randint(-3, 3) for _ in range(rng.randint(1, 5))])
            b = Poly.of(*[rng.randint(-3, 3) for _ in range(rng.randint(1, 5))])
            if a.is_zero() and b.is_zero():
                continue
            g, u, v = poly_ext_gcd(a, b)
            assert u * a + v * b == g
            if not g.is_zero():
                assert g.leading() == 1

    def test_squarefree_double_root(self):
        assert squarefree_part(Poly.of(1, -2, 1)) == Poly.of(-1, 1)

    def test_squarefree_already_squarefree(self):
        assert squarefree_part(Poly.of(1, 0, 1)) == Poly.of(1, 0, 1)

    def test_squarefree_mixed(self):
        # t^3 (t^2 - 1) -> t (t^2 - 1) = t^3 - t
        p = Poly.of(0, 0, 0, -1, 0, 1)
        assert squarefree_part(p) == Poly.of(0, -1, 0, 1)

    def test_squarefree_rejects_zero(self):
        with pytest.raises(ValueError):
            squarefree_part(Poly.zero())

    def test_squarefree_divides_and_coprime_derivative(self):
        rng = random.Random(13)
        for _ in range(20):
            coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(2, 6))]
            p = Poly.of(*coeffs)
            if p.is_zero():
                continue
            s = squarefree_part(p)
            assert (p % s).is_zero()
            assert poly_gcd(s, s.derivative()).degree() == 0


class TestSturm:
    def test_unit_interval_examples(self):
        assert sturm_real_roots_in(Poly.of(-1, 0, 1), Interval.at_most(0)) == 1
        assert sturm_real_roots_in(Poly.of(1, 0, 1), Interval.whole_line()) == 0

    def test_three_roots_split(self):
        # t (t + 2) (t - 3): roots -2, 0, 3
        p = Poly.of(0, 1) * Poly.of(2, 1) * Poly.of(-3, 1)
        assert sturm_real_roots_in(p, Interval.at_most(0)) == 2
        assert sturm_real_roots_in(p, Interval.at_least(0)) == 2
        assert sturm_real_roots_in(p, Interval.whole_line()) == 3
        assert sturm_real_roots_in(p, Interval.closed(-2, 3)) == 3
        assert sturm_real_roots_in(p, Interval.closed(-1, 1)) == 1

    def test_endpoint_roots_counted_closed(self):
        p = Poly.of(-1, 0, 1)  # roots -1, 1
        assert sturm_real_roots_in(p, Interval.closed(-1, 1)) == 2
        assert sturm_real_roots_in(p, Interval.closed(-1, 0)) == 1
        assert sturm_real_roots_in(p, Interval.closed(1, 5)) == 1

    def test_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            sturm_real_roots_in(Poly.of(1, -2, 1), Interval.whole_line())

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            sturm_real_roots_in(Poly.zero(), Interval.whole_line())

    def test_random_integer_root_products(self):
        rng = random.Random(14)
        for _ in range(20):
            roots = sorted(rng.sample(range(-6, 7), rng.randint(1, 4)))
            p = Poly.one()
            for r in roots:
                p = p * Poly.of(-r, 1)
            lo, hi = F(rng.randint(-8, 0)), F(rng.randint(0, 8))
            expected = sum(1 for r in roots if lo <= r <= hi)
            assert sturm_real_roots_in(p, Interval(lo, hi)) == expected


class TestSemisimpleDetection:
    def test_diagonalizable(self):
        assert is_semisimple_matrix(Mat.diag([2, 2, -1]))
        assert is_semisimple_matrix(Mat([[0, -1], [1, 0]]))

    def test_jordan_block_not_semisimple(self):
        assert not is_semisimple_matrix(Mat([[1, 1], [0, 1]]))
