"""Cochain complexes: differentials, wedge algebra, cohomology, cup."""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from solvhull.cochain import (
    CohomologyClass,
    ExteriorForm,
    betti_numbers,
    ce_complex,
    cohomology,
    cup,
    wedge,
)
from solvhull.errors import StructureError
from solvhull.fixtures import fixture
from solvhull.iodoc import algebra_of, omega_of
from solvhull.lie import LieAlgebra

from conftest import almost_abelian_algebra


def random_form(rng, dim, degree, span=2):
    terms = {}
    for idx in combinations(range(dim), degree):
        c = rng.randint(-span, span)
        if c:
            terms[idx] = F(c)
    return ExteriorForm.make(degree, terms)


class TestWedge:
    def test_square_of_one_form_vanishes(self):
        x = ExteriorForm.monomial((0,))
        assert wedge(x, x).is_zero()

    def test_basic_product(self):
        w = wedge(ExteriorForm.monomial((0,)), ExteriorForm.monomial((1,)))
        assert w == ExteriorForm.monomial((0, 1))

    def test_sorting_sign(self):
        # (x1^y) (x2^x3) with y behind the x's: two transpositions, sign +
        a = ExteriorForm.monomial((0, 4))
        b = ExteriorForm.monomial((1, 2))
        assert wedge(a, b) == ExteriorForm.monomial((0, 1, 2, 4))
        c = ExteriorForm.monomial((2, 3))
        d = ExteriorForm.monomial((0, 1))
        assert wedge(c, d) == ExteriorForm.monomial((0, 1, 2, 3))

    def test_graded_commutativity_random(self):
        rng = random.Random(31)
        for _ in range(25):
            p = rng.randint(1, 3)
            q = rng.randint(1, 3)
            a = random_form(rng, 5, p)
            b = random_form(rng, 5, q)
            sign = (-1) ** (p * q)
            assert wedge(a, b) == wedge(b, a).scale(sign)

    def test_bilinear(self):
        rng = random.Random(32)
        for _ in range(10):
            a = random_form(rng, 4, 1)
            b = random_form(rng, 4, 1)
            c = random_form(rng, 4, 2)
            lhs = wedge(a + b, c)
            assert lhs == wedge(a, c) + wedge(b, c)

    def test_overflow_degree_zero(self):
        a = ExteriorForm.monomial((0, 1))
        b = ExteriorForm.monomial((0, 2))
        assert wedge(a, b).is_zero()


class TestCEComplex:
    def test_heisenberg_differentials(self, heisenberg):
        cx = ce_complex(heisenberg)
        assert cx.d_form(ExteriorForm.monomial((0,))).is_zero()
        assert cx.d_form(ExteriorForm.monomial((1,))).is_zero()
        assert cx.d_form(ExteriorForm.monomial((2,))) == ExteriorForm.monomial((0, 1), -1)

    def test_almost_abelian_printed_differentials(self):
        g = almost_abelian_algebra(1, 1, a=["2"], b=["3"])
        cx = ce_complex(g)
        tau, x, y, z, w, sigma = range(6)
        assert cx.d_form(ExteriorForm.monomial((tau,))).is_zero()
        assert cx.d_form(ExteriorForm.monomial((sigma,))).is_zero()
        assert cx.d_form(ExteriorForm.monomial((x,))) == ExteriorForm.make(
            2, {(tau, x): F(-2)})
        assert cx.d_form(ExteriorForm.monomial((y,))) == ExteriorForm.make(
            2, {(tau, y): F(2)})
        assert cx.d_form(ExteriorForm.monomial((z,))) == ExteriorForm.make(
            2, {(tau, w): F(3)})
        assert cx.d_form(ExteriorForm.monomial((w,))) == ExteriorForm.make(
            2, {(tau, z): F(-3)})

    def test_complex_sol_printed_differentials(self):
        g = algebra_of(fixture("complex_sol"))
        cx = ce_complex(g)
        x1, x2, y1, y2, z1, z2 = range(6)
        assert cx.d_form(ExteriorForm.monomial((y1,))) == ExteriorForm.make(
            2, {(x1, y1): F(-1), (x2, y2): F(1)})
        assert cx.d_form(ExteriorForm.monomial((y2,))) == ExteriorForm.make(
            2, {(x2, y1): F(-1), (x1, y2): F(-1)})
        assert cx.d_form(ExteriorForm.monomial((z1,))) == ExteriorForm.make(
            2, {(x1, z1): F(1), (x2, z2): F(-1)})
        assert cx.d_form(ExteriorForm.monomial((z2,))) == ExteriorForm.make(
            2, {(x1, z2): F(1), (x2, z1): F(1)})

    def test_d_squared_zero_all_fixtures(self):
        for name in ("heisenberg", "sol", "rotation", "filiform4",
                     "kodaira_thurston", "complex_sol"):
            g = algebra_of(fixture(name))
            cx = ce_complex(g)
            for kk in range(g.dim):
                assert (cx.dmat(kk + 1) @ cx.dmat(kk)).is_zero()

    def test_jacobi_failure_aborts_with_form_name(self):
        c = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
        c[0][1][2], c[1][0][2] = F(1), F(-1)   # [e1,e2] = e3
        c[0][2][0], c[2][0][0] = F(1), F(-1)   # [e1,e3] = e1: breaks Jacobi
        bad = LieAlgebra(3, ("e1", "e2", "e3"),
                         tuple(tuple(tuple(v) for v in row) for row in c))
        with pytest.raises(StructureError, match="^d o d is nonzero on e3; the bracket violates "
                                                 "the Jacobi identity$"):
            ce_complex(bad)

    def test_leibniz_random(self, heisenberg, sol):
        rng = random.Random(33)
        for g in (heisenberg, sol, almost_abelian_algebra(1, 0)):
            cx = ce_complex(g)
            for _ in range(15):
                p = rng.randint(1, g.dim - 1)
                q = rng.randint(1, g.dim - p)
                a = random_form(rng, g.dim, p)
                b = random_form(rng, g.dim, q)
                lhs = cx.d_form(wedge(a, b))
                rhs = wedge(cx.d_form(a), b) + wedge(a, cx.d_form(b)).scale((-1) ** p)
                assert lhs == rhs


class TestCohomology:
    def test_heisenberg_betti(self, heisenberg):
        assert betti_numbers(ce_complex(heisenberg)) == (1, 2, 2, 1)

    def test_abelian_binomials(self):
        g = algebra_of(fixture("abelian", {"n": 4}))
        assert betti_numbers(ce_complex(g)) == (1, 4, 6, 4, 1)

    def test_sol_betti(self, sol):
        assert betti_numbers(ce_complex(sol)) == (1, 1, 1, 1)

    def test_euler_characteristic_vanishes(self):
        for name in ("heisenberg", "sol", "filiform4", "kodaira_thurston", "complex_sol"):
            g = algebra_of(fixture(name))
            bb = betti_numbers(ce_complex(g))
            assert sum((-1) ** i * b for i, b in enumerate(bb)) == 0

    def test_representatives_closed_and_independent(self, filiform4):
        cx = ce_complex(filiform4)
        for k in range(5):
            basis = cohomology(cx, k)
            for rep in basis.reps:
                assert all(x == 0 for x in cx.dmat(k).apply(rep))

    def test_express_round_trip(self, heisenberg):
        cx = ce_complex(heisenberg)
        h2 = cohomology(cx, 2)
        # e1^e2 is exact: class 0 with primitive -e3
        v = cx.coords(ExteriorForm.monomial((0, 1)))
        coeffs, eta = h2.express(v)
        assert all(c == 0 for c in coeffs)
        assert cx.dmat(1).apply(eta) == v
        assert cx.form(1, eta) == ExteriorForm.monomial((2,), -1)


class TestCup:
    def test_product_of_degree_one_classes_heisenberg(self, heisenberg):
        cx = ce_complex(heisenberg)
        a = CohomologyClass(cx, 1, (F(1), F(0)))
        b = CohomologyClass(cx, 1, (F(0), F(1)))
        assert cup(cx, a, b).is_zero()

    def test_unit_acts_trivially(self, sol):
        cx = ce_complex(sol)
        unit = CohomologyClass(cx, 0, (F(1),))
        for k in range(4):
            hk = cohomology(cx, k)
            for i in range(hk.betti):
                coeffs = tuple(F(1) if j == i else F(0) for j in range(hk.betti))
                cls = CohomologyClass(cx, k, coeffs)
                assert cup(cx, unit, cls).coeffs == coeffs

    def test_top_class_product(self):
        # on the twisted model: [x1^y] . [x2^x3] is the nonzero top class
        from solvhull.formality import invariant_subcomplex
        from solvhull.iodoc import hull_data_of

        doc = fixture("twisted_kodaira_thurston")
        ic = invariant_subcomplex(hull_data_of(doc))
        h2 = cohomology(ic, 2)
        x1y = ic.restrict_form(ExteriorForm.monomial((0, 3)))
        x2x3 = ic.restrict_form(ExteriorForm.monomial((1, 2)))
        a = h2.class_of(x1y)
        b = h2.class_of(x2x3)
        prod = cup(ic, a, b)
        assert not prod.is_zero()
        assert prod.representative_form() == ExteriorForm.monomial((0, 1, 2, 3))

    def test_representative_independence(self, heisenberg):
        rng = random.Random(34)
        cx = ce_complex(heisenberg)
        h1 = cohomology(cx, 1)
        h2 = cohomology(cx, 2)
        a = CohomologyClass(cx, 1, (F(1), F(2)))
        b = CohomologyClass(cx, 2, (F(1), F(-1)))
        base = cup(cx, a, b)
        for _ in range(10):
            eta_a = random_form(rng, 3, 0)
            eta_b = random_form(rng, 3, 1)
            pert_a = cx.coords(cx.form(1, a.representative()) + cx.d_form(eta_a))
            pert_b = cx.coords(cx.form(2, b.representative()) + cx.d_form(eta_b))
            prod = cx.wedge_coords(1, pert_a, 2, pert_b)
            coeffs, _ = cohomology(cx, 3).express(prod)
            assert coeffs == base.coeffs

    def test_wedge_power_of_symplectic_form(self):
        doc = fixture("almost_abelian")
        om = omega_of(doc)
        top = wedge(wedge(om, om), om)
        assert top == ExteriorForm.monomial((0, 1, 2, 3, 4, 5), 6)
