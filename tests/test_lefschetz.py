"""Symplectic verification, hard Lefschetz, Poincare pairing."""

from fractions import Fraction as F

import pytest

from solvhull import lefschetz
from solvhull.cochain import CohomologyBasis, ExteriorForm, ce_complex, cohomology, wedge
from solvhull.errors import InternalCheckError, PreconditionError
from solvhull.fixtures import fixture
from solvhull.formality import InvariantComplex, invariant_subcomplex
from solvhull.hull import build_splittable_hull, hull_action_data
from solvhull.iodoc import algebra_of, hull_data_of, omega_of
from solvhull.lefschetz import (
    DegreeLefschetz,
    LefschetzReport,
    SymplecticCheck,
    hard_lefschetz,
    poincare_pairing,
    verify_symplectic,
)
from solvhull.lie import LieAlgebra
from solvhull.linalg import Mat, is_zero_vec, rank, unit_vec


def twisted_kt_model():
    doc = fixture("twisted_kodaira_thurston")
    return invariant_subcomplex(hull_data_of(doc)), omega_of(doc)



def h3_times_h3():
    """H3 x H3 with a symplectic omega: nonzero differential, hard Lefschetz fails."""
    g = LieAlgebra.from_brackets(6, {(0, 1): [0, 0, 1, 0, 0, 0], (3, 4): [0, 0, 0, 0, 0, 1]})
    return g, ExteriorForm.make(2, {(0, 2): 1, (1, 3): 1, (4, 5): 1})


def _power(omega, k):
    out = ExteriorForm.monomial(())
    for _ in range(k):
        out = wedge(out, omega)
    return out


def reference_verify_symplectic(ic, omega):
    """The check as ExteriorForm products on the ambient forms."""
    if ic.dim % 2 != 0 or omega.degree != 2:
        raise PreconditionError("not a 2-form on an even-dimensional complex")
    coords = ic.restrict_form(omega)
    if coords is None:
        raise PreconditionError("the 2-form does not lie in the invariant model")
    n = ic.dim // 2
    closed = is_zero_vec(ic.dmat(2).apply(coords))
    return SymplecticCheck(omega, n, closed, not _power(omega, n).is_zero())


def reference_hard_lefschetz(ic, omega):
    """Each power of omega wedged from scratch and restricted, and the wedge
    map on forms read from the unit vectors, not the representatives."""
    if not reference_verify_symplectic(ic, omega).symplectic:
        raise PreconditionError("not symplectic")
    n = ic.dim // 2
    zero_diff = ic.has_zero_differential()
    top = cohomology(ic, ic.dim)
    degrees = []
    for i in range(n + 1):
        power = ic.restrict_form(_power(omega, n - i))
        assert power is not None
        hi, htarget = cohomology(ic, i), cohomology(ic, 2 * n - i)
        cols = [htarget.express(ic.wedge_coords(i, rep, 2 * (n - i), power))[0]
                for rep in hi.reps]
        matrix = Mat.from_cols(cols, rows=htarget.betti)
        iso = hi.betti == htarget.betti and rank(matrix) == hi.betti
        injective = perfect = None
        if zero_diff:
            ni = ic.space_dim(i)
            fmat = Mat.from_cols([ic.wedge_coords(i, unit_vec(ni, j), 2 * (n - i), power)
                                  for j in range(ni)], rows=ic.space_dim(2 * n - i))
            injective = rank(fmat) == ni
            perfect = lefschetz._degree_pairing(ic, top, i).perfect
        degrees.append(DegreeLefschetz(i, matrix, iso, injective, perfect))
    return LefschetzReport(n, tuple(degrees), all(d.iso for d in degrees), zero_diff)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PreconditionError as exc:
        return type(exc)


def _reference_cases():
    """Models and CE complexes with their omegas, by name."""
    for name, params in (("almost_abelian", {"m": 1, "n": 1}),
                         ("almost_abelian", {"m": 2, "n": 1}), ("complex_sol", None)):
        doc = fixture(name, params)
        g = algebra_of(doc)
        model = invariant_subcomplex(hull_action_data(build_splittable_hull(g)))
        yield f"{name} {params} model", model, omega_of(doc)
        yield f"{name} {params} CE", ce_complex(g), omega_of(doc)
    doc = fixture("twisted_kodaira_thurston")
    yield "twisted_kodaira_thurston model", invariant_subcomplex(hull_data_of(doc)), omega_of(doc)
    doc = fixture("kodaira_thurston")
    yield "kodaira_thurston CE", ce_complex(algebra_of(doc)), omega_of(doc)
    g, om = h3_times_h3()
    yield "H3xH3 CE", ce_complex(g), om


class TestVerifySymplectic:
    def test_twisted_model(self):
        ic, om = twisted_kt_model()
        check = verify_symplectic(ic, om)
        assert check.symplectic and check.closed and check.top_power_nonzero
        assert wedge(om, om) == ExteriorForm.monomial((0, 1, 2, 3), 2)

    def test_almost_abelian_omega(self):
        doc = fixture("almost_abelian")
        g = algebra_of(doc)
        om = omega_of(doc)
        check = verify_symplectic(ce_complex(g), om)
        assert check.symplectic
        assert not wedge(wedge(om, om), om).is_zero()

    def test_degenerate_two_form(self):
        ic, _ = twisted_kt_model()
        degenerate = ExteriorForm.make(2, {(0, 3): F(1)})
        check = verify_symplectic(ic, degenerate)
        assert check.closed and not check.top_power_nonzero
        assert not check.symplectic

    def test_odd_dimension_rejected(self, sol):
        ic = ce_complex(sol)
        with pytest.raises(PreconditionError):
            verify_symplectic(ic, ExteriorForm.make(2, {(0, 1): F(1)}))

    def test_non_invariant_form_rejected(self):
        ic, _ = twisted_kt_model()
        outside = ExteriorForm.make(2, {(0, 1): F(1)})  # x1^x2 is not fixed
        with pytest.raises(PreconditionError):
            verify_symplectic(ic, outside)


class TestHardLefschetz:
    def test_twisted_model_holds_with_identity_map(self):
        ic, om = twisted_kt_model()
        report = hard_lefschetz(ic, om)
        assert report.holds and report.cross_checked
        h1 = cohomology(ic, 1)
        h3 = cohomology(ic, 3)
        assert [ic.form(1, r) for r in h1.reps] == [
            ExteriorForm.monomial((0,)), ExteriorForm.monomial((3,))]
        assert [ic.form(3, r) for r in h3.reps] == [
            ExteriorForm.monomial((0, 1, 2)), ExteriorForm.monomial((1, 2, 3))]
        assert report.degrees[1].matrix == Mat.identity(2)

    def test_almost_abelian_hull_model_holds(self):
        doc = fixture("almost_abelian")
        g = algebra_of(doc)
        om = omega_of(doc)
        ic = invariant_subcomplex(hull_action_data(build_splittable_hull(g)))
        report = hard_lefschetz(ic, om)
        assert report.holds
        assert all(d.iso for d in report.degrees)
        assert report.cross_checked

    def test_kodaira_thurston_fails_at_degree_one(self, kodaira_thurston):
        doc = fixture("kodaira_thurston")
        om = omega_of(doc)
        ic = ce_complex(kodaira_thurston)
        report = hard_lefschetz(ic, om)
        assert not report.holds
        flags = {d.degree: d.iso for d in report.degrees}
        assert flags == {0: True, 1: False, 2: True}
        # betti 1 is odd (3): the failure is a genuine rank defect
        assert cohomology(ic, 1).betti == 3

    def test_scaling_omega_preserves_flags(self):
        ic, om = twisted_kt_model()
        base = hard_lefschetz(ic, om)
        scaled = hard_lefschetz(ic, om.scale(F(-7, 3)))
        assert [d.iso for d in base.degrees] == [d.iso for d in scaled.degrees]

    def test_cohomologous_omega_preserves_flags(self, kodaira_thurston):
        # omega + d(eta) with d(eta) != 0 on the full complex
        doc = fixture("kodaira_thurston")
        om = omega_of(doc)
        cx = ce_complex(kodaira_thurston)
        ic = cx
        eta = ExteriorForm.monomial((2,), 5)
        shifted = om + cx.d_form(eta)
        assert shifted != om
        base = hard_lefschetz(ic, om)
        moved = hard_lefschetz(ic, shifted)
        assert [d.iso for d in base.degrees] == [d.iso for d in moved.degrees]

    def test_needs_symplectic_form(self):
        ic, _ = twisted_kt_model()
        degenerate = ExteriorForm.make(2, {(0, 3): F(1)})
        with pytest.raises(PreconditionError):
            hard_lefschetz(ic, degenerate)


class TestPoincarePairing:
    def test_abelian_perfect(self):
        g = algebra_of(fixture("abelian", {"n": 4}))
        report = poincare_pairing(ce_complex(g))
        assert report.top_betti == 1
        assert report.all_perfect

    def test_twisted_model_perfect(self):
        ic, _ = twisted_kt_model()
        report = poincare_pairing(ic)
        assert report.all_perfect
        assert report.degrees[1].matrix.shape == (2, 2)

    def test_heisenberg_full_perfect(self, heisenberg):
        report = poincare_pairing(ce_complex(heisenberg))
        assert report.all_perfect

    def test_all_shipped_fixture_models_perfect(self):
        for name in ("sol", "rotation", "heisenberg", "filiform4",
                     "kodaira_thurston", "complex_sol"):
            g = algebra_of(fixture(name))
            assert poincare_pairing(ce_complex(g)).all_perfect
            model = invariant_subcomplex(hull_action_data(build_splittable_hull(g)))
            assert poincare_pairing(model).all_perfect
        for name in ("twisted_heisenberg", "twisted_kodaira_thurston"):
            ic = invariant_subcomplex(hull_data_of(fixture(name)))
            assert poincare_pairing(ic).all_perfect


class TestAgainstReference:
    def test_powers_in_coordinates_match_the_reference(self):
        nonzero_differential = 0
        for name, ic, om in _reference_cases():
            eta = tuple(F(j + 1) for j in range(ic.space_dim(1)))
            exact = ic.form(2, ic.dmat(1).apply(eta))
            nonzero_differential += not exact.is_zero()
            for omega in (om, om.scale(F(-7, 3)), om + exact):
                assert _outcome(verify_symplectic, ic, omega) == \
                    _outcome(reference_verify_symplectic, ic, omega), name
                report = _outcome(hard_lefschetz, ic, omega)
                assert report == _outcome(reference_hard_lefschetz, ic, omega), name
                assert report is not PreconditionError, name
        assert nonzero_differential >= 4

    def test_missing_class_on_zero_differential_model_fails(self, monkeypatch):
        # with one class of H^1 dropped both routes read "not injective",
        # so only the class count catches it
        ic, om = twisted_kt_model()
        check = verify_symplectic(ic, om)
        assert ic.has_zero_differential()

        def short(cx, k):
            basis = cohomology(cx, k)
            return CohomologyBasis(cx, k, basis.reps[1:]) if k == 1 else basis

        monkeypatch.setattr(lefschetz, "cohomology", short)
        with pytest.raises(InternalCheckError, match="H\\^1 has 1 classes"):
            hard_lefschetz(ic, om, check)

    def test_power_outside_the_model_fails(self):
        # degree 2 holds omega, degree 4 is empty: omega^2 is outside
        cx = ce_complex(algebra_of(fixture("abelian", {"n": 4})))
        om = ExteriorForm.make(2, {(0, 1): 1, (2, 3): 1})
        ic = InvariantComplex(cx, [((F(1),),), (), (cx.coords(om),), (), ()])
        with pytest.raises(InternalCheckError, match="not closed under wedge"):
            hard_lefschetz(ic, om)
        with pytest.raises(InternalCheckError, match="not closed under wedge"):
            hard_lefschetz(ic, om, SymplecticCheck(om, 2, True, True))
