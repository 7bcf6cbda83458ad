"""Symplectic verification, hard Lefschetz, Poincare pairing."""

from fractions import Fraction as F

import pytest

from solvhull.cochain import ExteriorForm, ce_complex, cohomology, wedge_power
from solvhull.errors import PreconditionError
from solvhull.fixtures import fixture
from solvhull.formality import invariant_subcomplex
from solvhull.hull import build_splittable_hull, hull_action_data
from solvhull.iodoc import algebra_of, hull_data_of, omega_of
from solvhull.lefschetz import (
    hard_lefschetz,
    poincare_pairing,
    verify_symplectic,
)
from solvhull.linalg import Mat


def twisted_kt_model():
    doc = fixture("twisted_kodaira_thurston")
    return invariant_subcomplex(hull_data_of(doc)), omega_of(doc)


class TestVerifySymplectic:
    def test_twisted_model(self):
        ic, om = twisted_kt_model()
        check = verify_symplectic(ic, om)
        assert check.symplectic and check.closed and check.top_power_nonzero
        assert wedge_power(om, 2) == ExteriorForm.monomial((0, 1, 2, 3), 2)

    def test_almost_abelian_omega(self):
        doc = fixture("almost_abelian")
        g = algebra_of(doc)
        om = omega_of(doc)
        check = verify_symplectic(ce_complex(g), om)
        assert check.symplectic
        assert not wedge_power(om, 3).is_zero()

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

