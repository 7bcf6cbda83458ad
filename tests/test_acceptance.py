"""Acceptance suite: one test per shipping criterion, all exact.

Every check asserts equality of exact rational data; there are no
tolerances anywhere.  Run with `pytest tests/test_acceptance.py -s` to
see one PASS line per criterion.
"""

import random
import time
from fractions import Fraction as F

from solvhull.cochain import (
    ExteriorForm,
    betti_numbers,
    ce_complex,
    cohomology,
    wedge,
)
from solvhull.fixtures import fixture
from solvhull.formality import (
    formality_verdict,
    invariant_subcomplex,
    verify_massey_witness,
)
from solvhull.hull import (
    build_splittable_hull,
    hull_action_data,
    jordan_chevalley,
    recognize_split_form,
    unipotent_hull_abelian,
)
from solvhull.iodoc import algebra_of, hull_data_of, omega_of
from solvhull.lefschetz import hard_lefschetz, poincare_pairing, verify_symplectic
from solvhull.lie import ad_matrix, complement_directions, nilradical, validate
from solvhull.linalg import (
    Mat,
    annihilates,
    char_poly,
    eval_poly_at_matrix,
    is_nilpotent_matrix,
    is_zero_vec,
    squarefree_part,
    unit_vec,
    vadd,
)
from solvhull.report import LATTICE_ASSUMPTION, analyze

from conftest import jordan_suite_matrices, semisimple_parts_add_on_nilradical

ALGEBRA_FIXTURES = ("abelian", "heisenberg", "sol", "rotation", "filiform4",
                    "kodaira_thurston", "almost_abelian", "complex_sol")
OVERRIDE_FIXTURES = ("twisted_heisenberg", "twisted_kodaira_thurston")

WEIGHT_GRID = (dict(m=1, n=0, a=["1"]), dict(m=0, n=1, b=["1"]),
               dict(m=1, n=1, a=["1"], b=["1"]),
               dict(m=2, n=1, a=["1", "2"], b=["3"]),
               dict(m=1, n=1, a=["1/2"], b=["2/3"]))


def all_fixture_algebras():
    for name in ALGEBRA_FIXTURES:
        yield name, algebra_of(fixture(name))
    for params in WEIGHT_GRID:
        yield f"almost_abelian{tuple(sorted(params))}", algebra_of(
            fixture("almost_abelian", params))


def test_criterion_1_weight_family_golden():
    """Parametric weight-family fixture: printed differentials, symplectic
    form, abelian hull, certified formality, hard Lefschetz throughout."""
    doc = fixture("almost_abelian", dict(m=1, n=1, a=["1"], b=["1"]))
    g = algebra_of(doc)
    cx = ce_complex(g)
    tau, x, y, z, w, sigma = range(6)
    assert cx.d_form(ExteriorForm.monomial((tau,))).is_zero()
    assert cx.d_form(ExteriorForm.monomial((sigma,))).is_zero()
    assert cx.d_form(ExteriorForm.monomial((x,))) == ExteriorForm.make(2, {(tau, x): F(-1)})
    assert cx.d_form(ExteriorForm.monomial((y,))) == ExteriorForm.make(2, {(tau, y): F(1)})
    assert cx.d_form(ExteriorForm.monomial((z,))) == ExteriorForm.make(2, {(tau, w): F(1)})
    assert cx.d_form(ExteriorForm.monomial((w,))) == ExteriorForm.make(2, {(tau, z): F(-1)})

    omega = omega_of(doc)
    assert omega == ExteriorForm.make(2, {(tau, sigma): F(1), (x, y): F(1), (z, w): F(1)})
    check = verify_symplectic(ce_complex(g), omega)
    assert check.closed and check.top_power_nonzero and check.symplectic

    verdict = unipotent_hull_abelian(build_splittable_hull(g))
    assert verdict.abelian

    model = invariant_subcomplex(hull_action_data(build_splittable_hull(g)))
    assert formality_verdict(model).status == "certified_formal"

    report = hard_lefschetz(model, omega)
    assert report.holds and all(d.iso for d in report.degrees)
    print("ACCEPTANCE 1 PASS: weight-family golden test "
          "(differentials, symplectic, abelian hull, formal, hard Lefschetz)")


def test_criterion_2_twisted_models_golden():
    """Twisted Heisenberg invariants and the four-dimensional extension:
    exact spans, Betti numbers, H^1/H^3 bases, Lefschetz isomorphism."""
    ic = invariant_subcomplex(hull_data_of(fixture("twisted_heisenberg")))
    assert ic.basis_forms(0) == (ExteriorForm.monomial(()),)
    assert ic.basis_forms(1) == (ExteriorForm.monomial((0,)),)
    assert ic.basis_forms(2) == (ExteriorForm.monomial((1, 2)),)
    assert ic.basis_forms(3) == (ExteriorForm.monomial((0, 1, 2)),)
    assert betti_numbers(ic) == (1, 1, 1, 1)
    assert formality_verdict(ic).status == "certified_formal"

    doc = fixture("twisted_kodaira_thurston")
    model = invariant_subcomplex(hull_data_of(doc))
    h1 = cohomology(model, 1)
    h3 = cohomology(model, 3)
    assert [model.form(1, r) for r in h1.reps] == [
        ExteriorForm.monomial((0,)), ExteriorForm.monomial((3,))]
    assert [model.form(3, r) for r in h3.reps] == [
        ExteriorForm.monomial((0, 1, 2)), ExteriorForm.monomial((1, 2, 3))]
    omega = omega_of(doc)
    check = verify_symplectic(model, omega)
    assert check.symplectic
    report = hard_lefschetz(model, omega, check)
    assert report.degrees[1].iso and report.degrees[1].matrix == Mat.identity(2)
    assert report.holds
    print("ACCEPTANCE 2 PASS: twisted-model golden test "
          "(invariant spans, Betti (1,1,1,1), H^1/H^3 bases, Lefschetz iso)")


def test_criterion_3_split_form_round_trip():
    """Abelian hull iff split semisimple form, exercised both ways."""
    positives = [algebra_of(fixture("sol")), algebra_of(fixture("complex_sol"))]
    positives += [algebra_of(fixture("almost_abelian", p)) for p in WEIGHT_GRID]
    for g in positives:
        verdict = unipotent_hull_abelian(build_splittable_hull(g))
        assert verdict.abelian
        sf = recognize_split_form(g, build_splittable_hull(g))
        assert sf is not None
        assert sf.ideal == nilradical(g).basis
        for u in sf.complement:
            for v in sf.complement:
                assert is_zero_vec(g.bracket(u, v))

    for name in ("heisenberg", "filiform4"):
        g = algebra_of(fixture(name))
        hull = build_splittable_hull(g)
        verdict = unipotent_hull_abelian(hull)
        assert not verdict.abelian
        i, j, bracket = verdict.witness
        assert hull.nbar.c[i][j] == bracket
        assert not is_zero_vec(bracket)
        assert recognize_split_form(g, hull) is None
    print("ACCEPTANCE 3 PASS: split-form round trip "
          "(abelian hulls recover splittings; nilpotent controls give witnesses)")


def test_criterion_4_nonformal_with_formal_finite_extension():
    """The nilpotent model is obstructed by an explicit Massey triple while
    its twisted extension is certified formal."""
    heis = algebra_of(fixture("heisenberg"))
    ic = ce_complex(heis)
    verdict = formality_verdict(ic)
    assert verdict.status == "obstructed_nonformal"
    w = verdict.witness
    assert w.degrees == (1, 1, 1)
    assert w.a == (F(1), F(0)) and w.b == (F(1), F(0)) and w.c == (F(0), F(1))
    assert ic.form(2, w.representative) == ExteriorForm.monomial((0, 2), -1)
    rho, _ = cohomology(ic, 2).express(w.representative)
    assert any(x != 0 for x in rho)
    assert w.indeterminacy == ()
    assert verify_massey_witness(ic, w, expect_vanishing=False)

    twisted = invariant_subcomplex(hull_data_of(fixture("twisted_heisenberg")))
    assert formality_verdict(twisted).status == "certified_formal"
    print("ACCEPTANCE 4 PASS: nonformal nilpotent model with formal finite "
          "extension (Massey witness -x1^x3, zero indeterminacy)")


def test_criterion_5_jordan_decomposition_suite():
    """200 random rational matrices up to 8x8: exact Jordan pairs."""
    start = time.monotonic()
    for m, probe in jordan_suite_matrices():
        pair = jordan_chevalley(m)
        assert pair.s + pair.n == m
        assert pair.s.commutes_with(pair.n)
        assert annihilates(squarefree_part(char_poly(pair.s)), pair.s)
        assert is_nilpotent_matrix(pair.n)
        commutant = eval_poly_at_matrix(char_poly(probe), m)
        assert pair.s.commutes_with(commutant)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 5 PASS: Jordan decomposition property suite "
          f"(200 matrices in {elapsed:.2f}s)")


def test_criterion_6_structural_invariants():
    """d^2 = 0, Leibniz, Euler characteristic zero, perfect pairing,
    nilradical maximality, and semisimple-part additivity on all fixtures."""
    rng = random.Random(99)
    from test_cochain import random_form

    for name, g in all_fixture_algebras():
        assert validate(g) is None
        cx = ce_complex(g)
        for k in range(g.dim):
            assert (cx.dmat(k + 1) @ cx.dmat(k)).is_zero()
        for _ in range(5):
            p = rng.randint(1, max(1, g.dim - 1))
            q = rng.randint(1, max(1, g.dim - p))
            a = random_form(rng, g.dim, p)
            b = random_form(rng, g.dim, q)
            assert cx.d_form(wedge(a, b)) == \
                wedge(cx.d_form(a), b) + wedge(a, cx.d_form(b)).scale((-1) ** p)
        bb = betti_numbers(cx)
        assert sum((-1) ** k * x for k, x in enumerate(bb)) == 0
        assert poincare_pairing(cx).all_perfect
        model = invariant_subcomplex(hull_action_data(build_splittable_hull(g)))
        assert poincare_pairing(model).all_perfect

        nr = nilradical(g)
        for c in complement_directions(g, nr):
            wv = unit_vec(g.dim, c)
            assert not is_nilpotent_matrix(ad_matrix(g, wv))
            for v in nr.basis:
                assert not is_nilpotent_matrix(ad_matrix(g, vadd(wv, v)))
        assert semisimple_parts_add_on_nilradical(g, nr)

    for name in OVERRIDE_FIXTURES:
        ic = invariant_subcomplex(hull_data_of(fixture(name)))
        assert poincare_pairing(ic).all_perfect
    print("ACCEPTANCE 6 PASS: structural invariant suite on all fixtures "
          "(d^2, Leibniz, Euler, pairing, maximality, additivity)")


def test_criterion_7_classification():
    """Hyperbolic weights obstruct Kaehler structures, rotations do not."""
    sol = algebra_of(fixture("sol"))
    r = analyze(sol)
    assert r.type_one.status == "not_type_I"
    assert r.kahler.conclusion == "not_kahler"
    assert r.kahler.assumptions == (LATTICE_ASSUMPTION,)

    for params in (dict(m=1, n=0, a=["1"]), dict(m=1, n=1, a=["2"], b=["3"])):
        g = algebra_of(fixture("almost_abelian", params))
        rr = analyze(g)
        assert rr.type_one.status == "not_type_I"
        assert rr.kahler.conclusion == "not_kahler"
        assert rr.kahler.assumptions == (LATTICE_ASSUMPTION,)

    rot = algebra_of(fixture("rotation"))
    rrot = analyze(rot)
    assert rrot.type_one.status == "type_I"
    assert rrot.kahler.conclusion == "no_obstruction"
    print("ACCEPTANCE 7 PASS: classification split "
          "(hyperbolic weights -> not Kaehler assuming a lattice; rotations -> no obstruction)")


def test_criterion_8_negative_control():
    """The untwisted nilpotent model fails hard Lefschetz at degree one."""
    doc = fixture("kodaira_thurston")
    g = algebra_of(doc)
    omega = omega_of(doc)
    ic = ce_complex(g)
    check = verify_symplectic(ic, omega)
    assert check.symplectic
    report = hard_lefschetz(ic, omega, check)
    assert not report.holds
    assert not report.degrees[1].iso
    assert report.degrees[0].iso and report.degrees[2].iso
    print("ACCEPTANCE 8 PASS: negative control "
          "(nilpotent symplectic model fails hard Lefschetz at degree 1)")
