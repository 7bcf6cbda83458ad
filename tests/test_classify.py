"""Type-(I) spectra, Kaehler obstructions, and the analyze pipeline."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvhull.cochain import ExteriorForm
from solvhull.errors import StructureError
from solvhull.fixtures import fixture
from solvhull.hull import DEFAULT_FINITE_BOUND, HullData, build_splittable_hull, hull_action_data
from solvhull.iodoc import algebra_of, hull_data_of, omega_of
from solvhull.lie import Subspace, is_nilpotent
from solvhull.linalg import Mat, Poly
from solvhull.report import (
    LATTICE_ASSUMPTION,
    TypeOneVerdict,
    analyze,
    kahler_obstruction,
    model_stage,
    type_one_check,
    verify_type_one_witness,
)

from conftest import (
    almost_abelian_algebra,
    change_basis,
    random_split_solvable,
    random_unimodular,
    sl2,
)


class TestTypeOne:
    def test_sol_not_type_one(self, sol):
        verdict = type_one_check(hull_action_data(build_splittable_hull(sol)))
        assert verdict.status == "not_type_I"
        w = verdict.witnesses[0]
        assert w.char_poly == Poly.of(0, -1, 0, 1)       # t^3 - t
        assert w.reduced == Poly.of(-1, 1)               # u - 1, root at +1
        assert w.roots_nonpositive == 0 and w.reduced_degree == 1
        assert not w.compatible
        assert verify_type_one_witness(w)

    def test_rotation_type_one(self, rotation):
        verdict = type_one_check(hull_action_data(build_splittable_hull(rotation)))
        assert verdict.status == "type_I"
        w = verdict.witnesses[0]
        assert w.reduced == Poly.of(1, 1)                # u + 1, root at -1
        assert w.roots_nonpositive == 1 == w.reduced_degree
        assert verify_type_one_witness(w)

    def test_no_derivations_trivially_type_one(self, heisenberg):
        verdict = type_one_check(hull_action_data(build_splittable_hull(heisenberg)))
        assert verdict.status == "type_I"
        assert verdict.witnesses == ()

    def test_mixed_weights_fail(self):
        g = almost_abelian_algebra(1, 1)
        verdict = type_one_check(hull_action_data(build_splittable_hull(g)))
        assert verdict.status == "not_type_I"

    def test_pure_rotation_family_passes(self):
        g = almost_abelian_algebra(0, 2, b=["1", "3/2"])
        verdict = type_one_check(hull_action_data(build_splittable_hull(g)))
        assert verdict.status == "type_I"

    def test_non_commuting_not_certified(self):
        u = algebra_of(fixture("abelian", {"n": 2}))
        d1 = Mat([[0, 1], [1, 0]])
        d2 = Mat([[1, 0], [0, -1]])
        verdict = type_one_check(HullData(u, (d1, d2), ()))
        assert verdict.status == "not_certified"

    def test_nonabelian_with_derivations_not_certified(self, heisenberg):
        d = Mat.diag([1, 1, 2])  # derivation of Heisenberg
        verdict = type_one_check(HullData(heisenberg, (d,), ()))
        assert verdict.status == "not_certified"


class TestKahler:
    def test_obstructed(self):
        verdict = TypeOneVerdict("not_type_I")
        k = kahler_obstruction(True, verdict)
        assert k.conclusion == "not_kahler"
        assert k.assumptions == (LATTICE_ASSUMPTION,)

    def test_no_obstruction(self):
        k = kahler_obstruction(True, TypeOneVerdict("type_I"))
        assert k.conclusion == "no_obstruction"
        assert k.assumptions == ()

    def test_inapplicable_nonabelian(self):
        k = kahler_obstruction(False, TypeOneVerdict("type_I"))
        assert k.conclusion == "criterion_inapplicable"

    def test_abelian_torus_no_obstruction(self, abelian3):
        r = analyze(abelian3)
        assert r.kahler.conclusion == "no_obstruction"


class TestAnalyze:
    def test_sol_report(self, sol):
        r = analyze(sol)
        assert r.solvable and not r.nilpotent
        assert r.nilradical_dim == 2
        assert r.hull_abelian
        assert r.formality.status == "certified_formal"
        assert r.type_one.status == "not_type_I"
        assert r.kahler.conclusion == "not_kahler"
        assert LATTICE_ASSUMPTION in r.kahler.assumptions

    def test_almost_abelian_with_nonzero_weight_not_kahler(self):
        for params in (dict(m=1, n=0, a=["1"]), dict(m=1, n=1, a=["2"], b=["3"])):
            g = almost_abelian_algebra(**params)
            doc = fixture("almost_abelian", {k: v for k, v in params.items()})
            r = analyze(g, omega=omega_of(doc))
            assert r.kahler.conclusion == "not_kahler"
            assert r.formality.status == "certified_formal"
            assert r.lefschetz is not None and r.lefschetz.holds

    def test_pure_rotation_no_obstruction(self):
        g = almost_abelian_algebra(0, 1, b=["1"])
        r = analyze(g)
        assert r.type_one.status == "type_I"
        assert r.kahler.conclusion == "no_obstruction"

    def test_heisenberg_report(self, heisenberg):
        r = analyze(heisenberg)
        assert r.hull_abelian is False
        assert r.hull_witness is not None
        assert r.formality.status == "obstructed_nonformal"
        assert r.kahler.conclusion == "criterion_inapplicable"

    def test_twisted_model_report(self):
        doc = fixture("twisted_kodaira_thurston")
        r = analyze(hull_data_of(doc), omega=omega_of(doc))
        assert r.input_kind == "hull_data"
        assert r.formality.status == "certified_formal"
        assert r.symplectic.symplectic
        assert r.lefschetz.holds
        assert r.kahler.conclusion == "criterion_inapplicable"

    def test_non_solvable_degrades(self):
        r = analyze(sl2())
        assert r.solvable is False
        assert r.formality is None
        assert any(s.stage == "hull" for s in r.skipped)
        assert r.kahler.conclusion == "criterion_inapplicable"

    def test_invalid_algebra_reported(self):
        from solvhull.lie import LieAlgebra

        c = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
        c[0][1][2] = F(1)
        bad = LieAlgebra(3, ("a", "b", "c"),
                         tuple(tuple(tuple(v) for v in row) for row in c))
        r = analyze(bad)
        assert r.validation is not None
        assert r.formality is None

    def test_omega_on_odd_dimension_skipped(self, sol):
        r = analyze(sol, omega=ExteriorForm.make(2, {(0, 1): F(1)}))
        assert r.symplectic is None
        assert any(s.stage == "symplectic" for s in r.skipped)

    def test_analyze_deterministic(self, sol):
        from solvhull.cli import report_payload

        a = report_payload(analyze(sol))
        b = report_payload(analyze(sol))
        assert a == b

    @pytest.mark.parametrize("name, torus, message", [
        ("sol", (), "hull data needs a nilpotent algebra"),
        # the identity is not a derivation of the Heisenberg algebra
        ("heisenberg", (Mat.diag([1, 1, 1]),), r"matrix is not a derivation at basis pair \(0, 1\)"),
    ])
    def test_invalid_hull_data_rejected_where_taken_in(self, name, torus, message):
        h = HullData(algebra_of(fixture(name)), torus, ())
        with pytest.raises(StructureError, match=message):
            model_stage(h, DEFAULT_FINITE_BOUND)
        with pytest.raises(StructureError, match=message):
            analyze(h)

    def test_never_asserts_kahler_positively(self):
        # every reachable conclusion is an obstruction or a refusal
        for name in ("sol", "rotation", "heisenberg", "abelian",
                     "almost_abelian", "complex_sol"):
            doc = fixture(name)
            r = analyze(algebra_of(doc), omega=omega_of(doc))
            assert r.kahler.conclusion in (
                "not_kahler", "no_obstruction", "criterion_inapplicable")


NILPOTENT_FIXTURES = ("abelian", "heisenberg", "filiform4", "kodaira_thurston")


def _fact_input(seed, source, rebase):
    rng = random.Random(seed)
    g = random_split_solvable(rng) if source == "split" else algebra_of(fixture(source))
    if rebase:
        g = change_basis(g, *random_unimodular(rng, g.dim))
    return g


@settings(max_examples=40, deadline=None)
@given(st.builds(_fact_input, st.integers(0, 2 ** 32),
                 st.sampled_from(("split",) + NILPOTENT_FIXTURES), st.booleans()))
def test_nilpotency_is_read_off_the_hull_nilradical(g):
    nilpotent = is_nilpotent(g)
    assert analyze(g).nilpotent == nilpotent
    assert (build_splittable_hull(g).nilradical == Subspace.full(g)) == nilpotent
