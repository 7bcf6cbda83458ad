"""The sparse exact kernels against dense references, and retained memory.

Mat @ and rref work on integer numerators and skip zeros; the invariant
model reads coordinates from a chart instead of solving; the nilradical
takes traces without forming products.  Each is compared here with the
plain dense computation it replaced, on random sparse and dense inputs.
"""

import gc
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvhull import report
from solvhull.cochain import ce_complex
from solvhull.errors import InternalCheckError
from solvhull.fixtures import fixture
from solvhull.formality import InvariantComplex, full_model, invariant_subcomplex
from solvhull.hull import hull_action_data
from solvhull.iodoc import algebra_of, hull_data_of, omega_of
from solvhull.lie import ad_matrix, nilradical
from solvhull.linalg import (
    Mat,
    kernel_basis,
    reduce_against,
    row_space_basis,
    rref,
    solve,
    unit_vec,
)

from conftest import random_split_solvable

KERNEL_SETTINGS = settings(max_examples=150, deadline=None)

entries = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
)


def matrices(rows, cols, density):
    return st.lists(
        st.lists(st.one_of(st.just(F(0)), entries) if density == "sparse" else entries,
                 min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(lambda rs: Mat(rs, cols=cols))


def dense_matmul(a: Mat, b: Mat) -> Mat:
    return Mat([[sum((a[i, t] * b[t, j] for t in range(a.cols)), F(0)) for j in range(b.cols)]
                for i in range(a.rows)], cols=b.cols)


def dense_rref(m: Mat):
    """The textbook Gauss-Jordan elimination over Fractions."""
    rows = [list(r) for r in m.entries]
    pivots = []
    r = 0
    for c in range(m.cols):
        pr = next((i for i in range(r, m.rows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Mat(rows, cols=m.cols), tuple(pivots)


shapes = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
densities = st.sampled_from(["sparse", "dense"])


class TestMatmul:
    @KERNEL_SETTINGS
    @given(st.data(), shapes, densities)
    def test_matches_dense_reference(self, data, shape, density):
        r, k, c = shape
        a = data.draw(matrices(r, k, density))
        b = data.draw(matrices(k, c, density))
        product = a @ b
        assert product.shape == (r, c)
        assert product == dense_matmul(a, b)

    def test_empty_shapes(self):
        assert Mat.zero(0, 3) @ Mat.zero(3, 2) == Mat.zero(0, 2)
        assert Mat.zero(2, 0) @ Mat.zero(0, 3) == Mat.zero(2, 3)
        assert Mat.zero(2, 3) @ Mat.zero(3, 0) == Mat.zero(2, 0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Mat.identity(2) @ Mat.identity(3)


class TestRref:
    @KERNEL_SETTINGS
    @given(st.data(), st.integers(0, 7), st.integers(0, 7), densities)
    def test_matches_dense_reference(self, data, rows, cols, density):
        m = data.draw(matrices(rows, cols, density))
        assert rref(m) == dense_rref(m)

    @KERNEL_SETTINGS
    @given(st.data(), st.integers(1, 5), st.integers(1, 6))
    def test_dependent_rows(self, data, rows, cols):
        m = data.draw(matrices(rows, cols, "dense"))
        c1, c2 = data.draw(entries), data.draw(entries)
        extra = tuple(c1 * x + c2 * y for x, y in zip(m.row(0), m.row(rows - 1)))
        stacked = Mat(list(m.entries) + [extra], cols=cols)
        assert rref(stacked) == dense_rref(stacked)

    def test_ce_differentials(self):
        cx = ce_complex(algebra_of(fixture("almost_abelian", {"m": 1, "n": 1})))
        for k in range(cx.dim + 1):
            assert rref(cx.dmat(k)) == dense_rref(cx.dmat(k))


def _models():
    for name in ("complex_sol", "almost_abelian", "sol"):
        yield name, invariant_subcomplex(hull_action_data(algebra_of(fixture(name))))
    for name in ("twisted_heisenberg", "twisted_kodaira_thurston"):
        yield name, invariant_subcomplex(hull_data_of(fixture(name)))
    yield "full heisenberg", full_model(ce_complex(algebra_of(fixture("heisenberg"))))


MODELS = dict(_models())


class TestInvariantChart:
    @KERNEL_SETTINGS
    @given(st.data(), st.sampled_from(sorted(MODELS)))
    def test_restrict_inverts_lift(self, data, name):
        ic = MODELS[name]
        k = data.draw(st.integers(0, ic.dim))
        coords = tuple(data.draw(st.lists(entries, min_size=ic.space_dim(k),
                                          max_size=ic.space_dim(k))))
        assert ic.restrict(k, ic.lift(k, coords)) == coords

    @KERNEL_SETTINGS
    @given(st.data(), st.sampled_from(sorted(MODELS)))
    def test_restrict_matches_solve(self, data, name):
        ic = MODELS[name]
        k = data.draw(st.integers(0, ic.dim))
        nk = ic.ambient.space_dim(k)
        w = tuple(data.draw(st.lists(entries, min_size=nk, max_size=nk)))
        basis = ic.sub_basis(k)
        expected = solve(Mat.from_cols(basis, rows=nk), w) if basis else (
            () if not any(w) else None)
        assert ic.restrict(k, w) == expected

    def test_vector_outside_the_model(self):
        ic = MODELS["complex_sol"]
        span = row_space_basis(list(ic.sub_basis(2)), ic.ambient.space_dim(2))
        outside = [unit_vec(ic.ambient.space_dim(2), j) for j in range(ic.ambient.space_dim(2))
                   if any(reduce_against(span, unit_vec(ic.ambient.space_dim(2), j)))]
        assert outside
        for w in outside:
            assert ic.restrict(2, w) is None

    def test_general_basis_chart(self):
        # no vector owns a coordinate alone, so the chart inverts a full block
        cx = ce_complex(algebra_of(fixture("abelian", {"n": 2})))
        basis = ((F(1), F(1)), (F(1), F(2)))
        ic = InvariantComplex(cx, [((F(1),),), basis, ((F(3),),)])
        assert ic.restrict(1, (F(2), F(3))) == (F(1), F(1))
        assert ic.lift(1, (F(1), F(1))) == (F(2), F(3))
        assert ic.restrict(2, (F(6),)) == (F(2),)


def dense_nilradical_basis(g):
    """The trace-form nilradical with each trace taken from a full product."""
    n = g.dim
    ads = [ad_matrix(g, unit_vec(n, i)) for i in range(n)]
    env, rows, work = [], [], []
    for a in ads:
        if not a.is_zero() and any(reduce_against(rows, a.flatten())):
            env.append(a)
            rows = row_space_basis([m.flatten() for m in env], n * n)
            work.append(a)
    while work:
        current = work.pop(0)
        for a in ads:
            if a.is_zero():
                continue
            prod = dense_matmul(a, current)
            if any(reduce_against(rows, prod.flatten())):
                env.append(prod)
                rows = row_space_basis([m.flatten() for m in env], n * n)
                work.append(prod)
    if not env:
        return [unit_vec(n, i) for i in range(n)]
    constraint = Mat([[dense_matmul(ads[k], b).trace() for k in range(n)] for b in env],
                     cols=n)
    return row_space_basis(kernel_basis(constraint), n)


@pytest.mark.parametrize("seed", range(12))
def test_nilradical_matches_dense_traces(seed):
    g = random_split_solvable(random.Random(seed))
    assert list(nilradical(g).basis) == dense_nilradical_basis(g)


@pytest.mark.parametrize("name", ["complex_sol", "kodaira_thurston",
                                  "twisted_kodaira_thurston", "heisenberg"])
def test_analyze_leaves_no_reference_cycles(name):
    doc = fixture(name)
    subject = hull_data_of(doc) if doc.hull_override is not None else algebra_of(doc)
    gc.collect()
    gc.disable()
    try:
        report.analyze(subject, omega=omega_of(doc))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_full_model_is_built_per_call():
    g = algebra_of(fixture("heisenberg"))
    assert report.full_model_of(g) is not report.full_model_of(g)


def test_lefschetz_stage_does_not_swallow_internal_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise InternalCheckError("Lefschetz routes disagree")

    monkeypatch.setattr(report, "hard_lefschetz", broken)
    doc = fixture("complex_sol")
    with pytest.raises(InternalCheckError):
        report.analyze(algebra_of(doc), omega=omega_of(doc))
