"""Jordan decomposition, splittable hulls, nilshadows, split forms."""

import random
from fractions import Fraction as F

import pytest

from solvhull.errors import PreconditionError, StructureError
from solvhull.hull import (
    HullData,
    build_splittable_hull,
    enumerate_finite_group,
    hull_action_data,
    jordan_chevalley,
    recognize_split_form,
    semisimple_derivation,
    unipotent_hull_abelian,
    validate_hull_data,
)
from solvhull.lie import (
    LieAlgebra,
    Subspace,
    ad_matrix,
    complement_directions,
    is_ideal,
    is_nilpotent,
    nilradical,
    validate,
)
from solvhull.linalg import (
    Mat,
    annihilates,
    char_poly,
    eval_poly_at_matrix,
    is_nilpotent_matrix,
    is_zero_vec,
    kernel_basis,
    rank,
    reduce_against,
    row_space_basis,
    solve,
    squarefree_part,
    unit_vec,
    vadd,
    vscale,
    zero_vec,
)

from conftest import (
    almost_abelian_algebra,
    change_basis,
    random_matrix,
    random_split_solvable,
    random_unimodular,
    semisimple_parts_add_on_nilradical,
    sl2,
)


def assert_jordan_pair(m, pair):
    assert pair.s + pair.n == m
    assert pair.s.commutes_with(pair.n)
    assert is_nilpotent_matrix(pair.n)
    assert annihilates(squarefree_part(char_poly(pair.s)), pair.s)


class TestJordanChevalley:
    def test_single_jordan_block(self):
        pair = jordan_chevalley(Mat([[1, 1], [0, 1]]))
        assert pair.s == Mat.identity(2)
        assert pair.n == Mat([[0, 1], [0, 0]])

    def test_rotation_already_semisimple(self):
        m = Mat([[0, -1], [1, 0]])
        pair = jordan_chevalley(m)
        assert pair.s == m and pair.n.is_zero()

    def test_nilpotent_input(self):
        m = Mat([[0, 2, 1], [0, 0, 3], [0, 0, 0]])
        pair = jordan_chevalley(m)
        assert pair.s.is_zero() and pair.n == m

    def test_property_suite_random(self):
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randint(1, 6)
            m = random_matrix(rng, n, span=2)
            pair = jordan_chevalley(m)
            assert_jordan_pair(m, pair)
            # s is a polynomial in m: it must commute with polynomials in m
            p = char_poly(random_matrix(rng, n, span=1))
            commutant = eval_poly_at_matrix(p, m)
            assert pair.s.commutes_with(commutant)

    def test_rejects_non_square(self):
        with pytest.raises(PreconditionError):
            jordan_chevalley(Mat([[1, 2, 3]]))


class TestSemisimpleDerivation:
    def test_sol_t(self, sol):
        assert semisimple_derivation(sol, unit_vec(3, 0)) == Mat.diag([0, 1, -1])

    def test_heisenberg_all_zero(self, heisenberg):
        rng = random.Random(22)
        for _ in range(5):
            x = tuple(F(rng.randint(-2, 2)) for _ in range(3))
            assert semisimple_derivation(heisenberg, x).is_zero()

    def test_almost_abelian_generator(self):
        g = almost_abelian_algebra(1, 1)
        d = semisimple_derivation(g, unit_vec(6, 0))
        assert d == ad_matrix(g, unit_vec(6, 0))

    def test_rejects_non_solvable(self):
        with pytest.raises(PreconditionError):
            semisimple_derivation(sl2(), unit_vec(3, 0))


class TestSplittableHull:
    def test_abelian_trivial(self, abelian3):
        hull = build_splittable_hull(abelian3)
        assert hull.imf_dim == 0
        assert hull.gbar.dim == 3
        assert hull.nbar.c == abelian3.c

    def test_heisenberg_nilpotent_trivial_torus(self, heisenberg):
        hull = build_splittable_hull(heisenberg)
        assert hull.imf_dim == 0
        assert hull.nbar.c == heisenberg.c

    def test_sol_hull(self, sol):
        hull = build_splittable_hull(sol)
        assert hull.imf_dim == 1
        assert hull.imf_basis[0] == Mat.diag([0, 1, -1])
        assert hull.gbar.dim == 4
        assert all(is_zero_vec(hull.nbar.c[i][j]) for i in range(3) for j in range(3))

    def test_hull_invariants_on_random_split_algebras(self):
        rng = random.Random(23)
        for _ in range(6):
            g = random_split_solvable(rng)
            hull = build_splittable_hull(g)
            assert validate(hull.gbar) is None
            assert is_nilpotent(hull.nbar)
            sub = Subspace.span(hull.gbar, list(hull.nbar_inclusion))
            assert sub.dim == g.dim
            assert is_ideal(hull.gbar, sub)
            assert rank(Mat.from_rows(
                [unit_vec(hull.gbar.dim, a) for a in range(hull.imf_dim)]
                + list(hull.nbar_inclusion), cols=hull.gbar.dim)) == hull.gbar.dim

    def test_embed_preserves_brackets(self, sol):
        hull = build_splittable_hull(sol)
        rng = random.Random(24)
        for _ in range(10):
            x = tuple(F(rng.randint(-2, 2)) for _ in range(3))
            y = tuple(F(rng.randint(-2, 2)) for _ in range(3))
            lhs = hull.gbar.bracket(hull.embed.apply(x), hull.embed.apply(y))
            assert lhs == hull.embed.apply(sol.bracket(x, y))

    def test_rejects_non_solvable(self):
        with pytest.raises(PreconditionError):
            build_splittable_hull(sl2())

    def test_semisimple_additivity_on_fixtures(self, sol, heisenberg, filiform4,
                                               kodaira_thurston, rotation, abelian3):
        algebras = [sol, heisenberg, filiform4, kodaira_thurston, rotation, abelian3,
                    almost_abelian_algebra(1, 1), almost_abelian_algebra(1, 0, a=["3"])]
        for g in algebras:
            assert semisimple_parts_add_on_nilradical(g, nilradical(g))

    def test_semisimple_additivity_on_random_split_algebras(self):
        rng = random.Random(25)
        for _ in range(6):
            g = random_split_solvable(rng)
            assert semisimple_parts_add_on_nilradical(g, nilradical(g))


class TestAbelianity:
    def test_sol_true(self, sol):
        assert unipotent_hull_abelian(build_splittable_hull(sol)).abelian

    def test_rotation_true(self, rotation):
        assert unipotent_hull_abelian(build_splittable_hull(rotation)).abelian

    def test_heisenberg_false_with_witness(self, heisenberg):
        hull = build_splittable_hull(heisenberg)
        verdict = unipotent_hull_abelian(hull)
        assert not verdict.abelian
        i, j, w = verdict.witness
        assert (i, j) == (0, 1)
        assert w == unit_vec(3, 2)
        # the witness is honest: the nilshadow bracket really is nonzero
        assert hull.nbar.c[i][j] == w

    def test_filiform_false(self, filiform4):
        verdict = unipotent_hull_abelian(build_splittable_hull(filiform4))
        assert not verdict.abelian
        assert verdict.witness is not None

    def test_almost_abelian_grid(self):
        grid = [dict(m=1, n=0, a=["1"]), dict(m=0, n=1, b=["1"]),
                dict(m=1, n=1), dict(m=2, n=1, a=["1", "2"], b=["3"]),
                dict(m=1, n=1, a=["1/2"], b=["2/3"])]
        for params in grid:
            g = almost_abelian_algebra(**params)
            assert unipotent_hull_abelian(build_splittable_hull(g)).abelian


class TestSplitForm:
    def test_sol(self, sol):
        sf = recognize_split_form(sol, build_splittable_hull(sol))
        assert sf.complement == (unit_vec(3, 0),)
        assert sf.ideal == (unit_vec(3, 1), unit_vec(3, 2))
        assert sf.action == (Mat.diag([1, -1]),)

    def test_heisenberg_absent(self, heisenberg):
        assert recognize_split_form(heisenberg, build_splittable_hull(heisenberg)) is None

    def test_abelian(self, abelian3):
        sf = recognize_split_form(abelian3, build_splittable_hull(abelian3))
        assert sf.complement == ()
        assert len(sf.ideal) == 3

    def test_almost_abelian(self):
        g = almost_abelian_algebra(1, 1)
        sf = recognize_split_form(g, build_splittable_hull(g))
        assert sf.complement == (unit_vec(6, 0),)
        assert len(sf.ideal) == 5

    def test_round_trip_properties(self):
        rng = random.Random(26)
        for _ in range(6):
            g = random_split_solvable(rng)
            verdict = unipotent_hull_abelian(build_splittable_hull(g))
            assert verdict.abelian
            sf = recognize_split_form(g, build_splittable_hull(g))
            nr = nilradical(g)
            assert sf.ideal == nr.basis
            # direct sum decomposition
            assert len(row_space_basis(list(sf.complement) + list(sf.ideal), g.dim)) == g.dim
            # complement abelian, ideal abelian
            for u in sf.complement:
                for v in sf.complement:
                    assert is_zero_vec(g.bracket(u, v))
            for u in sf.ideal:
                for v in sf.ideal:
                    assert is_zero_vec(g.bracket(u, v))
            # the action matrices are the restricted adjoints
            for h_vec, mat in zip(sf.complement, sf.action):
                for col, v in enumerate(sf.ideal):
                    w = g.bracket(h_vec, v)
                    lifted = tuple(sum((mat[(r, col)] * sf.ideal[r][t]
                                        for r in range(len(sf.ideal))), F(0))
                                   for t in range(g.dim))
                    assert w == lifted


class TestHullData:
    def test_sol_action_data(self, sol):
        h = hull_action_data(build_splittable_hull(sol))
        assert h.torus_derivations == (Mat.diag([0, 1, -1]),)
        assert h.finite_generators == ()
        assert all(is_zero_vec(h.u.c[i][j]) for i in range(3) for j in range(3))

    def test_abelian_no_derivations(self, abelian3):
        h = hull_action_data(build_splittable_hull(abelian3))
        assert h.torus_derivations == ()

    def test_almost_abelian_block_derivation(self):
        g = almost_abelian_algebra(1, 1)
        h = hull_action_data(build_splittable_hull(g))
        assert len(h.torus_derivations) == 1
        d = h.torus_derivations[0]
        expected = Mat([
            [0, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, -1, 0, 0, 0],
            [0, 0, 0, 0, -1, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 0],
        ])
        assert d == expected

    def test_validate_rejects_non_nilpotent(self, sol):
        with pytest.raises(StructureError):
            validate_hull_data(HullData(sol, (), ()))

    def test_validate_rejects_non_derivation(self, heisenberg):
        bad = Mat.diag([1, 1, 1])  # identity is not a derivation of Heisenberg
        with pytest.raises(StructureError):
            validate_hull_data(HullData(heisenberg, (bad,), ()))

    def test_validate_rejects_bracket_breaking_generator(self, heisenberg):
        bad = Mat.diag([1, -1, 1])  # sends [x1,x2]=x3 to -x3 but fixes x3
        with pytest.raises(StructureError):
            validate_hull_data(HullData(heisenberg, (), (bad,)))

    def test_finite_group_enumeration(self, heisenberg):
        gen = Mat.diag([1, -1, -1])
        group = enumerate_finite_group([gen])
        assert len(group) == 2

    def test_finite_bound_enforced(self, abelian3):
        shift = Mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]])  # infinite order
        with pytest.raises(PreconditionError):
            enumerate_finite_group([shift], bound=50)


def reference_supplement(g):
    """The Fitting reduction with every round on an induced copy of g, its
    brackets read by solve and its own nilradical computed."""
    rows = [unit_vec(g.dim, i) for i in range(g.dim)]
    while True:
        span = Mat.from_cols(rows, rows=g.dim)
        table = tuple(tuple(solve(span, g.bracket(u, v)) for v in rows) for u in rows)
        sub = LieAlgebra(len(rows), tuple(f"h{i + 1}" for i in range(len(rows))), table)
        if is_nilpotent(sub):
            return rows
        c = complement_directions(sub, nilradical(sub))[0]
        null = kernel_basis(ad_matrix(sub, unit_vec(sub.dim, c)).power(sub.dim))
        lifted = []
        for v in null:
            acc = zero_vec(g.dim)
            for coeff, row in zip(v, rows):
                acc = vadd(acc, vscale(coeff, row))
            lifted.append(acc)
        rows = row_space_basis(lifted, g.dim)


def reference_hull_parts(g):
    """d_matrices, imf_basis and nbar by projecting to g mod the nilradical.

    Lifts are taken greedily: a supplement row is kept when its projection
    enlarges the span of the kept ones.  The quotient coordinates of e_i
    solve a system in the projected lifts.  The nilshadow bracket of
    v_i = e_i - d_(e_i) is [e_i, e_j] - d_(e_i) e_j + d_(e_j) e_i.
    """
    n = g.dim
    nr = nilradical(g)
    comp = complement_directions(g, nr)
    k = len(comp)

    def proj(v):
        residual = reduce_against(nr.basis, v)
        return tuple(residual[c] for c in comp)

    lifts, span = [], []
    for row in reference_supplement(g):
        extended = row_space_basis(span + [proj(row)], k)
        if len(extended) > len(span):
            lifts.append(row)
            span = extended
    d_lift = [jordan_chevalley(ad_matrix(g, v)).s for v in lifts]
    proj_mat = Mat.from_cols([proj(v) for v in lifts], rows=k)
    d_mats = []
    for i in range(n):
        gamma = solve(proj_mat, proj(unit_vec(n, i))) if k else ()
        acc = Mat.zero(n, n)
        for coeff, d in zip(gamma, d_lift):
            acc = acc + coeff * d
        d_mats.append(acc)
    imf = tuple(Mat.unflatten(row, n, n)
                for row in row_space_basis([d.flatten() for d in d_lift], n * n))
    table = tuple(tuple(vadd(g.c[i][j], vadd(vscale(-1, d_mats[i].col(j)), d_mats[j].col(i)))
                        for j in range(n)) for i in range(n))
    return tuple(d_mats), imf, LieAlgebra(n, g.basis_names, table)


def _sol_squared():
    return LieAlgebra.from_brackets(6, {(0, 1): unit_vec(6, 1), (0, 2): vscale(-1, unit_vec(6, 2)),
                                        (3, 4): unit_vec(6, 4), (3, 5): vscale(-1, unit_vec(6, 5))})


def _reference_inputs():
    # sol x sol needs the nilradical of a Fitting round past the first;
    # each algebra is also taken in a random unimodular basis
    drawn = [(f"seed{seed}", random_split_solvable(random.Random(seed), max_block_pairs=3))
             for seed in range(8)]
    for name, g in drawn + [("sol_squared", _sol_squared())]:
        yield pytest.param(g, id=name)
        p, p_inv = random_unimodular(random.Random(name), g.dim)
        yield pytest.param(change_basis(g, p, p_inv), id=f"{name}-rebased")


@pytest.mark.parametrize("g", _reference_inputs())
def test_hull_matches_projection_reference(g):
    hull = build_splittable_hull(g)
    d_mats, imf, nbar = reference_hull_parts(g)
    assert hull.d_matrices == d_mats
    assert hull.imf_basis == imf
    assert hull.nbar == nbar
    # split inputs: in a rebased sol x sol the complement needs its correction
    assert recognize_split_form(g, hull) is not None
