"""Shared algebra builders and helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Sequence

import pytest

from solvhull import LieAlgebra, Mat
from solvhull.fixtures import fixture
from solvhull.hull import jordan_chevalley
from solvhull.iodoc import algebra_of
from solvhull.lie import Subspace, ad_matrix
from solvhull.linalg import unit_vec, vadd, zero_vec


@pytest.fixture
def heisenberg() -> LieAlgebra:
    return algebra_of(fixture("heisenberg"))


@pytest.fixture
def sol() -> LieAlgebra:
    return algebra_of(fixture("sol"))


@pytest.fixture
def rotation() -> LieAlgebra:
    return algebra_of(fixture("rotation"))


@pytest.fixture
def filiform4() -> LieAlgebra:
    return algebra_of(fixture("filiform4"))


@pytest.fixture
def kodaira_thurston() -> LieAlgebra:
    return algebra_of(fixture("kodaira_thurston"))


@pytest.fixture
def abelian3() -> LieAlgebra:
    return algebra_of(fixture("abelian", {"n": 3}))


def almost_abelian_algebra(m=1, n=1, a=None, b=None) -> LieAlgebra:
    params = {"m": m, "n": n}
    if a is not None:
        params["a"] = a
    if b is not None:
        params["b"] = b
    return algebra_of(fixture("almost_abelian", params))


def sl2() -> LieAlgebra:
    return LieAlgebra.from_brackets(3, {
        (0, 1): [0, 2, 0],
        (0, 2): [0, 0, -2],
        (1, 2): [1, 0, 0],
    }, names=("h", "e", "f"))


def random_matrix(rng: random.Random, n: int, span: int = 3) -> Mat:
    return Mat([[Fraction(rng.randint(-span, span)) for _ in range(n)] for _ in range(n)])


def jordan_suite_matrices():
    """The 200 random matrices of acceptance criterion 5 (seed 2024), up to 8x8.

    Each comes with a probe matrix whose characteristic polynomial,
    evaluated at the first, gives an element of its commutant.
    """
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(1, 8)
        m = Mat([[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
        probe = Mat([[Fraction(rng.randint(-1, 1)) for _ in range(n)] for _ in range(n)])
        yield m, probe


def random_vector(rng: random.Random, n: int, span: int = 3):
    return tuple(Fraction(rng.randint(-span, span)) for _ in range(n))


def change_basis(g: LieAlgebra, p: Mat, p_inv: Mat) -> LieAlgebra:
    """Structure constants of g in the basis e'_i = sum_j p[j][i] e_j."""
    n = g.dim
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            w = g.bracket(p.col(i), p.col(j))
            table[i][j] = p_inv.apply(w)
    return LieAlgebra(n, g.basis_names, tuple(tuple(row) for row in table))


def random_unimodular(rng: random.Random, n: int) -> tuple[Mat, Mat]:
    """Random integer matrix with determinant +-1, with its inverse."""
    lower = [[Fraction(1) if i == j else
              (Fraction(rng.randint(-2, 2)) if i > j else Fraction(0))
              for j in range(n)] for i in range(n)]
    upper = [[Fraction(1) if i == j else
              (Fraction(rng.randint(-2, 2)) if i < j else Fraction(0))
              for j in range(n)] for i in range(n)]
    p = Mat(lower) @ Mat(upper)
    from solvhull.linalg import Mat as _Mat, solve

    cols = [solve(p, unit_vec(n, i)) for i in range(n)]
    p_inv = _Mat.from_cols(cols, rows=n)
    return p, p_inv


def random_split_solvable(rng: random.Random, max_block_pairs: int = 2) -> LieAlgebra:
    """Random solvable algebra of split semisimple type, in a scrambled basis.

    One generator acts on an abelian ideal by a block matrix of real
    weights and rotation blocks; the whole algebra is then conjugated by
    a random unimodular matrix so that nothing is axis-aligned.
    """
    blocks = []
    for _ in range(rng.randint(1, max_block_pairs)):
        if rng.random() < 0.5:
            w = Fraction(rng.randint(1, 3), rng.randint(1, 2))
            blocks.append([[w]])
        else:
            b = Fraction(rng.randint(1, 2))
            blocks.append([[Fraction(0), -b], [b, Fraction(0)]])
    m = sum(len(b) for b in blocks)
    dim = m + 1
    act = [[Fraction(0)] * m for _ in range(m)]
    pos = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                act[pos + i][pos + j] = x
        pos += len(b)
    brackets = {}
    for j in range(m):
        col = tuple(act[i][j] for i in range(m))
        brackets[(0, 1 + j)] = zero_vec(1) + col
    g = LieAlgebra.from_brackets(dim, brackets)
    p, p_inv = random_unimodular(rng, dim)
    return change_basis(g, p, p_inv)


def semisimple_parts_add_on_nilradical(
    g: LieAlgebra,
    nr: Subspace,
    d_mats: Optional[Sequence[Mat]] = None,
) -> bool:
    """Check d_{e_i + e_j} = d_{e_i} + d_{e_j} as operators on the nilradical.

    The semisimple parts of two adjoints need not add as full matrices
    (ad of a sum can already be semisimple while the summands' parts are
    not its decomposition), but restricted to the nilradical the adjoint
    actions commute whenever the construction applies, and commuting
    operators have additive semisimple parts.  This is the exact content
    used by the splittable hull.
    """
    n = g.dim
    if d_mats is None:
        d_mats = [jordan_chevalley(ad_matrix(g, unit_vec(n, i))).s for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = vadd(unit_vec(n, i), unit_vec(n, j))
            d_sum = jordan_chevalley(ad_matrix(g, x)).s
            expected = d_mats[i] + d_mats[j]
            for v in nr.basis:
                if d_sum.apply(v) != expected.apply(v):
                    return False
    return True
