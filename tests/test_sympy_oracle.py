"""Exact linear algebra cross-checked against sympy, an independent oracle.

Runs on the 200 random matrices of acceptance criterion 5 (seed 2024):
char_poly, rank and the kernel dimension are compared with sympy's, and
the semisimple part of jordan_chevalley is checked in sympy arithmetic.
Skipped where sympy is not installed.
"""

import pytest

sympy = pytest.importorskip("sympy")

from solvhull.hull import jordan_chevalley  # noqa: E402
from solvhull.linalg import char_poly, kernel_basis, rank  # noqa: E402

from conftest import jordan_suite_matrices  # noqa: E402

X = sympy.Symbol("x")
MATRICES = [m for m, _ in jordan_suite_matrices()]


def _rational(q):
    return sympy.Rational(q.numerator, q.denominator)


def _sym(m):
    return sympy.Matrix(m.rows, m.cols, lambda i, j: _rational(m[i, j]))


def _at_matrix(poly, a):
    """poly(a) by Horner's rule in sympy matrix arithmetic."""
    acc = sympy.zeros(a.rows, a.rows)
    for c in poly.all_coeffs():
        acc = acc * a + c * sympy.eye(a.rows)
    return acc


def test_char_poly_rank_and_kernel_match_sympy():
    for m in MATRICES:
        sm = _sym(m)
        ours = [_rational(c) for c in reversed(char_poly(m).coeffs)]
        assert ours == sm.charpoly(X).all_coeffs()
        assert rank(m) == sm.rank()
        kernel = kernel_basis(m)
        assert len(kernel) == len(sm.nullspace())
        for v in kernel:
            assert sm * sympy.Matrix([_rational(x) for x in v]) == sympy.zeros(m.rows, 1)


def test_semisimple_part_in_sympy_arithmetic():
    # s commutes with m, m - s is nilpotent, and the squarefree part of
    # s's characteristic polynomial annihilates s
    for m in MATRICES:
        sm, s = _sym(m), _sym(jordan_chevalley(m).s)
        n = m.rows
        assert s * sm == sm * s
        assert (sm - s) ** n == sympy.zeros(n, n)
        squarefree = sympy.Poly(sympy.sqf_part(s.charpoly(X).as_expr()), X)
        assert _at_matrix(squarefree, s) == sympy.zeros(n, n)
