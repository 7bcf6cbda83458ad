"""Finite-dimensional Lie algebras over Q given by structure constants.

An algebra is the data c[i][j] = coordinate vector of [e_i, e_j]; all
axiom checks (antisymmetry, Jacobi) are exact.  Series, ideals, centers
and the nilradical are computed with the rational linear algebra layer,
so identical inputs always produce identical bases.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .errors import InternalCheckError, PreconditionError, StructureError
from .linalg import (
    QQ,
    Mat,
    Scalar,
    Vec,
    in_row_space,
    is_nilpotent_matrix,
    is_zero_vec,
    kernel_basis,
    row_space_basis,
    rref,
    unit_vec,
    vadd,
    vec,
    vscale,
    zero_vec,
)

SOFT_DIM_CAP = 16
HARD_DIM_CAP = 24


@dataclass(frozen=True)
class Violation:
    """First failed axiom: which one, at which basis triple, with residual."""

    kind: str  # "antisymmetry" | "jacobi"
    indices: tuple[int, ...]
    residual: Vec

    def describe(self, names: Sequence[str]) -> str:
        where = ", ".join(names[i] for i in self.indices)
        res = "(" + ", ".join(str(x) for x in self.residual) + ")"
        return f"{self.kind} fails at ({where}): residual {res}"


@dataclass(frozen=True)
class LieAlgebra:
    """Lie algebra over Q: dimension, basis names, structure constants.

    c[i][j] is the coordinate vector of [e_i, e_j].  Construction does not
    validate the axioms; call validate() for an exact check.
    """

    dim: int
    basis_names: tuple[str, ...]
    c: tuple[tuple[Vec, ...], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise StructureError("algebra dimension must be at least 1")
        if len(self.basis_names) != self.dim:
            raise StructureError("basis name count does not match dimension")
        if len(self.c) != self.dim or any(len(ci) != self.dim for ci in self.c):
            raise StructureError("structure constant table has wrong shape")
        for ci in self.c:
            for v in ci:
                if len(v) != self.dim:
                    raise StructureError("structure constant vector has wrong length")

    @staticmethod
    def from_brackets(
        dim: int,
        brackets: Mapping[tuple[int, int], Sequence[Scalar]],
        names: Optional[Sequence[str]] = None,
    ) -> "LieAlgebra":
        """Build from sparse brackets [e_i, e_j] (0-based, i != j).

        Each unordered pair may appear once; the antisymmetric counterpart
        is filled in automatically.  Input dimensions are capped here (the
        exterior algebra stages downstream grow as 2^dim); internally
        constructed algebras such as hulls are not subject to the cap.
        """
        if dim > HARD_DIM_CAP:
            raise PreconditionError(
                f"dimension {dim} exceeds the hard cap {HARD_DIM_CAP}")
        if dim > SOFT_DIM_CAP:
            warnings.warn(
                f"dimension {dim} exceeds the soft cap {SOFT_DIM_CAP}; "
                "cochain computations may be slow", stacklevel=2)
        table = [[zero_vec(dim) for _ in range(dim)] for _ in range(dim)]
        seen: set[frozenset[int]] = set()
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise StructureError(f"bracket index ({i}, {j}) out of range")
            v = vec(coeffs)
            if len(v) != dim:
                raise StructureError(f"bracket ({i}, {j}) has a coefficient vector of wrong length")
            if i == j:
                if not is_zero_vec(v):
                    raise StructureError(f"self-bracket [e_{i}, e_{i}] must be zero")
                continue
            key = frozenset((i, j))
            if key in seen:
                raise StructureError(f"bracket for pair ({i}, {j}) specified twice")
            seen.add(key)
            table[i][j] = v
            table[j][i] = vscale(-1, v)
        if names is None:
            names = [f"e{k + 1}" for k in range(dim)]
        return LieAlgebra(dim, tuple(names), tuple(tuple(row) for row in table))

    def bracket(self, u: Vec, v: Vec) -> Vec:
        """[u, v] for coordinate vectors u, v."""
        out = list(zero_vec(self.dim))
        for i, ui in enumerate(u):
            if ui == 0:
                continue
            for j, vj in enumerate(v):
                if vj == 0:
                    continue
                cij = self.c[i][j]
                f = ui * vj
                for k, ck in enumerate(cij):
                    if ck != 0:
                        out[k] += f * ck
        return tuple(out)


@dataclass(frozen=True)
class Subspace:
    """Subspace of a Lie algebra, stored as a canonical echelon basis."""

    parent: LieAlgebra
    basis: tuple[Vec, ...]

    @staticmethod
    def span(parent: LieAlgebra, vectors: Sequence[Vec]) -> "Subspace":
        return Subspace(parent, tuple(row_space_basis(vectors, parent.dim)))

    @staticmethod
    def full(parent: LieAlgebra) -> "Subspace":
        return Subspace(parent, tuple(unit_vec(parent.dim, i) for i in range(parent.dim)))

    @staticmethod
    def zero(parent: LieAlgebra) -> "Subspace":
        return Subspace(parent, ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Vec) -> bool:
        return in_row_space(self.basis, v)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subspace)
            and self.parent is other.parent
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash(self.basis)


def validate(g: LieAlgebra) -> Optional[Violation]:
    """Exact antisymmetry and Jacobi check; None when the axioms hold.

    Reports the first violated triple together with the residual vector.
    """
    for i in range(g.dim):
        for j in range(i, g.dim):
            res = vadd(g.c[i][j], g.c[j][i])
            if not is_zero_vec(res):
                return Violation("antisymmetry", (i, j), res)
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k in range(j + 1, g.dim):
                s = vadd(
                    vadd(
                        g.bracket(unit_vec(g.dim, i), g.c[j][k]),
                        g.bracket(unit_vec(g.dim, j), g.c[k][i]),
                    ),
                    g.bracket(unit_vec(g.dim, k), g.c[i][j]),
                )
                if not is_zero_vec(s):
                    return Violation("jacobi", (i, j, k), s)
    return None


def ad_matrix(g: LieAlgebra, x: Vec) -> Mat:
    """Matrix of y -> [x, y] in the given basis."""
    if len(x) != g.dim:
        raise PreconditionError("vector length does not match algebra dimension")
    cols = [g.bracket(x, unit_vec(g.dim, j)) for j in range(g.dim)]
    return Mat.from_cols(cols, rows=g.dim)


def _bracket_span(g: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    vecs = [g.bracket(u, v) for u in a.basis for v in b.basis]
    return Subspace.span(g, vecs)


def derived_subalgebra(g: LieAlgebra) -> Subspace:
    """[g, g], the span of all basis brackets."""
    return _bracket_span(g, Subspace.full(g), Subspace.full(g))


def derived_series(g: LieAlgebra) -> list[Subspace]:
    """g, [g,g], [[g,g],[g,g]], ... until the series stabilizes."""
    series = [Subspace.full(g)]
    while True:
        nxt = _bracket_span(g, series[-1], series[-1])
        if nxt == series[-1]:
            break
        series.append(nxt)
        if nxt.dim == 0:
            break
    return series


def lower_central_series(g: LieAlgebra) -> list[Subspace]:
    """g, [g,g], [g,[g,g]], ... until the series stabilizes."""
    full = Subspace.full(g)
    series = [full]
    while True:
        nxt = _bracket_span(g, full, series[-1])
        if nxt == series[-1]:
            break
        series.append(nxt)
        if nxt.dim == 0:
            break
    return series


def is_solvable(g: LieAlgebra) -> bool:
    return derived_series(g)[-1].dim == 0


def is_nilpotent(g: LieAlgebra) -> bool:
    return lower_central_series(g)[-1].dim == 0


def first_nonzero_bracket(g: LieAlgebra) -> Optional[tuple[int, int, Vec]]:
    """The first basis pair i < j with [e_i, e_j] != 0 and that bracket;
    None exactly when g is abelian."""
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            if not is_zero_vec(g.c[i][j]):
                return i, j, g.c[i][j]
    return None


def is_ideal(g: LieAlgebra, s: Subspace) -> bool:
    """Bracket-closure test: [g, s] contained in s."""
    return all(
        s.contains(g.bracket(unit_vec(g.dim, i), v))
        for i in range(g.dim)
        for v in s.basis
    )


def center(g: LieAlgebra) -> Subspace:
    """Joint kernel of all adjoint operators."""
    stacked = [row for i in range(g.dim) for row in ad_matrix(g, unit_vec(g.dim, i)).entries]
    ker = kernel_basis(Mat.from_rows(stacked, cols=g.dim))
    return Subspace.span(g, ker)


def nilradical(g: LieAlgebra) -> Subspace:
    """The maximal nilpotent ideal {x : ad_x nilpotent} of a solvable g.

    Computed through the associative envelope A of the adjoint operators:
    in characteristic zero an adjoint ad_x of a solvable algebra is
    nilpotent exactly when trace(ad_x * b) = 0 for every b in A, so the
    nilradical is the kernel of an exact linear system.  The result is
    re-checked before returning: it must be an ideal, contain [g, g], and
    consist of ad-nilpotent vectors.
    """
    if not is_solvable(g):
        raise PreconditionError("nilradical is only computed for solvable algebras")
    n = g.dim
    ads = [ad_matrix(g, unit_vec(n, i)) for i in range(n)]
    gens = [a for a in ads if not a.is_zero()]

    # associative envelope: saturate the span of the ad operators under
    # left multiplication by them, in rounds.  A round's new members are
    # its candidates that are pivot columns of [envelope | candidates];
    # only the span matters below, not which members span it.
    env: list[Mat] = []
    candidates = gens
    while candidates:
        cols = [m.flatten() for m in env + candidates]
        pivots = rref(Mat.from_cols(cols, rows=n * n))[1]
        new = [candidates[p - len(env)] for p in pivots if p >= len(env)]
        env += new
        candidates = [a @ b for b in new for a in gens]

    if not env:
        result = Subspace.full(g)  # abelian: every adjoint vanishes
    else:
        # trace(ad_k b) = sum_ij (ad_k)_ij b_ji, over the nonzero (ad_k)_ij
        supports = [[(i, j, x) for i, row in enumerate(a.entries) for j, x in enumerate(row) if x]
                    for a in ads]
        constraint = Mat.from_rows(
            [tuple(sum((x * b.entries[j][i] for i, j, x in support), QQ(0))
                   for support in supports) for b in env],
            cols=n,
        )
        result = Subspace.span(g, kernel_basis(constraint))

    for v in result.basis:
        if not is_nilpotent_matrix(ad_matrix(g, v)):
            raise InternalCheckError("nilradical candidate contains a non-nilpotent adjoint")
    if not is_ideal(g, result):
        raise InternalCheckError("nilradical candidate is not an ideal")
    if not result.contains_subspace(derived_subalgebra(g)):
        raise InternalCheckError("nilradical candidate does not contain the derived algebra")
    return result


def complement_directions(g: LieAlgebra, s: Subspace) -> list[int]:
    """Coordinate directions spanning a complement of s.

    These are the non-pivot columns of the echelonized basis of s, in
    ascending order, so the choice is deterministic.
    """
    if not s.basis:
        return list(range(g.dim))
    _, pivots = rref(Mat.from_rows(s.basis, cols=g.dim))
    pivot_set = set(pivots)
    return [i for i in range(g.dim) if i not in pivot_set]
