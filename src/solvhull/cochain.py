"""Chevalley-Eilenberg cochain complexes with exact rational cohomology.

Exterior forms are stored sparsely as maps from sorted index subsets to
rational coefficients.  The differential on degree one is
d xi^k = - sum_{i<j} c_ij^k xi^i wedge xi^j, extended as an antiderivation;
this sign convention makes a bracket [t, x] = a x produce dx = -a t^x.
Per-degree bases are the lexicographically ordered index subsets, so all
matrices, kernels and representatives are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Protocol, Sequence

from .errors import PreconditionError, StructureError
from .lie import LieAlgebra
from .linalg import (
    QQ,
    Mat,
    Scalar,
    Vec,
    in_row_space,
    is_zero_vec,
    kernel_basis,
    qq,
    row_space_basis,
    solve,
    vadd,
    zero_vec,
)

Indices = tuple[int, ...]


def _merge_sign(s: Indices, t: Indices) -> int:
    """Sign of sorting the concatenation of two disjoint sorted tuples."""
    inversions = 0
    for b in t:
        inversions += sum(1 for a in s if a > b)
    return -1 if inversions % 2 else 1


@dataclass(frozen=True)
class ExteriorForm:
    """Homogeneous exterior form: degree and sparse subset -> coefficient map.

    Terms are kept sorted with no zero coefficients, so equal forms
    compare and hash equal.
    """

    degree: int
    terms: tuple[tuple[Indices, QQ], ...]

    @staticmethod
    def make(degree: int, data: Mapping[Indices, QQ] | Iterable[tuple[Indices, QQ]]) -> "ExteriorForm":
        items = data.items() if isinstance(data, Mapping) else data
        acc: dict[Indices, QQ] = {}
        for idx, coeff in items:
            idx = tuple(idx)
            if len(idx) != degree:
                raise StructureError(f"term {idx} does not have degree {degree}")
            if len(set(idx)) != len(idx) or list(idx) != sorted(idx):
                raise StructureError(f"term indices {idx} must be strictly increasing")
            acc[idx] = acc.get(idx, QQ(0)) + qq(coeff)
        cleaned = tuple(sorted((k, v) for k, v in acc.items() if v != 0))
        return ExteriorForm(degree, cleaned)

    @staticmethod
    def zero(degree: int) -> "ExteriorForm":
        return ExteriorForm(degree, ())

    @staticmethod
    def monomial(indices: Sequence[int], coeff: Scalar = 1) -> "ExteriorForm":
        return ExteriorForm.make(len(indices), [(tuple(indices), qq(coeff))])

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, indices: Indices) -> QQ:
        for idx, c in self.terms:
            if idx == indices:
                return c
        return QQ(0)

    def __add__(self, other: "ExteriorForm") -> "ExteriorForm":
        if self.degree != other.degree:
            raise StructureError("cannot add forms of different degree")
        return ExteriorForm.make(self.degree, list(self.terms) + list(other.terms))

    def __sub__(self, other: "ExteriorForm") -> "ExteriorForm":
        return self + other.scale(-1)

    def scale(self, c: Scalar) -> "ExteriorForm":
        c = qq(c)
        if c == 0:
            return ExteriorForm.zero(self.degree)
        return ExteriorForm(self.degree, tuple((idx, c * v) for idx, v in self.terms))


def wedge(a: ExteriorForm, b: ExteriorForm) -> ExteriorForm:
    """Exterior product with the shuffle sign; overlapping indices cancel."""
    out: dict[Indices, QQ] = {}
    for sa, ca in a.terms:
        set_a = set(sa)
        for sb, cb in b.terms:
            if set_a & set(sb):
                continue
            sign = _merge_sign(sa, sb)
            key = tuple(sorted(sa + sb))
            out[key] = out.get(key, QQ(0)) + sign * ca * cb
    return ExteriorForm.make(a.degree + b.degree, out)


def wedge_power(a: ExteriorForm, k: int) -> ExteriorForm:
    out = ExteriorForm.monomial(())
    for _ in range(k):
        out = wedge(out, a)
    return out


class ComplexLike(Protocol):
    """What cohomology and cup products need from a cochain complex."""

    dim: int

    def space_dim(self, k: int) -> int: ...

    def dmat(self, k: int) -> Mat: ...

    def form(self, k: int, coords: Vec) -> ExteriorForm: ...

    def wedge_coords(self, p: int, u: Vec, q: int, v: Vec) -> Vec: ...


class CochainComplex:
    """Full Chevalley-Eilenberg complex of a Lie algebra.

    Bases are lexicographic index subsets per degree; differentials are
    dense matrices between consecutive degrees; d o d = 0 is verified
    exactly at construction time.
    """

    def __init__(self, algebra: LieAlgebra, diff: Sequence[Mat], bases: Sequence[tuple[Indices, ...]]):
        self.algebra = algebra
        self.dim = algebra.dim
        self._bases = list(bases)
        self._diff = list(diff)
        self._index = [
            {idx: pos for pos, idx in enumerate(basis)} for basis in self._bases
        ]
        self._coh_cache: dict[int, tuple[Vec, ...]] = {}

    def basis(self, k: int) -> tuple[Indices, ...]:
        if not 0 <= k <= self.dim:
            return ()
        return self._bases[k]

    def space_dim(self, k: int) -> int:
        return len(self.basis(k))

    def dmat(self, k: int) -> Mat:
        """Differential from degree k to degree k + 1."""
        if not 0 <= k <= self.dim:
            return Mat.zero(0, 0)
        return self._diff[k]

    def coords(self, form: ExteriorForm) -> Vec:
        lookup = self._index[form.degree]
        out = [QQ(0)] * len(lookup)
        for idx, c in form.terms:
            out[lookup[idx]] = c
        return tuple(out)

    def form(self, k: int, coords: Vec) -> ExteriorForm:
        basis = self.basis(k)
        return ExteriorForm.make(k, {idx: c for idx, c in zip(basis, coords) if c != 0})

    def d_form(self, form: ExteriorForm) -> ExteriorForm:
        k = form.degree
        if k >= self.dim:
            return ExteriorForm.zero(k + 1)
        return self.form(k + 1, self.dmat(k).apply(self.coords(form)))

    def wedge_coords(self, p: int, u: Vec, q: int, v: Vec) -> Vec:
        w = wedge(self.form(p, u), self.form(q, v))
        if w.degree > self.dim:
            return ()
        return self.coords(w)


def ce_complex(g: LieAlgebra) -> CochainComplex:
    """Build the cochain complex of g and verify d o d = 0 exactly.

    A failure of d^2 = 0 names the offending basis form; it means the
    structure constants violate the Jacobi identity.
    """
    n = g.dim
    bases: list[tuple[Indices, ...]] = [tuple(combinations(range(n), k)) for k in range(n + 1)]
    index_maps = [{idx: pos for pos, idx in enumerate(b)} for b in bases]

    d_one = []
    for k in range(n):
        terms: dict[Indices, QQ] = {}
        for i in range(n):
            for j in range(i + 1, n):
                cijk = g.c[i][j][k]
                if cijk != 0:
                    terms[(i, j)] = terms.get((i, j), QQ(0)) - cijk
        d_one.append(ExteriorForm.make(2, terms))

    def d_monomial(idx: Indices) -> ExteriorForm:
        out = ExteriorForm.zero(len(idx) + 1)
        for t, gen in enumerate(idx):
            sign = -1 if t % 2 else 1
            piece = wedge(ExteriorForm.monomial(idx[:t], sign), d_one[gen])
            piece = wedge(piece, ExteriorForm.monomial(idx[t + 1:]))
            out = out + piece
        return out

    diff: list[Mat] = []
    for k in range(n + 1):
        cols = []
        target = index_maps[k + 1] if k + 1 <= n else {}
        for idx in bases[k]:
            if k == n:
                cols.append(())
                continue
            img = d_monomial(idx)
            col = [QQ(0)] * len(target)
            for sub, c in img.terms:
                col[target[sub]] = c
            cols.append(tuple(col))
        rows = len(bases[k + 1]) if k + 1 <= n else 0
        diff.append(Mat.from_cols(cols, rows=rows) if cols else Mat.zero(rows, 0))

    cx = CochainComplex(g, diff, bases)
    for k in range(n):
        prod = cx.dmat(k + 1) @ cx.dmat(k)
        if not prod.is_zero():
            bad = next(
                j for j in range(prod.cols) if not is_zero_vec(prod.col(j))
            )
            name = "^".join(g.basis_names[i] for i in bases[k][bad])
            raise StructureError(
                f"d o d is nonzero on {name}; the bracket violates the Jacobi identity")
    return cx


@dataclass(frozen=True)
class CohomologyBasis:
    """Representative cocycles of H^k with projection data.

    reps are coordinate vectors of closed forms, linearly independent
    modulo exact forms, chosen deterministically from the kernel basis.
    express() writes any cocycle as a combination of the representatives
    plus an explicit primitive for its exact part.
    """

    complex: ComplexLike
    degree: int
    reps: tuple[Vec, ...]

    @property
    def betti(self) -> int:
        return len(self.reps)

    def rep_forms(self) -> tuple[ExteriorForm, ...]:
        return tuple(self.complex.form(self.degree, v) for v in self.reps)

    def express(self, v: Vec) -> tuple[Vec, Vec]:
        """Coefficients over the representatives and a primitive.

        Given a closed v, returns (coeffs, eta) with
        v = sum coeffs_i rep_i + d eta, both exact.  Raises if v is not a
        cocycle (then it is not in the span of reps and exact forms).
        """
        k = self.degree
        below = self.complex.dmat(k - 1) if k >= 1 else None
        cols = list(self.reps)
        nb = below.cols if below is not None else 0
        if below is not None:
            cols.extend(below.col(j) for j in range(nb))
        if not cols:
            if is_zero_vec(v):
                return (), ()
            raise PreconditionError("vector is not a cocycle in this degree")
        sol = solve(Mat.from_cols(cols, rows=len(v)), v)
        if sol is None:
            raise PreconditionError("vector is not a cocycle in this degree")
        coeffs = sol[: len(self.reps)]
        eta = sol[len(self.reps):]
        return coeffs, eta

    def class_of(self, v: Vec) -> "CohomologyClass":
        coeffs, _ = self.express(v)
        return CohomologyClass(self.complex, self.degree, coeffs)


def cohomology(cx: ComplexLike, k: int) -> CohomologyBasis:
    """Kernel-modulo-image basis in degree k, deterministically chosen.

    Representatives are the kernel basis vectors that are independent
    modulo the image of the previous differential, scanned in order.
    A complex's ``_coh_cache`` keeps the representatives only: a cached
    CohomologyBasis would point back at the complex and form a cycle.
    """
    cache = getattr(cx, "_coh_cache", None)
    if cache is not None and k in cache:
        return CohomologyBasis(cx, k, cache[k])
    nk = cx.space_dim(k)
    cocycles = kernel_basis(cx.dmat(k)) if nk else []
    if k >= 1 and cx.space_dim(k - 1):
        prev = cx.dmat(k - 1)
        image = row_space_basis([prev.col(j) for j in range(prev.cols)], nk)
    else:
        image = []
    reps: list[Vec] = []
    span = list(image)  # kept in reduced echelon form
    for z in cocycles:
        if not in_row_space(span, z):
            reps.append(z)
            span = row_space_basis(span + [z], nk)
    if cache is not None:
        cache[k] = tuple(reps)
    return CohomologyBasis(cx, k, tuple(reps))


def betti_numbers(cx: ComplexLike) -> tuple[int, ...]:
    return tuple(cohomology(cx, k).betti for k in range(cx.dim + 1))


@dataclass(frozen=True)
class CohomologyClass:
    """Element of H^k in the coordinates of its CohomologyBasis."""

    complex: ComplexLike
    degree: int
    coeffs: Vec

    def representative(self) -> Vec:
        reps = cohomology(self.complex, self.degree).reps
        out = zero_vec(self.complex.space_dim(self.degree))
        for c, rep in zip(self.coeffs, reps):
            if c != 0:
                out = vadd(out, tuple(c * x for x in rep))
        return out

    def representative_form(self) -> ExteriorForm:
        return self.complex.form(self.degree, self.representative())

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def cup(cx: ComplexLike, a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
    """Cup product: wedge representatives and project back to cohomology."""
    k = a.degree + b.degree
    target = cohomology(cx, k)
    if k > cx.dim:
        return CohomologyClass(cx, k, ())
    prod = cx.wedge_coords(a.degree, a.representative(), b.degree, b.representative())
    coeffs, _ = target.express(prod)
    return CohomologyClass(cx, k, coeffs)
