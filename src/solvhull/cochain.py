"""Chevalley-Eilenberg cochain complexes with exact rational cohomology.

Exterior forms are stored sparsely as maps from sorted index subsets to
rational coefficients.  The differential on degree one is
d xi^k = - sum_{i<j} c_ij^k xi^i wedge xi^j, extended as an antiderivation;
this sign convention makes a bracket [t, x] = a x produce dx = -a t^x.
Per-degree bases are the lexicographically ordered index subsets, so all
matrices, kernels and representatives are reproducible.

Products work on coordinates.  A basis form xi^S is the bitmask of S;
xi^S ^ xi^T is zero when the masks meet and otherwise (-1)^N xi^(S | T),
N the number of pairs s in S, t in T with s > t.  N is odd exactly when
an odd number of elements s of S have an odd number of elements of T
below them, so one AND and one popcount give the sign from a mask
computed once per term of T.  Coefficients are scaled to integer numerators over one
common denominator per factor, only nonzero pairs are multiplied, and
each nonzero output is reduced to a Fraction once.  The same kernel
builds the differentials, the derivation and pullback matrices, and the
ExteriorForm wedge.  Each complex memoizes its cohomology, one
elimination per degree, and its cup products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Optional, Protocol, Sequence, TypeVar

from .errors import PreconditionError, StructureError
from .lie import LieAlgebra
from .linalg import (
    QQ,
    Chart,
    Mat,
    Scalar,
    Vec,
    dense_vec,
    int_terms,
    kernel_basis,
    qq,
    rank,
    rref,
)

Indices = tuple[int, ...]
Coeff = TypeVar("Coeff", int, Fraction)
# a form as (D, [(subset bitmask, numerator)]): coefficients numerator / D
SparseForm = tuple[int, list[tuple[int, int]]]

_ZERO = QQ(0)


def _mask(idx: Iterable[int]) -> int:
    m = 0
    for i in idx:
        m |= 1 << i
    return m


def _indices(mask: int) -> Indices:
    # from a list: a tuple built from a generator is resized in place, and
    # the resized blocks pile up in the interpreter's small-tuple free lists
    return tuple([i for i in range(mask.bit_length()) if mask >> i & 1])


def _odd_below(mask: int) -> int:
    """Bits with an odd number of the mask's elements strictly below them.

    Each element t contributes the bits above t, -(2 << t) in two's
    complement; the result is negative when the mask has odd size.
    """
    out = 0
    while mask:
        low = mask & -mask
        out ^= -(low << 1)
        mask ^= low
    return out


def _wedge_masks(a: Iterable[tuple[int, Coeff]],
                 b: Iterable[tuple[int, Coeff]]) -> dict[int, Coeff]:
    """Product of two forms given as (subset bitmask, coefficient) pairs.

    The shuffle sign of xi^S ^ xi^T is -1 exactly when an odd number of
    elements of S have an odd number of elements of T below them.
    Entries may cancel to zero.
    """
    out: dict[int, Coeff] = {}
    right = [(mb, cb, _odd_below(mb)) for mb, cb in b]
    for ma, ca in a:
        for mb, cb, below in right:
            if ma & mb:
                continue
            m = ma | mb
            if (ma & below).bit_count() & 1:
                out[m] = out.get(m, 0) - ca * cb
            else:
                out[m] = out.get(m, 0) + ca * cb
    return out


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
    out = _wedge_masks([(_mask(idx), c) for idx, c in a.terms],
                       [(_mask(idx), c) for idx, c in b.terms])
    return ExteriorForm(a.degree + b.degree,
                        tuple(sorted((_indices(m), c) for m, c in out.items() if c)))


class ComplexLike(Protocol):
    """What cohomology, cup products and the certificates read from a complex.

    CochainComplex and the invariant models implement it, and inherit
    dims() and has_zero_differential() from it.  Each starts with two
    empty caches: _coh_cache holds, per degree, the representatives, the
    pivot columns of d_(k-1) and, once express() made it, the chart;
    _cup_memo holds cup products by degrees and coefficients.  Neither
    holds objects that point back at the complex.
    """

    dim: int
    _coh_cache: dict[int, tuple[tuple[Vec, ...], tuple[int, ...], Optional[Chart]]]
    _cup_memo: dict[tuple[int, Vec, int, Vec], Vec]

    def space_dim(self, k: int) -> int: ...

    def dmat(self, k: int) -> Mat: ...

    def form(self, k: int, coords: Vec) -> ExteriorForm: ...

    def restrict_form(self, form: ExteriorForm) -> Optional[Vec]:
        """Coordinates of a form in this complex, or None if it lies outside."""
        ...

    def wedge_coords(self, p: int, u: Vec, q: int, v: Vec) -> Vec: ...

    def dims(self) -> tuple[int, ...]:
        return tuple(self.space_dim(k) for k in range(self.dim + 1))

    def has_zero_differential(self) -> bool:
        return all(self.dmat(k).is_zero() for k in range(self.dim + 1))


class CochainComplex(ComplexLike):
    """Full Chevalley-Eilenberg complex of a Lie algebra.

    Bases are lexicographic index subsets per degree; the differentials
    are matrices between consecutive degrees, built from the images of
    the degree-one generators by the coordinate product.
    """

    def __init__(self, algebra: LieAlgebra):
        n = algebra.dim
        self.algebra = algebra
        self.dim = n
        self._bases = [tuple(combinations(range(n), k)) for k in range(n + 1)]
        self._masks = [tuple(_mask(idx) for idx in basis) for basis in self._bases]
        self._index = [{m: pos for pos, m in enumerate(masks)} for masks in self._masks]
        self._coh_cache = {}
        self._cup_memo = {}
        # d xi^k = - sum_{i<j} c_ij^k xi^i ^ xi^j
        d_one = [tuple(-algebra.c[i][j][k] for i, j in self.basis(2)) for k in range(n)]
        self._diff = [self.derivation_matrix(k, d_one, 2) for k in range(n + 1)]

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
        out = [_ZERO] * len(lookup)
        for idx, c in form.terms:
            out[lookup[_mask(idx)]] = c
        return tuple(out)

    def form(self, k: int, coords: Vec) -> ExteriorForm:
        basis = self.basis(k)
        return ExteriorForm.make(k, {idx: c for idx, c in zip(basis, coords) if c != 0})

    def restrict_form(self, form: ExteriorForm) -> Vec:
        return self.coords(form)

    def d_form(self, form: ExteriorForm) -> ExteriorForm:
        k = form.degree
        if k >= self.dim:
            return ExteriorForm.zero(k + 1)
        return self.form(k + 1, self.dmat(k).apply(self.coords(form)))

    def sparse(self, k: int, coords: Vec) -> SparseForm:
        """A k-form given in coordinates as integer numerators by bitmask."""
        den, (terms,) = int_terms([coords], self._masks[k])
        return den, terms

    def sparse_from(self, k: int, den: int, nums: Mapping[int, int]) -> SparseForm:
        """The k-form with coordinates nums[j] / den, zero elsewhere, by bitmask."""
        masks = self._masks[k]
        return den, [(masks[j], x) for j, x in nums.items() if x]

    def product(self, a: SparseForm, b: SparseForm, k: int) -> tuple[int, dict[int, int]]:
        """a ^ b of degree k as (D, numerators of its nonzero coordinates / D)."""
        index = self._index[k]
        return a[0] * b[0], {index[m]: x for m, x in _wedge_masks(a[1], b[1]).items() if x}

    def wedge_coords(self, p: int, u: Vec, q: int, v: Vec) -> Vec:
        if p + q > self.dim:
            return ()
        return dense_vec(self.space_dim(p + q),
                      *self.product(self.sparse(p, u), self.sparse(q, v), p + q))

    def _vector(self, k: int, den: int, terms: Mapping[int, int]) -> Vec:
        """Coordinates of the k-form sum of terms[mask] / den xi^mask."""
        index = self._index[k]
        return dense_vec(len(index), den, {index[m]: x for m, x in terms.items()})

    def derivation_matrix(self, k: int, images: Sequence[Vec], e: int) -> Mat:
        """Matrix from k- to (k+e-1)-forms of the derivation xi^g -> images[g].

        The images are e-forms.  With Koszul signs a derivation of degree
        e - 1 sends xi^S to the sum over the t-th element s of S of
        (-1)^t images[s] ^ xi^(S minus s): this covers the differential
        (e = 2) and degree-zero derivations (e = 1) alike.
        """
        masks = self._masks[k]
        if k + e - 1 > self.dim:
            return Mat.zero(0, len(masks))
        den, terms = int_terms(images, self._masks[e])
        cols = []
        for s in masks:
            acc: dict[int, int] = {}
            for t, g in enumerate(_indices(s)):
                for m, x in _wedge_masks(terms[g], [(s ^ 1 << g, (-1) ** t)]).items():
                    acc[m] = acc.get(m, 0) + x
            cols.append(self._vector(k + e - 1, den, acc))
        return Mat.from_cols(cols, rows=self.space_dim(k + e - 1))

    def algebra_map_matrix(self, k: int, images: Sequence[Vec]) -> Mat:
        """Matrix on k-forms of the algebra map with xi^g -> images[g].

        The images are 1-forms, and xi^S goes to the product of the
        images of its elements in increasing order.
        """
        den, terms = int_terms(images, self._masks[1])
        cols = []
        for s in self._masks[k]:
            acc: dict[int, int] = {0: 1}
            for i in _indices(s):
                acc = _wedge_masks(acc.items(), terms[i])
            cols.append(self._vector(k, den ** k, acc))
        return Mat.from_cols(cols, rows=self.space_dim(k))


def ce_complex(g: LieAlgebra) -> CochainComplex:
    """Build the cochain complex of g and verify d o d = 0 exactly.

    A failure of d^2 = 0 names the offending basis form; it means the
    structure constants violate the Jacobi identity.
    """
    cx = CochainComplex(g)
    # d(d xi^S) column by column from the nonzero entries of each d_k,
    # which are sparse: dense products would visit every entry
    cols = [_nonzero_columns(cx.dmat(k)) for k in range(g.dim + 1)]
    for k in range(g.dim):
        for j, col in enumerate(cols[k]):
            acc: dict[int, QQ] = {}
            for m, x in col:
                for i, y in cols[k + 1][m]:
                    acc[i] = acc.get(i, _ZERO) + x * y
            if any(acc.values()):
                name = "^".join(g.basis_names[i] for i in cx.basis(k)[j])
                raise StructureError(
                    f"d o d is nonzero on {name}; the bracket violates the Jacobi identity")
    return cx


def _nonzero_columns(m: Mat) -> list[list[tuple[int, QQ]]]:
    """The (row, entry) pairs of the nonzero entries of each column of m."""
    cols: list[list[tuple[int, QQ]]] = [[] for _ in range(m.cols)]
    for i, row in enumerate(m.entries):
        for j, x in enumerate(row):
            if x:
                cols[j].append((i, x))
    return cols


@dataclass(frozen=True)
class CohomologyBasis:
    """Representative cocycles of H^k with projection data.

    reps are coordinate vectors of closed forms, linearly independent
    modulo exact forms, chosen deterministically from the kernel basis.
    express() writes any cocycle as a combination of the representatives
    plus an explicit primitive for its exact part.  cohomology() makes
    it; express() reads the complex's cache entry for the degree.
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
        The solution is the one solve() gives for [reps | d_(k-1)]: the
        pivot columns of that matrix, its leftmost independent ones,
        carry a chart, and every other unknown is zero.
        """
        image_pivots, chart = self._projection()
        coords = chart.coords(v)
        if coords is None:
            raise PreconditionError("vector is not a cocycle in this degree")
        nreps = len(self.reps)
        eta = [_ZERO] * self.complex.space_dim(self.degree - 1)
        for p, c in zip(image_pivots, coords[nreps:]):
            eta[p] = c
        return coords[:nreps], tuple(eta)

    def _projection(self) -> tuple[tuple[int, ...], Chart]:
        """The image pivots cohomology() found and the chart they give.

        The pivot columns of [reps | d_(k-1)] are every representative
        (independent modulo the image) and the pivot columns of d_(k-1)
        alone (the representatives meet the image only in 0).  The chart
        is made once and kept in the degree's cache entry.
        """
        k = self.degree
        reps, image_pivots, chart = self.complex._coh_cache[k]
        if chart is None:
            below = self.complex.dmat(k - 1)
            chart = Chart(list(reps) + [below.col(p) for p in image_pivots],
                          self.complex.space_dim(k))
            self.complex._coh_cache[k] = (reps, image_pivots, chart)
        return image_pivots, chart

    def class_of(self, v: Vec) -> "CohomologyClass":
        coeffs, _ = self.express(v)
        return CohomologyClass(self.complex, self.degree, coeffs)


def cohomology(cx: ComplexLike, k: int) -> CohomologyBasis:
    """Kernel-modulo-image basis in degree k, deterministically chosen.

    Representatives are the kernel basis vectors, scanned in order, that
    are independent modulo the image of the previous differential and the
    representatives before them.  These are the pivot columns of
    [d_(k-1) | cocycles] that fall among the cocycles; the pivots among
    d_(k-1) are kept for express(), so one elimination per degree
    answers both.  The complex's _coh_cache keeps them.
    """
    if k not in cx._coh_cache:
        nk = cx.space_dim(k)
        cocycles = kernel_basis(cx.dmat(k)) if nk else []
        image: list[Vec] = []
        if k >= 1:
            prev = cx.dmat(k - 1)
            image = [prev.col(j) for j in range(prev.cols)]
        # no cocycles: the image, inside them, is zero and has no pivots
        pivots = rref(Mat.from_cols(image + cocycles, rows=nk))[1] if cocycles else ()
        n = len(image)
        cx._coh_cache[k] = (tuple(cocycles[p - n] for p in pivots if p >= n),
                            tuple(p for p in pivots if p < n), None)
    return CohomologyBasis(cx, k, cx._coh_cache[k][0])


def betti_numbers(cx: ComplexLike) -> tuple[int, ...]:
    """b_k = dim C^k - rank d_k - rank d_(k-1), with no representatives."""
    ranks = [rank(cx.dmat(k)) for k in range(cx.dim + 1)]
    return tuple(cx.space_dim(k) - ranks[k] - (ranks[k - 1] if k else 0)
                 for k in range(cx.dim + 1))


@dataclass(frozen=True)
class CohomologyClass:
    """Element of H^k in the coordinates of its CohomologyBasis."""

    complex: ComplexLike
    degree: int
    coeffs: Vec

    def representative(self) -> Vec:
        reps = cohomology(self.complex, self.degree).reps
        if len(self.coeffs) != len(reps):
            raise PreconditionError(
                f"{len(self.coeffs)} coefficients for H^{self.degree} of dimension {len(reps)}")
        out = [_ZERO] * self.complex.space_dim(self.degree)
        for c, rep in zip(self.coeffs, reps):
            if c:
                for j, x in enumerate(rep):
                    if x:
                        out[j] += c * x
        return tuple(out)

    def representative_form(self) -> ExteriorForm:
        return self.complex.form(self.degree, self.representative())

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def cup(cx: ComplexLike, a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
    """Cup product: wedge representatives and project back to cohomology.

    The complex's _cup_memo keeps each product's coefficients.
    """
    k = a.degree + b.degree
    key = (a.degree, a.coeffs, b.degree, b.coeffs)
    coeffs = cx._cup_memo.get(key)
    if coeffs is None:
        coeffs = ()
        if k <= cx.dim:
            prod = cx.wedge_coords(a.degree, a.representative(), b.degree, b.representative())
            coeffs, _ = cohomology(cx, k).express(prod)
        cx._cup_memo[key] = coeffs
    return CohomologyClass(cx, k, coeffs)
