"""Exact linear algebra over the rationals, plus univariate polynomials.

Everything in this module is pure and deterministic: matrices and
polynomials are immutable, all values are ``fractions.Fraction``
(arbitrary precision, canonical reduced form), and pivoting rules are
fixed so that repeated runs produce bit-identical bases.  No floating
point anywhere.  The hot kernels, ``Mat @`` and ``rref``, compute on
integer numerators and visit nonzero entries only; they return the same
canonical Fractions as the textbook dense algorithms.  A ``Chart`` reads
coordinates in a fixed set of independent vectors without solving a
system per vector; the hull, the cohomology projections and the
invariant models each keep one per basis they read from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence, TypeVar, Union

from .errors import InternalCheckError

QQ = Fraction
K = TypeVar("K")
_ZERO = Fraction(0)

Scalar = Union[int, str, Fraction]
Vec = tuple[QQ, ...]


def qq(x: Scalar) -> QQ:
    """Coerce an int, Fraction, or string like ``"3/4"`` / ``"0.5"`` to QQ."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def vec(xs: Iterable[Scalar]) -> Vec:
    return tuple(qq(x) for x in xs)


def zero_vec(n: int) -> Vec:
    return (QQ(0),) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(QQ(1) if j == i else QQ(0) for j in range(n))


def dense_vec(n: int, den: int, nums: Mapping[int, int]) -> Vec:
    """The length-n vector with entries nums[j] / den, zero elsewhere."""
    out = [_ZERO] * n
    for j, x in nums.items():
        if x:
            out[j] = Fraction(x, den)
    return tuple(out)


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vscale(c: Scalar, v: Vec) -> Vec:
    c = qq(c)
    return tuple(c * a for a in v)


def vdot(u: Vec, v: Vec) -> QQ:
    return sum((a * b for a, b in zip(u, v, strict=True)), QQ(0))


def is_zero_vec(v: Vec) -> bool:
    return all(a == 0 for a in v)


def _coerce_row(row: Sequence[Scalar]) -> Vec:
    """A row as a tuple of Fractions; rows of Fractions are not re-coerced."""
    if all(type(x) is Fraction for x in row):
        return tuple(row)
    return tuple([qq(x) for x in row])


class Mat:
    """Immutable dense matrix of rationals, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Scalar]], cols: Optional[int] = None):
        rows = tuple(_coerce_row(row) for row in entries)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        else:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            ncols = cols
        if cols is not None and cols != ncols:
            raise ValueError("column count mismatch")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Mat is immutable")

    @staticmethod
    def _raw(entries: tuple[Vec, ...], cols: int) -> "Mat":
        """Wrap rows that are already tuples of Fractions, without coercion."""
        m = object.__new__(Mat)
        object.__setattr__(m, "rows", len(entries))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", entries)
        return m

    @staticmethod
    def zero(rows: int, cols: int) -> "Mat":
        return Mat([[0] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def diag(values: Iterable[Scalar]) -> "Mat":
        vals = [qq(v) for v in values]
        n = len(vals)
        return Mat([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def from_cols(cols: Sequence[Vec], rows: Optional[int] = None) -> "Mat":
        if not cols:
            if rows is None:
                raise ValueError("empty column list needs an explicit row count")
            return Mat([[] for _ in range(rows)], cols=0)
        n = len(cols[0])
        if any(len(c) != n for c in cols):
            raise ValueError("ragged columns")
        if rows is not None and rows != n:
            raise ValueError("row count mismatch")
        return Mat([[c[i] for c in cols] for i in range(n)], cols=len(cols))

    @staticmethod
    def from_rows(rows: Sequence[Vec], cols: Optional[int] = None) -> "Mat":
        return Mat([list(r) for r in rows], cols=cols)

    def __getitem__(self, ij: tuple[int, int]) -> QQ:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> Vec:
        return self.entries[i]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.entries)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat([[a + b for a, b in zip(r, s)] for r, s in zip(self.entries, other.entries)],
                   cols=self.cols)

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat([[a - b for a, b in zip(r, s)] for r, s in zip(self.entries, other.entries)],
                   cols=self.cols)

    def __neg__(self) -> "Mat":
        return Mat([[-a for a in r] for r in self.entries], cols=self.cols)

    def __rmul__(self, c: Scalar) -> "Mat":
        c = qq(c)
        return Mat([[c * a for a in r] for r in self.entries], cols=self.cols)

    def __mul__(self, c: Scalar) -> "Mat":
        return self.__rmul__(c)

    def __matmul__(self, other: "Mat") -> "Mat":
        """Product over integer numerators, visiting nonzero entries only.

        Each factor is scaled to integers over one common denominator, so
        the inner loop is integer arithmetic and each nonzero output entry
        is reduced to a Fraction once.
        """
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        da, left = int_terms(self.entries)
        db, right = int_terms(other.entries)
        den = da * db
        ncols = other.cols
        out = []
        for row in left:
            acc = [0] * ncols
            for k, a in row:
                for j, b in right[k]:
                    acc[j] += a * b
            out.append(tuple(Fraction(v, den) if v else _ZERO for v in acc))
        return Mat._raw(tuple(out), ncols)

    def apply(self, v: Vec) -> Vec:
        """Matrix-vector product."""
        if self.cols != len(v):
            raise ValueError("dimension mismatch in apply")
        support = [(j, x) for j, x in enumerate(v) if x]
        return tuple(sum((r[j] * x for j, x in support if r[j]), _ZERO) for r in self.entries)

    def trace(self) -> QQ:
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), QQ(0))

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.entries for a in r)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def power(self, k: int) -> "Mat":
        if not self.is_square():
            raise ValueError("power of non-square matrix")
        out = Mat.identity(self.rows)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return out

    def flatten(self) -> Vec:
        return tuple(a for r in self.entries for a in r)

    @staticmethod
    def unflatten(v: Vec, rows: int, cols: int) -> "Mat":
        if len(v) != rows * cols:
            raise ValueError("length mismatch in unflatten")
        return Mat([v[i * cols:(i + 1) * cols] for i in range(rows)], cols=cols)

    def commutes_with(self, other: "Mat") -> bool:
        return self @ other == other @ self

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def _same_shape(self, other: "Mat") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    def __repr__(self) -> str:
        rows = "; ".join(" ".join(str(a) for a in r) for r in self.entries)
        return f"Mat[{self.rows}x{self.cols}: {rows}]"


def int_terms(rows: Sequence[Vec], keys: Optional[Sequence[K]] = None,
              ) -> tuple[int, list[list[tuple[K, int]]]]:
    """(D, rows) with the nonzero entries of each row as (key, numerator)
    pairs, each entry being numerator / D for the least common denominator
    D of all entries; the key of column j is keys[j], by default j."""
    den = lcm(*{x.denominator for row in rows for x in row})
    if keys is None:
        keys = range(max(map(len, rows), default=0))
    return den, [[(keys[j], x.numerator * (den // x.denominator)) for j, x in enumerate(row) if x]
                 for row in rows]


def _int_row(row: Vec) -> list[int]:
    """A rational row scaled by the lcm of its denominators to integers."""
    den = lcm(*{x.denominator for x in row})
    return [x.numerator * (den // x.denominator) if x else 0 for x in row]


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form with the pivot column indices.

    Pivot selection is the first row with a nonzero entry in the leftmost
    unresolved column: canonical, hence reproducible.  Elimination is
    fraction-free on integer rows (each a rational multiple of a row of
    the reduced form) and only touches the nonzero columns of the pivot
    row when the pivot is 1; the pivots are divided out at the end.
    """
    nrows, ncols = m.rows, m.cols
    rows = [_int_row(r) for r in m.entries]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        g = gcd(*prow)
        if prow[c] < 0:
            g = -g
        if g != 1:
            prow[:] = [x // g for x in prow]
        pv = prow[c]
        support = [j for j in range(c, ncols) if prow[j]]
        for i, row in enumerate(rows):
            f = row[c]
            if i == r or not f:
                continue
            if pv == 1:
                for j in support:
                    row[j] -= f * prow[j]
                continue
            # row <- (pv * row - f * prow) / content, kept integral
            h = gcd(pv, f)
            scale, f = pv // h, f // h
            row[:] = [scale * x for x in row]
            for j in support:
                row[j] -= f * prow[j]
            h = gcd(*row)
            if h > 1:
                row[:] = [x // h for x in row]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    # rows past the pivots are zero; the others are divided by their pivot
    out = [tuple(Fraction(x, row[p]) if x else _ZERO for x in row) for row, p in zip(rows, pivots)]
    out += [(_ZERO,) * ncols] * (nrows - len(pivots))
    return Mat._raw(tuple(out), ncols), tuple(pivots)


def rank(m: Mat) -> int:
    """Exact rank over the rationals."""
    return len(rref(m)[1])


def kernel_basis(m: Mat) -> list[Vec]:
    """Deterministic basis of the null space {v : m v = 0}.

    One basis vector per free column of the reduced echelon form, free
    columns taken in ascending index order; the zero matrix therefore
    yields the standard basis.
    """
    red, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        v = [QQ(0)] * m.cols
        v[f] = QQ(1)
        for i, p in enumerate(pivots):
            v[p] = -red.entries[i][f]
        basis.append(tuple(v))
    return basis


def solve(m: Mat, b: Vec) -> Optional[Vec]:
    """Some x with m x = b, or None if the system is inconsistent.

    The particular solution sets all free variables to zero, so the result
    is deterministic.
    """
    if m.rows != len(b):
        raise ValueError("right-hand side length does not match row count")
    aug = Mat([list(r) + [bb] for r, bb in zip(m.entries, b)], cols=m.cols + 1)
    red, pivots = rref(aug)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [QQ(0)] * m.cols
    for i, p in enumerate(pivots):
        x[p] = red.entries[i][m.cols]
    return tuple(x)


def row_space_basis(vectors: Sequence[Vec], ambient_dim: int) -> list[Vec]:
    """Canonical (RREF) basis of the span of the given row vectors."""
    if not vectors:
        return []
    red, pivots = rref(Mat.from_rows(vectors, cols=ambient_dim))
    return [red.row(i) for i in range(len(pivots))]


def reduce_against(basis: Sequence[Vec], v: Vec) -> Vec:
    """Residual of v after elimination by an RREF row basis.

    Zero residual means v lies in the span.
    """
    res = list(v)
    for row in basis:
        p = next((j for j, a in enumerate(row) if a), None)
        if p is not None and res[p]:
            f = res[p]
            for j, b in enumerate(row):
                if b:
                    res[j] -= f * b
    return tuple(res)


def in_row_space(basis: Sequence[Vec], v: Vec) -> bool:
    return is_zero_vec(reduce_against(basis, v))


class Chart:
    """Coordinates in independent vectors, read off where they are invertible.

    A chart keeps rows P of the ambient space on which the vectors are
    invertible, with the inverse of that block: coordinate j of
    w = sum_i x_i basis_i is the sum of w[r] * c over the nonzero (r, c)
    of column j of the inverse.  coords() confirms the reading by
    combining back, so a vector outside the span yields None and no
    system is solved per call.  Rows where a single vector is nonzero
    are preferred: a kernel_basis output is 1 at its own free column and
    0 at the other free columns, so its block is the identity and needs
    no elimination.  The basis and the inverse are kept as integer
    numerators over one denominator each, so reading and confirming are
    integer arithmetic.
    """

    __slots__ = ("_n", "_basis_den", "_basis", "_inverse_den", "_inverse")

    def __init__(self, basis: Sequence[Vec], n: int):
        self._n = n
        self._basis_den, self._basis = int_terms(basis)
        self._inverse_den, self._inverse = 1, {}
        if not basis:
            return
        owners = [0] * n
        for support in self._basis:
            for j, _ in support:
                owners[j] += 1
        owned = [next(((j, x) for j, x in support if owners[j] == 1), None)
                 for support in self._basis]
        b = len(owned)
        if None not in owned:
            # each vector alone at its row: the block is diagonal
            rows = [j for j, _ in owned]
            inverse = [[(i, Fraction(self._basis_den, x))] for i, (_, x) in enumerate(owned)]
        else:
            rows = list(rref(Mat.from_rows(basis, cols=n))[1])
            if len(rows) != b:
                raise InternalCheckError("chart vectors are linearly dependent")
            # [block | I] reduces to [I | block^-1]
            red = rref(Mat.from_rows([tuple(v[r] for r in rows) + unit_vec(b, i)
                                      for i, v in enumerate(basis)]))[0]
            inverse = [[(i, red[i, b + j]) for i in range(b) if red[i, b + j]] for j in range(b)]
        # by ambient row: the (coordinate, numerator) pairs it contributes to
        den = self._inverse_den = lcm(*{c.denominator for col in inverse for _, c in col})
        for j, col in enumerate(inverse):
            for i, c in col:
                self._inverse.setdefault(rows[i], []).append(
                    (j, c.numerator * (den // c.denominator)))

    def _int_combination(self, terms: Iterable[tuple[int, int]]) -> dict[int, int]:
        """Sum over the given (i, x) of x times basis_i's numerators, by position."""
        out: dict[int, int] = {}
        for i, x in terms:
            if x:
                for j, c in self._basis[i]:
                    out[j] = out.get(j, 0) + x * c
        return out

    def scaled_combination(self, coords: Vec) -> tuple[int, dict[int, int]]:
        """sum_i coords_i basis_i as (D, its numerators over D by position)."""
        den, (terms,) = int_terms([coords])
        return den * self._basis_den, self._int_combination(terms)

    def combine(self, coords: Vec) -> Vec:
        """The ambient vector sum_i coords_i basis_i."""
        return dense_vec(self._n, *self.scaled_combination(coords))

    def coords(self, w: Vec) -> Optional[Vec]:
        """Coordinates of w in the basis, or None if w is outside its span."""
        if len(w) != self._n:
            raise ValueError("vector length does not match the chart")
        den, (target,) = int_terms([w])
        return self.scaled_coords(den, dict(target))

    def scaled_coords(self, den: int, target: dict[int, int]) -> Optional[Vec]:
        """coords() of the vector with entries target[j] / den, zero elsewhere.

        The given numerators must be nonzero.
        """
        # x_j = num_j / (den * inverse_den); basis_i = int_i / basis_den
        nums = [0] * len(self._basis)
        for r, x in target.items():
            for j, c in self._inverse.get(r, ()):
                nums[j] += x * c
        back = self._int_combination(enumerate(nums))
        scale = self._inverse_den * self._basis_den
        if any(back.get(j, 0) != x * scale for j, x in target.items()) or \
                sum(1 for x in back.values() if x) != len(target):
            return None
        out_den = den * self._inverse_den
        return tuple([Fraction(x, out_den) if x else _ZERO for x in nums])


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Poly:
    """Univariate rational polynomial, coefficients lowest degree first.

    The zero polynomial has an empty coefficient tuple; otherwise the
    leading coefficient is nonzero.
    """

    coeffs: tuple[QQ, ...]

    @staticmethod
    def of(*coeffs: Scalar) -> "Poly":
        return Poly._trim([qq(c) for c in coeffs])

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((QQ(1),))

    @staticmethod
    def x() -> "Poly":
        return Poly((QQ(0), QQ(1)))

    @staticmethod
    def _trim(cs: list[QQ]) -> "Poly":
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly(tuple(cs))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading(self) -> QQ:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Poly":
        lc = self.leading()
        if lc == 1:
            return self
        return Poly(tuple(c / lc for c in self.coeffs))

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        cs = [QQ(0)] * n
        for i, c in enumerate(self.coeffs):
            cs[i] += c
        for i, c in enumerate(other.coeffs):
            cs[i] += c
        return Poly._trim(cs)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        cs = [QQ(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                cs[i + j] += a * b
        return Poly._trim(cs)

    def scale(self, c: Scalar) -> "Poly":
        c = qq(c)
        if c == 0:
            return Poly.zero()
        return Poly(tuple(c * a for a in self.coeffs))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q: list[QQ] = [QQ(0)] * max(0, len(self.coeffs) - len(other.coeffs) + 1)
        r = list(self.coeffs)
        d = other.degree()
        lc = other.leading()
        while len(r) - 1 >= d and any(c != 0 for c in r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < d:
                break
            f = r[-1] / lc
            shift = len(r) - 1 - d
            q[shift] = f
            for i, b in enumerate(other.coeffs):
                r[shift + i] -= f * b
            r.pop()
        return Poly._trim(q), Poly._trim(r)

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def derivative(self) -> "Poly":
        return Poly._trim([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x: Scalar) -> QQ:
        x = qq(x)
        acc = QQ(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{c}*t^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return "Poly(" + " + ".join(terms) + ")"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def poly_ext_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, u, v) with u*a + v*b = g, g the monic gcd."""
    r0, r1 = a, b
    u0, u1 = Poly.one(), Poly.zero()
    v0, v1 = Poly.zero(), Poly.one()
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return r0, u0, v0
    lc = r0.leading()
    return r0.monic(), u0.scale(1 / lc), v0.scale(1 / lc)


def squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p'), made monic; rejects the zero polynomial."""
    if p.is_zero():
        raise ValueError("squarefree part of the zero polynomial is undefined")
    g = poly_gcd(p, p.derivative())
    if g.degree() <= 0:
        return p.monic()
    return (p // g).monic()


def char_poly(m: Mat) -> Poly:
    """Monic characteristic polynomial det(tI - m).

    Division-free Toeplitz recurrence over principal trailing submatrices,
    so intermediate values stay polynomial in the entries.
    """
    if not m.is_square():
        raise ValueError("characteristic polynomial of non-square matrix")
    n = m.rows
    # vec holds the descending coefficient vector for the trailing k x k block
    vec_desc: list[QQ] = [QQ(1)]
    for size in range(1, n + 1):
        i0 = n - size
        a = m.entries[i0][i0]
        r_row = m.entries[i0][i0 + 1:]
        c_col = [m.entries[i][i0] for i in range(i0 + 1, n)]
        sub = [row[i0 + 1:] for row in m.entries[i0 + 1:]]
        s = [QQ(1), -a]
        w = list(c_col)
        for _ in range(size - 1):
            s.append(-sum((x * y for x, y in zip(r_row, w)), QQ(0)))
            w = [sum((row[j] * w[j] for j in range(len(w))), QQ(0)) for row in sub]
        new_vec = [QQ(0)] * (size + 1)
        for i in range(size + 1):
            acc = QQ(0)
            for j, vj in enumerate(vec_desc):
                k = i - j
                if 0 <= k < len(s):
                    acc += s[k] * vj
            new_vec[i] = acc
        vec_desc = new_vec
    return Poly(tuple(reversed(vec_desc)))


def eval_poly_at_matrix(p: Poly, m: Mat) -> Mat:
    """Horner evaluation of p at a square matrix."""
    if not m.is_square():
        raise ValueError("polynomial evaluation needs a square matrix")
    n = m.rows
    if p.is_zero():
        return Mat.zero(n, n)
    acc = p.coeffs[-1] * Mat.identity(n)
    for c in reversed(p.coeffs[:-1]):
        acc = acc @ m
        if c != 0:
            acc = Mat([[x + c if i == j else x for j, x in enumerate(row)]
                       for i, row in enumerate(acc.entries)], cols=n)
    return acc


def annihilates(p: Poly, m: Mat) -> bool:
    return eval_poly_at_matrix(p, m).is_zero()


def is_nilpotent_matrix(m: Mat) -> bool:
    if not m.is_square():
        raise ValueError("nilpotency of non-square matrix")
    # repeated squaring with an early exit: m is nilpotent iff m^(2^k) = 0
    # once 2^k reaches the dimension
    power = 1
    acc = m
    while True:
        if acc.is_zero():
            return True
        if power >= m.rows:
            return False
        acc = acc @ acc
        power *= 2


def is_semisimple_matrix(m: Mat) -> bool:
    """Squarefree annihilating polynomial test; field-independent."""
    q = squarefree_part(char_poly(m))
    return annihilates(q, m)


# ---------------------------------------------------------------------------
# Sturm root counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Rational interval, closed at finite ends; None means unbounded."""

    lo: Optional[QQ] = None
    hi: Optional[QQ] = None

    def __post_init__(self):
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError("empty interval: lo > hi")

    @staticmethod
    def closed(lo: Scalar, hi: Scalar) -> "Interval":
        return Interval(qq(lo), qq(hi))

    @staticmethod
    def at_most(hi: Scalar) -> "Interval":
        return Interval(None, qq(hi))

    @staticmethod
    def at_least(lo: Scalar) -> "Interval":
        return Interval(qq(lo), None)

    @staticmethod
    def whole_line() -> "Interval":
        return Interval(None, None)


def _sign(x: QQ) -> int:
    return (x > 0) - (x < 0)


def _sign_variations(signs: Iterable[int]) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a * b < 0)


def sturm_real_roots_in(p: Poly, interval: Interval) -> int:
    """Exact count of distinct real roots of a squarefree p in the interval.

    Uses the classical Sturm chain.  The variation difference counts roots
    in the half-open interval (lo, hi]; a closed finite left end is fixed
    up by testing p(lo) = 0 exactly.  Unbounded ends use the sign of the
    leading coefficient (times parity of the degree at minus infinity).
    """
    if p.is_zero():
        raise ValueError("root counting needs a nonzero polynomial")
    if poly_gcd(p, p.derivative()).degree() > 0:
        raise ValueError("root counting needs a squarefree polynomial")
    chain = [p]
    dp = p.derivative()
    if not dp.is_zero():
        chain.append(dp)
        while chain[-1].degree() > 0:
            rem = chain[-2] % chain[-1]
            if rem.is_zero():
                break
            chain.append(-rem)

    def var_at(x: Optional[QQ], positive_end: bool) -> int:
        if x is None:
            if positive_end:
                signs = [_sign(q.leading()) for q in chain]
            else:
                signs = [_sign(q.leading()) * (-1) ** q.degree() for q in chain]
        else:
            signs = [_sign(q.eval(x)) for q in chain]
        return _sign_variations(signs)

    count = var_at(interval.lo, positive_end=False) - var_at(interval.hi, positive_end=True)
    if interval.lo is not None and p.eval(interval.lo) == 0:
        count += 1
    return count
