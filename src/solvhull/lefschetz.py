"""Symplectic cocycles and the hard Lefschetz property on invariant models.

omega is restricted once and its powers are built in the complex's
coordinates.  The Lefschetz maps are cup products with them, computed
as exact rank problems on the model's cohomology.  On models with
vanishing differential the direct rank computation is cross-checked,
on the same products, against injectivity of the wedge map on
invariant forms plus equality of paired Betti numbers; the two routes
must agree or the check aborts.  Every check takes a ComplexLike: the
pipeline checks omega on the input algebra's own complex and on the
invariant model.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .cochain import CohomologyBasis, ComplexLike, ExteriorForm, cohomology
from .errors import InternalCheckError, PreconditionError
from .linalg import Mat, Vec, is_zero_vec, rank


@dataclass(frozen=True)
class SymplecticCheck:
    """Exact verification that a 2-form is symplectic on the model."""

    omega: ExteriorForm
    half_dim: int
    closed: bool
    top_power_nonzero: bool

    @property
    def symplectic(self) -> bool:
        return self.closed and self.top_power_nonzero


def verify_symplectic(ic: ComplexLike, omega: ExteriorForm) -> SymplecticCheck:
    """Check d(omega) = 0 and omega^n != 0 on a 2n-dimensional model, in its coordinates."""
    if ic.dim % 2 != 0:
        raise PreconditionError("symplectic checks need an even-dimensional model")
    if omega.degree != 2:
        raise PreconditionError("a symplectic candidate must have degree 2")
    powers = _omega_powers(ic, omega)
    n = ic.dim // 2
    closed = is_zero_vec(ic.dmat(2).apply(powers[1]))
    return SymplecticCheck(omega, n, closed, not is_zero_vec(powers[n]))


def _omega_powers(ic: ComplexLike, omega: ExteriorForm) -> list[Vec]:
    """omega^0 ... omega^n in the complex's coordinates, omega restricted once."""
    coords = ic.restrict_form(omega)
    if coords is None:
        raise PreconditionError("the 2-form does not lie in the invariant model")
    powers = [ic.restrict_form(ExteriorForm.monomial(())), coords]
    for k in range(1, ic.dim // 2):
        powers.append(ic.wedge_coords(2 * k, powers[k], 2, coords))
    return powers


@dataclass(frozen=True)
class DegreeLefschetz:
    """Cup with the (n-i)-th power of omega from degree i to 2n-i."""

    degree: int
    matrix: Mat
    iso: bool
    injective_on_forms: Optional[bool] = None
    pairing_perfect: Optional[bool] = None


@dataclass(frozen=True)
class LefschetzReport:
    half_dim: int
    degrees: tuple[DegreeLefschetz, ...]
    holds: bool
    cross_checked: bool


def hard_lefschetz(ic: ComplexLike, omega: ExteriorForm,
                   check: Optional[SymplecticCheck] = None) -> LefschetzReport:
    """Test whether cup with [omega^(n-i)] is an isomorphism for all i <= n.

    Each representative of H^i is wedged with omega^(n-i) once.  On
    zero-differential models, where H^i must have space_dim(i) classes,
    these products are also the columns of the wedge map on forms: the
    verdict is re-derived through its injectivity together with the
    Poincare pairing, and both routes must agree exactly.
    """
    if check is None:
        check = verify_symplectic(ic, omega)
    if not check.symplectic:
        raise PreconditionError("hard Lefschetz needs a verified symplectic form")
    n = ic.dim // 2
    powers = _omega_powers(ic, omega)
    zero_diff = ic.has_zero_differential()
    top = cohomology(ic, ic.dim) if zero_diff else None

    degrees = []
    all_iso = True
    for i in range(n + 1):
        hi = cohomology(ic, i)
        htarget = cohomology(ic, 2 * n - i)
        prods = [ic.wedge_coords(i, rep, 2 * (n - i), powers[n - i]) for rep in hi.reps]
        matrix = Mat.from_cols([htarget.express(p)[0] for p in prods], rows=htarget.betti)
        iso = hi.betti == htarget.betti and rank(matrix) == hi.betti

        injective = None
        perfect = None
        if zero_diff:
            if hi.betti != ic.space_dim(i):
                raise InternalCheckError(f"H^{i} has {hi.betti} classes, not {ic.space_dim(i)}")
            injective = rank(Mat.from_cols(prods, rows=ic.space_dim(2 * n - i))) == hi.betti
            perfect = _degree_pairing(ic, top, i).perfect
            predicted = injective and hi.betti == htarget.betti
            if predicted != iso:
                raise InternalCheckError(
                    f"Lefschetz routes disagree in degree {i}: "
                    f"direct rank says {iso}, injectivity and duality say {predicted}")
        degrees.append(DegreeLefschetz(i, matrix, iso, injective, perfect))
        all_iso = all_iso and iso
    return LefschetzReport(n, tuple(degrees), all_iso, zero_diff)


@dataclass(frozen=True)
class DegreePairing:
    degree: int
    matrix: Mat
    perfect: bool


@dataclass(frozen=True)
class PairingReport:
    top_betti: int
    degrees: tuple[DegreePairing, ...]
    all_perfect: bool
    note: str = ""


def poincare_pairing(ic: ComplexLike) -> PairingReport:
    """Cup pairings H^k x H^(dim-k) -> H^dim with perfectness flags.

    When the top cohomology is not one-dimensional the pairing has no
    scalar values; matrices of the first top coordinate are still
    emitted, flagged imperfect, and the anomaly is noted.
    """
    top = cohomology(ic, ic.dim)
    degrees = tuple(_degree_pairing(ic, top, k) for k in range(ic.dim + 1))
    note = "" if top.betti == 1 else (
        f"top cohomology has dimension {top.betti}, pairing values are "
        "first-coordinate projections only")
    return PairingReport(top.betti, degrees, all(d.perfect for d in degrees), note)


def _degree_pairing(ic: ComplexLike, top: CohomologyBasis, k: int) -> DegreePairing:
    """The cup pairing H^k x H^(dim-k) -> H^dim, read on the first top coordinate."""
    hk = cohomology(ic, k)
    hdual = cohomology(ic, ic.dim - k)
    rows = []
    for rep_k in hk.reps:
        row = []
        for rep_d in hdual.reps:
            prod = ic.wedge_coords(k, rep_k, ic.dim - k, rep_d)
            coeffs, _ = top.express(prod)
            row.append(coeffs[0] if coeffs else Fraction(0))
        rows.append(tuple(row))
    matrix = Mat.from_rows(rows, cols=hdual.betti) if rows else Mat.zero(0, hdual.betti)
    perfect = top.betti == 1 and hk.betti == hdual.betti and rank(matrix) == hk.betti
    return DegreePairing(k, matrix, perfect)
