"""Invariant subcomplexes and formality certificates.

The invariant model is one joint kernel on each exterior degree: of the
torus derivations (extended to forms as degree-zero derivations) and of
g* - I for the pullbacks g* of the finite group's generators, since a
form is fixed by the group exactly when every generator fixes it.  The
hull data arrive proved (by the hull construction, or by
validate_hull_data where the pipeline takes them in); the result is
checked to be a subcomplex closed under wedge before any verdict is
issued.

Formality itself is certified only through the sound route: a vanishing
restricted differential.  Obstructions come from triple Massey products;
absence of low-degree obstructions yields the honest answer "undecided".
The certificates read any ComplexLike: the pipeline hands them the
invariant model, and a CochainComplex is checked the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cochain import (
    CochainComplex,
    CohomologyClass,
    ComplexLike,
    ExteriorForm,
    SparseForm,
    ce_complex,
    cohomology,
    cup,
)
from .errors import InternalCheckError
from .hull import HullData
from .linalg import (
    Chart,
    Mat,
    Vec,
    is_zero_vec,
    kernel_basis,
    solve,
    unit_vec,
    vadd,
    vscale,
)


def derivation_extension_matrix(cx: CochainComplex, d: Mat, k: int) -> Mat:
    """Degree-zero derivation action of d on k-forms.

    On dual generators the action is (D alpha)(x) = -alpha(D x), then it
    is extended by the Leibniz rule without signs.
    """
    return cx.derivation_matrix(k, [tuple(-x for x in row) for row in d.entries], 1)


def pullback_matrix(cx: CochainComplex, g: Mat, k: int) -> Mat:
    """Action of an algebra automorphism on k-forms, (g alpha)(x) = alpha(g x)."""
    return cx.algebra_map_matrix(k, g.entries)


def averaging_projector(cx: CochainComplex, group: Sequence[Mat], k: int) -> Mat:
    """(1/|G|) sum of the pullbacks over the whole finite group.

    Its image is the group's fixed space.  The pipeline reads that space
    from the generators instead (invariant_basis); this sum over all of
    G is the reference the tests compare against.
    """
    nk = cx.space_dim(k)
    acc = Mat.zero(nk, nk)
    for g in group:
        acc = acc + pullback_matrix(cx, g, k)
    proj = Fraction(1, len(group)) * acc
    if proj @ proj != proj:
        raise InternalCheckError("averaging projector is not idempotent")
    return proj


def invariant_basis(cx: CochainComplex, derivations: Sequence[Mat],
                    pullbacks: Sequence[Mat], k: int) -> list[Vec]:
    """Canonical basis of the k-forms each derivation kills and each pullback fixes.

    One kernel of the derivations' extension rows stacked with the rows
    of g* - I for each pullback, read off g*'s own rows with 1 taken
    from the diagonal; with no rows, the whole space.
    """
    nk = cx.space_dim(k)
    rows = [row for d in derivations for row in derivation_extension_matrix(cx, d, k).entries]
    rows += [row[:i] + (row[i] - 1,) + row[i + 1:]
             for p in pullbacks for i, row in enumerate(p.entries)]
    if not rows:
        return [unit_vec(nk, i) for i in range(nk)]
    return kernel_basis(Mat.from_rows(rows, cols=nk))


class InvariantComplex(ComplexLike):
    """Subcomplex of a cochain complex cut out by reductive invariance.

    Carries per-degree sub-bases in ambient coordinates, the restricted
    differential, and a wedge that projects back to sub-coordinates.
    Implements ComplexLike like CochainComplex, so cohomology, cup
    products and all downstream checks run on either.

    Each degree has a Chart of its sub-basis: sub-coordinates are read
    off where the sub-basis is invertible and confirmed by lifting back,
    so restriction never solves a system.  The restricted differentials
    are computed, which checks that the sub-bases are closed under d.
    """

    def __init__(self, ambient: CochainComplex, sub_bases: Sequence[tuple[Vec, ...]]):
        self.ambient = ambient
        self.dim = ambient.dim
        self._sub = [tuple(b) for b in sub_bases]
        self._charts = [Chart(b, ambient.space_dim(k)) for k, b in enumerate(self._sub)]
        self._coh_cache = {}
        self._cup_memo = {}
        self._dmats = [self._restricted_differential(k) for k in range(self.dim + 1)]

    def sub_basis(self, k: int) -> tuple[Vec, ...]:
        if not 0 <= k <= self.dim:
            return ()
        return self._sub[k]

    def space_dim(self, k: int) -> int:
        return len(self.sub_basis(k))

    def dmat(self, k: int) -> Mat:
        if not 0 <= k <= self.dim:
            return Mat.zero(0, 0)
        return self._dmats[k]

    def lift(self, k: int, coords: Vec) -> Vec:
        if not 0 <= k <= self.dim:
            return ()
        return self._charts[k].combine(coords)

    def restrict(self, k: int, ambient_coords: Vec) -> Optional[Vec]:
        """Sub-coordinates of an ambient vector, or None if outside."""
        if not 0 <= k <= self.dim:
            return None if ambient_coords else ()
        return self._charts[k].coords(ambient_coords)

    def _restricted_differential(self, k: int) -> Mat:
        rows = self.space_dim(k + 1)
        d = self.ambient.dmat(k)
        cols = []
        for v in self._sub[k]:
            coords = self.restrict(k + 1, d.apply(v))
            if coords is None:
                raise InternalCheckError("invariant model is not closed under d")
            cols.append(coords)
        return Mat.from_cols(cols, rows=rows) if cols else Mat.zero(rows, 0)

    def form(self, k: int, coords: Vec) -> ExteriorForm:
        return self.ambient.form(k, self.lift(k, coords))

    def basis_forms(self, k: int) -> tuple[ExteriorForm, ...]:
        return tuple(self.ambient.form(k, b) for b in self.sub_basis(k))

    def restrict_form(self, form: ExteriorForm) -> Optional[Vec]:
        return self.restrict(form.degree, self.ambient.coords(form))

    def wedge_coords(self, p: int, u: Vec, q: int, v: Vec) -> Vec:
        if p + q > self.dim:
            return ()
        a = self.ambient.sparse_from(p, *self._charts[p].scaled_combination(u))
        b = self.ambient.sparse_from(q, *self._charts[q].scaled_combination(v))
        return self._restricted_product(a, b, p + q)

    def _restricted_product(self, a: SparseForm, b: SparseForm, k: int) -> Vec:
        coords = self._charts[k].scaled_coords(*self.ambient.product(a, b, k))
        if coords is None:
            raise InternalCheckError("invariant model is not closed under wedge")
        return coords

    def check_closed_under_wedge(self) -> None:
        """Raise unless the product of any two sub-basis forms lies in the model.

        Each unordered pair is wedged once, since v ^ u = (-1)^(pq) u ^ v.
        """
        forms = [[self.ambient.sparse(k, b) for b in sub] for k, sub in enumerate(self._sub)]
        for p in range(1, self.dim):
            for q in range(p, self.dim - p + 1):
                for i, a in enumerate(forms[p]):
                    for b in forms[q][i if p == q else 0:]:
                        self._restricted_product(a, b, p + q)


def invariant_subcomplex(h: HullData) -> InvariantComplex:
    """Forms fixed by the torus derivations and the finite group.

    h must come from hull_action_data or have passed validate_hull_data;
    its invariants are not checked again here.  Each degree is one joint
    kernel: the torus derivations' extensions and g* - I for the finite
    group's generators g (a form is fixed by the group exactly when
    every generator fixes it).  Every generator is checked to fix the
    result, degree zero to be the constants, and the model to be closed
    under the differential and the wedge product.
    """
    cx = ce_complex(h.u)
    n = cx.dim

    sub_bases: list[tuple[Vec, ...]] = []
    for k in range(n + 1):
        pullbacks = [pullback_matrix(cx, s, k) for s in h.finite_generators]
        basis = invariant_basis(cx, h.torus_derivations, pullbacks, k)
        if any(p.apply(v) != v for p in pullbacks for v in basis):
            raise InternalCheckError(
                f"invariant model in degree {k} is not fixed by every finite generator")
        sub_bases.append(tuple(basis))

    if len(sub_bases[0]) != 1:
        raise InternalCheckError("invariant model lost the constants in degree zero")

    ic = InvariantComplex(cx, sub_bases)
    ic.check_closed_under_wedge()
    return ic


# ---------------------------------------------------------------------------
# formality certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroDifferentialCertificate:
    """The invariant model has d = 0, hence equals its own cohomology.

    The model computes the cohomology of the underlying space, so a chain
    of quasi-isomorphisms connects the de Rham algebra to its cohomology:
    the space is formal.
    """

    dims: tuple[int, ...]


def certify_formal_if_zero_differential(ic: ComplexLike) -> Optional[ZeroDifferentialCertificate]:
    if ic.has_zero_differential():
        return ZeroDifferentialCertificate(ic.dims())
    return None


@dataclass(frozen=True)
class MasseyWitness:
    """All data needed to independently re-check a triple Massey product."""

    degrees: tuple[int, int, int]
    a: Vec
    b: Vec
    c: Vec
    x: Vec
    y: Vec
    representative: Vec
    rep_class: Vec
    indeterminacy: tuple[Vec, ...]


@dataclass(frozen=True)
class MasseyResult:
    status: str  # "vanishes" | "nonvanishing" | "precondition_violation"
    witness: Optional[MasseyWitness] = None
    detail: str = ""


def massey_triple(ic: ComplexLike, a: CohomologyClass, b: CohomologyClass,
                  c: CohomologyClass) -> MasseyResult:
    """Triple Massey product <a, b, c> with explicit primitives.

    Defined when a.b = 0 and b.c = 0 in cohomology.  With dx = A^B and
    dy = B^C the representative is A^y + (-1)^(|a|+1) x^C; the product
    vanishes exactly when its class lies in a.H + H.c.
    """
    p, q, s = a.degree, b.degree, c.degree
    if not cup(ic, a, b).is_zero():
        return MasseyResult("precondition_violation", detail="cup(a, b) is nonzero")
    if not cup(ic, b, c).is_zero():
        return MasseyResult("precondition_violation", detail="cup(b, c) is nonzero")

    ra, rb, rc = a.representative(), b.representative(), c.representative()
    ab = ic.wedge_coords(p, ra, q, rb)
    _, x = cohomology(ic, p + q).express(ab)
    bc = ic.wedge_coords(q, rb, s, rc)
    _, y = cohomology(ic, q + s).express(bc)

    deg_r = p + q + s - 1
    if deg_r > ic.dim:
        return MasseyResult("vanishes", detail="product degree exceeds the top degree")
    term1 = ic.wedge_coords(p, ra, q + s - 1, y)
    sign = -1 if (p + 1) % 2 else 1
    term2 = vscale(sign, ic.wedge_coords(p + q - 1, x, s, rc))
    r = vadd(term1, term2)
    if not is_zero_vec(ic.dmat(deg_r).apply(r)):
        raise InternalCheckError("Massey representative is not closed")
    target = cohomology(ic, deg_r)
    rho, _ = target.express(r)

    indet: list[Vec] = []
    for h in _basis_classes(ic, q + s - 1):
        v = cup(ic, a, h).coeffs
        if not is_zero_vec(v):
            indet.append(v)
    for h in _basis_classes(ic, p + q - 1):
        v = cup(ic, h, c).coeffs
        if not is_zero_vec(v):
            indet.append(v)

    witness = MasseyWitness((p, q, s), a.coeffs, b.coeffs, c.coeffs, x, y, r,
                            rho, tuple(indet))
    if _in_coeff_span(indet, rho):
        return MasseyResult("vanishes", witness)
    return MasseyResult("nonvanishing", witness)


def _basis_classes(ic: ComplexLike, k: int) -> list[CohomologyClass]:
    if k < 0 or k > ic.dim:
        return []
    basis = cohomology(ic, k)
    return [CohomologyClass(ic, k, unit_vec(basis.betti, i)) for i in range(basis.betti)]


def _in_coeff_span(vectors: Sequence[Vec], v: Vec) -> bool:
    if is_zero_vec(v):
        return True
    if not vectors:
        return False
    return solve(Mat.from_cols(list(vectors), rows=len(v)), v) is not None


def verify_massey_witness(ic: ComplexLike, w: MasseyWitness, expect_vanishing: bool) -> bool:
    """Independent re-check of a Massey witness from its raw data.

    A witness vector of the wrong length for its degree fails the check.
    """
    p, q, s = w.degrees
    deg_r = p + q + s - 1
    betti = {k: cohomology(ic, k).betti for k in (p, q, s, deg_r)}
    lengths = [(w.a, betti[p]), (w.b, betti[q]), (w.c, betti[s]), (w.rep_class, betti[deg_r]),
               (w.x, ic.space_dim(p + q - 1)), (w.y, ic.space_dim(q + s - 1)),
               (w.representative, ic.space_dim(deg_r))]
    lengths += [(v, betti[deg_r]) for v in w.indeterminacy]
    if any(len(v) != n for v, n in lengths):
        return False
    a = CohomologyClass(ic, p, w.a)
    b = CohomologyClass(ic, q, w.b)
    c = CohomologyClass(ic, s, w.c)
    ra, rb, rc = a.representative(), b.representative(), c.representative()
    if ic.dmat(p + q - 1).apply(w.x) != ic.wedge_coords(p, ra, q, rb):
        return False
    if ic.dmat(q + s - 1).apply(w.y) != ic.wedge_coords(q, rb, s, rc):
        return False
    sign = -1 if (p + 1) % 2 else 1
    r = vadd(ic.wedge_coords(p, ra, q + s - 1, w.y),
             vscale(sign, ic.wedge_coords(p + q - 1, w.x, s, rc)))
    if r != w.representative:
        return False
    if not is_zero_vec(ic.dmat(deg_r).apply(r)):
        return False
    rho, _ = cohomology(ic, deg_r).express(r)
    if rho != w.rep_class:
        return False
    return _in_coeff_span(list(w.indeterminacy), rho) == expect_vanishing


@dataclass(frozen=True)
class FormalityVerdict:
    """certified_formal, obstructed_nonformal (with witness), or undecided."""

    status: str
    certificate: Optional[ZeroDifferentialCertificate] = None
    witness: Optional[MasseyWitness] = None
    triples_scanned: int = 0


def _scan_degrees(dim: int, cap: int) -> list[tuple[int, int, int]]:
    # all class-degree triples with total <= cap, plus the always-on
    # low-degree patterns (1,1,1) and permutations of (1,1,2)
    degrees = set()
    for p in range(1, dim + 1):
        for q in range(1, dim + 1):
            for s in range(1, dim + 1):
                total = p + q + s
                if total <= cap or (p, q, s) in ((1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)):
                    if p + q + s - 1 <= dim:
                        degrees.add((p, q, s))
    return sorted(degrees)


def formality_verdict(ic: ComplexLike, massey_depth: Optional[int] = None) -> FormalityVerdict:
    """Certified formality via d = 0, else a Massey obstruction scan.

    The scan covers all triples of cohomology basis classes whose degree
    pattern is admitted by _scan_degrees (default cap: the algebra
    dimension).  The first nonvanishing product is returned as the
    obstruction witness; if none exists the verdict is undecided, never
    a formality claim.
    """
    cert = certify_formal_if_zero_differential(ic)
    if cert is not None:
        return FormalityVerdict("certified_formal", certificate=cert)
    cap = massey_depth if massey_depth is not None else ic.dim
    scanned = 0
    for (p, q, s) in _scan_degrees(ic.dim, cap):
        for a in _basis_classes(ic, p):
            for b in _basis_classes(ic, q):
                for c in _basis_classes(ic, s):
                    result = massey_triple(ic, a, b, c)
                    if result.status == "precondition_violation":
                        continue
                    scanned += 1
                    if result.status == "nonvanishing":
                        return FormalityVerdict(
                            "obstructed_nonformal",
                            witness=result.witness,
                            triples_scanned=scanned,
                        )
    return FormalityVerdict("undecided", triples_scanned=scanned)


def verify_formality_verdict(ic: ComplexLike, verdict: FormalityVerdict) -> bool:
    """Re-check a verdict's certificate independently of how it was produced."""
    if verdict.status == "certified_formal":
        return ic.has_zero_differential() and verdict.certificate is not None \
            and verdict.certificate.dims == ic.dims()
    if verdict.status == "obstructed_nonformal":
        return verdict.witness is not None and \
            verify_massey_witness(ic, verdict.witness, expect_vanishing=False)
    return verdict.status == "undecided"
