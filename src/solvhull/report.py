"""Type-(I) spectra, Kaehler obstructions, and the analysis pipeline.

A simply connected solvable group is type (I) when every adjoint
operator has spectrum on the unit circle; at the algebra level this
means purely imaginary ad-spectra.  For commuting semisimple torus data
the joint eigenvalues of any real combination are sums of per-generator
eigenvalues, so per-generator polynomial tests are sound and complete;
outside that setting the verdict is the honest "not_certified".

A formal model that is not type (I) cannot come from a Kaehler manifold
(Kaehler solvmanifold fundamental groups are virtually abelian), so the
report combines the hull abelianity and type-(I) verdicts into an
obstruction statement.  The lattice-existence assumption is always
surfaced verbatim; the algebra layer cannot check it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .cochain import ExteriorForm, betti_numbers, ce_complex
from .errors import PreconditionError
from .formality import (
    FormalityVerdict,
    InvariantComplex,
    formality_verdict,
    full_model,
    invariant_subcomplex,
)
from .hull import (
    DEFAULT_FINITE_BOUND,
    AbelianityVerdict,
    HullData,
    SplitForm,
    hull_action_data,
    recognize_split_form,
    unipotent_hull_abelian,
    validate_hull_data,
)
from .lefschetz import LefschetzReport, SymplecticCheck, hard_lefschetz, verify_symplectic
from .lie import LieAlgebra, is_nilpotent, is_solvable, nilradical, validate
from .linalg import (
    Interval,
    Mat,
    Poly,
    Vec,
    char_poly,
    is_semisimple_matrix,
    is_zero_vec,
    squarefree_part,
    sturm_real_roots_in,
)

LATTICE_ASSUMPTION = "a lattice exists in the corresponding simply connected group"


@dataclass(frozen=True)
class SpectralWitness:
    """Per-derivation analysis of the imaginary-axis eigenvalue test.

    The characteristic polynomial is stripped of its t^e factor; the
    quotient must be even in t, and after substituting u = t^2 its
    squarefree part must have all roots real and nonpositive (counted
    exactly by Sturm sequences).
    """

    index: int
    char_poly: Poly
    zero_multiplicity: int
    even_in_t: bool
    reduced: Optional[Poly]
    roots_nonpositive: Optional[int]
    reduced_degree: Optional[int]
    compatible: bool


@dataclass(frozen=True)
class TypeOneVerdict:
    status: str  # "type_I" | "not_type_I" | "not_certified"
    witnesses: tuple[SpectralWitness, ...] = ()
    reason: str = ""


def _analyze_derivation(index: int, d: Mat) -> SpectralWitness:
    p = char_poly(d)
    coeffs = list(p.coeffs)
    e = 0
    while e < len(coeffs) and coeffs[e] == 0:
        e += 1
    stripped = coeffs[e:]
    if not stripped:
        return SpectralWitness(index, p, len(coeffs) - 1, True, None, None, None, True)
    even = all(c == 0 for i, c in enumerate(stripped) if i % 2 == 1)
    if not even:
        return SpectralWitness(index, p, e, False, None, None, None, False)
    substituted = Poly(tuple(stripped[0::2]))
    reduced = squarefree_part(substituted)
    count = sturm_real_roots_in(reduced, Interval.at_most(0))
    deg = reduced.degree()
    return SpectralWitness(index, p, e, True, reduced, count, deg, count == deg)


def type_one_check(h: HullData) -> TypeOneVerdict:
    """Decide whether all torus spectra are purely imaginary.

    Sound only for commuting semisimple derivations on an abelian
    unipotent part; with no derivations at all the adjoint operators of
    the group are unipotent (times a finite part), so the answer is a
    trivial type_I.  Anything else is not_certified.
    """
    if not h.torus_derivations:
        return TypeOneVerdict("type_I", (), "no torus part: all adjoint spectra trivial")
    u_abelian = all(
        is_zero_vec(h.u.c[i][j]) for i in range(h.u.dim) for j in range(h.u.dim)
    )
    if not u_abelian:
        return TypeOneVerdict(
            "not_certified", (),
            "unipotent part is nonabelian; the per-generator spectrum test only "
            "certifies commuting semisimple actions on an abelian hull")
    for a in range(len(h.torus_derivations)):
        for b in range(a + 1, len(h.torus_derivations)):
            if not h.torus_derivations[a].commutes_with(h.torus_derivations[b]):
                return TypeOneVerdict(
                    "not_certified", (),
                    f"torus derivations {a} and {b} do not commute")
    for a, d in enumerate(h.torus_derivations):
        if not is_semisimple_matrix(d):
            return TypeOneVerdict(
                "not_certified", (), f"torus derivation {a} is not semisimple")

    witnesses = tuple(_analyze_derivation(a, d) for a, d in enumerate(h.torus_derivations))
    if all(w.compatible for w in witnesses):
        return TypeOneVerdict("type_I", witnesses)
    return TypeOneVerdict("not_type_I", witnesses)


def verify_type_one_witness(w: SpectralWitness) -> bool:
    """Re-check a spectral witness from its stored polynomials."""
    coeffs = list(w.char_poly.coeffs)
    e = 0
    while e < len(coeffs) and coeffs[e] == 0:
        e += 1
    stripped = coeffs[e:]
    if not stripped:
        return w.compatible
    even = all(c == 0 for i, c in enumerate(stripped) if i % 2 == 1)
    if not even:
        return not w.compatible
    reduced = squarefree_part(Poly(tuple(stripped[0::2])))
    if reduced != w.reduced:
        return False
    count = sturm_real_roots_in(reduced, Interval.at_most(0))
    return (count == reduced.degree()) == w.compatible


@dataclass(frozen=True)
class KahlerConclusion:
    """Obstruction statement with its assumptions spelled out."""

    conclusion: str  # "not_kahler" | "no_obstruction" | "criterion_inapplicable"
    assumptions: tuple[str, ...]
    reason: str


def kahler_obstruction(hull_abelian: Optional[bool], type_one: TypeOneVerdict) -> KahlerConclusion:
    """Combine hull abelianity and the type-(I) verdict.

    An abelian hull that is not type (I) excludes Kaehler structures for
    every lattice quotient (their fundamental groups would have to be
    virtually abelian); the conclusion never asserts Kaehler positively.
    """
    if hull_abelian is None or not hull_abelian:
        return KahlerConclusion(
            "criterion_inapplicable", (),
            "the criterion needs an abelian unipotent hull")
    if type_one.status == "not_type_I":
        return KahlerConclusion(
            "not_kahler", (LATTICE_ASSUMPTION,),
            "abelian hull with a torus eigenvalue off the imaginary axis")
    if type_one.status == "type_I":
        return KahlerConclusion(
            "no_obstruction", (),
            "all torus spectra are purely imaginary; this criterion is silent")
    return KahlerConclusion(
        "criterion_inapplicable", (),
        f"type-(I) analysis was not certified: {type_one.reason}")


@dataclass(frozen=True)
class StageFailure:
    stage: str
    message: str


@dataclass(frozen=True)
class AnalysisReport:
    """Aggregated verdicts of the whole pipeline for one input.

    Stages that could not run carry an entry in skipped with the reason;
    earlier results are always retained.
    """

    input_kind: str
    dim: int
    basis_names: tuple[str, ...]
    validation: Optional[str]
    solvable: Optional[bool] = None
    nilpotent: Optional[bool] = None
    nilradical_dim: Optional[int] = None
    nilradical_basis: tuple[Vec, ...] = ()
    hull_user_supplied: bool = False
    hull_torus_dim: Optional[int] = None
    hull_abelian: Optional[bool] = None
    hull_witness: Optional[tuple[int, int, Vec]] = None
    split_form: Optional[SplitForm] = None
    algebra_betti: Optional[tuple[int, ...]] = None
    model_dims: Optional[tuple[int, ...]] = None
    model_betti: Optional[tuple[int, ...]] = None
    formality: Optional[FormalityVerdict] = None
    symplectic: Optional[SymplecticCheck] = None
    lefschetz: Optional[LefschetzReport] = None
    type_one: Optional[TypeOneVerdict] = None
    kahler: Optional[KahlerConclusion] = None
    skipped: tuple[StageFailure, ...] = ()


def analyze(subject: Union[LieAlgebra, HullData],
            omega: Optional[ExteriorForm] = None,
            massey_depth: Optional[int] = None,
            finite_bound: int = DEFAULT_FINITE_BOUND) -> AnalysisReport:
    """Run the full pipeline on an algebra or on explicit hull data.

    Algebra inputs go through validation, nilradical, hull construction,
    the invariant model, formality, optional symplectic and Lefschetz
    checks, the type-(I) test and the Kaehler conclusion.  Hull-data
    inputs skip the hull construction and run the model stages directly.
    Every stage failure is recorded and later dependent stages are
    skipped; the report is always returned.
    """
    if isinstance(subject, HullData):
        return _analyze_hull_data(subject, omega, massey_depth, finite_bound)
    return _analyze_algebra(subject, omega, massey_depth, finite_bound)


def _analyze_algebra(g: LieAlgebra, omega, massey_depth, finite_bound) -> AnalysisReport:
    skipped: list[StageFailure] = []
    bad = validate(g)
    if bad is not None:
        return AnalysisReport(
            "algebra", g.dim, g.basis_names, bad.describe(g.basis_names),
            skipped=(StageFailure("all", "the input is not a Lie algebra"),))

    solvable = is_solvable(g)
    nilpotent_flag = is_nilpotent(g)

    nr_dim = None
    nr_basis: tuple[Vec, ...] = ()
    verdict: Optional[AbelianityVerdict] = None
    split: Optional[SplitForm] = None
    hdata: Optional[HullData] = None
    if solvable:
        nr = nilradical(g)
        nr_dim, nr_basis = nr.dim, nr.basis
        verdict = unipotent_hull_abelian(g)
        if verdict.abelian:
            split = recognize_split_form(g)
        hdata = hull_action_data(g)
    else:
        skipped.append(StageFailure(
            "hull", "the algebra is not solvable; hull stages need solvability"))

    full: Optional[InvariantComplex] = None
    algebra_betti = None
    model: Optional[InvariantComplex] = None
    model_betti = None
    formality: Optional[FormalityVerdict] = None
    if hdata is not None:
        full = full_model_of(g)
        algebra_betti = betti_numbers(full)
        model = invariant_subcomplex(hdata, finite_bound)
        model_betti = betti_numbers(model)
        formality = formality_verdict(model, massey_depth)

    symplectic = None
    lefschetz_report = None
    if omega is not None and model is not None:
        try:
            symplectic = verify_symplectic(full, omega)
        except PreconditionError as exc:
            skipped.append(StageFailure("symplectic", str(exc)))
        if symplectic is not None and symplectic.symplectic:
            try:
                model_check = verify_symplectic(model, omega)
                if model_check.symplectic:
                    lefschetz_report = hard_lefschetz(model, omega, model_check)
                else:
                    skipped.append(StageFailure(
                        "lefschetz", "omega is not symplectic on the invariant model"))
            except PreconditionError as exc:
                skipped.append(StageFailure("lefschetz", str(exc)))
        elif symplectic is not None:
            skipped.append(StageFailure(
                "lefschetz", "omega failed the symplectic check"))
    elif omega is not None:
        skipped.append(StageFailure("symplectic", "no model available"))

    type_one = type_one_check(hdata) if hdata is not None else None
    kahler = kahler_obstruction(
        verdict.abelian if verdict is not None else None,
        type_one if type_one is not None else TypeOneVerdict("not_certified", (), "no hull"),
    ) if solvable else KahlerConclusion(
        "criterion_inapplicable", (), "the algebra is not solvable")

    return AnalysisReport(
        "algebra", g.dim, g.basis_names, None,
        solvable=solvable,
        nilpotent=nilpotent_flag,
        nilradical_dim=nr_dim,
        nilradical_basis=nr_basis,
        hull_user_supplied=False,
        hull_torus_dim=len(hdata.torus_derivations) if hdata is not None else None,
        hull_abelian=verdict.abelian if verdict is not None else None,
        hull_witness=verdict.witness if verdict is not None else None,
        split_form=split,
        algebra_betti=algebra_betti,
        model_dims=model.dims() if model is not None else None,
        model_betti=model_betti,
        formality=formality,
        symplectic=symplectic,
        lefschetz=lefschetz_report,
        type_one=type_one,
        kahler=kahler,
        skipped=tuple(skipped),
    )


def _analyze_hull_data(h: HullData, omega, massey_depth, finite_bound) -> AnalysisReport:
    skipped: list[StageFailure] = []
    bad = validate(h.u)
    if bad is not None:
        return AnalysisReport(
            "hull_data", h.u.dim, h.u.basis_names, bad.describe(h.u.basis_names),
            hull_user_supplied=True,
            skipped=(StageFailure("all", "the unipotent algebra is invalid"),))
    validate_hull_data(h, finite_bound)

    u_abelian = all(
        is_zero_vec(h.u.c[i][j]) for i in range(h.u.dim) for j in range(h.u.dim))
    nr = nilradical(h.u)

    model = invariant_subcomplex(h, finite_bound)
    formality = formality_verdict(model, massey_depth)

    symplectic = None
    lefschetz_report = None
    if omega is not None:
        try:
            symplectic = verify_symplectic(model, omega)
            if symplectic.symplectic:
                lefschetz_report = hard_lefschetz(model, omega, symplectic)
            else:
                skipped.append(StageFailure(
                    "lefschetz", "omega failed the symplectic check"))
        except PreconditionError as exc:
            skipped.append(StageFailure("symplectic", str(exc)))

    type_one = type_one_check(h)
    kahler = kahler_obstruction(u_abelian, type_one)

    return AnalysisReport(
        "hull_data", h.u.dim, h.u.basis_names, None,
        solvable=True,
        nilpotent=True,
        nilradical_dim=nr.dim,
        nilradical_basis=nr.basis,
        hull_user_supplied=True,
        hull_torus_dim=len(h.torus_derivations),
        hull_abelian=u_abelian,
        hull_witness=None,
        split_form=None,
        algebra_betti=betti_numbers(full_model_of(h.u)),
        model_dims=model.dims(),
        model_betti=betti_numbers(model),
        formality=formality,
        symplectic=symplectic,
        lefschetz=lefschetz_report,
        type_one=type_one,
        kahler=kahler,
        skipped=tuple(skipped),
    )


def full_model_of(g: LieAlgebra) -> InvariantComplex:
    """Full cochain complex of g wrapped as a trivial invariant model."""
    return full_model(ce_complex(g))
