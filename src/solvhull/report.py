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

The pipeline is a chain of stages, each artifact built once and passed
on: hull_stage (the splittable hull, its abelianity and split form),
model_stage (the hull data and the invariant model), input_complex (the
input algebra's own CochainComplex, whose Betti numbers are read off
ranks) and lefschetz_stages (the symplectic check and hard Lefschetz).
analyze composes all of them; the CLI's model commands call only the
stages they report on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .cochain import CochainComplex, ExteriorForm, betti_numbers, ce_complex
from .errors import PreconditionError
from .formality import (
    FormalityVerdict,
    InvariantComplex,
    formality_verdict,
    invariant_subcomplex,
)
from .hull import (
    DEFAULT_FINITE_BOUND,
    AbelianityVerdict,
    HullData,
    SplitForm,
    SplittableHull,
    build_splittable_hull,
    hull_action_data,
    recognize_split_form,
    unipotent_hull_abelian,
    validate_hull_data,
)
from .lefschetz import LefschetzReport, SymplecticCheck, hard_lefschetz, verify_symplectic
from .lie import (
    LieAlgebra,
    Subspace,
    first_nonzero_bracket,
    is_solvable,
    validate,
)
from .linalg import (
    Interval,
    Poly,
    Vec,
    annihilates,
    char_poly,
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


def _spectral_witness(index: int, p: Poly) -> SpectralWitness:
    """The imaginary-axis test read off one characteristic polynomial."""
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
    if first_nonzero_bracket(h.u) is not None:
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
    polys = [char_poly(d) for d in h.torus_derivations]
    for a, (d, p) in enumerate(zip(h.torus_derivations, polys)):
        if not annihilates(squarefree_part(p), d):
            return TypeOneVerdict(
                "not_certified", (), f"torus derivation {a} is not semisimple")

    witnesses = tuple(_spectral_witness(a, p) for a, p in enumerate(polys))
    if all(w.compatible for w in witnesses):
        return TypeOneVerdict("type_I", witnesses)
    return TypeOneVerdict("not_type_I", witnesses)


def verify_type_one_witness(w: SpectralWitness) -> bool:
    """Re-check a spectral witness by recomputing it from its polynomial."""
    return _spectral_witness(w.index, w.char_poly) == w


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


NOT_SOLVABLE = StageFailure("hull", "the algebra is not solvable; hull stages need solvability")


@dataclass(frozen=True)
class HullStage:
    """An algebra's splittable hull, its abelianity and its split form."""

    splittable: SplittableHull
    abelianity: AbelianityVerdict
    split_form: Optional[SplitForm]


def hull_stage(g: LieAlgebra) -> HullStage:
    """Build the splittable hull of a solvable algebra once and read it."""
    hull = build_splittable_hull(g)
    verdict = unipotent_hull_abelian(hull)
    split = recognize_split_form(g, hull) if verdict.abelian else None
    return HullStage(hull, verdict, split)


@dataclass(frozen=True)
class ModelStage:
    """The invariant model of one input and the hull data it is built from.

    hull is None when the input is user-supplied hull data.
    """

    data: HullData
    model: InvariantComplex
    hull: Optional[HullStage]


def model_stage(subject: Union[LieAlgebra, HullData], finite_bound: int) -> Optional[ModelStage]:
    """Hull, hull data and invariant model of a validated input.

    Returns None for an algebra that is not solvable (NOT_SOLVABLE is
    the reason).  Supplied hull data are checked here, where they enter
    the pipeline, by validate_hull_data; computed ones as they were built.
    """
    if isinstance(subject, HullData):
        validate_hull_data(subject, finite_bound)
        return ModelStage(subject, invariant_subcomplex(subject), None)
    if not is_solvable(subject):
        return None
    stage = hull_stage(subject)
    data = hull_action_data(stage.splittable)
    return ModelStage(data, invariant_subcomplex(data), stage)


def input_complex(stage: ModelStage, g: LieAlgebra) -> CochainComplex:
    """The input algebra's own CE complex.

    Hull data and nilpotent algebras are their own unipotent algebra,
    so the model's ambient complex is reused rather than built again.
    """
    return stage.model.ambient if stage.data.u == g else ce_complex(g)


def lefschetz_stages(stage: Optional[ModelStage], full: Optional[CochainComplex],
                     omega: Optional[ExteriorForm]
                     ) -> tuple[Optional[SymplecticCheck], Optional[LefschetzReport],
                                tuple[StageFailure, ...]]:
    """Symplectic check and hard Lefschetz, with every stage skipped and why.

    omega is checked first on the algebra's own complex full, and on
    the model for hull data; stage is None for an algebra that is not
    solvable.  Every skip reason of analyze is issued here.
    """
    if stage is None:
        if omega is None:
            return None, None, (NOT_SOLVABLE,)
        return None, None, (NOT_SOLVABLE, StageFailure("symplectic", "no model available"))
    if omega is None:
        return None, None, ()
    model = stage.model
    first = model if stage.hull is None else full
    try:
        symplectic = verify_symplectic(first, omega)
    except PreconditionError as exc:
        return None, None, (StageFailure("symplectic", str(exc)),)
    if not symplectic.symplectic:
        return symplectic, None, (StageFailure("lefschetz", "omega failed the symplectic check"),)
    try:
        on_model = symplectic if first is model else verify_symplectic(model, omega)
        if not on_model.symplectic:
            return symplectic, None, (StageFailure(
                "lefschetz", "omega is not symplectic on the invariant model"),)
        return symplectic, hard_lefschetz(model, omega, on_model), ()
    except PreconditionError as exc:
        return symplectic, None, (StageFailure("lefschetz", str(exc)),)


def analyze(subject: Union[LieAlgebra, HullData],
            omega: Optional[ExteriorForm] = None,
            massey_depth: Optional[int] = None,
            finite_bound: int = DEFAULT_FINITE_BOUND) -> AnalysisReport:
    """Run the full pipeline on an algebra or on explicit hull data.

    Algebra inputs go through validation, hull construction (nilradical,
    nilshadow, split form), the invariant model, formality, optional
    symplectic and Lefschetz checks, the type-(I) test and the Kaehler
    conclusion.  Hull-data inputs are their own unipotent part and run
    the model stages directly.  Every stage failure is recorded and later
    dependent stages are skipped; the report is always returned.
    """
    user_hull = isinstance(subject, HullData)
    kind = "hull_data" if user_hull else "algebra"
    g = subject.u if user_hull else subject
    bad = validate(g)
    if bad is not None:
        reason = "the unipotent algebra is invalid" if user_hull else "the input is not a Lie algebra"
        return AnalysisReport(
            kind, g.dim, g.basis_names, bad.describe(g.basis_names),
            hull_user_supplied=user_hull, skipped=(StageFailure("all", reason),))

    stage = model_stage(subject, finite_bound)
    if stage is None:
        _, _, skipped = lefschetz_stages(None, None, omega)
        return AnalysisReport(
            kind, g.dim, g.basis_names, None, solvable=False, nilpotent=False,
            kahler=KahlerConclusion("criterion_inapplicable", (), "the algebra is not solvable"),
            skipped=skipped)

    model = stage.model
    full = input_complex(stage, g)
    formality = formality_verdict(model, massey_depth)
    symplectic, lefschetz_report, skipped = lefschetz_stages(stage, full, omega)
    # hull data passed validate_hull_data in model_stage, so u is nilpotent
    nr = stage.hull.splittable.nilradical if stage.hull is not None else Subspace.full(g)
    hull_abelian = first_nonzero_bracket(stage.data.u) is None
    type_one = type_one_check(stage.data)
    return AnalysisReport(
        kind, g.dim, g.basis_names, None,
        solvable=True,
        nilpotent=nr.dim == g.dim,
        nilradical_dim=nr.dim,
        nilradical_basis=nr.basis,
        hull_user_supplied=user_hull,
        hull_torus_dim=len(stage.data.torus_derivations),
        hull_abelian=hull_abelian,
        hull_witness=stage.hull.abelianity.witness if stage.hull is not None else None,
        split_form=stage.hull.split_form if stage.hull is not None else None,
        algebra_betti=betti_numbers(full),
        model_dims=model.dims(),
        model_betti=betti_numbers(model),
        formality=formality,
        symplectic=symplectic,
        lefschetz=lefschetz_report,
        type_one=type_one,
        kahler=kahler_obstruction(hull_abelian, type_one),
        skipped=skipped,
    )
