"""solvhull: exact certificates for solvable Lie algebra models.

Given a finite-dimensional solvable Lie algebra with rational structure
constants, this package builds its splittable hull and nilshadow, computes
invariant cochain models with exact rational cohomology, and certifies
formality, symplecticity, the hard Lefschetz property, and Kaehler
obstructions.  All verdicts are produced in exact arithmetic.
"""

from .cochain import (
    CochainComplex,
    CohomologyBasis,
    CohomologyClass,
    ExteriorForm,
    betti_numbers,
    ce_complex,
    cohomology,
    cup,
    wedge,
)
from .errors import InternalCheckError, PreconditionError, SolvhullError, StructureError
from .formality import (
    FormalityVerdict,
    InvariantComplex,
    MasseyResult,
    MasseyWitness,
    certify_formal_if_zero_differential,
    formality_verdict,
    invariant_subcomplex,
    massey_triple,
    verify_formality_verdict,
    verify_massey_witness,
)
from .hull import (
    AbelianityVerdict,
    HullData,
    JordanPair,
    SplitForm,
    SplittableHull,
    build_splittable_hull,
    enumerate_finite_group,
    hull_action_data,
    jordan_chevalley,
    recognize_split_form,
    semisimple_derivation,
    unipotent_hull_abelian,
    validate_hull_data,
)
from .iodoc import InputDocument, ParseError, parse_document, render_document
from .lefschetz import (
    LefschetzReport,
    PairingReport,
    SymplecticCheck,
    hard_lefschetz,
    poincare_pairing,
    verify_symplectic,
)
from .lie import (
    LieAlgebra,
    Subspace,
    ad_matrix,
    center,
    derived_series,
    derived_subalgebra,
    is_ideal,
    is_nilpotent,
    is_solvable,
    lower_central_series,
    nilradical,
    validate,
)
from .linalg import (
    QQ,
    Interval,
    Mat,
    Poly,
    char_poly,
    eval_poly_at_matrix,
    kernel_basis,
    rank,
    solve,
    squarefree_part,
    sturm_real_roots_in,
)
from .report import (
    AnalysisReport,
    KahlerConclusion,
    TypeOneVerdict,
    analyze,
    kahler_obstruction,
    type_one_check,
)
from .fixtures import FIXTURES, fixture

__version__ = "0.1.0"
