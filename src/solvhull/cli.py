"""Command line interface: parse, dispatch, render.

One command per module layer (validate, nilradical, hull, cohomology,
invariants, formality, lefschetz) plus the composite analyze.  Output is
either human-readable text or structured JSON with stable keys; the
structured form is byte-identical across runs on identical input.

Exit codes: 0 success, 2 parse failure, 3 validation failure,
4 precondition failure, 5 internal self-check failure (a bug).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any, Optional, Sequence

from .cochain import ExteriorForm, betti_numbers, ce_complex, cohomology
from .errors import InternalCheckError, PreconditionError, SolvhullError, StructureError
from .fixtures import fixture
from .formality import FormalityVerdict, MasseyWitness, formality_verdict
from .hull import SplitForm
from .iodoc import (
    InputDocument,
    OmegaTerm,
    ParseError,
    _matrix_json,
    _rat,
    algebra_of,
    hull_data_of,
    omega_of,
    parse_document,
    render_document,
)
from .lefschetz import LefschetzReport, SymplecticCheck
from .lie import nilradical, validate
from .linalg import Vec
from .report import (
    AnalysisReport,
    KahlerConclusion,
    SpectralWitness,
    TypeOneVerdict,
    analyze,
    hull_stage,
    input_complex,
    lefschetz_stages,
    model_stage,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PRECONDITION = 4
EXIT_INTERNAL = 5  # a failed self-check: a bug, not bad input

COMMANDS = ("validate", "nilradical", "hull", "cohomology", "invariants",
            "formality", "lefschetz", "analyze", "fixture")


# ---------------------------------------------------------------------------
# serialization helpers (stable, exact)
# ---------------------------------------------------------------------------

def _vec(v: Vec) -> list[str]:
    return [_rat(x) for x in v]


def _form_payload(form: ExteriorForm) -> list[dict[str, Any]]:
    return [{"indices": [i + 1 for i in idx], "coeff": _rat(c)} for idx, c in form.terms]


def format_form(form: ExteriorForm, names: Sequence[str]) -> str:
    if form.is_zero():
        return "0"
    parts = []
    for idx, c in form.terms:
        mono = "^".join(names[i] for i in idx) if idx else "1"
        if c == 1:
            piece = mono
        elif c == -1:
            piece = f"-{mono}"
        else:
            piece = f"{_rat(c)}*{mono}"
        parts.append(piece)
    return " + ".join(parts).replace("+ -", "- ")


def format_linear(v: Vec, names: Sequence[str]) -> str:
    parts = []
    for c, name in zip(v, names):
        if c == 0:
            continue
        if c == 1:
            parts.append(name)
        elif c == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{_rat(c)}*{name}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _symplectic_payload(sc: SymplecticCheck) -> dict[str, Any]:
    return {
        "omega": _form_payload(sc.omega),
        "half_dim": sc.half_dim,
        "closed": sc.closed,
        "top_power_nonzero": sc.top_power_nonzero,
        "symplectic": sc.symplectic,
    }


def _lefschetz_payload(rep: LefschetzReport) -> dict[str, Any]:
    return {
        "half_dim": rep.half_dim,
        "holds": rep.holds,
        "cross_checked": rep.cross_checked,
        "degrees": [
            {
                "degree": d.degree,
                "matrix": _matrix_json(d.matrix),
                "iso": d.iso,
                "injective_on_forms": d.injective_on_forms,
                "pairing_perfect": d.pairing_perfect,
            }
            for d in rep.degrees
        ],
    }


def _massey_payload(w: MasseyWitness) -> dict[str, Any]:
    return {
        "degrees": list(w.degrees),
        "a": _vec(w.a),
        "b": _vec(w.b),
        "c": _vec(w.c),
        "x": _vec(w.x),
        "y": _vec(w.y),
        "representative": _vec(w.representative),
        "representative_class": _vec(w.rep_class),
        "indeterminacy": [_vec(v) for v in w.indeterminacy],
    }


def _formality_payload(v: FormalityVerdict) -> dict[str, Any]:
    out: dict[str, Any] = {"status": v.status, "triples_scanned": v.triples_scanned}
    out["certificate"] = (
        {"kind": "zero_differential", "dims": list(v.certificate.dims)}
        if v.certificate is not None else None)
    out["witness"] = _massey_payload(v.witness) if v.witness is not None else None
    return out


def _type_one_payload(v: TypeOneVerdict) -> dict[str, Any]:
    def witness(w: SpectralWitness) -> dict[str, Any]:
        return {
            "derivation": w.index,
            "char_poly": _vec(w.char_poly.coeffs),
            "zero_multiplicity": w.zero_multiplicity,
            "even_in_t": w.even_in_t,
            "reduced": _vec(w.reduced.coeffs) if w.reduced is not None else None,
            "roots_nonpositive": w.roots_nonpositive,
            "reduced_degree": w.reduced_degree,
            "compatible": w.compatible,
        }

    return {
        "status": v.status,
        "reason": v.reason,
        "witnesses": [witness(w) for w in v.witnesses],
    }


def _kahler_payload(k: KahlerConclusion) -> dict[str, Any]:
    return {
        "conclusion": k.conclusion,
        "assumptions": list(k.assumptions),
        "reason": k.reason,
    }


def _split_form_payload(sf: Optional[SplitForm]) -> dict[str, Any]:
    if sf is None:
        return {"present": False}
    return {
        "present": True,
        "complement": [_vec(v) for v in sf.complement],
        "ideal": [_vec(v) for v in sf.ideal],
        "action": [_matrix_json(a) for a in sf.action],
    }


def report_payload(r: AnalysisReport) -> dict[str, Any]:
    return {
        "input_kind": r.input_kind,
        "dim": r.dim,
        "basis": list(r.basis_names),
        "validation": "ok" if r.validation is None else r.validation,
        "solvable": r.solvable,
        "nilpotent": r.nilpotent,
        "nilradical": (
            {"dim": r.nilradical_dim, "basis": [_vec(v) for v in r.nilradical_basis]}
            if r.nilradical_dim is not None else None),
        "hull": {
            "user_supplied": r.hull_user_supplied,
            "torus_dim": r.hull_torus_dim,
            "abelian": r.hull_abelian,
            "witness": (
                {"i": r.hull_witness[0] + 1, "j": r.hull_witness[1] + 1,
                 "bracket": _vec(r.hull_witness[2])}
                if r.hull_witness is not None else None),
        },
        "split_form": _split_form_payload(r.split_form) if r.hull_abelian else {"present": False},
        "algebra_betti": list(r.algebra_betti) if r.algebra_betti is not None else None,
        "model": (
            {"dims": list(r.model_dims), "betti": list(r.model_betti)}
            if r.model_dims is not None else None),
        "formality": _formality_payload(r.formality) if r.formality is not None else None,
        "symplectic": _symplectic_payload(r.symplectic) if r.symplectic is not None else None,
        "lefschetz": _lefschetz_payload(r.lefschetz) if r.lefschetz is not None else None,
        "type_one": _type_one_payload(r.type_one) if r.type_one is not None else None,
        "kahler": _kahler_payload(r.kahler) if r.kahler is not None else None,
        "skipped": [{"stage": s.stage, "message": s.message} for s in r.skipped],
    }


def report_text(r: AnalysisReport) -> list[str]:
    names = r.basis_names
    lines = [f"input: {r.input_kind}, dim {r.dim} ({', '.join(names)})"]
    lines.append(f"validation: {'ok' if r.validation is None else r.validation}")
    if r.validation is not None:
        return lines
    lines.append(f"solvable: {_yn(r.solvable)}   nilpotent: {_yn(r.nilpotent)}")
    if r.nilradical_dim is not None:
        basis = ", ".join(format_linear(v, names) for v in r.nilradical_basis) or "0"
        lines.append(f"nilradical: dim {r.nilradical_dim}, basis {{ {basis} }}")
    if r.hull_abelian is not None:
        source = "user-supplied" if r.hull_user_supplied else "computed"
        lines.append(
            f"hull ({source}): torus dim {r.hull_torus_dim}, "
            f"unipotent part {'abelian' if r.hull_abelian else 'nonabelian'}")
        if r.hull_witness is not None:
            i, j, w = r.hull_witness
            lines.append(
                f"  witness: [{names[i]}~, {names[j]}~] = {format_linear(w, names)}")
        if r.hull_abelian and r.split_form is not None:
            comp = ", ".join(format_linear(v, names) for v in r.split_form.complement) or "0"
            lines.append(
                f"split form: abelian complement < {comp} > acting semisimply "
                f"on an abelian ideal of dim {len(r.split_form.ideal)}")
    if r.algebra_betti is not None:
        lines.append("betti (algebra complex): " + " ".join(map(str, r.algebra_betti)))
    if r.model_dims is not None:
        lines.append("invariant model dims:    " + " ".join(map(str, r.model_dims)))
        lines.append("betti (invariant model): " + " ".join(map(str, r.model_betti)))
    if r.formality is not None:
        lines.extend(_formality_text(r.formality))
    if r.symplectic is not None:
        sc = r.symplectic
        lines.append(
            f"symplectic: {_yn(sc.symplectic)} "
            f"(closed: {_yn(sc.closed)}, omega^{sc.half_dim} nonzero: {_yn(sc.top_power_nonzero)})")
    if r.lefschetz is not None:
        rep = r.lefschetz
        flags = ", ".join(f"i={d.degree}: {'iso' if d.iso else 'NOT iso'}" for d in rep.degrees)
        lines.append(f"hard Lefschetz: {'holds' if rep.holds else 'FAILS'} ({flags})")
    if r.type_one is not None:
        lines.append(f"type (I): {r.type_one.status}"
                     + (f" ({r.type_one.reason})" if r.type_one.reason else ""))
    if r.kahler is not None:
        k = r.kahler
        line = f"kahler: {k.conclusion}"
        if k.assumptions:
            line += " -- assuming: " + "; ".join(k.assumptions)
        lines.append(line)
    for s in r.skipped:
        lines.append(f"skipped {s.stage}: {s.message}")
    return lines


def _formality_text(v: FormalityVerdict) -> list[str]:
    if v.status == "certified_formal":
        return ["formality: certified_formal (zero differential on the invariant model)"]
    if v.status == "obstructed_nonformal" and v.witness is not None:
        w = v.witness
        return [
            "formality: obstructed_nonformal "
            f"(Massey triple in degrees {w.degrees}, "
            f"indeterminacy dim {len(w.indeterminacy)})",
        ]
    return [f"formality: {v.status} ({v.triples_scanned} Massey triples scanned)"]


def _yn(flag: Optional[bool]) -> str:
    if flag is None:
        return "n/a"
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# per-command execution
# ---------------------------------------------------------------------------

def run(command: str, doc: InputDocument,
        omega_override: Optional[tuple[OmegaTerm, ...]] = None,
        massey_depth: Optional[int] = None,
        finite_bound: Optional[int] = None) -> tuple[int, dict[str, Any], list[str]]:
    """Execute one command on a parsed document.

    Returns (exit_code, structured payload, text lines).  Raises nothing:
    expected failures are encoded in the exit code and payload.
    """
    if command not in COMMANDS or command == "fixture":
        raise ValueError(f"unknown command {command!r}")

    if omega_override is not None:
        doc = InputDocument(doc.schema_version, doc.algebra, doc.hull_override,
                            omega_override, doc.options)
    depth = massey_depth if massey_depth is not None else doc.options.massey_depth
    bound = finite_bound if finite_bound is not None else doc.options.finite_bound

    try:
        g = algebra_of(doc)
    except (StructureError, PreconditionError) as exc:
        return EXIT_PARSE, {"error": str(exc)}, [f"error: {exc}"]

    names = g.basis_names
    if command == "validate":
        bad = validate(g)
        if bad is None:
            return EXIT_OK, {"status": "ok"}, ["validation: ok"]
        payload = {
            "status": "violation",
            "kind": bad.kind,
            "indices": [i + 1 for i in bad.indices],
            "residual": _vec(bad.residual),
        }
        return EXIT_VALIDATION, payload, [f"validation: {bad.describe(names)}"]

    bad = validate(g)
    if bad is not None:
        payload = {"error": f"validation failed: {bad.describe(names)}"}
        return EXIT_VALIDATION, payload, [f"error: validation failed: {bad.describe(names)}"]

    try:
        if command == "nilradical":
            nr = nilradical(g)
            payload = {"dim": nr.dim, "basis": [_vec(v) for v in nr.basis]}
            basis = ", ".join(format_linear(v, names) for v in nr.basis) or "0"
            return EXIT_OK, payload, [f"nilradical: dim {nr.dim}, basis {{ {basis} }}"]

        if command == "hull":
            stage = hull_stage(g)
            hull, verdict, split = stage.splittable, stage.abelianity, stage.split_form
            nonzero = [
                {"i": i + 1, "j": j + 1, "bracket": _vec(hull.nbar.c[i][j])}
                for i in range(hull.nbar.dim)
                for j in range(i + 1, hull.nbar.dim)
                if any(x != 0 for x in hull.nbar.c[i][j])
            ]
            payload = {
                "torus_dim": hull.imf_dim,
                "torus_derivations": [_matrix_json(m) for m in hull.imf_basis],
                "nilshadow_abelian": verdict.abelian,
                "nilshadow_brackets": nonzero,
                "witness": (
                    {"i": verdict.witness[0] + 1, "j": verdict.witness[1] + 1,
                     "bracket": _vec(verdict.witness[2])}
                    if verdict.witness is not None else None),
                "split_form": _split_form_payload(split),
            }
            lines = [
                f"hull: torus dim {hull.imf_dim}, nilshadow "
                + ("abelian" if verdict.abelian else "nonabelian"),
            ]
            if verdict.witness is not None:
                i, j, w = verdict.witness
                lines.append(f"  witness: [{names[i]}~, {names[j]}~] = {format_linear(w, names)}")
            if split is not None:
                comp = ", ".join(format_linear(v, names) for v in split.complement) or "0"
                lines.append(f"  split form: complement < {comp} >")
            return EXIT_OK, payload, lines

        if command == "cohomology":
            cx = ce_complex(g)
            bases = [cohomology(cx, k) for k in range(cx.dim + 1)]
            betti = [basis.betti for basis in bases]
            degrees = []
            lines = ["betti: " + " ".join(map(str, betti))]
            for k, basis in enumerate(bases):
                reps = basis.rep_forms()
                degrees.append({
                    "degree": k,
                    "betti": basis.betti,
                    "representatives": [_form_payload(f) for f in reps],
                })
                pretty = ", ".join(format_form(f, names) for f in reps) or "-"
                lines.append(f"H^{k}: dim {basis.betti}  [{pretty}]")
            return EXIT_OK, {"betti": betti, "degrees": degrees}, lines

        subject = hull_data_of(doc) if doc.hull_override is not None else g
        omega = omega_of(doc)
        if command == "analyze":
            report = analyze(subject, omega=omega, massey_depth=depth, finite_bound=bound)
            code = EXIT_OK if report.validation is None else EXIT_VALIDATION
            return code, report_payload(report), report_text(report)

        # the other commands run only the stages they report on
        stage = model_stage(subject, bound)

        if command == "invariants":
            if stage is None:
                return (EXIT_PRECONDITION, {"error": "no invariant model available"},
                        ["error: no invariant model available"])
            model = stage.model
            degrees = []
            lines = ["invariant model dims: " + " ".join(map(str, model.dims()))]
            for k in range(model.dim + 1):
                forms = model.basis_forms(k)
                degrees.append({"degree": k, "dim": len(forms),
                                "basis": [_form_payload(f) for f in forms]})
                pretty = ", ".join(format_form(f, stage.data.u.basis_names) for f in forms) or "-"
                lines.append(f"deg {k}: dim {len(forms)}  [{pretty}]")
            payload = {"dims": list(model.dims()),
                       "betti": list(betti_numbers(model)),
                       "degrees": degrees}
            return EXIT_OK, payload, lines

        if command == "formality":
            if stage is None:
                return (EXIT_PRECONDITION, {"error": "formality stage did not run"},
                        ["error: formality stage did not run"])
            verdict = formality_verdict(stage.model, depth)
            return EXIT_OK, _formality_payload(verdict), _formality_text(verdict)

        if command == "lefschetz":
            if omega is None:
                return (EXIT_PRECONDITION,
                        {"error": "the lefschetz command needs omega (document field or --omega)"},
                        ["error: no omega supplied"])
            full = input_complex(stage, g) if stage is not None else None
            symplectic, rep, skipped = lefschetz_stages(stage, full, omega)
            if rep is None:
                reasons = "; ".join(f"{s.stage}: {s.message}" for s in skipped) \
                    or "symplectic verification failed"
                return (EXIT_PRECONDITION, {"error": reasons}, [f"error: {reasons}"])
            payload = {
                "symplectic": _symplectic_payload(symplectic) if symplectic is not None else None,
                "lefschetz": _lefschetz_payload(rep),
            }
            lines = [f"hard Lefschetz: {'holds' if rep.holds else 'FAILS'}"]
            for d in rep.degrees:
                lines.append(f"  i={d.degree}: {'iso' if d.iso else 'NOT iso'}; "
                             f"matrix {d.matrix.rows}x{d.matrix.cols} = {_matrix_json(d.matrix)}")
            return EXIT_OK, payload, lines

    except PreconditionError as exc:
        return EXIT_PRECONDITION, {"error": str(exc)}, [f"error: {exc}"]
    except StructureError as exc:
        return EXIT_VALIDATION, {"error": str(exc)}, [f"error: {exc}"]

    raise ValueError(f"unhandled command {command!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def parse_omega_arg(text: str, dim: int) -> tuple[OmegaTerm, ...]:
    """Inline omega syntax: "1,2=1;3,4=1/2" (1-based index pairs)."""
    terms = []
    for piece in text.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        try:
            pair, coeff = piece.split("=")
            i_s, j_s = pair.split(",")
            i, j = int(i_s), int(j_s)
            c = Fraction(coeff.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"malformed --omega piece {piece!r}: {exc}") from None
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise ParseError(f"--omega indices ({i}, {j}) out of range 1..{dim}")
        if i >= j:
            raise ParseError("--omega terms need i < j")
        terms.append(OmegaTerm(i, j, c))
    if not terms:
        raise ParseError("--omega is empty")
    return tuple(terms)


def _parse_params(pairs: Sequence[str]) -> dict[str, str]:
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise ParseError(f"--param needs key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        params[key.strip()] = value.strip()
    return params


def _load_document(args) -> InputDocument:
    if args.fixture is not None and args.input is not None:
        raise ParseError("give either an input file or --fixture, not both")
    if args.fixture is not None:
        return fixture(args.fixture, _parse_params(args.param))
    if args.input is None:
        raise ParseError("no input: pass a document path or --fixture NAME")
    if args.input == "-":
        return parse_document(sys.stdin.read())
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            return parse_document(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {args.input}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solvhull",
        description="Exact certificates for solvable Lie algebra models: "
                    "hulls, invariant cohomology, formality, hard Lefschetz, "
                    "Kaehler obstructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name == "fixture":
            p.add_argument("name", help="fixture name; see --list")
            p.add_argument("--param", action="append", default=[],
                           help="fixture parameter key=value (repeatable)")
            continue
        p.add_argument("input", nargs="?", default=None,
                       help="input document path ('-' for stdin)")
        p.add_argument("--fixture", default=None,
                       help="use a built-in fixture instead of a file")
        p.add_argument("--param", action="append", default=[],
                       help="fixture parameter key=value (repeatable)")
        p.add_argument("--omega", default=None,
                       help="inline 2-form, e.g. \"1,2=1;3,4=1/2\"")
        p.add_argument("--massey-depth", type=int, default=None,
                       help="total class degree cap for the Massey scan")
        p.add_argument("--finite-bound", type=int, default=None,
                       help="bound on the finite group enumeration")
        p.add_argument("--format", choices=("text", "structured"), default="text")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "fixture":
            doc = fixture(args.name, _parse_params(args.param))
            sys.stdout.write(render_document(doc))
            return EXIT_OK
        doc = _load_document(args)
        omega_override = None
        if args.omega is not None:
            omega_override = parse_omega_arg(args.omega, doc.algebra.dim)
        code, payload, lines = run(
            args.command, doc,
            omega_override=omega_override,
            massey_depth=args.massey_depth,
            finite_bound=args.finite_bound,
        )
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except SolvhullError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION

    if args.format == "structured":
        envelope = {
            "schema_version": 1,
            "command": args.command,
            "input": json.loads(render_document(doc)),
            "result": payload,
        }
        sys.stdout.write(json.dumps(envelope, indent=2, ensure_ascii=False) + "\n")
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
