"""Expected answers derived without solvhull, and the checks against them.

Each expectation comes from mathematics that does not run through the
program's code:

* split algebras R^k acting semisimply on R^m: by Hochschild-Serre the
  Betti numbers, and the dimensions of the invariant model, are the
  coefficients of (1+t)^k * sum_j z_j t^j, where z_j counts the j-subsets
  of the action's complex weights that sum to zero.  The model is formal
  and hard Lefschetz whenever omega is symplectic (the paper); the
  Kaehler criterion fires exactly when a weight has a nonzero real part.
* nilpotent algebras: Kuenneth over the factors, the Heisenberg formula
  b_k(H_{2n+1}) = C(2n, k) - C(2n, k-2) for k <= n, and for the filiform
  L_d (a single nilpotent Jordan block acting on R^{d-1}) b_k = J_k + J_{k-1},
  with J_k the number of sl2-components of the k-th exterior power.  A
  nonabelian nilmanifold is never formal (Hasegawa) and never hard
  Lefschetz (Benson-Gordon).
* finite extensions: the invariant model has, in degree k, the character
  average over the group of the trace on zero-weight k-forms.  The group
  is enumerated here from its generators.
* every input: the Euler characteristic of the Lie algebra cohomology is
  0, and b_k = b_{n-k} when the algebra is unimodular.
"""

from __future__ import annotations

from fractions import Fraction as Q
from itertools import combinations
from math import comb
from typing import Optional

# ---------------------------------------------------------------------------
# polynomials as coefficient lists
# ---------------------------------------------------------------------------


def poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def binomials(d: int) -> list:
    return [comb(d, k) for k in range(d + 1)]


def zero_sum_counts(weights) -> list:
    """z_j: number of j-subsets of the weights whose sum is zero.

    A weight is a tuple with one (re, im) pair per acting generator."""
    m = len(weights)
    counts = [0] * (m + 1)
    for j in range(m + 1):
        for subset in combinations(weights, j):
            if all(sum((w[g][part] for w in subset), Q(0)) == 0
                   for g in range(len(weights[0])) for part in (0, 1)):
                counts[j] += 1
    return counts


def heisenberg_betti(n: int) -> list:
    """H_{2n+1}: C(2n, k) - C(2n, k-2) up to degree n, then duality."""
    low = [comb(2 * n, k) - (comb(2 * n, k - 2) if k >= 2 else 0) for k in range(n + 1)]
    return low + low[::-1]


def filiform_betti(d: int) -> list:
    """L_d: R acting on R^{d-1} by one nilpotent Jordan block.

    The block is the raising operator of the (d-1)-dimensional sl2
    representation, so its Jordan blocks on the k-th exterior power are
    the sl2-components there: the k-subsets of the weights d-2, d-4, ...,
    2-d summing to 0 or 1.  H^k = ker in degree k + coker in degree k-1.
    """
    hw = [d - 2 - 2 * i for i in range(d - 1)]
    blocks = [sum(1 for s in combinations(hw, k) if sum(s) in (0, 1)) for k in range(d)]
    return [(blocks[k] if k < d else 0) + (blocks[k - 1] if k >= 1 else 0)
            for k in range(d + 1)]


def factor_betti(kind: str, size: int) -> list:
    if kind == "heis":
        return heisenberg_betti(size)
    if kind == "fil":
        return filiform_betti(size)
    return binomials(size)


# ---------------------------------------------------------------------------
# finite groups of integer matrices
# ---------------------------------------------------------------------------


def _matmul(a: tuple, b: tuple) -> tuple:
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                       for j in range(len(b[0]))) for i in range(len(a)))


def enumerate_group(generators) -> list:
    """All products of the generators (a finite group), breadth first."""
    gens = [tuple(tuple(row) for row in g) for g in generators]
    n = len(gens[0])
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _matmul(g, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


def _det(m) -> Q:
    a = [[Q(x) for x in row] for row in m]
    n = len(a)
    det = Q(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Q(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def invariant_dims(weights, generators) -> list:
    """Degree-k dimension of the forms fixed by the torus and the group.

    The torus is diagonal, so the zero-weight k-forms are spanned by the
    monomials e^I whose weights sum to zero; the group commutes with the
    torus and acts on them by the pullback, whose trace there is the sum
    of the principal minors det g[I, I].  Averaging the trace over the
    group gives the dimension of the fixed space.
    """
    m = len(weights)
    group = enumerate_group(generators) if generators else [
        tuple(tuple(int(i == j) for j in range(m)) for i in range(m))]
    dims = []
    for k in range(m + 1):
        monomials = [idx for idx in combinations(range(m), k)
                     if all(sum((weights[i][0][part] for i in idx), Q(0)) == 0 for part in (0, 1))]
        total = sum((_det([[g[i][j] for j in idx] for i in idx]) if idx else Q(1)
                     for g in group for idx in monomials), Q(0))
        dims.append(total / len(group))
    if any(d.denominator != 1 for d in dims):
        raise ArithmeticError(f"character average is not integral: {dims}")
    return [int(d) for d in dims]


# ---------------------------------------------------------------------------
# expectations per case
# ---------------------------------------------------------------------------


def jacobi_fails(doc: dict) -> bool:
    """Whether the document's brackets break the Jacobi identity."""
    n = doc["algebra"]["dim"]
    c = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
    for b in doc["algebra"]["brackets"]:
        i, j = b["i"] - 1, b["j"] - 1
        v = [Q(x) for x in b["coeffs"]]
        c[i][j] = v
        c[j][i] = [-x for x in v]

    def br(u, v):
        out = [Q(0)] * n
        for i in range(n):
            for j in range(n):
                f = u[i] * v[j]
                if f:
                    for k in range(n):
                        out[k] += f * c[i][j][k]
        return out

    e = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    for i, j, k in combinations(range(n), 3):
        s = [x + y + z for x, y, z in zip(br(e[i], c[j][k]), br(e[j], c[k][i]), br(e[k], c[i][j]))]
        if any(s):
            return True
    return False


def expected(case) -> dict:
    """Answers the program must give on this case, keyed like summaries."""
    f = case.facts
    n = case.dim
    if case.kind == "broken":
        if not jacobi_fails(case.doc):
            raise ValueError("broken case satisfies the Jacobi identity")
        return {"valid": False}
    exp: dict = {"valid": True, "omega": f["omega"], "unimodular": True}
    if case.kind == "split":
        k = f["acting"]
        betti = poly_mul(binomials(k), zero_sum_counts(f["weights"]))
        # tr ad_t is the sum of t's weights
        exp["unimodular"] = all(sum((w[g][0] for w in f["weights"]), Q(0)) == 0
                                for g in range(k))
        exp.update(algebra_betti=betti, model_dims=betti, model_betti=betti,
                   formal=True, lefschetz=True if f["omega"] else None,
                   kahler=_kahler(f["weights"]), hull_abelian=True,
                   hull_torus_dim=k, nilradical_dim=n - k,
                   algebra_hull_abelian=True, algebra_torus_dim=k)
    elif case.kind == "nilpotent":
        betti = [1]
        for kind, size in f["factors"]:
            betti = poly_mul(betti, factor_betti(kind, size))
        exp.update(algebra_betti=betti, model_dims=binomials(n), model_betti=betti,
                   formal=False, lefschetz=False if f["omega"] else None,
                   kahler="criterion_inapplicable", hull_abelian=False,
                   hull_torus_dim=0, nilradical_dim=n,
                   algebra_hull_abelian=False, algebra_torus_dim=0)
    else:  # finite extension of an abelian algebra
        dims = invariant_dims(f["weights"], f["generators"])
        exp.update(algebra_betti=binomials(n), model_dims=dims, model_betti=dims,
                   formal=True, lefschetz=True if f["omega"] else None,
                   kahler=_kahler(f["weights"]), hull_abelian=True,
                   hull_torus_dim=len(f["weights"][0]), nilradical_dim=n,
                   algebra_hull_abelian=True, algebra_torus_dim=0)
    return exp


def _kahler(weights) -> str:
    off_axis = any(re != 0 for w in weights for re, _ in w)
    return "not_kahler" if off_axis else "no_obstruction"


# ---------------------------------------------------------------------------
# checks: each returns the list of mismatches (empty when correct)
# ---------------------------------------------------------------------------


def _euler(betti) -> int:
    return sum((-1) ** k * b for k, b in enumerate(betti))


def check_summary(exp: dict, got: dict) -> list:
    """Compare an analyze summary (see run.summary_*) with the expectation."""
    if not exp["valid"]:
        return [] if got.get("valid") is False else ["invalid algebra was accepted"]
    problems = []

    def same(key, want):
        if got.get(key) != want:
            problems.append(f"{key}: expected {want!r}, got {got.get(key)!r}")

    if got.get("valid") is not True:
        return ["valid algebra was rejected"]
    same("algebra_betti", exp["algebra_betti"])
    same("model_dims", exp["model_dims"])
    same("model_betti", exp["model_betti"])
    same("hull_abelian", exp["hull_abelian"])
    same("hull_torus_dim", exp["hull_torus_dim"])
    same("nilradical_dim", exp["nilradical_dim"])
    same("kahler", exp["kahler"])
    formality = got.get("formality")
    if exp["formal"] and formality != "certified_formal":
        problems.append(f"formality: expected certified_formal, got {formality!r}")
    if not exp["formal"] and formality == "certified_formal":
        problems.append("formality: a nonabelian nilpotent model was certified formal")
    same("symplectic", True if exp["omega"] else None)
    same("lefschetz", exp["lefschetz"])
    problems += check_betti_properties(got.get("algebra_betti"), got.get("dim"),
                                       exp["unimodular"])
    if got.get("model_betti") is not None and got.get("model_dims") is not None \
            and _euler(got["model_betti"]) != _euler(got["model_dims"]):
        problems.append("model: Euler characteristic of cohomology and cochains differ")
    return problems


def check_betti_properties(betti, dim, unimodular: bool) -> list:
    """Euler characteristic 0, and Poincare duality when unimodular."""
    if betti is None or dim is None or len(betti) != dim + 1:
        return [f"betti numbers {betti!r} do not fit dimension {dim!r}"]
    problems = []
    if _euler(betti) != 0:
        problems.append(f"Euler characteristic of {betti} is not 0")
    if unimodular and list(betti) != list(betti)[::-1]:
        problems.append(f"{betti} violates Poincare duality")
    return problems


EXIT_OK, EXIT_VALIDATION, EXIT_PRECONDITION = 0, 3, 4


def check_cli(exp: dict, command: str, code: int, result: Optional[dict]) -> list:
    """Check one CLI command's exit code and structured result."""
    if not exp["valid"]:
        if code != EXIT_VALIDATION:
            return [f"exit code {code}, expected {EXIT_VALIDATION} for a Jacobi violation"]
        if command == "validate" and (result or {}).get("kind") != "jacobi":
            return ["validate did not name the Jacobi violation"]
        return []
    if command == "lefschetz" and not exp["omega"]:
        return [] if code == EXIT_PRECONDITION else [
            f"exit code {code}, expected {EXIT_PRECONDITION} without omega"]
    if code != EXIT_OK or result is None:
        return [f"exit code {code}, expected {EXIT_OK}"]
    r = result

    def same(label, got, want):
        return [] if got == want else [f"{command} {label}: expected {want!r}, got {got!r}"]

    if command == "validate":
        return same("status", r.get("status"), "ok")
    if command == "nilradical":
        return same("dim", r.get("dim"), exp["nilradical_dim"])
    if command == "hull":
        return (same("torus_dim", r.get("torus_dim"), exp["algebra_torus_dim"])
                + same("nilshadow_abelian", r.get("nilshadow_abelian"),
                       exp["algebra_hull_abelian"]))
    if command == "cohomology":
        return (same("betti", r.get("betti"), exp["algebra_betti"])
                + check_betti_properties(r.get("betti"), len(exp["algebra_betti"]) - 1,
                                         exp["unimodular"]))
    if command == "invariants":
        return (same("dims", r.get("dims"), exp["model_dims"])
                + same("betti", r.get("betti"), exp["model_betti"]))
    if command == "formality":
        status = r.get("status")
        if exp["formal"]:
            return same("status", status, "certified_formal")
        return [] if status != "certified_formal" else ["formality: nilpotent model certified formal"]
    if command == "lefschetz":
        return (same("symplectic", (r.get("symplectic") or {}).get("symplectic"), True)
                + same("holds", (r.get("lefschetz") or {}).get("holds"), exp["lefschetz"]))
    if command == "analyze":
        return check_summary(exp, summary_from_payload(r))
    return [f"unknown command {command}"]


def summary_from_payload(r: dict) -> dict:
    """The fields check_summary reads, from the CLI's analyze payload."""
    model = r.get("model") or {}
    return {
        "valid": r.get("validation") == "ok",
        "dim": r.get("dim"),
        "algebra_betti": r.get("algebra_betti"),
        "model_dims": model.get("dims"),
        "model_betti": model.get("betti"),
        "hull_abelian": (r.get("hull") or {}).get("abelian"),
        "hull_torus_dim": (r.get("hull") or {}).get("torus_dim"),
        "nilradical_dim": (r.get("nilradical") or {}).get("dim"),
        "kahler": (r.get("kahler") or {}).get("conclusion"),
        "formality": (r.get("formality") or {}).get("status"),
        "symplectic": (r.get("symplectic") or {}).get("symplectic"),
        "lefschetz": (r.get("lefschetz") or {}).get("holds"),
    }
