"""Splittable hulls of solvable Lie algebras, entirely over Q.

The pipeline here takes a solvable algebra g, splits every adjoint
operator into commuting semisimple and nilpotent parts (Jordan-Chevalley,
computed by Newton iteration so no eigenvalues are ever extracted),
adjoins the semisimple parts as new torus directions, and reads off the
nilshadow: the nilpotent algebra spanned by x - d_x.  The nilshadow is
the Lie algebra of the unipotent radical of the algebraic hull of the
corresponding simply connected group, so its abelianity decides whether
the group splits as R^n acting semisimply on R^m; when it does,
recognize_split_form produces the splitting constructively.

A hull computes the nilradical of g once: the first Fitting round of the
nilpotent supplement works on g itself with it, and only later rounds,
on proper subalgebras, compute their own.  Coordinates in a fixed basis
are read from a linalg.Chart, and the lifts of g mod the nilradical are
pivot columns of one elimination.

Every structural claim made by a returned object is re-verified before
returning; a failure raises InternalCheckError since it would indicate an
arithmetic bug rather than bad input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InternalCheckError, PreconditionError, SolvhullError, StructureError
from .lie import (
    LieAlgebra,
    Subspace,
    ad_matrix,
    complement_directions,
    derived_subalgebra,
    first_nonzero_bracket,
    is_ideal,
    is_nilpotent,
    is_solvable,
    nilradical,
    validate,
)
from .linalg import (
    QQ,
    Chart,
    Mat,
    Vec,
    char_poly,
    eval_poly_at_matrix,
    is_nilpotent_matrix,
    is_semisimple_matrix,
    is_zero_vec,
    kernel_basis,
    poly_ext_gcd,
    rank,
    row_space_basis,
    rref,
    solve,
    squarefree_part,
    unit_vec,
    vadd,
    vdot,
    vscale,
    zero_vec,
)


@dataclass(frozen=True)
class JordanPair:
    """Additive Jordan decomposition m = s + n.

    s is semisimple (squarefree annihilating polynomial), n nilpotent,
    s and n commute, and s is a polynomial in m.
    """

    s: Mat
    n: Mat


def jordan_chevalley(m: Mat) -> JordanPair:
    """Exact Jordan decomposition of a square rational matrix.

    Newton iteration on the squarefree part q of the characteristic
    polynomial: with u the inverse of q' modulo q, the map
    s -> s - q(s) u(s) converges quadratically to the semisimple part,
    so ceil(log2(dim)) + 1 rounds suffice.  Everything stays over Q.
    """
    if not m.is_square():
        raise PreconditionError("Jordan decomposition needs a square matrix")
    dim = m.rows
    q = squarefree_part(char_poly(m))
    g, u, _ = poly_ext_gcd(q.derivative(), q)
    if g.degree() != 0:
        raise InternalCheckError("squarefree part shares a factor with its derivative")
    s = m
    rounds = (max(dim, 1) - 1).bit_length() + 1
    converged = False
    for _ in range(rounds + 1):
        qs = eval_poly_at_matrix(q, s)
        if qs.is_zero():
            converged = True
            break
        s = s - qs @ eval_poly_at_matrix(u, s)
    if not converged:
        raise InternalCheckError("Newton iteration did not reach a semisimple part")
    n = m - s
    if not s.commutes_with(n):
        raise InternalCheckError("Jordan parts do not commute")
    if not is_nilpotent_matrix(n):
        raise InternalCheckError("Jordan nilpotent part is not nilpotent")
    return JordanPair(s, n)


def _check_derivation(g: LieAlgebra, d: Mat, error: type[SolvhullError], message: str) -> None:
    """Raise error(message + the basis pair) where d breaks the Leibniz rule.

    InternalCheckError marks a derivation the program computed (a bug),
    StructureError one the input supplied.
    """
    for i in range(g.dim):
        ei = unit_vec(g.dim, i)
        for j in range(i + 1, g.dim):
            ej = unit_vec(g.dim, j)
            lhs = d.apply(g.c[i][j])
            rhs = vadd(g.bracket(d.apply(ei), ej), g.bracket(ei, d.apply(ej)))
            if lhs != rhs:
                raise error(f"{message} basis pair ({i}, {j})")


def semisimple_derivation(g: LieAlgebra, x: Vec) -> Mat:
    """Semisimple part of ad_x, verified to be a derivation of g."""
    if not is_solvable(g):
        raise PreconditionError("semisimple derivations are computed for solvable algebras")
    return _semisimple_derivation_unchecked(g, x)


def _semisimple_derivation_unchecked(g: LieAlgebra, x: Vec) -> Mat:
    d = jordan_chevalley(ad_matrix(g, x)).s
    _check_derivation(g, d, InternalCheckError,
                      "semisimple part of an adjoint violates the Leibniz rule on")
    return d


def _induced_subalgebra(g: LieAlgebra, rows: Sequence[Vec]) -> LieAlgebra:
    """Bracket of g restricted to a subalgebra, in the given basis rows."""
    k = len(rows)
    chart = Chart(rows, g.dim)
    table = [[zero_vec(k) for _ in range(k)] for _ in range(k)]
    for i in range(k):
        for j in range(k):
            w = chart.coords(g.bracket(rows[i], rows[j]))
            if w is None:
                raise InternalCheckError("span is not closed under the bracket")
            table[i][j] = w
    names = tuple(f"h{i + 1}" for i in range(k))
    return LieAlgebra(k, names, tuple(tuple(r) for r in table))


def _nilpotent_supplement(g: LieAlgebra, nr: Subspace) -> list[Vec]:
    """A nilpotent subalgebra h with h + nilradical = g, deterministically.

    Iterated Fitting-null reduction: while h is not nilpotent, replace it
    by the generalized null space of ad_x for the first coordinate
    direction x outside the nilradical of h.  Nonzero Fitting components
    of a derivation lie in [g, g], so the projection of h onto g modulo
    the nilradical stays onto; the dimension strictly drops, and on a
    nilpotent h the semisimple parts of adjoints depend linearly on the
    element, which is what the hull construction needs.  h is nilpotent
    exactly when its nilradical is all of h: the first round reads that
    off g's nilradical nr, later rounds test the induced subalgebra.
    """
    rows = [unit_vec(g.dim, i) for i in range(g.dim)]
    sub, nr_sub = g, nr
    while nr_sub.dim < sub.dim:
        c = complement_directions(sub, nr_sub)[0]
        adx = ad_matrix(sub, unit_vec(sub.dim, c))
        null = kernel_basis(adx.power(sub.dim))
        span = Mat.from_cols(rows, rows=g.dim)
        new_rows = row_space_basis([span.apply(v) for v in null], g.dim)
        if len(new_rows) >= len(rows):
            raise InternalCheckError("Fitting reduction failed to shrink")
        rows = new_rows
        sub = _induced_subalgebra(g, rows)
        nr_sub = Subspace.full(sub) if is_nilpotent(sub) else nilradical(sub)
    return rows


@dataclass(frozen=True)
class SplittableHull:
    """g embedded in the splittable algebra gbar = (torus part) + g.

    imf_basis is the canonical basis of the span of the adjoint
    semisimple parts: commuting semisimple derivations of g.  nbar is the
    nilshadow spanned by x - d_x, expressed in its own basis (identified
    with g's basis vectors); nbar_inclusion gives those basis vectors
    inside gbar; embed is the inclusion of g.
    """

    gbar: LieAlgebra
    imf_basis: tuple[Mat, ...]
    nbar: LieAlgebra
    embed: Mat
    nbar_inclusion: tuple[Vec, ...]
    nilradical: Subspace
    d_matrices: tuple[Mat, ...]

    @property
    def imf_dim(self) -> int:
        return len(self.imf_basis)


def build_splittable_hull(g: LieAlgebra) -> SplittableHull:
    """Construct the splittable hull and nilshadow of a solvable algebra.

    All structural invariants are verified exactly before returning:
    the adjoined torus derivations commute, the nilshadow is a nilpotent
    ideal, gbar splits as torus + nilshadow, the inclusion of g preserves
    brackets, and [gbar, gbar] lies in the image of the nilradical.
    """
    if not is_solvable(g):
        raise PreconditionError("splittable hulls are defined for solvable algebras")
    n = g.dim
    nr = nilradical(g)

    # x -> d_x is linear only on a nilpotent subalgebra supplementing the
    # nilradical; build one, take Jordan parts of lifts there, and extend
    # to all of g through the quotient coordinates.  The lifts are the
    # supplement rows independent of the nilradical and the rows before
    # them: the pivot columns of [nilradical | supplement] past its block.
    k = n - nr.dim
    supplement = _nilpotent_supplement(g, nr)
    pivots = rref(Mat.from_cols(list(nr.basis) + supplement, rows=n))[1]
    lifts = [supplement[p - nr.dim] for p in pivots if p >= nr.dim]
    if len(lifts) != k:
        raise InternalCheckError("nilpotent supplement does not cover g mod nilradical")

    d_lift = [_semisimple_derivation_unchecked(g, lift) for lift in lifts]

    # linearity of x -> d_x on the supplement, the homomorphism property
    # the construction rests on: checked, not assumed
    for a in range(k):
        for b in range(a + 1, k):
            d_sum = jordan_chevalley(ad_matrix(g, vadd(lifts[a], lifts[b]))).s
            if d_sum != d_lift[a] + d_lift[b]:
                raise InternalCheckError(
                    "x -> d_x is not additive on the nilpotent supplement")

    # d_(e_i) combines the d_lift by the quotient coordinates of e_i: its
    # last k coordinates in the basis nilradical + lifts
    quotient = Chart(list(nr.basis) + lifts, n)
    d_flat = [d.flatten() for d in d_lift]
    d_cols = Mat.from_cols(d_flat, rows=n * n)
    d_mats: list[Mat] = []
    for i in range(n):
        coords = quotient.coords(unit_vec(n, i))
        if coords is None:
            raise InternalCheckError("quotient coordinates of a basis vector failed")
        d_mats.append(Mat.unflatten(d_cols.apply(coords[nr.dim:]), n, n))

    # the images of the semisimple parts must land in the nilradical
    for i in range(n):
        for j in range(n):
            if not nr.contains(d_mats[i].col(j)):
                raise InternalCheckError("semisimple part image escapes the nilradical")

    imf_rows = row_space_basis(d_flat, n * n)
    imf = tuple(Mat.unflatten(rw, n, n) for rw in imf_rows)
    r = len(imf)
    if r != n - nr.dim:
        raise InternalCheckError("torus part dimension does not match codim of the nilradical")
    for a in range(r):
        if not is_semisimple_matrix(imf[a]):
            raise InternalCheckError("torus basis element is not semisimple")
        for b in range(a + 1, r):
            if not imf[a].commutes_with(imf[b]):
                raise InternalCheckError("torus derivations do not commute")
        _check_derivation(g, imf[a], InternalCheckError,
                          "torus basis element violates the Leibniz rule on")

    imf_chart = Chart(imf_rows, n * n)
    d_coords = []
    for i in range(n):
        coords = imf_chart.coords(d_mats[i].flatten())
        if coords is None:
            raise InternalCheckError("adjoint semisimple part escapes the torus span")
        d_coords.append(coords)

    # gbar = torus + g with [D, x] = D x and commuting torus directions
    big = r + n
    cbar = [[zero_vec(big) for _ in range(big)] for _ in range(big)]
    for a in range(r):
        for i in range(n):
            img = imf[a].col(i)
            v = zero_vec(r) + img
            cbar[a][r + i] = v
            cbar[r + i][a] = vscale(-1, v)
    for i in range(n):
        for j in range(n):
            cbar[r + i][r + j] = zero_vec(r) + g.c[i][j]
    names = tuple(f"D{a + 1}" for a in range(r)) + g.basis_names
    gbar = LieAlgebra(big, names, tuple(tuple(row) for row in cbar))
    bad = validate(gbar)
    if bad is not None:
        raise InternalCheckError("splittable hull fails the Lie axioms: "
                                 + bad.describe(gbar.basis_names))

    # nilshadow basis: v_i = e_i - d_{e_i} inside gbar
    vbar = [vscale(-1, d_coords[i]) + unit_vec(n, i) for i in range(n)]
    vbar_cols = Mat.from_cols(vbar, rows=big)
    shadow_c = [[zero_vec(n) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            w = gbar.bracket(vbar[i], vbar[j])
            beta = w[r:]
            if vbar_cols.apply(beta) != w:
                raise InternalCheckError("nilshadow is not closed under the bracket")
            shadow_c[i][j] = beta
    nbar = LieAlgebra(n, g.basis_names, tuple(tuple(row) for row in shadow_c))

    if not is_nilpotent(nbar):
        raise InternalCheckError("nilshadow is not nilpotent")
    nbar_sub = Subspace.span(gbar, vbar)
    if nbar_sub.dim != n or not is_ideal(gbar, nbar_sub):
        raise InternalCheckError("nilshadow is not an ideal of the hull")
    nr_in_gbar = Subspace.span(gbar, [zero_vec(r) + v for v in nr.basis])
    if not nr_in_gbar.contains_subspace(derived_subalgebra(gbar)):
        raise InternalCheckError("[gbar, gbar] escapes the nilradical image")
    split_rows = [unit_vec(big, a) for a in range(r)] + vbar
    if rank(Mat.from_rows(split_rows, cols=big)) != big:
        raise InternalCheckError("hull does not split as torus + nilshadow")

    embed = Mat.from_cols([zero_vec(r) + unit_vec(n, i) for i in range(n)], rows=big)
    for i in range(n):
        for j in range(n):
            lhs = gbar.bracket(embed.col(i), embed.col(j))
            if lhs != zero_vec(r) + g.c[i][j]:
                raise InternalCheckError("inclusion of g does not preserve brackets")

    return SplittableHull(
        gbar=gbar,
        imf_basis=imf,
        nbar=nbar,
        embed=embed,
        nbar_inclusion=tuple(vbar),
        nilradical=nr,
        d_matrices=tuple(d_mats),
    )


@dataclass(frozen=True)
class AbelianityVerdict:
    """Whether the nilshadow (= unipotent hull) is abelian, with witness."""

    abelian: bool
    witness: Optional[tuple[int, int, Vec]]


def unipotent_hull_abelian(hull: SplittableHull) -> AbelianityVerdict:
    """True iff the nilshadow has identically zero structure constants.

    On a negative answer the witness is the first basis pair (i, j) with
    a nonzero nilshadow bracket, together with that bracket.
    """
    witness = first_nonzero_bracket(hull.nbar)
    return AbelianityVerdict(witness is None, witness)


@dataclass(frozen=True)
class SplitForm:
    """Decomposition g = a + m: abelian subalgebra acting semisimply on
    an abelian ideal m (the nilradical).

    complement holds the basis of a in g-coordinates; action[i] is the
    restriction of ad applied to complement[i] on m, in m's basis.
    """

    complement: tuple[Vec, ...]
    ideal: tuple[Vec, ...]
    action: tuple[Mat, ...]


def recognize_split_form(g: LieAlgebra, hull: SplittableHull) -> Optional[SplitForm]:
    """Recover g = R^a acting semisimply on R^m when its hull is abelian.

    hull is the splittable hull of g; returns None when its nilshadow is
    nonabelian.  The abelian complement is found constructively: starting
    from the coordinate complement of the nilradical, a correction inside
    the weight-nonzero part of the nilradical is solved for linearly so
    that the corrected lifts commute.
    """
    if not unipotent_hull_abelian(hull).abelian:
        return None
    n = g.dim
    nr = hull.nilradical
    m = nr.dim

    for u in nr.basis:
        for v in nr.basis:
            if not is_zero_vec(g.bracket(u, v)):
                raise InternalCheckError("nilradical is not abelian despite abelian hull")

    # action of each coordinate direction on the nilradical, in nr coords
    nr_chart = Chart(nr.basis, n)
    acts = []
    for i in range(n):
        cols = []
        for v in nr.basis:
            w = nr_chart.coords(g.bracket(unit_vec(n, i), v))
            if w is None:
                raise InternalCheckError("nilradical is not an ideal")
            cols.append(w)
        acts.append(Mat.from_cols(cols, rows=m))

    # weight-zero part and its complement n' = sum of the action images
    stacked = [row for a in acts for row in a.entries]
    v0 = kernel_basis(Mat.from_rows(stacked, cols=m)) if m else []
    image_vecs = [a.col(j) for a in acts for j in range(m)]
    nprime = row_space_basis(image_vecs, m)
    if len(v0) + len(nprime) != m or len(row_space_basis(list(v0) + nprime, m)) != m:
        raise InternalCheckError("weight-zero space and action image do not split the nilradical")

    derived = derived_subalgebra(g)
    nprime_g = row_space_basis([nr_chart.combine(p) for p in nprime], n)
    for w in derived.basis:
        if not Subspace(g, tuple(nprime_g)).contains(w):
            raise InternalCheckError("derived algebra escapes the weight-nonzero part")

    comp = complement_directions(g, nr)
    k = len(comp)
    s = len(nprime)
    # unknown corrections chi_c = sum_t X[c,t] p_t; commutators of the
    # corrected lifts must vanish:
    #   A_c chi_{c'} - A_{c'} chi_c = -[e_c, e_{c'}]  (in nr coordinates)
    chi = [zero_vec(m) for _ in range(k)]
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    if pairs and s:
        rows = []
        rhs = []
        for (a, b) in pairs:
            ca, cb = comp[a], comp[b]
            target = nr_chart.coords(g.bracket(unit_vec(n, ca), unit_vec(n, cb)))
            if target is None:
                raise InternalCheckError("bracket of complement directions escapes the nilradical")
            for row_i in range(m):
                coeffs = [QQ(0)] * (k * s)
                for t in range(s):
                    coeffs[b * s + t] = vdot(acts[ca].row(row_i), nprime[t])
                    coeffs[a * s + t] = -vdot(acts[cb].row(row_i), nprime[t])
                rows.append(tuple(coeffs))
                rhs.append(-target[row_i])
        sol = solve(Mat.from_rows(rows, cols=k * s), tuple(rhs))
        if sol is None:
            raise InternalCheckError("abelian correction system is inconsistent")
        nprime_cols = Mat.from_cols(nprime, rows=m)
        chi = [nprime_cols.apply(sol[c * s:(c + 1) * s]) for c in range(k)]

    complement = [vadd(unit_vec(n, comp[c]), nr_chart.combine(chi[c])) for c in range(k)]
    for a in range(k):
        for b in range(a + 1, k):
            if not is_zero_vec(g.bracket(complement[a], complement[b])):
                raise InternalCheckError("corrected complement is not abelian")
    if len(row_space_basis(complement + list(nr.basis), n)) != n:
        raise InternalCheckError("complement and nilradical do not span")

    action = []
    for c in range(k):
        cols = []
        for v in nr.basis:
            w = nr_chart.coords(g.bracket(complement[c], v))
            if w is None:
                raise InternalCheckError("complement does not preserve the nilradical")
            cols.append(w)
        mat = Mat.from_cols(cols, rows=m)
        if not is_semisimple_matrix(mat):
            raise InternalCheckError("split-form action is not semisimple")
        action.append(mat)
    for a in range(k):
        for b in range(a + 1, k):
            if not action[a].commutes_with(action[b]):
                raise InternalCheckError("split-form action matrices do not commute")

    return SplitForm(tuple(complement), nr.basis, tuple(action))


@dataclass(frozen=True)
class HullData:
    """A nilpotent algebra with reductive action data.

    u is nilpotent; torus_derivations are commuting semisimple
    derivations of u; finite_generators are bracket-preserving invertible
    matrices generating a finite group.  hull_action_data returns data
    that the hull construction has proved; validate_hull_data proves it
    for supplied data, and report.model_stage runs it on them.
    """

    u: LieAlgebra
    torus_derivations: tuple[Mat, ...]
    finite_generators: tuple[Mat, ...]


DEFAULT_FINITE_BOUND = 10_000


def enumerate_finite_group(generators: Sequence[Mat], bound: int = DEFAULT_FINITE_BOUND) -> list[Mat]:
    """Breadth-first closure of the generated matrix group.

    Aborts with PreconditionError if more than `bound` elements appear,
    which catches generators of infinite order.
    """
    if not generators:
        return []
    n = generators[0].rows
    ident = Mat.identity(n)
    seen = {ident}
    order = [ident]
    queue = [ident]
    while queue:
        current = queue.pop(0)
        for gen in generators:
            nxt = gen @ current
            if nxt not in seen:
                if len(seen) >= bound:
                    raise PreconditionError(
                        f"finite group closure exceeded the bound {bound}; "
                        "a generator likely has infinite order")
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)
    return order


def validate_hull_data(h: HullData, finite_bound: int = DEFAULT_FINITE_BOUND) -> None:
    """Check all HullData invariants of supplied data, raising StructureError.

    The pipeline runs this once, in report.model_stage, on hull data it
    did not compute.  The finite group is enumerated up to finite_bound
    elements only to certify that it is finite (PreconditionError past it).
    """
    if not is_nilpotent(h.u):
        raise StructureError("hull data needs a nilpotent algebra")
    for d in h.torus_derivations:
        if d.shape != (h.u.dim, h.u.dim):
            raise StructureError("torus derivation has wrong shape")
        _check_derivation(h.u, d, StructureError, "matrix is not a derivation at")
        if not is_semisimple_matrix(d):
            raise StructureError("torus derivation is not semisimple")
    for a in range(len(h.torus_derivations)):
        for b in range(a + 1, len(h.torus_derivations)):
            if not h.torus_derivations[a].commutes_with(h.torus_derivations[b]):
                raise StructureError("torus derivations do not commute")
    for f in h.finite_generators:
        if f.shape != (h.u.dim, h.u.dim):
            raise StructureError("finite generator has wrong shape")
        if rank(f) != h.u.dim:
            raise StructureError("finite generator is not invertible")
        for i in range(h.u.dim):
            for j in range(i + 1, h.u.dim):
                lhs = f.apply(h.u.c[i][j])
                rhs = h.u.bracket(f.col(i), f.col(j))
                if lhs != rhs:
                    raise StructureError(
                        f"finite generator does not preserve the bracket at ({i}, {j})")
    enumerate_finite_group(h.finite_generators, finite_bound)


def hull_action_data(hull: SplittableHull) -> HullData:
    """Nilshadow of a splittable hull with the torus derivations acting on it.

    The torus action on the nilshadow has the same matrices as on g under
    the identification x <-> x - d_x; this is verified inside the hull,
    and the derivation property on the nilshadow is checked here.  The
    other HullData invariants hold by construction and are checked in
    build_splittable_hull: the nilshadow is nilpotent, the torus
    derivations are semisimple and commute, and there is no finite part.
    """
    nbar = hull.nbar
    inclusion = Mat.from_cols(hull.nbar_inclusion, rows=hull.gbar.dim)
    for a, d in enumerate(hull.imf_basis):
        _check_derivation(nbar, d, InternalCheckError,
                          "torus derivation on the nilshadow violates the Leibniz rule on")
        for i in range(nbar.dim):
            lhs = hull.gbar.bracket(unit_vec(hull.gbar.dim, a), hull.nbar_inclusion[i])
            if lhs != inclusion.apply(d.col(i)):
                raise InternalCheckError("torus action does not transport to the nilshadow")
    return HullData(nbar, hull.imf_basis, ())
