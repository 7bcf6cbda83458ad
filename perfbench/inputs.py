"""Seeded input documents for the benchmark workloads.

Every document is built here from its mathematical description, not
through solvhull, and travels with that description (a ``Case``) so the
oracles can derive the expected answers without the program.  A round is
a fixed list of slots: the seed and the round index change the weights,
scalings and basis changes, never the kind of input in a slot, so every
round of a workload does the same amount of work up to the size of its
rationals.

Values are drawn so that no two operations of one process see equal
documents: solvhull keeps a module-global cache keyed on the algebra's
value, and a repeated input would be served from it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as Q
from typing import Optional

# Small positive rationals (26 of them): weights and scalings stay cheap
# to multiply, so the seed moves the values and not the cost.
POOL = tuple(sorted({Q(p, q) for p in range(1, 13) for q in (1, 2, 3)}))

# (re, im) of one complex weight of one acting generator
Weight = tuple[Q, Q]


@dataclass(frozen=True)
class Case:
    """One operation's input and the facts the oracles need.

    kind is "split", "nilpotent", "extension" or "broken".  facts holds
    the construction data: complex weights per ideal direction (split),
    the product factors (nilpotent), torus weights and signed-permutation
    generators (extension).
    """

    slot: str
    kind: str
    dim: int
    doc: dict
    facts: dict = field(default_factory=dict)
    command: str = "analyze"

    def text(self) -> str:
        return json.dumps(self.doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# document assembly
# ---------------------------------------------------------------------------

def _document(names, brackets, omega=None, override=None) -> dict:
    n = len(names)
    doc = {
        "schema_version": 1,
        "algebra": {
            "dim": n,
            "basis": list(names),
            "brackets": [
                {"i": i + 1, "j": j + 1, "coeffs": [str(x) for x in v]}
                for (i, j), v in sorted(brackets.items()) if any(v)
            ],
        },
    }
    if override is not None:
        doc["hull_override"] = {
            key: [[[str(x) for x in row] for row in m] for m in mats]
            for key, mats in override.items()
        }
    if omega is not None:
        doc["omega"] = [{"i": i + 1, "j": j + 1, "coeff": str(c)}
                        for (i, j), c in sorted(omega.items()) if c != 0]
    return doc


def _set(table: dict, i: int, j: int, k: int, c, n: int) -> None:
    """[e_i, e_j] += c e_k, stored once per unordered pair (i < j)."""
    if i > j:
        i, j, c = j, i, -c
    v = table.setdefault((i, j), [Q(0)] * n)
    v[k] += Q(c)


def _bracket(table: dict, n: int, u, v) -> list:
    out = [Q(0)] * n
    for (i, j), c in table.items():
        f = u[i] * v[j] - u[j] * v[i]
        if f:
            for k in range(n):
                out[k] += f * c[k]
    return out


def _inverse(m: list) -> list:
    n = len(m)
    a = [[Q(x) for x in row] + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def unimodular(rng: random.Random, n: int, moves: int) -> list:
    """Integer matrix of determinant 1: a product of +-1 transvections."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(moves):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        m[i] = [a + s * b for a, b in zip(m[i], m[j])]
    return m


def basis_change(slot: str, n: int, moves: int, fixed: int = 0) -> list:
    """The slot's unimodular basis change, the same for every seed, so the
    seed moves the weights and not the density of the differentials.

    The first `fixed` basis vectors (the acting generators) are kept.
    With omega given, solvhull skips hard Lefschetz in most bases that
    mix a generator into the ideal (see CHANGES.md), so those inputs
    scramble the ideal only.
    """
    p = unimodular(random.Random(f"basis:{slot}"), n - fixed, moves)
    return [[int(i == j) for j in range(n)] for i in range(fixed)] + \
        [[0] * fixed + row for row in p]


def scramble(table: dict, omega: Optional[dict], p: list, n: int):
    """Structure constants and omega in the basis f_i = sum_j p[j][i] e_j."""
    cols = [[Q(p[r][c]) for r in range(n)] for c in range(n)]
    pinv = _inverse(p)
    out: dict = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = _bracket(table, n, cols[i], cols[j])
            out[(i, j)] = [sum((pinv[r][k] * w[k] for k in range(n)), Q(0)) for r in range(n)]
    new_omega = None
    if omega is not None:
        new_omega = {}
        for i in range(n):
            for j in range(i + 1, n):
                c = sum((_omega_coeff(omega, a, b) * cols[i][a] * cols[j][b]
                         for a in range(n) for b in range(n)), Q(0))
                if c:
                    new_omega[(i, j)] = c
    return out, new_omega


def _omega_coeff(omega: dict, a: int, b: int) -> Q:
    if a < b:
        return omega.get((a, b), Q(0))
    if a > b:
        return -omega.get((b, a), Q(0))
    return Q(0)


# ---------------------------------------------------------------------------
# value draws
# ---------------------------------------------------------------------------

class Draws:
    """Seeded draws that never hand out the same value tuple twice."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.used: set = set()

    def omega(self, pairs) -> dict:
        """Seeded nonzero coefficients for the given planes."""
        return {pair: self.rng.choice(POOL) * self.rng.choice((-1, 1)) for pair in pairs}

    def fresh(self, slot: str, count: int, distinct: bool = False, signed: bool = False) -> tuple:
        for _ in range(10_000):
            vals = tuple(self.rng.choice(POOL) for _ in range(count))
            if distinct and len(set(vals)) < count:
                continue
            if signed:
                vals = tuple(v * self.rng.choice((-1, 1)) for v in vals)
            if (slot, vals) not in self.used:
                self.used.add((slot, vals))
                return vals
        raise RuntimeError(f"value pool exhausted for slot {slot}")


# ---------------------------------------------------------------------------
# split algebras R^k acting semisimply on R^m
# ---------------------------------------------------------------------------

def split_case(slot: str, hyperbolic, rotations, extra_zero: bool, with_omega: bool,
               p: Optional[list] = None, command: str = "analyze") -> Case:
    """One generator tau acting by weights +-a (hyperbolic pairs) and +-ib
    (rotation pairs), optionally fixing one more direction sigma; omega is
    tau^sigma + sum of the pair planes."""
    names = ["tau"]
    for i in range(len(hyperbolic)):
        names += [f"x{i + 1}", f"y{i + 1}"]
    for j in range(len(rotations)):
        names += [f"z{j + 1}", f"w{j + 1}"]
    if extra_zero:
        names.append("sigma")
    n = len(names)
    table: dict = {}
    weights: list[tuple[Weight, ...]] = []
    omega = {}
    pos = 1
    for a in hyperbolic:
        _set(table, 0, pos, pos, a, n)
        _set(table, 0, pos + 1, pos + 1, -a, n)
        weights += [((a, Q(0)),), ((-a, Q(0)),)]
        omega[(pos, pos + 1)] = Q(1)
        pos += 2
    for b in rotations:
        _set(table, 0, pos, pos + 1, b, n)
        _set(table, 0, pos + 1, pos, -b, n)
        weights += [((Q(0), b),), ((Q(0), -b),)]
        omega[(pos, pos + 1)] = Q(1)
        pos += 2
    if extra_zero:
        weights.append(((Q(0), Q(0)),))
        omega[(0, n - 1)] = Q(1)
    if not with_omega or n % 2:
        omega = None
    if p is not None:
        table, omega = scramble(table, omega, p, n)
    doc = _document(names, table, omega)
    return Case(slot, "split", n, doc,
                {"acting": 1, "weights": weights, "omega": omega is not None}, command)


def split2_case(slot: str, a, b, with_omega: bool, p: Optional[list] = None,
                command: str = "analyze") -> Case:
    """R^2 acting on R^4: t1 by diag(a, -a) on (x, y), t2 by a rotation b
    on (z, w); omega = t1^t2 + x^y + z^w."""
    names = ["t1", "t2", "x", "y", "z", "w"]
    n = 6
    table: dict = {}
    _set(table, 0, 2, 2, a, n)
    _set(table, 0, 3, 3, -a, n)
    _set(table, 1, 4, 5, b, n)
    _set(table, 1, 5, 4, -b, n)
    zero = Q(0)
    weights = [((a, zero), (zero, zero)), ((-a, zero), (zero, zero)),
               ((zero, zero), (zero, b)), ((zero, zero), (zero, -b))]
    omega = {(0, 1): Q(1), (2, 3): Q(1), (4, 5): Q(1)} if with_omega else None
    if p is not None:
        table, omega = scramble(table, omega, p, n)
    doc = _document(names, table, omega)
    return Case(slot, "split", n, doc,
                {"acting": 2, "weights": weights, "omega": omega is not None}, command)


# ---------------------------------------------------------------------------
# nilpotent algebras: products of Heisenberg, filiform and abelian factors
# ---------------------------------------------------------------------------

def nilpotent_case(slot: str, factors, scales, omega=None, command: str = "analyze") -> Case:
    """factors: ("heis", n) is H_{2n+1}, ("fil", d) the filiform L_d with
    [e1, e_i] = c e_{i+1}, ("ab", d) the abelian R^d.  Each nonzero bracket
    takes the next value of scales.  omega maps 0-based index pairs to
    coefficients; the callers pick planes that are closed one by one."""
    names: list[str] = []
    table: dict = {}
    scale = iter(scales)
    blocks = []
    for f, (kind, size) in enumerate(factors):
        blocks.append((kind, size, len(names)))
        if kind == "heis":
            names += [f"p{f}_{i}" for i in range(1, size + 1)]
            names += [f"q{f}_{i}" for i in range(1, size + 1)]
            names.append(f"r{f}")
        else:
            names += [f"{kind[0]}{f}_{i}" for i in range(1, size + 1)]
    n = len(names)
    for kind, size, start in blocks:
        if kind == "heis":
            for i in range(size):
                _set(table, start + i, start + size + i, start + 2 * size, next(scale), n)
        elif kind == "fil":
            for i in range(1, size - 1):
                _set(table, start, start + i, start + i + 1, next(scale), n)
    doc = _document(names, table, omega)
    return Case(slot, "nilpotent", n, doc,
                {"factors": list(factors), "omega": omega is not None}, command)


# ---------------------------------------------------------------------------
# finite extensions: a torus and a signed-permutation group on R^m
# ---------------------------------------------------------------------------

def signed_perm(perm, signs) -> list:
    """Matrix sending e_j to signs[j] e_{perm[j]}."""
    n = len(perm)
    m = [[0] * n for _ in range(n)]
    for j, (p, s) in enumerate(zip(perm, signs)):
        m[p][j] = s
    return m


def _hyperoctahedral_generators(d: int) -> list:
    """Signed permutations generating the group of order 2^d d! on R^d."""
    ones = [1] * d
    gens = [signed_perm([1, 0] + list(range(2, d)), ones),
            signed_perm(list(range(d)), [-1] + ones[1:])]
    if d > 2:
        gens.append(signed_perm([(j + 1) % d for j in range(d)], ones))
    return gens


def _diagonal(mat, copies: int) -> list:
    d = len(mat)
    n = d * copies
    out = [[0] * n for _ in range(n)]
    for c in range(copies):
        for i in range(d):
            for j in range(d):
                out[c * d + i][c * d + j] = mat[i][j]
    return out


def _pad(mat, extra: int) -> list:
    d = len(mat)
    return [list(row) + [0] * extra for row in mat] + \
        [[0] * d + [int(i == j) for j in range(extra)] for i in range(extra)]


def extension_case(slot: str, block: int, copies: int, weight,
                   with_omega: bool = False, command: str = "analyze") -> Case:
    """An abelian algebra acted on by a diagonal torus derivation and by the
    hyperoctahedral group of R^block.  With two copies of R^block the torus
    has weight +weight on the first and -weight on the second, the group
    acts diagonally on both, and omega pairs them.  With one copy the torus
    is zero there and one more direction, fixed by the group, carries the
    weight."""
    gens = [_diagonal(g, copies) for g in _hyperoctahedral_generators(block)]
    m = block * copies
    if copies == 2:
        diag = [weight] * block + [-weight] * block
    else:
        gens = [_pad(g, 1) for g in gens]
        diag = [Q(0)] * m + [weight]
        m += 1
    torus = [[diag[i] if i == j else Q(0) for j in range(m)] for i in range(m)]
    omega = None
    if with_omega:
        omega = {(i, block + i): Q(1) for i in range(block)}
    names = [f"u{i + 1}" for i in range(m)]
    doc = _document(names, {}, omega,
                    override={"torus_derivations": [torus], "finite_generators": gens})
    weights = [((d, Q(0)),) for d in diag]
    return Case(slot, "extension", m, doc,
                {"weights": weights, "generators": gens, "omega": omega is not None}, command)


# ---------------------------------------------------------------------------
# documents that break the Jacobi identity
# ---------------------------------------------------------------------------

def broken_case(slot: str, a, c, command: str) -> Case:
    """[t, x] = a x, [t, y] = -a y, [x, y] = c x: the Jacobiator of
    (t, x, y) is a c x, nonzero."""
    n = 3
    table: dict = {}
    _set(table, 0, 1, 1, a, n)
    _set(table, 0, 2, 2, -a, n)
    _set(table, 1, 2, 1, c, n)
    return Case(slot, "broken", n, _document(["t", "x", "y"], table), {}, command)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

CLI_COMMANDS = ("validate", "nilradical", "hull", "cohomology", "invariants",
                "formality", "lefschetz", "analyze")


def split_dim8_round(d: Draws) -> list[Case]:
    a1, a2 = d.fresh("hyp", 2, distinct=True)
    (b,) = d.fresh("hyp_rot", 1)
    (r,) = d.fresh("res", 1)
    (a3,) = d.fresh("mixed_hyp", 1)
    b1, b2 = d.fresh("mixed_rot", 2, distinct=True)
    return [
        split_case("hyperbolic2_rotation1", (a1, a2), (b,), True, True),
        split_case("rotation3_resonant", (), (r, r, r), True, True),
        split_case("hyperbolic1_rotation2_scrambled", (a3,), (b1, b2), True, False,
                   basis_change("hyperbolic1_rotation2_scrambled", 8, 8)),
    ]


def nilpotent_round(d: Draws) -> list[Case]:
    return [
        nilpotent_case("H5", [("heis", 2)], d.fresh("H5", 2, signed=True)),
        nilpotent_case("H3xH3", [("heis", 1), ("heis", 1)], d.fresh("H3xH3", 2, signed=True),
                       d.omega([(0, 2), (1, 4), (3, 5)])),
        nilpotent_case("H3xR3", [("heis", 1), ("ab", 3)], d.fresh("H3xR3", 1, signed=True),
                       d.omega([(0, 2), (1, 3), (4, 5)])),
        nilpotent_case("H5xR", [("heis", 2), ("ab", 1)], d.fresh("H5xR", 2, signed=True)),
        nilpotent_case("L6", [("fil", 6)], d.fresh("L6", 4, signed=True)),
        nilpotent_case("H7", [("heis", 3)], d.fresh("H7", 3, signed=True)),
    ]


# Each cli_mix slot: a document family and the commands run on it.  Every
# (slot, command) pair gets its own document, so no two processes read
# the same input.
CLI_SLOTS = (
    ("sol_scrambled", CLI_COMMANDS),
    ("split_r1_dim5", ("nilradical", "hull", "cohomology", "analyze")),
    ("split_r2_dim6", ("invariants", "formality", "lefschetz", "analyze")),
    ("kodaira_thurston", ("cohomology", "formality", "lefschetz", "analyze")),
    ("filiform4", ("cohomology", "formality")),
    ("ext_B2_dim4", ("invariants", "lefschetz", "analyze")),
    ("ext_B3_dim6", ("invariants", "analyze")),
    ("ext_B4_dim5", ("invariants", "formality")),
    ("broken_jacobi", ("validate", "hull", "analyze")),
)


def _cli_case(d: Draws, slot: str, command: str) -> Case:
    if slot == "sol_scrambled":
        (a,) = d.fresh(slot, 1, signed=True)
        return split_case(slot, (a,), (), False, False, basis_change(slot, 3, 3), command)
    if slot == "split_r1_dim5":
        a, b = d.fresh(slot, 2)
        return split_case(slot, (a,), (b,), False, False, basis_change(slot, 5, 5), command)
    if slot == "split_r2_dim6":
        a, b = d.fresh(slot, 2)
        return split2_case(slot, a, b, True, basis_change(slot, 6, 4, fixed=2), command)
    if slot == "kodaira_thurston":
        return nilpotent_case(slot, [("heis", 1), ("ab", 1)], d.fresh(slot, 1, signed=True),
                              d.omega([(0, 2), (1, 3)]), command=command)
    if slot == "filiform4":
        return nilpotent_case(slot, [("fil", 4)], d.fresh(slot, 2, signed=True), command=command)
    if slot == "ext_B2_dim4":
        (w,) = d.fresh(slot, 1, signed=True)
        return extension_case(slot, 2, 2, w, with_omega=True, command=command)
    if slot == "ext_B3_dim6":
        (w,) = d.fresh(slot, 1, signed=True)
        return extension_case(slot, 3, 2, w, with_omega=True, command=command)
    if slot == "ext_B4_dim5":
        (w,) = d.fresh(slot, 1, signed=True)
        return extension_case(slot, 4, 1, w, command=command)
    if slot == "broken_jacobi":
        a, c = d.fresh(slot, 2, signed=True)
        return broken_case(slot, a, c, command)
    raise ValueError(slot)


def cli_mix_round(d: Draws) -> list[Case]:
    return [_cli_case(d, slot, cmd) for slot, cmds in CLI_SLOTS for cmd in cmds]


ROUNDS = {
    "split_dim8": split_dim8_round,
    "nilpotent": nilpotent_round,
    "cli_mix": cli_mix_round,
}
