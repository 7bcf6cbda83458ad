"""Each artifact is built once per run, and each fact proved once: call
counts of the pipeline stages.

The counted functions are replaced in every solvhull module that binds
them (report, cli and formality import names directly, so patching the
defining module alone would miss their calls).
"""

import sys
from collections import Counter

import pytest

# cli imports every module that binds a counted name
from solvhull import cli, cochain, formality, lefschetz, report
from solvhull.fixtures import fixture
from solvhull.cochain import ce_complex, cohomology
from solvhull.hull import build_splittable_hull, hull_action_data
from solvhull.iodoc import algebra_of, hull_data_of, omega_of
from solvhull.linalg import Mat

COUNTED = {
    "lie": ("nilradical", "is_nilpotent"),
    "hull": ("build_splittable_hull", "validate_hull_data", "enumerate_finite_group"),
    "cochain": ("ce_complex", "wedge"),
    "formality": ("invariant_subcomplex", "averaging_projector"),
    "report": ("analyze",),
    "linalg": ("char_poly",),
}


def _counting(counts, name, fn):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return counted


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "solvhull" or name.startswith("solvhull."))]
    for home_name, names in COUNTED.items():
        home = sys.modules[f"solvhull.{home_name}"]
        for name in names:
            original = getattr(home, name)
            wrapper = _counting(counts, name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapper)
    return counts


def test_algebra_analyze_builds_one_hull_and_one_model(calls):
    doc = fixture("complex_sol")
    report.analyze(algebra_of(doc), omega=omega_of(doc))
    assert calls["build_splittable_hull"] == 1
    # computed hull data were checked as the hull was built
    assert calls["validate_hull_data"] == 0
    # the algebra's own complex and the model's ambient (nilshadow) complex
    assert calls["ce_complex"] == 2


@pytest.mark.parametrize("name", ["complex_sol", "almost_abelian"])
def test_algebra_analyze_computes_one_nilradical(calls, name):
    # the hull's Fitting reduction starts from g's own nilradical
    doc = fixture(name)
    report.analyze(algebra_of(doc), omega=omega_of(doc))
    assert calls["nilradical"] == 1


@pytest.mark.parametrize("name", ["heisenberg", "kodaira_thurston", "filiform4"])
def test_nilpotent_analyze_builds_one_complex(calls, name):
    # a nilpotent algebra is its own nilshadow, so the model's ambient
    # complex is the algebra's own
    doc = fixture(name)
    report.analyze(algebra_of(doc), omega=omega_of(doc))
    assert calls["ce_complex"] == 1


def test_cohomology_and_express_take_one_elimination_per_degree(monkeypatch):
    # express reads the image pivots off cohomology's own elimination
    cx = ce_complex(algebra_of(fixture("heisenberg")))
    counts = Counter()
    monkeypatch.setattr(cochain, "rref", _counting(counts, "rref", cochain.rref))
    for k in range(cx.dim + 1):
        basis = cohomology(cx, k)
        for i, rep in enumerate(basis.reps):
            coeffs, _ = basis.express(rep)
            assert coeffs == tuple(int(j == i) for j in range(basis.betti))
    assert counts["rref"] == cx.dim + 1


@pytest.mark.parametrize("name, per_degree", [("twisted_kodaira_thurston", 1), ("heisenberg", 0)])
def test_invariant_model_takes_one_kernel_per_degree(monkeypatch, name, per_degree):
    # torus and generator constraints in one joint kernel; none at all
    # for a nilpotent algebra's computed hull data
    doc = fixture(name)
    if doc.hull_override is not None:
        data = hull_data_of(doc)
    else:
        data = hull_action_data(build_splittable_hull(algebra_of(doc)))
    counts = Counter()
    monkeypatch.setattr(formality, "kernel_basis",
                        _counting(counts, "kernel_basis", formality.kernel_basis))
    ic = formality.invariant_subcomplex(data)
    assert counts["kernel_basis"] == per_degree * (ic.dim + 1)


def test_invariant_model_builds_no_identity(monkeypatch):
    # g* - I is read off g*'s own rows
    data = hull_data_of(fixture("twisted_kodaira_thurston"))
    counts = Counter()
    monkeypatch.setattr(Mat, "identity",
                        staticmethod(_counting(counts, "identity", Mat.identity)))
    formality.invariant_subcomplex(data)
    assert counts["identity"] == 0


def test_lefschetz_wedges_each_class_once_in_coordinates(calls, monkeypatch):
    # omega^2 and omega^3 are one wedge_coords each; on this
    # zero-differential model (dims 1,2,3,4,3,2,1) hard Lefschetz wedges
    # the 10 representatives of degrees 0-3 with a power once, for both
    # routes, and the pairing takes 1 + 4 + 9 + 16 products
    doc = fixture("almost_abelian")
    ic = formality.invariant_subcomplex(hull_action_data(build_splittable_hull(algebra_of(doc))))
    monkeypatch.setattr(formality.InvariantComplex, "wedge_coords", _counting(
        calls, "wedge_coords", formality.InvariantComplex.wedge_coords))
    check = lefschetz.verify_symplectic(ic, omega_of(doc))
    assert (calls["wedge_coords"], calls["wedge"]) == (2, 0)
    calls.clear()
    lefschetz.hard_lefschetz(ic, omega_of(doc), check)
    assert calls["wedge_coords"] == 2 + 10 + 30
    assert calls["wedge"] == 0


def test_hull_data_analyze_builds_one_complex(calls):
    doc = fixture("twisted_kodaira_thurston")
    report.analyze(hull_data_of(doc), omega=omega_of(doc))
    assert calls["ce_complex"] == 1
    assert calls["validate_hull_data"] == 1
    # validate_hull_data proved u nilpotent, so u is its own nilradical
    assert calls["nilradical"] == 0


@pytest.mark.parametrize("name, most", [("complex_sol", 2), ("almost_abelian", 2), ("heisenberg", 1)])
def test_analyze_reads_nilpotency_off_the_nilradical(calls, name, most):
    # the nilshadow self-check, plus one per later Fitting round; g's own
    # nilpotency is the hull's nilradical being all of g
    doc = fixture(name)
    report.analyze(algebra_of(doc), omega=omega_of(doc))
    assert 1 <= calls["is_nilpotent"] <= most


@pytest.mark.parametrize("name", ["sol", "complex_sol"])
def test_type_one_check_takes_one_char_poly_per_derivation(calls, name):
    data = hull_action_data(build_splittable_hull(algebra_of(fixture(name))))
    calls.clear()
    verdict = report.type_one_check(data)
    assert verdict.status == "not_type_I"
    assert calls["char_poly"] == len(data.torus_derivations) > 0


def test_finite_invariants_read_the_generators_not_the_group(calls):
    # the group is enumerated once, to certify it is finite; the model
    # takes one pullback per generator instead of averaging over G
    doc = fixture("twisted_kodaira_thurston")
    report.analyze(hull_data_of(doc), omega=omega_of(doc))
    assert calls["averaging_projector"] == 0
    assert calls["enumerate_finite_group"] == 1


@pytest.mark.parametrize("name", ["complex_sol", "heisenberg"])
def test_analyze_builds_one_invariant_complex(monkeypatch, name):
    built = []
    original = formality.InvariantComplex.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(formality.InvariantComplex, "__init__", counted)
    doc = fixture(name)
    report.analyze(algebra_of(doc), omega=omega_of(doc))
    assert len(built) == 1


@pytest.mark.parametrize("command", ["invariants", "formality", "lefschetz"])
@pytest.mark.parametrize("name", ["complex_sol", "twisted_kodaira_thurston"])
def test_model_commands_skip_analyze(calls, command, name):
    code, _, _ = cli.run(command, fixture(name))
    assert code == cli.EXIT_OK
    assert calls["analyze"] == 0
    assert calls["invariant_subcomplex"] <= 1
