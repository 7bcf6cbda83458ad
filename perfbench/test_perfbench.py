"""Tests of the benchmark's oracles, checks and tracer.

Each perturbation test takes a result the program really produced, shows
that it passes, then changes one fact of it and shows that the run counts
the operation as failed.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import inputs
import layers
import oracles
import run

HERE = Path(__file__).resolve().parent


def small_cases():
    d = inputs.Draws("test", 0)
    return {
        "split": inputs.split_case("split", (Q(2),), (), True, True,
                                   inputs.basis_change("split", 4, 3, fixed=1)),
        "nilpotent": inputs.nilpotent_case("kt", [("heis", 1), ("ab", 1)],
                                           d.fresh("kt", 1, signed=True),
                                           d.omega([(0, 2), (1, 3)])),
        "extension": inputs.extension_case("ext", 2, 2, Q(3), with_omega=True),
    }


def test_closed_forms():
    assert oracles.heisenberg_betti(1) == [1, 2, 2, 1]
    assert oracles.heisenberg_betti(3) == [1, 6, 14, 14, 14, 14, 6, 1]
    assert oracles.filiform_betti(4) == [1, 2, 2, 2, 1]
    assert oracles.filiform_betti(6) == [1, 2, 3, 4, 3, 2, 1]
    # three equal rotation pairs and a fixed direction: sum_j C(3, j)^2 t^2j (1 + t)
    weights = [((Q(0), s * Q(1)),) for _ in range(3) for s in (1, -1)] + [((Q(0), Q(0)),)]
    assert oracles.poly_mul([1, 1], oracles.zero_sum_counts(weights)) == \
        [1, 2, 10, 18, 18, 18, 10, 2, 1]
    assert len(oracles.enumerate_group(inputs._hyperoctahedral_generators(3))) == 48
    assert len(oracles.enumerate_group(inputs._hyperoctahedral_generators(4))) == 384


def test_inputs_depend_on_seed_only():
    a = [c.doc for c in inputs.split_dim8_round(inputs.Draws("split_dim8", 7))]
    b = [c.doc for c in inputs.split_dim8_round(inputs.Draws("split_dim8", 7))]
    c = [c.doc for c in inputs.split_dim8_round(inputs.Draws("split_dim8", 8))]
    assert a == b and a != c


def test_inputs_never_repeat_in_a_process():
    d = inputs.Draws("cli_mix", 3)
    docs = [json.dumps(c.doc) for _ in range(4) for c in inputs.cli_mix_round(d)]
    assert len(set(docs)) == len(docs)
    # the library workloads share a process, and solvhull caches per algebra
    for workload in ("split_dim8", "nilpotent"):
        d = inputs.Draws(workload, 3)
        algebras = [json.dumps(c.doc["algebra"]) for _ in range(4)
                    for c in inputs.ROUNDS[workload](d)]
        assert len(set(algebras)) == len(algebras), workload


def test_library_results_pass_and_perturbations_fail(monkeypatch):
    iodoc, report = run.import_solvhull()
    real_analyze = report.analyze
    perturbations = {
        "betti": lambda r: dataclasses.replace(
            r, algebra_betti=(r.algebra_betti[0] + 1,) + r.algebra_betti[1:]),
        "model": lambda r: dataclasses.replace(
            r, model_dims=r.model_dims[:-1] + (r.model_dims[-1] + 1,)),
        "formality": lambda r: dataclasses.replace(r, formality=dataclasses.replace(
            r.formality, status="obstructed_nonformal" if r.formality.status ==
            "certified_formal" else "certified_formal")),
        "lefschetz": lambda r: dataclasses.replace(r, lefschetz=dataclasses.replace(
            r.lefschetz, holds=not r.lefschetz.holds)),
    }
    cases = list(small_cases().values())
    docs = [iodoc.parse_document(c.text()) for c in cases]

    tally = run.Tally()
    run.library_round(iodoc, report, cases, docs, tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (3, 0, 0)

    for name, perturb in perturbations.items():
        monkeypatch.setattr(report, "analyze", lambda *a, **k: perturb(real_analyze(*a, **k)))
        tally = run.Tally()
        run.library_round(iodoc, report, cases, docs, tally)
        assert (tally.attempted, tally.failed, tally.wrong) == (3, 3, 3), name


def test_cli_results_pass_and_wrong_exit_codes_fail(tmp_path):
    cases = [dataclasses.replace(small_cases()["extension"], command="lefschetz"),
             dataclasses.replace(small_cases()["split"], command="cohomology"),
             inputs.broken_case("broken", Q(2), Q(3), "analyze")]
    tally = run.Tally()
    run.cli_round(cases, tally, tmp_path)
    assert (tally.attempted, tally.failed) == (3, 0)

    exp = oracles.expected(cases[0])
    assert oracles.check_cli(exp, "lefschetz", 4, None)
    assert oracles.check_cli(exp, "lefschetz", 0, {"symplectic": {"symplectic": True},
                                                    "lefschetz": {"holds": False}})
    betti = oracles.expected(cases[1])["algebra_betti"]
    assert not oracles.check_cli(oracles.expected(cases[1]), "cohomology", 0, {"betti": betti})
    off_by_one = betti[:1] + [betti[1] + 1] + betti[2:]
    assert oracles.check_cli(oracles.expected(cases[1]), "cohomology", 0, {"betti": off_by_one})
    assert oracles.check_cli(oracles.expected(cases[2]), "analyze", 0, {})
    tally = run.Tally()
    tally.record(cases[2], 0.1, oracles.check_cli(oracles.expected(cases[2]), "analyze", 4, None))
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)


def traced_counts(tmp_path, case, tag):
    doc = tmp_path / f"{tag}.json"
    doc.write_text(case.text())
    out = tmp_path / f"{tag}-trace.json"
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(out), "analyze",
                           str(doc), "--format", "structured"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["formality"]["status"] == "certified_formal"
    return json.loads(out.read_text())


def test_tracer_counts_every_layer_and_repeats(tmp_path):
    a = traced_counts(tmp_path, inputs.extension_case("ext", 2, 2, Q(3), with_omega=True), "a")
    b = traced_counts(tmp_path, inputs.extension_case("ext", 2, 2, Q(5), with_omega=True), "b")
    assert a["calls"] == b["calls"] and a["counts"] == b["counts"]
    assert set(a["calls"]) == set(layers.FUNCTIONS)
    for key in ("cli.run", "report.analyze", "iodoc.parse_document", "iodoc.render_document"):
        assert a["calls"][key] == 1, key
    assert a["counts"]["hull.enumerate_finite_group.elements"] > 0
    assert a["calls"]["linalg.Mat.matmul"] > 0 and a["counts"]["linalg.Mat.matmul.mults"] > 0
    metrics = layers.per_layer_metrics(a, 0.5)
    assert len(metrics) == 2 * len(layers.FUNCTIONS) + len(layers.COUNTS) + 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"),
                           "--workload", "nilpotent", "--seed", "1", "--seconds", "1"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
