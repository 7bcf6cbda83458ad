"""Input documents, fixtures, command dispatch, output stability."""

import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from solvhull import cli
from solvhull.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_VALIDATION,
    main,
    run,
)
from solvhull.errors import InternalCheckError
from solvhull.fixtures import FIXTURES, fixture
from solvhull.iodoc import (
    ParseError,
    algebra_of,
    parse_document,
    render_document,
)
from solvhull.lie import validate


def parse_error_for(text: str) -> ParseError:
    with pytest.raises(ParseError) as err:
        parse_document(text)
    return err.value


def minimal_doc(**extra) -> dict:
    body = {
        "schema_version": 1,
        "algebra": {"dim": 2, "basis": ["a", "b"],
                    "brackets": [{"i": 1, "j": 2, "coeffs": ["0", "1"]}]},
    }
    body.update(extra)
    return body


class TestParse:
    def test_minimal_document(self):
        doc = parse_document(json.dumps(minimal_doc()))
        assert doc.algebra.dim == 2
        assert doc.algebra.brackets[0].coeffs == (F(0), F(1))

    def test_decimal_string_is_exact(self):
        body = minimal_doc()
        body["algebra"]["brackets"][0]["coeffs"] = ["0", "0.5"]
        doc = parse_document(json.dumps(body))
        assert doc.algebra.brackets[0].coeffs[1] == F(1, 2)

    def test_json_syntax_error_carries_location(self):
        err = parse_error_for("{\n  \"schema_version\": 1,\n  ]")
        assert "line 3" in str(err)

    def test_malformed_rational(self):
        body = minimal_doc()
        body["algebra"]["brackets"][0]["coeffs"] = ["0", "1/0"]
        err = parse_error_for(json.dumps(body))
        assert "coeffs[1]" in str(err)

    def test_float_rejected(self):
        body = minimal_doc()
        body["algebra"]["brackets"][0]["coeffs"] = ["0", 0.5]
        err = parse_error_for(json.dumps(body))
        assert "float" in str(err)

    def test_out_of_range_index(self):
        body = minimal_doc()
        body["algebra"]["brackets"][0]["i"] = 7
        err = parse_error_for(json.dumps(body))
        assert "out of range" in str(err)

    def test_self_bracket_rejected(self):
        body = minimal_doc()
        body["algebra"]["brackets"][0]["j"] = 1
        err = parse_error_for(json.dumps(body))
        assert "self-bracket" in str(err)

    def test_duplicate_bracket_rejected(self):
        body = minimal_doc()
        body["algebra"]["brackets"].append({"i": 2, "j": 1, "coeffs": ["0", "0"]})
        err = parse_error_for(json.dumps(body))
        assert "twice" in str(err)

    def test_unsupported_schema_version(self):
        body = minimal_doc()
        body["schema_version"] = 9
        err = parse_error_for(json.dumps(body))
        assert "schema_version" in str(err)

    def test_omega_needs_increasing_pair(self):
        body = minimal_doc(omega=[{"i": 2, "j": 1, "coeff": "1"}])
        err = parse_error_for(json.dumps(body))
        assert "i < j" in str(err)


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_render_parse_identity(self, name):
        doc = fixture(name)
        assert parse_document(render_document(doc)) == doc

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixtures_validate(self, name):
        g = algebra_of(fixture(name))
        assert validate(g) is None

    def test_rendering_is_stable(self):
        doc = fixture("almost_abelian", {"m": 2, "n": 1, "a": "1,1/2", "b": "3"})
        assert render_document(doc) == render_document(doc)


class TestFixtures:
    def test_unknown_name(self):
        with pytest.raises(ParseError):
            fixture("no_such_thing")

    def test_parameter_validation(self):
        with pytest.raises(ParseError):
            fixture("almost_abelian", {"m": 1, "a": "1,2"})  # wrong length
        with pytest.raises(ParseError):
            fixture("almost_abelian", {"m": -1})
        with pytest.raises(ParseError):
            fixture("abelian", {"n": "x"})

    def test_parametrized_weights(self):
        doc = fixture("almost_abelian", {"m": 2, "n": 0, "a": "1,1/2"})
        g = algebra_of(doc)
        assert g.dim == 6
        assert g.bracket((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)) == (
            F(0), F(1), F(0), F(0), F(0), F(0))
        assert g.bracket((1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)) == (
            F(0), F(0), F(0), F(1, 2), F(0), F(0))


class TestRun:
    def test_validate_ok(self):
        code, payload, _ = run("validate", fixture("sol"))
        assert code == EXIT_OK
        assert payload == {"status": "ok"}

    def test_validate_violation_exit_code(self):
        body = minimal_doc()
        body["algebra"] = {
            "dim": 3, "basis": ["a", "b", "c"],
            "brackets": [
                {"i": 1, "j": 2, "coeffs": ["0", "0", "1"]},
                {"i": 1, "j": 3, "coeffs": ["1", "0", "0"]},
            ]}
        doc = parse_document(json.dumps(body))
        code, payload, _ = run("validate", doc)
        assert code == EXIT_VALIDATION
        assert payload["kind"] == "jacobi"

    def test_nilradical_sol(self):
        code, payload, _ = run("nilradical", fixture("sol"))
        assert code == EXIT_OK
        assert payload["dim"] == 2
        assert payload["basis"] == [["0", "1", "0"], ["0", "0", "1"]]

    def test_nilradical_non_solvable_precondition(self):
        body = {
            "schema_version": 1,
            "algebra": {"dim": 3, "basis": ["h", "e", "f"], "brackets": [
                {"i": 1, "j": 2, "coeffs": ["0", "2", "0"]},
                {"i": 1, "j": 3, "coeffs": ["0", "0", "-2"]},
                {"i": 2, "j": 3, "coeffs": ["1", "0", "0"]},
            ]},
        }
        doc = parse_document(json.dumps(body))
        code, payload, _ = run("nilradical", doc)
        assert code == EXIT_PRECONDITION
        assert "solvable" in payload["error"]

    def test_hull_heisenberg_witness(self):
        code, payload, _ = run("hull", fixture("heisenberg"))
        assert code == EXIT_OK
        assert payload["nilshadow_abelian"] is False
        assert payload["witness"] == {"i": 1, "j": 2, "bracket": ["0", "0", "1"]}

    def test_cohomology_betti(self):
        code, payload, _ = run("cohomology", fixture("heisenberg"))
        assert code == EXIT_OK
        assert payload["betti"] == [1, 2, 2, 1]

    def test_invariants_twisted(self):
        code, payload, _ = run("invariants", fixture("twisted_heisenberg"))
        assert code == EXIT_OK
        assert payload["dims"] == [1, 1, 1, 1]

    def test_formality_heisenberg(self):
        code, payload, _ = run("formality", fixture("heisenberg"))
        assert code == EXIT_OK
        assert payload["status"] == "obstructed_nonformal"

    def test_lefschetz_needs_omega(self):
        code, payload, _ = run("lefschetz", fixture("heisenberg"))
        assert code == EXIT_PRECONDITION

    def test_lefschetz_twisted(self):
        code, payload, _ = run("lefschetz", fixture("twisted_kodaira_thurston"))
        assert code == EXIT_OK
        assert payload["lefschetz"]["holds"] is True

    def test_invariants_computed_hull(self):
        code, payload, _ = run("invariants", fixture("sol"))
        assert code == EXIT_OK
        assert payload["dims"] == [1, 1, 1, 1]

    def test_finite_bound_flag_enforced(self):
        code, payload, _ = run("analyze", fixture("twisted_heisenberg"), finite_bound=1)
        assert code == EXIT_PRECONDITION
        assert "bound" in payload["error"]

    def test_massey_depth_flag_accepted(self):
        code, payload, _ = run("formality", fixture("heisenberg"), massey_depth=2)
        assert code == EXIT_OK
        assert payload["status"] == "obstructed_nonformal"

    def test_analyze_sol_structured_stable(self):
        code1, payload1, _ = run("analyze", fixture("sol"))
        code2, payload2, _ = run("analyze", fixture("sol"))
        assert code1 == code2 == EXIT_OK
        assert json.dumps(payload1) == json.dumps(payload2)
        assert payload1["kahler"]["conclusion"] == "not_kahler"

    def test_run_rejects_unknown_command(self):
        with pytest.raises(ValueError):
            run("frobnicate", fixture("sol"))


class TestMainEntry:
    def test_fixture_output_parses(self, capsys):
        assert main(["fixture", "sol"]) == EXIT_OK
        doc = parse_document(capsys.readouterr().out)
        assert doc.algebra.dim == 3

    def test_analyze_text(self, capsys):
        assert main(["analyze", "--fixture", "sol"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "certified_formal" in out
        assert "not_kahler" in out
        assert "lattice" in out

    def test_analyze_structured_byte_identical(self, capsys):
        assert main(["analyze", "--fixture", "heisenberg", "--format", "structured"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["analyze", "--fixture", "heisenberg", "--format", "structured"]) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        parsed = json.loads(first)
        assert parsed["result"]["formality"]["status"] == "obstructed_nonformal"

    def test_omega_flag(self, capsys):
        code = main(["lefschetz", "--fixture", "kodaira_thurston",
                     "--omega", "1,3=1;2,4=1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "FAILS" in out

    def test_internal_check_failure_has_its_own_exit_code(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise InternalCheckError("self-check failed")

        monkeypatch.setattr(cli, "analyze", broken)
        assert main(["analyze", "--fixture", "sol"]) == EXIT_INTERNAL
        assert "self-check failed" in capsys.readouterr().err

    def test_unknown_fixture_is_parse_error(self, capsys):
        assert main(["analyze", "--fixture", "nope"]) == EXIT_PARSE

    def test_missing_input_is_parse_error(self, capsys):
        assert main(["analyze"]) == EXIT_PARSE

    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(render_document(fixture("rotation")), encoding="utf-8")
        assert main(["analyze", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "no_obstruction" in out

    def test_console_script_help(self):
        # run from the directory holding the package, so `-m` finds it
        # whether or not PYTHONPATH names it
        proc = subprocess.run(
            [sys.executable, "-m", "solvhull", "analyze", "--fixture", "sol"],
            capture_output=True, text=True, cwd=Path(cli.__file__).parents[1])
        assert proc.returncode == 0
        assert "not_kahler" in proc.stdout
