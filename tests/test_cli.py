import json

import numpy as np
import pytest

from exform import cli, evolution, expr as ex, forms, schemas

from conftest import FIXTURES


def run(argv, tmp_path, extra=()):
    out = tmp_path / "out"
    return cli.main(list(argv) + ["--out", str(out), *extra]), out


def read(out, name):
    return json.loads((out / name).read_text())


def reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


class TestExitCodes:
    def test_success(self, tmp_path):
        code, _ = run(["form", "closure", "--in",
                       str(FIXTURES / "form_exact_pair.json")], tmp_path)
        assert code == 0

    def test_assert_closed_failure(self, tmp_path):
        code, _ = run(["form", "closure", "--in",
                       str(FIXTURES / "form_unclosed.json"),
                       "--assert-closed"], tmp_path)
        assert code == 1

    def test_assert_closed_is_a_closure_flag_only(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            run(["form", "d", "--in", str(FIXTURES / "form_curl_input.json"),
                 "--assert-closed"], tmp_path)
        assert exit_.value.code == 2
        assert "unrecognized arguments: --assert-closed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unclosed_without_assert_is_success(self, tmp_path):
        code, _ = run(["form", "closure", "--in",
                       str(FIXTURES / "form_unclosed.json")], tmp_path)
        assert code == 0

    def test_malformed_json_positioned(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "exform/v1", "degree": }')
        code, _ = run(["form", "closure", "--in", str(bad)], tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    def test_schema_violation(self, tmp_path):
        doc = tmp_path / "noversion.json"
        doc.write_text(json.dumps({"chart": ["x1"], "degree": 0, "terms": []}))
        code, _ = run(["form", "closure", "--in", str(doc)], tmp_path)
        assert code == 2

    @pytest.mark.parametrize("coeff", ["x1 + ?", "x1 * é"])
    def test_bad_expression_text(self, coeff, tmp_path, capsys):
        doc = tmp_path / "badexpr.json"
        doc.write_text(json.dumps({
            "schema": "exform/v1", "chart": ["x1"], "degree": 0,
            "terms": [{"index": [], "coeff": coeff}]}))
        code, _ = run(["form", "d", "--in", str(doc)], tmp_path)
        assert code == 2
        assert f"unexpected character {coeff[-1]!r} at position 5" in capsys.readouterr().err

    def test_overflowing_constant_power_is_kept_unfolded(self, tmp_path):
        doc = tmp_path / "bigpower.json"
        doc.write_text(json.dumps({
            "schema": "exform/v1", "chart": ["x1", "x2"], "degree": 1,
            "terms": [{"index": [0], "coeff": "x2 * 10^400"}]}))
        code, out = run(["form", "d", "--in", str(doc)], tmp_path)
        assert code == 0
        assert read(out, "form_d.json")["terms"] == [{"index": [0, 1], "coeff": "-10^400"}]

    @pytest.mark.parametrize("coeff, message", [
        ("x2 * 1e400", "number out of range at position 5"),
        ("x1^99999999999", "exponent out of range at position 3"),
    ])
    def test_out_of_range_literal_is_an_input_error(self, coeff, message, tmp_path, capsys):
        doc = tmp_path / "bigliteral.json"
        doc.write_text(json.dumps({
            "schema": "exform/v1", "chart": ["x1", "x2"], "degree": 1,
            "terms": [{"index": [0], "coeff": coeff}]}))
        code, out = run(["form", "d", "--in", str(doc)], tmp_path)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_relation_of_two_one_forms_is_an_input_error(self, tmp_path, capsys):
        code, out = run(["geom", "relation", "--psi", str(FIXTURES / "form_exact_pair.json"),
                         "--omega", str(FIXTURES / "form_unclosed.json")], tmp_path)
        assert code == cli.EXIT_SCHEMA
        assert ("input error: need deg(omega) = deg(psi) + 1, got 1 and 1"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_star_above_the_top_degree_is_an_input_error(self, tmp_path, capsys):
        doc = tmp_path / "degree3.json"
        doc.write_text(json.dumps({"schema": "exform/v1", "chart": ["x1", "x2"],
                                   "degree": 3, "terms": []}))
        code, out = run(["form", "star", "--in", str(doc)], tmp_path)
        assert code == cli.EXIT_SCHEMA
        assert "input error: cannot star a degree-3 form over n=2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("coeff", [" + ".join(["x1"] * 1200), "(" * 700 + "x1" + ")" * 700],
                             ids=["long", "deep"])
    def test_too_deep_an_expression_is_an_input_error(self, coeff, tmp_path, capsys):
        # the tree passes recurse once per level: past the interpreter's limit
        # the command fails as an input error, without a traceback
        doc = tmp_path / "deep.json"
        doc.write_text(json.dumps({"schema": "exform/v1", "chart": ["x1"], "degree": 0,
                                   "terms": [{"index": [], "coeff": coeff}]}))
        code, out = run(["form", "d", "--in", str(doc)], tmp_path)
        assert code == cli.EXIT_SCHEMA
        assert capsys.readouterr().err == "input error: expression too deep or too long\n"
        assert not out.exists()

    def test_exponent_past_the_range_is_a_math_error(self, tmp_path, capsys):
        # x1^(-2^31) parses; its derivative would need the exponent -2^31 - 1
        doc = tmp_path / "lowpower.json"
        doc.write_text(json.dumps({
            "schema": "exform/v1", "chart": ["x1", "x2"], "degree": 0,
            "terms": [{"index": [], "coeff": "x1^(-2147483648)"}]}))
        code, out = run(["form", "d", "--in", str(doc)], tmp_path)
        assert code == 3
        assert "math error: exponent -2147483649 out of range" in capsys.readouterr().err
        assert not out.exists()

    def test_math_domain_error(self, tmp_path):
        # pullback hits ln(0) on the s1 = 0 face of the unit square
        doc = tmp_path / "logform.json"
        doc.write_text(json.dumps({
            "schema": "exform/v1", "chart": ["x1", "x2"], "degree": 1,
            "terms": [{"index": [1], "coeff": "ln(x1)"}]}))
        code, _ = run(["form", "stokes", "--form", str(doc),
                       "--cell", str(FIXTURES / "cell_unit_square.json")],
                      tmp_path)
        assert code == 3

    def test_missing_file(self, tmp_path):
        code, _ = run(["form", "d", "--in", str(tmp_path / "nope.json")],
                      tmp_path)
        assert code == 2


class TestSeedPrecedence:
    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EXFORM_SEED", "7")
        code, out = run(["form", "closure", "--in",
                         str(FIXTURES / "form_exact_pair.json"),
                         "--seed", "9"], tmp_path)
        assert code == 0
        assert read(out, "form_closure.json")["seed"] == 9

    def test_env_beats_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EXFORM_SEED", "7")
        code, out = run(["form", "closure", "--in",
                         str(FIXTURES / "form_exact_pair.json")], tmp_path)
        assert code == 0
        assert read(out, "form_closure.json")["seed"] == 7

    def test_default_is_42(self, tmp_path, monkeypatch):
        monkeypatch.delenv("EXFORM_SEED", raising=False)
        code, out = run(["form", "closure", "--in",
                         str(FIXTURES / "form_exact_pair.json")], tmp_path)
        assert read(out, "form_closure.json")["seed"] == 42

    def test_bad_env_seed_is_schema_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("EXFORM_SEED", "seven")
        code, _ = run(["form", "closure", "--in",
                       str(FIXTURES / "form_exact_pair.json")], tmp_path)
        assert code == 2
        assert "EXFORM_SEED must be an integer, got 'seven'" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (("--trials", "0"), "trials, quad-order, and steps must be >= 1"),
    (("--quad-order", "0"), "trials, quad-order, and steps must be >= 1"),
    (("--steps", "0"), "trials, quad-order, and steps must be >= 1"),
    (("--tol", "0"), "tolerance must be positive"),
    (("--tol", "nan"), "tolerance must be positive"),
])
def test_common_flags_checked(flags, message, tmp_path, capsys):
    # each flag on a subcommand that reads it
    argv = {
        "--trials": ["form", "closure", "--in", str(FIXTURES / "form_exact_pair.json")],
        "--tol": ["form", "closure", "--in", str(FIXTURES / "form_exact_pair.json")],
        "--quad-order": ["form", "stokes", "--form", str(FIXTURES / "form_unclosed.json"),
                         "--cell", str(FIXTURES / "cell_unit_square.json")],
        "--steps": ["pde", "hj", "--in", str(FIXTURES / "hj_free_particle.json")],
    }[flags[0]]
    code, out = run(argv, tmp_path, extra=flags)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


class TestFormCommands:
    def test_gradient_fixture(self, tmp_path):
        code, out = run(["form", "d", "--in",
                         str(FIXTURES / "form_gradient_input.json")], tmp_path)
        assert code == 0
        doc = read(out, "form_d.json")
        coeffs = {tuple(t["index"]): t["coeff"] for t in doc["terms"]}
        assert coeffs == {(0,): "x2 * x3", (1,): "x1 * x3", (2,): "x1 * x2"}

    def test_curl_fixture(self, tmp_path):
        code, out = run(["form", "d", "--in",
                         str(FIXTURES / "form_curl_input.json")], tmp_path)
        doc = read(out, "form_d.json")
        coeffs = {tuple(t["index"]): t["coeff"] for t in doc["terms"]}
        assert coeffs[(0, 1)] == "x3^2 - 2 * x2 * x3"

    def test_divergence_fixture(self, tmp_path):
        code, out = run(["form", "d", "--in",
                         str(FIXTURES / "form_div_input.json")], tmp_path)
        doc = read(out, "form_d.json")
        assert doc["terms"] == [{"index": [0, 1, 2], "coeff": "3"}]

    def test_d_of_top_degree_writes_degree_n_plus_1(self, tmp_path, capsys):
        top = tmp_path / "top.json"
        top.write_text(json.dumps({
            "schema": "exform/v1", "chart": ["x1", "x2"], "degree": 2,
            "terms": [{"index": [0, 1], "coeff": "x1 * x2"}]}))
        code, out = run(["form", "d", "--in", str(top)], tmp_path)
        assert code == 0
        assert capsys.readouterr().out == "d: degree 2 -> 3, 0 terms\n"
        doc = read(out, "form_d.json")
        assert doc["degree"] == 3 and doc["terms"] == []
        reloaded = schemas.form_from_json(doc)
        assert reloaded.degree == 3 and reloaded.is_zero

    def test_wedge(self, tmp_path):
        code, out = run(["form", "wedge",
                         "--a", str(FIXTURES / "form_curl_input.json"),
                         "--b", str(FIXTURES / "form_dx3.json")], tmp_path)
        assert code == 0
        doc = read(out, "form_d.json") if False else read(out, "form_wedge.json")
        assert doc["degree"] == 2

    def test_closure_output(self, tmp_path, capsys):
        code, out = run(["form", "closure", "--in",
                         str(FIXTURES / "form_exact_pair.json")], tmp_path)
        doc = read(out, "form_closure.json")
        assert doc["closed"] is True and doc["max_residual"] <= 1e-9
        assert "CLOSED" in capsys.readouterr().out

    def test_cr_fixture(self, tmp_path):
        code, out = run(["form", "cr", "--in",
                         str(FIXTURES / "cr_pair.json")], tmp_path)
        doc = read(out, "form_cr.json")
        assert doc["first_zero"] and doc["second_zero"]

    def test_harmonic_fixtures(self, tmp_path):
        _, out = run(["form", "harmonic", "--in",
                      str(FIXTURES / "scalar_harmonic.json")], tmp_path)
        assert read(out, "form_harmonic.json")["harmonic"] is True
        _, out2 = run(["form", "harmonic", "--in",
                       str(FIXTURES / "scalar_nonharmonic.json")],
                      tmp_path / "second")
        assert read(out2, "form_harmonic.json")["harmonic"] is False

    def test_stokes_fixture(self, tmp_path):
        code, out = run(["form", "stokes",
                         "--form", str(FIXTURES / "form_unclosed.json"),
                         "--cell", str(FIXTURES / "cell_unit_square.json")],
                        tmp_path)
        doc = read(out, "form_stokes.json")
        assert doc["residual"] <= 1e-10

    def test_antiderivative(self, tmp_path):
        code, out = run(["form", "antiderivative",
                         "--in", str(FIXTURES / "form_exact_pair.json"),
                         "--base", "0,0", "--at", "0.5,0.4"], tmp_path)
        doc = read(out, "form_antiderivative.json")
        value = doc["samples"][0]["coefficients"][""]
        assert value == pytest.approx(0.2, abs=1e-8)

    def test_star_round_trip(self, tmp_path):
        code, out = run(["form", "star", "--in",
                         str(FIXTURES / "form_exact_pair.json")], tmp_path)
        doc = read(out, "form_star.json")
        coeffs = {tuple(t["index"]): t["coeff"] for t in doc["terms"]}
        assert coeffs == {(0,): "-x1", (1,): "x2"}


    def test_nonfinite_residual_written_as_strict_json(self, tmp_path, capsys):
        # d(x1 exp(exp(x1 + 10)) dx2) overflows to inf at every sample
        doc = tmp_path / "overflow.json"
        doc.write_text(json.dumps({
            "schema": "exform/v1", "chart": ["x1", "x2"], "degree": 1,
            "terms": [{"index": [1], "coeff": "x1 * exp(exp(x1 + 10))"}]}))
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({
            "schema": "exform/v1", "chart": ["x1", "x2"], "degree": 0,
            "terms": []}))

        code, out = run(["form", "closure", "--in", str(doc)], tmp_path)
        assert code == 0
        assert capsys.readouterr().out == "UNCLOSED max residual inf\n"
        result = json.loads((out / "form_closure.json").read_text(),
                            parse_constant=reject_constant)
        assert result["max_residual"] == "inf" and result["closed"] is False
        # a non-finite residual is never within tolerance, not even an infinite one
        code, _ = run(["form", "closure", "--in", str(doc)], tmp_path,
                      extra=("--tol", "inf"))
        assert code == 0
        assert capsys.readouterr().out == "UNCLOSED max residual inf\n"
        code, out = run(["geom", "relation", "--psi", str(zero),
                         "--omega", str(doc)], tmp_path)
        assert code == 0
        assert capsys.readouterr().out == "NONIDENTICAL max residual inf\n"
        result = json.loads((out / "geom_relation.json").read_text(),
                            parse_constant=reject_constant)
        assert result["max_residual"] == "inf" and result["identical"] is False

    def test_thin_domain_raises_in_library_and_cli(self, tmp_path, capsys):
        # sqrt(x1 - 1.95) is defined on 1/80 of the box: the sampler runs out
        # of draws before it has its points, in every verdict alike
        doc = tmp_path / "thin.json"
        doc.write_text(json.dumps({
            "schema": "exform/v1", "chart": ["x1", "x2"], "degree": 1,
            "terms": [{"index": [1], "coeff": "sqrt(x1 - 1.95) * x1"}]}))
        theta = cli._load_form(doc)
        rel = evolution.NonidenticalRelation(forms.zero_form(theta.chart, 0), theta)
        for verdict in (forms.is_closed, forms.closure_residual,
                        lambda _: rel.is_identical()):
            with pytest.raises(ex.ResampleExhaustedError):
                verdict(theta)
        scalar = tmp_path / "thin_scalar.json"
        scalar.write_text(json.dumps({
            "schema": "exform/v1", "chart": ["x1", "x2"],
            "expr": "sqrt(x1 - 1.95) * x1"}))
        for argv in (["form", "closure", "--in", str(doc)],
                     ["geom", "relation", "--psi", str(FIXTURES / "form_zero_psi.json"),
                      "--omega", str(doc)],
                     ["form", "harmonic", "--in", str(scalar)]):
            assert run(argv, tmp_path)[0] == cli.EXIT_MATH
            assert "could not collect 64 in-domain points" in capsys.readouterr().err


class TestGeomCommands:
    def test_torsion_hand_table(self, tmp_path):
        code, out = run(["geom", "torsion", "--in",
                         str(FIXTURES / "conn_torsion.json")], tmp_path)
        doc = read(out, "geom_torsion.json")
        table = {(e["rho"], e["mu"], e["nu"]): e["coeff"] for e in doc["entries"]}
        assert table == {(0, 0, 1): "x2"}

    def test_symmetric_torsion_empty(self, tmp_path):
        _, out = run(["geom", "torsion", "--in",
                      str(FIXTURES / "conn_symmetric.json")], tmp_path)
        assert read(out, "geom_torsion.json")["entries"] == []

    def test_curvature_runs(self, tmp_path):
        code, out = run(["geom", "curvature", "--in",
                         str(FIXTURES / "conn_symmetric.json")], tmp_path)
        assert code == 0
        entries = read(out, "geom_curvature.json")["entries"]
        # each antisymmetric (rho, sigma) pair is listed once, rho < sigma
        assert all(e["rho"] < e["sigma"] for e in entries)
        table = {(e["mu"], e["nu"], e["rho"], e["sigma"]): e["coeff"] for e in entries}
        assert table == {(0, 1, 0, 1): "-1 - x2 * x2", (1, 0, 0, 1): "x1 * x2 * x2 - x1"}

    def test_evcommutator_matches_commutator_byte_for_byte(self, tmp_path):
        _, out1 = run(["geom", "evcommutator",
                       "--omega", str(FIXTURES / "form_exact_pair.json"),
                       "--gamma", str(FIXTURES / "conn_symmetric.json")],
                      tmp_path)
        _, out2 = run(["form", "commutator", "--in",
                       str(FIXTURES / "form_exact_pair.json")],
                      tmp_path / "second")
        a = (out1 / "geom_evcommutator.json").read_bytes()
        b = (out2 / "form_commutator.json").read_bytes()
        assert a == b

    def test_relation_nonidentical(self, tmp_path, capsys):
        code, out = run(["geom", "relation",
                         "--psi", str(FIXTURES / "form_zero_psi.json"),
                         "--omega", str(FIXTURES / "form_unclosed.json")],
                        tmp_path)
        doc = read(out, "geom_relation.json")
        assert doc["identical"] is False and doc["max_residual"] > 0.1
        assert "NONIDENTICAL" in capsys.readouterr().out

    def test_bistructure_event_log(self, tmp_path):
        code, out = run(["geom", "bistructure", "--in",
                         str(FIXTURES / "bistructure_event.json")], tmp_path)
        assert code == 0
        lines = (out / "events.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        assert record["discrete_change"] == 0.0
        assert record["deformation_measure"] == pytest.approx(2.5)
        assert record["closed_form_value"] == pytest.approx(1.0)

    def test_bistructure_nonfinite_value_is_strict_json(self, tmp_path):
        # psi = exp(exp(x1 + 10)) overflows to inf at the event point
        doc = json.loads((FIXTURES / "bistructure_event.json").read_text())
        doc["psi"]["terms"][0]["coeff"] = "exp(exp(x1 + 10))"
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        code, out = run(["geom", "bistructure", "--in", str(path)], tmp_path)
        assert code == 0
        record = json.loads((out / "events.jsonl").read_text(),
                            parse_constant=reject_constant)
        assert record["closed_form_value"] == "inf"


class TestPdeCommands:
    def test_charpit_strip_csv(self, tmp_path):
        code, out = run(["pde", "charpit", "--in",
                         str(FIXTURES / "pde_eikonal.json")], tmp_path)
        assert code == 0
        lines = (out / "charpit_strip.csv").read_text().splitlines()
        assert lines[0] == "s,t,x1,x2,u,p1,p2,F_drift"
        last = [float(v) for v in lines[-1].split(",")]
        assert last[2] == pytest.approx(1.0, abs=1e-9)   # x1 = 2 p1 s
        assert last[4] == pytest.approx(1.0, abs=1e-9)   # u = 2 s
        assert abs(last[7]) <= 1e-8

    def test_hj_summary_against_embedded_oracle(self, tmp_path):
        code, out = run(["pde", "hj", "--in",
                         str(FIXTURES / "hj_free_particle.json")], tmp_path)
        doc = read(out, "hj_summary.json")
        assert doc["max_error_vs_oracle"] <= 1e-6
        assert (out / "hj_strip_000.csv").exists()
        assert (out / "hj_strip_015.csv").exists()

    def test_caustics_events(self, tmp_path):
        code, out = run(["pde", "caustics", "--in",
                         str(FIXTURES / "hj_focusing.json")], tmp_path)
        doc = read(out, "events.json")
        assert doc["events"]
        for event in doc["events"]:
            assert event["t_star"] == pytest.approx(1.0, abs=1e-3)

    def test_classify_fixture(self, tmp_path, capsys):
        code, out = run(["pde", "classify", "--in",
                         str(FIXTURES / "classify_field.json")], tmp_path)
        doc = read(out, "pde_classify.json")
        assert doc["kind"] == "functional"
        assert doc["max_abs"] == pytest.approx(2.0, rel=1e-9)
        assert "FUNCTIONAL" in capsys.readouterr().out

    def test_bracket_self_prints_zero(self, tmp_path, capsys):
        code, out = run(["pde", "bracket", "--in",
                         str(FIXTURES / "bracket_self.json")], tmp_path)
        assert capsys.readouterr().out.strip() == "0"
        assert read(out, "pde_bracket.json")["bracket"] == "0"

    def test_bracket_momentum(self, tmp_path):
        _, out = run(["pde", "bracket", "--in",
                      str(FIXTURES / "bracket_momentum.json")], tmp_path)
        assert read(out, "pde_bracket.json")["bracket"] == "-1"


# the sampled-verdict commands and the record each writes
VERDICTS = [
    (["form", "closure", "--in", "form_unclosed.json"], "form_closure.json"),
    (["geom", "relation", "--psi", "form_zero_psi.json",
      "--omega", "form_unclosed.json"], "geom_relation.json"),
    (["form", "cr", "--in", "cr_pair.json"], "form_cr.json"),
    (["form", "harmonic", "--in", "scalar_nonharmonic.json"], "form_harmonic.json"),
]


@pytest.mark.parametrize("argv, record", VERDICTS, ids=[r for _, r in VERDICTS])
def test_verdict_record_replays_its_verdict(argv, record, tmp_path):
    """Rerun with the trials, tol and seed read from the record: same bytes."""
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    code, out = run(argv, tmp_path / "first",
                    extra=("--trials", "17", "--tol", "1e-7", "--seed", "5"))
    doc = read(out, record)
    assert (doc["trials"], doc["tol"], doc["seed"]) == (17, 1e-7, 5)
    assert isinstance(doc["max_residual"], float)
    replay = ("--trials", str(doc["trials"]), "--tol", repr(doc["tol"]),
              "--seed", str(doc["seed"]))
    code2, out2 = run(argv, tmp_path / "replay", extra=replay)
    assert code2 == code == 0
    assert (out2 / record).read_bytes() == (out / record).read_bytes()


class TestSchemaRoundTrip:
    def test_emitted_form_reparses_identically(self, tmp_path):
        from exform import schemas
        _, out = run(["form", "d", "--in",
                      str(FIXTURES / "form_curl_input.json")], tmp_path)
        emitted = schemas.form_from_json(read(out, "form_d.json"))
        source = schemas.form_from_json(
            schemas.load_json_file(FIXTURES / "form_curl_input.json"))
        direct = forms.exterior_derivative(source)
        assert emitted.coeffs == direct.coeffs

    def test_repeat_run_byte_identical(self, tmp_path):
        _, out1 = run(["pde", "hj", "--in",
                       str(FIXTURES / "hj_free_particle.json"),
                       "--seed", "42"], tmp_path)
        _, out2 = run(["pde", "hj", "--in",
                       str(FIXTURES / "hj_free_particle.json"),
                       "--seed", "42"], tmp_path / "second")
        for name in ("hj_summary.json", "hj_strip_000.csv", "hj_strip_007.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestDocumentNumbers:
    """Numbers read from an input document are checked, not coerced."""

    @pytest.mark.parametrize("cmd, fixture, field, value", [
        ("hj", "hj_free_particle.json", "steps", 0),
        ("hj", "hj_free_particle.json", "steps", "abc"),
        ("hj", "hj_free_particle.json", "steps", None),
        ("hj", "hj_free_particle.json", "steps", 2.5),
        ("hj", "hj_free_particle.json", "steps", True),
        ("caustics", "hj_focusing.json", "steps", "10"),
        ("caustics", "hj_focusing.json", "t_end", None),
        ("caustics", "hj_free_particle.json", "t_end", float("nan")),
        ("hj", "hj_free_particle.json", "t_end", float("inf")),
        ("charpit", "pde_eikonal.json", "steps", 0),
        ("charpit", "pde_eikonal.json", "s_end", "x"),
        ("classify", "classify_field.json", "tol", "x"),
        ("classify", "classify_field.json", "tol", -1),
        ("classify", "classify_field.json", "tol", 0),
        ("classify", "classify_field.json", "tol", float("nan")),
        ("caustics", "hj_focusing.json", "n", True),
        ("charpit", "pde_eikonal.json", "n", 0),
        ("bracket", "bracket_self.json", "n", True),
    ])
    def test_bad_number_is_schema_error(self, cmd, fixture, field, value,
                                        tmp_path, capsys):
        doc = json.loads((FIXTURES / fixture).read_text())
        doc[field] = value
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out = run(["pde", cmd, "--in", str(path)], tmp_path)
        assert code == 2
        assert f'{cmd}: "{field}"' in capsys.readouterr().err
        assert not out.exists()

    def test_integer_valued_number_accepted(self, tmp_path):
        doc = json.loads((FIXTURES / "pde_eikonal.json").read_text())
        doc["s_end"] = 1
        doc["steps"] = 10
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out = run(["pde", "charpit", "--in", str(path)], tmp_path)
        assert code == 0
        last = (out / "charpit_strip.csv").read_text().splitlines()[-1]
        assert last.startswith("1.0,1.0,")

    @pytest.mark.parametrize("cmd, fixture, edit, message", [
        ("hj", "hj_free_particle.json", {"grid": [True, 0.5, 0.0]}, "hj.grid[0]"),
        ("caustics", "hj_focusing.json", {"grid": [0.0, "0.5", 1.0]},
         "caustics.grid[1]"),
        ("hj", "hj_free_particle.json",
         {"grid": {"start": -1, "stop": 1, "count": 2.7}}, 'hj.grid: "count"'),
        ("hj", "hj_free_particle.json",
         {"grid": {"start": -1, "stop": float("nan"), "count": 3}}, 'hj.grid: "stop"'),
        ("hj", "hj_free_particle.json",
         {"grid": {"start": "-1", "stop": 1, "count": 3}}, 'hj.grid: "start"'),
        ("charpit", "pde_eikonal.json", {"initial": {"x": [True, 0.0], "u": 0.0,
                                                     "p": [1.0, 0.0]}},
         'charpit: "initial.x"[0]'),
        ("charpit", "pde_eikonal.json", {"initial": {"x": [0.0], "u": 0.0,
                                                     "p": [1.0, 0.0]}},
         'charpit: "initial.x" must be a list of 2 numbers'),
        ("charpit", "pde_eikonal.json", {"initial": {"x": [0.0, 0.0], "u": float("nan"),
                                                     "p": [1.0, 0.0]}},
         'charpit: "initial.u"'),
        ("classify", "classify_field.json", {"spacing": [True, 0.125]},
         'classify: "spacing"[0]'),
    ])
    def test_bad_number_in_a_list_or_object(self, cmd, fixture, edit, message,
                                            tmp_path, capsys):
        doc = json.loads((FIXTURES / fixture).read_text())
        doc.update(edit)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out = run(["pde", cmd, "--in", str(path)], tmp_path)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cmd, fixture, grid, message", [
        ("hj", "hj_free_particle.json", [0, 0.5, 0, 1],
         "hj.grid[2]: node 0.0 repeats hj.grid[0]"),
        ("caustics", "hj_focusing.json", {"start": 0.3, "stop": 0.3, "count": 4},
         "caustics.grid[1]: node 0.3 repeats caustics.grid[0]"),
        ("hj", "hj_free_particle.json", [0.5, -0.0, 0.0],
         "hj.grid[2]: node 0.0 repeats hj.grid[1]"),
        ("hj", "hj_free_particle.json", [1.0, 1.0], "hj.grid[1]"),
    ])
    def test_repeated_grid_node_is_schema_error(self, cmd, fixture, grid, message,
                                                tmp_path, capsys):
        doc = json.loads((FIXTURES / fixture).read_text())
        doc["grid"] = grid
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out = run(["pde", cmd, "--in", str(path)], tmp_path)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("point", [[float("nan"), float("nan")], [True, 0.5],
                                       [0.5], "0.5,0.5"])
    def test_bistructure_point(self, point, tmp_path, capsys):
        doc = json.loads((FIXTURES / "bistructure_event.json").read_text())
        doc["point"] = point
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out = run(["geom", "bistructure", "--in", str(path)], tmp_path)
        assert code == 2
        assert 'bistructure: "point"' in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("row, col, value, message", [
        (0, 0, True, 'classify: "p1"[0][0]'),
        (0, 1, "0.5", 'classify: "p1"[0][1]'),
        (3, 3, float("nan"), 'classify: "p1"[3][3]'),
        (2, None, [0.0, 1.0], 'classify: "p1"[2] must be a list of 9 numbers'),
        (None, None, [[0.5] * 9] * 9 + [True], 'classify: "p1"[9]'),
        (None, None, 2.5, 'classify: "p1" must be a 2-D array'),
        (None, None, None, 'classify: "p1" must be a 2-D array'),
    ])
    def test_classify_field_entries(self, row, col, value, message, tmp_path, capsys):
        """p1 is read row by row as document numbers: no boolean, numeric
        string or NaN is coerced, and rows must be equal."""
        doc = json.loads((FIXTURES / "classify_field.json").read_text())
        if row is None:
            doc["p1"] = value
        elif col is None:
            doc["p1"][row] = value
        else:
            doc["p1"][row][col] = value
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out = run(["pde", "classify", "--in", str(path)], tmp_path)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cmd, fixture, edit, message", [
        (["form", "d", "--in"], "form_exact_pair.json", ("degree", True), 'form: "degree"'),
        (["form", "d", "--in"], "form_exact_pair.json", ("degree", 1.0), 'form: "degree"'),
        (["form", "d", "--in"], "form_exact_pair.json", ("degree", "1"), 'form: "degree"'),
        (["form", "d", "--in"], "form_exact_pair.json", ("terms", 0, "index", 0, True),
         'form.terms[0]: "index"[0]'),
        (["form", "d", "--in"], "form_exact_pair.json", ("terms", 1, "index", 0, 1.0),
         'form.terms[1]: "index"[0]'),
        (["geom", "torsion", "--in"], "conn_torsion.json", ("gamma", 0, "rho", 0.7),
         'connection.gamma[0]: "rho"'),
        (["geom", "torsion", "--in"], "conn_torsion.json", ("gamma", 0, "mu", False),
         'connection.gamma[0]: "mu"'),
        (["geom", "torsion", "--in"], "conn_torsion.json", ("gamma", 0, "nu", "1"),
         'connection.gamma[0]: "nu"'),
        (["form", "stokes", "--form", str(FIXTURES / "form_exact_pair.json"), "--cell"],
         "cell_unit_square.json", ("k", True), 'cell: "k"'),
        (["form", "stokes", "--form", str(FIXTURES / "form_exact_pair.json"), "--cell"],
         "cell_unit_square.json", ("k", 2.0), 'cell: "k"'),
    ])
    def test_integer_fields(self, cmd, fixture, edit, message, tmp_path, capsys):
        """Integer fields take JSON integers only: not a boolean, a float or
        a string."""
        doc = json.loads((FIXTURES / fixture).read_text())
        *keys, value = edit
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out = run(cmd + [str(path)], tmp_path)
        assert code == 2
        assert message + " must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("base, at", [("nan,0", "0.5,0.4"), ("0,0", "0.5,inf"),
                                          ("0,-inf", "0.5,0.4"), ("0,0", "x,0")])
    def test_antiderivative_point_must_be_finite(self, base, at, tmp_path, capsys):
        code, out = run(["form", "antiderivative",
                         "--in", str(FIXTURES / "form_exact_pair.json"),
                         "--base", base, "--at", at], tmp_path)
        assert code == 2
        assert "bad point" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_grid_and_point_accepted(self, tmp_path):
        doc = json.loads((FIXTURES / "hj_free_particle.json").read_text())
        doc["grid"] = [-1, 0, 1]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out = run(["pde", "hj", "--in", str(path)], tmp_path)
        assert code == 0 and read(out, "hj_summary.json")["strips"] == 3
        doc = json.loads((FIXTURES / "bistructure_event.json").read_text())
        doc["point"] = [1, 0]
        path.write_text(json.dumps(doc))
        code, out = run(["geom", "bistructure", "--in", str(path)], tmp_path / "b")
        assert code == 0
        assert json.loads((out / "events.jsonl").read_text())["point"] == [1.0, 0.0]
