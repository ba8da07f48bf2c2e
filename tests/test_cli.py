import json

import pytest

from skyburst.cli import main
from skyburst.moments import toeplitz_det_closed
from skyburst.zeros import zeros_of


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeffs:
    def test_degree_one_exact(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--n", "1", "--omega", "1/2", "--exact")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "n": 1,
            "omega": "1/2",
            "coeffs": [
                {"pow": 0, "num": "1", "den": "3"},
                {"pow": 1, "num": "1", "den": "1"},
            ],
        }

    def test_degree_zero(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--n", "0", "--omega", "7/3", "--exact")
        assert code == 0
        assert json.loads(out)["coeffs"] == [{"pow": 0, "num": "1", "den": "1"}]

    def test_degree_two_exact(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--n", "2", "--omega", "1/2", "--exact")
        nums = [(c["pow"], c["num"], c["den"]) for c in json.loads(out)["coeffs"]]
        assert nums == [(0, "-1", "15"), (1, "2", "5"), (2, "1", "1")]

    def test_round_trip_byte_identical(self, capsys):
        _, out, _ = run(capsys, "coeffs", "--n", "3", "--omega", "22/7", "--exact")
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "coeffs", "--n", "4", "--omega", "5/4", "--exact")
        _, second, _ = run(capsys, "coeffs", "--n", "4", "--omega", "5/4", "--exact")
        assert first == second

    def test_float_mode_decimal_strings(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--n", "1", "--omega", "0.5")
        payload = json.loads(out)
        assert code == 0
        assert payload["coeffs"][0] == {"pow": 0, "value": "0.33333333333333331"}

    def test_pole_exit_code(self, capsys):
        code, _, err = run(capsys, "coeffs", "--n", "3", "--omega", "-2", "--exact")
        assert code == 2
        assert "pole" in err.lower() or "vanishes" in err

    def test_exact_requires_rational_literal(self, capsys):
        code, _, err = run(capsys, "coeffs", "--n", "1", "--omega", "0.5", "--exact")
        assert code == 2
        assert "rational" in err

    def test_tol_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "--n", "2", "--omega", "1/2", "--tol", "1e-3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("omega", ["nan", "inf"])
    def test_non_finite_omega_exit_code(self, capsys, omega):
        code, out, err = run(capsys, "coeffs", "--n", "3", "--omega", omega)
        assert (code, out) == (2, "")
        assert "finite" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--n", "1", "--omega", "1/2", "--exact", "--format", "csv")
        assert out.splitlines() == ["pow,num,den", "0,1,3", "1,1,1"]

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "coeffs.json"
        code, out, _ = run(capsys, "coeffs", "--n", "1", "--omega", "1/2", "--exact", "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["n"] == 1


class TestVerify:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "2")
        assert code == 0
        assert "result: ALL PASS" in out
        assert "orthogonality: PASS" in out

    def test_trivial_degree_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "0")
        assert code == 0

    def test_printed_variants_fail(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "1", "--printed-variants")
        assert code == 1
        assert "FAIL" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "1", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert all(entry["passed"] for entry in payload)
        assert {e["identity"] for e in payload} >= {"orthogonality", "ode"}

    def test_csv_rows_match_json(self, capsys):
        _, out, _ = run(capsys, "verify", "--n-max", "1", "--format", "json")
        payload = json.loads(out)
        code, out, _ = run(capsys, "verify", "--n-max", "1", "--format", "csv")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "identity,n,omega,residual,passed"
        assert len(lines) - 1 == len(payload)
        first = payload[0]
        assert lines[1] == f"{first['identity']},{first['n']},{first['omega']},{first['residual']},true"

    def test_negative_degree_bound_exit_code(self, capsys):
        code, out, err = run(capsys, "verify", "--n-max", "-1")
        assert code == 2
        assert out == ""
        assert "nonnegative" in err

    def test_omega_grid_override(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "1", "--omega-grid", "1/5,3/2")
        assert code == 0

    def test_negative_omega_grid(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "4", "--omega-grid", "-13/9,-5/2,-1/3")
        assert code == 0
        assert "negative_reflection: PASS" in out
        assert "result: ALL PASS" in out

    def test_omega_grid_must_be_rational(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n-max", "1", "--omega-grid", "0.5"])
        assert exc.value.code == 2
        assert "not a rational literal" in capsys.readouterr().err


class TestZeros:
    def test_quadratic_csv(self, capsys):
        code, out, _ = run(capsys, "zeros", "--n", "2", "--omega", "0.5")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "omega,index,re,im,tag,residual"
        assert len(lines) == 3
        tags = {line.split(",")[4] for line in lines[1:]}
        assert tags == {"neg_unit", "pos_real"}

    def test_origin_row(self, capsys):
        code, out, _ = run(capsys, "zeros", "--n", "1", "--omega", "0")
        lines = out.splitlines()
        assert code == 0
        assert lines[1].split(",")[4] == "origin"

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "zeros", "--n", "2", "--omega", "1/2", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert len(payload["roots"]) == 2
        assert float(payload["residual_max"]) <= 1e-10

    def test_non_finite_roots_exit_code(self, capsys):
        code, out, err = run(capsys, "zeros", "--n", "46", "--omega", "93/2")
        assert code == 3
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("n, omega", [(20, "0.3"), (40, "2.7")])
    def test_decimal_omega_roots_equal_library(self, capsys, n, omega):
        _, out, _ = run(capsys, "zeros", "--n", str(n), "--omega", omega, "--format", "json")
        rows = json.loads(out)["roots"]
        got = [complex(float(r["re"]), float(r["im"])) for r in rows]
        assert got == [z for z, _ in zeros_of(n, float(omega)).roots]


class TestTrajectory:
    def test_csv_structure(self, capsys):
        code, out, _ = run(
            capsys, "trajectory", "--n", "2", "--omega-start", "0.05",
            "--omega-end", "1.4", "--step", "0.05",
        )
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "omega,path_id,re,im,tag"
        assert "# burst omega=1" in lines
        data = [l for l in lines[1:] if not l.startswith("#")]
        omegas = [float(l.split(",")[0]) for l in data]
        assert omegas == sorted(omegas)
        path_ids = {l.split(",")[1] for l in data}
        assert path_ids == {"0", "1"}

    def test_burst_comment_position(self, capsys):
        _, out, _ = run(
            capsys, "trajectory", "--n", "2", "--omega-start", "0.9",
            "--omega-end", "1.1", "--step", "0.05",
        )
        lines = out.splitlines()
        k = lines.index("# burst omega=1")
        before = float(lines[k - 1].split(",")[0])
        after = float(lines[k + 1].split(",")[0])
        assert before < 1 < after

    def test_json_structure(self, capsys):
        code, out, _ = run(
            capsys, "trajectory", "--n", "1", "--omega-start", "0.2",
            "--omega-end", "0.6", "--step", "0.1", "--format", "json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["burst_events"] == []
        assert len(payload["paths"]) == 1
        assert len(payload["paths"][0]) == len(payload["omega_grid"])

    def test_tracking_error_exit_code(self, capsys):
        code, _, err = run(
            capsys, "trajectory", "--n", "2", "--omega-start", "0.3",
            "--omega-end", "0.5", "--step", "0.05", "--match-threshold", "1e-10",
        )
        assert code == 3
        assert "threshold" in err


class TestDetn:
    def test_frozen_output(self, capsys):
        code, out, _ = run(capsys, "detn", "--n", "2", "--omega", "1/2", "--exact")
        assert code == 0
        assert out == "direct: 16/3\nclosed: 16/3\nverdict: EQUAL\n"

    def test_one_by_one(self, capsys):
        _, out, _ = run(capsys, "detn", "--n", "1", "--omega", "1/3", "--exact")
        assert out.splitlines()[:2] == ["direct: 3", "closed: 3"]

    def test_float_mode(self, capsys):
        code, out, _ = run(capsys, "detn", "--n", "2", "--omega", "0.37")
        assert code == 0
        assert out.endswith("verdict: EQUAL\n")

    def test_float_mode_large_n(self, capsys):
        code, out, _ = run(capsys, "detn", "--n", "40", "--omega", "0.37")
        assert code == 0
        assert out.endswith("verdict: EQUAL\n")

    def test_pole_exit(self, capsys):
        code, _, err = run(capsys, "detn", "--n", "3", "--omega", "1", "--exact")
        assert code == 2

    def test_negative_order_exit_code(self, capsys):
        code, out, _ = run(capsys, "detn", "--n", "-1", "--omega", "1/2")
        assert code == 2
        assert out == ""

    def test_float_outside_double_range_exit_code(self, capsys):
        code, out, err = run(capsys, "detn", "--n", "2", "--omega", "1e-300")
        assert code == 2
        assert out == ""
        assert err.startswith("skyburst: ") and "double range" in err

    def test_float_mode_compares_exactly(self, capsys):
        _, out, _ = run(capsys, "detn", "--n", "40", "--omega", "0.37")
        want = format(toeplitz_det_closed(40, 0.37), ".17g")
        assert out == f"direct: {want}\nclosed: {want}\nverdict: EQUAL\n"

    def test_tol_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detn", "--n", "2", "--omega", "1/2", "--tol", "1e-3"])
        assert exc.value.code == 2

    def test_format_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detn", "--n", "2", "--omega", "1/2", "--format", "json"])
        assert exc.value.code == 2


class TestGenfun:
    def test_trivial_origin(self, capsys):
        code, out, _ = run(capsys, "genfun", "--omega", "1/2", "--z", "0", "--t", "0", "--terms", "5")
        assert code == 0
        assert out == "residual: 0\n"

    def test_interior_point(self, capsys):
        code, out, _ = run(
            capsys, "genfun", "--omega", "1/3", "--z", "0.4+0.2j", "--t", "0.5", "--terms", "60"
        )
        assert code == 0
        assert float(out.split()[-1]) <= 1e-10

    def test_domain_error_exit(self, capsys):
        code, _, err = run(capsys, "genfun", "--omega", "1/2", "--z", "0", "--t", "1.5")
        assert code == 2

    def test_format_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["genfun", "--omega", "1/3", "--z", "0.4+0.2j", "--t", "0.5", "--format", "csv"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("coeffs", "--n", "4", "--omega", "-13/9"),
        ("coeffs", "--n", "4", "--omega", "-1e-3"),
        ("zeros", "--n", "5", "--omega", "-13/9"),
        ("detn", "--n", "12", "--omega", "-13/9"),
        ("genfun", "--omega", "-13/9", "--z", "0.4", "--t", "0.5"),
        ("genfun", "--omega", "1/3", "--z", "-0.4+0.2j", "--t", "0.5"),
        ("verify", "--n-max", "2", "--omega-grid", "-13/9,1/3"),
    ],
)
def test_negative_value_separated_from_its_option(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert "expected one argument" not in err
    joined = list(argv[:-2]) + [f"{argv[-2]}={argv[-1]}"]
    assert (code, out, err) == run(capsys, *joined)
