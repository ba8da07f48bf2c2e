import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from skyburst.cli import _build_parser, main
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

    def test_failing_row_exits_one(self, capsys, printed_forms):
        with printed_forms():
            code, out, _ = run(capsys, "verify", "--n-max", "1")
        assert code == 1
        assert "omega_shift: FAIL" in out and "result: FAILURES PRESENT" in out

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
        # the iteration overflowed to NaN here from one circle of radius 1 + max|c|;
        # from the Newton-polygon start it runs out of sweeps, and still exits 3
        code, out, err = run(capsys, "zeros", "--n", "46", "--omega", "93/2")
        assert code == 3
        assert out == ""
        assert "did not settle" in err

    def test_root_set_that_is_not_conjugate_symmetric_exit_code(self, capsys):
        # the command printed the roots here, with more upper than lower off-axis ones, where
        # zeros_of refused them
        code, out, err = run(capsys, "zeros", "--n", "40", "--omega", "71/2")
        assert code == 3
        assert out == ""
        assert "not conjugate-symmetric" in err

    @pytest.mark.parametrize("n, omega", [(20, "0.3"), (40, "2.7")])
    def test_decimal_omega_roots_equal_library(self, capsys, n, omega):
        _, out, _ = run(capsys, "zeros", "--n", str(n), "--omega", omega, "--format", "json")
        rows = json.loads(out)["roots"]
        got = [complex(float(r["re"]), float(r["im"])) for r in rows]
        assert got == [z for z, _ in zeros_of(n, float(omega)).roots]

    def test_tol_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["zeros", "--n", "5", "--omega", "1/2", "--tol", "1e-3"])
        assert exc.value.code == 2


class TestTrajectory:
    def test_csv_structure(self, capsys):
        code, out, _ = run(
            capsys, "trajectory", "--n", "2", "--omega-start", "0.05", "--omega-end", "1.4",
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
            capsys, "trajectory", "--n", "2", "--omega-start", "0.9", "--omega-end", "1.1",
        )
        lines = out.splitlines()
        k = lines.index("# burst omega=1")
        before = float(lines[k - 1].split(",")[0])
        after = float(lines[k + 1].split(",")[0])
        assert before < 1 < after

    def test_json_structure(self, capsys):
        code, out, _ = run(
            capsys, "trajectory", "--n", "1", "--omega-start", "0.2",
            "--omega-end", "0.6", "--format", "json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["burst_events"] == []
        assert len(payload["paths"]) == 1
        assert len(payload["paths"][0]) == len(payload["omega_grid"])

    @pytest.mark.parametrize("end", ["1e300", "inf"])
    def test_unbounded_range_exit_code(self, end):
        # in a child process: at 1e300 the grid would run until killed
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = ["trajectory", "--n", "2", "--omega-start", "0.3", "--omega-end", end]
        out = subprocess.run([sys.executable, "-m", "skyburst.cli", *argv], env=env, capture_output=True,
                             text=True, timeout=60)
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.startswith("skyburst: omega range")

    def test_step_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trajectory", "--n", "2", "--omega-start", "0.3", "--omega-end", "0.5", "--step", "0.05"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --step 0.05" in capsys.readouterr().err

    def test_end_where_doubles_are_a_min_step_apart_exit_code(self):
        # in a child process: at 1e15 the grid never advanced and the command ran until killed
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = ["trajectory", "--n", "2", "--omega-start", "1e15", "--omega-end", "1000000000000010"]
        out = subprocess.run([sys.executable, "-m", "skyburst.cli", *argv], env=env, capture_output=True,
                             text=True, timeout=60)
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.startswith("skyburst: omega range ends where doubles are")

    def test_tracking_error_exit_code(self, capsys):
        code, out, err = run(capsys, "trajectory", "--n", "31", "--omega-start", "29.5", "--omega-end", "30.375")
        assert (code, out) == (3, "")
        assert "moved 0.239, beyond threshold 0.1" in err

    @pytest.mark.parametrize("option", ["--tol", "--match-threshold"])
    def test_tol_and_match_threshold_are_not_options(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["trajectory", "--n", "2", "--omega-start", "0.3", "--omega-end", "0.5", option, "1e-3"])
        assert exc.value.code == 2


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

    @pytest.mark.parametrize("z, t", [("nan", "0.1"), ("infj", "0")])
    def test_non_finite_exit_code(self, capsys, z, t):
        code, out, err = run(capsys, "genfun", "--omega", "1/2", "--z", z, "--t", t)
        assert (code, out) == (2, "")
        assert "finite z and T" in err

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


# SHA-256 of stdout for every subcommand and format, recorded before the
# commands shared one writer (the degree-12 verify cases, before every sweep
# row ran on integer rows); any change to an output byte shows here.  The zeros --n 5
# and trajectory --n 3 streams were re-recorded when the cold start became the
# Newton-polygon circles (last-digit moves, and the order of one conjugate pair), when
# settled roots left the sweep, when the polish stopped at the rounding floor and
# seeded solves at the Newton basin, and when seeded reals were iterated as floats and
# each seeded root left the sweep at the basin (last-digit moves each time).  The zeros --n 6
# streams (a float omega, and an integer one with four origin roots deflated) pin the
# residual column, recorded before it was read off construct(n, omega).to_inexact().
# The verify --printed-variants stream is the argparse refusal of an option that is gone:
# exit 2 and nothing on stdout.
@pytest.mark.parametrize(
    "argv, code, digest",
    [
        ("coeffs --n 4 --omega 22/7 --exact",
         0, "6e791077a57fd5ccbaa516ae894e44f222d7b6e26a5a683a9e722d3628bff029"),
        ("coeffs --n 4 --omega 22/7 --exact --format csv",
         0, "076b2fa57e2acb51e85858ba5176c30e8f2d1d5fafdad76e0b9946323742c479"),
        ("coeffs --n 5 --omega 0.37",
         0, "bf0baf12aa78168beb07af462bf28a1fdd00a3af45b1da8613698707603a2733"),
        ("coeffs --n 5 --omega 0.37 --format csv",
         0, "f240627c2ac3953f72c6b873fd5e5de2624836c879f3a470a20487a6d3c32216"),
        ("coeffs --n 3 --omega -2",
         2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("coeffs --n 3 --omega nan",
         2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("verify --n-max 2",
         0, "0d7258b09d18713881cb0cb406039a51172bb58711b1ce45a17cf4aa2232b9bc"),
        ("verify --n-max 2 --format json",
         0, "26fec4fc7868880980373d4cf67b1976109a898c64e90366f322bbf26cb6ea36"),
        ("verify --n-max 2 --format csv",
         0, "05f257d305a89c5b16363e36764e97e002bf48ebeceee523481aad5972604098"),
        ("verify --n-max 1 --printed-variants",
         2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("verify --n-max 12 --omega-grid 22/7,-13/9,41/2",
         0, "1bf6ee65e8504f47c75e81b236d3eabf4b559fff4c9beb2bae7fbca978404a6e"),
        ("verify --n-max 12 --omega-grid 22/7,-13/9,41/2 --format csv",
         0, "dc9ad39078813c3da17d41139b8153b20946eb9c1c116c9f5c800c93348b2a99"),
        ("zeros --n 5 --omega 1/2",
         0, "236974d5e13a4456cfdcd1d1c6f7c8ccdad27021fdea58063a6b8c8435794b3e"),
        ("zeros --n 5 --omega 1/2 --format json",
         0, "7f207bcd7fe27a91ec2271538caa28c9ed1195b52607e15128da0d32be93fc0d"),
        ("zeros --n 46 --omega 93/2",
         3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("zeros --n 6 --omega 0.37",
         0, "cd537301582c2eae25646eff3643c0047298cc3daf07293ad207c634cbb2cb7c"),
        ("zeros --n 6 --omega 0.37 --format json",
         0, "7c932ea86f0087ff98bbb5e43c4745c6b1aa8980d844e121af86da69196f8d3b"),
        ("zeros --n 6 --omega 2",
         0, "9f657e6a2572344dd008d84b0774102e32a9bf0f3732fef0872d8b9914d89e7d"),
        ("trajectory --n 3 --omega-start 0.05 --omega-end 2.5",
         0, "286f08a5965be8d8e6e98786d1323ba3963942a58b02431e754b990c7545edcf"),
        ("trajectory --n 3 --omega-start 0.05 --omega-end 2.5 --format json",
         0, "abfbf97d177889178922df9378871b6d8b80a7c3bdb5d416dfa663ebe5b5024b"),
        ("trajectory --n 31 --omega-start 29.5 --omega-end 30.375",
         3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("detn --n 4 --omega 1/2 --exact",
         0, "1de25264bddbd5436f2a25da45d846c1fed6977dc8300b0eb9b2f4b17a15e267"),
        ("detn --n 12 --omega 0.37",
         0, "70c6e2c20670815fed76bc4a96fddb1328c8fd30a1e84284e6df1d3d539481cb"),
        ("genfun --omega 1/3 --z 0.4+0.2j --t 0.5 --terms 30",
         0, "322ee826d71f864d774cb976cbf3d4be7cfce4bf33c71a1b04f61918684a41c5"),
    ],
)
def test_stdout_bytes_pinned(capsys, argv, code, digest):
    got_code, out, _ = _outcome(capsys, argv.split())
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_built_once_matches_fresh_parsers(capsys):
    # one parser serves every call of a process; each call must see what a new parser would give
    argvs = [
        ("verify", "--n-max", "1", "--omega-grid", "1/3,22/7"),
        ("verify", "--n-max", "1"),
        ("coeffs", "--n", "x", "--omega", "1/2"),  # an argparse error: usage on stderr, exit 2
        ("coeffs", "--n", "3", "--omega", "-13/9", "--format", "csv"),
        ("detn", "--n", "3", "--omega", "1/2"),
        ("frobnicate",),
        ("zeros", "--n", "3", "--omega", "1/2"),
        ("coeffs", "--n", "3", "--omega", "-2"),
        ("coeffs", "--n", "2", "--omega", "1/2"),
    ]
    reused = [_outcome(capsys, argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        _build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 2, 0, 0, 2, 0, 2, 0]
    assert "usage: skyburst coeffs" in reused[2][2]
    assert _build_parser() is _build_parser()


def test_python_dash_m_package(capsys):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["coeffs", "--n", "2", "--omega", "1/2"]
    proc = subprocess.run([sys.executable, "-m", "skyburst", *argv], capture_output=True, env=env)
    code, out, _ = run(capsys, *argv)
    assert (proc.returncode, proc.stdout) == (code, out.encode())


def test_process_exit_status():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def status(*argv):
        return subprocess.run([sys.executable, "-m", "skyburst.cli", *argv], capture_output=True, env=env).returncode

    assert status("verify", "--n-max", "1") == 0
    assert status("coeffs", "--n", "3", "--omega", "-2") == 2


def test_subcommands_import_no_third_party_module(tmp_path):
    # pyproject.toml declares no dependencies, while the test environment has all four below
    # installed: an import of one of them anywhere in src/ shows here and nowhere else
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"""
import sys
from skyburst.cli import main
calls = [
    ["coeffs", "--n", "4", "--omega", "1/3"],
    ["verify", "--n-max", "2"],
    ["zeros", "--n", "6", "--omega", "0.37"],
    ["trajectory", "--n", "5", "--omega-start", "0.5", "--omega-end", "1.375"],
    ["detn", "--n", "4", "--omega", "1/3"],
    ["genfun", "--omega", "1/3", "--z", "0.3", "--t", "0.2"],
]
print([main([*argv, "--out", {str(tmp_path / "out")!r}]) for argv in calls])
print([name for name in ("numpy", "mpmath", "sympy", "hypothesis") if name in sys.modules])
"""
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[0, 0, 0, 0, 0, 0]\n[]\n"
