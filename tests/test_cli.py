"""Exit-code contract and output determinism of the command line."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import picardlab
from picardlab import cli, curves
from picardlab.cli import MAX_SWEEP_BUILDS, _parse_sweep, main
from picardlab.polynomials import MAX_LOCALIZE_DEGREE, MAX_LOCALIZE_PRODUCTS

GOLDEN = Path(__file__).parent / "data" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyTheorem:
    def test_single_success(self, capsys):
        code, out, _ = run(capsys, "verify-theorem", "1", "--n", "2")
        assert code == 0
        assert "K2 = 1 (closed form 1)" in out
        assert "maximal: yes" in out

    def test_usage_error_odd_n(self, capsys):
        code, _, err = run(capsys, "verify-theorem", "2", "--m", "3", "--n", "3")
        assert code == 2
        assert "even" in err

    def test_sweep_runs_all(self, capsys):
        code, out, _ = run(capsys, "verify-theorem", "3", "--sweep", "m=2..8,n=4,6,8")
        assert code == 0
        assert out.count("maximal: yes") == 21
        assert "certified 21 construction(s)" in out

    def test_sweep_requires_right_keys(self, capsys):
        code, _, err = run(capsys, "verify-theorem", "1", "--sweep", "m=2..3")
        assert code == 2

    def test_missing_parameters(self, capsys):
        code, _, err = run(capsys, "verify-theorem", "2", "--n", "2")
        assert code == 2
        assert "needs --m" in err

    def test_json_output_round_trips(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify-theorem", "2", "--m", "3", "--n", "2", "--json", str(path))
        assert code == 0
        text = path.read_text(encoding="utf-8")
        payload = json.loads(text)
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text
        assert payload["reports"][0]["maximal"] is True

    def test_empty_sweep_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify-theorem", "1", "--sweep", "n=5..2")
        assert code == 2
        assert "empty sweep range '5..2'" in err
        assert "certified" not in out

    def test_oversized_sweeps_are_refused_before_building(self, capsys):
        start = time.perf_counter()
        code, _, err = run(capsys, "verify-theorem", "1", "--sweep", "n=2..100000000000")
        assert code == 2
        assert f"more than {MAX_SWEEP_BUILDS} values" in err
        code, _, err = run(capsys, "verify-theorem", "2", "--sweep", "m=3..200,n=2..200")
        assert code == 2
        assert "39402 parameter combinations" in err
        assert time.perf_counter() - start < 0.5

    def test_sweep_cap_admits_the_largest_benchmark_sweep(self):
        evens = ",".join(str(n) for n in range(2, 129, 2))
        sweep = _parse_sweep(f"m=3..8,n={evens}")
        assert len(sweep["m"]) * len(sweep["n"]) == 384 <= MAX_SWEEP_BUILDS

    def test_bad_theorem_id_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify-theorem", "4", "--n", "2"])
        assert err.value.code == 2
        capsys.readouterr()


class TestGeography:
    def test_small_bound_all_good(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "geography", "--chi-max", "40", "--sets", "A1,B",
            "--emit", "csv,svg,json", "--out", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "sets.csv").exists()
        assert (tmp_path / "figure.svg").exists()
        assert (tmp_path / "claims.json").exists()
        assert "[verified] A1-disjoint-B" in out

    def test_refuted_claim_fails_the_run(self, capsys):
        # the (128, 46) overlap turns up once the bound reaches chi = 46
        code, out, _ = run(capsys, "geography", "--chi-max", "100")
        assert code == 1
        assert "[refuted_within_bound] A3-disjoint-B" in out

    def test_chi_max_too_small(self, capsys, monkeypatch):
        code, _, err = run(capsys, "geography", "--chi-max", "2")
        assert code == 2
        assert "--chi-max must be at least 3" in err
        monkeypatch.setenv("PICARDLAB_CHI_MAX", "2")
        code, _, err = run(capsys, "geography")
        assert code == 2
        assert "PICARDLAB_CHI_MAX must be at least 3" in err

    @pytest.mark.parametrize(
        "argv, env",
        [
            (("--chi-max", str(cli.MAX_CHI_MAX + 1)), {}),
            (("--chi-max", str(10**14)), {}),
            ((), {"PICARDLAB_CHI_MAX": str(10**14)}),
        ],
        ids=["cap-plus-one", "1e14", "env-1e14"],
    )
    def test_chi_max_above_cap_is_refused_quickly(self, argv, env):
        # The claims walk about sqrt(chi_max) lines; 10^14 ran for minutes.
        # The error names where the bound came from.
        source = "PICARDLAB_CHI_MAX" if env else "--chi-max"
        env = dict(os.environ, PYTHONPATH=str(Path(picardlab.__file__).parents[1]), **env)
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "picardlab.cli", "geography", "--claims", *argv],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert result.returncode == 2
        assert f"{source} must be at most {cli.MAX_CHI_MAX}" in result.stderr
        assert time.perf_counter() - start < 1.0

    def test_unknown_set(self, capsys):
        code, _, err = run(capsys, "geography", "--chi-max", "50", "--sets", "A9")
        assert code == 2

    def test_unwritable_output_path(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("plain file")
        code, _, err = run(
            capsys, "geography", "--chi-max", "40", "--sets", "A1",
            "--emit", "csv", "--out", str(blocker / "sub"),
        )
        assert code == 1
        assert "cannot write" in err

    def test_env_var_overrides_default_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("PICARDLAB_CHI_MAX", "40")
        code, out, _ = run(capsys, "geography", "--sets", "A1")
        assert code == 0
        assert "chi <= 40" in out

    @pytest.mark.parametrize("chi_max", [10, 46, 10_000])
    def test_claims_match_golden_output(self, capsys, tmp_path, monkeypatch, chi_max):
        # Golden files: stdout and claims.json of the enumeration-based report.
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(
            capsys, "geography", "--chi-max", str(chi_max), "--claims", "--emit", "json"
        )
        assert code == 1
        assert out == (GOLDEN / f"geography_claims_{chi_max}.stdout").read_text(encoding="utf-8")
        assert (tmp_path / "claims.json").read_bytes() == (
            GOLDEN / f"geography_claims_{chi_max}.json"
        ).read_bytes()

    def test_outputs_deterministic(self, capsys, tmp_path):
        args = ("geography", "--chi-max", "60", "--sets", "A1,A2", "--emit", "csv,svg")
        run(capsys, *args, "--out", str(tmp_path / "a"))
        run(capsys, *args, "--out", str(tmp_path / "b"))
        for name in ("sets.csv", "figure.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestClassify:
    def test_curve_report(self, capsys):
        code, out, _ = run(capsys, "classify", "--curve-C", "2")
        assert code == 0
        assert "3 lines x 2 points" in out
        assert "-> A1" in out
        assert "torus exponent divisibility: yes" in out

    @pytest.mark.parametrize("n", [9, 64, 1000])
    def test_curve_certificate_for_any_n(self, capsys, n):
        code, out, err = run(capsys, "classify", "--curve-C", str(n))
        assert code == 0 and not err
        lines = out.splitlines()
        assert lines[0] == f"curve n={n} (degree {2 * n}): 3 lines x {n} points"
        assert [line.split(":")[0].strip() for line in lines[1:-1]] == [
            "smooth conic", "vertices", "tangency", "etale off the triangle", "local normal form",
        ]
        assert f"y^2 - 4*x^{n} -> A{n - 1}" in lines[-2]
        assert lines[-1] == f"all points certified A{n - 1}"

    def test_failed_certificate_stage_exits_1(self, capsys, monkeypatch):
        def broken(n):
            certificate = curves.seed_certificate(n)
            first, *rest = certificate.stages
            return certificate._replace(stages=(first._replace(ok=False), *rest))

        monkeypatch.setattr(cli, "seed_certificate", broken)
        code, out, err = run(capsys, "classify", "--curve-C", "3")
        assert code == 1
        assert "smooth conic: Hessian determinant of Q = -32  FAILED" in out
        assert "certified" not in out
        assert err.strip() == "failed stages: smooth conic"

    def test_curve_below_two_is_usage_error(self, capsys):
        code, _, err = run(capsys, "classify", "--curve-C", "1")
        assert code == 2
        assert "n >= 2" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify-theorem", "3", "--m", "2", "--n", "1000000"),
            ("classify", "--curve-C", "100000"),
        ],
    )
    def test_large_n_answers_at_once(self, argv):
        env = dict(os.environ, PYTHONPATH=str(Path(picardlab.__file__).parents[1]))
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "picardlab.cli", *argv],
            capture_output=True, text=True, env=env, timeout=20,
        )
        elapsed = time.perf_counter() - start
        assert result.returncode == 0, result.stderr
        assert elapsed < 1.0

    @pytest.mark.parametrize("germ", ["x^100000000 + y^2", "y^2"])
    def test_type_above_the_jet_cap_is_undecided(self, capsys, germ):
        code, out, err = run(capsys, "classify", "--local", germ)
        assert code == 1 and not out
        assert err.strip() == (
            "the germ's type is undecided at jet cap 64: it may be A_k with k >= 63, "
            "or a non-reduced or non-isolated germ"
        )

    def test_local_cusp(self, capsys):
        code, out, _ = run(capsys, "classify", "--local", "y^2 - x^3")
        assert code == 0
        assert out.strip() == "A2"

    def test_local_node(self, capsys):
        code, out, _ = run(capsys, "classify", "--local", "x*y")
        assert code == 0
        assert out.strip() == "A1"

    def test_parse_failure_is_usage_error(self, capsys):
        code, _, err = run(capsys, "classify", "--local", "y^2 ? x")
        assert code == 2
        assert "column 5" in err

    def test_homogeneous_mode(self, capsys):
        code, out, _ = run(
            capsys, "classify",
            "--homogeneous", "X1^2*X2 - X0^3",
            "--point", "0,0,1", "--chart", "2",
        )
        assert code == 0
        assert out.strip() == "A2"

    def test_point_off_curve_fails(self, capsys):
        code, _, err = run(
            capsys, "classify",
            "--homogeneous", "X1^2*X2 - X0^3",
            "--point", "1,2,1", "--chart", "2",
        )
        assert code == 1
        assert "not on the zero locus" in err

    def test_exactly_one_mode(self, capsys):
        code, _, err = run(capsys, "classify", "--local", "x*y", "--curve-C", "2")
        assert code == 2

    def test_form_above_degree_cap_is_refused_quickly(self):
        # The binomial expansion of this form never ends without the cap.
        assert MAX_LOCALIZE_DEGREE < 6000
        env = dict(os.environ, PYTHONPATH=str(Path(picardlab.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "picardlab.cli", "classify",
             "--homogeneous", "X0^3000*X1^3000-X2^6000", "--point", "1,1,1"],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert result.returncode == 2
        assert f"exceeds the localization cap {MAX_LOCALIZE_DEGREE}" in result.stderr

    def test_dense_form_above_product_cap_is_refused_quickly(self, capsys):
        # Degree 128, under the degree cap and through (1:1:1), but 366,145
        # binomial products: expanding them takes seconds.
        form = " + ".join(f"X0^{a}*X1^{128 - a}" for a in range(128)) + " - 128*X0^128"
        start = time.perf_counter()
        code, _, err = run(capsys, "classify", "--homogeneous", form, "--point", "1,1,1")
        assert code == 2
        assert f"more than the cap {MAX_LOCALIZE_PRODUCTS}" in err
        assert time.perf_counter() - start < 1.0

    def test_fixed_jet_bound(self, capsys):
        code, out, _ = run(capsys, "classify", "--local", "y^2 - x^5", "--jet-bound", "12")
        assert code == 0 and out.strip() == "A4"
        code, _, err = run(capsys, "classify", "--local", "y^2 - x^9", "--jet-bound", "8")
        assert code == 1
        assert "jet bound" in err or "degree 8" in err


class TestSlopes:
    def test_fixed_n(self, capsys):
        code, out, _ = run(capsys, "slopes", "--fix", "n=2", "--m-max", "20")
        assert code == 0
        assert "limit: 2" in out
        assert "16/11" in out

    def test_fixed_m(self, capsys):
        code, out, _ = run(capsys, "slopes", "--fix", "m=3", "--n-max", "40")
        assert code == 0
        assert "limit: 4" in out

    def test_odd_fixed_n_rejected(self, capsys):
        code, _, err = run(capsys, "slopes", "--fix", "n=3", "--m-max", "10")
        assert code == 2
        assert "even" in err

    def test_threshold_flag(self, capsys):
        code, out, _ = run(
            capsys, "slopes", "--fix", "n=2", "--m-max", "200", "--threshold", "1/100"
        )
        assert code == 0
        assert "below threshold 1/100" in out

    @pytest.mark.parametrize(
        "fix, bound, value",
        [("n=4", "--m-max", "100000000"), ("m=3", "--n-max", "100000000"),
         ("m=3", "--n-max", str(10**30))],  # past sys.maxsize
    )
    def test_oversized_table_is_refused_quickly(self, capsys, fix, bound, value):
        # Building these tables row by row runs out of memory or time.
        start = time.perf_counter()
        code, out, err = run(capsys, "slopes", "--fix", fix, bound, value)
        assert code == 2 and out == ""
        assert f"more than {MAX_SWEEP_BUILDS} rows" in err
        assert time.perf_counter() - start < 1.0

    def test_table_at_the_row_cap_is_built(self, capsys):
        # m runs from 3, so m <= MAX_SWEEP_BUILDS + 2 gives exactly the cap.
        last = MAX_SWEEP_BUILDS + 2
        code, out, _ = run(capsys, "slopes", "--fix", "n=4", "--m-max", str(last))
        assert code == 0 and out.count(" ok\n") == MAX_SWEEP_BUILDS + 1
        code, _, _ = run(capsys, "slopes", "--fix", "n=4", "--m-max", str(last + 1))
        assert code == 2


def test_version(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert "picardlab" in capsys.readouterr().out
