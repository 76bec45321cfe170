"""Exit-code contract and output determinism of the command line."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock
from xml.etree import ElementTree

import pytest
from hypothesis import example, given, settings, strategies as st

import picardlab
from picardlab import cli, constructions, curves
from picardlab.cli import MAX_SWEEP_BUILDS, UsageError, _parse_sweep, main
from picardlab.constructions import ParameterError, build
from picardlab.polynomials import MAX_LOCALIZE_DEGREE, MAX_LOCALIZE_PRODUCTS, Poly

GOLDEN = Path(__file__).parent / "data" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_in_process(argv, env=None):
    """(exit code, stdout, stderr) of main(argv) with env set; argparse
    refuses what its int() cannot read through SystemExit.  For Hypothesis
    tests, which cannot take capsys."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env or {}), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_exit_contract(argv, code, out, err, first_line):
    """A numeric flag either runs the command (exit 0 or 1, output starting
    with first_line) or is refused with exit 2 before a line is printed."""
    if code == 2:
        assert out == "" and err.startswith(("usage error: ", "usage: picardlab")), argv
    else:
        assert code in (0, 1) and out.startswith(first_line), (argv, err)


# Numeric flag values: small integers, what int() reads beyond ASCII digits,
# what it refuses, 10^2200 (int() reads it, but the numbers made from it
# print longer than str() converts), and text.
_FLAG_TEXTS = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["٣", "1_0", " 7 ", "4e3", "1" * 4301, "1" + "0" * 2200, "ten", "", "0x10",
                     "+6", "100000000", str(10**30)]),
    st.text(
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=8
    ),
)


# Point coordinates: what Fraction reads, exponents at and past the cap of
# 10,000 in size, and what it refuses.
_COORDINATE_TEXTS = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["1/2", "-1/3", "0.5", "1e-5", "1e-10000", "1E10000", "1e-10001",
                     "1e-10000000", "1e1_000_000_000", "1/0", "nan", "inf", "x", "", " 1 "]),
    _FLAG_TEXTS,
)


def _int_or_none(text):
    try:
        return int(text)
    except ValueError:
        return None


CLI_ENV = dict(os.environ, PYTHONPATH=str(Path(picardlab.__file__).parents[1]))

needs_wait4 = pytest.mark.skipif(
    not hasattr(os, "wait4"), reason="needs os.wait4 for the child's peak RSS"
)


def peak_rss_mb(*argv):
    """Run the command line in a child and return its exit code, its peak
    resident set in MB and its stderr.  A child counts its parent's resident
    set until it execs, so a small interpreter spawns the command and reports
    its ru_maxrss."""
    probe = (
        "import os, subprocess, sys\n"
        "child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
        "_, status, usage = os.wait4(child.pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, sys.executable, "-m", "picardlab.cli", *argv],
        capture_output=True, text=True, env=CLI_ENV, timeout=60,
    )
    code, maxrss = map(int, result.stdout.split())
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    return code, maxrss / (2**20 if sys.platform == "darwin" else 2**10), result.stderr


# Breaks of the seed proof, each applied through a monkeypatch.
def _changed_conic_coefficient(patch):
    # 5 in place of 4: Q is still smooth, but no longer tangent to the lines.
    patch.setattr(curves, "_conic", lambda u, v, w: (u + v + w) ** 2 - 5 * (u * v + u * w + v * w))


def _off_by_one_pullback(patch):
    # x -> x^(n+1) in place of x^n: each powered X_i times x_i.
    pull = curves._pull

    def pull_plus_one(f, powered):
        k, g = f.nvars, pull(f, powered)
        return Poly({tuple(b + a for b, a in zip(e[:k], e[k:])) + e[k:]: c
                     for e, c in g.coeffs.items()}, g.nvars)

    patch.setattr(curves, "_pull", pull_plus_one)


def _wrong_euler_factor(patch):
    # (n - 1)*X_i*d/dX_i in place of n*X_i*d/dX_i: a wrong derivative of x_i^n.
    euler = curves._euler

    def euler_n_minus_one(f, i):
        power = f.nvars // 2 + i
        return euler(f, i) - Poly.variable(power, f.nvars) * f.partial(power)

    patch.setattr(curves, "_euler", euler_n_minus_one)


def _extra_normal_form_term(patch):
    # x*y added to the completed square y^2 - 4x, the proof's one substitute call.
    sub = curves.substitute
    patch.setattr(curves, "substitute", lambda *args: sub(*args) + curves._X * curves._Y)


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

    def test_a_repeated_value_is_built_once(self, capsys):
        # Each distinct (m, n) once, in increasing order, whatever the order
        # and overlap of the ranges.
        code, out, _ = run(capsys, "verify-theorem", "1", "--sweep", "n=2,2")
        assert code == 0
        assert out.count("theorem 1  n=2 ") == 1
        assert out.endswith("certified 1 construction(s)\n")
        code, out, _ = run(capsys, "verify-theorem", "2", "--sweep", "n=4,2,4,m=4..5,3..4")
        assert code == 0
        heads = [line for line in out.splitlines() if line.startswith("theorem ")]
        assert heads == [f"theorem 2  m={m} n={n}  (base F_{m})" for m in (3, 4, 5) for n in (2, 4)]
        assert out.endswith("certified 6 construction(s)\n")
        assert _parse_sweep("n=2..5,3..4") == {"n": [2, 3, 4, 5]}

    def test_the_cap_counts_distinct_values(self):
        # A range past the cap is refused before its values are made; two
        # ranges of the same values stay within it.
        cap = MAX_SWEEP_BUILDS
        assert _parse_sweep(f"n=1..{cap},1..{cap}") == {"n": list(range(1, cap + 1))}
        with pytest.raises(UsageError, match="takes more than"):
            _parse_sweep(f"n=1..{cap},{cap + 1}")
        with pytest.raises(UsageError, match="takes more than"):
            _parse_sweep(f"n=2..{10**30}")
        with pytest.raises(UsageError, match="combinations"):
            _parse_sweep("m=1..100,1..100,n=1..101")

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

    def test_bad_value_mid_sweep_is_refused_before_anything_runs(self, capsys, tmp_path):
        # n = 3 is odd; the reports for n = 2 must not be built or printed.
        path = tmp_path / "out.json"
        code, out, err = run(
            capsys, "verify-theorem", "2", "--sweep", "m=3,n=2..5", "--json", str(path)
        )
        assert (code, out) == (2, "")
        assert "needs n even and >= 2, got n=3" in err
        assert not path.exists()

    def test_unwritable_json_path_is_reported_without_traceback(self, tmp_path):
        path = tmp_path / "missing" / "x.json"
        result = subprocess.run(
            [sys.executable, "-m", "picardlab.cli", "verify-theorem", "1", "--n", "3",
             "--json", str(path)],
            capture_output=True, text=True, env=CLI_ENV, timeout=20,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("cannot write outputs: ")
        assert str(path) in result.stderr
        assert "Traceback" not in result.stderr

    # Reports are built a batch at a time: a failure at the second member, at
    # the first member of the second batch and in the middle of a later batch.
    _FAILING_N = pytest.mark.parametrize("failing_n", [
        pytest.param(3, id="second-member"),
        pytest.param(2 + cli.REPORT_BATCH, id="first-of-second-batch"),
        pytest.param(2 + 2 * cli.REPORT_BATCH + cli.REPORT_BATCH // 2, id="mid-later-batch"),
    ])

    @staticmethod
    def reports_before(capsys, failing_n):
        """The stdout of theorem 1's reports for n = 2 .. failing_n - 1."""
        code, out, _ = run(capsys, "verify-theorem", "1", "--sweep", f"n=2..{failing_n - 1}")
        assert code == 0
        return out.removesuffix(f"certified {failing_n - 2} construction(s)\n")

    @_FAILING_N
    def test_error_mid_sweep_removes_the_partial_json(
        self, capsys, tmp_path, monkeypatch, failing_n
    ):
        expected = self.reports_before(capsys, failing_n)
        real_build = cli.build

        def build(theorem, **params):
            if params["n"] == failing_n:
                raise ParameterError("assembled building data is invalid: planted")
            return real_build(theorem, **params)

        monkeypatch.setattr(cli, "build", build)
        path = tmp_path / "out.json"
        code, out, err = run(
            capsys, "verify-theorem", "1", "--sweep", "n=2..60", "--json", str(path)
        )
        assert code == 2
        assert err == "usage error: assembled building data is invalid: planted\n"
        assert out == expected and out.count("theorem 1") == failing_n - 2
        assert "wrote" not in out
        assert not path.exists()

    @_FAILING_N
    def test_failed_write_mid_sweep_is_reported_and_spares_a_symlink(
        self, capsys, tmp_path, monkeypatch, failing_n
    ):
        expected = self.reports_before(capsys, failing_n)
        real_build = cli.build

        def build(theorem, **params):
            if params["n"] == failing_n:
                raise OSError(28, "No space left on device")
            return real_build(theorem, **params)

        monkeypatch.setattr(cli, "build", build)
        target = tmp_path / "target.json"
        for path in (tmp_path / "out.json", tmp_path / "link.json"):
            if path.name == "link.json":
                path.symlink_to(target)
            code, out, err = run(
                capsys, "verify-theorem", "1", "--sweep", "n=2..60", "--json", str(path)
            )
            assert code == 1
            assert err == "cannot write outputs: [Errno 28] No space left on device\n"
            assert out == expected and "wrote" not in out
        assert not (tmp_path / "out.json").exists()
        assert (tmp_path / "link.json").is_symlink() and target.exists()

    def test_first_false_field_fails_after_every_report_is_written(
        self, capsys, tmp_path, monkeypatch
    ):
        real_build = cli.build

        def build(theorem, **params):
            report = real_build(theorem, **params)
            return report._replace(maximal=False) if params["n"] >= 3 else report

        monkeypatch.setattr(cli, "build", build)
        path = tmp_path / "out.json"
        code, out, err = run(
            capsys, "verify-theorem", "1", "--sweep", "n=2..4", "--json", str(path)
        )
        assert code == 1
        assert err == "FAIL: field maximal is false for theorem 1 n=3\n"
        assert out.count("maximal: NO") == 2
        assert out.endswith(f"wrote {path}\n")
        text = path.read_text(encoding="utf-8")
        payload = json.loads(text)
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text
        assert [r["maximal"] for r in payload["reports"]] == [True, False, False]

    def test_a_sweep_proves_the_seed_certificate_once(self, capsys, fresh_seed_proof):
        code, out, _ = run(capsys, "verify-theorem", "1", "--sweep", "n=2..10001")
        assert code == 0 and "certified 10000 construction(s)" in out
        assert fresh_seed_proof.cache_info().misses == 1

    @pytest.mark.parametrize("mutation, failures", [
        (_changed_conic_coefficient, ("tangency", "local normal form")),
        (_off_by_one_pullback, ("tangency", "etale off the triangle")),
        (_extra_normal_form_term, ("local normal form",)),
        (_wrong_euler_factor, ("tangency", "etale off the triangle")),
    ])
    def test_a_broken_proof_names_its_stage(
        self, capsys, monkeypatch, fresh_seed_proof, mutation, failures
    ):
        mutation(monkeypatch)
        assert fresh_seed_proof().failures == failures
        fresh_seed_proof.cache_clear()
        code, out, err = run(capsys, "verify-theorem", "1", "--n", "4")
        assert (code, out) == (2, "")
        assert err == f"usage error: the seed curve certificate fails at n=4: {', '.join(failures)}\n"

    def test_sweep_json_is_json_dumps_of_the_reports(self, capsys, tmp_path):
        # The sweep sizes of CERTIFY_SWEEPS in perfbench/workloads.py.
        sweeps = (
            (1, "n=2..300", [{"n": n} for n in range(2, 301)]),
            (2, "m=3..8,n=" + ",".join(map(str, range(2, 129, 2))),
             [{"m": m, "n": n} for m in range(3, 9) for n in range(2, 129, 2)]),
            (3, "m=2..7,n=" + ",".join(map(str, range(4, 129, 2))),
             [{"m": m, "n": n} for m in range(2, 8) for n in range(4, 129, 2)]),
        )
        for theorem, sweep, params in sweeps:
            path = tmp_path / f"theorem{theorem}.json"
            code, _, _ = run(capsys, "verify-theorem", str(theorem), "--sweep", sweep, "--json", str(path))
            assert code == 0
            reports = [build(theorem, **p).to_json() for p in params]
            expected = json.dumps({"reports": reports}, indent=2, sort_keys=True) + "\n"
            assert path.read_text(encoding="utf-8") == expected, theorem

    @needs_wait4
    def test_sweep_memory_does_not_grow_with_the_sweep(self, tmp_path):
        # 2,000 reports took about 58 MB when the whole sweep was held
        # before writing; streamed, each report is dropped once written.
        one = peak_rss_mb("verify-theorem", "1", "--n", "2", "--json", str(tmp_path / "1.json"))
        many = peak_rss_mb(
            "verify-theorem", "1", "--sweep", "n=2..2001", "--json", str(tmp_path / "2000.json")
        )
        assert one[0] == many[0] == 0, (one[2], many[2])
        assert many[1] - one[1] < 4, (one[1], many[1])
        assert (tmp_path / "2000.json").stat().st_size > 3_000_000

    @settings(max_examples=150, deadline=None, database=None)
    @given(st.sampled_from("123"), _FLAG_TEXTS, st.one_of(st.none(), _FLAG_TEXTS))
    def test_numeric_flags_exit_by_contract(self, theorem, n, m):
        argv = ["verify-theorem", theorem, f"--n={n}"] + ([] if m is None else [f"--m={m}"])
        start = time.perf_counter()
        code, out, err = run_in_process(argv)
        assert time.perf_counter() - start < 1.0, argv
        assert_exit_contract(argv, code, out, err, f"theorem {theorem}  ")


_SWEEP_PIECES = st.one_of(
    st.sampled_from(["m=", "n=", "..", ",", " ", "-", "+", "=", "0", "2", "7", "٣", "_", "\xa0"]),
    st.integers(-10**30, 10**30).map(str),
    st.characters(),
)
# Edge cases and hostile specs; each must be answered at once.
_SWEEP_SEEDS = [
    "n=2..1234567890123456789012345",
    "n=" + "9" * 5000,
    "n=٣",
    "n=1_0",
    "m=3,,n=4",
    "n=2..3..4",
    "n=",
    "m=3,n=4,",
    "n=2,n=4",
    "m=1..10000,n=2..3",
]


def _check_sweep(spec):
    """A sweep spec parses to a dict within the cap, or is a UsageError,
    in under half a second."""
    start = time.perf_counter()
    try:
        sweep = _parse_sweep(spec)
    except UsageError:
        sweep = None
    assert time.perf_counter() - start < 0.5, spec
    if sweep is None:
        return
    assert sweep and set(sweep) <= {"m", "n"}, spec
    for values in sweep.values():
        assert 0 < len(values) <= MAX_SWEEP_BUILDS, spec
        assert all(type(v) is int for v in values), spec
    assert math.prod(map(len, sweep.values())) <= MAX_SWEEP_BUILDS, spec


class TestParseSweep:
    @settings(max_examples=800, deadline=None, database=None)
    @given(st.one_of(
        st.lists(_SWEEP_PIECES, max_size=16).map("".join),
        st.text(max_size=24),
    ))
    def test_a_dict_within_the_cap_or_a_usage_error(self, spec):
        _check_sweep(spec)

    @pytest.mark.parametrize("spec", _SWEEP_SEEDS)
    def test_seeds(self, spec):
        _check_sweep(spec)

    @pytest.mark.parametrize("spec", ["n=٣", "n=1_0"])
    def test_what_int_reads_is_accepted(self, spec):
        assert _parse_sweep(spec) == {"n": [int(spec[2:])]}

    @pytest.mark.parametrize("spec", [s for s in _SWEEP_SEEDS if s not in ("n=٣", "n=1_0")])
    def test_a_refused_sweep_exits_2_with_empty_stdout(self, capsys, spec):
        code, out, err = run(capsys, "verify-theorem", "2", "--sweep", spec)
        assert (code, out) == (2, ""), spec
        assert err.startswith("usage error: ") and err.count("\n") == 1, spec


def _valid_bound(text):
    """The chi bound that geography reads from text, or None for a refusal."""
    value = _int_or_none(text)
    return value if value is not None and 3 <= value <= cli.MAX_CHI_MAX else None


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
        env = dict(CLI_ENV, **env)
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "picardlab.cli", "geography", "--claims", *argv],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert result.returncode == 2
        assert f"{source} must be at most {cli.MAX_CHI_MAX}" in result.stderr
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("emit", ["csv", "svg", "json,svg"])
    def test_emit_above_the_emit_bound_is_refused_quickly(self, tmp_path, emit):
        # csv and svg write a row and a marker per pair: at 10^10 some 8*10^9,
        # of which a first run wrote 200 MB in 6 s before it was stopped.  The
        # refusal comes before any claim is computed or --out is made.
        out_dir = tmp_path / "out"
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "picardlab.cli", "geography", "--chi-max",
             str(cli.MAX_CHI_MAX), "--emit", emit, "--out", str(out_dir)],
            capture_output=True, text=True, env=CLI_ENV, timeout=20,
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert f"--chi-max must be at most {cli.MAX_EMIT_CHI_MAX} to emit csv or svg" in (
            result.stderr
        )
        assert time.perf_counter() - start < 1.0
        assert list(tmp_path.iterdir()) == []

    def test_emit_bound_is_inclusive_and_json_keeps_the_claims_bound(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(cli, "MAX_EMIT_CHI_MAX", 60)
        code, _, _ = run(capsys, "geography", "--chi-max", "60", "--emit", "csv,svg",
                         "--out", str(tmp_path / "at"))
        assert code == 1 and sorted(p.name for p in (tmp_path / "at").iterdir()) == [
            "figure.svg", "sets.csv",
        ]
        monkeypatch.setenv("PICARDLAB_CHI_MAX", "61")
        code, _, err = run(capsys, "geography", "--emit", "csv", "--out", str(tmp_path / "above"))
        assert code == 2 and "PICARDLAB_CHI_MAX must be at most 60 to emit csv or svg" in err
        assert not (tmp_path / "above").exists()
        code, _, _ = run(capsys, "geography", "--chi-max", str(cli.MAX_CHI_MAX), "--emit", "json",
                         "--out", str(tmp_path / "json"))
        assert code == 1 and [p.name for p in (tmp_path / "json").iterdir()] == ["claims.json"]

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        st.one_of(
            st.integers(-5, 12).map(str),
            st.integers(cli.MAX_CHI_MAX + 1, cli.MAX_CHI_MAX + 10**6).map(str),
            st.sampled_from(["٣", "1_0", " 7 ", "4e3", "1" * 4301, "ten", "", "0x10", "+46"]),
            st.text(
                st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                max_size=12,
            ).filter(lambda text: (_valid_bound(text) or 0) <= 10**6),
        ),
        st.booleans(),
    )
    @example(str(cli.MAX_CHI_MAX), False)
    def test_numeric_input_exits_by_contract(self, text, from_env):
        # A bound that int() reads and that lies in [3, MAX_CHI_MAX] runs the
        # report (exit 0, or 1 from the (128, 46) refutation); anything else
        # exits 2 before printing a line.
        if from_env:
            argv, env = ["geography"], {"PICARDLAB_CHI_MAX": text}
        else:
            argv, env = ["geography", f"--chi-max={text}"], {}
        code, out, err = run_in_process(argv, env)
        if _valid_bound(text) is None:
            assert (code, out) == (2, ""), text
            assert err, text
        else:
            assert code in (0, 1), (text, err)
            assert out.startswith(f"set relations within chi <= {int(text)}:\n")

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

    def test_out_is_left_alone_without_emit(self, capsys, tmp_path):
        # Nothing is written, so --out is neither created nor required to be
        # writable.
        blocker = tmp_path / "blocker"
        blocker.write_text("plain file")
        for out_dir in (tmp_path / "new" / "dir", blocker / "sub"):
            code, out, err = run(
                capsys, "geography", "--chi-max", "40", "--sets", "A1", "--out", str(out_dir)
            )
            assert (code, err) == (0, "")
            assert "wrote" not in out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]

    @pytest.mark.parametrize("chi_max", [3, 4, 5])
    def test_small_bound_emits_a_one_panel_svg(self, capsys, tmp_path, chi_max):
        # A lone panel cut used to leave a last window of one chi value, and
        # scaling it divided by zero.  The run exits 1 because A2 and A3 have
        # no member this low, which refutes the "infinite" claims.
        code, _, err = run(
            capsys, "geography", "--chi-max", str(chi_max), "--emit", "csv,svg",
            "--out", str(tmp_path),
        )
        assert code == 1 and err == ""
        svg = ElementTree.parse(tmp_path / "figure.svg").getroot()
        panels = svg.findall("{http://www.w3.org/2000/svg}g")
        assert [p.get("data-window") for p in panels] == [f"1..{chi_max}"]
        rows = (tmp_path / "sets.csv").read_text(encoding="utf-8").splitlines()[1:]
        markers = [m.get("data-set") for m in panels[0] if m.get("data-set")]
        assert sorted(markers) == sorted(row.split(",")[0] for row in rows) != []

    @needs_wait4
    def test_emit_memory_grows_with_the_lines_not_the_pairs(self, tmp_path):
        # About 80,000 pairs, which took about 80 MB when every pair was
        # listed; streamed, the peak stays near the interpreter's own.
        code, peak_mb, stderr = peak_rss_mb(
            "geography", "--chi-max", "100000", "--emit", "csv,svg", "--out", str(tmp_path)
        )
        assert code == 1, stderr  # the A3/B overlap at (128, 46)
        assert peak_mb < 30, peak_mb
        assert (tmp_path / "sets.csv").stat().st_size > 2_000_000

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
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "picardlab.cli", *argv],
            capture_output=True, text=True, env=CLI_ENV, timeout=20,
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

    def test_point_off_curve_past_the_str_digit_limit_fails(self):
        # The coordinate 1e-10000, at the exponent cap, has a denominator of
        # 10,001 digits, more than str() prints under the default limit.
        result = subprocess.run(
            [sys.executable, "-m", "picardlab.cli", "classify",
             "--homogeneous", "X1^2*X2 - X0^3", "--point", "1e-10000,0,1", "--chart", "2"],
            capture_output=True, text=True, env=CLI_ENV, timeout=20,
        )
        try:
            denominator = str(10**10000)
        except ValueError:
            denominator = "<10001 digits>"
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == f"point (1/{denominator}, 0, 1) is not on the zero locus\n"

    def test_exactly_one_mode(self, capsys):
        code, _, err = run(capsys, "classify", "--local", "x*y", "--curve-C", "2")
        assert code == 2

    @pytest.mark.parametrize("mode", [("--local", "y^2 - x^3"), ("--curve-C", "3")])
    @pytest.mark.parametrize(
        "flags", [("--point", "1,2,3"), ("--chart", "1"), ("--point", "0,0,1", "--chart", "2")]
    )
    def test_point_and_chart_only_with_homogeneous(self, capsys, mode, flags):
        code, out, err = run(capsys, "classify", *mode, *flags)
        assert (code, out) == (2, "")
        assert err == "usage error: --point and --chart apply only to --homogeneous\n"

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        st.one_of(st.none(), _FLAG_TEXTS),
        st.sampled_from([None, "X1^2*X2 - X0^3", "X0^2 + X1^2 - X2^2"]),
        st.one_of(st.none(), st.lists(_COORDINATE_TEXTS, min_size=1, max_size=4).map(",".join)),
        st.one_of(st.none(), st.sampled_from(["0", "1", "2", "3", "-1", "x", ""])),
    )
    # Fraction would take minutes to expand 10^(10^7).
    @example(None, "X1^2*X2 - X0^3", "1e-10000000,0,1", "2")
    def test_flags_exit_by_contract(self, curve_n, form, point, chart):
        argv = ["classify"]
        for flag, text in (
            ("--curve-C", curve_n), ("--homogeneous", form), ("--point", point), ("--chart", chart)
        ):
            if text is not None:
                argv.append(f"{flag}={text}")
        start = time.perf_counter()
        code, out, err = run_in_process(argv)
        assert time.perf_counter() - start < 1.0, argv
        assert_exit_contract(argv, code, out, err, "")

    def test_form_above_degree_cap_is_refused_quickly(self):
        # Without the cap, localizing this form at (1:1:1) gives about 9
        # million terms, 3001^2 from (x + 1)^3000*(y + 1)^3000.
        assert MAX_LOCALIZE_DEGREE < 6000
        result = subprocess.run(
            [sys.executable, "-m", "picardlab.cli", "classify",
             "--homogeneous", "X0^3000*X1^3000-X2^6000", "--point", "1,1,1"],
            capture_output=True, text=True, env=CLI_ENV, timeout=20,
        )
        assert result.returncode == 2
        assert f"exceeds the localization cap {MAX_LOCALIZE_DEGREE}" in result.stderr

    def test_dense_form_above_product_cap_is_refused_quickly(self, capsys):
        # Degree 128, under the degree cap and through (1:1:1), but its size,
        # the sum of (i + 1)*(j + 1) over its terms, is 366,145.
        form = " + ".join(f"X0^{a}*X1^{128 - a}" for a in range(128)) + " - 128*X0^128"
        start = time.perf_counter()
        code, _, err = run(capsys, "classify", "--homogeneous", form, "--point", "1,1,1")
        assert code == 2
        assert f"more than the cap {MAX_LOCALIZE_PRODUCTS}" in err
        assert time.perf_counter() - start < 1.0

    def test_largest_form_under_the_product_cap_answers_quickly(self, capsys):
        # Its size, the sum over j < 44 of (129 - j)*(j + 1), is 99,330; a
        # 45th term would pass the cap.
        form = " + ".join(f"X0^{128 - j}*X1^{j}" for j in range(44)) + " - 44*X2^128"
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", "--homogeneous", form, "--point", "1,1,1")
        assert (code, out.strip(), err) == (0, "Smooth", "")
        assert time.perf_counter() - start < 1.0

    def test_degree_beyond_str_digit_limit_is_refused_by_the_cap(self, capsys):
        # Each exponent fits the parser's literal limit of 4,300 digits, but
        # the degree 10^4300 + 1 has more digits than str() converts.
        nines = "9" * 4300
        form = f"X1^2*X2^{nines} - X0^3*X2^{nines[:-1]}8"
        code, out, err = run(capsys, "classify", "--homogeneous", form, "--point", "0,0,1")
        assert code == 2 and not out
        assert f"exceeds the localization cap {MAX_LOCALIZE_DEGREE}" in err

    def test_inhomogeneous_degree_beyond_str_digit_limit_is_named(self, capsys):
        # The degree check names each term degree; 10^4300 + 1 has more
        # digits than str() converts.
        form = f"X1^2*X2^{'9' * 4300} - X0^3"
        code, out, err = run(capsys, "classify", "--homogeneous", form, "--point", "0,0,1")
        assert (code, out) == (2, "")
        assert err == (
            "usage error: cannot parse polynomial: polynomial is not homogeneous: "
            "term degrees [3, above 2^2048] (column 1)\n"
        )

    def test_search_flags_are_gone(self, capsys):
        for flag in (("--jet-bound", "12"), ("--expected-k", "4")):
            with pytest.raises(SystemExit) as exc:
                main(["classify", "--local", "y^2 - x^5", *flag])
            assert exc.value.code == 2

    def test_search_stops_at_jet_cap(self, capsys, jet_bounds):
        code, _, err = run(capsys, "classify", "--local", "y^2 - x^70")
        assert code == 1
        assert f"undecided at jet cap {curves.JET_BOUND_CAP}" in err
        assert jet_bounds == [8, 16, 32, 64] and curves.JET_BOUND_CAP == 64

    def test_constant_term_is_usage_error(self, capsys):
        code, _, err = run(capsys, "classify", "--local", "1 + y^2 - x^3")
        assert code == 2
        assert "the germ must vanish at the origin" in err

    @pytest.mark.parametrize("germ", [
        ("--local", "0"),
        ("--local", "x^2 - x^2"),
        ("--homogeneous", "0", "--point", "0,0,1"),
    ])
    def test_zero_germ_is_usage_error(self, capsys, germ):
        code, out, err = run(capsys, "classify", *germ)
        assert (code, out) == (2, "")
        assert err.strip() == "usage error: the germ is the zero polynomial"


# 10^2200 parses (int() reads up to 4,300 digits), but the numbers it makes
# printed have more digits than str() converts.
HUGE = "1" + "0" * 2200


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-theorem", "1", "--n", HUGE, "--json", "reports.json"),
        ("verify-theorem", "3", "--m", "2", "--n", HUGE, "--json", "reports.json"),
        ("verify-theorem", "1", "--sweep", f"n=2..4,{HUGE}", "--json", "reports.json"),
        ("classify", "--curve-C", HUGE),
        ("slopes", "--fix", f"n={HUGE}", "--m-max", "4"),
        # 10,000 rows, each refused; the last row is checked before the rest.
        ("slopes", "--fix", f"n=2{'0' * 4298}", "--m-max", "10002"),
        ("slopes", "--fix", "m=3", "--n-max", "4", "--threshold", "1e-5000"),
    ],
)
def test_numbers_beyond_the_str_digit_limit_are_refused_first(
    capsys, monkeypatch, tmp_path, argv
):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ")
    assert f"more than {sys.get_int_max_str_digits()} digits" in err
    assert list(tmp_path.iterdir()) == []


def test_numbers_under_the_str_digit_limit_are_printed(capsys):
    # K2 = 8m - 8 and h11 = 32m - 2 at n = 2 stay under 4,300 digits.
    code, out, _ = run(capsys, "verify-theorem", "2", "--m", HUGE, "--n", "2")
    assert code == 0
    assert out.endswith("certified 1 construction(s)\n")


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

    @pytest.mark.parametrize("threshold", ["0", "-1", "-1/100"])
    def test_threshold_must_be_positive(self, capsys, threshold):
        code, out, err = run(capsys, "slopes", "--fix", "n=2", "--m-max", "20", f"--threshold={threshold}")
        assert (code, out) == (2, "")
        assert err == f"usage error: threshold must be positive, got {threshold}\n"

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

    def test_threshold_exponent_is_capped_before_fraction_reads_it(self, capsys):
        # Fraction("1e-10000000") alone takes about 9 s.
        start = time.perf_counter()
        for threshold in ("1e-10000000", "1E1_000_000_000"):
            code, out, err = run(
                capsys, "slopes", "--fix", "m=3", "--n-max", "4", "--threshold", threshold
            )
            assert (code, out) == (2, "")
            assert f"exponent must be at most {cli.MAX_THRESHOLD_EXPONENT}" in err
        assert time.perf_counter() - start < 1.0

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        st.sampled_from(["n", "m", " n", "x"]),
        st.one_of(_FLAG_TEXTS, st.integers(1, 30).map(str)),
        st.one_of(st.none(), _FLAG_TEXTS, st.integers(2, 60).map(str)),
        st.one_of(st.none(), _FLAG_TEXTS, st.integers(2, 60).map(str)),
        st.one_of(st.none(), _FLAG_TEXTS, st.sampled_from(
            ["1/100", "0", "-1", "1e-5000", "1e-4000", "1e-10000000", "1/0", "nan", "inf",
             "2E-3", "0.5", "1e1_0"]
        )),
    )
    def test_numeric_flags_exit_by_contract(self, key, value, m_max, n_max, threshold):
        argv = ["slopes", f"--fix={key}={value}"]
        for flag, text in (("--m-max", m_max), ("--n-max", n_max), ("--threshold", threshold)):
            if text is not None:
                argv.append(f"{flag}={text}")
        start = time.perf_counter()
        code, out, err = run_in_process(argv)
        assert time.perf_counter() - start < 1.0, argv
        assert_exit_contract(argv, code, out, err, "slopes of family 2 with ")

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


def modules_loaded_by_cli_import(*names):
    """Which of the named modules a fresh interpreter holds after importing
    picardlab.cli."""
    result = subprocess.run(
        [sys.executable, "-c", "import sys, picardlab.cli; print(' '.join(m for m in "
         f"{names!r} if m in sys.modules))"],
        capture_output=True, text=True, env=CLI_ENV, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_cli_import_does_not_load_dataclasses():
    # The records are collections.namedtuple classes.  dataclasses, with the
    # inspect, ast and dis modules it loads, and the class processing of
    # frozen dataclasses cost about 30 ms of every command's start-up.
    assert modules_loaded_by_cli_import("dataclasses", "inspect", "ast", "dis") == []


def test_cli_import_does_not_load_json():
    # Only geography --emit json and verify-theorem --json write JSON; the
    # json package costs about 2 ms of every other command's start-up.
    assert modules_loaded_by_cli_import("json", "json.encoder") == []


@pytest.mark.parametrize("argv, lines", [
    (("verify-theorem", "1", "--sweep", "n=2..3000"), 1),
    (("verify-theorem", "2", "--sweep", "m=3..400,n=2,4", "--json", "reports.json"), 1),
    (("slopes", "--fix", "m=3", "--n-max", "5000"), 1),
    (("verify-theorem", "3", "--sweep", "m=2,n=4,6"), 0),
])
def test_a_closed_stdout_is_an_io_failure(argv, lines, tmp_path):
    # The first three commands write far more than a pipe holds, so they are
    # still writing when the reader closes the pipe after the first line;
    # the last writes all its lines at once, at exit, after the reader has
    # closed it unread.  The failure is reported once, as a write that
    # failed, with no traceback and nothing more at shutdown, and no
    # half-written JSON is left behind.
    with subprocess.Popen(
        [sys.executable, "-m", "picardlab.cli", *argv], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=CLI_ENV, cwd=tmp_path,
    ) as child:
        for _ in range(lines):
            assert child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 1
    assert err == b"cannot write outputs: [Errno 32] Broken pipe\n"
    assert list(tmp_path.iterdir()) == []
