"""CLI outputs pinned byte for byte: stdout, written files, stderr and exit
codes of geography, verify-theorem, slopes and classify runs and of usage
errors.

The golden files in data/golden/ hold, per case, `<case>.stdout`,
`<case>.stderr` and one `<case>.<file>` for every file the run writes; the
exit codes of all cases are in `exit_codes.json`.  Emits too large to keep
the claims at large bounds and the certify benchmark's sweeps are pinned by
their sha256 digests, in `geography_emit_<chi_max>.sha256`,
`geography_claims_<chi_max>.sha256` and `verify_<theorem>_sweep_<builds>.sha256`
(the format of `sha256sum`, the stdout as `stdout.txt`).
"""

import hashlib
import json
from pathlib import Path

import pytest

from picardlab.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

# case name -> (argv, files the run writes into its working directory)
CASES = {
    "geography_emit_1000": (
        ("geography", "--chi-max", "1000", "--emit", "csv,svg"), ("sets.csv", "figure.svg")
    ),
    "verify_1_sweep": (
        ("verify-theorem", "1", "--sweep", "n=2..6", "--json", "reports.json"), ("reports.json",)
    ),
    "verify_2_sweep": (
        ("verify-theorem", "2", "--sweep", "m=3..5,n=2,4", "--json", "reports.json"),
        ("reports.json",),
    ),
    "verify_3_sweep": (
        ("verify-theorem", "3", "--sweep", "m=2..4,n=4,6", "--json", "reports.json"),
        ("reports.json",),
    ),
    "slopes_fix_n4": (("slopes", "--fix", "n=4", "--m-max", "12"), ()),
    "slopes_fix_m3": (("slopes", "--fix", "m=3", "--n-max", "20"), ()),
    "verify_2_m2": (("verify-theorem", "2", "--m", "2", "--n", "2"), ()),
    "verify_3_m2": (("verify-theorem", "3", "--m", "2", "--n", "2"), ()),
    "verify_1_with_m": (("verify-theorem", "1", "--n", "2", "--m", "3"), ()),
    "slopes_fix_n3": (("slopes", "--fix", "n=3", "--m-max", "5"), ()),
    # The refusals of each fixed parameter and of an unknown one.
    "slopes_fix_m2": (("slopes", "--fix", "m=2", "--n-max", "10"), ()),
    "slopes_fix_m3_no_bound": (("slopes", "--fix", "m=3"), ()),
    "slopes_fix_n4_no_bound": (("slopes", "--fix", "n=4"), ()),
    "slopes_fix_unknown": (("slopes", "--fix", "x=3", "--m-max", "5"), ()),
    "geography_sets_a4": (("geography", "--sets", "A4"), ()),
    "classify_curve_c2": (("classify", "--curve-C", "2"), ()),
    "classify_curve_c9": (("classify", "--curve-C", "9"), ()),
    "classify_curve_c1": (("classify", "--curve-C", "1"), ()),
    # No laboratory reaches this n: only the proof for symbolic n prints it.
    "classify_curve_c_1e12": (("classify", "--curve-C", "1000000000000"), ()),
    "classify_local_a4": (("classify", "--local", "y^2 - x^5"), ()),
    "classify_local_jet_cap": (("classify", "--local", "x^100000000 + y^2"), ()),
    "classify_homogeneous_cusp": (
        ("classify", "--homogeneous", "X1^2*X2 - X0^3", "--point", "0,0,1", "--chart", "2"), ()
    ),
    "classify_point_off_curve": (
        ("classify", "--homogeneous", "X1^2*X2 - X0^3", "--point", "1,0,1", "--chart", "2"), ()
    ),
    # A grammar error, and a token error reported before an earlier grammar
    # error.
    "classify_parse_error_grammar": (
        ("classify", "--homogeneous", "X0^2 - X1*X2 + * X0", "--point", "0,0,1"), ()
    ),
    "classify_parse_error_token_wins": (
        ("classify", "--homogeneous", "X0^2 - X1*X2 + * X0 # ", "--point", "0,0,1"), ()
    ),
}


def run_case(name, capsys, monkeypatch, workdir):
    """Run one case in workdir; return its exit code and {golden file: bytes}."""
    argv, files = CASES[name]
    monkeypatch.chdir(workdir)
    code = main(list(argv))
    captured = capsys.readouterr()
    outputs = {
        f"{name}.stdout": captured.out.encode(),
        f"{name}.stderr": captured.err.encode(),
    }
    for file in files:
        outputs[f"{name}.{file}"] = (workdir / file).read_bytes()
    return code, outputs


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys, monkeypatch, tmp_path):
    code, outputs = run_case(name, capsys, monkeypatch, tmp_path)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert code == codes[name]
    for file, data in outputs.items():
        assert data == (GOLDEN / file).read_bytes(), file


def assert_pinned(pinned_name, workdir, stdout):
    """Every file named in a sha256sum listing, stdout.txt being the run's
    stdout, has its pinned digest."""
    pinned = (GOLDEN / pinned_name).read_text(encoding="utf-8")
    for line in pinned.splitlines():
        digest, name = line.split()
        data = stdout.encode() if name == "stdout.txt" else (workdir / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_emit_matches_pinned_digests(capsys, monkeypatch, tmp_path):
    # The chi <= 1,000 case lies inside one emitter window; this bound spans
    # about a hundred, so a row lost or misordered at a window edge shows.
    # CI checks the digests pinned at chi <= 10^6 the same way.
    monkeypatch.chdir(tmp_path)
    assert main(["geography", "--chi-max", "100000", "--emit", "csv,svg"]) == 1
    assert_pinned("geography_emit_100000.sha256", tmp_path, capsys.readouterr().out)


def _values(values):
    return ",".join(map(str, values))


# The certify benchmark's sweeps: 299, 6 x 64 and 6 x 63 builds.
CERTIFY_SWEEPS = {
    "verify_1_sweep_299.sha256": ("1", "n=2..300"),
    "verify_2_sweep_384.sha256": ("2", f"m=3..8,n={_values(range(2, 129, 2))}"),
    "verify_3_sweep_378.sha256": ("3", f"m=2..7,n={_values(range(4, 129, 2))}"),
}


@pytest.mark.parametrize("pinned", sorted(CERTIFY_SWEEPS))
def test_certify_sweeps_match_pinned_digests(pinned, capsys, monkeypatch, tmp_path):
    # Every report line and JSON record of the benchmark's sweeps, pinned
    # before the builder and the printer moved onto plain integers; CI checks
    # the 10,000-build sweeps' stdout and JSON the same way.
    theorem, spec = CERTIFY_SWEEPS[pinned]
    monkeypatch.chdir(tmp_path)
    assert main(["verify-theorem", theorem, "--sweep", spec, "--json", "reports.json"]) == 0
    assert_pinned(pinned, tmp_path, capsys.readouterr().out)


def test_claims_match_pinned_digests(capsys, monkeypatch, tmp_path):
    # The claims' counts and details at chi <= 10^8, far past the golden
    # bounds; CI checks the stdout pinned at chi <= 10^10 the same way.
    monkeypatch.chdir(tmp_path)
    assert main(["geography", "--chi-max", "100000000", "--claims", "--emit", "json"]) == 1
    assert_pinned("geography_claims_100000000.sha256", tmp_path, capsys.readouterr().out)
