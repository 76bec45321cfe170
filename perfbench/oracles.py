"""Semantic output checks that do not depend on picardlab.

The expected values come from the families' closed forms, written out here
again on purpose: an oracle that called into picardlab would share its bugs.
Each check returns a list of problems; an empty list means the output is
correct.  Checks read outputs by meaning (claim ids and statuses, CSV columns
by header name, SVG marker attributes, JSON fields), never by byte hash, so a
compatible extension of an output format does not read as a failure.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections import Counter
from dataclasses import dataclass, field, replace

REFUTED = "refuted_within_bound"
VERIFIED = "verified"
DISJOINTNESS = (("A1", "B"), ("A2", "B"), ("A3", "B"), ("A1", "A2"), ("A1", "A3"))
# The paper's erratum that the package itself finds: A3 and B share this pair.
A3_B_WITNESS = (128, 46)
SET_LABELS = ("A1", "A2", "A3", "B", "T")


@dataclass(frozen=True)
class Output:
    """What one picardlab invocation left behind."""

    returncode: int
    stdout: str
    files: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Closed forms, (K2, chi) as functions of the family parameters.


def family_pair(theorem: int, m: int | None, n: int) -> tuple[int, int]:
    if theorem == 1:
        return (4 * n * n - 12 * n + 9, n * n - n + 1)
    if theorem == 2:
        return (4 * m * n * n - 4 * (m + 2) * n + 8, m * n * n - n + 1)
    return (2 * m * n * n - 4 * (m + 1) * n + 8, m * n * (n - 1) // 2 + 1)


def _one_parameter(pair, start: int, step: int, chi_max: int) -> list[tuple[int, int]]:
    out = []
    p = start
    while pair(p)[1] <= chi_max:
        out.append(pair(p))
        p += step
    return out


def _two_parameter(theorem: int, m0: int, n0: int, chi_max: int) -> list[tuple[int, int]]:
    out = []
    n = n0
    while family_pair(theorem, m0, n)[1] <= chi_max:
        out.extend(_one_parameter(lambda m: family_pair(theorem, m, n), m0, 1, chi_max))
        n += 2
    return out


def enumerate_pairs(label: str, chi_max: int) -> list[tuple[int, int]]:
    """Every (K2, chi) of the labeled set with chi <= chi_max, with repeats."""
    if label == "A1":
        return _one_parameter(lambda n: family_pair(1, None, n), 2, 1, chi_max)
    if label == "A2":
        return _two_parameter(2, 3, 2, chi_max)
    if label == "A3":
        return _two_parameter(3, 2, 4, chi_max)
    if label == "B":
        return _one_parameter(
            lambda n: (2 * (n - 3) ** 2, (n - 1) * (n - 2) // 2 + 1), 4, 1, chi_max
        )
    return _one_parameter(
        lambda t: (2 * t * (t - 1) * (t - 4) + 8, t * (t - 1) * (t - 3) // 2 + 1), 6, 2, chi_max
    )


@dataclass(frozen=True)
class Geography:
    """Expected geography facts for one bound."""

    chi_max: int
    overlapping: frozenset  # disjointness claims that the bound refutes
    rows: Counter  # (label, K2, chi) -> multiplicity, for the CSV and SVG checks

    @classmethod
    def at(cls, chi_max: int, with_rows: bool) -> "Geography":
        pairs = {label: enumerate_pairs(label, chi_max) for label in SET_LABELS}
        values = {label: set(p) for label, p in pairs.items()}
        overlapping = frozenset(
            f"{a}-disjoint-{b}" for a, b in DISJOINTNESS if values[a] & values[b]
        )
        rows = Counter()
        if with_rows:
            for label, ps in pairs.items():
                rows.update((label, k2, chi) for k2, chi in ps)
        return cls(chi_max, overlapping, rows)


# ---------------------------------------------------------------------------
# Checks.

_CLAIM_LINE = re.compile(r"^\s*\[([a-z_]+)\]\s+(\S+)\s*$")


def _claims_from_stdout(stdout: str) -> dict[str, tuple[str, str]]:
    """claim id -> (status, the detail line that follows, or '')."""
    lines = stdout.splitlines()
    out = {}
    for i, line in enumerate(lines):
        match = _CLAIM_LINE.match(line)
        if match:
            detail = lines[i + 1] if i + 1 < len(lines) else ""
            out[match.group(2)] = (match.group(1), detail)
    return out


def check_geography(out: Output, geo: Geography) -> list[str]:
    """Exit 1 by design; each disjointness claim refuted exactly when the
    closed forms overlap, and A3/B refuted with the witness (128, 46)."""
    problems = []
    if out.returncode != 1:
        problems.append(f"geography exited {out.returncode}, expected 1 (A3/B is refuted)")
    claims = _claims_from_stdout(out.stdout)
    for a, b in DISJOINTNESS:
        cid = f"{a}-disjoint-{b}"
        expected = REFUTED if cid in geo.overlapping else VERIFIED
        status = claims.get(cid, ("missing", ""))[0]
        if status != expected:
            problems.append(f"claim {cid} is {status}, expected {expected}")
    detail = claims.get("A3-disjoint-B", ("", ""))[1]
    if "(%d, %d)" % A3_B_WITNESS not in detail:
        problems.append(f"A3-disjoint-B detail lacks the witness {A3_B_WITNESS}: {detail!r}")
    return problems


def check_emitted(out: Output, geo: Geography) -> list[str]:
    """sets.csv and figure.svg hold exactly the enumerated pairs, and
    claims.json carries the A3/B refutation with its witness."""
    problems = check_geography(out, geo)
    rows = Counter()
    for row in csv.DictReader(io.StringIO(out.files.get("sets.csv", ""))):
        rows[(row["set_label"], int(row["K2"]), int(row["chi"]))] += 1
    if rows != geo.rows:
        missing = sum((geo.rows - rows).values())
        extra = sum((rows - geo.rows).values())
        problems.append(f"sets.csv: {missing} expected rows missing, {extra} unexpected")
    markers = Counter(re.findall(r'data-set="([^"]+)"', out.files.get("figure.svg", "")))
    expected_markers = Counter()
    for (label, _k2, _chi), count in geo.rows.items():
        expected_markers[label] += count
    if markers != expected_markers:
        problems.append(f"figure.svg markers {dict(markers)} != {dict(expected_markers)}")
    try:
        claims = {c["claim_id"]: c for c in json.loads(out.files.get("claims.json", ""))["claims"]}
        a3b = claims["A3-disjoint-B"]
        if a3b["status"] != REFUTED or list(A3_B_WITNESS) not in a3b["witnesses"]:
            problems.append(f"claims.json A3-disjoint-B is {a3b['status']} with {a3b['witnesses'][:3]}")
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"claims.json unreadable: {exc!r}")
    return problems


def check_certify(out: Output, theorem: int, combos: list[tuple[int | None, int]], path: str) -> list[str]:
    """Exit 0, one report per requested (m, n), each with match, ample and
    maximal true and (K2, chi) equal to the closed form."""
    problems = []
    if out.returncode != 0:
        problems.append(f"verify-theorem {theorem} exited {out.returncode}")
    try:
        reports = json.loads(out.files.get(path, ""))["reports"]
    except (ValueError, KeyError) as exc:
        return problems + [f"{path} unreadable: {exc!r}"]
    seen = []
    for r in reports:
        params = r.get("params", {})
        m, n = params.get("m"), params.get("n")
        seen.append((m, n))
        for flag in ("match", "ample", "maximal"):
            if r.get(flag) is not True:
                problems.append(f"theorem {theorem} m={m} n={n}: {flag} is {r.get(flag)}")
        computed = r.get("computed", {})
        if (computed.get("K2"), computed.get("chi")) != family_pair(theorem, m, n):
            problems.append(
                f"theorem {theorem} m={m} n={n}: (K2, chi) = "
                f"({computed.get('K2')}, {computed.get('chi')}) != {family_pair(theorem, m, n)}"
            )
    if sorted(seen, key=repr) != sorted(combos, key=repr):
        problems.append(f"theorem {theorem}: {len(seen)} reports for {len(combos)} parameter choices")
    return problems


def _last_line(text: str) -> str:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    return lines[-1] if lines else ""


def check_germ(out: Output, expected: str) -> list[str]:
    problems = []
    if out.returncode != 0:
        problems.append(f"classify exited {out.returncode}")
    if _last_line(out.stdout) != expected:
        problems.append(f"classify printed {_last_line(out.stdout)!r}, planted {expected}")
    return problems


def check_curve(out: Output, n: int) -> list[str]:
    expected = f"all points certified A{n - 1}"
    problems = []
    if out.returncode != 0:
        problems.append(f"classify --curve-C {n} exited {out.returncode}")
    if _last_line(out.stdout) != expected:
        problems.append(f"classify --curve-C {n} printed {_last_line(out.stdout)!r}")
    return problems


# ---------------------------------------------------------------------------
# Corruptions for the self-test: each must make its oracle report a problem.


def exit_zero(out: Output) -> Output:
    return replace(out, returncode=0)


def drop_csv_row(out: Output) -> Output:
    lines = out.files["sets.csv"].splitlines(keepends=True)
    return replace(out, files={**out.files, "sets.csv": "".join(lines[:-1])})


def wrong_ak(out: Output) -> Output:
    def bump(match: re.Match) -> str:
        return f"A{int(match.group(1)) + 1}"

    lines = out.stdout.rstrip("\n").splitlines()
    lines[-1] = re.sub(r"A(\d+)", bump, lines[-1])
    return replace(out, stdout="\n".join(lines) + "\n")


def not_maximal(path: str):
    def not_maximal(out: Output) -> Output:
        doc = json.loads(out.files[path])
        doc["reports"][len(doc["reports"]) // 2]["maximal"] = False
        return replace(out, files={**out.files, path: json.dumps(doc)})

    return not_maximal
