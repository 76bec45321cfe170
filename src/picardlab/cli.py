"""Command-line front end for the certification pipelines, the geography
reports and the figure emitters.

Exit codes are a stable contract: 0 success, 1 certification or I/O
failure, 2 usage error.  Human-readable tables go to standard output;
machine formats are written only on request via --emit / --json.  All
output is deterministic for fixed flags.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from itertools import product, starmap
from pathlib import Path

from . import __version__
from .constructions import MAX_SWEEP_BUILDS, THEOREMS, ConstructionReport, ParameterError, build
from .covers import BidoubleCoverData
from .curves import DegenerateGermError, classify, seed_certificate
from .figures import csv_lines, svg_lines
from .geography import (
    SET_LABELS,
    pair_runs,
    refuse_unprintable,
    set_relations_report,
    slope_limit_report,
)
from .polynomials import PointOffCurveError, PolyParseError, parse_local_poly, parse_ternary_form

USAGE_ERROR = 2
FAILURE = 1
DEFAULT_CHI_MAX = 10_000
# The claims add up the lengths of about sqrt(chi_max) lines' ranges of m,
# made one at a time, and walk T's members: about 0.15 s and 16 MB at 10^10
# (Python 3.11, 2 vCPUs), for --claims and --emit json alike.
MAX_CHI_MAX = 10**10
# --emit csv and svg write a row and a marker per pair, about 0.8 per chi
# value: at 10^7 a 388 MB sets.csv and a 695 MB figure.svg in about 28 s at
# a peak of 19 MB (same host); at 10^10 it would be over a terabyte.
MAX_EMIT_CHI_MAX = 10**7
# Fraction computes 10**exponent for a number like 1e-k, 9 s at k = 10^7.
# Past twice the 4,300 digits str() converts, no k gives a printable one.
MAX_THRESHOLD_EXPONENT = 10_000


class UsageError(ValueError):
    pass


def _default_chi_max() -> int:
    raw = os.environ.get("PICARDLAB_CHI_MAX")
    if raw is None:
        return DEFAULT_CHI_MAX
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"PICARDLAB_CHI_MAX must be an integer, got {raw!r}") from None


def _parse_sweep(spec: str) -> dict[str, list[int]]:
    """Parse a sweep like 'm=2..8,n=4,6,8' into {'m': [...], 'n': [...]},
    the distinct values in increasing order.  Ranges must be nonempty.
    Neither a parameter's values nor the (m, n) combinations may exceed
    MAX_SWEEP_BUILDS; a range is checked before it is added."""
    out: dict[str, set[int]] = {}
    current: str | None = None
    for token in spec.split(","):
        token = token.strip()
        if "=" in token:
            key, _, token = token.partition("=")
            key = key.strip()
            if key not in ("m", "n"):
                raise UsageError(f"unknown sweep parameter {key!r}")
            if key in out:
                raise UsageError(f"sweep parameter {key!r} given twice")
            out[key] = set()
            current = key
        if current is None:
            raise UsageError("sweep must start with m=... or n=...")
        token = token.strip()
        if not token:
            raise UsageError("empty value in sweep")
        lo_text, dots, hi_text = token.partition("..")
        try:
            lo = int(lo_text)
            hi = int(hi_text) if dots else lo
        except ValueError:
            raise UsageError(f"bad sweep value {token!r}") from None
        if hi < lo:
            raise UsageError(f"empty sweep range {token!r}")
        if hi - lo < MAX_SWEEP_BUILDS:
            out[current].update(range(lo, hi + 1))
        if hi - lo >= MAX_SWEEP_BUILDS or len(out[current]) > MAX_SWEEP_BUILDS:
            raise UsageError(
                f"sweep parameter {current!r} takes more than {MAX_SWEEP_BUILDS} values"
            )
    combinations = math.prod(len(values) for values in out.values())
    if combinations > MAX_SWEEP_BUILDS:
        raise UsageError(
            f"the sweep has {combinations} parameter combinations, "
            f"more than {MAX_SWEEP_BUILDS}"
        )
    return {key: sorted(values) for key, values in out.items()}


def _read_fraction(text: str, flag: str) -> Fraction:
    """text read by Fraction, after refusing an exponent of more than
    MAX_THRESHOLD_EXPONENT in size, whose power of 10 Fraction would expand."""
    try:
        exponent = int(text.lower().partition("e")[2] or 0)
    except ValueError:
        exponent = 0  # Fraction refuses the text
    if abs(exponent) > MAX_THRESHOLD_EXPONENT:
        raise UsageError(f"{flag} exponent must be at most {MAX_THRESHOLD_EXPONENT} in size")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad {flag} value {text!r}") from None


def _print_report(report: ConstructionReport) -> None:
    """Write the report's seven lines to stdout in one piece."""
    yn = {True: "yes", False: "NO"}
    data, inv, (K2, chi) = report.building_data, report.computed, report.closed_form
    if isinstance(data, BidoubleCoverData):
        classes = (
            f"B1 = {data.B1}, B2 = {data.B2}, B3 = {data.B3};"
            f" L1 = {data.L1}, L2 = {data.L2}, L3 = {data.L3}"
        )
    else:
        classes = f"B = {data.B}; L = {data.L}"
    sys.stdout.write(
        f"theorem {report.theorem}  {report.params_str()}  (base {report.base})\n"
        f"  building data: {classes}\n"
        f"  K2 = {inv.K2} (closed form {K2})   chi = {inv.chi} (closed form {chi})"
        f"   match: {yn[report.match]}\n"
        f"  p_g = {inv.p_g}   q = {inv.q}   h11 = {inv.h11}\n"
        f"  branch singularities: {report.branch_inventory}\n"
        f"  cover singularities:  {report.cover_inventory}\n"
        f"  canonical class ample: {yn[report.ample]}"
        f"   picard lower bound = {report.picard_lower}"
        f" ({report.picard_lower - report.n_indep} exceptional curves"
        f" + {report.n_indep} base classes)   maximal: {yn[report.maximal]}\n"
    )


def _cmd_verify_theorem(args: argparse.Namespace) -> int:
    theorem = args.theorem
    family = THEOREMS[theorem]
    names = [p.name for p in family.params]
    if args.sweep:
        if args.n is not None or args.m is not None:
            raise UsageError("give either --sweep or explicit parameters, not both")
        sweep = _parse_sweep(args.sweep)
        if set(sweep) != set(names):
            raise UsageError(
                f"theorem {theorem} sweeps exactly the parameters {sorted(names)}"
            )
        # Each distinct (m, n) once, in increasing order.
        combos = list(product(*(sweep[name] for name in names)))
    else:
        if args.n is None:
            raise UsageError("provide --n (and --m for theorems 2 and 3) or --sweep")
        if "m" in names and args.m is None:
            raise UsageError(f"theorem {theorem} needs --m")
        if "m" not in names and args.m is not None:
            raise UsageError(f"theorem {theorem} takes no --m")
        combos = [tuple(getattr(args, name) for name in names)]
    # The whole sweep is checked before anything is printed or written.
    try:
        for values in combos:
            family.check(*values)
        # A report's largest numbers are K2 and h11 = 10*chi - K2 (q = 0).
        refuse_unprintable(
            (x for K2, chi in starmap(family.pair, combos) for x in (K2, 10 * chi - K2)),
            f"theorem {theorem}",
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    try:
        out = open(args.json, "w", encoding="utf-8") if args.json else None
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return FAILURE
    try:
        failure = _stream_reports(theorem, names, combos, out)
        if out is not None:
            out.close()
    except BaseException as exc:
        # Leave no half-written JSON behind, but remove only a regular file:
        # a device or a symlink given as the path stays.  A failed write is
        # reported like a path that cannot be opened; a closed stdout, by main.
        if out is not None:
            out.close()
            if os.path.isfile(args.json) and not os.path.islink(args.json):
                os.remove(args.json)
        if not isinstance(exc, OSError) or isinstance(exc, BrokenPipeError):
            raise
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return FAILURE
    if out is not None:
        print(f"wrote {args.json}")
    if failure:
        print(failure, file=sys.stderr)
        return FAILURE
    print(f"certified {len(combos)} construction(s)")
    return 0


def _stream_reports(
    theorem: int, names: list[str], combos: list[tuple[int, ...]], out
) -> str | None:
    """Build, print and write one report at a time; return the FAIL line of
    the first report with a false field, if any.  The JSON has the layout of
    json.dumps({"reports": [...]}, indent=2, sort_keys=True)."""
    separator = '{\n  "reports": [\n    '
    failure = None
    for values in combos:
        try:
            report = build(theorem, **dict(zip(names, values)))
        except ParameterError as exc:
            raise UsageError(str(exc)) from None
        _print_report(report)
        if out is not None:
            out.write(separator + report.to_json_text("    "))
            separator = ",\n    "
        if failure is None:
            false = [name for name in ("match", "ample", "maximal") if not getattr(report, name)]
            if false:
                failure = (
                    f"FAIL: field {false[0]} is false for theorem {report.theorem} "
                    f"{report.params_str()}"
                )
    if out is not None:
        out.write("\n  ]\n}\n")
    return failure


def _cmd_geography(args: argparse.Namespace) -> int:
    if args.chi_max is not None:
        chi_max, source = args.chi_max, "--chi-max"
    else:
        chi_max, source = _default_chi_max(), "PICARDLAB_CHI_MAX"
    if chi_max < 3:
        raise UsageError(f"{source} must be at least 3, got {chi_max}")
    if chi_max > MAX_CHI_MAX:
        raise UsageError(f"{source} must be at most {MAX_CHI_MAX}, got {chi_max}")
    labels = [s.strip() for s in args.sets.split(",") if s.strip()]
    for label in labels:
        if label not in SET_LABELS:
            raise UsageError(f"unknown set {label!r} (choose from {','.join(SET_LABELS)})")
    emits = [e.strip().lower() for e in args.emit.split(",") if e.strip()] if args.emit else []
    for emit in emits:
        if emit not in ("csv", "svg", "json"):
            raise UsageError(f"unknown emit format {emit!r} (csv, svg or json)")
    if chi_max > MAX_EMIT_CHI_MAX and {"csv", "svg"} & set(emits):
        raise UsageError(
            f"{source} must be at most {MAX_EMIT_CHI_MAX} to emit csv or svg, got {chi_max}"
        )

    report = set_relations_report(chi_max)
    print(f"set relations within chi <= {chi_max}:")
    for claim in report.claims:
        print(f"  [{claim.status}] {claim.claim_id}")
        if args.claims:
            print(f"      {claim.detail}")

    out_dir = Path(args.out)
    try:
        if emits:
            out_dir.mkdir(parents=True, exist_ok=True)
            runs = pair_runs(labels, chi_max)
        # Each emitter merges the selected sets' sorted runs straight into
        # its file, line by line; the runs are pure, so both read the same.
        for emit, name, lines in (("csv", "sets.csv", csv_lines), ("svg", "figure.svg", svg_lines)):
            if emit in emits:
                with open(out_dir / name, "w", encoding="utf-8") as fh:
                    fh.writelines(lines(runs, chi_max))
                print(f"wrote {out_dir / name}")
        if "json" in emits:
            import json

            (out_dir / "claims.json").write_text(
                json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            print(f"wrote {out_dir / 'claims.json'}")
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return FAILURE

    return 0 if report.all_good else FAILURE


def _cmd_classify(args: argparse.Namespace) -> int:
    chosen = [x for x in (args.curve_n, args.local, args.homogeneous) if x is not None]
    if len(chosen) != 1:
        raise UsageError("choose exactly one of --curve-C, --local, --homogeneous")
    if args.homogeneous is None and (args.point is not None or args.chart is not None):
        raise UsageError("--point and --chart apply only to --homogeneous")
    if args.curve_n is not None:
        try:
            # The certificate's largest number is the Jacobian coefficient n^3.
            refuse_unprintable([args.curve_n**3], "the seed curve certificate")
            certificate = seed_certificate(args.curve_n)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        n = certificate.n
        print(f"curve n={n} (degree {2 * n}): 3 lines x {certificate.points_per_line} points")
        for stage in certificate.stages:
            print(f"  {stage}")
        if not certificate.ok:
            print("failed stages: " + ", ".join(certificate.failures), file=sys.stderr)
            return FAILURE
        print(f"all points certified {certificate.singularity}")
        return 0

    try:
        if args.local is not None:
            germ_poly = parse_local_poly(args.local)
        else:
            form = parse_ternary_form(args.homogeneous)
            if args.point is None:
                raise UsageError("--homogeneous needs --point p0,p1,p2")
            point = tuple(_read_fraction(c.strip(), "--point") for c in args.point.split(","))
            if len(point) != 3:
                raise UsageError("the point needs three coordinates")
            if not any(point):
                raise UsageError("the point must have a nonzero coordinate")
            chart = args.chart
            if chart is None:
                chart = max(i for i in range(3) if point[i] != 0)
            germ_poly = form.localize(point, chart)
    except PolyParseError as exc:
        raise UsageError(f"cannot parse polynomial: {exc}") from None
    except PointOffCurveError as exc:
        print(str(exc), file=sys.stderr)
        return FAILURE
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    try:
        germ = classify(germ_poly)
    except DegenerateGermError as exc:
        print(str(exc), file=sys.stderr)
        return FAILURE
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(str(germ))
    return 0


# The parameter --fix holds -> the parameter the table sweeps, its bound's flag.
_SWEEPS = {"n": ("m", "--m-max"), "m": ("n", "--n-max")}


def _cmd_slopes(args: argparse.Namespace) -> int:
    key, _, value = args.fix.partition("=")
    key = key.strip()
    try:
        fixed_value = int(value)
    except ValueError:
        raise UsageError(f"bad --fix value {args.fix!r}") from None
    threshold = _read_fraction(args.threshold or "1/100", "--threshold")
    if key not in _SWEEPS:
        raise UsageError("--fix expects n=<even> or m=<int>")
    moving, flag = _SWEEPS[key]
    bound = getattr(args, f"{moving}_max")
    if bound is None:
        raise UsageError(f"--fix {key}=... needs {flag}")
    try:
        report = slope_limit_report(
            **{f"fixed_{key}": fixed_value}, sweep_bound=bound, threshold=threshold
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    print(f"slopes of family 2 with {report.fixed[0]} = {report.fixed[1]}:")
    print(f"  {moving:>4}  {'K2':>8}  {'chi':>8}  slope (exact)        identity")
    for row in report.rows:
        print(
            f"  {getattr(row, moving):>4}  {row.K2:>8}  {row.chi:>8}  "
            f"{str(row.mu):>14} ~ {float(row.mu):.5f}  {'ok' if row.identity_ok else 'BAD'}"
        )
    print(f"  closed-form slope identity (symbolic): {'ok' if report.symbolic_identity else 'BAD'}")
    print(f"  limit: {report.limit} ~ {float(report.limit):.5f}")
    print(
        f"  gap at the largest parameter: {report.final_gap} "
        f"({'below' if report.within_threshold else 'NOT below'} threshold {report.threshold})"
    )
    ok = report.all_identities_hold and report.symbolic_identity
    return 0 if ok else FAILURE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="picardlab",
        description=(
            "Exact-arithmetic certification of branched-cover surface "
            "constructions and their invariant geography."
        ),
    )
    parser.add_argument("--version", action="version", version=f"picardlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    vt = sub.add_parser("verify-theorem", help="run one family pipeline and certify it")
    vt.add_argument("theorem", type=int, choices=sorted(THEOREMS))
    vt.add_argument("--n", type=int, default=None)
    vt.add_argument("--m", type=int, default=None)
    vt.add_argument("--sweep", type=str, default=None, help="e.g. m=2..8,n=4,6,8")
    vt.add_argument("--json", type=str, default=None, help="write reports as JSON here")
    vt.set_defaults(func=_cmd_verify_theorem)

    geo = sub.add_parser("geography", help="set relations, tables and the figure")
    geo.add_argument("--chi-max", type=int, default=None, dest="chi_max")
    geo.add_argument("--sets", type=str, default=",".join(SET_LABELS))
    geo.add_argument("--emit", type=str, default="", help="comma list of csv,svg,json")
    geo.add_argument("--out", type=str, default=".", help="output directory")
    geo.add_argument("--claims", action="store_true", help="print claim details")
    geo.set_defaults(func=_cmd_geography)

    cl = sub.add_parser("classify", help="classify curve germs")
    cl.add_argument("--curve-C", type=int, default=None, dest="curve_n", metavar="N")
    cl.add_argument("--local", type=str, default=None, help="bivariate polynomial in x, y")
    cl.add_argument(
        "--homogeneous", type=str, default=None, help="ternary form in X0, X1, X2"
    )
    cl.add_argument("--point", type=str, default=None, help="p0,p1,p2")
    cl.add_argument("--chart", type=int, choices=(0, 1, 2), default=None)
    cl.set_defaults(func=_cmd_classify)

    sl = sub.add_parser("slopes", help="exact slope tables and Severi-line limits")
    sl.add_argument("--fix", type=str, required=True, help="n=<even> or m=<int>")
    sl.add_argument("--m-max", type=int, default=None, dest="m_max")
    sl.add_argument("--n-max", type=int, default=None, dest="n_max")
    sl.add_argument("--threshold", type=str, default=None, help="rational, e.g. 1/100")
    sl.set_defaults(func=_cmd_slopes)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError as exc:
        # The reader of stdout has gone.  Python flushes stdout again at exit,
        # so it is pointed at devnull, as the Python docs advise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return FAILURE


if __name__ == "__main__":
    sys.exit(main())
