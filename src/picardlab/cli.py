"""Command-line front end for the certification pipelines, the geography
reports and the figure emitters.

Exit codes are a stable contract: 0 success, 1 certification or I/O
failure, 2 usage error.  Human-readable tables go to standard output;
machine formats are written only on request via --emit / --json.  All
output is deterministic for fixed flags.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

from . import __version__
from .constructions import MAX_SWEEP_BUILDS, THEOREMS, ConstructionReport, ParameterError, build
from .covers import BidoubleCoverData
from .curves import (
    DegenerateGermError,
    JetBoundError,
    classify,
    classify_ak,
    seed_certificate,
)
from .figures import figure_csv, figure_svg
from .geography import (
    SET_LABELS,
    enumerate_set,
    set_relations_report,
    slope_limit_report,
)
from .polynomials import PointOffCurveError, PolyParseError, parse_local_poly, parse_ternary_form
from .singularities import resolution_curve_count

USAGE_ERROR = 2
FAILURE = 1
DEFAULT_CHI_MAX = 10_000
# The claims walk about sqrt(chi_max) lines: about 2 s and 45 MB at 10^10.
MAX_CHI_MAX = 10**10


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
    """Parse a sweep like 'm=2..8,n=4,6,8' into {'m': [...], 'n': [...]}.
    Ranges must be nonempty.  Neither a parameter's list nor the number of
    (m, n) combinations may exceed MAX_SWEEP_BUILDS; a range is checked
    before it is added to the list."""
    out: dict[str, list[int]] = {}
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
            out[key] = []
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
        if len(out[current]) + hi - lo + 1 > MAX_SWEEP_BUILDS:
            raise UsageError(
                f"sweep parameter {current!r} takes more than {MAX_SWEEP_BUILDS} values"
            )
        out[current].extend(range(lo, hi + 1))
    combinations = math.prod(len(values) for values in out.values())
    if combinations > MAX_SWEEP_BUILDS:
        raise UsageError(
            f"the sweep has {combinations} parameter combinations, "
            f"more than {MAX_SWEEP_BUILDS}"
        )
    return out


def _print_report(report: ConstructionReport) -> None:
    yn = {True: "yes", False: "NO"}
    print(f"theorem {report.theorem}  {report.params_str()}  (base {report.base})")
    data = report.building_data
    if isinstance(data, BidoubleCoverData):
        print(
            f"  building data: B1 = {data.B1}, B2 = {data.B2}, B3 = {data.B3};"
            f" L1 = {data.L1}, L2 = {data.L2}, L3 = {data.L3}"
        )
    else:
        print(f"  building data: B = {data.B}; L = {data.L}")
    print(
        f"  K2 = {report.computed.K2} (closed form {report.closed_form[0]})"
        f"   chi = {report.computed.chi} (closed form {report.closed_form[1]})"
        f"   match: {yn[report.match]}"
    )
    print(
        f"  p_g = {report.computed.p_g}   q = {report.computed.q}"
        f"   h11 = {report.computed.h11}"
    )
    print(f"  branch singularities: {report.branch_inventory}")
    print(f"  cover singularities:  {report.cover_inventory}")
    curves = resolution_curve_count(report.cover_inventory)
    print(
        f"  canonical class ample: {yn[report.ample]}"
        f"   picard lower bound = {report.picard_lower}"
        f" ({curves} exceptional curves + {report.n_indep} base classes)"
        f"   maximal: {yn[report.maximal]}"
    )


def _cmd_verify_theorem(args: argparse.Namespace) -> int:
    theorem = args.theorem
    names = [p.name for p in THEOREMS[theorem].params]
    if args.sweep:
        if args.n is not None or args.m is not None:
            raise UsageError("give either --sweep or explicit parameters, not both")
        sweep = _parse_sweep(args.sweep)
        if set(sweep) != set(names):
            raise UsageError(
                f"theorem {theorem} sweeps exactly the parameters {sorted(names)}"
            )
        combos = [
            dict(zip(names, values))
            for values in sorted(product(*(sweep[name] for name in names)))
        ]
    else:
        if args.n is None:
            raise UsageError("provide --n (and --m for theorems 2 and 3) or --sweep")
        if "m" in names and args.m is None:
            raise UsageError(f"theorem {theorem} needs --m")
        if "m" not in names and args.m is not None:
            raise UsageError(f"theorem {theorem} takes no --m")
        combos = [{name: getattr(args, name) for name in names}]

    try:
        reports = [build(theorem, **combo) for combo in combos]
    except ParameterError as exc:
        raise UsageError(str(exc)) from None

    for report in reports:
        _print_report(report)
    if args.json:
        payload = {"reports": [r.to_json() for r in reports]}
        Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.json}")

    for report in reports:
        for name in ("match", "ample", "maximal"):
            if not getattr(report, name):
                print(
                    f"FAIL: field {name} is false for theorem {report.theorem} "
                    f"{report.params_str()}",
                    file=sys.stderr,
                )
                return FAILURE
    print(f"certified {len(reports)} construction(s)")
    return 0


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

    report = set_relations_report(chi_max)
    print(f"set relations within chi <= {chi_max}:")
    for claim in report.claims:
        print(f"  [{claim.status}] {claim.claim_id}")
        if args.claims:
            print(f"      {claim.detail}")

    # Both emitters draw on one enumeration of each selected set.
    pairs_by_set = (
        {label: enumerate_set(label, chi_max) for label in labels}
        if "csv" in emits or "svg" in emits
        else {}
    )
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if "csv" in emits:
            (out_dir / "sets.csv").write_text(figure_csv(pairs_by_set), encoding="utf-8")
            print(f"wrote {out_dir / 'sets.csv'}")
        if "svg" in emits:
            (out_dir / "figure.svg").write_text(
                figure_svg(pairs_by_set, chi_max), encoding="utf-8"
            )
            print(f"wrote {out_dir / 'figure.svg'}")
        if "json" in emits:
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
    if args.curve_n is not None:
        try:
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
            try:
                point = tuple(Fraction(c.strip()) for c in args.point.split(","))
            except (ValueError, ZeroDivisionError):
                raise UsageError(f"bad point {args.point!r}") from None
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

    if germ_poly.constant_term != 0:
        raise UsageError("the polynomial must vanish at the origin")
    try:
        if args.jet_bound is not None:
            germ = classify_ak(germ_poly, args.jet_bound)  # fixed bound, no retries
        else:
            germ = classify(germ_poly, expected_k=args.expected_k)
    except (DegenerateGermError, JetBoundError) as exc:
        print(str(exc), file=sys.stderr)
        return FAILURE
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(str(germ))
    return 0


def _cmd_slopes(args: argparse.Namespace) -> int:
    key, _, value = args.fix.partition("=")
    key = key.strip()
    try:
        fixed_value = int(value)
    except ValueError:
        raise UsageError(f"bad --fix value {args.fix!r}") from None
    try:
        threshold = Fraction(args.threshold) if args.threshold else Fraction(1, 100)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad --threshold value {args.threshold!r}") from None
    try:
        if key == "n":
            if args.m_max is None:
                raise UsageError("--fix n=... needs --m-max")
            report = slope_limit_report(
                fixed_n=fixed_value, sweep_bound=args.m_max, threshold=threshold
            )
            moving = "m"
        elif key == "m":
            if args.n_max is None:
                raise UsageError("--fix m=... needs --n-max")
            report = slope_limit_report(
                fixed_m=fixed_value, sweep_bound=args.n_max, threshold=threshold
            )
            moving = "n"
        else:
            raise UsageError("--fix expects n=<even> or m=<int>")
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    print(f"slopes of family 2 with {report.fixed[0]} = {report.fixed[1]}:")
    print(f"  {moving:>4}  {'K2':>8}  {'chi':>8}  slope (exact)        identity")
    for row in report.rows:
        varying = row.m if moving == "m" else row.n
        print(
            f"  {varying:>4}  {row.K2:>8}  {row.chi:>8}  "
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
    cl.add_argument("--expected-k", type=int, default=None, dest="expected_k")
    cl.add_argument(
        "--jet-bound", type=int, default=None, dest="jet_bound",
        help="fix the truncation degree instead of the doubling search",
    )
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
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
