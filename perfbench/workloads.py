"""The four workloads: fixed lists of picardlab CLI invocations.

Each workload stresses different layers, so that a change to one layer has a
workload that exercises it and others on which the prediction is no change:

  geo-claims  geography relations only (enumerate the five sets once and
              hold every pair); figures does no work.
  geo-emit    relations plus the CSV/SVG/JSON emitters, which re-enumerate
              every set (15 enumerate_set calls for 5 sets).
  certify     the three family pipelines (constructions, covers,
              singularities, surfaces, and curves through seed_curve);
              geography does no work.
  germs       the polynomial core and germ classification: the seed-curve lab
              plus seeded forms with a planted A_k point.

Only the germ forms depend on the seed; the other inputs are fixed sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import oracles
from germs import make_germs
from oracles import Geography, Output

GEO_CLAIMS_CHI_MAX = 300_000
GEO_EMIT_CHI_MAX = 100_000
CURVE_N = 8
# (theorem, m values or None, n values) for the certify sweeps.
CERTIFY_SWEEPS = (
    (1, None, list(range(2, 301))),
    (2, list(range(3, 9)), list(range(2, 129, 2))),
    (3, list(range(2, 8)), list(range(4, 129, 2))),
)


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments, the files it writes into the output
    directory, the oracle for its output and the corruptions the self-test
    feeds that oracle."""

    argv: tuple[str, ...]
    files: tuple[str, ...]
    check: Callable[[Output], list[str]]
    corruptions: tuple[Callable[[Output], Output], ...]


def _sweep_arg(name: str, values: list[int]) -> str:
    return f"{name}=" + ",".join(map(str, values))


def geo_claims(seed: int, out_dir: str) -> tuple[list[Invocation], dict]:
    geo = Geography.at(GEO_CLAIMS_CHI_MAX, with_rows=False)
    inv = Invocation(
        ("geography", "--chi-max", str(GEO_CLAIMS_CHI_MAX), "--claims"),
        (),
        lambda out: oracles.check_geography(out, geo),
        (oracles.exit_zero,),
    )
    return [inv], {"chi_max": GEO_CLAIMS_CHI_MAX}


def geo_emit(seed: int, out_dir: str) -> tuple[list[Invocation], dict]:
    geo = Geography.at(GEO_EMIT_CHI_MAX, with_rows=True)
    inv = Invocation(
        ("geography", "--chi-max", str(GEO_EMIT_CHI_MAX), "--claims",
         "--emit", "csv,svg,json", "--out", out_dir),
        ("sets.csv", "figure.svg", "claims.json"),
        lambda out: oracles.check_emitted(out, geo),
        (oracles.drop_csv_row, oracles.exit_zero),
    )
    return [inv], {"chi_max": GEO_EMIT_CHI_MAX, "pairs": sum(geo.rows.values())}


def certify(seed: int, out_dir: str) -> tuple[list[Invocation], dict]:
    invocations = []
    builds = 0
    for theorem, ms, ns in CERTIFY_SWEEPS:
        name = f"theorem{theorem}.json"
        sweep = _sweep_arg("n", ns) if ms is None else _sweep_arg("m", ms) + "," + _sweep_arg("n", ns)
        combos = [(None, n) for n in ns] if ms is None else [(m, n) for m in ms for n in ns]
        builds += len(combos)
        invocations.append(
            Invocation(
                ("verify-theorem", str(theorem), "--sweep", sweep, "--json", f"{out_dir}/{name}"),
                (name,),
                lambda out, t=theorem, c=combos, p=name: oracles.check_certify(out, t, c, p),
                (oracles.not_maximal(name),),
            )
        )
    return invocations, {"builds": builds}


def germs(seed: int, out_dir: str) -> tuple[list[Invocation], dict]:
    invocations = [
        Invocation(
            ("classify", "--curve-C", str(CURVE_N)),
            (),
            lambda out: oracles.check_curve(out, CURVE_N),
            (oracles.wrong_ak,),
        )
    ]
    forms = make_germs(seed)
    for germ in forms:
        invocations.append(
            Invocation(
                # The '=' form keeps argparse from reading a leading '-' as an option.
                ("classify", f"--homogeneous={germ.form}", f"--point={germ.point}", "--chart", "2"),
                (),
                lambda out, e=germ.expected: oracles.check_germ(out, e),
                (oracles.wrong_ak,),
            )
        )
    inputs = {
        "curve_n": CURVE_N,
        "forms": [
            {"k": g.k, "degree": g.degree, "terms": g.terms, "bytes": len(g.form), "point": g.point}
            for g in forms
        ],
    }
    return invocations, inputs


WORKLOADS = {
    "geo-claims": geo_claims,
    "geo-emit": geo_emit,
    "certify": certify,
    "germs": germs,
}

# Per-layer metrics that each workload must leave at zero: the layers it is
# predicted not to reach.  The traced run checks them.
_GEOGRAPHY = (
    "geography.enumerate_set.calls", "geography.enumerate_set.s",
    "geography.pairs_enumerated", "geography.enumerate_redundancy",
    "geography.set_relations_report.self_s", "geography.emit_figure.self_s",
)
_FIGURES = ("figures.figure_svg.s", "figures.figure_csv.s", "figures.bytes")
PREDICTED_ZERO = {
    "geo-claims": _FIGURES + ("geography.emit_figure.self_s",),
    "geo-emit": (),
    "certify": _GEOGRAPHY + _FIGURES,
    "germs": _GEOGRAPHY + _FIGURES,
}
