"""Invariant-pair geography: the five enumerable families, exact slopes and
their Severi-line limits, the set-relation certificates, and the figure
and table emitters.

The five families are the records of constructions.FAMILIES, by label: A1,
A2 and A3 (families 1-3), the classical double planes B, kept for
disjointness checks, and the overlap-witness family T.  Each record gives
the parameter domain, the closed-form pair and, for A2 and A3, the
membership solver.  The few family constants kept here are each checked
against FAMILIES by an identity: the roots of _B_ROOTS, T's witness
substitutions _T_WITNESS, family 2's slope _mu_closed_form (row by row; its
limits are read off the pair) and A2's Noether slice (8m - 8, 4m - 1).

The set relations are computed from the closed forms, without enumerating a
pair.  Every verdict, for every chi, rests on one table of named identities
in the family parameters (_identities), checked once per process: claim i)
and its parity ingredients, T inside A3 and A2, family 2's gap to the Severi
line, that A2 and A3 share no pair, that each meets every doubling
chi-window, and where each meets the Noether line.  B shares exactly one
pair, (128, 46), with A3.  A2 and A3 lie on lines, one per n, on which K2
and chi are affine in m; each line is read off the family's pair at m = 0
and m = 1 (_lines gives its n, its coefficients and its range of m).  The
member counts add up the lengths of those ranges, so their time grows with
the number of lines, not of pairs, and no record is made per line; only T,
with O(sqrt(chi_max)) members, is walked one by one, for the T-in-A2 audit.

The figure and table emitters read the same members and lines as sorted
runs (pair_runs), one record type for both: a run holds the varying
parameter, chi and K2 as parallel sequences in strictly increasing chi,
lists for a one-parameter family and ranges for an A2/A3 line, so a line
lists no pair.  figures asks them for the rows of one chi window at a time
and sorts each window's batch, so the emitters' time grows with the number
of pairs and their memory with the number of lines.  enumerate_set sorts
every member of one family's runs into a list of GeoPairs for library
callers and tests.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections import namedtuple
from functools import cache
from fractions import Fraction
from math import gcd, prod
from typing import Iterable, Iterator, Optional, Sequence

from .constructions import FAMILIES, MAX_SWEEP_BUILDS
from .figures import Run, figure_csv, figure_svg
from .polynomials import Poly, at_least, domain_variables, multiple_of
from .surfaces import half

SET_LABELS = tuple(FAMILIES)
# The least chi bound the set relations accept.
MIN_CHI_MAX = 3


class GeoPair(namedtuple("GeoPair", "chi K2 set_label params")):
    """One invariant pair with its provenance parameters, params holding
    (name, value) pairs; pairs order by (chi, K2, set_label, params)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(
        cls, chi: int, K2: int, set_label: str, params: tuple[tuple[str, int], ...]
    ) -> "GeoPair":
        if chi < 1 or K2 < 1:
            raise ValueError(f"invariant pairs must be strictly positive, got ({K2}, {chi})")
        return super().__new__(cls, chi, K2, set_label, params)

    @property
    def value(self) -> tuple[int, int]:
        return (self.K2, self.chi)


def enumerate_set(which: str, chi_max: int) -> list[GeoPair]:
    """All pairs of the labeled family with chi <= chi_max, sorted by
    (chi, K2, parameters), read from its runs."""
    (runs,) = pair_runs([which], chi_max).values()
    name, *fixed = (p.name for p in FAMILIES[which].params)
    pairs = []
    for run in runs:
        rest = tuple((f, run.n) for f in fixed)
        pairs += [(c, k, ((name, p), *rest)) for p, c, k in zip(run.params, run.chis, run.k2s)]
    pairs.sort()
    return [GeoPair(chi, k2, which, params) for chi, k2, params in pairs]


# ---------------------------------------------------------------------------
# Severi-line convergence for family 2.


class SlopeRow(namedtuple("SlopeRow", "m n K2 chi mu identity_ok")):
    """One member of family 2 with its exact slope mu = K2/chi."""

    __slots__ = ()


class SlopeLimitReport(
    namedtuple(
        "SlopeLimitReport",
        "fixed rows limit symbolic_identity final_gap threshold within_threshold",
    )
):
    """Exact slope table for family 2 with one parameter fixed, as the
    pair fixed = (name, value), the other parameter sweeping its domain.

    limit is the ratio of the leading coefficients of K2 and chi in the
    sweeping parameter, read off the family's pair: 4 - 4/n for fixed n, 4
    for fixed m.  identity_ok certifies, row by row, the exact closed form
    mu = 4 + 4*(1 - n - m*n) / (1 - n + m*n^2); symbolic_identity is the
    same identity, A2-slope-gap of _identities, as a polynomial identity in
    (m, n).  final_gap is |mu - limit| in the last row.
    """

    __slots__ = ()

    @property
    def all_identities_hold(self) -> bool:
        return all(row.identity_ok for row in self.rows)


def _mu_closed_form(m, n):
    return 4 + Fraction(4) * (1 - n - m * n) / (1 - n + m * n * n)


def refuse_unprintable(numbers: Iterable[int], what: str) -> None:
    """Raise ValueError for numbers with more digits than str() converts (a
    limit of 0, or a Python before 3.10.7, converts any)."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and max(map(abs, numbers)) >= 10**limit:
        raise ValueError(f"{what} would print a number of more than {limit} digits")


def slope_limit_report(
    *,
    fixed_n: Optional[int] = None,
    fixed_m: Optional[int] = None,
    sweep_bound: int,
    threshold: Fraction = Fraction(1, 100),
) -> SlopeLimitReport:
    """Slope table and convergence evidence for family 2, one parameter fixed.
    A table of more than MAX_SWEEP_BUILDS rows, a threshold that is not a
    positive int or Fraction, a sweep_bound that is not an int, or a table
    that would print a number longer than str() converts, is refused before
    any row is built."""
    if (fixed_n is None) == (fixed_m is None):
        raise ValueError("fix exactly one of n or m")
    if not isinstance(threshold, (int, Fraction)):
        raise ValueError(f"threshold must be an int or a Fraction, got {threshold!r}")
    if not isinstance(sweep_bound, int):
        raise ValueError(f"sweep_bound must be an int, got {sweep_bound!r}")
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    a2 = FAMILIES["A2"]
    name, value = fixed = ("n", fixed_n) if fixed_m is None else ("m", fixed_m)
    held, moved = sorted(a2.params, key=lambda p: p.name != name)
    if not held.admits(value):
        raise ValueError(f"fixed {name} must be{held.domain}, got {value}")
    moving = range(moved.minimum, sweep_bound + 1, moved.step)

    def at(x) -> list:  # A2's parameters, the moving one at x
        return [value if p is held else x for p in a2.params]

    k2, chi = a2.pair(*at(Poly.variable(0, 1)))
    top = (chi.degree(),)
    limit = Fraction(k2.coefficient(top), chi.coefficient(top))
    if not moving:
        raise ValueError("empty sweep range")
    # Not len(moving): it overflows past sys.maxsize.
    if moving[MAX_SWEEP_BUILDS:]:
        raise ValueError(f"the sweep has more than {MAX_SWEEP_BUILDS} rows")

    def row(x: int) -> SlopeRow:
        m, n = at(x)
        k2, chi = a2.pair(m, n)
        mu = Fraction(k2, chi)
        return SlopeRow(m, n, k2, chi, mu, mu == _mu_closed_form(m, n))

    # K2 and chi increase along both sweeps, so the last row, the limit, the
    # final gap and the threshold bound every number of the table.
    last = row(moving[-1])
    final_gap = abs(last.mu - limit)
    ratios = (limit, final_gap, threshold)
    refuse_unprintable(
        [last.K2, last.chi, *(x for q in ratios for x in (q.numerator, q.denominator))],
        "the slope table",
    )
    rows = (*map(row, moving[:-1]), last)
    return SlopeLimitReport(
        fixed=fixed,
        rows=rows,
        limit=limit,
        symbolic_identity=_identities()[0]["A2-slope-gap"],
        final_gap=final_gap,
        threshold=threshold,
        within_threshold=final_gap < threshold,
    )


# ---------------------------------------------------------------------------
# Set-relation certificates.

VERIFIED = "verified"
REFUTED = "refuted_within_bound"
RELAXED = "verified_under_relaxed_assumption"


class Claim(namedtuple("Claim", "claim_id status detail witnesses", defaults=((),))):
    """One set-relation claim: its status (VERIFIED, REFUTED or RELAXED), a
    sentence of detail, and the (K2, chi) pairs that witness it."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {**self._asdict(), "witnesses": list(self.witnesses)}


class SetRelationsReport(namedtuple("SetRelationsReport", "bound claims")):
    """The claims, certified for chi <= bound."""

    __slots__ = ()

    def claim(self, claim_id: str) -> Claim:
        for c in self.claims:
            if c.claim_id == claim_id:
                return c
        raise KeyError(claim_id)

    @property
    def all_good(self) -> bool:
        return all(c.status in (VERIFIED, RELAXED) for c in self.claims)

    def to_json(self) -> dict:
        return {"bound": self.bound, "claims": [c.to_json() for c in self.claims]}


class _Run(namedtuple("_Run", "label n params chis k2s head tail")):
    """One set's members within the bound, the emitters' run (figures.Run):
    the parameter that varies, chi and K2 as three parallel sequences in
    strictly increasing chi.  An A2 or A3 line (at n) holds ranges, as K2
    and chi are affine in m; a one-parameter family (n None) holds lists.
    A member's CSV line is head, its parameter, tail and its numbers."""

    __slots__ = ()

    def _index(self, chi: int) -> int:
        """The number of members with chi below the given chi, counted on a
        line as if its range went on past the last member: the length of a
        range, which is arithmetic, or bisect_left on a list (on a range it
        would make an int per probe)."""
        chis = self.chis
        if type(chis) is range:
            return len(range(chis.start, chi, chis.step))
        return bisect_left(chis, chi)

    def _window(self, lo: int, hi: int) -> slice:
        """The members with lo <= chi <= hi."""
        return slice(self._index(lo), self._index(hi + 1))

    def first_chi(self, lo: int) -> Optional[int]:
        chis, i = self.chis, self._index(lo)
        return chis[i] if i < len(chis) else None

    def csv_rows(self, lo: int, hi: int) -> list[tuple[int, int, str]]:
        window, head, tail = self._window(lo, hi), self.head, self.tail
        return [
            (chi, k2, f"{head}{p}{tail}{k2},{chi},{k2 // (g := gcd(k2, chi))},{chi // g}\n")
            for p, chi, k2 in zip(self.params[window], self.chis[window], self.k2s[window])
        ]

    def points(self, lo: int, hi: int) -> list[tuple[int, int]]:
        window = self._window(lo, hi)
        return list(zip(self.chis[window], self.k2s[window]))


def _member_run(label: str, chi_max: int) -> _Run:
    """A one-parameter family's members within the bound, walked in
    parameter order, which is also chi order."""
    family = FAMILIES[label]
    (param,) = family.params
    params, chis, k2s = [], [], []
    p = param.minimum
    while (value := family.pair(p))[1] <= chi_max:
        params.append(p)
        k2s.append(value[0])
        chis.append(value[1])
        p += param.step
    return _Run(label, None, params, chis, k2s, f"{label},{param.name}=", ",")


def _line_run(label: str, n: int, coefficients: tuple, ms: range) -> _Run:
    """The members of the family's line at n, with m in ms."""
    k2_step, k2_0, chi_step, chi_0 = coefficients
    m_name, n_name = (p.name for p in FAMILIES[label].params)
    a, b = ms.start, ms.stop
    chis = range(chi_step * a + chi_0, chi_step * b + chi_0, chi_step)
    k2s = range(k2_step * a + k2_0, k2_step * b + k2_0, k2_step)
    return _Run(label, n, ms, chis, k2s, f"{label},{m_name}=", f" {n_name}={n},")


def _lines(label: str, chi_max: int) -> Iterator[tuple[int, tuple, range]]:
    """(n, line coefficients, m range) of every line of the family with a
    member within the bound, made one at a time, as in _line_coefficients.
    chi at the smallest m grows with n, so the first empty line ends them."""
    family = FAMILIES[label]
    m_param, n_param = family.params
    m_first, n = m_param.minimum, n_param.minimum
    while True:
        coefficients = _line_coefficients(family, n)
        _, _, chi_step, chi_0 = coefficients
        m_last = (chi_max - chi_0) // chi_step
        if m_last < m_first:
            return
        yield n, coefficients, range(m_first, m_last + 1)
        n += n_param.step


def check_sets(labels: Iterable[str], chi_max: int) -> None:
    """Raise ValueError on a label outside SET_LABELS or chi_max < MIN_CHI_MAX."""
    for label in labels:
        if label not in SET_LABELS:
            raise ValueError(f"unknown set {label!r} (choose from {','.join(SET_LABELS)})")
    if chi_max < MIN_CHI_MAX:
        raise ValueError(f"chi_max must be at least {MIN_CHI_MAX}, got {chi_max}")


def pair_runs(labels: Sequence[str], chi_max: int) -> dict[str, list[Run]]:
    """The selected families' pairs with chi <= chi_max as sorted runs, in
    the form figures reads: one run for a one-parameter family, one per
    line for A2 and A3.  Only the O(sqrt(chi_max)) members of the
    one-parameter families are listed; a line's run holds ranges, so no
    line pair is built until a window asks for it."""
    check_sets(labels, chi_max)
    return {
        label: [_member_run(label, chi_max)]
        if len(FAMILIES[label].params) == 1
        else [_line_run(label, *line) for line in _lines(label, chi_max)]
        for label in labels
    }


def _line_coefficients(family, n) -> tuple:
    """(k2_step, k2_0, chi_step, chi_0) of the family's line at n, which may
    be an integer or a Poly: K2 = k2_step*m + k2_0 and chi = chi_step*m + chi_0."""
    (k2_0, chi_0), (k2_1, chi_1) = family.pair(0, n), family.pair(1, n)
    return k2_1 - k2_0, k2_0, chi_1 - chi_0, chi_0


def _first_chi(family) -> int:
    """chi at the parameter minima."""
    return family.pair(*(p.minimum for p in family.params))[1]


# The parameters (m, n) of A3 and A2 at which each family's pair is T's pair
# at t, for an int t or a Poly in t.
_T_WITNESS = {"A3": lambda t: (t - 3, t), "A2": lambda t: (half(t) - 1, t - 1)}

# The roots n(k) of A2's and A3's membership quadratics at B's pair at n = k.
_B_ROOTS = {
    "A2": lambda k: (k - 2, Fraction(1, 2) * (k - 1)),
    "A3": lambda k: (k - 1, Fraction(1, 2) * (k + 1)),
}


def _b_shared(label: str, k: Poly, b_pair: tuple) -> Optional[tuple[tuple[int, int], ...]]:
    """The (K2, chi) that B shares with A2 or A3, for every chi, or None when
    an identity behind them fails; b_pair is B's pair at k = minimum + K.

    The family's membership solver writes N = n*(m + offset) and a quadratic
    in n; both must hold at the family's pair, as polynomials in (m, n).  At
    B's pair the quadratic factors over the roots n(k) of _B_ROOTS, as
    polynomials in (K, n), so every shared pair has n = n(k) and
    m + offset = N/n.  A root keeps m below its minimum when
    (minimum + offset)*n - N is positive for every K.  Otherwise N = q*n + d
    with an integer q and a constant d != 0, so n divides d, and the B pairs
    with n <= |d| are solved one by one."""
    family, set_b = FAMILIES[label], FAMILIES["B"]
    solver, (m_param, _), (k_param,) = family.solve, family.params, set_b.params
    m, n = Poly.variable(0), Poly.variable(1)
    k2, chi = family.pair(m, n)
    N = n * (m + solver.offset)
    a, b, c = solver.quadratic(chi, N)
    if 4 * chi - k2 + 4 != solver.divisor * N or (a * n + b) * n + c != 0:
        return None
    k2, chi = b_pair
    N = Fraction(1, solver.divisor) * (4 * chi - k2 + 4)
    a, b, c = solver.quadratic(chi, N)
    roots = _B_ROOTS[label](k)
    if (a * n + b) * n + c != a * (n - roots[0]) * (n - roots[1]):
        return None
    shared = set()
    for r in roots:
        if not at_least(r, 1):
            return None
        if at_least((m_param.minimum + solver.offset) * r - N, 1):
            continue
        slope = r.coefficient((1, 0))
        if not slope:
            return None
        q = Fraction(N.coefficient((1, 0)), slope)
        d = N - q * r
        if q.denominator != 1 or d.degree() != 0:
            return None
        # m + offset = q + d/n: n = r(K) divides d, so r(K) <= |d|.
        for K in range((abs(d.constant_term) - r.constant_term) // slope + 1):
            value = set_b.pair(k_param.minimum + k_param.step * K)
            if family.members(*value):
                shared.add(value)
    return tuple(sorted(shared))


@cache
def _identities() -> tuple[dict[str, bool], dict[str, tuple[tuple[int, int], ...]]]:
    """Every identity behind the claims of set_relations_report, by name,
    each for every chi; and the pairs that B shares with A2 and A3
    (_b_shared), where their identities hold.

    Most are read off the pairs in shifted parameters (domain_variables),
    where at_least and multiple_of decide them on the whole domain.
    - Parity: K2 is odd on A1 and even on B, A2 and A3, so A1 shares no pair
      with any of them; B's K2 is twice a square.
    - T-in-A3: T's pair is A3's at (m, n) = (t-3, t) (_T_WITNESS), and
      for every t = 6 + 2P of T that (m, n) lies in A3's domain.
    - T-A2-substitution: T's pair is A2's at (m, n) = (t/2 - 1, t - 1), an
      n outside A2's domain (the T-subset-A2 audit).
    - A2-slope-gap: K2 = 4*chi + 4*(1 - n - m*n) on A2's domain, the
      closed form of family 2's slope (slope_limit_report).
    - Windows: chi >= first on the domain, first being chi at the minima,
      and the first line (n at its minimum) steps chi by 1 to first + 1.
      Its smallest chi >= c is then at most c + first <= 2c, so it meets
      every window [c, 2c] with c >= first.
    - Noether: K2 - 2*chi + 6 is positive on A3's domain and on A2's past
      n = 2, where A2's pair is (8m - 8, 4m - 1), on the Noether line.
    - A2-A3-lines: the A2 line at x meets the A3 line at y where
      chi_2*m2 - chi_3*m3 = e (equal chi) and k2_2*m2 - k2_3*m3 = f (equal
      K2).  As polynomials in (x, y) the determinant is 2*x*y*(x - y + 1),
      nonzero because both n are positive and even (so x - y + 1 is odd),
      and Cramer's rule gives m2 = y/x and m3 = 2*x/y.  Then m2*m3 = 2, but
      m2*m3 >= 3 on the two m domains, so no line pair meets inside both
      families."""
    a2, a3 = FAMILIES["A2"], FAMILIES["A3"]
    variables = {label: domain_variables(family.params) for label, family in FAMILIES.items()}
    (k,), (t,), (m, n) = variables["B"], variables["T"], variables["A2"]
    pairs = {label: FAMILIES[label].pair(*variables[label]) for label in ("A1", "A2", "A3")}
    b_pair = FAMILIES["B"].pair(k)
    t_pair, t_in = FAMILIES["T"].pair(t), {label: w(t) for label, w in _T_WITNESS.items()}
    shared = {label: _b_shared(label, k, b_pair) for label in _B_ROOTS}

    def covers(family, chi: Poly) -> bool:
        first, step = _first_chi(family), _line_coefficients(family, family.params[1].minimum)[2]
        return first > 0 and 0 < step <= first + 1 and at_least(chi, first)

    def above_noether(k2: Poly, chi: Poly) -> bool:
        return at_least(k2 - 2 * chi + 6, 1)

    (m2, n2), (m3, _) = a2.params, a3.params
    past_n2 = domain_variables((m2, n2._replace(minimum=n2.minimum + n2.step)))
    x, y = Poly.variable(0), Poly.variable(1)
    k2_2, k2_20, chi_2, chi_20 = _line_coefficients(a2, x)
    k2_3, k2_30, chi_3, chi_30 = _line_coefficients(a3, y)
    e, f = chi_30 - chi_20, k2_30 - k2_20
    det = chi_3 * k2_2 - chi_2 * k2_3
    holds = {
        "B-half-K2-square": b_pair[0] == 2 * (k - 3) * (k - 3),
        "A1-K2-odd": multiple_of(pairs["A1"][0] - 1, 2),
        "A2-A3-K2-even": multiple_of(pairs["A2"][0], 2) and multiple_of(pairs["A3"][0], 2),
        "A2-chi-odd": multiple_of(pairs["A2"][1] - 1, 2),
        "A2-B-roots": shared["A2"] is not None,
        "A3-B-roots": shared["A3"] is not None,
        "T-in-A3": t_pair == a3.pair(*t_in["A3"]) and a3.admits(*t_in["A3"]),
        "T-A2-substitution": t_pair == a2.pair(*t_in["A2"]),
        "A2-slope-gap": pairs["A2"][0] == 4 * pairs["A2"][1] + 4 * (1 - n - m * n),
        "A2-windows": covers(a2, pairs["A2"][1]),
        "A3-windows": covers(a3, pairs["A3"][1]),
        "A2-noether-n2": a2.pair(x, n2.minimum) == (8 * x - 8, 4 * x - 1)
        and above_noether(*a2.pair(*past_n2)),
        "A3-noether-positive": above_noether(*pairs["A3"]),
        "A2-A3-lines": det == 2 * x * y * (x - y + 1)
        and (chi_3 * f - k2_3 * e) * x == y * det
        and (chi_2 * f - k2_2 * e) * y == 2 * x * det
        and all(at_least(v, 1) and multiple_of(v, 2) for v in (n, variables["A3"][1]))
        and at_least(prod(domain_variables((m2, m3))), 3),
    }
    return holds, {label: value or () for label, value in shared.items()}


def set_relations_report(chi_max: int) -> SetRelationsReport:
    """Certify the pairwise-disjointness and overlap claims for the five
    families within the chi bound, from the closed forms.  Every verdict
    rests on named identities in the family parameters, checked once per
    process (_identities); a claim whose identity fails is refuted and names
    it.  The counts are summed over the A2 and A3 lines, T is walked member
    by member for the T-in-A2 audit, and no pair set is built."""
    check_sets((), chi_max)
    a2 = FAMILIES["A2"]
    m_param, n_param = a2.params
    holds, b_shared = _identities()
    claims: list[Claim] = []

    def certified(claim_id, names, detail, consequence, status=VERIFIED, witnesses=()) -> Claim:
        """The claim, or refuted naming the first of its identities that fails."""
        name = next((name for name in names if not holds[name]), None)
        if name:
            return Claim(claim_id, REFUTED, f"identity {name} fails, so {consequence}")
        return Claim(claim_id, status, detail, witnesses)

    # Claim i): five intersections, each the exact one cut at the bound.  A1
    # is kept apart by parity, A2 and A3 from B by their quadratics.
    for left, right, identities in (
        ("A1", "B", ("A1-K2-odd", "B-half-K2-square")),
        ("A2", "B", ("A2-B-roots",)),
        ("A3", "B", ("A3-B-roots",)),
        ("A1", "A2", ("A1-K2-odd", "A2-A3-K2-even")),
        ("A1", "A3", ("A1-K2-odd", "A2-A3-K2-even")),
    ):
        witnesses = tuple(value for value in b_shared.get(left, ()) if value[1] <= chi_max)[:5]
        detail = (
            f"shared pairs: {list(witnesses)}"
            if witnesses
            else f"{left} and {right} share no pair with chi <= {chi_max}"
        )
        claims.append(
            certified(
                f"{left}-disjoint-{right}", identities, detail,
                f"{left} and {right} may share pairs",
                REFUTED if witnesses else VERIFIED, witnesses,
            )
        )

    # The four structural ingredients behind claim i).
    for claim_id, detail in (
        ("B-half-K2-square", "K2/2 is a perfect square for every B pair"),
        ("A1-K2-odd", "K2 is odd for every A1 pair"),
        ("A2-A3-K2-even", "K2 is even for every A2 and A3 pair"),
        ("A2-chi-odd", "chi is odd for every A2 pair"),
    ):
        claims.append(Claim(claim_id, VERIFIED if holds[claim_id] else REFUTED, detail))

    # Claim ii): both differences are infinite.  A2 and A3 share no pair, so
    # each difference is the whole family, whose first line meets every
    # doubling window from the family's first chi on.  The lines are made
    # only under the identities: a wrong family's lines may never end.
    for left, right in (("A2", "A3"), ("A3", "A2")):
        names = (f"{left}-windows", "A2-A3-lines")
        lines = _lines(left, chi_max) if all(holds[name] for name in names) else []
        count, first = sum(len(ms) for _, _, ms in lines), _first_chi(FAMILIES[left])
        claims.append(
            certified(
                f"{left}-minus-{right}-infinite", names,
                f"{count} members, first at chi={first}, all doubling windows inhabited"
                if count
                else "no members within the bound",
                f"{left} minus {right} may miss a window", VERIFIED if count else REFUTED,
            )
        )

    # Noether-line slices: A2's are the members (8m-8, 4m-1) of its first
    # line, n=2.
    first_line = next(_lines("A2", chi_max), None)
    found = len(first_line[2]) if first_line else 0
    claims.append(
        certified(
            "A2-noether-slice", ("A2-noether-n2",),
            "A2 meets the Noether line exactly in the n=2 members (8m-8, 4m-1); "
            f"{found} found within the bound",
            "A2 may meet the Noether line elsewhere",
        )
    )
    claims.append(
        certified(
            "A3-noether-empty", ("A3-noether-positive",),
            "A3 does not meet the Noether line within the bound", "A3 may meet the Noether line",
        )
    )

    # Claim iii) machinery: T inside A3 (identity plus domain map), and the
    # T-in-A2 audit under printed and relaxed parity.
    t_run = _member_run("T", chi_max)
    claims.append(
        certified(
            "T-subset-A3", ("T-in-A3",),
            "substitution (m, n) = (t-3, t): polynomial identity holds and every "
            f"T pair within the bound is an enumerated A3 pair ({len(t_run.params)} checked)",
            "(m, n) = (t-3, t) may not map T into A3",
        )
    )

    audits = []
    for t, value in zip(t_run.params, zip(t_run.k2s, t_run.chis)):
        m_w, n_w = _T_WITNESS["A2"](t)
        audits.append(
            {
                "t": t,
                "witness": {"m": m_w, "n": n_w},
                "witness_value_matches": a2.pair(m_w, n_w) == value,
                "witness_n_parity_ok": (n_w - n_param.minimum) % n_param.step == 0,
                "witness_m_bound_ok": m_w >= m_param.minimum,
                "in_A2_printed_constraints": bool(a2.members(*value)),
            }
        )
    strict_hits = sum(a["in_A2_printed_constraints"] for a in audits)
    all_values_match = all(a["witness_value_matches"] for a in audits)
    any_parity_ok = any(a["witness_n_parity_ok"] for a in audits)
    if strict_hits == len(audits) and audits:
        status, detail = VERIFIED, "every T pair is an enumerated A2 pair"
    elif all_values_match and holds["T-A2-substitution"]:
        status = RELAXED
        detail = (
            "substitution (m, n) = (t/2-1, t-1): polynomial identity holds, but the "
            "witness n is odd for every even t, so membership needs the even-n "
            f"constraint relaxed; {strict_hits} of {len(audits)} T pairs are "
            "enumerated A2 pairs under the printed constraints"
        )
        if not any_parity_ok:
            detail += " (none of the witnesses satisfies the printed parity)"
    else:
        status, detail = REFUTED, "witness substitution does not reproduce the T pairs"
    claims.append(Claim("T-subset-A2", status, detail, tuple(audits)))

    claims.append(
        certified(
            "A2-intersect-A3-infinite", ("A2-A3-lines",),
            "no shared pair under the printed constraints within the bound; "
            "the overlap rests on the T family, see T-subset-A2",
            "A2 and A3 may share pairs", RELAXED,
        )
    )

    return SetRelationsReport(bound=chi_max, claims=tuple(claims))


# ---------------------------------------------------------------------------
# Emitters.


def emit_figure(sets: list[str], chi_max: int, format: str) -> str:
    """Deterministic figure (SVG) or table (CSV) of the selected families.

    The SVG splits the chi range into complementary windows, one panel per
    window, so that every enumerated pair is drawn exactly once; each panel
    also draws the Noether, Severi and BMY lines.
    """
    fmt = format.upper()
    if fmt not in ("SVG", "CSV"):
        raise ValueError(f"unknown format {format!r} (expected SVG or CSV)")
    runs = pair_runs(sets, chi_max)
    return figure_svg(runs, chi_max) if fmt == "SVG" else figure_csv(runs, chi_max)
