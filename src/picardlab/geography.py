"""Invariant-pair geography: the five enumerable families, admissibility
against the Noether and Bogomolov-Miyaoka-Yau bounds, exact slopes and
their Severi-line limits, the set-relation certificates, and the figure
and table emitters.

The five families, by label:

  A1  family 1, parameter n >= 2,
  A2  family 2, parameters m >= 3 and even n >= 2,
  A3  family 3, parameters m >= 2 and even n >= 4,
  B   the classical double-plane family (2*(n-3)^2, (n-1)*(n-2)/2 + 1)
      for n >= 4, kept for disjointness checks,
  T   the overlap-witness family (2t(t-1)(t-4)+8, t(t-1)(t-3)/2+1) for
      even t >= 6.

The set relations are computed from the closed forms, without enumerating
a pair.  A1, B and T have O(sqrt(chi_max)) members and are walked one by
one.  A2 and A3 lie on lines, one per n, on which K2 and chi are affine in
m: membership of a value is an integer quadratic in n, A2 meets A3 where a
2x2 integer system per pair of lines has a solution, and counts, first
members, doubling windows, parities and the Noether slices are read off
each line.  The cost grows with the number of lines, not of pairs.
enumerate_set lists every pair and feeds only the figure and table
emitters.

Unbounded ("infinitely many") claims are certified in two parts:
nonemptiness of every doubling chi-window inside the bound, and, where a
parameter substitution is claimed, a symbolic polynomial identity checked
coefficient by coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from typing import Iterable, Optional

from .constructions import family1_pair, family2_pair, family3_pair
from .figures import figure_csv, figure_svg
from .polynomials import LocalPoly

SET_LABELS = ("A1", "A2", "A3", "B", "T")


def set_b_pair(n):
    return (2 * (n - 3) * (n - 3), (n - 1) * (n - 2) // 2 + 1)


def set_t_pair(t):
    return (2 * t * (t - 1) * (t - 4) + 8, t * (t - 1) * (t - 3) // 2 + 1)


@dataclass(frozen=True, order=True)
class GeoPair:
    """One invariant pair with its provenance parameters."""

    chi: int
    K2: int
    set_label: str
    params: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if self.chi < 1 or self.K2 < 1:
            raise ValueError(f"invariant pairs must be strictly positive, got ({self.K2}, {self.chi})")

    @property
    def value(self) -> tuple[int, int]:
        return (self.K2, self.chi)

    def params_str(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.params)


def enumerate_set(which: str, chi_max: int) -> list[GeoPair]:
    """All pairs of the labeled family with chi <= chi_max, sorted by
    (chi, K2, parameters)."""
    if which not in SET_LABELS:
        raise ValueError(f"unknown set label {which!r} (expected one of {', '.join(SET_LABELS)})")
    if chi_max < 3:
        raise ValueError(f"chi_max must be at least 3, got {chi_max}")
    pairs: list[GeoPair] = []
    if which == "A1":
        n = 2
        while True:
            k2, chi = family1_pair(n)
            if chi > chi_max:
                break
            pairs.append(GeoPair(chi, k2, "A1", (("n", n),)))
            n += 1
    elif which == "A2":
        n = 2
        while family2_pair(3, n)[1] <= chi_max:
            m = 3
            while True:
                k2, chi = family2_pair(m, n)
                if chi > chi_max:
                    break
                pairs.append(GeoPair(chi, k2, "A2", (("m", m), ("n", n))))
                m += 1
            n += 2
    elif which == "A3":
        n = 4
        while family3_pair(2, n)[1] <= chi_max:
            m = 2
            while True:
                k2, chi = family3_pair(m, n)
                if chi > chi_max:
                    break
                pairs.append(GeoPair(chi, k2, "A3", (("m", m), ("n", n))))
                m += 1
            n += 2
    elif which == "B":
        n = 4
        while True:
            k2, chi = set_b_pair(n)
            if chi > chi_max:
                break
            pairs.append(GeoPair(chi, k2, "B", (("n", n),)))
            n += 1
    else:
        t = 6
        while True:
            k2, chi = set_t_pair(t)
            if chi > chi_max:
                break
            pairs.append(GeoPair(chi, k2, "T", (("t", t),)))
            t += 2
    return sorted(pairs)


def admissible(K2: int, chi: int) -> bool:
    """Strict positivity plus the Noether (K2 >= 2*chi - 6) and
    Bogomolov-Miyaoka-Yau (K2 <= 9*chi) inequalities."""
    return K2 >= 1 and chi >= 1 and K2 >= 2 * chi - 6 and K2 <= 9 * chi


def slope(pair: GeoPair) -> Fraction:
    """The exact slope K2 / chi."""
    return Fraction(pair.K2, pair.chi)


# ---------------------------------------------------------------------------
# Severi-line convergence for family 2.


@dataclass(frozen=True)
class SlopeRow:
    m: int
    n: int
    K2: int
    chi: int
    mu: Fraction
    identity_ok: bool


@dataclass(frozen=True)
class SlopeLimitReport:
    """Exact slope table for family 2 with one parameter fixed.

    Fixing n sweeps m with limit 4 - 4/n; fixing m sweeps even n with
    limit 4.  identity_ok certifies, row by row, the exact closed form
    mu = 4 + 4*(1 - n - m*n) / (1 - n + m*n^2); symbolic_identity is the
    same identity checked once as a polynomial identity in (m, n).
    """

    fixed: tuple[str, int]
    rows: tuple[SlopeRow, ...]
    limit: Fraction
    symbolic_identity: bool
    final_gap: Fraction
    threshold: Fraction
    within_threshold: bool

    @property
    def all_identities_hold(self) -> bool:
        return all(row.identity_ok for row in self.rows)


def _mu_closed_form(m, n):
    return 4 + Fraction(4) * (1 - n - m * n) / (1 - n + m * n * n)


def _symbolic_slope_identity() -> bool:
    # K2 == 4*chi + 4*(1 - n - m*n) as polynomials in (m, n).
    m = LocalPoly.variable(0)
    n = LocalPoly.variable(1)
    k2, chi = family2_pair(m, n)
    return k2 == 4 * chi + 4 * (1 - n - m * n)


def slope_limit_report(
    *,
    fixed_n: Optional[int] = None,
    fixed_m: Optional[int] = None,
    sweep_bound: int,
    threshold: Fraction = Fraction(1, 100),
) -> SlopeLimitReport:
    """Slope table and convergence evidence for family 2, one parameter fixed."""
    if (fixed_n is None) == (fixed_m is None):
        raise ValueError("fix exactly one of n or m")
    rows: list[SlopeRow] = []
    if fixed_n is not None:
        if fixed_n < 2 or fixed_n % 2:
            raise ValueError(f"fixed n must be even and >= 2, got {fixed_n}")
        limit = 4 - Fraction(4, fixed_n)
        sweep = [(m, fixed_n) for m in range(3, sweep_bound + 1)]
        fixed = ("n", fixed_n)
    else:
        if fixed_m < 3:
            raise ValueError(f"fixed m must be >= 3, got {fixed_m}")
        limit = Fraction(4)
        sweep = [(fixed_m, n) for n in range(2, sweep_bound + 1, 2)]
        fixed = ("m", fixed_m)
    if not sweep:
        raise ValueError("empty sweep range")
    for m, n in sweep:
        k2, chi = family2_pair(m, n)
        mu = Fraction(k2, chi)
        rows.append(SlopeRow(m, n, k2, chi, mu, mu == _mu_closed_form(m, n)))
    final_gap = abs(rows[-1].mu - limit)
    return SlopeLimitReport(
        fixed=fixed,
        rows=tuple(rows),
        limit=limit,
        symbolic_identity=_symbolic_slope_identity(),
        final_gap=final_gap,
        threshold=threshold,
        within_threshold=final_gap < threshold,
    )


# ---------------------------------------------------------------------------
# The lines carrying families 2 and 3.


@dataclass(frozen=True)
class LineRow:
    m: int
    K2: int
    chi: int
    lhs: int
    rhs: int

    @property
    def on_line(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class LinesReport:
    """Denominator-cleared line membership for one family at fixed n.

    Family 2 members satisfy n*K2 = 4*(n-1)*chi - 4*(n+1)*(n-1); family 3
    members satisfy (n-1)*K2 = 4*(n-2)*chi - 4*n*(n-2).  Both lines have
    slope below the Severi slope 4.
    """

    family: int
    n: int
    rows: tuple[LineRow, ...]
    line_slope: Fraction

    @property
    def all_on_line(self) -> bool:
        return all(r.on_line for r in self.rows)

    @property
    def below_severi(self) -> bool:
        return self.line_slope < 4


def lines_report(family: int, n: int, m_values: Iterable[int]) -> LinesReport:
    if family == 2:
        if n < 2 or n % 2:
            raise ValueError(f"family 2 line needs even n >= 2, got {n}")
        pair, m_min = family2_pair, 3
        line_slope = Fraction(4 * (n - 1), n)
    elif family == 3:
        if n < 4 or n % 2:
            raise ValueError(f"family 3 line needs even n >= 4, got {n}")
        pair, m_min = family3_pair, 2
        line_slope = Fraction(4 * (n - 2), n - 1)
    else:
        raise ValueError("lines are defined for families 2 and 3")
    rows = []
    for m in m_values:
        if m < m_min:
            raise ValueError(f"family {family} needs m >= {m_min}, got {m}")
        k2, chi = pair(m, n)
        if family == 2:
            lhs, rhs = n * k2, 4 * (n - 1) * chi - 4 * (n + 1) * (n - 1)
        else:
            lhs, rhs = (n - 1) * k2, 4 * (n - 2) * chi - 4 * n * (n - 2)
        rows.append(LineRow(m, k2, chi, lhs, rhs))
    return LinesReport(family=family, n=n, rows=tuple(rows), line_slope=line_slope)


# ---------------------------------------------------------------------------
# Set-relation certificates.

VERIFIED = "verified"
REFUTED = "refuted_within_bound"
RELAXED = "verified_under_relaxed_assumption"


@dataclass(frozen=True)
class Claim:
    claim_id: str
    status: str
    detail: str
    witnesses: tuple = ()

    def to_json(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "status": self.status,
            "detail": self.detail,
            "witnesses": list(self.witnesses),
        }


@dataclass(frozen=True)
class SetRelationsReport:
    bound: int
    claims: tuple[Claim, ...]

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


def _is_perfect_square(x: int) -> bool:
    if x < 0:
        return False
    r = math.isqrt(x)
    return r * r == x


# Closed-form membership.  Each solver returns the parameters, in GeoPair
# params form, of every member of its family with the value (K2, chi); each
# candidate is checked against the family's own pair function.


def _solve_a1(K2: int, chi: int) -> list:
    # K2 = (2n - 3)^2 with 2n - 3 >= 1.
    if not _is_perfect_square(K2):
        return []
    n = (math.isqrt(K2) + 3) // 2
    return [(("n", n),)] if n >= 2 and family1_pair(n) == (K2, chi) else []


def _solve_b(K2: int, chi: int) -> list:
    # K2 = 2*(n - 3)^2 with n - 3 >= 1.
    if K2 % 2 or not _is_perfect_square(K2 // 2):
        return []
    n = 3 + math.isqrt(K2 // 2)
    return [(("n", n),)] if n >= 4 and set_b_pair(n) == (K2, chi) else []


def _integer_roots(a: int, b: int, c: int) -> list[int]:
    """The integer roots of a*x^2 + b*x + c, for a > 0."""
    disc = b * b - 4 * a * c
    if not _is_perfect_square(disc):
        return []
    s = math.isqrt(disc)
    return sorted({(e - b) // (2 * a) for e in (s, -s) if (e - b) % (2 * a) == 0})


def _solve_a2(K2: int, chi: int) -> list:
    # K2 - 4*chi = 4 - 4*N with N = n*(m + 1), and chi - 1 = n*(N - n - 1).
    N, r = divmod(4 * chi - K2 + 4, 4)
    if r:
        return []
    out = []
    for n in _integer_roots(1, 1 - N, chi - 1):
        if n >= 2 and n % 2 == 0 and N % n == 0:
            m = N // n - 1
            if m >= 3 and family2_pair(m, n) == (K2, chi):
                out.append((("m", m), ("n", n)))
    return out


def _solve_a3(K2: int, chi: int) -> list:
    # K2 - 4*chi = 4 - 2*N with N = n*(m + 2), and 2*(chi - 1) = (N - 2n)*(n - 1).
    N, r = divmod(4 * chi - K2 + 4, 2)
    if r:
        return []
    out = []
    for n in _integer_roots(2, -(N + 2), N + 2 * chi - 2):
        if n >= 4 and n % 2 == 0 and N % n == 0:
            m = N // n - 2
            if m >= 2 and family3_pair(m, n) == (K2, chi):
                out.append((("m", m), ("n", n)))
    return out


_SOLVERS = {"A1": _solve_a1, "A2": _solve_a2, "A3": _solve_a3, "B": _solve_b}

# The families with O(sqrt(chi_max)) members: pair function, first
# parameter and parameter step.
_SPARSE = {"A1": (family1_pair, 2, 1), "B": (set_b_pair, 4, 1), "T": (set_t_pair, 6, 2)}


def _sparse_members(label: str, chi_max: int):
    """(parameter, (K2, chi)) for every member with chi <= chi_max, in
    parameter order, which is also chi order."""
    pair, p, step = _SPARSE[label]
    while (value := pair(p))[1] <= chi_max:
        yield p, value
        p += step


@dataclass(frozen=True)
class _Line:
    """Family 2 or 3 at one n.  K2 and chi are affine in m; the members
    within the bound are m_first <= m <= m_last."""

    n: int
    m_first: int
    m_last: int
    k2_step: int
    k2_0: int
    chi_step: int
    chi_0: int

    def value(self, m: int) -> tuple[int, int]:
        return (self.k2_step * m + self.k2_0, self.chi_step * m + self.chi_0)

    @property
    def count(self) -> int:
        return self.m_last - self.m_first + 1

    def m_window(self, lo: int, hi: int) -> range:
        """The members' m with lo <= chi <= hi."""
        first = max(self.m_first, -((self.chi_0 - lo) // self.chi_step))
        last = min(self.m_last, (hi - self.chi_0) // self.chi_step)
        return range(first, last + 1)


# The families on lines: pair function, smallest m, smallest n (n steps by 2).
_LINE_FAMILIES = {"A2": (family2_pair, 3, 2), "A3": (family3_pair, 2, 4)}


def _lines(label: str, chi_max: int) -> list[_Line]:
    """Every line of the family with a member within the bound.  chi at the
    smallest m grows with n, so the first empty line ends the list."""
    pair, m_first, n = _LINE_FAMILIES[label]
    lines = []
    while True:
        k2_0, chi_0 = pair(0, n)
        k2_1, chi_1 = pair(1, n)
        m_last = (chi_max - chi_0) // (chi_1 - chi_0)
        if m_last < m_first:
            return lines
        lines.append(_Line(n, m_first, m_last, k2_1 - k2_0, k2_0, chi_1 - chi_0, chi_0))
        n += 2


def _all_of_parity(step: int, first: int, count: int, parity: int) -> bool:
    """Whether first + step*j has the given parity for j = 0 .. count-1."""
    return first % 2 == parity and (count == 1 or step % 2 == 0)


def _meet(l2: _Line, l3: _Line) -> Optional[tuple[int, int]]:
    """The (m2, m3) within both lines' ranges with l2.value(m2) ==
    l3.value(m3), or None.  Equal chi and equal K2 are two linear equations
    in (m2, m3), solved by Cramer's rule in integers."""
    a, b, e = l2.chi_step, l3.chi_step, l3.chi_0 - l2.chi_0
    c, d, f = l2.k2_step, l3.k2_step, l3.k2_0 - l2.k2_0
    # a*m2 - b*m3 = e and c*m2 - d*m3 = f; for the A2 line n2 and the A3
    # line n3 the determinant is 2*n2*n3*(n2 - n3 + 1), never 0 for even n.
    det = b * c - a * d
    m2, r2 = divmod(b * f - d * e, det)
    m3, r3 = divmod(a * f - c * e, det)
    if r2 or r3 or not (l2.m_first <= m2 <= l2.m_last and l3.m_first <= m3 <= l3.m_last):
        return None
    return m2, m3


def _a2_a3_meets(a2_lines: list[_Line], a3_lines: list[_Line]) -> list[tuple[int, int, int, int]]:
    """Every (m2, n2, m3, n3) with family2_pair(m2, n2) == family3_pair(m3, n3)
    within the bound.  The solution of _meet is m2 = n3/n2, m3 = 2*n2/n3, so
    only the line pairs with n3 a multiple of n2 are solved."""
    a3_by_n = {l3.n: l3 for l3 in a3_lines}
    n3_max = max(a3_by_n, default=0)
    meets = []
    for l2 in a2_lines:
        for n3 in range(l2.n, n3_max + 1, l2.n):
            l3 = a3_by_n.get(n3)
            solution = _meet(l2, l3) if l3 is not None else None
            if solution is not None:
                meets.append((solution[0], l2.n, solution[1], n3))
    return meets


def _noether_zeros(lines: list[_Line]) -> tuple[list[_Line], list[tuple[int, int]]]:
    """The lines lying on the Noether line K2 = 2*chi - 6, and the (m, n) of
    the other lines' members on it.  K2 - 2*chi + 6 is affine in m on a line:
    2*(n-2)*(m*n-3) for family 2 and (n-3)*(m*n-4) for family 3."""
    whole, points = [], []
    for line in lines:
        step = line.k2_step - 2 * line.chi_step
        at0 = line.k2_0 - 2 * line.chi_0 + 6
        if step == 0:
            if at0 == 0:
                whole.append(line)
        elif at0 % step == 0 and line.m_first <= -at0 // step <= line.m_last:
            points.append((-at0 // step, line.n))
    return whole, points


def _window_coverage(
    count: int, first: Optional[int], inhabited, chi_max: int
) -> tuple[bool, str]:
    """Every doubling window [c, 2c] from the first member up to the bound
    must contain a member; inhabited(lo, hi) says whether [lo, hi] does."""
    if not count:
        return False, "no members within the bound"
    c = first
    gaps = []
    while 2 * c <= chi_max:
        if not inhabited(c, 2 * c):
            gaps.append(c)
        c *= 2
    if gaps:
        return False, f"empty chi-windows [c, 2c] at c in {gaps}"
    return True, f"{count} members, first at chi={first}, all doubling windows inhabited"


def _difference_coverage(lines: list[_Line], excluded: set, chi_max: int) -> tuple[bool, str]:
    """_window_coverage for the members of the lines whose (m, n) is not
    excluded, counted and located line by line."""
    count = sum(line.count for line in lines) - len(excluded)
    firsts = []
    for line in lines:
        m = line.m_first
        while (m, line.n) in excluded:
            m += 1
        if m <= line.m_last:
            firsts.append(line.value(m)[1])

    def inhabited(lo: int, hi: int) -> bool:
        for line in lines:
            window = line.m_window(lo, hi)
            if len(window) > sum(1 for m, n in excluded if n == line.n and m in window):
                return True
        return False

    return _window_coverage(count, min(firsts, default=None), inhabited, chi_max)


@cache
def _t_identity_in_a3() -> bool:
    """T's pair equals family 3's pair at (m, n) = (t-3, t), as polynomial
    identities in t (coefficient comparison)."""
    t = LocalPoly.variable(0)
    k2_t = 2 * t * (t - 1) * (t - 4) + 8
    chi_t = Fraction(1, 2) * t * (t - 1) * (t - 3) + 1
    k2_a3, chi_a3 = family3_pair(t - 3, t)
    return k2_t == k2_a3 and chi_t == chi_a3


@cache
def _t_identity_in_a2() -> bool:
    """T's pair equals family 2's pair at (m, n) = (t/2 - 1, t - 1), again as
    polynomial identities in t."""
    t = LocalPoly.variable(0)
    k2_t = 2 * t * (t - 1) * (t - 4) + 8
    chi_t = Fraction(1, 2) * t * (t - 1) * (t - 3) + 1
    k2_a2, chi_a2 = family2_pair(Fraction(1, 2) * t - 1, t - 1)
    return k2_t == k2_a2 and chi_t == chi_a2


def set_relations_report(chi_max: int) -> SetRelationsReport:
    """Certify the pairwise-disjointness and overlap claims for the five
    families within the chi bound, from the closed forms: A1, B and T are
    walked member by member, A2 and A3 line by line, and no pair set is
    built."""
    if chi_max < 3:
        raise ValueError(f"chi_max must be at least 3, got {chi_max}")
    lines = {label: _lines(label, chi_max) for label in _LINE_FAMILIES}
    claims: list[Claim] = []

    # Claim i): five empty intersections.  Walk the side with O(sqrt(chi))
    # members and solve for the other side.
    for left, right in (("A1", "B"), ("A2", "B"), ("A3", "B"), ("A1", "A2"), ("A1", "A3")):
        walk, other = (left, right) if left in _SPARSE else (right, left)
        overlap = sorted(
            {value for _, value in _sparse_members(walk, chi_max) if _SOLVERS[other](*value)}
        )
        claims.append(
            Claim(
                claim_id=f"{left}-disjoint-{right}",
                status=VERIFIED if not overlap else REFUTED,
                detail=(
                    f"{left} and {right} share no pair with chi <= {chi_max}"
                    if not overlap
                    else f"shared pairs: {overlap[:5]}"
                ),
                witnesses=tuple(overlap[:5]),
            )
        )

    # The four structural ingredients behind claim i).
    ingredients = (
        (
            "B-half-K2-square",
            all(
                k2 % 2 == 0 and _is_perfect_square(k2 // 2)
                for _, (k2, _) in _sparse_members("B", chi_max)
            ),
            "K2/2 is a perfect square for every B pair",
        ),
        (
            "A1-K2-odd",
            all(k2 % 2 == 1 for _, (k2, _) in _sparse_members("A1", chi_max)),
            "K2 is odd for every A1 pair",
        ),
        (
            "A2-A3-K2-even",
            all(
                _all_of_parity(line.k2_step, line.value(line.m_first)[0], line.count, 0)
                for line in lines["A2"] + lines["A3"]
            ),
            "K2 is even for every A2 and A3 pair",
        ),
        (
            "A2-chi-odd",
            all(
                _all_of_parity(line.chi_step, line.value(line.m_first)[1], line.count, 1)
                for line in lines["A2"]
            ),
            "chi is odd for every A2 pair",
        ),
    )
    for claim_id, ok, detail in ingredients:
        claims.append(Claim(claim_id, VERIFIED if ok else REFUTED, detail))

    # Claim ii): both differences are infinite; certified within the bound
    # by doubling windows plus counts.  The members of one family that lie
    # in the other are the line-against-line solutions.
    meets = _a2_a3_meets(lines["A2"], lines["A3"])
    shared_params = {
        "A2": {(m2, n2) for m2, n2, _, _ in meets},
        "A3": {(m3, n3) for _, _, m3, n3 in meets},
    }
    for left, right in (("A2", "A3"), ("A3", "A2")):
        ok, detail = _difference_coverage(lines[left], shared_params[left], chi_max)
        claims.append(Claim(f"{left}-minus-{right}-infinite", VERIFIED if ok else REFUTED, detail))

    # Noether-line slices.
    whole, points = _noether_zeros(lines["A2"])
    found = sum(line.count for line in whole) + len(points)
    # Expected: all of the n=2 line, (8m-8, 4m-1) for 3 <= m <= (chi_max+1)/4.
    expected = [_Line(2, 3, (chi_max + 1) // 4, 8, -8, 4, -1)] if 4 * 3 - 1 <= chi_max else []
    slice_ok = not points and whole == expected
    claims.append(
        Claim(
            "A2-noether-slice",
            VERIFIED if slice_ok else REFUTED,
            f"A2 meets the Noether line exactly in the n=2 members (8m-8, 4m-1); "
            f"{found} found within the bound",
        )
    )
    whole, points = _noether_zeros(lines["A3"])
    # The first five members on the Noether line, in enumeration order.
    on_noether = points + [
        (m, line.n) for line in whole for m in range(line.m_first, line.m_last + 1)[:5]
    ]
    first_five = sorted((family3_pair(m, n)[::-1], m, n) for m, n in on_noether)[:5]
    noether_a3 = [(k2, chi) for (chi, k2), _, _ in first_five]
    claims.append(
        Claim(
            "A3-noether-empty",
            VERIFIED if not noether_a3 else REFUTED,
            "A3 does not meet the Noether line within the bound"
            if not noether_a3
            else f"members on the line: {noether_a3}",
        )
    )

    # Claim iii) machinery: T inside A3 (symbolic plus membership), and the
    # T-in-A2 audit under printed and relaxed parity.
    t_members = list(_sparse_members("T", chi_max))
    t_in_a3_symbolic = _t_identity_in_a3()
    t_members_in_a3 = all(_solve_a3(*value) for _, value in t_members)
    claims.append(
        Claim(
            "T-subset-A3",
            VERIFIED if (t_in_a3_symbolic and t_members_in_a3) else REFUTED,
            "substitution (m, n) = (t-3, t): polynomial identity holds and every "
            f"T pair within the bound is an enumerated A3 pair ({len(t_members)} checked)",
        )
    )

    t_in_a2_symbolic = _t_identity_in_a2()
    audits = []
    strict_hits = 0
    for t, value in t_members:
        m_w, n_w = t // 2 - 1, t - 1
        witness_pair = family2_pair(m_w, n_w)
        strict = bool(_solve_a2(*value))
        strict_hits += strict
        audits.append(
            {
                "t": t,
                "witness": {"m": m_w, "n": n_w},
                "witness_value_matches": witness_pair == value,
                "witness_n_parity_ok": n_w % 2 == 0,
                "witness_m_bound_ok": m_w >= 3,
                "in_A2_printed_constraints": strict,
            }
        )
    all_values_match = all(a["witness_value_matches"] for a in audits)
    any_parity_ok = any(a["witness_n_parity_ok"] for a in audits)
    if strict_hits == len(audits) and audits:
        status, detail = VERIFIED, "every T pair is an enumerated A2 pair"
    elif all_values_match and t_in_a2_symbolic:
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

    overlap = sorted({family2_pair(m2, n2) for m2, n2, _, _ in meets})
    if overlap:
        chis = [chi for _, chi in overlap]
        ok, win_detail = _window_coverage(
            len(chis), min(chis), lambda lo, hi: any(lo <= chi <= hi for chi in chis), chi_max
        )
        claims.append(
            Claim(
                "A2-intersect-A3-infinite",
                VERIFIED if ok else RELAXED,
                f"{len(overlap)} shared pairs within the bound; {win_detail}",
            )
        )
    else:
        claims.append(
            Claim(
                "A2-intersect-A3-infinite",
                RELAXED,
                "no shared pair under the printed constraints within the bound; "
                "the overlap rests on the T family, see T-subset-A2",
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
    for label in sets:
        if label not in SET_LABELS:
            raise ValueError(f"unknown set label {label!r}")
    pairs_by_set = {label: enumerate_set(label, chi_max) for label in sets}
    fmt = format.upper()
    if fmt == "SVG":
        return figure_svg(pairs_by_set, chi_max)
    if fmt == "CSV":
        return figure_csv(pairs_by_set)
    raise ValueError(f"unknown format {format!r} (expected SVG or CSV)")
