"""The enumeration-based set-relations report, kept as a test oracle.

It materialises every pair of the five families by plain loops over their
parameters, calling the pair functions directly, and intersects Python
sets, so it costs O(chi_max) time and memory.  picardlab computes the same
report from the closed forms line by line, and enumerate_set walks the same
family table and lines; the tests compare both with this module.
"""

import math
from fractions import Fraction

from picardlab.constructions import (
    family1_pair,
    family2_pair,
    family3_pair,
    set_b_pair,
    set_t_pair,
)
from picardlab.geography import (
    REFUTED,
    RELAXED,
    SET_LABELS,
    VERIFIED,
    Claim,
    GeoPair,
    SetRelationsReport,
)
from picardlab.polynomials import Poly


def t_substitution_holds(pair, witness):
    """Whether T's pair is pair at the parameters witness(t), as polynomials
    in t, checked here by expanding both sides on a Poly variable."""
    t = Poly.variable(0, 1)
    return set_t_pair(t) == pair(*witness(t))


def _is_perfect_square(x):
    if x < 0:
        return False
    r = math.isqrt(x)
    return r * r == x


def admissible(K2, chi):
    """Strict positivity plus the Noether (K2 >= 2*chi - 6) and
    Bogomolov-Miyaoka-Yau (K2 <= 9*chi) inequalities."""
    return K2 >= 1 and chi >= 1 and 2 * chi - 6 <= K2 <= 9 * chi


def _window_coverage(chis, chi_max):
    if not chis:
        return False, "no members within the bound"
    chis = sorted(chis)
    c = chis[0]
    gaps = []
    while 2 * c <= chi_max:
        if not any(c <= chi <= 2 * c for chi in chis):
            gaps.append(c)
        c *= 2
    if gaps:
        return False, f"empty chi-windows [c, 2c] at c in {gaps}"
    return True, f"{len(chis)} members, first at chi={chis[0]}, all doubling windows inhabited"


def brute_force_set(which, chi_max):
    """All pairs of the labeled family with chi <= chi_max, sorted, by loops
    over the parameter domains written out here rather than read from the
    family table."""
    pairs = []
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


def enumerated_sets(chi_max):
    return {label: brute_force_set(label, chi_max) for label in SET_LABELS}


def restrict(sets, chi_max):
    """The enumerated sets cut down to a smaller bound (still sorted)."""
    return {label: [p for p in pairs if p.chi <= chi_max] for label, pairs in sets.items()}


def oracle_report(chi_max, sets=None):
    """set_relations_report as it was computed by enumeration.  sets, when
    given, must be the five enumerated sets at exactly this bound."""
    if sets is None:
        sets = enumerated_sets(chi_max)
    values = {label: {p.value for p in pairs} for label, pairs in sets.items()}
    claims = []

    for left, right in (("A1", "B"), ("A2", "B"), ("A3", "B"), ("A1", "A2"), ("A1", "A3")):
        overlap = sorted(values[left] & values[right])
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

    ingredients = (
        (
            "B-half-K2-square",
            all(_is_perfect_square(p.K2 // 2) and p.K2 % 2 == 0 for p in sets["B"]),
            "K2/2 is a perfect square for every B pair",
        ),
        ("A1-K2-odd", all(p.K2 % 2 == 1 for p in sets["A1"]), "K2 is odd for every A1 pair"),
        (
            "A2-A3-K2-even",
            all(p.K2 % 2 == 0 for p in sets["A2"] + sets["A3"]),
            "K2 is even for every A2 and A3 pair",
        ),
        ("A2-chi-odd", all(p.chi % 2 == 1 for p in sets["A2"]), "chi is odd for every A2 pair"),
    )
    for claim_id, ok, detail in ingredients:
        claims.append(Claim(claim_id, VERIFIED if ok else REFUTED, detail))

    for left, right in (("A2", "A3"), ("A3", "A2")):
        diff = [p.chi for p in sets[left] if p.value not in values[right]]
        ok, detail = _window_coverage(diff, chi_max)
        claims.append(Claim(f"{left}-minus-{right}-infinite", VERIFIED if ok else REFUTED, detail))

    noether_a2 = sorted(p for p in sets["A2"] if p.K2 == 2 * p.chi - 6)
    expected_slice = []
    m = 3
    while 4 * m - 1 <= chi_max:
        expected_slice.append((8 * m - 8, 4 * m - 1))
        m += 1
    slice_ok = [p.value for p in noether_a2] == expected_slice and all(
        dict(p.params)["n"] == 2 for p in noether_a2
    )
    claims.append(
        Claim(
            "A2-noether-slice",
            VERIFIED if slice_ok else REFUTED,
            f"A2 meets the Noether line exactly in the n=2 members (8m-8, 4m-1); "
            f"{len(noether_a2)} found within the bound",
        )
    )
    noether_a3 = [p.value for p in sets["A3"] if p.K2 == 2 * p.chi - 6]
    claims.append(
        Claim(
            "A3-noether-empty",
            VERIFIED if not noether_a3 else REFUTED,
            "A3 does not meet the Noether line within the bound"
            if not noether_a3
            else f"members on the line: {noether_a3[:5]}",
        )
    )

    t_in_a3_symbolic = t_substitution_holds(family3_pair, lambda t: (t - 3, t))
    t_members_in_a3 = all(p.value in values["A3"] for p in sets["T"])
    claims.append(
        Claim(
            "T-subset-A3",
            VERIFIED if (t_in_a3_symbolic and t_members_in_a3) else REFUTED,
            "substitution (m, n) = (t-3, t): polynomial identity holds and every "
            f"T pair within the bound is an enumerated A3 pair ({len(sets['T'])} checked)",
        )
    )

    t_in_a2_symbolic = t_substitution_holds(
        family2_pair, lambda t: (Fraction(1, 2) * t - 1, t - 1)
    )
    audits = []
    strict_hits = 0
    for p in sets["T"]:
        t = dict(p.params)["t"]
        m_w, n_w = t // 2 - 1, t - 1
        witness_pair = family2_pair(m_w, n_w)
        strict = p.value in values["A2"]
        strict_hits += strict
        audits.append(
            {
                "t": t,
                "witness": {"m": m_w, "n": n_w},
                "witness_value_matches": witness_pair == p.value,
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

    overlap = sorted(values["A2"] & values["A3"])
    if overlap:
        ok, win_detail = _window_coverage([chi for _, chi in overlap], chi_max)
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
