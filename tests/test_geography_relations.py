"""The closed-form set-relations report against the enumeration oracle."""

import dataclasses
from bisect import bisect_right
from fractions import Fraction

import pytest

from _relations_oracle import brute_force_set, enumerated_sets, oracle_report, restrict
from picardlab import geography
from picardlab.constructions import FAMILIES, family2_pair, family3_pair
from picardlab.geography import (
    REFUTED,
    SET_LABELS,
    _a2_a3_identity,
    _lines,
    _noether_zeros,
    admissible,
    enumerate_set,
    set_relations_report,
)


def test_equivalent_to_enumeration_for_every_small_bound():
    full = enumerated_sets(2000)
    for chi_max in range(3, 2001):
        expected = oracle_report(chi_max, restrict(full, chi_max)).to_json()
        assert set_relations_report(chi_max).to_json() == expected, chi_max


@pytest.mark.parametrize("chi_max", [10_000, 100_000])
def test_equivalent_to_enumeration_at_larger_bounds(chi_max):
    assert set_relations_report(chi_max).to_json() == oracle_report(chi_max).to_json()


def test_enumerate_set_matches_brute_force():
    # enumerate_set walks the family table and the lines; the oracle loops
    # over parameter domains of its own.
    full = enumerated_sets(2000)
    for label in SET_LABELS:
        chis = [p.chi for p in full[label]]
        for chi_max in range(3, 2001):
            expected = full[label][: bisect_right(chis, chi_max)]
            assert enumerate_set(label, chi_max) == expected, (label, chi_max)
    big = enumerated_sets(100_000)
    for label in SET_LABELS:
        assert enumerate_set(label, 100_000) == big[label], label


def test_report_enumerates_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("set_relations_report must not enumerate")

    monkeypatch.setattr(geography, "enumerate_set", refuse)
    report = set_relations_report(10**7)
    assert report.claim("A3-disjoint-B").witnesses == ((128, 46),)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B"])
def test_membership_solver_matches_enumeration(label):
    members = {p.value: [p.params] for p in enumerate_set(label, 100)}
    solve = FAMILIES[label].members
    for chi in range(1, 101):
        for k2 in range(1, 9 * chi + 1):
            if admissible(k2, chi):
                assert solve(k2, chi) == members.get((k2, chi), []), (label, k2, chi)
    for p in enumerate_set(label, 50_000):
        assert solve(*p.value) == [p.params]


def test_lines_cover_the_enumerated_sets():
    for label in ("A2", "A3"):
        on_lines = sorted(
            (line.value(m)[1], line.value(m)[0], m, line.n)
            for line in _lines(label, 5000)
            for m in range(line.m_first, line.m_last + 1)
        )
        enumerated = [
            (p.chi, p.K2, *(v for _, v in p.params)) for p in brute_force_set(label, 5000)
        ]
        assert on_lines == enumerated


def test_line_windows_match_a_scan():
    for label in ("A2", "A3"):
        for line in _lines(label, 3000):
            members = range(line.m_first, line.m_last + 1)
            for lo in range(1, 3001, 37):
                for hi in (lo, 2 * lo, lo + 100):
                    expected = [m for m in members if lo <= line.value(m)[1] <= hi]
                    assert list(line.m_window(lo, hi)) == expected, (label, line.n, lo, hi)


def test_only_dividing_line_pairs_can_meet():
    # Every pair of lines up to chi 20,000, solved by elimination of its own,
    # meets at the solution that _a2_a3_identity certifies for all (n2, n3):
    # m2 = n3/n2 and m3 = 2*n2/n3.  m2 is an integer only where n2 divides
    # n3, and m2, m3 are never both within the families.
    assert _a2_a3_identity()
    a2, a3 = _lines("A2", 20_000), _lines("A3", 20_000)
    for l2 in a2:
        for l3 in a3:
            # chi: a*m2 - b*m3 = e and K2: c*m2 - d*m3 = f, by elimination.
            a, b, e = l2.chi_step, l3.chi_step, l3.chi_0 - l2.chi_0
            c, d, f = l2.k2_step, l3.k2_step, l3.k2_0 - l2.k2_0
            m3 = (f - Fraction(c * e, a)) / (Fraction(c * b, a) - d)
            m2 = (e + b * m3) / a
            assert (m2, m3) == (Fraction(l3.n, l2.n), Fraction(2 * l2.n, l3.n))
            assert not (m2 >= l2.m_first and m3 >= l3.m_first)


def test_certified_meeting_is_real_below_the_printed_bounds():
    # At (n2, n3) = (2, 4) the certified solution is (m2, m3) = (4/2, 2*2/4)
    # = (2, 1): the lines do meet, at m = 2 < 3 and m = 1 < 2, outside both
    # families, so the identity is not vacuous.
    n2, n3 = 2, 4
    m2, m3 = Fraction(n3, n2), Fraction(2 * n2, n3)
    assert (m2, m3) == (2, 1)
    assert family2_pair(2, 2) == family3_pair(1, 4) == (8, 7)
    assert m2 < FAMILIES["A2"].params[0].minimum and m3 < FAMILIES["A3"].params[0].minimum


@pytest.fixture
def fresh_identity():
    _a2_a3_identity.cache_clear()
    yield
    _a2_a3_identity.cache_clear()


def test_identity_is_checked_once_per_process(fresh_identity):
    set_relations_report(1000)
    set_relations_report(10_000)
    assert _a2_a3_identity.cache_info().misses == 1


def test_a_wrong_family_breaks_the_identity(monkeypatch, fresh_identity):
    # Adding 2n to A3's K2 moves its lines, so the certified solution fails
    # and the three claims that rest on it are refuted, naming the identity.
    a3 = FAMILIES["A3"]

    def shifted(m, n):
        k2, chi = a3.pair(m, n)
        return k2 + 2 * n, chi

    monkeypatch.setitem(FAMILIES, "A3", a3._replace(pair=shifted))
    assert not _a2_a3_identity()
    report = set_relations_report(1000)
    for claim_id in ("A2-minus-A3-infinite", "A3-minus-A2-infinite", "A2-intersect-A3-infinite"):
        claim = report.claim(claim_id)
        assert claim.status == REFUTED, claim_id
        assert "A2-A3 line identity" in claim.detail, claim_id


def test_noether_zeros_find_whole_lines_and_single_members():
    # Family 3 gives K2 - (2*chi - 6) = (n-3)*(m*n-4): the odd line n = 3
    # lies on the Noether line, and n = 4 meets it at m = 1.
    k2_0, chi_0 = family3_pair(0, 3)
    k2_1, chi_1 = family3_pair(1, 3)
    n3 = geography._Line(3, 1, 5, k2_1 - k2_0, k2_0, chi_1 - chi_0, chi_0)
    n4 = dataclasses.replace(_lines("A3", 100)[0], m_first=1)
    assert _noether_zeros([n3, n4]) == ([n3], [(1, 4)])
    assert _noether_zeros(_lines("A3", 10**6)) == ([], [])
