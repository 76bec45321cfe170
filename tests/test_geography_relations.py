"""The closed-form set-relations report against the enumeration oracle."""

from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _relations_oracle import admissible, brute_force_set, enumerated_sets, oracle_report, restrict
from picardlab import geography
from picardlab.cli import main
from picardlab.constructions import FAMILIES, Param, family2_pair, family3_pair
from picardlab.figures import _WINDOW, figure_svg
from picardlab.geography import (
    REFUTED,
    SET_LABELS,
    _identities,
    _lines,
    emit_figure,
    enumerate_set,
    pair_runs,
    set_relations_report,
    slope_limit_report,
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


def _params_str(pair):
    return " ".join(f"{k}={v}" for k, v in pair.params)


def _listed_csv(sets):
    """The table as it was built before the emitters streamed: every row
    listed, then sorted on (chi, K2, label, params, slope)."""
    rows = []
    for pairs in sets.values():
        for p in pairs:
            mu = Fraction(p.K2, p.chi)
            rows.append((p.chi, p.K2, p.set_label, _params_str(p), mu.numerator, mu.denominator))
    rows.sort()
    lines = ["set_label,params,K2,chi,slope_num,slope_den"]
    lines += [f"{label},{params},{k2},{chi},{num},{den}" for chi, k2, label, params, num, den in rows]
    return "\n".join(lines) + "\n"


class _ListedRun:
    """One run over a set's sorted list, scanned in full for every query,
    as the panels did before the emitters read per-line runs."""

    def __init__(self, pairs):
        self.pairs = pairs

    def first_chi(self, lo):
        return next((p.chi for p in self.pairs if p.chi >= lo), None)

    def points(self, lo, hi):
        return [(p.chi, p.K2) for p in self.pairs if lo <= p.chi <= hi]


def _listed_runs(sets):
    return {label: [_ListedRun(pairs)] for label, pairs in sets.items()}


@pytest.mark.parametrize("chi_max", [_WINDOW - 1, _WINDOW, _WINDOW + 1, 2 * _WINDOW + 1, 20_000])
@pytest.mark.parametrize("labels", [SET_LABELS, ("A3", "B", "T")])
def test_streamed_emitters_match_a_list_and_sort_reference(labels, chi_max):
    # A3 and T share every T pair and A3 and B share (128, 46), so ties on
    # (chi, K2) are broken by the label, well past the 1,000 golden files.
    # The bounds around the emitters' window width put a window edge at and
    # next to chi_max.
    sets = {label: brute_force_set(label, chi_max) for label in labels}
    assert emit_figure(list(labels), chi_max, "CSV") == _listed_csv(sets)
    assert emit_figure(list(labels), chi_max, "SVG") == figure_svg(_listed_runs(sets), chi_max)


def test_report_enumerates_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("set_relations_report must not enumerate")

    monkeypatch.setattr(geography, "enumerate_set", refuse)
    report = set_relations_report(10**7)
    assert report.claim("A3-disjoint-B").witnesses == ((128, 46),)


@pytest.mark.parametrize("label", ["A2", "A3"])
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
            (chi_step * m + chi_0, k2_step * m + k2_0, m, n)
            for n, (k2_step, k2_0, chi_step, chi_0), ms in _lines(label, 5000)
            for m in ms
        )
        enumerated = [
            (p.chi, p.K2, *(v for _, v in p.params)) for p in brute_force_set(label, 5000)
        ]
        assert on_lines == enumerated


def test_line_windows_match_a_scan():
    # Every run of every family, a line's ranges or a one-parameter family's
    # lists, against a scan of its brute-force members: first_chi, points
    # and csv_rows for lo below the first member, on and between members and
    # past the last, and for empty windows (hi below lo, or between members).
    chi_max = 3000
    members = {}
    for label in SET_LABELS:
        for p in brute_force_set(label, chi_max):
            n = p.params[1][1] if len(p.params) == 2 else None
            mu = Fraction(p.K2, p.chi)
            line = f"{label},{_params_str(p)},{p.K2},{p.chi},{mu.numerator},{mu.denominator}\n"
            members.setdefault((label, n), []).append((p.chi, p.K2, line))
    runs = [run for runs in pair_runs(SET_LABELS, chi_max).values() for run in runs]
    assert sorted((run.label, run.n) for run in runs) == sorted(members)
    assert {type(run.chis) for run in runs} == {range, list}
    for run in runs:
        rows = members[run.label, run.n]
        chis = [chi for chi, _, _ in rows]
        los = {1, chis[0] - 1, chis[-1] + 1, chis[-1] + 1000}
        los.update(lo for chi in chis for lo in (chi, chi + 1))
        for lo in los:
            expected = next((chi for chi in chis if chi >= lo), None)
            assert run.first_chi(lo) == expected, (run.label, run.n, lo)
            for hi in (lo - 1, lo, lo + 1, lo + 100, chi_max + 1000):
                window = [row for row in rows if lo <= row[0] <= hi]
                assert run.csv_rows(lo, hi) == window, (run.label, run.n, lo, hi)
                assert run.points(lo, hi) == [(chi, k2) for chi, k2, _ in window]


@pytest.mark.parametrize("label, other", [("A2", "A3"), ("A3", "A2")])
def test_claim_counts_match_enumeration_at_line_starts(label, other):
    # The count of the "infinite" claim adds up the lines' ranges of m; at
    # each line's first chi the count steps up, and one below it it has not.
    for _, (_, _, chi_step, chi_0), ms in _lines(label, 20_000):
        first = chi_step * ms.start + chi_0
        for bound in (first - 1, first):
            detail = set_relations_report(bound).claim(f"{label}-minus-{other}-infinite").detail
            count = len(enumerate_set(label, bound))
            expected = f"{count} members, first" if count else "no members within the bound"
            assert detail.startswith(expected), (label, bound, detail)


def test_only_dividing_line_pairs_can_meet():
    # Every pair of lines up to chi 20,000, solved by elimination of its own,
    # meets at the solution that the identity A2-A3-lines certifies for all
    # (n2, n3): m2 = n3/n2 and m3 = 2*n2/n3.  m2 is an integer only where n2
    # divides n3, and m2, m3 are never both within the families.
    assert _identities()[0]["A2-A3-lines"]
    a2, a3 = list(_lines("A2", 20_000)), list(_lines("A3", 20_000))
    for n2, (k2_2, k2_20, chi_2, chi_20), ms2 in a2:
        for n3, (k2_3, k2_30, chi_3, chi_30), ms3 in a3:
            # chi: a*m2 - b*m3 = e and K2: c*m2 - d*m3 = f, by elimination.
            a, b, e = chi_2, chi_3, chi_30 - chi_20
            c, d, f = k2_2, k2_3, k2_30 - k2_20
            m3 = (f - Fraction(c * e, a)) / (Fraction(c * b, a) - d)
            m2 = (e + b * m3) / a
            assert (m2, m3) == (Fraction(n3, n2), Fraction(2 * n2, n3))
            assert not (m2 >= ms2.start and m3 >= ms3.start)


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
    # A mutated family must not leave its verdicts cached for later tests.
    _identities.cache_clear()
    yield
    _identities.cache_clear()


def test_identity_is_checked_once_per_process(fresh_identity):
    set_relations_report(1000)
    set_relations_report(10_000)
    assert _identities.cache_info().misses == 1


def test_a_wrong_family_breaks_the_identity(monkeypatch, fresh_identity):
    # Adding 2n to A3's K2 moves its lines, so the certified solution fails
    # and the three claims that rest on it are refuted, naming the identity.
    # A2-windows holds, so A2-minus-A3 names A2-A3-lines too.
    a3 = FAMILIES["A3"]

    def shifted(m, n):
        k2, chi = a3.pair(m, n)
        return k2 + 2 * n, chi

    monkeypatch.setitem(FAMILIES, "A3", a3._replace(pair=shifted))
    assert not _identities()[0]["A2-A3-lines"]
    report = set_relations_report(1000)
    for claim_id in ("A2-minus-A3-infinite", "A3-minus-A2-infinite", "A2-intersect-A3-infinite"):
        claim = report.claim(claim_id)
        assert claim.status == REFUTED, claim_id
        assert "identity A2-A3-lines fails" in claim.detail, claim_id


def test_claim_i_walks_no_a1_or_b_member(monkeypatch):
    # Claim i) and its ingredients rest on identities; only T is walked.
    original = geography._member_run

    def refuse(label, chi_max):
        if label in ("A1", "B"):
            raise AssertionError(f"set_relations_report walked {label}")
        return original(label, chi_max)

    monkeypatch.setattr(geography, "_member_run", refuse)
    report = set_relations_report(10**7)
    assert report.claim("A3-disjoint-B").witnesses == ((128, 46),)
    assert report.claim("A2-disjoint-B").status == geography.VERIFIED


def test_b_shares_exactly_one_pair_with_a3():
    holds, shared = _identities()
    assert all(holds.values())
    assert shared == {"A2": (), "A3": ((128, 46),)}
    assert FAMILIES["A3"].pair(3, 6) == FAMILIES["B"].pair(11) == (128, 46)
    # A2's root n = (k-1)/2 has m = 2, one below A2's minimum: the pair is
    # real, so lowering the minimum to 2 must refute A2-disjoint-B.
    assert family2_pair(2, 2) == FAMILIES["B"].pair(5) == (8, 7)
    for chi_max in (45, 46):
        witnesses = set_relations_report(chi_max).claim("A3-disjoint-B").witnesses
        assert witnesses == (((128, 46),) if chi_max >= 46 else ())


def _shifted_pair(label, shift):
    family = FAMILIES[label]
    return family._replace(pair=lambda *v: tuple(map(sum, zip(family.pair(*v), shift(*v)))))


# Each mutation, the claims it must refute and the identity they must name.
_MUTATIONS = {
    "A1 K2 + 1": (
        "A1", lambda: _shifted_pair("A1", lambda n: (1, 0)),
        {"A1-disjoint-B": "A1-K2-odd", "A1-disjoint-A2": "A1-K2-odd",
         "A1-disjoint-A3": "A1-K2-odd", "A1-K2-odd": None},
    ),
    "B K2 + 2": (
        "B", lambda: _shifted_pair("B", lambda n: (2, 0)),
        {"A1-disjoint-B": "B-half-K2-square", "A2-disjoint-B": "A2-B-roots",
         "A3-disjoint-B": "A3-B-roots", "B-half-K2-square": None},
    ),
    "A3 K2 + 2n": (
        "A3", lambda: _shifted_pair("A3", lambda m, n: (2 * n, 0)),
        {"A3-disjoint-B": "A3-B-roots", "T-subset-A3": "T-in-A3",
         "A2-minus-A3-infinite": "A2-A3-lines", "A3-minus-A2-infinite": "A2-A3-lines",
         "A2-intersect-A3-infinite": "A2-A3-lines"},
    ),
    "A2 m >= 2": (
        "A2", lambda: FAMILIES["A2"]._replace(params=(Param("m", 2, 1), Param("n", 2, 2))),
        {"A2-disjoint-B": "A2-B-roots"},
    ),
    # A2 then has no member on the Noether line, so its slice is not n = 2.
    "A2 n >= 4": (
        "A2", lambda: FAMILIES["A2"]._replace(params=(Param("m", 3, 1), Param("n", 4, 2))),
        {"A2-noether-slice": "A2-noether-n2"},
    ),
    # (m, n) = (1, 4) gives (8, 7), on the Noether line and a B pair.
    "A3 m >= 1": (
        "A3", lambda: FAMILIES["A3"]._replace(params=(Param("m", 1, 1), Param("n", 4, 2))),
        {"A3-disjoint-B": "A3-B-roots", "A3-noether-empty": "A3-noether-positive"},
    ),
    # The line n = 3 is (6m - 4, 3m + 1), all on the Noether line; it meets B
    # at (8, 7) and A2's line n = 2 at (32, 19), where (m, n) = (5, 2).
    "A3 n >= 3, step 1": (
        "A3", lambda: FAMILIES["A3"]._replace(params=(Param("m", 2, 1), Param("n", 3, 1))),
        {"A3-disjoint-B": None, "A3-noether-empty": "A3-noether-positive",
         "A2-minus-A3-infinite": "A2-A3-lines", "A3-minus-A2-infinite": "A2-A3-lines",
         "A2-intersect-A3-infinite": "A2-A3-lines"},
    ),
    # The first line (n = 4) starts at chi = 1 and steps by 6: the window
    # [2, 4] holds no A3 pair.
    "A3 m >= 0": (
        "A3", lambda: FAMILIES["A3"]._replace(params=(Param("m", 0, 1), Param("n", 4, 2))),
        {"A3-disjoint-B": "A3-B-roots", "A3-minus-A2-infinite": "A3-windows",
         "A2-minus-A3-infinite": "A2-A3-lines", "A3-noether-empty": "A3-noether-positive",
         "A2-intersect-A3-infinite": "A2-A3-lines"},
    ),
    # A3's pair is unchanged, so T's pair is still A3's at (t-3, t), but
    # t = 8, 12, ... is then no n of A3: only the domain half of T-in-A3 fails.
    "A3 n = 6 + 4k": (
        "A3", lambda: FAMILIES["A3"]._replace(params=(Param("m", 2, 1), Param("n", 6, 4))),
        {"T-subset-A3": "T-in-A3"},
    ),
    # T's pair is then neither A3's at (t-3, t) nor A2's at (t/2-1, t-1).
    "T K2 + 2": (
        "T", lambda: _shifted_pair("T", lambda t: (2, 0)),
        {"T-subset-A3": "T-in-A3", "T-subset-A2": None},
    ),
}


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
def test_a_wrong_family_refutes_the_claims_on_its_identities(monkeypatch, fresh_identity, mutation):
    label, mutated, refuted = _MUTATIONS[mutation]
    before = set_relations_report(1000)
    _identities.cache_clear()
    monkeypatch.setitem(FAMILIES, label, mutated())
    report = set_relations_report(1000)
    for claim_id, identity in refuted.items():
        claim = report.claim(claim_id)
        assert claim.status == REFUTED, (mutation, claim_id)
        if identity is not None:
            assert f"identity {identity} fails" in claim.detail, (mutation, claim_id)
            assert claim.witnesses == ()
    # Every other claim keeps its verdict.
    for claim in before.claims:
        if claim.claim_id not in refuted:
            assert report.claim(claim.claim_id).status == claim.status, (mutation, claim.claim_id)


def test_a_wrong_family_2_fails_the_symbolic_slope_identity(monkeypatch, capsys, fresh_identity):
    # K2 + 2 breaks K2 = 4*chi + 4*(1 - n - m*n) in every row and as a
    # polynomial identity, so the slopes command exits 1.
    monkeypatch.setitem(FAMILIES, "A2", _shifted_pair("A2", lambda m, n: (2, 0)))
    report = slope_limit_report(fixed_m=3, sweep_bound=10)
    assert not report.symbolic_identity
    assert not report.all_identities_hold
    assert main(["slopes", "--fix", "m=3", "--n-max", "10"]) == 1
    assert "closed-form slope identity (symbolic): BAD\n" in capsys.readouterr().out


def _member_facts(label, values):
    """The polynomial entries of _identities about the family's member at
    values, each evaluated there in plain ints from the paper's formulas."""
    k2, chi = FAMILIES[label].pair(*values)
    if label == "A1":
        return {"A1-K2-odd": k2 % 2 == 1}
    if label == "B":
        (k,) = values
        return {"B-half-K2-square": k2 == 2 * (k - 3) ** 2}
    if label == "T":
        (t,) = values
        a2, a3 = FAMILIES["A2"], FAMILIES["A3"]
        return {
            "T-in-A3": a3.admits(t - 3, t) and a3.pair(t - 3, t) == (k2, chi),
            "T-A2-substitution": a2.pair(t // 2 - 1, t - 1) == (k2, chi),
        }
    m, n = values
    facts = {"A2-A3-K2-even": k2 % 2 == 0}
    if label == "A2":
        facts["A2-chi-odd"] = chi % 2 == 1
        facts["A2-slope-gap"] = k2 == 4 * chi + 4 * (1 - n - m * n)
    return facts


@settings(max_examples=300, deadline=None, database=None)
@given(st.sampled_from(SET_LABELS), st.integers(0, 10**6), st.integers(0, 10**6))
def test_every_identity_that_holds_is_true_at_a_member(label, i, j):
    # Soundness of the table: an entry reported as holding for every member
    # holds at a drawn one.  (The cache is the real families': the tests that
    # mutate a family clear it before and after.)
    holds, _ = _identities()
    params = FAMILIES[label].params
    values = [p.minimum + p.step * s for p, s in zip(params, (i, j))]
    for name, true in _member_facts(label, values).items():
        assert true or not holds[name], (name, label, values)
