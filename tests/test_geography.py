"""Set enumeration, admissibility, slopes, relations, lines and emitters."""

import math
from fractions import Fraction

import pytest

from _relations_oracle import admissible
from picardlab import geography
from picardlab.constructions import FAMILIES
from picardlab.geography import (
    RELAXED,
    REFUTED,
    VERIFIED,
    _lines,
    emit_figure,
    enumerate_set,
    set_relations_report,
    slope_limit_report,
)
from picardlab.polynomials import Poly


class TestEnumerate:
    def test_a1(self):
        assert [p.value for p in enumerate_set("A1", 31)] == [
            (1, 3), (9, 7), (25, 13), (49, 21), (81, 31),
        ]

    def test_b(self):
        assert [p.value for p in enumerate_set("B", 11)] == [(2, 4), (8, 7), (18, 11)]

    def test_t(self):
        assert [p.value for p in enumerate_set("T", 46)] == [(128, 46)]

    def test_sorted_by_chi_then_k2(self):
        pairs = enumerate_set("A2", 300)
        keys = [(p.chi, p.K2) for p in pairs]
        assert keys == sorted(keys)

    def test_bad_label(self):
        with pytest.raises(ValueError):
            enumerate_set("A4", 100)

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            enumerate_set("A1", 2)

    def test_every_pair_admissible(self):
        for label in ("A1", "A2", "A3", "B", "T"):
            for p in enumerate_set(label, 10_000):
                assert admissible(p.K2, p.chi), (label, p.value)


class TestAdmissible:
    def test_examples(self):
        # The oracle's admissibility test, which the enumeration and solver
        # tests use.
        assert admissible(1, 3)
        assert admissible(16, 11)  # lies on the Noether line
        assert admissible(1, 1)
        assert not admissible(19, 2)  # above the BMY line
        assert not admissible(0, 4)
        assert not admissible(1, 5)  # below the Noether line


class TestSlope:
    def test_a2_slopes_below_severi(self):
        for p in enumerate_set("A2", 2000):
            assert 4 * p.chi - p.K2 > 0
            m, n = dict(p.params)["m"], dict(p.params)["n"]
            assert 4 * p.chi - p.K2 == 4 * (m * n + n - 1)


class TestSlopeLimits:
    def test_identity_row_example(self):
        report = slope_limit_report(fixed_n=2, sweep_bound=3)
        row = report.rows[0]
        assert row.mu == Fraction(16, 11) == 4 + Fraction(4 * (1 - 2 - 6), 1 - 2 + 12)
        assert row.identity_ok
        assert report.symbolic_identity

    def test_identity_sweep(self):
        for n in range(2, 51, 2):
            report = slope_limit_report(fixed_n=n, sweep_bound=50)
            assert report.all_identities_hold

    def test_limit_fixed_n(self):
        report = slope_limit_report(fixed_n=2, sweep_bound=200)
        assert report.limit == 2
        assert report.final_gap == Fraction(6, 799)
        assert report.within_threshold  # default threshold 1/100

    def test_limit_fixed_m(self):
        report = slope_limit_report(fixed_m=3, sweep_bound=100, threshold=Fraction(1, 10))
        assert report.limit == 4
        assert report.final_gap == Fraction(1596, 29901)
        assert report.within_threshold

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            slope_limit_report(fixed_n=3, sweep_bound=10)
        with pytest.raises(ValueError):
            slope_limit_report(fixed_m=2, sweep_bound=10)
        with pytest.raises(ValueError):
            slope_limit_report(fixed_n=2, fixed_m=3, sweep_bound=10)

    @pytest.mark.parametrize("bad, text", [
        ({"threshold": 0.01}, "threshold must be an int or a Fraction, got 0.01"),
        ({"threshold": "1/100"}, "threshold must be an int or a Fraction, got '1/100'"),
        ({"sweep_bound": 6.0}, "sweep_bound must be an int, got 6.0"),
    ], ids=["float-threshold", "str-threshold", "float-sweep-bound"])
    def test_non_rational_inputs_are_refused_before_any_row(self, bad, text, monkeypatch):
        # A float or a string used to fail deep inside, past the checks.
        monkeypatch.setattr(geography, "_mu_closed_form", None)  # building a row would fail
        with pytest.raises(ValueError) as refused:
            slope_limit_report(**{"fixed_n": 4, "sweep_bound": 6, **bad})
        assert str(refused.value) == text


class TestLines:
    """The paper's line equations are the reference here: geography derives
    every line from the family table's pair and holds no equation of its own."""

    def test_family2_line(self):
        # n*K2 = 4*(n-1)*chi - 4*(n+1)*(n-1), an identity in (m, n).
        m, n = Poly.variable(0), Poly.variable(1)
        k2, chi = FAMILIES["A2"].pair(m, n)
        assert n * k2 == 4 * (n - 1) * chi - 4 * (n + 1) * (n - 1)

    def test_family3_line(self):
        # (n-1)*K2 = 4*(n-2)*chi - 4*n*(n-2), an identity in (m, n).
        m, n = Poly.variable(0), Poly.variable(1)
        k2, chi = FAMILIES["A3"].pair(m, n)
        assert (n - 1) * k2 == 4 * (n - 2) * chi - 4 * n * (n - 2)

    def test_sweeps(self):
        # Every line up to chi 10^6 has slope k2_step/chi_step below the
        # Severi slope 4, and its coefficients solve the paper's equation.
        # The paper's line at n as (a, b, c) with a*K2 = b*chi - c.
        for label, paper_line in (
            ("A2", lambda n: (n, 4 * (n - 1), 4 * (n + 1) * (n - 1))),
            ("A3", lambda n: (n - 1, 4 * (n - 2), 4 * n * (n - 2))),
        ):
            lines = list(_lines(label, 10**6))
            assert len(lines) > 100
            for n, (k2_step, k2_0, chi_step, chi_0), _ in lines:
                a, b, c = paper_line(n)
                assert 0 < k2_step < 4 * chi_step, (label, n)
                assert a * k2_step == b * chi_step, (label, n)
                assert a * k2_0 == b * chi_0 - c, (label, n)

    def test_parameter_checks(self):
        # The lines are those of the admissible n, in order, each with its
        # m from the family's minimum.
        for label in ("A2", "A3"):
            m_param, n_param = FAMILIES[label].params
            lines = list(_lines(label, 10**4))
            assert [n for n, _, _ in lines] == list(
                range(n_param.minimum, n_param.minimum + n_param.step * len(lines), n_param.step)
            )
            assert {ms.start for _, _, ms in lines} == {m_param.minimum}
            assert {ms.step for _, _, ms in lines} == {m_param.step}


@pytest.fixture(scope="module")
def report():
    return set_relations_report(500)


class TestSetRelations:
    def test_four_disjointness_claims_verified(self, report):
        for claim_id in ("A1-disjoint-B", "A2-disjoint-B", "A1-disjoint-A2", "A1-disjoint-A3"):
            assert report.claim(claim_id).status == VERIFIED

    def test_a3_b_overlap_detected(self, report):
        # (128, 46) sits in both families: m=3, n=6 on one side, n=11 on the
        # other.  The disjointness claim is therefore refuted by enumeration.
        claim = report.claim("A3-disjoint-B")
        assert claim.status == REFUTED
        assert (128, 46) in claim.witnesses

    def test_ingredients(self, report):
        for claim_id in ("B-half-K2-square", "A1-K2-odd", "A2-A3-K2-even", "A2-chi-odd"):
            assert report.claim(claim_id).status == VERIFIED

    def test_differences_infinite_at_desk_scale(self, report):
        assert report.claim("A2-minus-A3-infinite").status == VERIFIED
        assert report.claim("A3-minus-A2-infinite").status == VERIFIED

    def test_noether_slices(self, report):
        assert report.claim("A2-noether-slice").status == VERIFIED
        assert report.claim("A3-noether-empty").status == VERIFIED

    def test_t_audit(self, report):
        assert report.claim("T-subset-A3").status == VERIFIED
        audit = report.claim("T-subset-A2")
        assert audit.status == RELAXED
        t6 = next(w for w in audit.witnesses if w["t"] == 6)
        assert t6["witness"] == {"m": 2, "n": 5}
        assert t6["witness_value_matches"]
        assert not t6["witness_n_parity_ok"]
        assert not t6["witness_m_bound_ok"]
        assert not t6["in_A2_printed_constraints"]

    def test_overlap_claim_rests_on_relaxation(self, report):
        assert report.claim("A2-intersect-A3-infinite").status == RELAXED

    def test_json_shape(self, report):
        payload = report.to_json()
        assert payload["bound"] == 500
        assert all(
            set(c) == {"claim_id", "status", "detail", "witnesses"} for c in payload["claims"]
        )


def test_a2_k2_half_square_counterexample():
    # The perfect-square obstruction does not extend to the cover families:
    # m=5, n=2 gives K2 = 32 with K2/2 = 16 a perfect square.
    pairs = {p.params: p for p in enumerate_set("A2", 20)}
    p = pairs[(("m", 5), ("n", 2))]
    assert p.value == (32, 19)
    assert math.isqrt(p.K2 // 2) ** 2 == p.K2 // 2


class TestEmit:
    def test_csv_rows_match_enumeration(self):
        text = emit_figure(["A1"], 31, "CSV")
        lines = text.strip().split("\n")
        assert lines[0] == "set_label,params,K2,chi,slope_num,slope_den"
        assert len(lines) - 1 == 5
        assert lines[1] == "A1,n=2,1,3,1,3"

    def test_svg_marker_counts(self):
        svg = emit_figure(["A2", "A3"], 200, "SVG")
        assert svg.count('data-set="A2"') == len(enumerate_set("A2", 200))
        assert svg.count('data-set="A3"') == len(enumerate_set("A3", 200))
        for line in ("noether", "severi", "bmy"):
            assert f'class="{line}"' in svg

    def test_svg_panel_count_in_range(self):
        for chi_max in (31, 200, 2000, 10_000):
            svg = emit_figure(["A1"], chi_max, "SVG")
            assert 2 <= svg.count('class="panel"') <= 4

    def test_empty_set_list_is_lines_only(self):
        svg = emit_figure([], 100, "SVG")
        assert "data-set" not in svg
        assert 'class="severi"' in svg

    def test_deterministic(self):
        a = emit_figure(["A1", "B"], 120, "SVG")
        b = emit_figure(["A1", "B"], 120, "SVG")
        assert a == b
        assert emit_figure(["A1"], 120, "CSV") == emit_figure(["A1"], 120, "CSV")

    def test_unknown_format(self, monkeypatch):
        with pytest.raises(ValueError):
            emit_figure(["A1"], 100, "PDF")

        def refuse(labels, chi_max):
            raise AssertionError("enumerated before the format was checked")

        monkeypatch.setattr(geography, "pair_runs", refuse)
        with pytest.raises(ValueError, match=r"unknown format 'PDF' \(expected SVG or CSV\)"):
            emit_figure(["A2"], 10**6, "PDF")

    def test_unknown_set(self):
        with pytest.raises(ValueError):
            emit_figure(["Z9"], 100, "SVG")
        with pytest.raises(ValueError, match="'X'"):
            emit_figure(["A1", "X"], 50, "SVG")
