"""The family pipeline rows, the builder that reads them and their
certificates."""

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import _build_oracle
from picardlab import cli, constructions, covers, curves, singularities
from picardlab.constructions import (
    FAMILIES,
    ConstructionReport,
    DoubleBranchPoint,
    Param,
    ParameterError,
    build,
    build_theorem1,
    build_theorem2,
    build_theorem3,
)
from picardlab.covers import (
    BidoubleCoverData,
    DoubleCoverData,
    SurfaceInvariants,
    formulas,
    pullback,
    validate_bidouble,
    validate_double,
)
from picardlab.curves import singular_points_report
from picardlab.geography import slope_limit_report
from picardlab.polynomials import Poly, domain_variables
from picardlab.singularities import A, D, BidoubleBranchPoint, SingInventory, SingType
from picardlab.surfaces import compose, half, hirzebruch, plus, projective_plane


class TestClosedForms:
    def test_examples(self):
        assert FAMILIES["A1"].pair(2) == (1, 3)
        assert FAMILIES["A2"].pair(3, 2) == (16, 11)
        assert FAMILIES["A3"].pair(2, 4) == (24, 13)

    def test_constraints_named(self):
        with pytest.raises(ParameterError, match="n >= 2"):
            build(1, n=1)
        with pytest.raises(ParameterError, match="even"):
            build(2, m=3, n=3)
        with pytest.raises(ParameterError, match="m >= 3"):
            build(2, m=2, n=2)
        with pytest.raises(ParameterError, match="n even and >= 4"):
            build(3, m=2, n=2)
        with pytest.raises(ParameterError, match="unknown theorem id"):
            build(4, n=2)

    def test_non_int_parameters_are_refused_before_any_work(self):
        # An integral float or Fraction lies on the domain's values but is no
        # member: the domain test refuses it, with the domain's usual text,
        # instead of the build failing deep inside on a float.
        refusals = [
            (lambda: build(3, m=2, n=4.0), "family 3 needs n even and >= 4, got n=4.0"),
            (lambda: build(2, m=4.0, n=2), "family 2 needs m >= 3, got m=4.0"),
            (lambda: build(1, n=2.5), "family 1 needs n >= 2, got n=2.5"),
            (lambda: build(2, m=Fraction(7, 2), n=2), "family 2 needs m >= 3, got m=7/2"),
        ]
        for call, text in refusals:
            with pytest.raises(ParameterError) as info:
                call()
            assert str(info.value) == text
        with pytest.raises(ValueError) as info:
            slope_limit_report(fixed_n=4.0, sweep_bound=6)
        assert type(info.value) is ValueError
        assert str(info.value) == "fixed n must be even and >= 2, got 4.0"


class TestFamily1:
    def test_n2(self):
        r = build_theorem1(2)
        assert (r.computed.K2, r.computed.chi) == (1, 3)
        assert r.cover_inventory == SingInventory.from_counts({D(4): 4, A(3): 4})
        assert r.picard_lower == r.h11 == 29
        assert r.match and r.ample and r.maximal

    def test_n3(self):
        r = build_theorem1(3)
        assert (r.computed.K2, r.computed.chi) == (9, 7)
        assert r.cover_inventory == SingInventory.from_counts({D(5): 6, A(5): 6})
        assert r.picard_lower == 61 == 10 * 7 - 9 == r.h11

    def test_n1_rejected(self):
        with pytest.raises(ParameterError):
            build_theorem1(1)

    def test_sweep_certifies(self):
        for n in range(2, 13):
            r = build_theorem1(n)
            assert r.match and r.ample and r.maximal
            assert r.computed.p_g == n * n - n
            assert r.computed.q == 0
            assert r.picard_lower == 6 * n * n + 2 * n + 1
            assert validate_bidouble(r.building_data) == []


class TestFamily2:
    def test_m3_n2(self):
        r = build_theorem2(3, 2)
        assert (r.computed.K2, r.computed.chi) == (16, 11)
        assert r.cover_inventory == SingInventory.from_counts({D(4): 12, A(11): 4})
        assert r.picard_lower == 94 == r.h11
        assert r.maximal and r.match and r.ample

    def test_m4_n2(self):
        r = build_theorem2(4, 2)
        assert (r.computed.K2, r.computed.chi) == (24, 15)
        assert r.cover_inventory == SingInventory.from_counts({D(4): 16, A(15): 4})
        assert r.picard_lower == 126 == 150 - 24

    def test_odd_n_rejected(self):
        with pytest.raises(ParameterError):
            build_theorem2(3, 3)

    def test_small_m_rejected(self):
        with pytest.raises(ParameterError):
            build_theorem2(2, 2)

    def test_parity_split_same_closed_forms(self):
        for m in range(3, 9):
            for n in (2, 4, 6):
                r = build_theorem2(m, n)
                assert r.match and r.ample and r.maximal
                assert r.computed.p_g == m * n * n - n
                assert r.computed.q == 0
                assert r.cover_inventory == SingInventory.from_counts(
                    {D(n + 2): 2 * m * n, A(2 * m * n - 1): 2 * n}
                )
                assert r.picard_lower == 6 * m * n * n + (4 * m - 2) * n + 2
                assert validate_bidouble(r.building_data) == []

    def test_even_and_odd_branch_data_shapes(self):
        even = build_theorem2(4, 2).building_data
        odd = build_theorem2(3, 2).building_data
        assert isinstance(even, BidoubleCoverData) and not any(even.B1.coeffs)
        assert odd.B1 == hirzebruch(3).divisor(0, 1) == odd.B2


class TestFamily3:
    def test_m2_n4(self):
        r = build_theorem3(2, 4)
        assert (r.computed.K2, r.computed.chi) == (24, 13)
        assert r.cover_inventory == SingInventory.from_counts({D(10): 8, A(3): 8})
        assert r.picard_lower == 106 == 130 - 24 == r.h11

    def test_m3_n4(self):
        r = build_theorem3(3, 4)
        assert (r.computed.K2, r.computed.chi) == (40, 19)
        assert r.cover_inventory == SingInventory.from_counts({D(14): 8, A(3): 12})
        assert r.picard_lower == 150 == r.h11

    def test_n2_rejected(self):
        with pytest.raises(ParameterError):
            build_theorem3(2, 2)

    def test_sweep_certifies(self):
        for m in range(2, 9):
            for n in (4, 6, 8):
                r = build_theorem3(m, n)
                assert r.match and r.ample and r.maximal
                assert r.computed.p_g == m * n * (n - 1) // 2
                assert r.computed.q == 0
                assert r.cover_inventory == SingInventory.from_counts(
                    {D(m * n + 2): 2 * n, A(n - 1): m * n}
                )
                assert r.picard_lower == 3 * m * n * n + (4 - m) * n + 2
                assert validate_double(r.building_data) == []


class TestDispatch:
    def test_build_routes(self):
        assert build(1, n=2).theorem == 1
        assert build(2, m=3, n=2).theorem == 2
        assert build(3, m=2, n=4).theorem == 3
        with pytest.raises(ParameterError):
            build(1, n=2, m=3)
        with pytest.raises(ParameterError):
            build(2, n=2)
        with pytest.raises(ParameterError):
            build(9, n=2)


def test_branch_scenarios_match_curve_lab_counts():
    # The annotated plane scenario must agree with the curve report: n contact
    # points per coordinate line, local type A_{n-1}, transversal.
    for n in (2, 3, 4):
        report = singular_points_report(n)
        assert report.ok
        r = build_theorem1(n)
        a_points = [p for p in r.branch_points if p.sing == A(n - 1)]
        assert sum(p.count for p in a_points) == 2 * n  # points on the lines in B1, B2
        d_points = [p for p in r.branch_points if p.sing == D(n + 2)]
        assert sum(p.count for p in d_points) == n  # merged with the line inside B3


def test_branch_inventories():
    assert build_theorem1(2).branch_inventory == SingInventory.from_counts({D(4): 6})
    assert build_theorem2(3, 2).branch_inventory == SingInventory.from_counts(
        {D(4): 6, D(8): 4}
    )
    assert build_theorem3(2, 4).branch_inventory == SingInventory.from_counts(
        {D(10): 8, A(3): 8}
    )


def test_report_json_round_trip():
    r = build_theorem2(3, 2)
    payload = r.to_json()
    text = json.dumps(payload, indent=2, sort_keys=True)
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text
    assert payload["computed"]["K2"] == 16
    assert payload["cover_inventory"] == [
        {"family": "A", "index": 11, "count": 4},
        {"family": "D", "index": 4, "count": 12},
    ]
    assert payload["building_data"]["type"] == "bidouble"


def _hand_made_reports():
    """Reports built field by field, with the shapes no pipeline makes."""
    f3, plane = hirzebruch(3), projective_plane()
    bidouble = BidoubleCoverData(
        f3,
        L1=f3.divisor(3, 8), L2=f3.divisor(-3, 8), L3=f3.divisor(0, 1),
        B1=f3.zero(), B2=f3.divisor(0, 2), B3=f3.divisor(6, 15),
    )
    bidouble_points = (
        BidoubleBranchPoint(carrier=1, sing=None, meets=2, contact=3, count=4),
        BidoubleBranchPoint(carrier=3, sing=D(5), meets=None, count=1),
        BidoubleBranchPoint(carrier=2, sing=A(2), meets=3, count=12345678901234567890),
    )
    double = DoubleCoverData(plane, L=plane.divisor(-2), B=plane.divisor(-4))
    double_points = (
        DoubleBranchPoint(A(1), 2, 'a "quoted" origin\\ with é, \u2028 and \U0001d11e\n'),
        DoubleBranchPoint(D(4), 1, ""),
    )
    invariants = SurfaceInvariants(K2=-7, chi=3, p_g=2, q=0, h11=37)
    common = dict(
        computed=invariants, closed_form=(-7, 3), n_indep=2, picard_lower=0, h11=37
    )
    return [
        ConstructionReport(
            2, (("n", 4), ("m", -3)), f3, bidouble, bidouble_points,
            SingInventory(), SingInventory.from_counts({A(11): 4, D(4): 12}),
            ample=True, maximal=False, match=True, **common,
        ),
        ConstructionReport(
            3, (), plane, double, double_points,
            SingInventory.from_counts({SingType("E", 8): 1}), SingInventory(),
            ample=False, maximal=True, match=False, **common,
        ),
        ConstructionReport(
            1, (("n\u00e9\"", 2),), plane, double, (), SingInventory(), SingInventory(),
            ample=False, maximal=False, match=False, **common,
        ),
    ]


@pytest.mark.parametrize("pad", ["", "    "])
def test_report_json_text_is_json_dumps_of_to_json(pad):
    reports = _hand_made_reports() + [build_theorem1(3), build_theorem2(4, 2), build_theorem3(3, 6)]
    for report in reports:
        expected = json.dumps(report.to_json(), indent=2, sort_keys=True)
        assert report.to_json_text(pad) == expected.replace("\n", "\n" + pad)


def test_reports_are_immutable():
    report = build_theorem2(3, 2)
    with pytest.raises(AttributeError):
        report.maximal = False
    assert report.maximal


def _patch_pipeline(monkeypatch, theorem, row):
    """Replace a theorem family's row function where build looks it up."""
    family = constructions.THEOREMS[theorem]
    patched = family._replace(pipeline=row)
    monkeypatch.setitem(constructions.THEOREMS, theorem, patched)
    monkeypatch.setitem(constructions.FAMILIES, family.label, patched)


def test_build_rejects_inconsistent_building_data(monkeypatch):
    # With B1 = B2 = 0 the derived L3 = (B1 + B2)/2 is the trivial class.
    _patch_pipeline(monkeypatch, 2, lambda m: ((0, 0, 0, 0), (0, 0, 0, 0), (0, 1, 1, 1)))
    with pytest.raises(ParameterError, match=r"^assembled building data is invalid: L3 is the trivial class"):
        build(2, m=4, n=2)


def test_a_seed_with_too_few_points_per_line_fails_the_transport_check(monkeypatch):
    seed = constructions._certified_seed

    def short(n):
        sing, per_line = seed(n)
        return sing, per_line - 1

    monkeypatch.setattr(constructions, "_certified_seed", short)
    with pytest.raises(ParameterError, match=r"^transport: line\.curve = 8, expected 6$"):
        build(1, n=4)


def test_family2_without_the_section_in_b3_is_refused(monkeypatch):
    rows = constructions.THEOREMS[2].pipeline
    _patch_pipeline(monkeypatch, 2, lambda m: rows(m)[:2] + ((0, 0, 1, 1),))
    for m in (3, 4):
        with pytest.raises(ParameterError, match=r"^validate: B2 \+ B3 = .* is not twice a class"):
            build(2, m=m, n=2)


def test_family2_even_row_at_odd_m_is_refused(monkeypatch):
    _patch_pipeline(monkeypatch, 2, lambda m: ((0, 0, 0, 0), (2, 0, 0, 0), (0, 1, 1, 1)))
    r = build(2, m=4, n=2)
    assert r.match and r.ample and r.maximal
    with pytest.raises(ParameterError, match=r"^validate: B2 \+ B3 = .* is not twice a class"):
        build(2, m=3, n=2)


def test_family1_is_the_family2_row_on_the_plane():
    # One row function; the base follows from the parameters alone.
    assert constructions.THEOREMS[1].pipeline is constructions.THEOREMS[2].pipeline
    assert build(1, n=3).base.kind == "P2"
    assert build(2, m=3, n=2).base.kind == "F"


def _ring_identity(label, row, params):
    """Whether the ring layer, fed the row as _build feeds it, gives the
    family's closed-form (K2, chi) on the whole domain of params, the
    parameters shifted onto it by domain_variables: every halved class is
    even in every coefficient, and the pairs agree as polynomials.  A family
    with an m parameter lives on F_m after the cyclic cover, family 1 on the
    plane."""
    values = domain_variables(params)
    if len(params) == 2:
        m, n = values
        e, line, section, third = m, (0, 1), (1, 0), pullback((1, 1), m)
    else:
        (n,) = values
        e, line, section, third = 0, (1,), (0,), (1,)
    curve = compose((2 * n,), (third,))
    branch = [compose(mults, (line, section, third, curve)) for mults in row]
    if len(branch) == 3:
        B1, B2, B3 = branch
        sums = [plus(B2, B3), plus(B1, B3)]
    else:
        sums = branch
    if not all(c.multiple_of(2) if isinstance(c, Poly) else c % 2 == 0 for u in sums for c in u):
        return False
    if len(branch) == 3:
        L1, L2 = (tuple(map(half, u)) for u in sums)
        L3 = compose((1, 1, -1), (L1, L2, B3))
        K2, chi, _, _ = formulas(e, (L1, L2, L3), (B1, B2, B3))
    else:
        K2, chi, _, _ = formulas(e, (tuple(map(half, branch[0])),), tuple(branch))
    return (K2, chi) == FAMILIES[label].pair(*values)


# Each family's domain, split by the parity of m where its row depends on
# it, with the row at the smallest m of the part.
_RING_CASES = {
    "family 1": ("A1", (Param("n", 2, 1),), 1),
    "family 2, odd m": ("A2", (Param("m", 3, 2), Param("n", 2, 2)), 3),
    "family 2, even m": ("A2", (Param("m", 4, 2), Param("n", 2, 2)), 4),
    "family 3": ("A3", (Param("m", 2, 1), Param("n", 4, 2)), 2),
}


@pytest.mark.parametrize("case", sorted(_RING_CASES))
def test_the_ring_layer_gives_the_closed_forms_as_identities(case):
    label, params, m = _RING_CASES[case]
    row = FAMILIES[label].pipeline(m)
    assert _ring_identity(label, row, params)
    # One multiplicity more or less in any entry breaks an identity: a
    # halving turns odd, or K2 or chi differ from the closed form.  The
    # plane's negative section is zero, so its column is left out there.
    for i, mults in enumerate(row):
        for j in range(4) if len(params) == 2 else (0, 2, 3):
            for step in (-1, 1, 2):
                wrong = list(map(list, row))
                wrong[i][j] += step
                if wrong[i][j] >= 0:
                    assert not _ring_identity(label, wrong, params), (case, wrong)


def _placements(rows, m=4, n=4):
    """The branch points that the build places for family 3's rows at (m, n),
    as (type, count, origin)."""
    numbers = constructions._derive(
        rows, constructions._layout(rows), m, n, *constructions._certified_seed(n)
    )
    return [(f"{family}{index}", count, constructions._ORIGINS[placement])
            for (family, index), _, count, placement in numbers[5]]


def test_placements_follow_the_row(monkeypatch):
    # Family 3's lines carry 8 points of type A15 at (m, n) = (4, 4) and its
    # third line 16 of type A3.  A row that puts the third line in the
    # curve's divisor joins its points as D points; one that holds neither
    # line keeps the lines' points away from the branch divisor.  Neither
    # row halves on every m, so the build refuses both.
    joined, kept = constructions._ORIGINS["join"], constructions._ORIGINS["keep"]
    report = build(3, m=4, n=4)
    assert [(str(p.sing), p.count, p.origin) for p in report.branch_points] == _placements(
        constructions.THEOREMS[3].pipeline(4)
    ) == [("D18", 8, joined), ("A3", 16, kept)]
    for rows, placements in (
        (((2, 1, 1, 1),), [("D18", 8, joined), ("D6", 16, joined)]),
        (((0, 1, 1, 1),), [("D6", 16, joined), ("A15", 8, kept)]),
    ):
        assert _placements(rows) == placements
        _patch_pipeline(monkeypatch, 3, lambda m, rows=rows: rows)
        with pytest.raises(ParameterError, match=r"^validate: on the class of this member, "
                           r"though not at the member: B = .* is not twice a class$"):
            build(3, m=4, n=4)


def test_transport_checks_survive_python_O():
    # The mutated pullback keeps the F coefficient of the pulled-back class,
    # so the third line no longer meets the curve in 2mn points.  Under -O
    # an assert would be gone; the check must still raise.
    script = (
        "from picardlab import constructions\n"
        "from picardlab.constructions import ParameterError, build\n"
        "print('debug', __debug__)\n"
        "constructions.pullback = lambda u, degree: u\n"
        "try:\n"
        "    build(2, m=3, n=2)\n"
        "except ParameterError as exc:\n"
        "    print(exc)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(constructions.__file__).parents[1])),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "debug False\ntransport: third.curve = -4, expected 12\n"


def test_each_union_type_is_built_once(monkeypatch):
    # One union type per joined batch and per meeting point: the D points on
    # the third line and the two line points, which meet B1 and B2 for odd m
    # (family 1 is m = 1) and B2 twice for even m.  The branch and cover
    # inventories share them.  The class proofs, made by the first builds,
    # are not counted.
    calls = []
    original = singularities.union_rule

    def counting(branch, contact):
        calls.append((branch, contact))
        return original(branch, contact)

    cases = ((1, {"n": 5}), (2, {"m": 3, "n": 4}), (2, {"m": 4, "n": 4}))
    for theorem, params in cases:
        build(theorem, **params)
    for module in (singularities, constructions):
        monkeypatch.setattr(module, "union_rule", counting)
    for theorem, params in cases:
        calls.clear()
        r = build(theorem, **params)
        assert r.match and r.ample and r.maximal
        assert len(calls) == 3, (theorem, params, calls)


def test_building_data_is_validated_once(monkeypatch):
    calls = []
    for name in ("validate_bidouble", "validate_double"):
        original = getattr(covers, name)
        monkeypatch.setattr(covers, name, lambda data, f=original: calls.append(data) or f(data))
    build_theorem2(3, 2)
    build_theorem3(2, 4)
    assert len(calls) == 2


def test_families_build_without_expanding_the_seed_curve(monkeypatch, fresh_seed_proof):
    def expand(n):
        raise AssertionError(f"seed_curve({n}) was expanded")

    monkeypatch.setattr(curves, "seed_curve", expand)
    reports = (build_theorem1(5), build_theorem2(3, 4), build_theorem2(4, 6), build_theorem3(2, 8))
    assert all(r.match and r.ample and r.maximal for r in reports)


def test_a_failing_certificate_stage_stops_the_build(monkeypatch, fresh_seed_proof):
    @functools.cache
    def broken():
        proof = curves.seed_proof()
        return proof._replace(stages=tuple(
            stage._replace(ok=False) if stage.name == "vertices" else stage
            for stage in proof.stages
        ))

    monkeypatch.setattr(constructions, "seed_proof", broken)
    for theorem, params in ((1, {"n": 4}), (2, {"m": 3, "n": 4}), (3, {"m": 2, "n": 4})):
        with pytest.raises(ParameterError, match="certificate fails at n=4: vertices$"):
            build(theorem, **params)


def test_failed_seed_certificate_is_not_memoised(monkeypatch, fresh_seed_proof):
    # Q with 5 in place of 4 is still smooth, but not tangent to the lines.
    with monkeypatch.context() as patch:
        patch.setattr(
            curves, "_conic", lambda u, v, w: (u + v + w) ** 2 - 5 * (u * v + u * w + v * w)
        )
        with pytest.raises(ParameterError, match="certificate fails at n=4: tangency"):
            build(1, n=4)
    r = build(1, n=4)
    assert r.match and r.ample and r.maximal



# The stage a failed fact of a family proof names.
_STAGE = r"^(transport|validate|assembled building data is invalid|invariants|ample|picard|match): "


def test_a_wrong_on_fiber_rule_fails_the_picard_stage(monkeypatch, fresh_family_proofs):
    # A(d*n) in place of A(d*n - 1) on a branch fiber: two more exceptional
    # curves per line point upstairs (families 2 and 3), so the Picard
    # bound overshoots h11 on every class.
    original = singularities.cyclic_rule

    def one_more(sing, count, degree, on_fiber):
        (family, index), count = original(sing, count, degree, on_fiber)
        return (family, index + on_fiber), count

    for module in (singularities, constructions):
        monkeypatch.setattr(module, "cyclic_rule", one_more)
    for params in ({"m": 3, "n": 2}, {"m": 4, "n": 4}):
        with pytest.raises(ParameterError, match=r"^picard: the lower bound \d+ differs from h11"):
            build(2, **params)
    with pytest.raises(ParameterError, match=r"^picard: the lower bound 114 differs from h11 = 106$"):
        build(3, m=2, n=4)


def test_a_wrong_union_rule_fails_the_proof(monkeypatch, fresh_family_proofs):
    # D_{k+2} in place of D_{k+3}: at n = 2 the joined points of families 1
    # and 2 would be D3, no ADE type, so their inventories are not shown on
    # the class; family 3's Picard bound falls short.
    original = singularities.union_rule

    def one_less(branch, contact):
        family, index = original(branch, contact)
        return family, index - (family == "D")

    for module in (singularities, constructions):
        monkeypatch.setattr(module, "union_rule", one_less)
    for theorem, params in ((1, {"n": 4}), (2, {"m": 3, "n": 2}), (2, {"m": 4, "n": 4})):
        with pytest.raises(ParameterError, match=r"^transport: .*the branch inventory "):
            build(theorem, **params)
    with pytest.raises(ParameterError, match=r"^picard: "):
        build(3, m=2, n=4)


def test_a_union_rule_of_d_k_fails_the_range_fact(monkeypatch, fresh_family_proofs):
    # D_k in place of D_{k+3}: at n = 4 a divisor through an A_3 point of
    # families 1 and 2 would make a D3 point, no ADE type.
    original = singularities.union_rule

    def three_less(branch, contact):
        family, index = original(branch, contact)
        return family, index - 3 * (family == "D")

    for module in (singularities, constructions):
        monkeypatch.setattr(module, "union_rule", three_less)
    for theorem, params in ((1, {"n": 4}), (2, {"m": 3, "n": 4}), (2, {"m": 4, "n": 4})):
        with pytest.raises(ParameterError, match=r"^transport: the branch inventory \d+ x D3, "
                           r".* has a type or count out of range$"):
            build(theorem, **params)


def test_a_rule_of_zero_count_fails_the_range_fact(monkeypatch, fresh_family_proofs):
    # R2 (an A_k point met transversally, union D_{k+3}) giving no points
    # upstairs: a zero count in the cover inventory of families 1 and 2.
    original = singularities.bidouble_rule

    def none_upstairs(sing, union, count):
        upstairs = original(sing, union, count)
        return upstairs and (upstairs[0], 0 if union and union[0] == "D" else upstairs[1])

    for module in (singularities, constructions):
        monkeypatch.setattr(module, "bidouble_rule", none_upstairs)
    for theorem, params in ((1, {"n": 4}), (2, {"m": 3, "n": 4}), (2, {"m": 4, "n": 4})):
        with pytest.raises(ParameterError, match=r"^transport: the cover inventory .*, 0 x A"
                           r".* has a type or count out of range$"):
            build(theorem, **params)


def test_a_rule_of_a0_fails_the_range_fact(monkeypatch, fresh_family_proofs):
    # R2 giving A_0 upstairs, no ADE type: the A bound of the range fact
    # refuses it; without that bound the build would fail later, at picard.
    original = singularities.bidouble_rule

    def a0_upstairs(sing, union, count):
        upstairs = original(sing, union, count)
        return (("A", 0), count) if union and union[0] == "D" else upstairs

    for module in (singularities, constructions):
        monkeypatch.setattr(module, "bidouble_rule", a0_upstairs)
    with pytest.raises(ParameterError, match=r"^transport: the cover inventory 8 x D6, 4 x A0, "
                       r"4 x A0 has a type or count out of range$"):
        build(1, n=4)


def test_the_facts_of_a_class_stop_at_a_failed_h0_fact():
    # Family 2's row for even m on m = 2 + 2M with odd n = 3 + 2N, outside
    # its domain: h0(K + L2) is no closed form on the class, and p_g, q and
    # every later fact rest on it.
    family, rows = FAMILIES["A2"], FAMILIES["A2"].pipeline(2)

    def facts(values, base=None):
        seed = constructions._certified_seed(values[1])
        numbers = constructions._derive(rows, constructions._layout(rows), *values, *seed)
        return list(constructions._facts(family, values, numbers, base))

    on_class = facts(domain_variables((Param("m", 2, 2), Param("n", 3, 2))))
    assert [holds for holds, _ in on_class] == [True] * 10 + [False]
    _, text = facts((4, 5), hirzebruch(4))[10]
    assert text.startswith("invariants: h0(K + L2) of ")


@pytest.mark.parametrize("theorem, m", [(1, None), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_a_row_entry_moved_by_one_fails_the_proof(monkeypatch, theorem, m):
    # Every entry one more or one less (where it stays >= 0), except the
    # negative section's on the plane, where the section is zero.
    row = constructions.THEOREMS[theorem].pipeline(1 if m is None else m)
    params = {"n": 4} if m is None else {"m": m, "n": 4}
    for i, mults in enumerate(row):
        for j in (0, 2, 3) if m is None else range(4):
            for step in (-1, 1):
                wrong = [list(x) for x in row]
                wrong[i][j] += step
                if wrong[i][j] < 0:
                    continue
                _patch_pipeline(monkeypatch, theorem, lambda m, w=tuple(map(tuple, wrong)): w)
                with pytest.raises(ParameterError, match=_STAGE):
                    build(theorem, **params)


def test_an_h0_remainder_outside_its_range_fails_the_invariants_stage(monkeypatch):
    # Two more lines in family 3's branch divisor: L = nD0 + (mn + 2)F, and
    # K + L has b - e*a = m, outside [0, m), so h0(K + L) is not read off.
    _patch_pipeline(monkeypatch, 3, lambda m: ((4, 0, 0, 1),))
    with pytest.raises(ParameterError, match=r"^invariants: .*h0\(K \+ L\) of 2\*D0 \+ 6\*F "):
        build(3, m=2, n=4)


def _reports_agree(report, expected):
    """The report equals the oracle's, as records, JSON text and printed text."""
    assert report == expected
    assert report.to_json_text() == expected.to_json_text()
    texts = []
    for r in (report, expected):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._print_report(r)
        texts.append(out.getvalue())
    assert texts[0] == texts[1]


# The sweeps of CERTIFY_SWEEPS in perfbench/workloads.py, then those of the
# golden verify-theorem cases.
_ORACLE_SWEEPS = (
    (1, [None], range(2, 301)),
    (2, range(3, 9), range(2, 129, 2)),
    (3, range(2, 8), range(4, 129, 2)),
    (1, [None], range(2, 7)),
    (2, range(3, 6), (2, 4)),
    (3, range(2, 5), (4, 6)),
)


def test_reports_equal_the_per_member_oracle_on_the_sweeps():
    for theorem, ms, ns in _ORACLE_SWEEPS:
        for m in ms:
            for n in ns:
                params = {"n": n} if m is None else {"m": m, "n": n}
                _reports_agree(build(theorem, **params), _build_oracle.build(theorem, **params))


@pytest.mark.parametrize("theorem, m, n", [
    (1, None, 10**6), (1, None, 10**12), (2, 10**6, 2), (2, 3, 10**12), (2, 10**12, 10**6),
    (2, 10**12 + 1, 10**12), (3, 10**6, 4), (3, 2, 10**12), (3, 10**12, 10**12),
])
def test_reports_equal_the_per_member_oracle_at_large_parameters(theorem, m, n):
    params = {"n": n} if m is None else {"m": m, "n": n}
    _reports_agree(build(theorem, **params), _build_oracle.build(theorem, **params))


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from([(1, None, 2, 1), (2, 3, 2, 2), (2, 4, 2, 2), (3, 2, 4, 2)]),
       k=st.integers(0, 10**4), j=st.integers(0, 10**4))
def test_reports_equal_the_per_member_oracle_on_each_class(case, k, j):
    # (theorem, least m, least n, step of m) for each class of members.
    theorem, m0, n0, step = case
    n = n0 + (1 if theorem == 1 else 2) * j
    params = {"n": n} if m0 is None else {"m": m0 + step * k, "n": n}
    _reports_agree(build(theorem, **params), _build_oracle.build(theorem, **params))
