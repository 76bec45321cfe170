"""The family pipeline rows, the builder that reads them and their
certificates."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from picardlab import constructions, covers, curves, singularities
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
    bidouble_formulas,
    double_formulas,
    pullback,
    validate_bidouble,
    validate_double,
)
from picardlab.curves import singular_points_report
from picardlab.polynomials import Poly, domain_variables
from picardlab.singularities import A, D, E, BidoubleBranchPoint, SingInventory
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
            assert r.certified()
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
                assert r.certified()
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
                assert r.certified()
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
            SingInventory.of(E(8)), SingInventory(),
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
    assert build(2, m=4, n=2).certified()
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
        K2, chi, _ = bidouble_formulas(e, (L1, L2, L3), (B1, B2, B3))
    else:
        K2, chi, _ = double_formulas(e, tuple(map(half, branch[0])))
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


def _placements(report):
    return [(str(p.sing), p.count, p.origin) for p in report.branch_points]


def test_placements_follow_the_row(monkeypatch):
    # Family 3's lines carry 8 points of type A15 at (m, n) = (4, 4) and its
    # third line 16 of type A3.  A row that puts the third line in the
    # curve's divisor joins its points as D points; one that holds neither
    # line keeps the lines' points away from the branch divisor.
    joined, kept = constructions._ORIGINS["join"], constructions._ORIGINS["keep"]
    assert _placements(build(3, m=4, n=4)) == [("D18", 8, joined), ("A3", 16, kept)]
    _patch_pipeline(monkeypatch, 3, lambda m: ((2, 1, 1, 1),))
    assert _placements(build(3, m=4, n=4)) == [("D18", 8, joined), ("D6", 16, joined)]
    _patch_pipeline(monkeypatch, 3, lambda m: ((0, 1, 1, 1),))
    assert _placements(build(3, m=4, n=4)) == [("D6", 16, joined), ("A15", 8, kept)]


def test_transport_checks_survive_python_O():
    # The mutated pullback keeps the F coefficient of the pulled-back class,
    # so the third line no longer meets the curve in 2mn points.  Under -O
    # an assert would be gone; the check must still raise.
    script = (
        "from picardlab import constructions\n"
        "from picardlab.constructions import ParameterError, build\n"
        "from picardlab.surfaces import hirzebruch\n"
        "print('debug', __debug__)\n"
        "constructions.cyclic_pullback_class = (\n"
        "    lambda d, degree: hirzebruch(degree * d.surface.e).divisor(*d.coeffs))\n"
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
    # inventories share them.
    calls = []
    original = singularities.union_type

    def counting(branch, contact):
        calls.append((branch, contact))
        return original(branch, contact)

    for module in (singularities, constructions):
        monkeypatch.setattr(module, "union_type", counting)
    for theorem, params in ((1, {"n": 5}), (2, {"m": 3, "n": 4}), (2, {"m": 4, "n": 4})):
        calls.clear()
        assert build(theorem, **params).certified()
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
    assert all(report.certified() for report in reports)


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
    assert build(1, n=4).certified()

