"""Cover building data, invariant formulas and cyclic pullback."""

import pytest

from picardlab.covers import (
    BidoubleCoverData,
    CoverDataError,
    DoubleCoverData,
    SurfaceInvariants,
    bidouble_invariants,
    canonical_ample_check,
    cyclic_pullback_class,
    double_invariants,
    validate_bidouble,
    validate_double,
)
from picardlab.surfaces import canonical_class, hirzebruch, intersect, projective_plane

P2 = projective_plane()


def test_surface_invariants_consistency_enforced():
    SurfaceInvariants(K2=1, chi=3, p_g=2, q=0, h11=29)
    with pytest.raises(ValueError, match=r"^inconsistent invariants: chi=3 != 1 - q \+ p_g = 2$"):
        SurfaceInvariants(K2=1, chi=3, p_g=1, q=0, h11=29)
    with pytest.raises(ValueError, match=r"^inconsistent invariants: h11=28 != 10\*chi - K2 - 2q$"):
        SurfaceInvariants(K2=1, chi=3, p_g=2, q=0, h11=28)


class TestValidateDouble:
    def test_ruled_family_datum_is_valid(self):
        f2 = hirzebruch(2)
        data = DoubleCoverData(f2, L=f2.divisor(4, 9), B=f2.divisor(8, 18))
        assert validate_double(data) == []

    def test_parity_violation(self):
        data = DoubleCoverData(P2, L=P2.divisor(1), B=P2.divisor(3))
        problems = validate_double(data)
        assert len(problems) == 1 and "twice" in problems[0]

    def test_trivial_half_bundle(self):
        data = DoubleCoverData(P2, L=P2.divisor(0), B=P2.divisor(0))
        assert any("trivial" in p for p in validate_double(data))


class TestDoubleInvariants:
    def test_ruled_family_values(self):
        f2 = hirzebruch(2)
        inv = double_invariants(DoubleCoverData(f2, L=f2.divisor(4, 9), B=f2.divisor(8, 18)))
        assert (inv.K2, inv.chi, inv.p_g, inv.q, inv.h11) == (24, 13, 12, 0, 106)

    def test_sextic_double_plane_is_k3_shaped(self):
        inv = double_invariants(DoubleCoverData(P2, L=P2.divisor(3), B=P2.divisor(6)))
        assert (inv.K2, inv.chi, inv.p_g, inv.q) == (0, 2, 1, 0)

    def test_conic_double_plane(self):
        inv = double_invariants(DoubleCoverData(P2, L=P2.divisor(1), B=P2.divisor(2)))
        assert (inv.K2, inv.chi, inv.p_g) == (8, 1, 0)

    def test_invalid_data_rejected(self):
        with pytest.raises(CoverDataError):
            double_invariants(DoubleCoverData(P2, L=P2.divisor(1), B=P2.divisor(3)))


def _theorem1_data(n):
    return BidoubleCoverData(
        P2,
        L1=P2.divisor(n + 1),
        L2=P2.divisor(n + 1),
        L3=P2.divisor(1),
        B1=P2.divisor(1),
        B2=P2.divisor(1),
        B3=P2.divisor(2 * n + 1),
    )


class TestValidateBidouble:
    def test_plane_family_datum(self):
        assert validate_bidouble(_theorem1_data(3)) == []

    def test_printed_half_coefficient_fails_and_fixed_one_passes(self):
        # m = 4, n = 2; the half coefficient in the L classes must be m/2,
        # not n/2, for the cover conditions to close.
        f4 = hirzebruch(4)
        b1, b2, b3 = f4.zero(), f4.divisor(0, 2), f4.divisor(6, 20)
        printed = BidoubleCoverData(
            f4,
            L1=f4.divisor(3, 10),
            L2=f4.divisor(3, 9),
            L3=f4.divisor(0, 1),
            B1=b1, B2=b2, B3=b3,
        )
        problems = validate_bidouble(printed)
        assert any("L2" in p for p in problems)
        corrected = BidoubleCoverData(
            f4,
            L1=f4.divisor(3, 11),
            L2=f4.divisor(3, 10),
            L3=f4.divisor(0, 1),
            B1=b1, B2=b2, B3=b3,
        )
        assert validate_bidouble(corrected) == []
        assert bidouble_invariants(corrected).chi == 4 * 2 * 2 - 2 + 1

    def test_zero_branch_divisors_allowed(self):
        # B1 = 0 appears in the even-m branch data and must not be flagged.
        f4 = hirzebruch(4)
        data = BidoubleCoverData(
            f4,
            L1=f4.divisor(3, 11),
            L2=f4.divisor(3, 10),
            L3=f4.divisor(0, 1),
            B1=f4.zero(),
            B2=f4.divisor(0, 2),
            B3=f4.divisor(6, 20),
        )
        assert validate_bidouble(data) == []

    def test_trivial_line_bundles_rejected(self):
        data = BidoubleCoverData(
            P2,
            L1=P2.divisor(0), L2=P2.divisor(0), L3=P2.divisor(0),
            B1=P2.divisor(0), B2=P2.divisor(0), B3=P2.divisor(0),
        )
        problems = validate_bidouble(data)
        assert sum("trivial" in p for p in problems) == 3


class TestBidoubleInvariants:
    def test_plane_family_at_n2(self):
        inv = bidouble_invariants(_theorem1_data(2))
        assert (inv.K2, inv.chi, inv.p_g, inv.q, inv.h11) == (1, 3, 2, 0, 29)

    def test_odd_m_ruled_datum(self):
        f3 = hirzebruch(3)
        fiber = f3.divisor(0, 1)
        data = BidoubleCoverData(
            f3,
            L1=f3.divisor(3, 8),
            L2=f3.divisor(3, 8),
            L3=fiber,
            B1=fiber,
            B2=fiber,
            B3=f3.divisor(6, 15),
        )
        inv = bidouble_invariants(data)
        assert (inv.K2, inv.chi, inv.p_g, inv.q, inv.h11) == (16, 11, 10, 0, 94)

    def test_symmetric_degenerate_datum(self):
        data = BidoubleCoverData(
            P2,
            L1=P2.divisor(2), L2=P2.divisor(2), L3=P2.divisor(2),
            B1=P2.divisor(2), B2=P2.divisor(2), B3=P2.divisor(2),
        )
        assert bidouble_invariants(data).chi == 1


class TestCyclicPullback:
    def test_curve_and_line_classes(self):
        f1 = hirzebruch(1)
        for m in (2, 3, 5):
            n = 4
            up = cyclic_pullback_class(f1.divisor(2 * n, 2 * n), m)
            assert up == hirzebruch(m).divisor(2 * n, 2 * n * m)
            assert cyclic_pullback_class(f1.divisor(1, 1), m) == hirzebruch(m).divisor(1, m)

    def test_pure_fiber_class(self):
        fe = hirzebruch(2)
        assert cyclic_pullback_class(fe.divisor(0, 1), 3) == hirzebruch(6).divisor(0, 3)

    def test_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            cyclic_pullback_class(hirzebruch(1).divisor(1, 1), 0)

    def test_plane_classes_rejected(self):
        with pytest.raises(ValueError):
            cyclic_pullback_class(P2.divisor(1), 2)

    def test_intersection_multiplicativity(self):
        for e in range(4):
            fe = hirzebruch(e)
            for d in range(1, 6):
                for a1 in range(-6, 7, 3):
                    for b1 in range(-6, 7, 3):
                        for a2 in range(-6, 7, 2):
                            for b2 in range(-6, 7, 2):
                                d1, d2 = fe.divisor(a1, b1), fe.divisor(a2, b2)
                                assert intersect(
                                    cyclic_pullback_class(d1, d),
                                    cyclic_pullback_class(d2, d),
                                ) == d * intersect(d1, d2)

    def test_canonical_ramification_identity(self):
        # K upstairs = pullback of K plus (d-1) times the two branch fibers.
        for e in range(4):
            fe = hirzebruch(e)
            for d in range(1, 6):
                up = hirzebruch(d * e)
                lhs = canonical_class(up)
                rhs = cyclic_pullback_class(canonical_class(fe), d) + (2 * d - 2) * up.divisor(0, 1)
                assert lhs == rhs


class TestCanonicalAmpleCheck:
    def test_plane_family(self):
        assert canonical_ample_check(_theorem1_data(2))

    def test_double_cover_boundary_case(self):
        # m = 2, n = 2 gives the non-ample class 0*D0 + 1*F.
        f2 = hirzebruch(2)
        data = DoubleCoverData(f2, L=f2.divisor(2, 5), B=f2.divisor(4, 10))
        assert not canonical_ample_check(data)

    def test_odd_m_ruled_datum(self):
        f3 = hirzebruch(3)
        fiber = f3.divisor(0, 1)
        data = BidoubleCoverData(
            f3,
            L1=f3.divisor(3, 8), L2=f3.divisor(3, 8), L3=fiber,
            B1=fiber, B2=fiber, B3=f3.divisor(6, 15),
        )
        assert canonical_ample_check(data)


def test_invariants_recomputed_identities():
    # chi = 1 + p_g - q and h11 = 10 chi - K2 - 2q, re-derived independently.
    f3 = hirzebruch(3)
    fiber = f3.divisor(0, 1)
    samples = [
        double_invariants(
            DoubleCoverData(hirzebruch(2), L=hirzebruch(2).divisor(4, 9), B=hirzebruch(2).divisor(8, 18))
        ),
        bidouble_invariants(_theorem1_data(4)),
        bidouble_invariants(
            BidoubleCoverData(
                f3,
                L1=f3.divisor(3, 8), L2=f3.divisor(3, 8), L3=fiber,
                B1=fiber, B2=fiber, B3=f3.divisor(6, 15),
            )
        ),
    ]
    for inv in samples:
        assert inv.chi == 1 + inv.p_g - inv.q
        assert inv.h11 == 10 * inv.chi - inv.K2 - 2 * inv.q
