"""Divisor-class arithmetic on the plane and the ruled surfaces."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from picardlab.constructions import _even
from picardlab.polynomials import Poly
from picardlab.surfaces import (
    BaseSurface,
    DivisorClass,
    SurfaceMismatchError,
    canonical_class,
    h0,
    half,
    hirzebruch,
    intersect,
    is_ample,
    projective_plane,
    sections,
)

P2 = projective_plane()


def test_intersect_plane_bilinear_example():
    assert intersect(P2.divisor(2), P2.divisor(3)) == 6


def test_intersect_section_on_f2():
    f2 = hirzebruch(2)
    assert intersect(f2.divisor(1, 2), f2.divisor(1, 0)) == 0


def test_intersect_theorem3_ample_square():
    # ((n-2)*D0 + (m*n-m-1)*F)^2 at m=2, n=4, doubling to the closed form.
    f2 = hirzebruch(2)
    ample = f2.divisor(2, 5)
    assert intersect(ample, ample) == 12
    m, n = 2, 4
    assert 2 * intersect(ample, ample) == 2 * m * n * n - 4 * (m + 1) * n + 8 == 24


def test_intersect_rejects_mismatched_surfaces():
    with pytest.raises(SurfaceMismatchError):
        intersect(P2.divisor(1), hirzebruch(1).divisor(1, 0))
    with pytest.raises(SurfaceMismatchError):
        intersect(hirzebruch(1).divisor(1, 0), hirzebruch(2).divisor(1, 0))


def test_bad_surfaces_and_classes_are_refused():
    with pytest.raises(ValueError, match=r"^the projective plane has no ruling parameter$"):
        BaseSurface("P2", 1)
    with pytest.raises(ValueError, match=r"^ruling parameter must be nonnegative, got e=-1$"):
        hirzebruch(-1)
    with pytest.raises(ValueError, match=r"^unknown surface kind 'G'$"):
        BaseSurface("G")
    with pytest.raises(ValueError, match=r"^F_2 classes carry 2 coefficient\(s\), got 1$"):
        hirzebruch(2).divisor(1)


def test_divisor_classes_are_immutable_with_int_coefficients():
    d = hirzebruch(2).divisor(True, 3)
    assert d.coeffs == (1, 3) and all(type(c) is int for c in d.coeffs)
    with pytest.raises(AttributeError):
        d.coeffs = (0, 0)
    assert d == hirzebruch(2).divisor(1, 3) == d._replace(coeffs=(True, 3))
    with pytest.raises(ValueError, match=r"^F_2 classes carry 2 coefficient\(s\), got 3$"):
        d._replace(coeffs=(1, 3, 0))


@pytest.mark.parametrize(
    "make",
    [
        lambda: P2.divisor(2.7),
        lambda: P2.divisor(2.0),
        lambda: hirzebruch(2).divisor(Fraction(5, 2), "3"),
        lambda: hirzebruch(2).divisor(Fraction(4, 2), 3),
        lambda: hirzebruch(2).divisor(1, "3"),
        lambda: hirzebruch(1).divisor(1, 1)._replace(coeffs=(1, 1.0)),
    ],
)
def test_non_integer_coefficients_are_refused(make):
    with pytest.raises(TypeError):
        make()


def test_arithmetic_results_are_int_classes_on_the_same_surface():
    f2 = hirzebruch(2)
    d, e = f2.divisor(True, 3), f2.divisor(-2, 5)
    for result in (d + e, d - e, -d, 3 * d, d * True, e * 0):
        assert type(result) is DivisorClass and result.surface == f2
        assert len(result.coeffs) == 2 and all(type(c) is int for c in result.coeffs)
    assert (d + e, d - e, -d, 3 * d) == (f2.divisor(-1, 8), f2.divisor(3, -2), f2.divisor(-1, -3), f2.divisor(3, 9))
    with pytest.raises(SurfaceMismatchError):
        d + hirzebruch(3).divisor(1, 3)
    with pytest.raises(TypeError):
        d * 1.5


def test_half_is_the_class_whose_double_it_is():
    # The builder halves coefficient tuples with half; a class proof refuses
    # a tuple that is not even in every coefficient.
    f3 = hirzebruch(3)
    for d in (f3.divisor(4, -6), f3.divisor(0, 0), P2.divisor(-8), f3.divisor(2, 2)):
        assert all(map(_even, d.coeffs))
        halved = tuple(map(half, d.coeffs))
        assert 2 * d.surface.divisor(*halved) == d
        assert len(halved) == d.surface.rank and all(type(c) is int for c in halved)
    for d in (f3.divisor(3, 8), f3.divisor(2, -7), P2.divisor(1)):
        assert not all(map(_even, d.coeffs))


def test_canonical_classes():
    assert canonical_class(P2) == P2.divisor(-3)
    assert canonical_class(hirzebruch(1)) == hirzebruch(1).divisor(-2, -3)


@pytest.mark.parametrize("e", range(6))
def test_fiber_adjunction(e):
    fe = hirzebruch(e)
    fiber = fe.divisor(0, 1)
    assert intersect(canonical_class(fe), fiber) == -2
    assert intersect(fiber, fiber) == 0


def test_h0_plane():
    assert h0(P2.divisor(2)) == 6  # the n=4 theorem-1 value (n-2 = 2)
    assert h0(P2.divisor(0)) == 1
    assert h0(P2.divisor(-1)) == 0


def test_h0_ruled_examples():
    assert h0(hirzebruch(2).divisor(1, 1)) == 2
    # the K+L class of the double-cover family at m=2, n=4
    assert h0(hirzebruch(2).divisor(2, 5)) == 12


def _lattice_point_oracle(e, a, b):
    # Count monomials of the rank-(a+1) pushforward O(b) + O(b-e) + ... + O(b-a*e).
    count = 0
    for j in range(a + 1):
        for _k in range(b - j * e + 1):
            count += 1
    return count


def test_h0_matches_lattice_point_oracle():
    for e in range(6):
        fe = hirzebruch(e)
        for a in range(13):
            for b in range(-12, 13):
                assert h0(fe.divisor(a, b)) == _lattice_point_oracle(e, a, b)


def test_h0_negative_a_vanishes():
    assert h0(hirzebruch(2).divisor(-1, 40)) == 0
    # On a class, a negative a or b decides h0 = 0 for every member, however
    # large the other coefficient.
    big = 3 + Poly.variable(0)
    assert sections(2, (-1, big)) == sections(2, (big, -1)) == 0


def test_plane_h0_matches_monomial_count():
    for d in range(0, 13):
        monomials = sum(
            1 for i in range(d + 1) for j in range(d - i + 1)
        )
        assert h0(P2.divisor(d)) == monomials


def test_is_ample():
    assert is_ample(P2.divisor(1))  # theorem 1's 2n-3 at n=2
    assert is_ample(hirzebruch(3).divisor(2, 7))  # theorem 2's class at m=3, n=2
    assert not is_ample(hirzebruch(2).divisor(1, 2))  # nef boundary b = a*e
    assert not is_ample(hirzebruch(0).divisor(1, 0))
    assert is_ample(hirzebruch(0).divisor(1, 1))


def test_ample_implies_positive_self_and_fiber_intersection():
    for e in range(6):
        fe = hirzebruch(e)
        fiber = fe.divisor(0, 1)
        for a in range(-12, 13):
            for b in range(-12, 13):
                d = fe.divisor(a, b)
                if is_ample(d):
                    assert intersect(d, d) > 0
                    assert intersect(d, fiber) > 0


def test_riemann_roch_on_nef_range():
    # h0 = D(D-K)/2 + 1 wherever higher cohomology vanishes (a, b >= 0, b >= a*e).
    for e in range(6):
        fe = hirzebruch(e)
        k = canonical_class(fe)
        for a in range(13):
            for b in range(a * e, 13):
                d = fe.divisor(a, b)
                assert h0(d) == intersect(d, d - k) // 2 + 1


coeff = st.integers(min_value=-40, max_value=40)
surface = st.one_of(st.just(P2), st.integers(min_value=0, max_value=4).map(hirzebruch))


@st.composite
def three_divisors(draw):
    s = draw(surface)
    return [
        DivisorClass(s, tuple(draw(coeff) for _ in range(s.rank)))
        for _ in range(3)
    ]


@given(three_divisors(), coeff, coeff)
def test_intersect_is_bilinear_and_symmetric(divs, x, y):
    d1, d2, d3 = divs
    assert intersect(d1, d2) == intersect(d2, d1)
    assert intersect(x * d1 + y * d2, d3) == x * intersect(d1, d3) + y * intersect(d2, d3)
