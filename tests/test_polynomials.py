"""Exact polynomial arithmetic, restriction, localization and parsing."""

from fractions import Fraction

import pytest

from picardlab.polynomials import (
    MAX_LOCALIZE_DEGREE,
    MAX_LOCALIZE_PRODUCTS,
    BinaryForm,
    LocalPoly,
    PointOffCurveError,
    Poly,
    PolyParseError,
    parse_local_poly,
    parse_ternary_form,
    substitute,
)


class TestLocalPoly:
    def test_arithmetic(self):
        x, y = LocalPoly.variable(0), LocalPoly.variable(1)
        f = (x + y) * (x - y)
        assert f == x * x - y * y
        assert (x + 1) * (x - 1) == x * x - 1
        assert 2 * x - x - x == LocalPoly()

    def test_zero_coefficients_never_stored(self):
        f = parse_local_poly("x + y - x - y")
        assert f.coeffs == {}

    def test_evaluation(self):
        f = parse_local_poly("3/2*x^2*y - y^3 + x")
        assert f(2, 1) == Fraction(3, 2) * 4 - 1 + 2

    def test_order_and_parts(self):
        f = parse_local_poly("x^2 + x*y^3")
        assert f.order() == 2
        assert f.degree() == 4
        assert f.homogeneous_part(2) == parse_local_poly("x^2")
        assert f.truncated(3) == parse_local_poly("x^2")

    def test_substitution_exact(self):
        x, y = LocalPoly.variable(0), LocalPoly.variable(1)
        f = y * y - x ** 3
        g = substitute(f, y, x)  # swap
        assert g == x * x - y ** 3

    def test_substitution_truncated(self):
        x, y = LocalPoly.variable(0), LocalPoly.variable(1)
        f = y * y
        g = substitute(f, x, y + x ** 2, trunc=4)
        assert g == y * y + 2 * x ** 2 * y  # the x^4 term is cut


class TestHomPoly:
    def test_localize_refuses_other_shapes(self):
        # X0*X2 - X1^3 vanishes at (1:0:0) but is not homogeneous.
        uneven = Poly({(1, 0, 1): 1, (0, 3, 0): -1}, 3)
        with pytest.raises(ValueError, match="not homogeneous"):
            uneven.localize((1, 0, 0), 0)
        with pytest.raises(ValueError, match="ternary form"):
            parse_local_poly("x*y").localize((1, 0, 0), 0)

    def test_variable_counts_do_not_mix(self):
        germ, form = Poly.variable(0), Poly.variable(0, 3)
        assert germ.nvars == 2 and form.nvars == 3
        with pytest.raises(ValueError, match="2 and 3 variables"):
            germ + form
        assert (germ - germ).degree() == -1
        assert form(2, 5, 7) == 2

    def test_restrict(self):
        form = parse_ternary_form("X0^2*X1 - X1^3 + X0*X1*X2")
        restricted = form.restrict(2)  # X2 = 0
        assert restricted == BinaryForm.from_dict(3, {2: 1, 0: -1})

    def test_localize_centers_point(self):
        form = parse_ternary_form("X0*X2 - X1^2")
        local = form.localize((1, 1, 1), 2)
        assert local.constant_term == 0
        # x = X0 - 1, y = X1 - 1 around (1:1:1): (1+x) - (1+y)^2
        assert local == parse_local_poly("x - 2*y - y^2")

    def test_localize_rejects_off_curve_point(self):
        form = parse_ternary_form("X0*X2 - X1^2")
        with pytest.raises(PointOffCurveError):
            form.localize((1, 2, 1), 2)

    def test_localize_rejects_zero_chart(self):
        form = parse_ternary_form("X0*X2 - X1^2")
        with pytest.raises(ValueError):
            form.localize((0, 0, 1), 0)

    def test_localize_degree_cap(self):
        half = MAX_LOCALIZE_DEGREE // 2
        at_cap = parse_ternary_form(f"X0^{half}*X1^{half} - X2^{2 * half}")
        assert at_cap.localize((1, 1, 1), 2).constant_term == 0
        above = parse_ternary_form(f"X0^{half + 1}*X1^{half} - X2^{2 * half + 1}")
        with pytest.raises(ValueError, match="localization cap"):
            above.localize((1, 1, 1), 2)

    def test_localize_product_cap(self):
        # A dense form of degree 33, the largest the benchmark localizes,
        # needs sum over a + b <= 33 of (a + 1)*(b + 1) products.
        dense_33 = sum((a + 1) * (s - a + 1) for s in range(34) for a in range(s + 1))
        assert dense_33 == 66_045 <= MAX_LOCALIZE_PRODUCTS
        terms = " + ".join(f"X0^{a}*X1^{128 - a}" for a in range(128))
        dense = parse_ternary_form(terms + " - 128*X0^128")
        with pytest.raises(ValueError, match="366145 binomial products"):
            dense.localize((1, 1, 1), 2)

    def test_partial(self):
        form = parse_ternary_form("X0^3 + X0*X1*X2")
        assert form.partial(0) == parse_ternary_form("3*X0^2 + X1*X2")


class TestBinaryForm:
    def test_multiplication(self):
        u_minus_v = BinaryForm.from_dict(1, {1: 1, 0: -1})
        square = u_minus_v * u_minus_v
        assert square == BinaryForm.from_dict(2, {2: 1, 1: -2, 0: 1})

    def test_distinct_projective_roots_squarefree_part(self):
        # (u^3 - v^3)^2 has exactly three distinct projective roots.
        cube = BinaryForm.from_dict(3, {3: 1, 0: -1})
        assert (cube * cube).distinct_projective_roots() == 3

    def test_root_at_infinity_counted(self):
        # u * v^2: roots (0:1) and (1:0).
        form = BinaryForm.from_dict(3, {1: 1})
        assert form.distinct_projective_roots() == 2


class TestParser:
    def test_round_trip_examples(self):
        f = parse_local_poly("y^2 - x^3")
        assert f == LocalPoly({(0, 2): 1, (3, 0): -1})
        assert parse_local_poly("x*y") == LocalPoly({(1, 1): 1})
        assert parse_local_poly("-2*x + 1/2*y^4") == LocalPoly(
            {(1, 0): -2, (0, 4): Fraction(1, 2)}
        )

    def test_whitespace_tolerated(self):
        assert parse_local_poly(" y^2  -  x^3 ") == parse_local_poly("y^2-x^3")

    def test_parse_error_carries_position(self):
        with pytest.raises(PolyParseError) as err:
            parse_local_poly("y^2 ? x")
        assert err.value.position == 5
        with pytest.raises(PolyParseError):
            parse_local_poly("z^2")
        with pytest.raises(PolyParseError):
            parse_local_poly("1/0")

    def test_juxtaposition_not_allowed(self):
        with pytest.raises(PolyParseError):
            parse_local_poly("2x")

    def test_ternary_homogeneity_checked(self):
        parse_ternary_form("X0^2 - X1*X2")
        with pytest.raises(PolyParseError):
            parse_ternary_form("X0^2 - X1")

    def test_rendering_round_trips(self):
        text = "x^4 - 2*x^2*y^2 + 3/7*y"
        f = parse_local_poly(text)
        assert parse_local_poly(f.to_text()) == f
