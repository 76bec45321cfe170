"""Exact polynomial arithmetic, restriction, binary forms, localization and
parsing."""

import random
import time
from fractions import Fraction

import pytest

from picardlab.polynomials import (
    MAX_LOCALIZE_DEGREE,
    MAX_LOCALIZE_PRODUCTS,
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

    def test_substitution_refuses_other_variable_counts(self):
        x, y = LocalPoly.variable(0), LocalPoly.variable(1)
        with pytest.raises(ValueError, match="2 variables"):
            substitute(x * y, Poly.variable(0, 3), Poly.variable(2, 3))
        with pytest.raises(ValueError, match="2 variables"):
            substitute(parse_ternary_form("X0*X1"), x, y)


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

    def test_power_pullback(self):
        f = parse_local_poly("3*x^2*y - y + 1")
        pulled = f.power_pullback((5, 2))
        assert pulled == parse_local_poly("3*x^10*y^2 - y^2 + 1")
        for point in ((2, 3), (Fraction(1, 2), -1)):
            assert pulled(*point) == f(point[0] ** 5, point[1] ** 2)
        with pytest.raises(ValueError, match="positive powers"):
            f.power_pullback((2, 0))
        with pytest.raises(ValueError, match="positive powers"):
            f.power_pullback((2, 2, 2))

    def test_restrict(self):
        form = parse_ternary_form("X0^2*X1 - X1^3 + X0*X1*X2")
        restricted = form.restrict(2)  # X2 = 0
        assert restricted == Poly({(2, 1): 1, (0, 3): -1})
        assert restricted.nvars == 2

    def test_restrict_refuses_other_shapes(self):
        with pytest.raises(ValueError, match="not homogeneous"):
            Poly({(1, 0, 1): 1, (0, 3, 0): -1}, 3).restrict(0)
        with pytest.raises(ValueError, match="ternary form"):
            parse_local_poly("x*y").restrict(0)

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

    def test_off_curve_point_is_printed_exactly(self):
        form = parse_ternary_form("X0*X2 - X1^2")
        point = (Fraction(1, 2), Fraction(-3), Fraction(2))
        with pytest.raises(PointOffCurveError) as info:
            form.localize(point, 2)
        assert str(info.value) == "point (1/2, -3, 2) is not on the zero locus"

    def test_localize_agrees_with_sympy(self):
        # Reference: sympy expands F with X_chart = 1 and the other two
        # coordinates shifted by the point.  The point's chart coordinate is
        # not 1, and the coefficient of X_chart^d puts the point on F.
        sympy = pytest.importorskip("sympy")
        X = sympy.symbols("X0:3")
        x, y = sympy.symbols("x y")
        rng = random.Random(808)

        def q(c):
            return sympy.Rational(c.numerator, c.denominator)

        coords = [Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 3)]
        for trial in range(60):
            d, chart = 2 + trial % 7, trial % 3
            r0, r1 = (i for i in range(3) if i != chart)
            monomials = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
            coeffs = {
                e: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                for e in rng.sample(monomials, rng.randint(1, len(monomials)))
            }
            point = [rng.choice(coords) for _ in range(3)]
            point[chart] = rng.choice([c for c in coords if c not in (0, 1)])
            top = tuple(d if i == chart else 0 for i in range(3))
            coeffs[top] = coeffs.get(top, 0) - Poly(coeffs, 3)(*point) / point[chart] ** d
            form = Poly(coeffs, 3)
            expr = sympy.Add(
                *(q(c) * X[0] ** e[0] * X[1] ** e[1] * X[2] ** e[2] for e, c in form.coeffs.items())
            )
            shift = {
                X[chart]: 1,
                X[r0]: x + q(point[r0] / point[chart]),
                X[r1]: y + q(point[r1] / point[chart]),
            }
            reference = sympy.Poly(sympy.expand(expr.subs(shift)), x, y)
            expected = Poly({e: Fraction(int(c.p), int(c.q)) for e, c in reference.as_dict().items()})
            local = form.localize(tuple(point), chart)
            assert local == expected, (form, point, chart)
            assert local.constant_term == 0

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
    """Binary forms in (u, v) are two-variable Polys; the exponent (i, j) is
    u^i * v^j."""

    def test_multiplication(self):
        u_minus_v = Poly({(1, 0): 1, (0, 1): -1})
        square = u_minus_v * u_minus_v
        assert square == Poly({(2, 0): 1, (1, 1): -2, (0, 2): 1})

    def test_distinct_projective_roots_squarefree_part(self):
        # (u^3 - v^3)^2 has exactly three distinct projective roots.
        cube = Poly({(3, 0): 1, (0, 3): -1})
        assert (cube * cube).distinct_projective_roots() == 3

    def test_root_at_infinity_counted(self):
        # u * v^2: roots (0:1) and (1:0).
        form = Poly({(1, 2): 1})
        assert form.distinct_projective_roots() == 2

    def test_other_shapes_refused(self):
        with pytest.raises(ValueError, match="zero form"):
            Poly().distinct_projective_roots()
        with pytest.raises(ValueError, match="not homogeneous"):
            parse_local_poly("x^2 - y").distinct_projective_roots()
        with pytest.raises(ValueError, match="binary form"):
            parse_ternary_form("X0^2 - X1*X2").distinct_projective_roots()

    def test_sparse_at_huge_degree(self):
        # (u^n - v^n)^2 at n = 10^12: a dense form would carry 2*10^12 + 1
        # coefficients.
        n = 10**12
        root = Poly({(n, 0): 1, (0, n): -1})
        start = time.perf_counter()
        assert (root * root).distinct_projective_roots() == n
        assert time.perf_counter() - start < 0.1

    def test_agrees_with_sympy_squarefree_part(self):
        # The square-free part of a binary form over Q has one linear factor
        # over the algebraic closure per distinct projective root.  The
        # factors are linear forms from a small pool, so roots repeat, and
        # now and then a quadratic one, whose roots may be irrational.
        sympy = pytest.importorskip("sympy")
        u, v = sympy.symbols("u v")
        rng = random.Random(2024)
        pool = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]
        for _ in range(200):
            form, expr = Poly({(0, 0): 1}), sympy.Integer(1)
            for a, b in rng.choices(pool, k=rng.randint(1, 7)):
                form = form * Poly({(1, 0): a, (0, 1): b})
                expr = expr * (a * u + b * v)
            if rng.random() < 0.3:
                a, b, c = rng.randint(1, 3), rng.randint(-3, 3), rng.randint(1, 3)
                form = form * Poly({(2, 0): a, (1, 1): b, (0, 2): c})
                expr = expr * (a * u**2 + b * u * v + c * v**2)
            expected = sympy.Poly(sympy.sqf_part(sympy.expand(expr)), u, v).total_degree()
            assert form.distinct_projective_roots() == expected, expr


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
        # A Unicode digit is not a number: str.isdigit() says yes, int() no.
        with pytest.raises(PolyParseError, match=r"unexpected character '²' \(column 3\)"):
            parse_local_poly("x^²")

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
