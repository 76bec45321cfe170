"""Exact polynomial arithmetic, restriction, binary forms, localization and
parsing."""

import random
import signal
import time
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction

import pytest
from _parser_oracle import parse_terms as oracle_parse_terms
from hypothesis import example, given, settings, strategies as st

from picardlab.constructions import Param
from picardlab.polynomials import (
    MAX_LOCALIZE_DEGREE,
    MAX_LOCALIZE_PRODUCTS,
    LocalPoly,
    PointOffCurveError,
    Poly,
    PolyParseError,
    _parse_terms,
    _ugcd,
    domain_variables,
    parse_local_poly,
    parse_ternary_form,
    substitute,
)


def _stored(c):
    """A coefficient as Poly stores it: an int, or a Fraction that is not
    integral."""
    return type(c) is int or type(c) is Fraction and c.denominator != 1


@contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in the block after the given wall seconds, so that
    a loop that never ends (a float remainder never cancels) fails the test
    instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    if not hasattr(signal, "setitimer"):  # no interval timer on this platform
        yield
        return
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _exact(coeffs):
    """No coefficient is a float: each is an int or a Fraction."""
    return all(type(c) in (int, Fraction) for c in coeffs.values())


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

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=6,
        ),
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=6,
        ),
        st.tuples(st.fractions(max_denominator=5), st.fractions(max_denominator=5)),
    )
    def test_arithmetic_agrees_with_evaluation(self, a, b, point):
        f, g = Poly(a), Poly(b)
        for result, value in ((f + g, f(*point) + g(*point)), (f - g, f(*point) - g(*point)),
                              (f * g, f(*point) * g(*point)), (-f, -f(*point))):
            assert result(*point) == value
            assert all(result.coeffs.values())
        assert (f + g) - g == f and f * g == g * f

    def test_domain_variables_and_coefficient_facts(self):
        m, n = domain_variables([Param("m", 3, 1), Param("n", 2, 2)])
        x, y = LocalPoly.variable(0), LocalPoly.variable(1)
        assert (m, n) == (3 + x, 2 + 2 * y)
        assert (n * n - 4).multiple_of(4) and not (n * n - 2).multiple_of(4)
        assert (Fraction(1, 2) * n).multiple_of(1) and not (Fraction(1, 2) * m).multiple_of(1)
        assert (m - 3).nonnegative() and not (m - 3).nonnegative(strict=True)
        assert (m * n).nonnegative(strict=True) and not (m - 4).nonnegative()
        # A fact read off the coefficients holds at every point of the domain.
        for p in range(6):
            for q in range(6):
                value = (n * n - 4)(p, q)
                assert value % 4 == 0 and (m * n)(p, q) > 0

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

    def test_localize_agrees_with_substitute(self):
        # Reference: substitute shifts the chart projection.  Forms up to
        # degree 33 with rational coefficients, in every chart, at points
        # whose chart coordinate is not 1 or whose local coordinates vanish;
        # the coefficient of X_chart^d puts the point on the form, and at
        # degree 0 that leaves the zero form.
        rng = random.Random(1101)
        x, y = Poly.variable(0), Poly.variable(1)
        points = [(2, 3, 5), (0, 3, 5), (2, 0, 5), (0, 0, 7), (Fraction(-1, 2), Fraction(4, 3), -3)]
        for trial in range(68):
            d, chart = trial % 34, trial % 3
            r0, r1 = (i for i in range(3) if i != chart)
            u, v, w = (Fraction(c) for c in points[trial % len(points)])
            point = [w] * 3
            point[r0], point[r1] = u, v
            monomials = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
            coeffs = {
                e: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                for e in rng.sample(monomials, min(len(monomials), rng.randint(1, 30)))
            }
            top = tuple(d if i == chart else 0 for i in range(3))
            coeffs[top] = coeffs.get(top, 0) - Poly(coeffs, 3)(*point) / w ** d
            form = Poly(coeffs, 3)
            affine = Poly({(e[r0], e[r1]): c for e, c in form.coeffs.items()})
            expected = substitute(affine, x + u / w, y + v / w)
            assert form.localize(tuple(point), chart) == expected, (form, point, chart)
        assert Poly({}, 3).localize((2, 3, 5), 2) == Poly({})

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
        # has size sum over a + b <= 33 of (a + 1)*(b + 1).
        dense_33 = sum((a + 1) * (s - a + 1) for s in range(34) for a in range(s + 1))
        assert dense_33 == 66_045 <= MAX_LOCALIZE_PRODUCTS
        terms = " + ".join(f"X0^{a}*X1^{128 - a}" for a in range(128))
        dense = parse_ternary_form(terms + " - 128*X0^128")
        with pytest.raises(ValueError, match=r"X0\^i\*X1\^j, is 366145, more than the cap"):
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


_COEFFS = st.one_of(
    st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=7)
)
_LOCAL = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), _COEFFS, max_size=5
).map(Poly)
_INTEGER_LOCAL = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-9, 9), max_size=5
).map(Poly)


class TestExactCoefficients:
    """Every coefficient is an int or a Fraction, never a float: a float
    remainder would never cancel and a float shear would be inexact."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(_LOCAL, _LOCAL, _COEFFS)
    def test_operations_never_make_a_float(self, f, g, k):
        x, y = Poly.variable(0), Poly.variable(1)
        results = [
            f + g, f - g, f * g, k * f, f + k, k - f, -f, f**2, f.partial(0), f.partial(1),
            substitute(f, x + g * x, y - k * x, trunc=6), parse_local_poly(f.to_text()),
        ]
        # f homogenised to a ternary form of degree 6, through its text.
        form = Poly({(i, j, 6 - i - j): c for (i, j), c in f.coeffs.items()}, 3)
        assert parse_ternary_form(form.to_text()) == form
        results.append(parse_ternary_form(form.to_text()))
        for result in results:
            assert _exact(result.coeffs), result
        assert parse_local_poly(f.to_text()) == f
        assert all(_stored(c) for c in parse_local_poly(f.to_text()).coeffs.values())

    @settings(max_examples=150, deadline=None, database=None)
    @given(_INTEGER_LOCAL, _INTEGER_LOCAL)
    def test_integer_polynomials_stay_integers(self, f, g):
        x, y = Poly.variable(0), Poly.variable(1)
        for result in (f + g, f - g, f * g, 3 * f, f + 2, f.partial(0),
                       substitute(f, x + g * x, y - 2 * x, trunc=6)):
            assert all(type(c) is int for c in result.coeffs.values()), result

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        st.dictionaries(st.integers(0, 3), _COEFFS, min_size=1, max_size=4),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )
    @example(row={0: -1, 1: 1}, p1=Fraction(0))
    def test_localize_never_makes_a_float(self, row, p1):
        # X0 * h vanishes on X0 = 0, so (0 : p1 : 1) lies on the curve.
        # Integral coefficients are stored as ints, as Poly stores them.
        h = Poly({(i, 3 - i, 0) if i % 2 else (i, 0, 3 - i): c for i, c in row.items()}, 3)
        form = Poly.variable(0, 3) * (h + Poly({(0, 3, 0): 1}, 3))
        local = form.localize((0, p1, 1), 2)
        assert _exact(local.coeffs)
        assert all(_stored(c) for c in local.coeffs.values()), local

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.lists(st.tuples(st.integers(-5, 5), st.integers(1, 5)), min_size=1, max_size=5))
    def test_binary_forms_count_on_exact_remainders(self, factors):
        # Non-monic linear factors a*u + b*v: Euclid divides by leading
        # coefficients other than 1.
        form = Poly({(0, 0): 1})
        for a, b in factors:
            form = form * Poly({(1, 0): b, (0, 1): a})
        g = {e[0]: c for e, c in form.coeffs.items()}
        with _time_limit(1):
            gcd = _ugcd(g, {k - 1: k * c for k, c in g.items() if k})
            count = form.distinct_projective_roots()
        assert _exact(gcd)
        assert count == len({Fraction(-a, b) for a, b in factors})

    def test_a_non_monic_form_is_counted_in_bounded_time(self):
        form = Poly({(0, 0): 1})
        for a, b in ((3, 7), (3, 7), (7, -2), (49, 3), (5, 1), (6, -35)):
            form = form * Poly({(1, 0): a, (0, 1): b})
        with _time_limit(1):
            assert form.distinct_projective_roots() == 5


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
        # Literals longer than int()'s digit limit get a position too.
        nines = "9" * 5000
        with pytest.raises(PolyParseError, match=r"number of 5000 digits .* \(column 9\)"):
            parse_local_poly(f"y^2 - x^{nines}")
        with pytest.raises(PolyParseError, match=r"number of 5000 digits .* \(column 1\)"):
            parse_local_poly(f"{nines}*x + y")

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

    def test_parse_memory_grows_with_the_terms_not_the_tokens(self):
        # A dense form at the degree cap, 128: 8,385 terms with 50-digit
        # coefficients, about 0.6 MB of text in 117,389 tokens.  Its dict
        # takes about 1.5 MB; a list of every token took 17 MB.
        terms = [
            f"{10**49 + 7919 * (a * 129 + b)}*X0^{a}*X1^{b}*X2^{128 - a - b}"
            for a in range(129) for b in range(129 - a)
        ]
        text = " - ".join(terms)
        tracemalloc.start()
        try:
            form = parse_ternary_form(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(form.coeffs) == len(terms) == 8385 and form.form_degree() == 128
        assert peak < 4_000_000, peak


# The grammar's own pieces, names that are not variables, and characters the
# str predicates and int() treat differently: '²' is a digit but not decimal,
# '٣' is decimal but not ASCII, NBSP and the file separator are whitespace.
_PIECES = ["x", "y", "X0", "X1", "X2", "z", "xy", "x2", "0", "1", "7", "10", "007",
           "+", "-", "*", "/", "^", " ", "\t", "\xa0", "\x1c", "²", "٣", "$", "_", "é", "Ⅻ"]
_VARIABLES = ({"x": 0, "y": 1}, 2), ({"X0": 0, "X1": 1, "X2": 2}, 3)
# Mostly well-formed sums of terms in either variable set.
_FACTORS = st.one_of(
    st.builds("{}{}".format, st.sampled_from(["x", "y", "X0", "X1", "X2"]),
              st.sampled_from(["", "^0", "^1", "^2", "^13"])),
    st.integers(0, 10**30).map(str),
    st.builds("{}/{}".format, st.integers(0, 99), st.integers(0, 99)),
)
_SUMS = st.lists(
    st.tuples(st.sampled_from(["+", "-", " + ", " - "]), st.lists(_FACTORS, min_size=1, max_size=4)),
    min_size=1, max_size=6,
).map(lambda terms: "".join(sign + "*".join(factors) for sign, factors in terms)[1:])


def _outcome(parse, text, variables, nvars):
    """The parsed dict, or the error's text and column, and the time taken."""
    start = time.perf_counter()
    try:
        result = parse(text, variables, nvars)
    except PolyParseError as exc:
        result = (str(exc), exc.position)
    return result, time.perf_counter() - start


class TestParserAgainstTheCharacterLoop:
    """The one-pass parser over the regex's tokens, with integer
    accumulation, against the character-by-character parser of
    tests/_parser_oracle.py."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.one_of(
        _SUMS,
        st.lists(st.sampled_from(_PIECES), max_size=24).map("".join),
        st.text(alphabet="".join(_PIECES), max_size=24),
    ))
    @example("x^²")
    @example("٣")
    @example("\tX0^2\xa0-\x1cX1 * X2 ")
    @example("1/0")
    @example("x^y - 3/")
    @example("3/x")
    @example("2/4*x - 1/2*x")
    @example("x^ + $")
    @example("X0^2 X1 $")
    @example("9" * 5000)
    @example("X0^" + "9" * 4300 + " - X1^" + "9" * 4300)
    @example("X0^" + "9" * 4301 + " $")
    @example("x^ + " + "9" * 5000)
    @example("1/0*x + $")
    def test_same_dict_or_same_error(self, text):
        for (variables, nvars), parse in zip(_VARIABLES, (parse_local_poly, parse_ternary_form)):
            ours, seconds = _outcome(_parse_terms, text, variables, nvars)
            expected, _ = _outcome(oracle_parse_terms, text, variables, nvars)
            assert ours == expected, text
            assert seconds < 0.5, text
            if not isinstance(ours, dict):
                continue
            # The parsers wrap the dict unchecked: its coefficients must
            # already be ints where integral and Fractions otherwise, and the
            # result what Poly's checks make.
            assert all(_stored(c) for c in ours.values()), text
            reference = Poly(ours, nvars)
            try:
                parsed = parse(text)
            except PolyParseError:
                # Only a ternary text that is not a form is refused.
                assert nvars == 3, text
                with pytest.raises(ValueError):
                    reference.form_degree()
                continue
            assert all(_stored(c) for c in parsed.coeffs.values()), text
            assert parsed == reference and parsed.nvars == nvars, text
