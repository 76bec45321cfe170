"""The seed curve, its singular-point report and A_k recognition."""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import _classify_oracle
import _seed_oracle
import pytest
from _classify_oracle import classify_ak as oracle_classify_ak
from hypothesis import given, settings, strategies as st

from picardlab import constructions, curves
from picardlab.curves import (
    JET_BOUND_CAP,
    CorankAtLeastTwo,
    DegenerateGermError,
    JetBoundError,
    Smooth,
    _at,
    _euler,
    _normal_form_index,
    _pull,
    classify,
    classify_ak,
    seed_certificate,
    seed_curve,
    singular_points_report,
    tangent_cone_avoids,
)
from picardlab.polynomials import LocalPoly, Poly, parse_local_poly, substitute
from picardlab.singularities import A


class TestSeedCurve:
    def test_coefficients_at_n2(self):
        c = seed_curve(2)
        assert c.degree() == 4
        assert c.coefficient((4, 0, 0)) == 1
        assert c.coefficient((2, 2, 0)) == -2

    def test_coordinate_vertices_stay_off_the_curve(self):
        for n in range(2, 9):
            c = seed_curve(n)
            assert c(1, 0, 0) == 1
            assert c(0, 0, 1) == 1

    def test_degree_bookkeeping(self):
        for n in range(2, 9):
            assert seed_curve(n).degree() == 2 * n

    def test_exponent_divisibility(self):
        for n in range(2, 9):
            assert seed_curve(n).exponents_divisible_by(n)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            seed_curve(1)


class TestRestriction:
    def test_identity_on_all_lines(self):
        for n in range(2, 9):
            c = seed_curve(n)
            root = Poly({(n, 0): 1, (0, n): -1})
            expected = root * root
            for index in range(3):
                assert c.restrict(index) == expected

    def test_distinct_root_count(self):
        for n in range(2, 7):
            assert seed_curve(n).restrict(0).distinct_projective_roots() == n

    def test_bad_line_index(self):
        for index in (-1, 3):
            with pytest.raises(ValueError, match="out of range"):
                seed_curve(2).restrict(index)


class TestLocalize:
    def test_matches_hand_expansion_at_reference_point(self):
        loc = seed_curve(2).localize((0, 1, 1), 1)
        inner = parse_local_poly("x^2 - y^2 - 2*y")
        assert loc == inner * inner - parse_local_poly("4*x^2")

    def test_constant_term_vanishes(self):
        for n in (2, 3, 4):
            loc = seed_curve(n).localize((0, 1, 1), 1)
            assert loc.constant_term == 0


class TestClassify:
    def test_normal_forms(self):
        for k in range(1, 8):
            f = parse_local_poly(f"y^2 - x^{k + 1}")
            assert classify(f, expected_k=k) == A(k)

    def test_node_from_product(self):
        assert classify(parse_local_poly("x*y")) == A(1)

    def test_smooth(self):
        assert classify(parse_local_poly("x + y^2")) == Smooth()

    def test_corank_two(self):
        assert classify(parse_local_poly("x^3 + y^3")) == CorankAtLeastTwo()

    def test_field_less_verdicts_are_distinct_and_true(self):
        smooth = classify(parse_local_poly("x + y^2"))
        corank = classify(parse_local_poly("x^3 + y^3"))
        assert smooth != corank and Smooth() != CorankAtLeastTwo()
        assert smooth and corank
        assert len({smooth, Smooth(), corank, CorankAtLeastTwo()}) == 2
        assert (repr(smooth), repr(corank)) == ("Smooth()", "CorankAtLeastTwo()")

    def test_one_square_completion_step(self):
        assert classify(parse_local_poly("y^2 + 2*x^2*y + x^3")) == A(2)

    def test_rank_one_with_mixed_quadratic(self):
        # (x + y)^2 + x^3 is A2 after the linear normalization.
        assert classify(parse_local_poly("x^2 + 2*x*y + y^2 + x^3")) == A(2)

    def test_shear_by_a_non_integer(self):
        # (x + 2y)^2 + x^5 shears by b/(2c) = 4/8 = 1/2 to 4y^2 + x^5: on
        # integer coefficients the shear must be a Fraction, not a float.
        assert classify(parse_local_poly("x^2 + 4*x*y + 4*y^2 + x^5")) == A(4)

    def test_pure_x_quadratic_swaps_variables(self):
        assert classify(parse_local_poly("x^2 - y^3")) == A(2)

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            classify_ak(parse_local_poly("1 + x"), 8)

    def test_zero_germ_rejected(self):
        with pytest.raises(ValueError, match="the germ is the zero polynomial"):
            classify(parse_local_poly("x^2 - x^2"))

    def test_jet_bound_too_small(self):
        with pytest.raises(JetBoundError):
            classify_ak(parse_local_poly("y^2 - x^9"), 8)
        assert classify(parse_local_poly("y^2 - x^9")) == A(8)

    def test_correct_hint_decides_in_one_attempt(self, jet_bounds):
        x, y = Poly.variable(0), Poly.variable(1)
        for k in range(1, 30):
            # Quadratic part (x + y)^2: rank one with b != 0, so the shear runs.
            sheared = substitute(y * y - x ** (k + 1), x + 2 * y, x + y)
            jet_bounds.clear()
            assert classify(sheared, expected_k=k) == A(k)
            assert jet_bounds == [k + 2]

    def test_planted_ak_is_decided_exactly_at_k_plus_2(self):
        # y^2 - x^(k+1) after a coordinate change that bends the polar curve,
        # so that every Newton step counts.  The quadratic part is y^2,
        # (x + 2y)^2 (b != 0: the shear) or x^2 (c = 0: the swap), in turn.
        x, y = Poly.variable(0), Poly.variable(1)
        bend = x * x + x * y + y * y + x ** 3 - y ** 3
        changes = [(x, y + bend), (x, x + 2 * y + bend), (y, x + bend)]
        for k in range(2, JET_BOUND_CAP - 1):
            gx, gy = changes[k % 3]
            f = substitute(y * y - x ** (k + 1), gx, gy, trunc=k + 2)
            with pytest.raises(JetBoundError):
                classify_ak(f, k + 1)
            assert classify_ak(f, k + 2) == A(k), k

    def test_small_hint_still_doubles(self, jet_bounds):
        assert classify(parse_local_poly("y^2 - x^10"), expected_k=1) == A(9)
        assert jet_bounds == [3, 6, 12]

    def test_degenerate_germ(self):
        with pytest.raises(DegenerateGermError):
            classify(parse_local_poly("y^2"))
        with pytest.raises(DegenerateGermError):
            classify(parse_local_poly("y^2 + x*y^2"))

    def test_invariance_under_random_coordinate_changes(self):
        rng = random.Random(97)
        x, y = LocalPoly.variable(0), LocalPoly.variable(1)
        for k in range(1, 7):
            base = y * y - x ** (k + 1)
            for _ in range(25):
                while True:
                    a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
                    if a * d - b * c != 0:
                        break
                tails = [
                    LocalPoly(
                        {
                            (2, 0): rng.randint(-2, 2),
                            (1, 1): rng.randint(-2, 2),
                            (0, 2): rng.randint(-2, 2),
                        }
                    )
                    for _ in range(2)
                ]
                gx = a * x + b * y + tails[0]
                gy = c * x + d * y + tails[1]
                assert classify(substitute(base, gx, gy), expected_k=k) == A(k)


class TestIntegerNewton:
    """classify_ak runs the polar Newton on integer series; the oracle runs
    it on Fraction series.  Both must agree on every jet bound."""

    @staticmethod
    def verdict(classifier, f, bound):
        try:
            return classifier(f, bound)
        except JetBoundError:
            return JetBoundError

    @staticmethod
    def planted(k, branch, sign, rng):
        """A rational multiple of y^2 - u*x^(k+1) with quadratic part c*y^2
        (branch 0), a square with a mixed term (1: the shear) or a multiple
        of x^2 (2: the swap), after a rational bend of degrees 2 and 3; the
        leading coefficient of y^2 after the normalisation has the given sign."""
        x, y = Poly.variable(0), Poly.variable(1)

        def rational():
            return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))

        bend = sum((rational() * x**i * y ** (d - i) for d in (2, 3) for i in range(d + 1)), Poly())
        alpha, beta = abs(rational()), abs(rational())
        gx, gy = [(x, beta * y), (x, alpha * x + beta * y), (y, alpha * x)][branch]
        scale = sign * abs(rational())
        base = scale * (y * y - rational() * x ** (k + 1))
        f = substitute(base, gx, gy + bend, trunc=k + 4)
        return f + Poly({(i, k + 3 - i): rational() for i in range(0, k + 4, 3)})

    def test_agrees_with_the_fraction_oracle(self):
        rng = random.Random(18)
        for k in range(2, 23):
            for branch in range(3):
                sign = -1 if (k + branch) % 2 else 1
                f = self.planted(k, branch, sign, rng)
                assert (f.coefficient((0, 2)) or f.coefficient((2, 0))) * sign > 0
                for bound in (k + 1, k + 2, k + 4):
                    ours = self.verdict(classify_ak, f, bound)
                    assert ours == self.verdict(oracle_classify_ak, f, bound), (k, branch, bound)
                    assert ours == (JetBoundError if bound == k + 1 else A(k)), (k, branch, bound)
        # Integer coefficients with a mixed term: the shear and the Newton
        # steps divide ints.
        f = parse_local_poly("x^2 + 2*x*y + y^2 - x^5")
        assert classify_ak(f, 8) == oracle_classify_ak(f, 8) == A(4)

    def test_integer_branch_is_the_rational_branch_at_l_x(self, monkeypatch):
        # Each Newton's last composition is with its final branch phi.
        branches = {}
        for module in (curves, _classify_oracle):
            def recording(columns, phi, m, module=module, original=module._compose):
                branches[module] = list(phi)
                return original(columns, phi, m)

            monkeypatch.setattr(module, "_compose", recording)
        f = parse_local_poly("-3/2*y^2 + 5/3*x^2*y + 1/4*x*y^2 - 7/5*y^3 + 2/7*x^13")
        assert classify_ak(f, 14) == oracle_classify_ak(f, 14) == A(3)
        # D = lcm(2, 3, 4, 5, 7) = 420 and l = D*f_yy(0, 0) = 420*(-3) = -1260.
        ours, rational = branches[curves], branches[_classify_oracle]
        assert all(type(v) is int for v in ours) and any(ours)
        assert ours == [(-1260) ** t * v for t, v in enumerate(rational)]

    def test_huge_coefficients(self):
        # A 300-digit bend keeps every step an exact integer division.
        x, y = Poly.variable(0), Poly.variable(1)
        big = Fraction(10**300 + 7, 3**40)
        f = substitute(y * y - x**41, x, -y + big * x * x, trunc=42)
        for bound in (41, 42):
            ours = self.verdict(classify_ak, f, bound)
            assert ours == self.verdict(oracle_classify_ak, f, bound)
        assert ours == A(40)


class TestTangentCone:
    def test_transversal_direction(self):
        # The cusp's tangent cone is the doubled line y = 0, so it contains
        # the x-direction and avoids the y-direction.
        f = parse_local_poly("y^2 - x^3")
        assert tangent_cone_avoids(f, (0, 1))
        assert not tangent_cone_avoids(f, (1, 0))


class TestReport:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_report_succeeds(self, n):
        report = singular_points_report(n)
        assert report.ok, report.failures
        assert report.total_points == 3 * n
        assert report.torus_invariant
        for check in report.lines:
            assert check.restriction_is_square
            assert check.distinct_points == n
            assert check.partials_vanish
            assert check.germ == A(n - 1)
            assert check.transversal

    def test_odd_n_supported(self):
        # no parity constraint at the plane level
        assert singular_points_report(3).ok

    def test_bounds(self):
        for n in (1, 64):
            with pytest.raises(ValueError, match="2 <= n <= 63"):
                singular_points_report(n)
        assert singular_points_report(8).ok

    def test_note_mentions_scope(self):
        assert "coordinate lines" in singular_points_report(2).note


class TestSeedCertificate:
    STAGES = (
        "smooth conic", "vertices", "tangency", "etale off the triangle", "local normal form",
    )

    @pytest.mark.parametrize("n", [*range(2, 17), 32, 63])
    def test_agrees_with_the_laboratory(self, n):
        certificate = seed_certificate(n)
        report = singular_points_report(n)
        assert certificate.ok and report.ok, (certificate.failures, report.failures)
        assert certificate.singularity == report.expected_type == A(n - 1)
        assert certificate.points_per_line == n
        assert report.total_points == 3 * n
        tangency = certificate.stage("tangency")
        curve = seed_curve(n)
        for check in report.lines:
            assert check.restriction_is_square
            assert curve.restrict(check.line_index - 1) == tangency.value("curve")
            assert check.distinct_points == certificate.points_per_line
            assert check.germ == certificate.singularity
            assert check.transversal
        normal_form = certificate.stage("local normal form")
        assert normal_form.value("transversal")
        assert certificate.stage("etale off the triangle").value("torus") == report.torus_invariant

    def test_stages_and_their_numbers(self):
        certificate = seed_certificate(5)
        assert tuple(stage.name for stage in certificate.stages) == self.STAGES
        assert certificate.stage("smooth conic").value("determinant") == -32
        assert certificate.stage("vertices").value("values") == (1, 1, 1)
        tangency = certificate.stage("tangency")
        assert tangency.value("conic") == parse_local_poly("x^2 - 2*x*y + y^2")
        assert tangency.value("curve") == parse_local_poly("x^10 - 2*x^5*y^5 + y^10")
        assert tangency.value("remainder") == -1
        jacobian = certificate.stage("etale off the triangle").value("jacobian")
        assert jacobian.coeffs == {(4, 4, 4): 125}
        normal_form = certificate.stage("local normal form")
        assert normal_form.value("conic") == parse_local_poly("x^2 + 2*x*y + y^2 - 4*x")
        assert normal_form.value("curve") == parse_local_poly("y^2 - 4*x^5")
        assert str(certificate.stage("smooth conic")) == (
            "smooth conic: Hessian determinant of Q = -32"
        )

    def test_any_n_in_constant_time(self):
        start = time.perf_counter()
        for n in (10**6, 10**12):
            certificate = seed_certificate(n)
            assert certificate.ok
            assert certificate.singularity == A(n - 1)
            assert certificate.points_per_line == n
        assert time.perf_counter() - start < 0.5

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 2"):
            seed_certificate(1)

    def test_type_read_off_the_normal_form(self):
        def index(text, powered=(False, False)):
            return _normal_form_index(_pull(parse_local_poly(text), powered))

        # Exponents fixed (x -> x), then y^2 - 4x^n for every n: A_{n-1}.
        assert index("y^2 - 4*x^7") == (0, 6)
        assert index("2*y^2 + 3*x^2") == (0, 1)
        assert index("y^2 - 4*x", (True, False)) == (1, -1)
        # y^2 - 4x is A_0, not a singular point, at every n.
        assert index("y^2 - 4*x") is None
        # A coefficient that depends on n is not read off: y^2 - n*x^n.
        y2, power = (_pull(parse_local_poly(text), (True, False)) for text in ("y^2", "x"))
        assert _normal_form_index(y2 - Poly.variable(4, 5) * power) is None
        for text in ("y^2", "y^2 + x", "y^2 + x*y", "y^2 + x^3 + x^4", "x^2 + y^3"):
            assert index(text) is None

    def test_the_proof_at_n_is_the_per_n_certificate(self):
        for n in (*range(2, 301), 10**6, 10**12):
            certificate, expected = seed_certificate(n), _seed_oracle.seed_certificate(n)
            assert certificate == expected and certificate.ok, n
            assert list(map(str, certificate.stages)) == list(map(str, expected.stages))
            assert (certificate.singularity, certificate.points_per_line) == (A(n - 1), n)
            assert constructions._certified_seed(n) == (A(n - 1), n)


def _small_polys(nvars):
    """Small integer Polys in nvars variables, exponents at most 3."""
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * nvars), st.integers(-5, 5),
                           max_size=5).map(lambda coeffs: Poly(coeffs, nvars))


@settings(max_examples=150, deadline=None, database=None)
@given(st.data(), st.sampled_from([2, 3]), st.integers(2, 40))
def test_the_symbolic_operations_commute_with_reading_at_n(data, k, n):
    """The seed proof's operations on Polys in (x_i, X_i, n), X_i = x_i^n,
    read at n, are the operations on the Polys in x_i that they stand for."""
    f = data.draw(_small_polys(k))
    powered = data.draw(st.tuples(*[st.booleans()] * k))
    g, h = data.draw(_small_polys(2 * k + 1)), data.draw(_small_polys(2 * k + 1))
    i = data.draw(st.integers(0, k - 1))
    powers = tuple(n if p else 1 for p in powered)
    assert _at(_pull(f, powered), n) == _seed_oracle.power_pullback(f, powers)
    assert _at(_euler(g, i), n) == Poly.variable(i, k) * _at(g, n).partial(i)
    assert _at(g * h, n) == _at(g, n) * _at(h, n)


@pytest.mark.parametrize("n", range(2, 7))
def test_singular_scheme_is_supported_on_the_3n_points(n):
    """Independent check with sympy: in each affine chart, x*y and
    x^n + y^n - 1 lie in the radical of (F, F_x, F_y), so every singular
    point lies on a coordinate line with the other two coordinates n-th
    roots of unity; those are the 3n points."""
    sympy = pytest.importorskip("sympy")
    x, y, t = sympy.symbols("x y t")
    X = sympy.symbols("X0:3")
    F = (X[0] ** n + X[1] ** n + X[2] ** n) ** 2 - 4 * (
        (X[0] * X[1]) ** n + (X[0] * X[2]) ** n + (X[1] * X[2]) ** n
    )
    for chart in range(3):
        u, v = (X[i] for i in range(3) if i != chart)
        f = sympy.expand(F.subs({X[chart]: 1, u: x, v: y}))
        ideal = [f, f.diff(x), f.diff(y)]
        for g in (x * y, x**n + y**n - 1):
            # Rabinowitsch: g is in the radical iff 1 is in (ideal, 1 - t*g).
            basis = sympy.groebner([*ideal, 1 - t * g], t, x, y, order="grevlex")
            assert list(basis.exprs) == [1], (chart, g)


def test_normalization_check_survives_python_O():
    # (x + y)^2 + x^3 has a rank-one quadratic part with an x*y term.  With
    # substitute patched to change nothing, the normalization to c*y^2 leaves
    # that term; under -O an assert would be gone, and the check must still
    # raise.
    script = (
        "from picardlab import curves\n"
        "from picardlab.polynomials import parse_local_poly\n"
        "print('debug', __debug__)\n"
        "curves.substitute = lambda g, gx, gy, trunc=None: g\n"
        "try:\n"
        "    curves.classify_ak(parse_local_poly('x^2 + 2*x*y + y^2 + x^3'), 8)\n"
        "except ArithmeticError as exc:\n"
        "    print(exc)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(curves.__file__).parents[1])),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (
        "debug False\n"
        "normalize: the quadratic part is 1*x^2 + 2*x*y + 1*y^2, expected c*y^2\n"
    )
