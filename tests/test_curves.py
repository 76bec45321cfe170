"""The seed curve, its singular-point report and A_k recognition."""

import random

import pytest

from picardlab.curves import (
    CorankAtLeastTwo,
    DegenerateGermError,
    JetBoundError,
    Smooth,
    classify,
    classify_ak,
    restrict_to_line,
    seed_curve,
    singular_points_report,
    tangent_cone_avoids,
)
from picardlab.polynomials import BinaryForm, LocalPoly, parse_local_poly, substitute
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
            root = BinaryForm.from_dict(n, {n: 1, 0: -1})
            expected = root * root
            for line in (1, 2, 3):
                assert restrict_to_line(c, line) == expected

    def test_distinct_root_count(self):
        for n in range(2, 7):
            assert restrict_to_line(seed_curve(n), 1).distinct_projective_roots() == n

    def test_bad_line_index(self):
        with pytest.raises(ValueError):
            restrict_to_line(seed_curve(2), 0)


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

    def test_one_square_completion_step(self):
        assert classify(parse_local_poly("y^2 + 2*x^2*y + x^3")) == A(2)

    def test_rank_one_with_mixed_quadratic(self):
        # (x + y)^2 + x^3 is A2 after the linear normalization.
        assert classify(parse_local_poly("x^2 + 2*x*y + y^2 + x^3")) == A(2)

    def test_pure_x_quadratic_swaps_variables(self):
        assert classify(parse_local_poly("x^2 - y^3")) == A(2)

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            classify_ak(parse_local_poly("1 + x"), 8)

    def test_jet_bound_too_small(self):
        with pytest.raises(JetBoundError):
            classify_ak(parse_local_poly("y^2 - x^9"), 8)
        assert classify(parse_local_poly("y^2 - x^9")) == A(8)

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
        with pytest.raises(ValueError):
            singular_points_report(1)
        with pytest.raises(ValueError):
            singular_points_report(9)
        assert singular_points_report(8, max_n=8).ok

    def test_note_mentions_scope(self):
        assert "coordinate lines" in singular_points_report(2).note
