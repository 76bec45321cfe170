"""Plane-curve laboratory: the seed curve behind every branch locus, its
singular-point structure, and exact A_k germ recognition.

The seed curve of parameter n is the degree-2n plane curve

    (X0^n + X1^n + X2^n)^2 - 4*((X0*X1)^n + (X0*X2)^n + (X1*X2)^n).

Its restriction to each coordinate line is the perfect square
(X_i^n - X_j^n)^2, so it meets each line in n points of intersection
multiplicity two, and at each of those points it has an A_{n-1}
singularity transversal to the line.  This module verifies all of that by
exact rational computation for small n, reducing the n points per line to
the single rational representative via the curve's torus symmetry (every
exponent is a multiple of n, so scaling two coordinates by n-th roots of
unity permutes the singular points without changing the local type).

A_k recognition works by iterated square completion on a truncated jet:
after normalizing the rank-one quadratic part to r*y^2, substitutions
y -> y - c1(x)/(2r) remove the terms linear in y; the order t of the
surviving pure-x part then gives the type A_{t-1}.  Substitutions never
decrease total degree, so truncation at the jet bound is sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .polynomials import BinaryForm, Poly, substitute
from .singularities import A, SingType

JET_BOUND_CAP = 64


class JetBoundError(RuntimeError):
    """The jet bound is too small to pin down the germ's type."""


class DegenerateGermError(ValueError):
    """No finite A-type order appeared up to the jet cap; the germ may be
    non-reduced or have non-isolated singular locus."""


@dataclass(frozen=True)
class Smooth:
    """The germ is regular: its linear part does not vanish."""

    def __str__(self) -> str:
        return "Smooth"


@dataclass(frozen=True)
class CorankAtLeastTwo:
    """The quadratic part vanishes identically; outside the A-type scope."""

    def __str__(self) -> str:
        return "CorankAtLeast2"


GermType = Union[SingType, Smooth, CorankAtLeastTwo]


def seed_curve(n: int) -> Poly:
    """The degree-2n seed curve, built through the exact form arithmetic."""
    if n < 2:
        raise ValueError(f"the seed curve needs n >= 2, got {n}")
    x0, x1, x2 = (Poly.variable(i, 3) for i in range(3))
    powers = x0**n + x1**n + x2**n
    pair_products = (x0 * x1) ** n + (x0 * x2) ** n + (x1 * x2) ** n
    return powers * powers - 4 * pair_products


def restrict_to_line(curve: Poly, line_index: int) -> BinaryForm:
    """Restrict to the coordinate line l_i = [X_{i-1} = 0], i in {1, 2, 3}."""
    if line_index not in (1, 2, 3):
        raise ValueError("line index must be 1, 2 or 3")
    return curve.restrict(line_index - 1)


_X = Poly.variable(0)
_Y = Poly.variable(1)


def classify_ak(f: Poly, jet_bound: int) -> GermType:
    """Classify a plane-curve germ as Smooth, A_k or corank >= 2.

    Works modulo total degree jet_bound.  Raises JetBoundError when the pure
    part vanishes to the bound (either the bound is too small or the germ is
    degenerate); the classify() wrapper retries with doubled bounds.
    """
    if f.constant_term != 0:
        raise ValueError("the germ must vanish at the origin")
    if jet_bound < 3:
        raise ValueError("jet bound below 3 cannot even see the quadratic part")
    g = f.truncated(jet_bound)
    if g.homogeneous_part(1):
        return Smooth()
    a = g.coefficient((2, 0))
    b = g.coefficient((1, 1))
    c = g.coefficient((0, 2))
    if 4 * a * c - b * b != 0:
        return A(1)
    if not (a or b or c):
        return CorankAtLeastTwo()

    # Rank-one quadratic part: normalize it to c*y^2.
    if c == 0:
        # Here b = 0 and a != 0; swap the variables.
        g = substitute(g, _Y, _X, trunc=jet_bound)
    elif b != 0:
        g = substitute(g, _X, _Y - (b / (2 * c)) * _X, trunc=jet_bound)
    unit = g.coefficient((0, 2))
    assert unit != 0 and not g.coefficient((2, 0)) and not g.coefficient((1, 1))

    for _ in range(jet_bound + 1):
        linear_in_y = {e[0]: c for e, c in g.coeffs.items() if e[1] == 1}
        if not linear_in_y:
            pure = [e[0] for e in g.coeffs if e[1] == 0]
            if not pure:
                raise JetBoundError(
                    f"pure part vanishes modulo degree {jet_bound}; "
                    "enlarge the jet bound or the germ is degenerate"
                )
            return A(min(pure) - 1)
        # One square-completion step; the order of the y-linear part rises
        # strictly, so the loop terminates within jet_bound passes.
        beta = Poly({(i, 0): coeff / (2 * unit) for i, coeff in linear_in_y.items()})
        g = substitute(g, _X, _Y - beta, trunc=jet_bound)
    raise JetBoundError(f"square completion failed to settle below degree {jet_bound}")


def classify(
    f: Poly, expected_k: Optional[int] = None, cap: int = JET_BOUND_CAP
) -> GermType:
    """classify_ak with automatic jet-bound doubling, capped.

    The starting bound is 2*expected_k + 4 when a type is anticipated,
    otherwise 8.
    """
    bound = 8 if expected_k is None else max(8, 2 * expected_k + 4)
    bound = min(bound, cap)
    while True:
        try:
            return classify_ak(f, bound)
        except JetBoundError:
            if bound >= cap:
                raise DegenerateGermError(
                    f"no finite A-type order up to the jet cap {cap}; "
                    "the germ may be non-reduced or non-isolated"
                ) from None
            bound = min(2 * bound, cap)


def tangent_cone_avoids(f: Poly, direction: tuple[int, int]) -> bool:
    """Whether the tangent cone (lowest homogeneous part) does not vanish on
    the given direction vector, i.e. the direction is transversal."""
    order = f.order()
    if order is None:
        raise ValueError("the zero germ has no tangent cone")
    return f.homogeneous_part(order)(*direction) != 0


# Rational representatives of the singular points, one per coordinate line,
# with a chart in which the representative has a nonzero coordinate.
_REPRESENTATIVES = {1: (0, 1, 1), 2: (1, 0, 1), 3: (1, 1, 0)}
_CHARTS = {1: 1, 2: 0, 3: 0}


@dataclass(frozen=True)
class LineCheck:
    """Verification outcome for one coordinate line."""

    line_index: int
    representative: tuple[int, int, int]
    restriction_is_square: bool
    distinct_points: int
    partials_vanish: bool
    germ: GermType
    transversal: bool


@dataclass(frozen=True)
class CurveSingularityReport:
    """Singular-point structure of the seed curve, verified line by line."""

    n: int
    expected_type: SingType
    lines: tuple[LineCheck, ...]
    torus_invariant: bool
    failures: tuple[str, ...]
    note: str

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def total_points(self) -> int:
        return sum(check.distinct_points for check in self.lines)


def singular_points_report(n: int, *, max_n: int = 8) -> CurveSingularityReport:
    """Verify the seed curve's singular-point structure for a small n.

    Per line: the restriction identity (X_i^n - X_j^n)^2, the count of n
    distinct contact points, vanishing partials at the rational
    representative, the A_{n-1} classification there, and transversality of
    the tangent cone to the line.  A final stage checks the torus symmetry
    (exponent divisibility by n) that carries the representative's type to
    the remaining points.  Failed stages are collected by name in
    report.failures.
    """
    if n < 2:
        raise ValueError(f"the seed curve needs n >= 2, got {n}")
    if n > max_n:
        raise ValueError(f"n = {n} exceeds the desk-scale bound {max_n}")
    curve = seed_curve(n)
    expected = A(n - 1)
    failures: list[str] = []

    # Restriction of the curve to any coordinate line, as a binary form.
    expected_restriction = BinaryForm.from_dict(2 * n, {2 * n: 1, n: -2, 0: 1})

    checks: list[LineCheck] = []
    for line_index in (1, 2, 3):
        form = restrict_to_line(curve, line_index)
        identity_ok = form == expected_restriction
        if not identity_ok:
            failures.append(f"restriction-identity line {line_index}")
        points = form.distinct_projective_roots()
        if points != n:
            failures.append(f"distinct-point-count line {line_index}")

        rep = _REPRESENTATIVES[line_index]
        chart = _CHARTS[line_index]
        local = curve.localize(rep, chart)
        partials_vanish = not local.homogeneous_part(1)
        if not partials_vanish:
            failures.append(f"vanishing-partials line {line_index}")

        germ = classify(local, expected_k=n - 1)
        if germ != expected:
            failures.append(f"representative-type line {line_index}")

        # The line's vanishing coordinate is one of the two local variables;
        # the line itself runs along the other one.
        remaining = [i for i in range(3) if i != chart]
        axis = remaining.index(line_index - 1)
        direction = (0, 1) if axis == 0 else (1, 0)
        transversal = tangent_cone_avoids(local, direction)
        if not transversal:
            failures.append(f"transversality line {line_index}")

        checks.append(
            LineCheck(
                line_index=line_index,
                representative=rep,
                restriction_is_square=identity_ok,
                distinct_points=points,
                partials_vanish=partials_vanish,
                germ=germ,
                transversal=transversal,
            )
        )

    torus_invariant = curve.exponents_divisible_by(n)
    if not torus_invariant:
        failures.append("torus-exponent-divisibility")

    return CurveSingularityReport(
        n=n,
        expected_type=expected,
        lines=tuple(checks),
        torus_invariant=torus_invariant,
        failures=tuple(failures),
        note=(
            "only the three coordinate lines are examined; "
            "points away from them are not claimed"
        ),
    )
