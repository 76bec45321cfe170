"""Plane-curve laboratory: the seed curve behind every branch locus, the
certificate of its singular points, and exact A_k germ recognition.

The seed curve of parameter n is the degree-2n plane curve

    C_n = Q(X0^n, X1^n, X2^n),   Q(u, v, w) = (u + v + w)^2 - 4*(uv + uw + vw),

that is (X0^n + X1^n + X2^n)^2 - 4*((X0*X1)^n + (X0*X2)^n + (X1*X2)^n).
seed_proof() proves once, with n symbolic, that for every n >= 2 its
singular points are exactly 3n points of type A_{n-1}, n on each
coordinate line and transversal to it; seed_certificate(n) reads it at n.

singular_points_report(n) is the independent laboratory check for
2 <= n <= 63, the range in which the jet cap decides A_{n-1}: it expands
the curve, restricts it to each coordinate line and classifies the germ at
one rational representative per line, reducing the n points per line to
that representative via the curve's torus symmetry (every exponent is a
multiple of n, so scaling two coordinates by n-th roots of unity permutes
the singular points without changing the local type).

A_k recognition follows the polar curve of a truncated jet: with the rank-one
quadratic part normalized to c*y^2, f_y = 0 is a branch y = phi(x), found by
Newton iteration on power series, and f = u*(y - phi)^2 + f(x, phi) with
u(0) = c, so f(x, phi) has order k + 1 at A_k (the splitting lemma; Greuel,
Lossen and Shustin, I.2).  A jet of degree N decides that order below N.
The iteration runs on integers: with the jet's denominators cleared (times
D, their lcm), f_y = l*y + h with l = D*f_yy(0, 0) and ord h >= 2, so phi's
x^t coefficient lies in l^-(t-1)*Z, and scaling x by l, which leaves the
order of f(x, phi) unchanged, makes every coefficient an integer; each
Newton step divides by l and checks that the remainder is zero.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction
from typing import Optional, Union

from .polynomials import Poly, at_least, substitute
from .singularities import A, SingType

JET_BOUND_CAP = 64


class JetBoundError(RuntimeError):
    """The jet bound is too small to pin down the germ's type."""


class DegenerateGermError(ValueError):
    """No A-type order appeared below the jet cap: the germ is A_k with k at
    least the cap minus one, or it is non-reduced or has a non-isolated
    singular locus."""


class _Verdict:
    """A field-less germ verdict: every instance of one class is equal to
    every other, unequal to anything else, and true."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self)

    def __hash__(self) -> int:
        return hash(type(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Smooth(_Verdict):
    """The germ is regular: its linear part does not vanish."""

    __slots__ = ()

    def __str__(self) -> str:
        return "Smooth"


class CorankAtLeastTwo(_Verdict):
    """The quadratic part vanishes identically; outside the A-type scope."""

    __slots__ = ()

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


_X = Poly.variable(0)
_Y = Poly.variable(1)


def _compose(columns: list, phi: list, m: int) -> list:
    """sum_j columns[j](x) * phi(x)^j modulo x^m by Horner's rule; phi has
    order >= 2, so column j, padded to x^m, counts modulo x^(m - 2j) only."""
    acc: list = []
    for j in reversed(range(min(len(columns), (m + 1) // 2))):
        acc, prev = columns[j][: m - 2 * j], acc
        for i, p in enumerate(phi[: len(acc)]):
            if p:
                for t, a in enumerate(prev[: len(acc) - i]):
                    acc[i + t] += p * a
    return acc


def classify_ak(f: Poly, jet_bound: int) -> GermType:
    """Classify a plane-curve germ as Smooth, A_k or corank >= 2.

    Works modulo total degree jet_bound N, which decides A_k when k + 2 <= N.
    Raises JetBoundError when f(x, phi) vanishes modulo x^N (the bound is too
    small or the germ is degenerate); classify() retries with doubled bounds.
    """
    if not f:
        raise ValueError("the germ is the zero polynomial")
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
        g = substitute(g, _X, _Y - Fraction(b, 2 * c) * _X, trunc=jet_bound)
    a, b, c = g.coefficient((2, 0)), g.coefficient((1, 1)), g.coefficient((0, 2))
    if a or b or not c:
        raise ArithmeticError(
            f"normalize: the quadratic part is {a}*x^2 + {b}*x*y + {c}*y^2, expected c*y^2"
        )

    # On integers: D*g(l*x, y), with D the lcm of g's denominators and
    # l = D*g_yy(0, 0), as sum_j columns[j](x) * y^j, each column padded to x^jet_bound.
    lcm = math.lcm(*(v.denominator for v in g.coeffs.values()))
    ints = {e: v.numerator * (lcm // v.denominator) for e, v in g.coeffs.items()}
    scale = [(2 * ints[0, 2]) ** i for i in range(jet_bound)]
    columns = [[ints.get((i, j), 0) * scale[i] for i in range(jet_bound - j)]
               for j in range(jet_bound)]
    fy = [[(j + 1) * v for v in column] for j, column in enumerate(columns[1:])]
    fyy = [[(j + 1) * v for v in column] for j, column in enumerate(fy[1:])]
    # Newton's step phi -= f_y(x, phi)/f_yy(x, phi) doubles phi's precision from
    # phi = 0 mod x^2; f_y(x, phi) vanishes below x^known, so f_yy counts mod x^(m - known).
    phi: list = [0, 0]
    while (known := len(phi)) < jet_bound - 1:
        m = min(2 * known, jet_bound - 1)
        num, den = _compose(fy, phi, m), _compose(fyy, phi, m - known)
        for t in range(known, m):
            q, r = divmod(-(num[t] + sum(phi[i] * den[t - i] for i in range(known, t))), den[0])
            if r:
                raise ArithmeticError(f"the polar branch's x^{t} coefficient is not an integer")
            phi.append(q)
    on_polar = _compose(columns, phi, jet_bound)
    if not any(on_polar):
        raise JetBoundError(f"f(x, phi) on the polar curve vanishes modulo x^{jet_bound}; "
                            "enlarge the jet bound or the germ is degenerate")
    return A(next(t for t, v in enumerate(on_polar) if v) - 1)


def classify(f: Poly, expected_k: Optional[int] = None) -> GermType:
    """classify_ak with automatic jet-bound doubling, capped at JET_BOUND_CAP.

    The starting bound is expected_k + 2 when a type is anticipated, the
    smallest jet that holds the pure term x^(k+1) of A_k, otherwise 8.
    """
    bound = 8 if expected_k is None else max(3, expected_k + 2)
    bound = min(bound, JET_BOUND_CAP)
    while True:
        try:
            return classify_ak(f, bound)
        except JetBoundError:
            if bound >= JET_BOUND_CAP:
                raise DegenerateGermError(
                    f"the germ's type is undecided at jet cap {JET_BOUND_CAP}: it may be "
                    f"A_k with k >= {JET_BOUND_CAP - 1}, or a non-reduced or non-isolated germ"
                ) from None
            bound = min(2 * bound, JET_BOUND_CAP)


def tangent_cone_avoids(f: Poly, direction: tuple[int, int]) -> bool:
    """Whether the tangent cone (lowest homogeneous part) does not vanish on
    the given direction vector, i.e. the direction is transversal."""
    order = f.order()
    if order is None:
        raise ValueError("the zero germ has no tangent cone")
    return f.homogeneous_part(order)(*direction) != 0


# ---------------------------------------------------------------------------
# The seed-curve certificate, proved once for every n >= 2.  A polynomial in
# symbolic n is a Poly in the x_i, then the X_i = x_i^n, then n; x_i^b*X_i^a
# is x_i^(a*n + b).  Pulling back by x_i -> x_i^n renames x_i to X_i, _euler
# is x_i*d/dx_i and _at reads the polynomial at one n.  A coefficient fact is
# a Poly identity; an exponent fact a*n + b >= c is at_least(a*_N + b, c),
# with _N the n of every n >= 2 shifted onto its domain (domain_variables).

_Y2 = (0, 2, 0, 0, 0)  # y^2 among (x, y, X, Y, n)
_N = 2 + Poly.variable(0)


def _conic(u, v, w):
    """Q(u, v, w) for coordinates that are numbers or polynomials."""
    return (u + v + w) ** 2 - 4 * (u * v + u * w + v * w)


def _pull(f: Poly, powered: tuple) -> Poly:
    """f with x_i renamed X_i wherever powered[i], a Poly in (x_i, X_i, n)."""
    return Poly._wrap({tuple(0 if p else k for k, p in zip(e, powered))
                       + tuple(k if p else 0 for k, p in zip(e, powered)) + (0,): c
                       for e, c in f.coeffs.items()}, 2 * f.nvars + 1)


def _euler(f: Poly, i: int) -> Poly:
    """x_i*d/dx_i, which maps x_i^b*X_i^a to (b + a*n)*x_i^b*X_i^a."""
    x, power, n = (Poly.variable(j, f.nvars) for j in (i, f.nvars // 2 + i, f.nvars - 1))
    return x * f.partial(i) + n * power * f.partial(f.nvars // 2 + i)


def _at(f: Poly, n: int) -> Poly:
    """The polynomial in symbolic n at this n, a Poly in the x_i."""
    k = f.nvars // 2
    return sum((Poly({tuple(b + a * n for b, a in zip(e[:k], e[k:])): c * n ** e[-1]}, k)
                for e, c in f.coeffs.items()), Poly({}, k))


def _normal_form_index(f: Poly) -> Optional[tuple[int, int]]:
    """(a, b - 1), that is k - 1, when the polynomial f in (x, y, X, Y, n)
    is c*y^2 + d*x^b*X^a with rational c and d and k = a*n + b >= 2 at every
    n, the normal form of A_{k-1}; None for any other polynomial."""
    if len(f.coeffs) != 2 or _Y2 not in f.coeffs:
        return None
    b, y, a, power_y, power_n = next(e for e in f.coeffs if e != _Y2)
    return (a, b - 1) if not (y or power_y or power_n) and at_least(a * _N + b, 2) else None


def _show(value) -> str:
    if isinstance(value, Poly):
        return value.to_text()
    if isinstance(value, bool):
        return "yes" if value else "NO"
    # Records are tuples too; they print through their own __str__.
    if type(value) is tuple:
        return ", ".join(map(_show, value))
    return str(value)


class Stage(namedtuple("Stage", "name values ok statement")):
    """One stage of a certificate: its name, the exact values it computed
    as (key, value) pairs, whether they are the values the argument needs,
    and the sentence that states them."""

    __slots__ = ()

    def value(self, key: str):
        return dict(self.values)[key]

    def __str__(self) -> str:
        stated = self.statement.format(**{key: _show(v) for key, v in self.values})
        return f"{self.name}: {stated}" + ("" if self.ok else "  FAILED")


class SeedCertificate(namedtuple("SeedCertificate", "n stages singularity points_per_line")):
    """The singular points of the seed curve C_n, proved stage by stage:
    points_per_line points on each coordinate line, all of the type read
    off the local normal form (None if it could not be read)."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(stage.ok for stage in self.stages)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(stage.name for stage in self.stages if not stage.ok)

    def stage(self, name: str) -> Stage:
        return next(stage for stage in self.stages if stage.name == name)


class SeedProof(namedtuple("SeedProof", "stages singularity points_per_line")):
    """The seed-curve certificate proved for symbolic n: SeedCertificate's
    stages, each holding the function n -> its values in place of the
    values, and the singular type and points per line as functions of n."""

    __slots__ = ()
    failures = SeedCertificate.failures

    def at(self, n: int) -> SeedCertificate:
        stages = tuple(stage._replace(values=stage.values(n)) for stage in self.stages)
        return SeedCertificate(n, stages, self.singularity(n), self.points_per_line(n))


@functools.lru_cache(maxsize=None)
def seed_proof() -> SeedProof:
    """Prove the certificate of the seed curve C_n once, for every n >= 2.

    Each stage is a fixed number of exact operations on polynomials of at
    most six terms, with n symbolic; the curve is never expanded.  A stage
    holds only if its facts hold at every n >= 2.

      smooth conic            Q has nonzero Hessian determinant.
      vertices                C_n is nonzero at the three coordinate
                              vertices.
      tangency                Q is (u - v)^2 on each coordinate line, so C_n
                              is (u^n - v^n)^2 there; n*(t^n - 1) minus
                              t*(n*t^(n-1)) is a nonzero constant, so t^n - 1
                              is prime to its derivative, and each line
                              carries n distinct points of C_n.
      etale off the triangle  the power map X -> X^n has Jacobian
                              determinant n^3*(X0*X1*X2)^(n-1), so C_n is
                              smooth off X0*X1*X2 = 0, as the conic is.
      local normal form       in the chart X0 = 1 at (1:1:0), Q(1, 1 - y, x)
                              is (x + y)^2 - 4x, and y^2 - 4x after
                              y -> y - x.  At a point (1:z:0) with z^n = 1,
                              1 - X1^n is a local coordinate (its derivative
                              -n*z^(n-1) is nonzero) and w = X2^n, so
                              x -> x^n gives the curve as y^2 - 4x^n in the
                              local coordinates x = X2, y = 1 - X1^n + X2^n:
                              A_{n-1}, transversal to the line x = 0.  Q is
                              symmetric, so the same holds on the other two
                              lines.
    """
    x0, x1, x2 = (Poly.variable(i, 3) for i in range(3))
    q = _conic(x0, x1, x2)
    (a, b, c), (d, e, f), (g, h, i) = (
        [q.partial(r).partial(s).constant_term for s in range(3)] for r in range(3)
    )
    hessian_determinant = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    # The vertices' coordinates are 0 and 1, their own n-th powers, so C_n
    # takes the same values there as Q.
    vertices = tuple(q(*vertex) for vertex in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    on_lines = tuple(q.restrict(index) for index in range(3))
    curve_line = _pull(on_lines[2], (True, True))
    t_root, n = _pull(_X - 1, (True, False)), Poly.variable(4, 5)
    n_remainder = n * t_root - _euler(t_root, 0)
    points = max((e[2], e[0]) for e in t_root.coeffs)
    tangency_ok = (
        all(line == (_X - _Y) ** 2 for line in on_lines) and n_remainder == -n
        and all(at_least(points[0] * _N + points[1], e[2] * _N + e[0]) for e in t_root.coeffs)
    )

    # Each coordinate X_i of the power map depends on x_i only, so its Jacobian
    # matrix is diagonal, and x0*x1*x2 times its determinant is the product of
    # the X_i's Euler derivatives.
    power_map = [_pull(Poly.variable(i, 3), (True,) * 3) for i in range(3)]
    euler_jacobian = math.prod(_euler(coordinate, i) for i, coordinate in enumerate(power_map))
    etale = euler_jacobian == Poly.variable(6, 7) ** 3 * math.prod(power_map)
    torus = not any(any(e[:3]) for e in _pull(q, (True,) * 3).coeffs)

    # Chart X0 = 1 at (1:1:0) with u = 1, v = 1 - y, w = x.
    local = _conic(1, 1 - _Y, _X)
    completed = substitute(local, _X, _Y - _X)
    normal_form = _pull(completed, (True, False))
    index = _normal_form_index(normal_form)
    # The tangent cone avoids the line X2 = 0, that is x = 0, when y^2 has the
    # least degree and a rational coefficient, and every other term has x to
    # a positive power and degree at least 2.
    transversal = _Y2 in normal_form.coeffs and all(
        e == _Y2 or at_least(e[2] * _N + e[0], 1) and at_least((e[2] + e[3]) * _N + e[0] + e[1], 2)
        for e in normal_form.coeffs
    )
    # Two transpositions generate the symmetric group.
    symmetric = _conic(x1, x0, x2) == q and _conic(x0, x2, x1) == q

    def singularity(n):
        """A_k at n, or the pair ("A", k) for a Poly n."""
        k = index and index[0] * n + index[1]
        return k if k is None else A(k) if isinstance(k, int) else ("A", k)

    def points_per_line(n: int) -> int:
        return points[0] * n + points[1]

    stages = (
        Stage("smooth conic", lambda n: (("determinant", hessian_determinant),),
              hessian_determinant != 0, "Hessian determinant of Q = {determinant}"),
        Stage("vertices", lambda n: (("values", vertices),), all(vertices),
              "Q = C = {values} at (1:0:0), (0:1:0), (0:0:1)"),
        Stage("tangency",
              lambda n: (("conic", on_lines[2]), ("curve", _at(curve_line, n)),
                         ("remainder", _at(n_remainder, n) * Fraction(1, n)),
                         ("points", points_per_line(n))),
              tangency_ok,
              "Q = {conic} and C = {curve} on each coordinate line; t^n - 1 - (t/n)*(n*t^(n-1))"
              " = {remainder}, so {points} contact points per line"),
        Stage("etale off the triangle",
              lambda n: (("jacobian", Poly({tuple(k - 1 for k in e): c for e, c
                                            in _at(euler_jacobian, n).coeffs.items()}, 3)),
                         ("torus", torus)),
              etale and torus,
              "Jacobian determinant of the power map = {jacobian}; "
              "torus exponent divisibility: {torus}"),
        Stage("local normal form",
              lambda n: (("conic", local), ("completed", completed),
                         ("curve", _at(normal_form, n)), ("type", singularity(n)),
                         ("transversal", transversal), ("symmetric", symmetric)),
              local == (_X + _Y) ** 2 - 4 * _X and index is not None and transversal and symmetric,
              "Q(1, 1 - y, x) = {conic} at (1:1:0), {completed} after y -> y - x; "
              "with x -> x^n the curve is {curve} -> {type}, transversal: {transversal}; "
              "Q symmetric: {symmetric}"),
    )
    return SeedProof(stages, singularity, points_per_line)


def seed_certificate(n: int) -> SeedCertificate:
    """Certify the singular points of the seed curve C_n, for any n >= 2:
    the stages of seed_proof with their values at n."""
    if n < 2:
        raise ValueError(f"the seed curve needs n >= 2, got {n}")
    return seed_proof().at(n)


# Rational representatives of the singular points, one per coordinate line,
# with a chart in which the representative has a nonzero coordinate.
_REPRESENTATIVES = {1: (0, 1, 1), 2: (1, 0, 1), 3: (1, 1, 0)}
_CHARTS = {1: 1, 2: 0, 3: 0}


class LineCheck(
    namedtuple(
        "LineCheck",
        "line_index representative restriction_is_square distinct_points partials_vanish"
        " germ transversal",
    )
):
    """Verification outcome for one coordinate line: the germ at the
    representative point, one of the GermType verdicts."""

    __slots__ = ()


class CurveSingularityReport(
    namedtuple("CurveSingularityReport", "n expected_type lines torus_invariant failures note")
):
    """Singular-point structure of the seed curve, verified line by line:
    one LineCheck per line, and the names of the failed stages."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def total_points(self) -> int:
        return sum(check.distinct_points for check in self.lines)


def singular_points_report(n: int) -> CurveSingularityReport:
    """Verify the seed curve's singular-point structure for 2 <= n <= 63:
    above that the jet cap cannot decide A_{n-1}.

    Per line: the restriction identity (X_i^n - X_j^n)^2, the count of n
    distinct contact points, vanishing partials at the rational
    representative, the A_{n-1} classification there, and transversality of
    the tangent cone to the line.  A final stage checks the torus symmetry
    (exponent divisibility by n) that carries the representative's type to
    the remaining points.  Failed stages are collected by name in
    report.failures.
    """
    if not 2 <= n < JET_BOUND_CAP:
        raise ValueError(
            f"the laboratory decides A_(n-1) only for 2 <= n <= {JET_BOUND_CAP - 1} "
            f"(jet cap {JET_BOUND_CAP}), got n = {n}"
        )
    curve = seed_curve(n)
    expected = A(n - 1)
    failures: list[str] = []

    # Restriction of the curve to any coordinate line: (u^n - v^n)^2.
    expected_restriction = Poly({(2 * n, 0): 1, (n, n): -2, (0, 2 * n): 1})

    checks: list[LineCheck] = []
    for line_index in (1, 2, 3):
        form = curve.restrict(line_index - 1)
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
