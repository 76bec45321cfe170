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

from .polynomials import Poly, substitute
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
# The seed-curve certificate, proved once for symbolic n on the domain
# n = 2 + N, N >= 0.  A polynomial in symbolic n is a dict from exponent
# tuples to coefficients: each exponent is an affine form a*n + b, kept as
# the pair (a, b), and each coefficient is a Poly in N, whose sign on the
# domain Poly.nonnegative reads off, as for polynomials.domain_variables.

_SYMBOLIC_N = 2 + Poly.variable(0)
_POWER_N, _POWER_1 = (1, 0), (0, 1)  # x -> x^n and x -> x


def _conic(u, v, w):
    """Q(u, v, w) for coordinates that are numbers or polynomials."""
    return (u + v + w) ** 2 - 4 * (u * v + u * w + v * w)


def _affine(form: tuple[int, int]) -> Poly:
    """The exponent a*n + b as a Poly in N."""
    return form[0] * _SYMBOLIC_N + form[1]


def _nonzero(c: Poly) -> bool:
    """Whether the Poly c in N has one strict sign on the whole domain."""
    return c.nonnegative(strict=True) or (-c).nonnegative(strict=True)


def _collect(terms) -> dict:
    """The polynomial in symbolic n summing these (exponent, coefficient) terms."""
    out: dict = {}
    for e, c in terms:
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _pull(f: Poly, powers: tuple) -> dict:
    """f at (x_i^(a_i*n + b_i)) for the affine powers (a_i, b_i)."""
    return {tuple((k * a, k * b) for k, (a, b) in zip(e, powers)): Poly({(0, 0): c})
            for e, c in f.coeffs.items()}


def _times(f: dict, g: dict) -> dict:
    return _collect((tuple((a + c, b + d) for (a, b), (c, d) in zip(e, h)), u * v)
                    for e, u in f.items() for h, v in g.items())


def _partial(f: dict, i: int) -> dict:
    return _collect((e[:i] + ((e[i][0], e[i][1] - 1),) + e[i + 1:], c * _affine(e[i]))
                    for e, c in f.items())


def _at(f: dict, n: int, nvars: int) -> Poly:
    """The polynomial in symbolic n at this n."""
    return sum((Poly({tuple(a * n + b for a, b in e): c(n - 2, 0)}, nvars)
                for e, c in f.items()), Poly({}, nvars))


def _normal_form_index(f: dict) -> Optional[tuple[int, int]]:
    """k - 1, as an affine form, when the polynomial f in symbolic n is
    a*y^2 + c*x^k with a and c nonzero and k >= 2 on the whole domain, the
    normal form of A_{k-1}; None for any other polynomial."""
    others = [e for e in f if e != ((0, 0), (0, 2))]
    if len(f) != 2 or len(others) != 1 or not all(map(_nonzero, f.values())):
        return None
    (a, b), j = others[0]
    return (a, b - 1) if j == (0, 0) and (_affine((a, b)) - 2).nonnegative() else None


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
    curve_line = _pull(on_lines[2], (_POWER_N, _POWER_N))
    t_root = _pull(_X - 1, (_POWER_N, _POWER_1))
    step = _times(_pull(_X, (_POWER_1, _POWER_1)), _partial(t_root, 0))
    n_remainder = _collect([*((e, _SYMBOLIC_N * c) for e, c in t_root.items()),
                            *((e, -c) for e, c in step.items())])
    points = max(e[0] for e in t_root)
    tangency_ok = (
        all(line == (_X - _Y) ** 2 for line in on_lines)
        and list(n_remainder) == [((0, 0), (0, 0))] and _nonzero(n_remainder[(0, 0), (0, 0)])
        and all((_affine(points) - _affine(e[0])).nonnegative() for e in t_root)
    )

    # Each coordinate of the power map depends on one variable only, so its
    # Jacobian matrix is diagonal.
    diagonal = [_partial(_pull(Poly.variable(i, 3), (_POWER_N,) * 3), i) for i in range(3)]
    jacobian = _times(_times(diagonal[0], diagonal[1]), diagonal[2])
    torus = all(b == 0 for e in _pull(q, (_POWER_N,) * 3) for _, b in e)

    # Chart X0 = 1 at (1:1:0) with u = 1, v = 1 - y, w = x.
    local = _conic(1, 1 - _Y, _X)
    completed = substitute(local, _X, _Y - _X)
    normal_form = _pull(completed, (_POWER_N, _POWER_1))
    index = _normal_form_index(normal_form)
    # The tangent cone avoids the line X2 = 0, that is x = 0, when y^2 has the
    # least degree and a nonzero coefficient, and no other term is in y alone.
    y2 = ((0, 0), (0, 2))
    transversal = _nonzero(normal_form.get(y2, Poly())) and all(
        e == y2 or (_affine(e[0]).nonnegative(strict=True)
                    and (_affine(e[0]) + _affine(e[1]) - 2).nonnegative())
        for e in normal_form
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
              lambda n: (("conic", on_lines[2]), ("curve", _at(curve_line, n, 2)),
                         ("remainder", _at(n_remainder, n, 2) * Fraction(1, n)),
                         ("points", points_per_line(n))),
              tangency_ok,
              "Q = {conic} and C = {curve} on each coordinate line; t^n - 1 - (t/n)*(n*t^(n-1))"
              " = {remainder}, so {points} contact points per line"),
        Stage("etale off the triangle",
              lambda n: (("jacobian", _at(jacobian, n, 3)), ("torus", torus)),
              list(jacobian) == [((1, -1),) * 3] and _nonzero(*jacobian.values()) and torus,
              "Jacobian determinant of the power map = {jacobian}; "
              "torus exponent divisibility: {torus}"),
        Stage("local normal form",
              lambda n: (("conic", local), ("completed", completed),
                         ("curve", _at(normal_form, n, 2)), ("type", singularity(n)),
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
