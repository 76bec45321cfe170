"""The family table, the three construction pipelines and their
certification reports.

FAMILIES holds one record per family of invariant pairs: families 1-3
(set labels A1, A2, A3), the classical double planes B and the overlap
family T.  Each record defines the family's parameter domain, its
closed-form (K2, chi), its membership solver, for A2 and A3 the line of
each n-slice, and for families 1-3 the pipeline; validation, building,
enumeration, membership and the line reports all read it.

Each pipeline assembles exact branch data for one family of canonical
models, computes the cover invariants and the transported singular set,
and certifies three things by integer arithmetic:

  match    the computed (K2, chi) equal the family's closed forms,
  ample    the class pulling back to (a multiple of) the canonical class
           is ample on the base,
  maximal  the Picard lower bound (exceptional curves plus base classes)
           equals h^{1,1} exactly.

Family 1 is a bidouble cover of the plane branched over the three
coordinate lines and the seed curve.  Families 2 and 3 first move the seed
curve to the ruled surface F_1 (blow-up of the plane at the intersection
point of two of the lines, which never lies on the curve), pull it back
along the degree-m cyclic cover F_m -> F_1 branched over the two line
transforms, and then take a bidouble (family 2) or double (family 3)
cover of F_m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .covers import (
    BidoubleCoverData,
    CoverDataError,
    DoubleCoverData,
    SurfaceInvariants,
    bidouble_invariants,
    canonical_ample_check,
    cyclic_pullback_class,
    double_invariants,
)
from .curves import seed_curve
from .singularities import (
    A,
    BidoubleBranchPoint,
    SingInventory,
    SingType,
    picard_lower_bound,
    transport_bidouble,
    transport_cyclic,
    transport_double,
    union_type,
    CyclicBranchPoint,
)
from .surfaces import BaseSurface, hirzebruch, intersect, projective_plane


class ParameterError(ValueError):
    """A construction parameter violates its family's constraints."""


# The most constructions one verify-theorem --sweep may build, and the most
# rows of one slope table.
MAX_SWEEP_BUILDS = 10_000


# Closed-form invariants of the five families.  These are plain ring
# expressions so the geography module can also evaluate them on symbolic
# polynomial arguments.


def _half(x):
    # Every halved integer below is even, so integer arguments stay integers.
    return x // 2 if isinstance(x, int) else Fraction(1, 2) * x


def family1_pair(n):
    return (4 * n * n - 12 * n + 9, n * n - n + 1)


def family2_pair(m, n):
    return (4 * m * n * n - 4 * (m + 2) * n + 8, m * n * n - n + 1)


def family3_pair(m, n):
    return (2 * m * n * n - 4 * (m + 1) * n + 8, _half(m * n * (n - 1)) + 1)


def set_b_pair(n):
    return (2 * (n - 3) * (n - 3), _half((n - 1) * (n - 2)) + 1)


def set_t_pair(t):
    return (2 * t * (t - 1) * (t - 4) + 8, _half(t * (t - 1) * (t - 3)) + 1)


# The line through the members of families 2 and 3 at fixed n, as (a, b, c)
# with a*K2 = b*chi - c.


def family2_line(n):
    return (n, 4 * (n - 1), 4 * (n + 1) * (n - 1))


def family3_line(n):
    return (n - 1, 4 * (n - 2), 4 * n * (n - 2))


# Closed-form membership.  Each solver returns the candidate parameters of
# the members with the value (K2, chi); Family.members keeps the candidates
# inside the domain whose pair is that value.


def _is_perfect_square(x: int) -> bool:
    if x < 0:
        return False
    r = math.isqrt(x)
    return r * r == x


def _integer_roots(a: int, b: int, c: int) -> list[int]:
    """The integer roots of a*x^2 + b*x + c, for a > 0."""
    disc = b * b - 4 * a * c
    if not _is_perfect_square(disc):
        return []
    s = math.isqrt(disc)
    return sorted({(e - b) // (2 * a) for e in (s, -s) if (e - b) % (2 * a) == 0})


def _solve_a1(K2: int, chi: int) -> list:
    # K2 = (2n - 3)^2 with 2n - 3 >= 1.
    return [((math.isqrt(K2) + 3) // 2,)] if _is_perfect_square(K2) else []


def _solve_b(K2: int, chi: int) -> list:
    # K2 = 2*(n - 3)^2 with n - 3 >= 1.
    if K2 % 2 or not _is_perfect_square(K2 // 2):
        return []
    return [(3 + math.isqrt(K2 // 2),)]


def _solve_a2(K2: int, chi: int) -> list:
    # K2 - 4*chi = 4 - 4*N with N = n*(m + 1), and chi - 1 = n*(N - n - 1).
    N, r = divmod(4 * chi - K2 + 4, 4)
    if r:
        return []
    return [(N // n - 1, n) for n in _integer_roots(1, 1 - N, chi - 1) if n]


def _solve_a3(K2: int, chi: int) -> list:
    # K2 - 4*chi = 4 - 2*N with N = n*(m + 2), and 2*(chi - 1) = (N - 2n)*(n - 1).
    N, r = divmod(4 * chi - K2 + 4, 2)
    if r:
        return []
    return [(N // n - 2, n) for n in _integer_roots(2, -(N + 2), N + 2 * chi - 2) if n]


class Param(NamedTuple):
    """A family parameter ranging over minimum, minimum + step, ...; a step
    of 2 with an even minimum makes the parameter even."""

    name: str
    minimum: int
    step: int

    def admits(self, value: int) -> bool:
        return value >= self.minimum and (value - self.minimum) % self.step == 0


class Family(NamedTuple):
    """One family of invariant pairs: its set label, the theorem that
    constructs it (None for the comparison families B and T), its parameters
    and closed-form pair, the membership solver, the line of each n-slice
    for the families on lines (parameters m and n), and the construction
    pipeline of families 1-3."""

    label: str
    theorem: Optional[int]
    params: tuple[Param, ...]
    pair: Callable
    solve: Optional[Callable] = None
    line: Optional[Callable] = None
    build: Optional[Callable] = None

    def admits(self, *values: int) -> bool:
        return all(map(Param.admits, self.params, values))

    def check(self, *values: int) -> None:
        """Raise ParameterError for the first parameter outside its domain."""
        for p, v in zip(self.params, values):
            if not p.admits(v):
                even = " even and" if p.step == 2 else ""
                raise ParameterError(
                    f"family {self.theorem} needs {p.name}{even} >= {p.minimum}, got {p.name}={v}"
                )

    def members(self, K2: int, chi: int) -> list:
        """The parameters, in GeoPair params form, of every member with the
        value (K2, chi)."""
        return [
            tuple((p.name, v) for p, v in zip(self.params, values))
            for values in self.solve(K2, chi)
            if self.admits(*values) and self.pair(*values) == (K2, chi)
        ]


@dataclass(frozen=True)
class DoubleBranchPoint:
    """Report annotation for one batch of branch-locus points of a double
    cover: the type on the branch divisor plus a provenance note."""

    sing: SingType
    count: int
    origin: str

    @property
    def branch_type(self) -> SingType:
        return self.sing


BranchPoint = Union[BidoubleBranchPoint, DoubleBranchPoint]


@dataclass(frozen=True)
class ConstructionReport:
    """Full certificate for one member of one family."""

    theorem: int
    params: tuple[tuple[str, int], ...]
    base: BaseSurface
    building_data: Union[DoubleCoverData, BidoubleCoverData]
    branch_points: tuple[BranchPoint, ...]
    branch_inventory: SingInventory
    cover_inventory: SingInventory
    computed: SurfaceInvariants
    closed_form: tuple[int, int]
    ample: bool
    n_indep: int
    picard_lower: int
    h11: int
    maximal: bool
    match: bool

    def params_str(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.params)

    def certified(self) -> bool:
        return self.match and self.ample and self.maximal

    def to_json(self) -> dict:
        data = self.building_data
        if isinstance(data, BidoubleCoverData):
            classes = {
                "type": "bidouble",
                "L1": list(data.L1.coeffs), "L2": list(data.L2.coeffs), "L3": list(data.L3.coeffs),
                "B1": list(data.B1.coeffs), "B2": list(data.B2.coeffs), "B3": list(data.B3.coeffs),
            }
        else:
            classes = {"type": "double", "L": list(data.L.coeffs), "B": list(data.B.coeffs)}
        points = []
        for p in self.branch_points:
            if isinstance(p, BidoubleBranchPoint):
                points.append({
                    "kind": "bidouble",
                    "carrier": p.carrier,
                    "sing": str(p.sing) if p.sing else None,
                    "meets": p.meets,
                    "contact": p.contact,
                    "count": p.count,
                })
            else:
                points.append({
                    "kind": "double",
                    "sing": str(p.sing),
                    "count": p.count,
                    "origin": p.origin,
                })
        return {
            "theorem": self.theorem,
            "params": dict(self.params),
            "base": {"kind": self.base.kind, "e": self.base.e},
            "building_data": classes,
            "branch_points": points,
            "branch_inventory": self.branch_inventory.to_json(),
            "cover_inventory": self.cover_inventory.to_json(),
            "computed": {
                "K2": self.computed.K2,
                "chi": self.computed.chi,
                "p_g": self.computed.p_g,
                "q": self.computed.q,
                "h11": self.computed.h11,
            },
            "closed_form": {"K2": self.closed_form[0], "chi": self.closed_form[1]},
            "ample": self.ample,
            "n_indep": self.n_indep,
            "picard_lower_bound": self.picard_lower,
            "h11": self.h11,
            "match": self.match,
            "maximal": self.maximal,
        }


def _branch_inventory(points: Sequence[BranchPoint]) -> SingInventory:
    """Singularity types of the total branch divisor at the annotated points."""
    return SingInventory.from_counts((p.branch_type, p.count) for p in points)


def _finish(
    theorem: int,
    params: tuple[tuple[str, int], ...],
    data: Union[DoubleCoverData, BidoubleCoverData],
    branch_points: tuple[BranchPoint, ...],
    cover_inventory: SingInventory,
    n_indep: int,
    closed_form: tuple[int, int],
) -> ConstructionReport:
    invariants_of = bidouble_invariants if isinstance(data, BidoubleCoverData) else double_invariants
    try:
        invariants = invariants_of(data)
    except CoverDataError as exc:
        raise ParameterError(f"assembled building data is invalid: {exc}") from None
    lower = picard_lower_bound(cover_inventory, n_indep)
    return ConstructionReport(
        theorem=theorem,
        params=params,
        base=data.base,
        building_data=data,
        branch_points=branch_points,
        branch_inventory=_branch_inventory(branch_points),
        cover_inventory=cover_inventory,
        computed=invariants,
        closed_form=closed_form,
        ample=canonical_ample_check(data),
        n_indep=n_indep,
        picard_lower=lower,
        h11=invariants.h11,
        maximal=lower == invariants.h11,
        match=(invariants.K2, invariants.chi) == closed_form,
    )


def build_theorem1(n: int) -> ConstructionReport:
    """Family 1: bidouble cover of the plane, branch divisors the coordinate
    lines l1, l2 and l3 + (seed curve)."""
    FAMILIES["A1"].check(n)
    plane = projective_plane()
    line = plane.divisor(1)
    data = BidoubleCoverData(
        plane,
        L1=plane.divisor(n + 1),
        L2=plane.divisor(n + 1),
        L3=line,
        B1=line,
        B2=line,
        B3=plane.divisor(2 * n + 1),
    )
    # The curve has n A_{n-1} points on each coordinate line.  On l3 (part of
    # B3) they merge with the line into D_{n+2} points of B3 itself, away
    # from B1 and B2; on l1 and l2 the second branch divisor passes through
    # the A_{n-1} point of B3 transversally.
    on_third_line = union_type(A(n - 1), 1)
    points = (
        BidoubleBranchPoint(carrier=3, sing=on_third_line, count=n),
        BidoubleBranchPoint(carrier=3, sing=A(n - 1), meets=1, contact=1, count=n),
        BidoubleBranchPoint(carrier=3, sing=A(n - 1), meets=2, contact=1, count=n),
    )
    cover_inventory = transport_bidouble(points)
    return _finish(
        1, (("n", n),), data, points, cover_inventory, 1, family1_pair(n)
    )


def _pullback_setup(m: int, n: int):
    """Common ruled-surface setup for families 2 and 3.

    Returns the target surface F_m with the pulled-back curve and line
    classes, plus the transported singular sets of the curve, split by
    whether the points sit on the branch fibers.
    """
    # The triangle vertices must stay off the curve: the blow-up center is
    # the intersection of the first two coordinate lines, and the other two
    # vertices are where the third-line transform crosses the branch fibers.
    curve = seed_curve(n)
    for vertex in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
        if curve(*vertex) == 0:
            raise ParameterError(f"coordinate vertex {vertex} lies on the seed curve")
    f1 = hirzebruch(1)
    curve_class = f1.divisor(2 * n, 2 * n)
    third_line_class = f1.divisor(1, 1)
    fm = hirzebruch(m)
    curve_up = cyclic_pullback_class(curve_class, m)
    third_line_up = cyclic_pullback_class(third_line_class, m)

    # The curve meets each blown-up line in n transversal A_{n-1} points and
    # carries n more on the transform of the third line.
    on_fibers = transport_cyclic(
        (CyclicBranchPoint(A(n - 1), on_fiber=True, count=2 * n),), m
    )
    interior = transport_cyclic((CyclicBranchPoint(A(n - 1), count=n),), m)

    # Intersection bookkeeping: the pulled-back curve meets each branch fiber
    # in its n on-fiber double points and the third-line transform in its
    # m*n interior double points.
    fiber = fm.divisor(0, 1)
    assert intersect(fiber, curve_up) == 2 * n
    assert intersect(third_line_up, curve_up) == 2 * m * n
    # The negative section stays disjoint from both.
    section = fm.divisor(1, 0)
    assert intersect(section, curve_up) == 0
    assert intersect(section, third_line_up) == 0

    return fm, curve_up, third_line_up, on_fibers, interior


def build_theorem2(m: int, n: int) -> ConstructionReport:
    """Family 2: bidouble cover of F_m branched over the two branch fibers
    (split by the parity of m), the negative section, the transformed third
    line and the pulled-back curve."""
    FAMILIES["A2"].check(m, n)
    fm, curve_up, third_line_up, on_fibers, interior = _pullback_setup(m, n)
    fiber = fm.divisor(0, 1)
    section = fm.divisor(1, 0)
    b3 = section + third_line_up + curve_up
    assert b3 == fm.divisor(2 * n + 2, (2 * n + 1) * m)
    if m % 2 == 0:
        data = BidoubleCoverData(
            fm,
            L1=fm.divisor(n + 1, m * n + m // 2 + 1),
            L2=fm.divisor(n + 1, m * n + m // 2),
            L3=fiber,
            B1=fm.zero(),
            B2=2 * fiber,
            B3=b3,
        )
        fiber_carriers = (2, 2)
    else:
        half_l = fm.divisor(n + 1, m * n + (m - 1) // 2 + 1)
        data = BidoubleCoverData(
            fm, L1=half_l, L2=half_l, L3=fiber, B1=fiber, B2=fiber, B3=b3
        )
        fiber_carriers = (1, 2)

    points: list[BidoubleBranchPoint] = []
    # Interior curve points sit on the third-line component of B3 and merge
    # with it into D points of B3, away from B1 and B2.
    for sing, count in interior.items():
        points.append(
            BidoubleBranchPoint(carrier=3, sing=union_type(sing, 1), count=count)
        )
    # On-fiber curve points: the branch fiber (a component of B1 or B2)
    # passes transversally through the pulled-back A point of B3.
    for sing, count in on_fibers.items():
        half, rest = count // 2, count - count // 2
        points.append(
            BidoubleBranchPoint(carrier=3, sing=sing, meets=fiber_carriers[0], count=half)
        )
        points.append(
            BidoubleBranchPoint(carrier=3, sing=sing, meets=fiber_carriers[1], count=rest)
        )
    cover_inventory = transport_bidouble(points)
    return _finish(
        2,
        (("m", m), ("n", n)),
        data,
        tuple(points),
        cover_inventory,
        2,
        family2_pair(m, n),
    )


def build_theorem3(m: int, n: int) -> ConstructionReport:
    """Family 3: double cover of F_m branched over the pulled-back curve plus
    the two branch fibers."""
    FAMILIES["A3"].check(m, n)
    fm, curve_up, _third_line_up, on_fibers, interior = _pullback_setup(m, n)
    fiber = fm.divisor(0, 1)
    branch = curve_up + 2 * fiber
    assert branch == fm.divisor(2 * n, 2 * m * n + 2)
    data = DoubleCoverData(fm, L=fm.divisor(n, m * n + 1), B=branch)

    points: list[DoubleBranchPoint] = []
    # On-fiber curve points merge with the fiber components of the branch
    # divisor into D points; interior points keep their type.
    for sing, count in on_fibers.items():
        points.append(
            DoubleBranchPoint(
                union_type(sing, 1), count, "curve point joined by a branch fiber component"
            )
        )
    for sing, count in interior.items():
        points.append(
            DoubleBranchPoint(sing, count, "curve point away from the branch fibers")
        )
    cover_inventory = transport_double(_branch_inventory(points))
    return _finish(
        3,
        (("m", m), ("n", n)),
        data,
        tuple(points),
        cover_inventory,
        2,
        family3_pair(m, n),
    )


FAMILIES = {
    family.label: family
    for family in (
        Family("A1", 1, (Param("n", 2, 1),), family1_pair, _solve_a1, build=build_theorem1),
        Family(
            "A2", 2, (Param("m", 3, 1), Param("n", 2, 2)), family2_pair, _solve_a2,
            family2_line, build_theorem2,
        ),
        Family(
            "A3", 3, (Param("m", 2, 1), Param("n", 4, 2)), family3_pair, _solve_a3,
            family3_line, build_theorem3,
        ),
        Family("B", None, (Param("n", 4, 1),), set_b_pair, _solve_b),
        Family("T", None, (Param("t", 6, 2),), set_t_pair),
    )
}
THEOREMS = {family.theorem: family for family in FAMILIES.values() if family.theorem}


def _theorem_family(theorem: int, n: int, m: int | None) -> tuple[Family, tuple[int, ...]]:
    """The family of a theorem id and its parameter values in table order."""
    family = THEOREMS.get(theorem)
    if family is None:
        raise ParameterError(f"unknown theorem id {theorem}")
    takes_m = any(p.name == "m" for p in family.params)
    if takes_m and m is None:
        raise ParameterError(f"family {theorem} needs an m parameter")
    if not takes_m and m is not None:
        raise ParameterError(f"family {theorem} takes no m parameter")
    return family, tuple({"m": m, "n": n}[p.name] for p in family.params)


def closed_form_invariants(theorem: int, *, n: int, m: int | None = None) -> tuple[int, int]:
    """The family's closed-form (K2, chi), after validating the parameters."""
    family, values = _theorem_family(theorem, n, m)
    family.check(*values)
    return family.pair(*values)


def build(theorem: int, *, n: int, m: int | None = None) -> ConstructionReport:
    """Run the family's pipeline by theorem id."""
    family, values = _theorem_family(theorem, n, m)
    return family.build(*values)
