"""The family table, the builder that reads its pipeline rows, and the
certification reports.

FAMILIES holds one record per family of invariant pairs: families 1-3
(set labels A1, A2, A3), the classical double planes B and the overlap
family T.  Each record defines the family's parameter domain, its
closed-form (K2, chi), its membership solver and, for families 1-3, its
pipeline row; validation, building, enumeration and membership all read it,
and geography derives the A2 and A3 line of each n from the pair.

One builder, _build, makes every member from the seed curve C_n and the
three coordinate lines as the family's row says.  The row is a function of
m giving each branch divisor as multiplicities of (line, negative section,
third line, curve); each L is half a sum of them, and an odd half is
refused.  Everything else is derived, on coefficient tuples with the ring
layer of surfaces and covers, once per m where only m decides it.  A family
with an m parameter (families 2 and 3) lives on F_m: the builder blows up
the vertex where the first two lines cross (it is off the curve), making
them fibers of F_1, and pulls back along the degree-m cyclic cover
F_m -> F_1 branched over them.  A family without one lives on the plane,
where the negative section is zero; family 1 is family 2's row at m = 1.
Each batch of seed points, on the first two lines or on the third, is
placed by the row: it joins the curve's divisor if that divisor holds its
line, meets each divisor holding its line if others do, and keeps away
from them otherwise.  The builder checks the intersection numbers that the
transport rules rest on and certifies three things by integer arithmetic:

  match    the computed (K2, chi) equal the family's closed forms,
  ample    the class pulling back to (a multiple of) the canonical class
           is ample on the base,
  maximal  the Picard lower bound (exceptional curves plus base classes)
           equals h^{1,1} exactly.

A failed check raises ParameterError naming its stage and numbers, so none
is lost under python -O.  The seed curve's singular points (3n points of
type A_{n-1}, n on each coordinate line) and the fact that it misses the
coordinate vertices come from curves.seed_proof, proved once for every n.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

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
from .curves import seed_proof
from .singularities import (
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
from .surfaces import DivisorClass, compose, half, hirzebruch, intersect, plus, projective_plane


class ParameterError(ValueError):
    """A construction parameter violates its family's constraints."""


# The most constructions one verify-theorem --sweep may build, and the most
# rows of one slope table.
MAX_SWEEP_BUILDS = 10_000


# Closed-form invariants of the five families.  These are plain ring
# expressions so the geography module can also evaluate them on symbolic
# polynomial arguments; every halved integer is even.


def family1_pair(n):
    return (4 * n * n - 12 * n + 9, n * n - n + 1)


def family2_pair(m, n):
    return (4 * m * n * n - 4 * (m + 2) * n + 8, m * n * n - n + 1)


def family3_pair(m, n):
    return (2 * m * n * n - 4 * (m + 1) * n + 8, half(m * n * (n - 1)) + 1)


def set_b_pair(n):
    return (2 * (n - 3) * (n - 3), half((n - 1) * (n - 2)) + 1)


def set_t_pair(t):
    return (2 * t * (t - 1) * (t - 4) + 8, half(t * (t - 1) * (t - 3)) + 1)


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


class _LineSolver(namedtuple("_LineSolver", "divisor offset quadratic")):
    """Membership in family 2 or 3, a quadratic in n: with N = n*(m + offset),
    K2 - 4*chi = 4 - divisor*N, and n solves the quadratic whose
    coefficients quadratic(chi, N) gives.  geography reads the same
    quadratic on B's pair."""

    __slots__ = ()

    def __call__(self, K2: int, chi: int) -> list:
        N, r = divmod(4 * chi - K2 + 4, self.divisor)
        if r:
            return []
        return [(N // n - self.offset, n) for n in _integer_roots(*self.quadratic(chi, N)) if n]


# Family 2: chi - 1 = n*(N - n - 1).  Family 3: 2*(chi - 1) = (N - 2n)*(n - 1).
_solve_a2 = _LineSolver(4, 1, lambda chi, N: (1, 1 - N, chi - 1))
_solve_a3 = _LineSolver(2, 2, lambda chi, N: (2, -(N + 2), N + 2 * chi - 2))


class Param(namedtuple("Param", "name minimum step")):
    """A family parameter ranging over minimum, minimum + step, ...; a step
    of 2 with an even minimum makes the parameter even."""

    __slots__ = ()

    def admits(self, value: int) -> bool:
        return value >= self.minimum and (value - self.minimum) % self.step == 0


class Family(
    namedtuple("Family", "label theorem params pair solve pipeline", defaults=(None, None))
):
    """One family of invariant pairs: its set label, the theorem that
    constructs it (None for the comparison families B and T), its parameters
    and closed-form pair, the membership solver, and the pipeline row of
    families 1-3: the function m -> branch multiplicities.  _build derives
    the base and the placement of the seed points from the row and the
    parameters."""

    __slots__ = ()

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


class DoubleBranchPoint(namedtuple("DoubleBranchPoint", "sing count origin")):
    """Report annotation for one batch of branch-locus points of a double
    cover: the type on the branch divisor plus a provenance note."""

    __slots__ = ()

    @property
    def branch_type(self) -> SingType:
        return self.sing


class ConstructionReport(
    namedtuple(
        "ConstructionReport",
        "theorem params base building_data branch_points branch_inventory cover_inventory"
        " computed closed_form ample n_indep picard_lower h11 maximal match",
    )
):
    """Full certificate for one member of one family: params holds (name,
    value) pairs, computed the SurfaceInvariants of the cover, closed_form
    the family's (K2, chi), n_indep the independent base classes counted in
    picard_lower, and ample, maximal and match the three verdicts."""

    __slots__ = ()

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

    def to_json_text(self, pad: str = "") -> str:
        """The text of json.dumps(self.to_json(), indent=2, sort_keys=True)
        with every line after the first shifted right by pad, written from
        the fields: one f-string per record kind, keys in sorted order.
        Integer fields must hold ints and the three verdicts bools, as the
        pipelines make them."""
        a, b, c = pad + "  ", pad + "    ", pad + "      "
        data = self.building_data
        kind, names = _CLASS_NAMES[type(data)]
        classes = "".join([
            f'{b}"{name}": {_coeffs_text(getattr(data, name).coeffs, b)},\n' for name in names
        ])
        points = []
        for p in self.branch_points:
            if isinstance(p, BidoubleBranchPoint):
                meets = "null" if p.meets is None else p.meets
                sing = f'"{p.sing}"' if p.sing else "null"
                points.append(
                    f'{{\n{c}"carrier": {p.carrier},\n{c}"contact": {p.contact},\n'
                    f'{c}"count": {p.count},\n{c}"kind": "bidouble",\n'
                    f'{c}"meets": {meets},\n{c}"sing": {sing}\n{b}}}'
                )
            else:
                points.append(
                    f'{{\n{c}"count": {p.count},\n{c}"kind": "double",\n'
                    f'{c}"origin": {_json_string(p.origin)},\n'
                    f'{c}"sing": "{p.sing}"\n{b}}}'
                )
        params = [f"{_json_string(name)}: {value}" for name, value in sorted(self.params)]
        inv, (K2, chi) = self.computed, self.closed_form
        return (
            f'{{\n{a}"ample": {_JSON_BOOL[self.ample]},\n'
            f'{a}"base": {{\n{b}"e": {self.base.e},\n{b}"kind": "{self.base.kind}"\n{a}}},\n'
            f'{a}"branch_inventory": {_inventory_text(self.branch_inventory, a)},\n'
            f'{a}"branch_points": {_json_block(points, a)},\n'
            f'{a}"building_data": {{\n{classes}{b}"type": "{kind}"\n{a}}},\n'
            f'{a}"closed_form": {{\n{b}"K2": {K2},\n{b}"chi": {chi}\n{a}}},\n'
            f'{a}"computed": {{\n{b}"K2": {inv.K2},\n{b}"chi": {inv.chi},\n'
            f'{b}"h11": {inv.h11},\n{b}"p_g": {inv.p_g},\n{b}"q": {inv.q}\n{a}}},\n'
            f'{a}"cover_inventory": {_inventory_text(self.cover_inventory, a)},\n'
            f'{a}"h11": {self.h11},\n{a}"match": {_JSON_BOOL[self.match]},\n'
            f'{a}"maximal": {_JSON_BOOL[self.maximal]},\n{a}"n_indep": {self.n_indep},\n'
            f'{a}"params": {_json_block(params, a, "{}")},\n'
            f'{a}"picard_lower_bound": {self.picard_lower},\n'
            f'{a}"theorem": {self.theorem}\n{pad}}}'
        )


_JSON_BOOL = {False: "false", True: "true"}
# Each building-data record's kind and class names, sorted.
_CLASS_NAMES = {BidoubleCoverData: ("bidouble", ("B1", "B2", "B3", "L1", "L2", "L3")),
                DoubleCoverData: ("double", ("B", "L"))}


@functools.cache
def _json_string(text: str) -> str:
    """text as a JSON string, escaped once per distinct text."""
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(text)


def _coeffs_text(coeffs: tuple, pad: str) -> str:
    """A class's one or two coefficients as a JSON array opened at pad."""
    second = f",\n  {pad}{coeffs[1]}" if len(coeffs) == 2 else ""
    return f"[\n  {pad}{coeffs[0]}{second}\n{pad}]"


def _json_block(items: list[str], pad: str, brackets: str = "[]") -> str:
    """A JSON array (or object) of written items in json.dumps's indent=2
    layout, opened on a line indented by pad."""
    if not items:
        return brackets
    joint = ",\n  " + pad
    return f"{brackets[0]}\n  {pad}{joint.join(items)}\n{pad}{brackets[1]}"


def _inventory_text(inventory: SingInventory, pad: str) -> str:
    """The inventory as the array of to_json, opened on a line indented by pad."""
    b, c = pad + "  ", pad + "    "
    return _json_block([
        f'{{\n{c}"count": {count},\n{c}"family": "{sing.family}",\n'
        f'{c}"index": {sing.index}\n{b}}}'
        for sing, count in inventory.entries
    ], pad)


def _certified_seed(n: int) -> tuple[SingType, int]:
    """The seed curve's singular type and its number of points on each
    coordinate line at n, read off its certificate, which is proved once
    for every n (curves.seed_proof).  A failed proof raises, naming its
    stages, and is not kept."""
    if n < 2:
        raise ValueError(f"the seed curve needs n >= 2, got {n}")
    proof = seed_proof()
    if proof.failures:
        seed_proof.cache_clear()
        raise ParameterError(
            f"the seed curve certificate fails at n={n}: {', '.join(proof.failures)}"
        )
    return proof.singularity(n), proof.points_per_line(n)


def _halve(base, name: str, u: tuple) -> tuple:
    """The coefficients whose double is u; ParameterError if one is odd."""
    if [c for c in u if c % 2]:
        raise ParameterError(f"validate: {name} = {DivisorClass(base, u)} is not twice a class")
    return tuple(map(half, u))


# The provenance note of a double-cover branch point, by placement.
_ORIGINS = {
    "join": "curve point joined by a branch fiber component",
    "keep": "curve point away from the branch fibers",
}


@functools.lru_cache(maxsize=None)
def _frame(row, m: int, on_cover: bool) -> tuple:
    """A build's base, line, negative section and third line (on F_1 the
    first two lines are fibers, the third is D0 + F), branch rows, carrier
    (the divisor holding the curve) and, for the points on the first two
    lines and on the third, (placement, the divisors holding the line, one
    per multiplicity, the number of lines): made once per row and m."""
    if on_cover:
        base = hirzebruch(m)
        line, section = base.divisor(0, 1), base.divisor(1, 0)
        third = cyclic_pullback_class(hirzebruch(1).divisor(1, 1), m)
    else:
        base = projective_plane()
        line = third = base.divisor(1)
        section = base.zero()
    rows = row(m)
    carrier = max(i for i, mults in enumerate(rows, 1) if mults[3])
    placements = []
    for column, lines in ((0, 2), (2, 1)):
        holders = tuple(i for i, mults in enumerate(rows, 1) for _ in range(mults[column]))
        placement = "join" if carrier in holders else "meet" if holders else "keep"
        placements.append((placement, holders, lines))
    return base, line, section, third, rows, carrier, tuple(placements)


def _build(family: Family, *values: int) -> ConstructionReport:
    """Build and certify the family member with these parameter values from
    the family's pipeline row; the report's records are made at the end."""
    family.check(*values)
    params = tuple((p.name, v) for p, v in zip(family.params, values))
    named = dict(params)
    m, n = named.get("m", 1), named["n"]
    sing, per_line = _certified_seed(n)
    frame = _frame(family.pipeline, m, "m" in named)
    base, line, section, third, rows, carrier, placements = frame
    if "m" in named:
        # The seed certificate keeps every vertex off the curve: one is
        # blown up, and the other two are where the third line crosses the
        # line fibers.  The cover F_m -> F_1 branches over the line fibers,
        # so a curve point on one becomes one A_{mn-1} and a point on the
        # third line m points: on_line and on_third are the (type, count) of
        # the points on one line and on the third.
        (on_line,) = transport_cyclic((CyclicBranchPoint(sing, True, count=per_line),), m).entries
        (on_third,) = transport_cyclic((CyclicBranchPoint(sing, count=per_line),), m).entries
    else:
        on_line = on_third = (sing, per_line)
    curve = 2 * n * third  # 2n(D0 + F) on F_1, degree 2n on the plane
    # The curve is transversal to each line at its A points and meets it
    # twice at each; the negative section misses the curve and the third
    # line.
    for name, d1, d2, expected in (
        ("line.curve", line, curve, 2 * on_line[1]),
        ("third.curve", third, curve, 2 * on_third[1]),
        ("section.curve", section, curve, 0),
        ("section.third", section, third, 0),
    ):
        value = intersect(d1, d2)
        if value != expected:
            raise ParameterError(f"transport: {name} = {value}, expected {expected}")

    components = (line.coeffs, section.coeffs, third.coeffs, curve.coeffs)
    branch = [compose(mults, components) for mults in rows]
    bidouble = len(branch) == 3
    if bidouble:
        B1, B2, B3 = branch
        L1, L2 = _halve(base, "B2 + B3", plus(B2, B3)), _halve(base, "B1 + B3", plus(B1, B3))
        record, classes = BidoubleCoverData, (L1, L2, compose((1, 1, -1), (L1, L2, B3)), *branch)
    else:
        record, classes = DoubleCoverData, (_halve(base, "B", branch[0]), branch[0])
    data = record(base, *[DivisorClass(base, c) for c in classes])

    joined, met, kept = [], [], []
    for (point_type, count), (placement, holders, lines) in zip((on_line, on_third), placements):
        if placement == "meet":
            met += [BidoubleBranchPoint(carrier, point_type, meets=i, count=count) for i in holders]
            continue
        if placement == "join":
            point_type, batch = union_type(point_type, 1), joined
        else:
            batch = kept
        if bidouble:
            batch.append(BidoubleBranchPoint(carrier, point_type, count=lines * count))
        else:
            batch.append(DoubleBranchPoint(point_type, lines * count, _ORIGINS[placement]))
    points = joined + met + kept
    # Each meeting point's union type is built once, for both inventories.
    branch_types = [p.branch_type for p in points]
    branch_inventory = SingInventory(tuple(zip(branch_types, [p.count for p in points])))
    if bidouble:
        cover_inventory = transport_bidouble(points, branch_types)
        invariants_of = bidouble_invariants
    else:
        cover_inventory, invariants_of = transport_double(branch_inventory), double_invariants
    try:
        invariants = invariants_of(data)
    except CoverDataError as exc:
        raise ParameterError(f"assembled building data is invalid: {exc}") from None
    lower = picard_lower_bound(cover_inventory, base.rank)
    closed_form = family.pair(*values)
    return ConstructionReport(
        theorem=family.theorem,
        params=params,
        base=base,
        building_data=data,
        branch_points=tuple(points),
        branch_inventory=branch_inventory,
        cover_inventory=cover_inventory,
        computed=invariants,
        closed_form=closed_form,
        ample=canonical_ample_check(data),
        n_indep=base.rank,
        picard_lower=lower,
        h11=invariants.h11,
        maximal=lower == invariants.h11,
        match=(invariants.K2, invariants.chi) == closed_form,
    )


def _bidouble_branch(m: int) -> tuple[tuple[int, int, int, int], ...]:
    # Families 1 and 2: a bidouble cover of the plane (m = 1) or of F_m.  B3
    # is section + third line + curve, whose F coefficient (2n + 1)m has the
    # parity of m.  For odd m, B1 and B2 hold one line each; for even m, B2
    # holds both and B1 is empty.
    odd = m % 2
    return ((odd, 0, 0, 0), (2 - odd, 0, 0, 0), (0, 1, 1, 1))


FAMILIES = {
    family.label: family
    for family in (
        Family("A1", 1, (Param("n", 2, 1),), family1_pair, _solve_a1, _bidouble_branch),
        Family(
            "A2", 2, (Param("m", 3, 1), Param("n", 2, 2)), family2_pair, _solve_a2,
            _bidouble_branch,
        ),
        Family(
            "A3", 3, (Param("m", 2, 1), Param("n", 4, 2)), family3_pair, _solve_a3,
            # A double cover of F_m branched over the curve and both lines.
            lambda m: ((2, 0, 0, 1),),
        ),
        Family("B", None, (Param("n", 4, 1),), set_b_pair, _solve_b),
        Family("T", None, (Param("t", 6, 2),), set_t_pair),
    )
}
THEOREMS = {family.theorem: family for family in FAMILIES.values() if family.theorem}


def build(theorem: int, *, n: int, m: int | None = None) -> ConstructionReport:
    """Build and certify one member by theorem id."""
    family = THEOREMS.get(theorem)
    if family is None:
        raise ParameterError(f"unknown theorem id {theorem}")
    takes_m = any(p.name == "m" for p in family.params)
    if takes_m and m is None:
        raise ParameterError(f"family {theorem} needs an m parameter")
    if not takes_m and m is not None:
        raise ParameterError(f"family {theorem} takes no m parameter")
    return _build(family, *[{"m": m, "n": n}[p.name] for p in family.params])


def build_theorem1(n: int) -> ConstructionReport:
    return build(1, n=n)


def build_theorem2(m: int, n: int) -> ConstructionReport:
    return build(2, m=m, n=n)


def build_theorem3(m: int, n: int) -> ConstructionReport:
    return build(3, m=m, n=n)
