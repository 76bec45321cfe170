"""The family table, the builder that reads its pipeline rows, the proof of
each class of members, and the certification reports.

FAMILIES holds one record per family of invariant pairs: families 1-3
(set labels A1, A2, A3), the classical double planes B and the overlap
family T.  Each record defines the family's parameter domain, its
closed-form (K2, chi), for the line families A2 and A3 its membership
solver and, for families 1-3, its pipeline row; validation, building,
enumeration and membership all read it, and geography derives the A2 and
A3 line of each n from the pair.

A member is made from the seed curve C_n and the three coordinate lines as
its family's row says.  The row, a function of m, gives each branch divisor
as multiplicities of (line, negative section, third line, curve), and each
L is half a sum of them.  A family with an m parameter lives on F_m: the
vertex where the first two lines cross (it is off the curve) is blown up,
making them fibers of F_1, and the degree-m cyclic cover F_m -> F_1
branched over them pulls everything back.  Family 1 is family 2's row at
m = 1, on the plane.  Each batch of seed points joins the curve's divisor
if that divisor holds its line, meets each divisor holding its line if
others do, and keeps away from them otherwise.

_derive computes a build's numbers with the ring rules of surfaces, covers
and singularities: on ints at a member, on Polys in domain variables on a
class.  family_proof checks every stage of the certificate once per class
of members (_facts), and _build makes each member's records from its own
numbers, checking at the member only its transport intersections, its
building data and its Picard bound.  A fact not shown raises ParameterError
naming its stage and the member's numbers, so none is lost under python -O.
The seed curve's singular points come from curves.seed_proof, proved once
for every n.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from itertools import islice

from .covers import (
    BidoubleCoverData, DoubleCoverData, SurfaceInvariants, formulas, pullback, validate,
)
from .curves import seed_proof
from .polynomials import at_least, domain_variables
from .singularities import (
    BidoubleBranchPoint, SingInventory, SingType, bidouble_rule, cyclic_rule, picard_lower_bound,
    union_rule,
)
from .surfaces import (
    DivisorClass, ample, canonical, compose, half, hirzebruch, intersect, pairing, plus,
    projective_plane, sections,
)

# Builds a record from already computed fields, without calling its __new__.
_trusted = tuple.__new__


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


# Closed-form membership of the line families A2 and A3.  Each solver
# returns the candidate parameters of the members with the value (K2, chi);
# Family.members keeps the candidates inside the domain whose pair is that
# value.


def _integer_roots(a: int, b: int, c: int) -> list[int]:
    """The integer roots of a*x^2 + b*x + c, for a > 0."""
    disc = b * b - 4 * a * c
    s = math.isqrt(max(disc, 0))
    if s * s != disc:
        return []
    return sorted({(e - b) // (2 * a) for e in (s, -s) if (e - b) % (2 * a) == 0})


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
    namedtuple("Family", "label theorem params pair solve pipeline period",
               defaults=(None, None, 1))
):
    """One family of invariant pairs: its set label, the theorem that
    constructs it (None for the comparison families B and T), its parameters
    and closed-form pair, the membership solver (only the line families A2
    and A3 carry one: geography asks no other), and for families 1-3 the
    pipeline row, the function m -> branch multiplicities, and its period in
    m: the members whose m agree modulo the period form one class, proved
    at once (family_proof).  _build derives the base and the placement of
    the seed points from the row and the parameters."""

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


def _certified_seed(n) -> tuple:
    """The seed curve's singular type and its number of points on each
    coordinate line at n, an int or a Poly, read off its certificate, which
    is proved once for every n (curves.seed_proof).  A failed proof raises,
    naming its stages, and is not kept."""
    proof = seed_proof()
    if proof.failures:
        seed_proof.cache_clear()
        raise ParameterError(f"the seed curve certificate fails at n={n}: "
                             f"{', '.join(proof.failures)}")
    return proof.singularity(n), proof.points_per_line(n)


# The provenance note of a double-cover branch point, by placement.
_ORIGINS = {
    "join": "curve point joined by a branch fiber component",
    "keep": "curve point away from the branch fibers",
}
# The intersections the transport rules rest on, by positions in (line,
# section, third, curve): the curve meets each line twice at each of its A
# points, transversally, and the section misses the curve and third line.
_TRANSPORT = (("line.curve", 0, 3), ("third.curve", 2, 3), ("section.curve", 1, 3),
              ("section.third", 1, 2))


def _layout(rows) -> tuple:
    """The carrier of the rows (the divisor holding the curve) and, joined
    batches first, (placement, batch: 0 for the points on the first two lines
    and 1 for the third, the divisors holding the line, the number of lines)."""
    carrier = max((i for i, mults in enumerate(rows, 1) if mults[3]), default=None)
    if carrier is None:
        raise ParameterError("validate: no branch divisor holds the curve")
    placements = []
    for batch, (column, lines) in enumerate(((0, 2), (2, 1))):
        holders = tuple(i for i, mults in enumerate(rows, 1) for _ in range(mults[column]))
        placement = "join" if carrier in holders else "meet" if holders else "keep"
        placements.append((placement, batch, holders, lines))
    return carrier, sorted(placements, key=lambda p: ("join", "meet", "keep").index(p[0]))


@functools.lru_cache(maxsize=None)
def _frame(family: Family, m) -> tuple:
    """A member's base, rows, layout and class params (m's residue modulo the
    period), once per family and m (None for a family without one)."""
    rows, period = family.pipeline(1 if m is None else m), family.period
    params = tuple(p if p.name != "m" else p._replace(minimum=p.minimum + (m - p.minimum) % period,
                                                       step=period) for p in family.params)
    return projective_plane() if m is None else hirzebruch(m), rows, _layout(rows), params


def _derive(rows, layout, m, n, sing, per_line) -> tuple:
    """A build's numbers on the plane (m None) or F_m, ints at a member and
    Polys on a class: e; line, section, third line and curve; the expected
    _TRANSPORT intersections; the sums to halve, by name; the classes L...,
    B...; the branch points (type, divisor met or None, count, placement);
    the (type, count) entries of both inventories.  Types are (family,
    index) pairs from the rules of singularities."""
    if m is None:
        e, line, section, third = 0, (1,), (0,), (1,)
        on_line = on_third = (sing, per_line)
    else:
        # On F_1 the first two lines are fibers, branched over by F_m -> F_1,
        # and the third is D0 + F.
        e, line, section, third = m, (0, 1), (1, 0), pullback((1, 1), m)
        on_line, on_third = (cyclic_rule(sing, per_line, m, fiber) for fiber in (True, False))
    components = (line, section, third, tuple([2 * n * c for c in third]))
    branch = [compose(mults, components) for mults in rows]
    bidouble = len(branch) == 3
    if bidouble:
        B1, B2, B3 = branch
        sums = (("B2 + B3", plus(B2, B3)), ("B1 + B3", plus(B1, B3)))
        L1, L2 = (tuple(map(half, u)) for _, u in sums)
        classes = (L1, L2, compose((1, 1, -1), (L1, L2, B3)), *branch)
    else:
        sums = (("B", branch[0]),)
        classes = (tuple(map(half, branch[0])), branch[0])
    points = []
    for placement, batch, holders, lines in layout[1]:
        point_type, count = (on_line, on_third)[batch]
        if placement == "meet":
            points += [(point_type, i, count, placement) for i in holders]
        else:
            joined = union_rule(point_type, 1) if placement == "join" else point_type
            points.append((joined, None, lines * count, placement))
    branch_entries, cover_entries = [], []
    for point_type, meets, count, _ in points:
        # Each meeting point's union type is made once, for both inventories.
        union = None if meets is None else union_rule(point_type, 1)
        branch_entries.append((union or point_type, count))
        upstairs = bidouble_rule(point_type, union, count) if bidouble else (point_type, count)
        cover_entries += [upstairs] if upstairs else []
    expected = (2 * on_line[1], 2 * on_third[1], 0, 0)
    return e, components, expected, sums, classes, points, branch_entries, cover_entries


def _even(x) -> bool:
    return x % 2 == 0 if isinstance(x, int) else x.multiple_of(2)


def _facts(family: Family, values: tuple, numbers: tuple, base=None):
    """The certificate as (holds, text) facts in stage order on the numbers of
    _derive: ints at a member, or Polys on a class, where a fact holds only
    if shown on the whole class.  Given a member's base, text words the fact
    with its numbers.  The cover relations hold by construction (L halves
    its sum, L3 = L1 + L2 - B3).  The facts stop after a failed h0 fact, as
    p_g and every later fact rest on it."""
    e, components, expected, sums, classes, _, branch_entries, cover_entries = numbers
    record = BidoubleCoverData if len(classes) == 6 else DoubleCoverData
    Ls, Bs = classes[:len(classes) // 2], classes[len(classes) // 2:]
    show = functools.partial(DivisorClass, base)
    for (name, i, j), want in zip(_TRANSPORT, expected):
        value = pairing(e, components[i], components[j])
        yield value == want, base and f"transport: {name} = {value}, expected {want}"
    for name, u in sums:
        yield all(map(_even, u)), base and f"validate: {name} = {show(u)} is not twice a class"
    for name, L in zip(record._fields[1:], Ls):
        yield any(at_least(c, 1) or at_least(-c, 1) for c in L), base and (
            f"assembled building data is invalid: {name} is the trivial class")
    K2, chi, _, amp = formulas(e, Ls, Bs)
    k, p_g = canonical(e, len(components[0])), 0
    for name, L in zip(record._fields[1:], Ls):
        h0 = sections(e, plus(k, L))
        yield h0 is not None, base and (
            f"invariants: h0(K + {name}) of {show(plus(k, L))} is not a closed form on the class")
        if h0 is None:
            return
        p_g += h0
    q = 1 + p_g - chi
    yield q == 0, base and f"invariants: derived irregularity q = {q}, expected 0"
    yield ample(e, amp), base and f"ample: {show(amp)} is not ample"
    for which, entries in (("branch", branch_entries), ("cover", cover_entries)):
        # A_k needs k >= 1 and D_k k >= 4; no rule here makes an E type.
        yield all(at_least(i, {"A": 1, "D": 4}[f]) and at_least(c, 1) for (f, i), c in entries), (
            base and f"transport: the {which} inventory "
            f"{', '.join(f'{c} x {f}{i}' for (f, i), c in entries)} "
            "has a type or count out of range")
    lower, h11 = sum(i * c for (_, i), c in cover_entries) + len(components[0]), 10 * chi - K2
    yield lower == h11, base and f"picard: the lower bound {lower} differs from h11 = {h11}"
    closed = family.pair(*values)
    yield (K2, chi) == closed, base and f"match: (K2, chi) = ({K2}, {chi}), closed form {closed}"


@functools.lru_cache(maxsize=None)
def family_proof(family: Family, params: tuple, rows: tuple) -> int | None:
    """Prove the certificate of every member of a class at once: _derive and
    _facts on the class params shifted by domain_variables, with the class's
    rows.  Each fact is an identity or a sign fact (Poly.multiple_of,
    Poly.nonnegative) in the shifted parameters, so it holds at every member.
    The proof is the position in _facts of the first fact not shown, or None
    when all are."""
    values = domain_variables(params)
    m, n = values if len(values) == 2 else (None, *values)
    numbers = _derive(rows, _layout(rows), m, n, *_certified_seed(n))
    return next((i for i, (holds, _) in enumerate(_facts(family, values, numbers)) if not holds),
                None)


def _build(family: Family, *values: int) -> ConstructionReport:
    """Build the member with these parameter values from the proof of its
    class (family_proof) and its numbers (_derive).  A fact the proof does
    not show raises, worded with the member's numbers; a failed proof is not
    kept."""
    family.check(*values)
    params = tuple(zip([p.name for p in family.params], values))
    m, n = values if len(values) == 2 else (None, *values)
    seed = _certified_seed(n)
    base, rows, layout, class_params = _frame(family, m)
    numbers = _derive(rows, layout, m, n, *seed)
    _, components, expected, _, classes, points, branch_entries, cover_entries = numbers
    divisors = [_trusted(DivisorClass, (base, u)) for u in components]
    for (name, i, j), want in zip(_TRANSPORT, expected):
        value = intersect(divisors[i], divisors[j])
        if value != want:
            raise ParameterError(f"transport: {name} = {value}, expected {want}")
    failed = family_proof(family, class_params, rows)
    if failed is not None:
        family_proof.cache_clear()
        holds, text = next(islice(_facts(family, values, numbers, base), failed, None))
        stage, _, detail = text.partition(": ")
        where = "on the class of this member, though not at the member: " if holds else ""
        raise ParameterError(f"{stage}: {where}{detail}")

    bidouble = len(rows) == 3
    data = _trusted(BidoubleCoverData if bidouble else DoubleCoverData,
                    (base, *[_trusted(DivisorClass, (base, c)) for c in classes]))
    problems = validate(data)
    if problems:
        raise ParameterError(f"assembled building data is invalid: {'; '.join(problems)}")
    carrier = layout[0]
    records = tuple([
        _trusted(BidoubleBranchPoint, (carrier, _trusted(SingType, t), meets, 1, count)) if bidouble
        else _trusted(DoubleBranchPoint, (_trusted(SingType, t), count, _ORIGINS[place]))
        for t, meets, count, place in points
    ])
    # The proof shows every type valid and every count positive; the
    # inventories merge and order the member's entries.
    branch_inventory, cover_inventory = (
        SingInventory(tuple([(_trusted(SingType, t), c) for t, c in entries]))
        for entries in (branch_entries, cover_entries))
    lower = picard_lower_bound(cover_inventory, base.rank)
    K2, chi = closed_form = family.pair(*values)
    h11 = 10 * chi - K2
    # The fields in order; the invariants have q = 0, p_g = chi - 1.
    return _trusted(ConstructionReport, (
        family.theorem, params, base, data, records, branch_inventory,
        cover_inventory, _trusted(SurfaceInvariants, (K2, chi, chi - 1, 0, h11)), closed_form,
        True, base.rank, lower, h11, lower == h11, True,
    ))


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
        Family("A1", 1, (Param("n", 2, 1),), family1_pair, pipeline=_bidouble_branch),
        Family(
            "A2", 2, (Param("m", 3, 1), Param("n", 2, 2)), family2_pair, _solve_a2,
            _bidouble_branch, 2,
        ),
        Family(
            "A3", 3, (Param("m", 2, 1), Param("n", 4, 2)), family3_pair, _solve_a3,
            # A double cover of F_m branched over the curve and both lines.
            lambda m: ((2, 0, 0, 1),),
        ),
        Family("B", None, (Param("n", 4, 1),), set_b_pair),
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
