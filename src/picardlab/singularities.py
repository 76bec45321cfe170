"""ADE singularity inventories, branch-to-cover transport rules, and the
Picard lower-bound certificate.  Each rule is a ring function of (family,
index) types and counts, on ints and Polys alike, that the record-level
transports call after their checks.

The transport rules implemented here are exactly the ones the construction
pipelines need:

  bidouble covers
    R0  two smooth branch divisors crossing transversally: the cover is
        smooth over the point,
    R1  two smooth branch divisors with contact order c >= 2 (their union
        has an A_{2c-1} point): one A_{c-1} point upstairs,
    R2  an A_k point of one branch divisor with a second divisor passing
        through it transversally (union D_{k+3}): one A_{2k+1} point,
    R3  an ADE point of one branch divisor away from the other two: two
        points of the same type,

  double covers
    every ADE point of the branch divisor induces one point of the same
    type,

  cyclic covers of ruled surfaces branched over two fibers
    an A_{n-1} point on a branch fiber, transversal to it and with n even,
    becomes a single A_{dn-1} point; a point away from the branch fibers
    becomes d points of the same type.  Builds call cyclic_rule, which
    has no parity test: the parameter domains of families 2 and 3,
    Param("n", 2, 2) and Param("n", 4, 2), are what exclude odd n (only
    the record-level transport_cyclic, which no build calls, refuses it).

Configurations outside these rules (tangential contact at a singular
point, non-A types on a branch fiber, a point on all three bidouble branch
divisors) raise TransportError; the entry shapes make some of them
unrepresentable in the first place.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from typing import Optional

from .surfaces import half


class TransportError(ValueError):
    """A branch-point configuration matches no implemented transport rule."""


class SingType(namedtuple("SingType", "family index")):
    """An ADE singularity type; the index counts exceptional (-2)-curves.
    Types order by (family, index)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, family: str, index: int) -> "SingType":
        index = operator.index(index)
        if family == "A":
            if index < 1:
                raise ValueError(f"A-type index must be >= 1, got {index}")
        elif family == "D":
            if index < 4:
                raise ValueError(f"D-type index must be >= 4, got {index}")
        elif family == "E":
            if index not in (6, 7, 8):
                raise ValueError(f"E-type index must be 6, 7 or 8, got {index}")
        else:
            raise ValueError(f"unknown singularity family {family!r}")
        return tuple.__new__(cls, (family, index))

    def __str__(self) -> str:
        return f"{self.family}{self.index}"


def A(k: int) -> SingType:
    return SingType("A", k)


def D(k: int) -> SingType:
    return SingType("D", k)


class SingInventory(namedtuple("SingInventory", "entries")):
    """Immutable multiset of ADE singularity types: entries holds each
    type once, with its positive count, in type order."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, entries: tuple[tuple[SingType, int], ...] = ()) -> "SingInventory":
        merged: dict[SingType, int] = {}
        for sing, count in entries:
            if not isinstance(sing, SingType):
                raise TypeError(f"inventory entries must pair a SingType with a count, got {sing!r}")
            count = operator.index(count)
            if count < 0:
                raise ValueError(f"multiplicity of {sing} is negative")
            if count:
                merged[sing] = merged.get(sing, 0) + count
        return tuple.__new__(cls, (tuple(sorted(merged.items())),))

    @classmethod
    def from_counts(
        cls, counts: Mapping[SingType, int] | Iterable[tuple[SingType, int]]
    ) -> "SingInventory":
        items = counts.items() if isinstance(counts, Mapping) else counts
        return cls(tuple(items))

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "none"
        return ", ".join(f"{c} x {t}" for t, c in self.entries)

    def to_json(self) -> list[dict]:
        return [
            {"family": t.family, "index": t.index, "count": c}
            for t, c in self.entries
        ]


def picard_lower_bound(inventory: SingInventory, n_indep: int) -> int:
    """Lower bound on the Picard number of the minimal resolution: one class
    per exceptional curve plus n_indep independent classes from the base.

    Only n_indep = 1 (plane base: a line) and n_indep = 2 (ruled base:
    negative section and a fiber) are in scope.
    """
    if n_indep not in (1, 2):
        raise ValueError(
            "independent divisor count must be 1 (plane: a line) or "
            "2 (ruled surface: section and fiber)"
        )
    return sum(t.index * c for t, c in inventory.entries) + n_indep


def union_rule(branch, contact: int) -> tuple:
    """The (family, index) of a branch, a (family, index) pair or None when
    smooth, united with a smooth curve: A_{2c-1} at contact order c with a
    smooth branch, D_{k+3} with an A_k branch met transversally."""
    return ("A", 2 * contact - 1) if branch is None else ("D", branch[1] + 3)


def union_type(branch: Optional[SingType], contact: int) -> SingType:
    """Singularity type of the union of a branch (smooth or A_k) with a second
    smooth curve through the point (union_rule).  Tangential contact at a
    singular branch and D/E branches are outside the implemented rules."""
    if contact < 1:
        raise ValueError(f"contact order must be positive, got {contact}")
    if branch is not None and branch.family != "A":
        raise TransportError(f"no union rule for a {branch} branch")
    if branch is not None and contact != 1:
        raise TransportError(
            f"tangential contact (order {contact}) at an {branch} point has no union rule"
        )
    return SingType(*union_rule(branch, contact))


class BidoubleBranchPoint(namedtuple("BidoubleBranchPoint", "carrier sing meets contact count")):
    """One point (or a batch of identical points) of the bidouble branch locus.

    carrier is the index (1..3) of the divisor the point sits on, sing its
    singularity type there (None when the carrier is smooth), meets the
    index of the one other branch divisor through the point (None when the
    point avoids both others), and contact the local contact order with the
    meeting divisor.  A point on all three divisors is not representable:
    no transport rule exists for it.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(
        cls,
        carrier: int,
        sing: Optional[SingType] = None,
        meets: Optional[int] = None,
        contact: int = 1,
        count: int = 1,
    ) -> "BidoubleBranchPoint":
        if carrier not in (1, 2, 3):
            raise ValueError(f"carrier must be 1, 2 or 3, got {carrier}")
        if meets is not None and (meets not in (1, 2, 3) or meets == carrier):
            raise ValueError(f"meets must name a different divisor, got {meets}")
        if contact < 1:
            raise ValueError(f"contact order must be positive, got {contact}")
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        return tuple.__new__(cls, (carrier, sing, meets, contact, count))

    @property
    def branch_type(self) -> Optional[SingType]:
        """Type of the total branch divisor at the point: the carrier's own
        type away from the other divisors, else the union rule."""
        return self.sing if self.meets is None else union_type(self.sing, self.contact)

    def describe(self) -> str:
        where = f"B{self.carrier}"
        if self.sing is None:
            head = f"smooth point of {where}"
        else:
            head = f"{self.sing} point of {where}"
        if self.meets is None:
            return f"{head} away from the other branch divisors"
        return f"{head}, B{self.meets} through it with contact {self.contact}"


class CyclicBranchPoint(namedtuple("CyclicBranchPoint", "sing on_fiber count")):
    """One batch of identical branch-curve points fed to a cyclic cover.

    on_fiber marks points sitting on one of the two branch fibers
    (transversally to it, the only case with a transport rule)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, sing: SingType, on_fiber: bool = False, count: int = 1) -> "CyclicBranchPoint":
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        return tuple.__new__(cls, (sing, on_fiber, count))


def bidouble_rule(sing, union, count) -> Optional[tuple]:
    """The (type, count) upstairs of count bidouble branch points of type
    sing whose union with a meeting divisor has type union (None when they
    meet none), or None when they are smooth upstairs.  R3: an isolated ADE
    point doubles; R2: A_k met transversally (union D_{k+3}) gives A_{2k+1};
    R1: contact c >= 2 (union A_{2c-1}) gives A_{c-1}; R0: a transverse
    crossing (union A_1) is smooth."""
    if union is None:
        return sing, 2 * count
    if union[0] == "D":
        return ("A", 2 * union[1] - 5), count
    return (("A", half(union[1] - 1)), count) if union[1] != 1 else None


def transport_bidouble(points: Sequence[BidoubleBranchPoint]) -> SingInventory:
    """Singularities of the bidouble cover induced by the branch points
    (bidouble_rule)."""
    out: list[tuple[SingType, int]] = []
    for p in points:
        if p.meets is None and p.sing is None:
            raise TransportError(f"entry '{p.describe()}' carries no singularity and meets nothing")
        # branch_type raises TransportError outside the union rules.
        upstairs = bidouble_rule(p.sing, None if p.meets is None else p.branch_type, p.count)
        if upstairs:
            out.append((SingType(*upstairs[0]), upstairs[1]))
    return SingInventory.from_counts(out)


def transport_double(branch_inventory: SingInventory) -> SingInventory:
    """Singularities of the double cover: one point of the same type per
    branch-locus singularity."""
    return SingInventory(branch_inventory.entries)


def transport_cyclic(points: Sequence[CyclicBranchPoint], degree: int) -> SingInventory:
    """Singularities of the pulled-back curve under the degree-d cyclic cover
    of a ruled surface branched over two fibers.

    Points away from the branch fibers are replicated d times.  A point on
    a branch fiber must be an A_{n-1} with n even and transversal to the
    fiber; it becomes a single A_{dn-1} point.
    """
    if degree <= 0:
        raise ValueError(f"cover degree must be positive, got {degree}")
    out: list[tuple[SingType, int]] = []
    for p in points:
        if p.on_fiber and p.sing.family != "A":
            raise TransportError(
                f"a {p.sing} point on a branch fiber does not pull back to ADE points"
            )
        if p.on_fiber and p.sing.index % 2 == 0:
            raise TransportError(
                f"on-fiber transport of {p.sing} needs n = {p.sing.index + 1} even; "
                "the odd case is deliberately not implemented"
            )
        sing, count = cyclic_rule(p.sing, p.count, degree, p.on_fiber)
        out.append((SingType(*sing), count))
    return SingInventory.from_counts(out)


def cyclic_rule(sing, count, degree, on_fiber: bool) -> tuple:
    """The (type, count) on the degree-d cyclic cover of count points of type
    sing: one A_{dn-1} per A_{n-1} point on a branch fiber, else d each."""
    if on_fiber:
        return ("A", degree * (sing[1] + 1) - 1), count
    return sing, degree * count
