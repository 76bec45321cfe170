"""ADE singularity inventories, branch-to-cover transport rules, and the
Picard lower-bound certificate.

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
    becomes d points of the same type.  The odd-n on-fiber case is
    rejected rather than guessed.

Configurations outside these rules (tangential contact at a singular
point, non-A types on a branch fiber, a point on all three bidouble branch
divisors) raise TransportError; the entry shapes make some of them
unrepresentable in the first place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence


class TransportError(ValueError):
    """A branch-point configuration matches no implemented transport rule."""


@dataclass(frozen=True, order=True)
class SingType:
    """An ADE singularity type; the index counts exceptional (-2)-curves."""

    family: str
    index: int

    def __post_init__(self) -> None:
        if self.family == "A":
            if self.index < 1:
                raise ValueError(f"A-type index must be >= 1, got {self.index}")
        elif self.family == "D":
            if self.index < 4:
                raise ValueError(f"D-type index must be >= 4, got {self.index}")
        elif self.family == "E":
            if self.index not in (6, 7, 8):
                raise ValueError(f"E-type index must be 6, 7 or 8, got {self.index}")
        else:
            raise ValueError(f"unknown singularity family {self.family!r}")

    @property
    def resolution_curves(self) -> int:
        return self.index

    def __str__(self) -> str:
        return f"{self.family}{self.index}"


def A(k: int) -> SingType:
    return SingType("A", k)


def D(k: int) -> SingType:
    return SingType("D", k)


def E(k: int) -> SingType:
    return SingType("E", k)


@dataclass(frozen=True)
class SingInventory:
    """Immutable multiset of ADE singularity types."""

    entries: tuple[tuple[SingType, int], ...] = ()

    def __post_init__(self) -> None:
        merged: dict[SingType, int] = {}
        for sing, count in self.entries:
            if not isinstance(sing, SingType):
                raise TypeError(f"inventory entries must pair a SingType with a count, got {sing!r}")
            if count < 0:
                raise ValueError(f"multiplicity of {sing} is negative")
            if count:
                merged[sing] = merged.get(sing, 0) + count
        object.__setattr__(self, "entries", tuple(sorted(merged.items())))

    @classmethod
    def from_counts(
        cls, counts: Mapping[SingType, int] | Iterable[tuple[SingType, int]]
    ) -> "SingInventory":
        items = counts.items() if isinstance(counts, Mapping) else counts
        return cls(tuple(items))

    @classmethod
    def of(cls, *types: SingType) -> "SingInventory":
        return cls(tuple((t, 1) for t in types))

    def items(self) -> tuple[tuple[SingType, int], ...]:
        return self.entries

    def count(self, sing: SingType) -> int:
        return dict(self.entries).get(sing, 0)

    def total_points(self) -> int:
        return sum(c for _, c in self.entries)

    def __add__(self, other: "SingInventory") -> "SingInventory":
        return SingInventory(self.entries + other.entries)

    def scaled(self, k: int) -> "SingInventory":
        if k < 0:
            raise ValueError("scaling factor must be nonnegative")
        return SingInventory(tuple((t, k * c) for t, c in self.entries))

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


def resolution_curve_count(inventory: SingInventory) -> int:
    """Total number of exceptional (-2)-curves over the inventory."""
    return sum(t.resolution_curves * c for t, c in inventory.items())


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
    return resolution_curve_count(inventory) + n_indep


def h11(chi: int, K2: int, q: int) -> int:
    """The Hodge number h^{1,1} = 10*chi - K2 - 2*q."""
    return 10 * chi - K2 - 2 * q


def union_type(branch: Optional[SingType], contact: int) -> SingType:
    """Singularity type of the union of a branch (smooth or A_k) with a second
    smooth curve through the point.

    A smooth branch meeting a smooth curve with contact order c gives
    A_{2c-1}; an A_k branch with a transversal smooth curve gives D_{k+3}.
    Tangential contact at a singular branch and D/E branches are outside
    the implemented rules.
    """
    if contact < 1:
        raise ValueError(f"contact order must be positive, got {contact}")
    if branch is None:
        return A(2 * contact - 1)
    if branch.family != "A":
        raise TransportError(f"no union rule for a {branch} branch")
    if contact != 1:
        raise TransportError(
            f"tangential contact (order {contact}) at an {branch} point has no union rule"
        )
    return D(branch.index + 3)


@dataclass(frozen=True)
class BidoubleBranchPoint:
    """One point (or a batch of identical points) of the bidouble branch locus.

    carrier is the index (1..3) of the divisor the point sits on, sing its
    singularity type there (None when the carrier is smooth), meets the
    index of the one other branch divisor through the point (None when the
    point avoids both others), and contact the local contact order with the
    meeting divisor.  A point on all three divisors is not representable:
    no transport rule exists for it.
    """

    carrier: int
    sing: Optional[SingType] = None
    meets: Optional[int] = None
    contact: int = 1
    count: int = 1

    def __post_init__(self) -> None:
        if self.carrier not in (1, 2, 3):
            raise ValueError(f"carrier must be 1, 2 or 3, got {self.carrier}")
        if self.meets is not None and (self.meets not in (1, 2, 3) or self.meets == self.carrier):
            raise ValueError(f"meets must name a different divisor, got {self.meets}")
        if self.contact < 1:
            raise ValueError(f"contact order must be positive, got {self.contact}")
        if self.count < 1:
            raise ValueError(f"count must be positive, got {self.count}")

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


@dataclass(frozen=True)
class CyclicBranchPoint:
    """One batch of identical branch-curve points fed to a cyclic cover.

    on_fiber marks points sitting on one of the two branch fibers
    (transversally to it, the only case with a transport rule)."""

    sing: SingType
    on_fiber: bool = False
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be positive, got {self.count}")


def transport_bidouble(points: Sequence[BidoubleBranchPoint]) -> SingInventory:
    """Singularities of the bidouble cover induced by the branch points."""
    out: list[tuple[SingType, int]] = []
    for p in points:
        if p.meets is None:
            if p.sing is None:
                raise TransportError(
                    f"entry '{p.describe()}' carries no singularity and meets nothing"
                )
            # R3: an isolated ADE point of the branch locus doubles upstairs.
            out.append((p.sing, 2 * p.count))
            continue
        union = p.branch_type  # TransportError outside the union rules
        if union.family == "D":
            # R2: A_k met transversally (union D_{k+3}) gives A_{2k+1}.
            out.append((A(2 * union.index - 5), p.count))
        elif union.index > 1:
            # R1: contact c >= 2 (union A_{2c-1}) gives A_{c-1}.
            out.append((A((union.index - 1) // 2), p.count))
        # R0: a transverse crossing (union A_1) is smooth upstairs.
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
        if not p.on_fiber:
            out.append((p.sing, degree * p.count))
            continue
        if p.sing.family != "A":
            raise TransportError(
                f"a {p.sing} point on a branch fiber does not pull back to ADE points"
            )
        n = p.sing.index + 1
        if n % 2:
            raise TransportError(
                f"on-fiber transport of {p.sing} needs n = {n} even; "
                "the odd case is deliberately not implemented"
            )
        out.append((A(degree * n - 1), p.count))
    return SingInventory.from_counts(out)
