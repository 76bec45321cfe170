"""Exact divisor-class arithmetic on the two rational base-surface families.

Supported bases are the projective plane and the ruled surfaces F_e for
e >= 0.  Classes on the plane are integer multiples of the hyperplane class
H; classes on F_e are integer combinations a*D0 + b*F of the negative
section D0 (self-intersection -e) and a fiber F.  For e = 0 the negative
section and a general fiber simply mean the two rulings, so the pairing
matrix is [[0, 1], [1, 0]].

Everything in this module is arbitrary-precision integer arithmetic; no
floating point is used anywhere.  A divisor class checks its coefficients
once, in its constructor: each must be an integer (operator.index, so a
bool counts as its int and a float, Fraction or str is refused), and there
must be one per basis class.  Sums, differences, integer multiples and halves
of checked classes on one surface are trusted and built without the check.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from operator import add, index, neg, sub

PLANE = "P2"
RULED = "F"


class SurfaceMismatchError(ValueError):
    """Combining divisor classes that live on different base surfaces."""


class BaseSurface(namedtuple("BaseSurface", "kind e")):
    """The projective plane, or a ruled surface F_e with e >= 0."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, kind: str, e: int = 0) -> "BaseSurface":
        if kind == PLANE:
            if e:
                raise ValueError("the projective plane has no ruling parameter")
        elif kind == RULED:
            if e < 0:
                raise ValueError(f"ruling parameter must be nonnegative, got e={e}")
        else:
            raise ValueError(f"unknown surface kind {kind!r}")
        return tuple.__new__(cls, (kind, e))

    # Rational-surface constants consumed by the cover formulas.
    @property
    def chi_o(self) -> int:
        return 1

    @property
    def p_g(self) -> int:
        return 0

    @property
    def q(self) -> int:
        return 0

    @property
    def rank(self) -> int:
        """Number of coefficients a divisor class carries on this surface."""
        return 1 if self.kind == PLANE else 2

    def divisor(self, *coeffs: int) -> "DivisorClass":
        return DivisorClass(self, tuple(coeffs))

    def zero(self) -> "DivisorClass":
        return DivisorClass(self, (0,) * self.rank)

    def __str__(self) -> str:
        return "P2" if self.kind == PLANE else f"F_{self.e}"


def projective_plane() -> BaseSurface:
    return BaseSurface(PLANE)


def hirzebruch(e: int) -> BaseSurface:
    return BaseSurface(RULED, e)


# Builds a record from already checked fields, without calling its __new__.
_trusted = tuple.__new__


class DivisorClass(namedtuple("DivisorClass", "surface coeffs")):
    """An element of the divisor class group of the base surface.

    On the plane the single coefficient is the multiple of the hyperplane
    class H; on F_e the coefficients (a, b) sit on the (D0, F) basis.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, surface: BaseSurface, coeffs: tuple[int, ...]) -> "DivisorClass":
        coeffs = tuple(map(index, coeffs))
        if len(coeffs) != surface.rank:
            raise ValueError(
                f"{surface} classes carry {surface.rank} coefficient(s), got {len(coeffs)}"
            )
        return _trusted(cls, (surface, coeffs))

    def _require_same_surface(self, other: "DivisorClass") -> None:
        if self.surface != other.surface:
            raise SurfaceMismatchError(
                f"divisor classes on {self.surface} and {other.surface} are incompatible"
            )

    # Arithmetic combines checked classes on one surface: its results are
    # trusted.

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._require_same_surface(other)
        return _trusted(DivisorClass, (self.surface, tuple(map(add, self.coeffs, other.coeffs))))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._require_same_surface(other)
        return _trusted(DivisorClass, (self.surface, tuple(map(sub, self.coeffs, other.coeffs))))

    def __neg__(self) -> "DivisorClass":
        return _trusted(DivisorClass, (self.surface, tuple(map(neg, self.coeffs))))

    def __mul__(self, k: int) -> "DivisorClass":
        if not isinstance(k, int):
            return NotImplemented
        return _trusted(DivisorClass, (self.surface, tuple([k * x for x in self.coeffs])))

    __rmul__ = __mul__

    def half(self) -> "DivisorClass":
        """The class whose double is this one; ValueError if a coefficient
        is odd."""
        if [c for c in self.coeffs if c % 2]:
            raise ValueError(f"{self} is not twice a class")
        return _trusted(DivisorClass, (self.surface, tuple([c // 2 for c in self.coeffs])))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        if self.surface.kind == PLANE:
            d = self.coeffs[0]
            return "H" if d == 1 else f"{d}*H"
        parts = []
        for c, name in zip(self.coeffs, ("D0", "F")):
            if c == 0:
                continue
            if c == 1:
                parts.append(f"+ {name}")
            elif c == -1:
                parts.append(f"- {name}")
            elif c < 0:
                parts.append(f"- {-c}*{name}")
            else:
                parts.append(f"+ {c}*{name}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


def intersect(d1: DivisorClass, d2: DivisorClass) -> int:
    """Intersection number of two divisor classes on the same surface.

    The pairing is fixed by H^2 = 1 on the plane and by D0^2 = -e,
    D0.F = 1, F^2 = 0 on F_e.
    """
    d1._require_same_surface(d2)
    s = d1.surface
    if s.kind == PLANE:
        return d1.coeffs[0] * d2.coeffs[0]
    a1, b1 = d1.coeffs
    a2, b2 = d2.coeffs
    return -s.e * a1 * a2 + a1 * b2 + a2 * b1


@cache
def canonical_class(s: BaseSurface) -> DivisorClass:
    """Canonical divisor class: -3H on the plane, -2*D0 - (e+2)*F on F_e.
    Computed once per surface."""
    if s.kind == PLANE:
        return s.divisor(-3)
    return s.divisor(-2, -(s.e + 2))


def h0(d: DivisorClass) -> int:
    """Dimension of the space of global sections of the class.

    On the plane this is the count of degree-d monomials in three variables.
    On F_e the pushforward to the base line splits as a sum of line bundles
    O(b), O(b-e), ..., O(b-a*e), and the section count is the total number
    of monomial lattice points, sum over j of max(0, b - j*e + 1), summed
    in closed form.
    """
    s = d.surface
    if s.kind == PLANE:
        deg = d.coeffs[0]
        return (deg + 1) * (deg + 2) // 2 if deg >= 0 else 0
    a, b = d.coeffs
    if a < 0 or b < 0:
        return 0
    # The summands are positive exactly for j <= b // e.
    top = a if s.e == 0 else min(a, b // s.e)
    return (top + 1) * (b + 1) - s.e * top * (top + 1) // 2


def is_ample(d: DivisorClass) -> bool:
    """Ampleness of the class: d > 0 on the plane, a > 0 and b > a*e on F_e."""
    s = d.surface
    if s.kind == PLANE:
        return d.coeffs[0] > 0
    a, b = d.coeffs
    return a > 0 and b > a * s.e
