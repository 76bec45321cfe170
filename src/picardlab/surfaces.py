"""Exact divisor-class arithmetic on the two rational base-surface families.

Supported bases are the projective plane and the ruled surfaces F_e for
e >= 0.  Classes on the plane are integer multiples of the hyperplane class
H; classes on F_e are integer combinations a*D0 + b*F of the negative
section D0 (self-intersection -e) and a fiber F.  For e = 0 the negative
section and a general fiber simply mean the two rulings, so the pairing
matrix is [[0, 1], [1, 0]].

The ring layer is plain functions of coefficient tuples, (d,) on the plane
and (a, b) on F_e, and e: sums, halves, the pairing and the canonical class
are ring expressions, on ints and Poly parameters alike; ampleness and
sections (h0) decide their cases on ints, or by sign facts on Poly
parameters.  The records call them.  A divisor class checks its
coefficients once, in its constructor: operator.index (a bool counts as its
int, a float, Fraction or str is refused), one per basis class.  Sums,
differences and multiples of checked classes on one surface are trusted.
A class has no halving of its own: the builder halves coefficient tuples
and refuses an odd one.  No floating point is used anywhere.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from operator import add, index

from .polynomials import Poly, at_least

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


# The ring layer.


def plus(u: tuple, v: tuple) -> tuple:
    return tuple(map(add, u, v))


def compose(multiplicities, components) -> tuple:
    """The sum of k * u over the multiplicities k and the tuples u."""
    a = b = 0
    for k, u in zip(multiplicities, components):
        a, b = a + k * u[0], b + k * u[-1]
    return (a, b) if len(components[0]) == 2 else (a,)


def half(x):
    """x / 2 for an int the caller has checked to be even, or a Poly, whose
    integral coefficients stay ints."""
    if isinstance(x, int):
        return x // 2
    return Poly({e: Fraction(c, 2) for e, c in x.coeffs.items()}, x.nvars)


def pairing(e, u: tuple, v: tuple):
    """The intersection number: H^2 = 1 on the plane; D0^2 = -e, D0.F = 1 and
    F^2 = 0 on F_e."""
    if len(u) == 1:
        return u[0] * v[0]
    (a1, b1), (a2, b2) = u, v
    return a1 * b2 + a2 * b1 - e * a1 * a2


def canonical(e, rank: int) -> tuple:
    """The canonical class: -3H on the plane (rank 1), -2*D0 - (e + 2)*F on
    F_e."""
    return (-3,) if rank == 1 else (-2, -(e + 2))


def ample(e, u: tuple) -> bool:
    """d > 0 on the plane; a > 0 and b > a*e on F_e (at_least, for Polys)."""
    return at_least(u[0], 1) and (len(u) == 1 or at_least(u[1] - u[0] * e, 1))


def sections(e, u: tuple):
    """The dimension h0 of the space of global sections.

    On the plane this is the count of degree-d monomials in three variables.
    On F_e the pushforward to the base line splits as a sum of line bundles
    O(b), O(b-e), ..., O(b-a*e), and the section count is the total number
    of monomial lattice points, sum over j of max(0, b - j*e + 1), summed
    in closed form.  For Poly coefficients each case must be decided on the
    whole class (polynomials.at_least), or the result is None.
    """
    if len(u) == 1:
        deg = u[0]
        return half((deg + 1) * (deg + 2)) if at_least(deg, 0) else 0 if at_least(-deg, 1) else None
    a, b = u
    if at_least(-a, 1) or at_least(-b, 1):
        return 0
    # The summands are positive exactly for j <= b // e, which is a on a
    # class where the remainder b - e*a lies in [0, e).
    r = b - e * a
    if not isinstance(r, int) and not (at_least(a, 0) and at_least(r, 0) and at_least(e - r, 1)):
        return None
    top = a if e == 0 or not isinstance(r, int) else min(a, b // e)
    return (top + 1) * (b + 1) - half(e * top * (top + 1))


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
        return _trusted(DivisorClass, (self.surface, plus(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._require_same_surface(other)
        return _trusted(DivisorClass, (self.surface, compose((1, -1), (self.coeffs, other.coeffs))))

    def __neg__(self) -> "DivisorClass":
        return -1 * self

    def __mul__(self, k: int) -> "DivisorClass":
        if not isinstance(k, int):
            return NotImplemented
        return _trusted(DivisorClass, (self.surface, tuple([k * c for c in self.coeffs])))

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.surface.kind == PLANE:
            d = self.coeffs[0]
            return "0" if not d else "H" if d == 1 else f"{d}*H"
        a, b = self.coeffs
        if not (a and b):
            return _term(a, "D0") if a else _term(b, "F") if b else "0"
        return f"{_term(a, 'D0')} {'-' if b < 0 else '+'} {_term(abs(b), 'F')}"


def _term(c: int, name: str) -> str:
    """c*name for a nonzero c, without a coefficient of 1 or -1."""
    return name if c == 1 else f"-{name}" if c == -1 else f"{c}*{name}"


def intersect(d1: DivisorClass, d2: DivisorClass) -> int:
    """Intersection number of two divisor classes on the same surface."""
    d1._require_same_surface(d2)
    return pairing(d1.surface.e, d1.coeffs, d2.coeffs)


def canonical_class(s: BaseSurface) -> DivisorClass:
    """The canonical class of the surface."""
    return DivisorClass(s, canonical(s.e, s.rank))


def h0(d: DivisorClass) -> int:
    """Dimension of the space of global sections of the class."""
    return sections(d.surface.e, d.coeffs)


def is_ample(d: DivisorClass) -> bool:
    """Ampleness of the class."""
    return ample(d.surface.e, d.coeffs)
