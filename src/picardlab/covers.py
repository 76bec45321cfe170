"""Numerical invariants of double and bidouble covers of rational surfaces.

A double cover is determined by building data {L, B} with B = 2L; a
bidouble cover by {L1, L2, L3, B1, B2, B3} subject to 2L1 = B2 + B3,
2L2 = B1 + B3 and L3 = L1 + L2 - B3.  Validation reports violations as
data; the invariant formulas refuse inconsistent input.  The module also
transports divisor classes along the degree-d cyclic cover F_{de} -> F_e
branched over two fibers.

The invariant formulas stay valid when the cover acquires ADE
singularities, which is exactly how they are used by the construction
pipelines.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Union

from .surfaces import DivisorClass, RULED, canonical_class, h0, hirzebruch, intersect, is_ample


class CoverDataError(ValueError):
    """Building data fails its cover conditions or yields impossible invariants."""


class SurfaceInvariants(namedtuple("SurfaceInvariants", "K2 chi p_g q h11")):
    """The numerical invariants of a surface, tied together on construction.

    chi = 1 - q + p_g must hold, and h11 is pinned to 10*chi - K2 - 2*q,
    the Hodge-number identity for the surfaces produced here.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, K2: int, chi: int, p_g: int, q: int, h11: int) -> "SurfaceInvariants":
        if chi != 1 - q + p_g:
            raise ValueError(f"inconsistent invariants: chi={chi} != 1 - q + p_g = {1 - q + p_g}")
        if h11 != 10 * chi - K2 - 2 * q:
            raise ValueError(f"inconsistent invariants: h11={h11} != 10*chi - K2 - 2q")
        return tuple.__new__(cls, (K2, chi, p_g, q, h11))


class DoubleCoverData(namedtuple("DoubleCoverData", "base L B")):
    """Building data {L, B} of a double cover of a rational base surface."""

    __slots__ = ()


class BidoubleCoverData(namedtuple("BidoubleCoverData", "base L1 L2 L3 B1 B2 B3")):
    """Building data {L1, L2, L3, B1, B2, B3} of a bidouble cover."""

    __slots__ = ()


CoverData = Union[DoubleCoverData, BidoubleCoverData]


def validate_double(data: DoubleCoverData) -> list[str]:
    """List every violated double-cover condition; an empty list means valid."""
    problems: list[str] = []
    for name, div in (("L", data.L), ("B", data.B)):
        if div.surface != data.base:
            problems.append(f"{name} does not live on the base surface {data.base}")
    if problems:
        return problems
    if data.B != 2 * data.L:
        problems.append(f"B = {data.B} is not twice L = {data.L}")
    if data.L.is_zero():
        problems.append("L is the trivial class")
    return problems


def validate_bidouble(data: BidoubleCoverData) -> list[str]:
    """List every violated bidouble-cover condition; an empty list means valid.

    The B_i are allowed to be zero classes; only a trivial L_i is fatal.
    """
    problems: list[str] = []
    named = (
        ("L1", data.L1), ("L2", data.L2), ("L3", data.L3),
        ("B1", data.B1), ("B2", data.B2), ("B3", data.B3),
    )
    for name, div in named:
        if div.surface != data.base:
            problems.append(f"{name} does not live on the base surface {data.base}")
    if problems:
        return problems
    if 2 * data.L1 != data.B2 + data.B3:
        problems.append(f"2*L1 = {2 * data.L1} differs from B2 + B3 = {data.B2 + data.B3}")
    if 2 * data.L2 != data.B1 + data.B3:
        problems.append(f"2*L2 = {2 * data.L2} differs from B1 + B3 = {data.B1 + data.B3}")
    if data.L3 != data.L1 + data.L2 - data.B3:
        problems.append(
            f"L3 = {data.L3} differs from L1 + L2 - B3 = {data.L1 + data.L2 - data.B3}"
        )
    for name, div in named[:3]:
        if div.is_zero():
            problems.append(f"{name} is the trivial class")
    return problems


def _assemble_invariants(K2: int, chi: int, p_g: int) -> SurfaceInvariants:
    # q is derived, never assumed; a negative value signals bad building data.
    q = 1 + p_g - chi
    if q < 0:
        raise CoverDataError(f"derived irregularity q = {q} is negative")
    return SurfaceInvariants(K2=K2, chi=chi, p_g=p_g, q=q, h11=10 * chi - K2 - 2 * q)


def double_invariants(data: DoubleCoverData) -> SurfaceInvariants:
    """Invariants of the double cover: K2 = 2(K+L)^2, chi = 2 + L(L+K)/2.

    p_g adds h0(K+L) to the base's geometric genus and q is derived from
    the chi identity (it vanishes for every datum built in this package).
    """
    problems = validate_double(data)
    if problems:
        raise CoverDataError("; ".join(problems))
    k = canonical_class(data.base)
    kl = k + data.L
    K2 = 2 * intersect(kl, kl)
    pairing = intersect(data.L, data.L + k)
    if pairing % 2:
        raise CoverDataError(f"L(L+K) = {pairing} is odd, chi would not be an integer")
    chi = 2 * data.base.chi_o + pairing // 2
    p_g = data.base.p_g + h0(kl)
    return _assemble_invariants(K2, chi, p_g)


def bidouble_invariants(data: BidoubleCoverData) -> SurfaceInvariants:
    """Invariants of the bidouble cover: K2 = (2K + B1 + B2 + B3)^2 and
    chi = 4 + (1/2) * sum of L_i(L_i + K)."""
    problems = validate_bidouble(data)
    if problems:
        raise CoverDataError("; ".join(problems))
    k = canonical_class(data.base)
    branch_total = data.B1 + data.B2 + data.B3
    half_canonical = 2 * k + branch_total
    K2 = intersect(half_canonical, half_canonical)
    pairing = sum(intersect(L, L + k) for L in (data.L1, data.L2, data.L3))
    if pairing % 2:
        raise CoverDataError(f"sum of L_i(L_i+K) = {pairing} is odd, chi would not be an integer")
    chi = 4 * data.base.chi_o + pairing // 2
    p_g = data.base.p_g + sum(h0(k + L) for L in (data.L1, data.L2, data.L3))
    return _assemble_invariants(K2, chi, p_g)


def cyclic_pullback_class(d: DivisorClass, degree: int) -> DivisorClass:
    """Pull a class a*D0 + b*F on F_e back along the degree-d cyclic cover
    F_{de} -> F_e branched over two fibers, giving a*D0 + d*b*F on F_{de}.

    The formula assumes the class has no branch fiber among its components;
    that is the caller's responsibility (the branch fibers themselves pull
    back with multiplicity d).
    """
    if degree <= 0:
        raise ValueError(f"cover degree must be positive, got {degree}")
    if d.surface.kind != RULED:
        raise ValueError("cyclic pullback is defined for classes on a ruled surface")
    a, b = d.coeffs
    return hirzebruch(degree * d.surface.e).divisor(a, degree * b)


def canonical_ample_check(data: CoverData) -> bool:
    """Whether the class pulling back to (a multiple of) the cover's canonical
    class is ample on the base: K + L for a double cover, 2K + B1 + B2 + B3
    for a bidouble cover."""
    k = canonical_class(data.base)
    if isinstance(data, DoubleCoverData):
        return is_ample(k + data.L)
    return is_ample(2 * k + data.B1 + data.B2 + data.B3)
