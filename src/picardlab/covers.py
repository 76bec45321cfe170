"""Numerical invariants of double and bidouble covers of rational surfaces.

A double cover is determined by building data {L, B} with B = 2L; a
bidouble cover by {L1, L2, L3, B1, B2, B3} subject to 2L1 = B2 + B3,
2L2 = B1 + B3 and L3 = L1 + L2 - B3.  Validation reports violations as
data; the invariant formulas refuse inconsistent input.  The module also
transports divisor classes along the degree-d cyclic cover F_{de} -> F_e
branched over two fibers.

The formulas are ring functions of coefficient tuples and e (the layer of
surfaces), on ints and Poly parameters alike; the functions of records call
them.  The base is rational: chi(O) = 1 and p_g = q = 0.

The invariant formulas stay valid when the cover acquires ADE
singularities, which is exactly how they are used by the construction
pipelines.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Union

from .surfaces import (
    RULED, DivisorClass, ample, canonical, compose, half, hirzebruch, pairing, plus, sections,
)


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


def pullback(u: tuple, degree) -> tuple:
    """a*D0 + b*F on F_e pulled back along the degree-d cyclic cover
    F_{de} -> F_e branched over two fibers: a*D0 + d*b*F."""
    return u[0], degree * u[1]


def formulas(e, Ls: tuple, Bs: tuple) -> tuple:
    """(K2, chi, pairing, A) of the double cover with data (L,), (B,) or the
    bidouble cover with data Ls, Bs.  A, K + L or 2K + B1 + B2 + B3, pulls
    back to K or 2K of the cover, so K2 = 2A^2 or A^2.  chi = 2 or 4 plus
    half the pairing, the sum of L_i(L_i+K): an integer only when the
    pairing is even."""
    k = canonical(e, len(Ls[0]))
    double = len(Ls) == 1
    a = plus(k, Ls[0]) if double else compose((2, 1, 1, 1), (k, *Bs))
    pair = sum([pairing(e, L, plus(L, k)) for L in Ls])
    return (1 + double) * pairing(e, a, a), len(Ls) + 1 + half(pair), pair, a


def validate(data: CoverData) -> list[str]:
    """validate_bidouble or validate_double, by the kind of data."""
    return validate_bidouble(data) if isinstance(data, BidoubleCoverData) else validate_double(data)


def validate_double(data: DoubleCoverData) -> list[str]:
    """List every violated double-cover condition; an empty list means valid."""
    problems = _off_base(data)
    if problems:
        return problems
    if any(compose((1, -2), (data.B.coeffs, data.L.coeffs))):
        problems.append(f"B = {data.B} is not twice L = {data.L}")
    if not any(data.L.coeffs):
        problems.append("L is the trivial class")
    return problems


def validate_bidouble(data: BidoubleCoverData) -> list[str]:
    """List every violated bidouble-cover condition; an empty list means valid.

    The B_i are allowed to be zero classes; only a trivial L_i is fatal.
    """
    problems = _off_base(data)
    if problems:
        return problems
    L1, L2, L3, B1, B2, B3 = (div.coeffs for div in data[1:])
    if any(compose((2, -1, -1), (L1, B2, B3))):
        problems.append(f"2*L1 = {2 * data.L1} differs from B2 + B3 = {data.B2 + data.B3}")
    if any(compose((2, -1, -1), (L2, B1, B3))):
        problems.append(f"2*L2 = {2 * data.L2} differs from B1 + B3 = {data.B1 + data.B3}")
    if any(compose((1, -1, -1, 1), (L3, L1, L2, B3))):
        problems.append(
            f"L3 = {data.L3} differs from L1 + L2 - B3 = {data.L1 + data.L2 - data.B3}"
        )
    return problems + [f"L{i} is the trivial class" for i, L in enumerate((L1, L2, L3), 1)
                       if not any(L)]


def _off_base(data: CoverData) -> list[str]:
    return [f"{name} does not live on the base surface {data.base}"
            for name, div in zip(data._fields[1:], data[1:]) if div.surface != data.base]


def _invariants(data: CoverData, problems: list[str], pairing_name: str) -> SurfaceInvariants:
    """The invariants of valid data from formulas' K2, chi and pairing and
    p_g, the sum of h0(K + L) over the Ls; q is derived, never assumed."""
    if problems:
        raise CoverDataError("; ".join(problems))
    e, Ls, Bs = _formula_args(data)
    K2, chi, pair, _ = formulas(e, Ls, Bs)
    if pair % 2:
        raise CoverDataError(f"{pairing_name} = {pair} is odd, chi would not be an integer")
    k = canonical(e, data.base.rank)
    p_g = sum([sections(e, plus(k, L)) for L in Ls])
    q = 1 + p_g - chi  # negative for bad building data
    if q < 0:
        raise CoverDataError(f"derived irregularity q = {q} is negative")
    return SurfaceInvariants(K2=K2, chi=chi, p_g=p_g, q=q, h11=10 * chi - K2 - 2 * q)


def _formula_args(data: CoverData) -> tuple:
    """The record's e, L coefficients and B coefficients, formulas' arguments."""
    coeffs = [div.coeffs for div in data[1:]]
    return data.base.e, coeffs[:len(coeffs) // 2], coeffs[len(coeffs) // 2:]


def double_invariants(data: DoubleCoverData) -> SurfaceInvariants:
    """Invariants of the double cover (formulas)."""
    return _invariants(data, validate_double(data), "L(L+K)")


def bidouble_invariants(data: BidoubleCoverData) -> SurfaceInvariants:
    """Invariants of the bidouble cover (formulas)."""
    return _invariants(data, validate_bidouble(data), "sum of L_i(L_i+K)")


def cyclic_pullback_class(d: DivisorClass, degree: int) -> DivisorClass:
    """The class on F_{de} that a class on F_e pulls back to (pullback).

    The formula assumes the class has no branch fiber among its components;
    that is the caller's responsibility (the branch fibers themselves pull
    back with multiplicity d).
    """
    if degree <= 0:
        raise ValueError(f"cover degree must be positive, got {degree}")
    if d.surface.kind != RULED:
        raise ValueError("cyclic pullback is defined for classes on a ruled surface")
    return hirzebruch(degree * d.surface.e).divisor(*pullback(d.coeffs, degree))


def canonical_ample_check(data: CoverData) -> bool:
    """Whether formulas' A, the class pulling back to (a multiple of) the
    cover's canonical class, is ample on the base."""
    e, Ls, Bs = _formula_args(data)
    return ample(e, formulas(e, Ls, Bs)[3])
