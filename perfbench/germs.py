"""Seeded plane-curve germs with a planted A_k point, built without picardlab.

A form is made in three steps, all in exact integer/rational arithmetic on
plain dictionaries from exponent tuples to coefficients:

1. plant the local germ f(x, y) = (y + a(x))^2 - x^(k+1) + H(x, y), where
   a(x) has order 1 and every monomial of H has total degree >= k+2.  Such
   monomials lie strictly above the Newton diagram of y^2 - x^(k+1), so f
   is semi-quasihomogeneous and its type at the origin is exactly A_k;
2. apply an invertible integer linear change (x, y) -> L(x, y), which keeps
   the type;
3. translate the origin to the affine point (p0, p1) of the chart X2 = 1 and
   homogenize, clearing denominators so that the form has integer
   coefficients.

k, the degree and the term count of H are fixed per slot, and every random
choice is a sign or a position, drawn from sets whose members have the same
magnitude.  That keeps the coefficient heights, and hence picardlab's
classification cost, steady across seeds: unbounded entries let one seed cost
ten times another of the same size, and the cost grows with k.  The slots'
distinct k values keep the oracle from accepting one answer for every form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

# Linux caps one argv string at 32 pages.
MAX_ARG_BYTES = 128 * 1024

# One slot per form: (k, degree of the form, terms of H).
SLOTS = ((12, 18, 6), (17, 23, 6), (22, 28, 6), (27, 33, 6))


@dataclass(frozen=True)
class Germ:
    """One generated input: the form text, its point and the planted type."""

    k: int
    degree: int
    terms: int
    form: str
    point: str

    @property
    def expected(self) -> str:
        return f"A{self.k}"


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _powers(p: dict, top: int) -> list[dict]:
    out = [{(0, 0): 1}]
    for _ in range(top):
        out.append(_mul(out[-1], p))
    return out


def _compose(f: dict, gx: dict, gy: dict) -> dict:
    """f(gx, gy) for bivariate polynomials."""
    xp = _powers(gx, max(e[0] for e in f))
    yp = _powers(gy, max(e[1] for e in f))
    out: dict = {}
    for (i, j), c in f.items():
        out = _add(out, {e: c * v for e, v in _mul(xp[i], yp[j]).items()})
    return out


def _planted(k: int, degree: int, n_terms: int, rng: random.Random) -> dict:
    """(y + a(x))^2 - x^(k+1) + H with H of total degree in [k+2, degree]."""
    a = {(1, 0): rng.choice((-1, 1)), (2, 0): rng.choice((-1, 1))}
    y_plus_a = _add({(0, 1): 1}, a)
    f = _add(_mul(y_plus_a, y_plus_a), {(k + 1, 0): -1})
    # The pure-x top-degree term is always present, so every seed of a slot
    # has the same degree.
    chosen = {(degree, 0)}
    while len(chosen) < n_terms:
        d = rng.randint(k + 2, degree)
        i = rng.randrange(d + 1)
        chosen.add((i, d - i))
    h = {e: rng.choice((-1, 1)) for e in sorted(chosen)}
    return _add(f, h)


def _linear_change(rng: random.Random) -> tuple[dict, dict]:
    # Entries of one magnitude keep the coefficient heights of every seed alike.
    while True:
        a, b, c, d = (rng.choice((-1, 1)) for _ in range(4))
        if a * d - b * c:
            return {(1, 0): a, (0, 1): b}, {(1, 0): c, (0, 1): d}


def _render(form: dict) -> str:
    parts = []
    for e, c in sorted(form.items(), reverse=True):
        mono = "*".join(f"X{v}^{p}" if p > 1 else f"X{v}" for v, p in enumerate(e) if p)
        body = f"{abs(c)}*{mono}" if mono else str(abs(c))
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _homogenize(g: dict, p0: Fraction, p1: Fraction) -> tuple[dict, int]:
    """X2^d * g(X0/X2 - p0, X1/X2 - p1) scaled to integer coefficients."""
    d = max(sum(e) for e in g)
    den = lcm(p0.denominator, p1.denominator)
    # Substitute x = (den*X0 - den*p0*X2) / den, likewise y, and multiply by den^d.
    out: dict = {}
    for (i, j), c in g.items():
        rest = d - i - j
        for s in range(i + 1):
            cx = comb(i, s) * (-p0 * den) ** (i - s) * den ** s
            for t in range(j + 1):
                cy = comb(j, t) * (-p1 * den) ** (j - t) * den ** t
                e = (s, t, i - s + j - t + rest)
                out[e] = out.get(e, 0) + c * cx * cy * den ** rest
    out = {e: c for e, c in out.items() if c}
    assert all(isinstance(c, int) or c.denominator == 1 for c in out.values())
    return {e: int(c) for e, c in out.items()}, d


def make_germ(slot: int, rng: random.Random) -> Germ:
    k, degree, n_terms = SLOTS[slot]
    f = _planted(k, degree, n_terms, rng)
    gx, gy = _linear_change(rng)
    g = _compose(f, gx, gy)
    p0, p1 = (Fraction(rng.choice((-1, 1)) * num, 3) for num in rng.sample((1, 2), 2))
    form, degree = _homogenize(g, p0, p1)
    text = _render(form)
    if len(text.encode()) >= MAX_ARG_BYTES:
        raise ValueError(f"form for slot {slot} is {len(text)} bytes, over the argv limit")
    return Germ(k=k, degree=degree, terms=len(form), form=text, point=f"{p0},{p1},1")


def make_germs(seed: int) -> list[Germ]:
    rng = random.Random(seed)
    return [make_germ(slot, rng) for slot in range(len(SLOTS))]
