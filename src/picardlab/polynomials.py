"""Exact sparse polynomial arithmetic over the rationals.

Polynomials are dictionaries from exponent tuples to int or Fraction
coefficients, never floats; Poly(), the variables, scalars and the parsers
store integral values as ints, so integer polynomials compute in plain
integers, and every division is exact.  Zero coefficients are never stored,
so identity testing is plain dictionary equality.  One type, Poly, serves
the whole package; it has a fixed number of variables:

  two    curve germs in local coordinates, the symbolic identities of the
         geography, and binary forms, the restrictions of ternary forms to
         the coordinate lines,
  three  projective plane curves, which are homogeneous ternary forms,
  2k+1   curves.seed_proof's polynomials in (x_i, X_i, n), i < k, X_i for x_i^n.

Poly.localize projects a form's exponents into a chart, with no arithmetic,
then moves the point to the origin by an integer Taylor shift.  substitute,
f(gx, gy), changes germ coordinates and is the shift's test reference.
domain_variables shifts parameters onto their domains, where
Poly.multiple_of and Poly.nonnegative read parity and sign off the
coefficients.

All values are immutable by convention: no method mutates its receiver.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from operator import add
from typing import Iterator, Mapping, Optional, Union

Scalar = Union[int, Fraction]


def _int_text(value: int) -> str:
    """An integer for an error message: str() refuses ints of more than
    4,300 digits, so above 2^2048 only the bound is shown."""
    return str(value) if value.bit_length() <= 2048 else "above 2^2048"


def _fraction_text(value: Fraction) -> str:
    """A rational for an error message, exact where str() can print it; a
    numerator or denominator past str()'s digit limit is named by its
    number of digits."""
    parts = (value.numerator,) if value.denominator == 1 else (value.numerator, value.denominator)
    return "/".join(map(_digits_text, parts))


def _digits_text(value: int) -> str:
    try:
        return str(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        digits = int(math.log10(abs(value))) + 1
        digits += (abs(value) >= 10**digits) - (abs(value) < 10 ** (digits - 1))
        return f"{'-' * (value < 0)}<{digits} digits>"


def _integral(value: Scalar) -> Scalar:
    """An int or Fraction coefficient as an int where it is integral."""
    return value.numerator if value.denominator == 1 else value


# ---------------------------------------------------------------------------
# Raw dict arithmetic.  Every result is clean: no zero coefficient is stored.


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        if e not in out:
            out[e] = c
        elif s := out[e] + c:
            out[e] = s
        else:
            del out[e]
    return out


def _scale(a: dict, k: Scalar) -> dict:
    if not k:
        return {}
    return {e: c * k for e, c in a.items()}


def _mul(a: dict, b: dict, trunc: Optional[int] = None) -> dict:
    # trunc, when given, drops every product term of total degree >= trunc.
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            if trunc is not None and sum(e) >= trunc:
                continue
            if e not in out:
                out[e] = ca * cb
            elif s := out[e] + ca * cb:
                out[e] = s
            else:
                del out[e]
    return out


# ---------------------------------------------------------------------------
# Sparse polynomials.


# The degree cap bounds localize's Taylor shift, O(d^3) integer additions at
# degree d; the product cap, the sum of (e0 + 1)*(e1 + 1) over the terms with
# exponents e0, e1 in the local variables, keeps the germ handed to the
# classifier small.  A dense form of degree 33 counts 66,045.
MAX_LOCALIZE_DEGREE = 128
MAX_LOCALIZE_PRODUCTS = 100_000


class PointOffCurveError(ValueError):
    """The point handed to localize does not lie on the zero locus."""


class Poly:
    """Sparse polynomial with exact rational coefficients in nvars variables.

    Germs, symbolic identities and binary forms use two variables, plane
    curves three, the seed proof five or seven; partial, restrict,
    exponents_divisible_by and localize are the methods for ternary forms,
    distinct_projective_roots the one for binary forms.
    """

    __slots__ = ("coeffs", "nvars")

    def __init__(self, coeffs: Optional[Mapping[tuple[int, ...], Scalar]] = None, nvars: int = 2):
        cleaned: dict[tuple[int, ...], Scalar] = {}
        for e, c in (coeffs or {}).items():
            if len(e) != nvars:
                raise ValueError(f"exponent {e} does not have {nvars} entries")
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e}")
            frac = Fraction(c)
            if frac:
                cleaned[tuple(int(x) for x in e)] = _integral(frac)
        self.coeffs = cleaned
        self.nvars = nvars

    @classmethod
    def _wrap(cls, coeffs: dict, nvars: int) -> "Poly":
        # For the clean dicts of the raw arithmetic: no checks repeated.
        p = object.__new__(cls)
        p.coeffs = coeffs
        p.nvars = nvars
        return p

    @staticmethod
    def variable(index: int, nvars: int = 2) -> "Poly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        e = [0] * nvars
        e[index] = 1
        return Poly._wrap({tuple(e): 1}, nvars)

    def coefficient(self, e: tuple[int, ...]) -> Scalar:
        return self.coeffs.get(e, 0)

    @property
    def constant_term(self) -> Scalar:
        return self.coefficient((0,) * self.nvars)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == ({(0,) * self.nvars: other} if other else {})
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def _coerce(self, other: object) -> Optional["Poly"]:
        if isinstance(other, (int, Fraction)):
            return Poly._wrap({(0,) * self.nvars: _integral(other)} if other else {}, self.nvars)
        if not isinstance(other, Poly):
            return None
        if other.nvars != self.nvars:
            raise ValueError(f"cannot combine polynomials in {self.nvars} and {other.nvars} variables")
        return other

    def __add__(self, other: Union["Poly", Scalar]) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Poly._wrap(_add(self.coeffs, other.coeffs), self.nvars)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._wrap({e: -c for e, c in self.coeffs.items()}, self.nvars)

    def __sub__(self, other: Union["Poly", Scalar]) -> "Poly":
        return self + -other

    def __rsub__(self, other: Scalar) -> "Poly":
        return -self + other

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly._wrap(_scale(self.coeffs, other), self.nvars)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Poly._wrap(_mul(self.coeffs, other.coeffs), self.nvars)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative powers are not polynomials")
        result = Poly({(0,) * self.nvars: 1}, self.nvars)
        for _ in range(k):
            result = result * self
        return result

    def __call__(self, *point: Scalar) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError(f"expected {self.nvars} coordinates, got {len(point)}")
        pt = [Fraction(x) for x in point]
        total = Fraction(0)
        for e, c in self.coeffs.items():
            for x, k in zip(pt, e):
                if k:
                    c *= x**k
            total += c
        return total

    def order(self) -> Optional[int]:
        """Minimal total degree of a nonzero term, None for the zero polynomial."""
        if not self.coeffs:
            return None
        return min(sum(e) for e in self.coeffs)

    def degree(self) -> int:
        """Maximal total degree of a nonzero term, -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(sum(e) for e in self.coeffs)

    def homogeneous_part(self, d: int) -> "Poly":
        return Poly._wrap({e: c for e, c in self.coeffs.items() if sum(e) == d}, self.nvars)

    def truncated(self, bound: int) -> "Poly":
        """Drop every term of total degree >= bound."""
        return Poly._wrap({e: c for e, c in self.coeffs.items() if sum(e) < bound}, self.nvars)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Scalar]]:
        return sorted(self.coeffs.items(), key=lambda item: (sum(item[0]), item[0]))

    # Facts read off the coefficients, for a polynomial in the shifted
    # parameters of domain_variables.

    def multiple_of(self, d: int) -> bool:
        """Whether every coefficient is an integer multiple of d, so that the
        value at every integer point is one."""
        return all(c.denominator == 1 and c.numerator % d == 0 for c in self.coeffs.values())

    def nonnegative(self, strict: bool = False) -> bool:
        """Whether no coefficient is negative (and, if strict, the constant
        term is positive), so that the value at every point with nonnegative
        coordinates is >= 0 (> 0).  False leaves the sign undecided."""
        return all(c >= 0 for c in self.coeffs.values()) and not (strict and self.constant_term <= 0)

    def to_text(self) -> str:
        names = ("x", "y") if self.nvars == 2 else tuple(f"X{i}" for i in range(self.nvars))
        return _render_terms(self.sorted_terms(), names)

    def __repr__(self) -> str:
        return f"Poly({self.to_text()!r})"

    # -- forms ----------------------------------------------------------------

    def form_degree(self, nvars: int = 3) -> int:
        """The degree of a homogeneous form in nvars variables, ternary by
        default (0 for the zero form); ValueError for any other shape."""
        if self.nvars != nvars:
            kind = "binary" if nvars == 2 else "ternary"
            raise ValueError(f"expected a {kind} form, got a polynomial in {self.nvars} variables")
        degrees = {sum(e) for e in self.coeffs}
        if len(degrees) > 1:
            shown = ", ".join(map(_int_text, sorted(degrees)))
            raise ValueError(f"polynomial is not homogeneous: term degrees [{shown}]")
        return degrees.pop() if degrees else 0

    def partial(self, index: int) -> "Poly":
        out: dict[tuple[int, ...], Scalar] = {}
        for e, c in self.coeffs.items():
            if e[index] == 0:
                continue
            new = list(e)
            new[index] -= 1
            out[tuple(new)] = c * e[index]
        return Poly._wrap(out, self.nvars)

    def exponents_divisible_by(self, n: int) -> bool:
        """Whether every exponent of every monomial is a multiple of n."""
        return all(all(x % n == 0 for x in e) for e in self.coeffs)

    def restrict(self, zero_var: int) -> "Poly":
        """Set the given variable of a ternary form to zero, producing a
        binary form in the two remaining variables (kept in ascending index
        order)."""
        self.form_degree()
        if zero_var not in (0, 1, 2):
            raise ValueError(f"variable index {zero_var} out of range for 3 variables")
        return Poly._wrap(
            {e[:zero_var] + e[zero_var + 1 :]: c for e, c in self.coeffs.items() if not e[zero_var]},
            2,
        )

    def distinct_projective_roots(self) -> int:
        """Number of distinct roots of a binary form f(u, v) on the projective
        line, counted exactly: deg g - deg gcd(g, g') for g = f(t, 1), plus
        one when (1 : 0) is a root; no root isolation."""
        degree = self.form_degree(2)
        if not self.coeffs:
            raise ValueError("the zero form has no well-defined root count")
        g = {e[0]: c for e, c in self.coeffs.items()}
        top = max(g)
        gcd = _ugcd(g, {k - 1: k * c for k, c in g.items() if k})
        return top - max(gcd) + (top < degree)

    def localize(self, point: tuple[Scalar, Scalar, Scalar], chart: int) -> "Poly":
        """Dehomogenize a ternary form in the given chart and translate the
        point to the origin.  The two local variables are the non-chart
        coordinates in ascending index order; the result has zero constant
        term because the point is required to lie on the zero locus."""
        degree = self.form_degree()
        if chart not in (0, 1, 2):
            raise ValueError("chart must be 0, 1 or 2")
        if degree > MAX_LOCALIZE_DEGREE:
            raise ValueError(
                f"form degree {_int_text(degree)} exceeds the localization cap {MAX_LOCALIZE_DEGREE}"
            )
        r0, r1 = (i for i in range(3) if i != chart)
        products = sum((e[r0] + 1) * (e[r1] + 1) for e in self.coeffs)
        if products > MAX_LOCALIZE_PRODUCTS:
            raise ValueError(
                f"the form's localization size, the sum of (i + 1)*(j + 1) over its terms "
                f"X{r0}^i*X{r1}^j, is {products}, more than the cap {MAX_LOCALIZE_PRODUCTS}"
            )
        pt = [Fraction(c) for c in point]
        if pt[chart] == 0:
            raise ValueError(f"chart coordinate {chart} vanishes at the point")
        # Setting X_chart = 1 drops its exponent; a form has one term per
        # remaining pair, so no two terms collide.
        affine = {(e[r0], e[r1]): c for e, c in self.coeffs.items()}
        p0, p1 = pt[r0] / pt[chart], pt[r1] / pt[chart]
        # Shift in integers: with s0, s1 the denominators of p0, p1 and D that of
        # the coefficients, x^k*y^l gets B / (D * s0^(dx - k) * s1^(dy - l)).
        den = math.lcm(*(c.denominator for c in affine.values()))
        ints = {e: c.numerator * (den // c.denominator) for e, c in affine.items()}
        dx, dy = (max((e[v] for e in ints), default=0) for v in (0, 1))
        s0, s1 = p0.denominator, p1.denominator
        shifted = _shift_rows(_shift_rows(ints, p0), p1)
        # The constant term is the value at the point times a nonzero scale.
        if (0, 0) in shifted:
            raise PointOffCurveError(f"point ({', '.join(map(_fraction_text, pt))}) is not on the zero locus")
        return Poly._wrap({(k, l): _integral(Fraction(b, den * s0 ** (dx - k) * s1 ** (dy - l)))
                           for (k, l), b in shifted.items()}, 2)


# Old names of Poly, kept as plain aliases: perfbench/tracing.py patches
# HomPoly.localize, HomPoly.__mul__ and HomPoly.__rmul__ by name, and the
# acceptance tests import LocalPoly.
LocalPoly = HomPoly = Poly


def domain_variables(params) -> tuple[Poly, ...]:
    """minimum + step*P_i for the i-th parameter of params (anything with a
    minimum and a step, such as constructions.Param), P_i the i-th variable:
    a parameter ranging over minimum, minimum + step, ... is P_i >= 0, so a
    fact of Poly.multiple_of or Poly.nonnegative about a family's
    expressions in these holds on the whole domain."""
    return tuple(p.minimum + p.step * Poly.variable(i) for i, p in enumerate(params))


def at_least(x, bound) -> bool:
    """Whether x >= bound: for an int, or on the whole domain for a Poly in
    domain_variables (Poly.nonnegative; False leaves the bound undecided)."""
    x = x - bound
    return x >= 0 if isinstance(x, int) else x.nonnegative()


def substitute(f: Poly, gx: Poly, gy: Poly, trunc: Optional[int] = None) -> Poly:
    """Evaluate the bivariate f(gx, gy), optionally truncating at total
    degree >= trunc.

    Truncation is sound whenever both substituted expressions have order
    >= 1, because then no product can drop below the degree of the source
    monomial.
    """
    if not f.nvars == gx.nvars == gy.nvars == 2:
        raise ValueError(f"substitute takes 2 variables, got {f.nvars}, {gx.nvars}, {gy.nvars}")
    max_i = max((e[0] for e in f.coeffs), default=0)
    max_j = max((e[1] for e in f.coeffs), default=0)
    xpow = [{(0, 0): 1}]
    for _ in range(max_i):
        xpow.append(_mul(xpow[-1], gx.coeffs, trunc))
    ypow = [{(0, 0): 1}]
    for _ in range(max_j):
        ypow.append(_mul(ypow[-1], gy.coeffs, trunc))
    acc: dict = {}
    for (i, j), c in f.coeffs.items():
        term = _mul(xpow[i], ypow[j], trunc)
        acc = _add(acc, _scale(term, c))
    return Poly._wrap(acc, 2)


def _shift_rows(coeffs: dict, p: Fraction) -> dict:
    """Integers B, keyed (j, k) so that a second pass shifts y, with
    f(x + p, y) = sum B*x^k*y^j / s^(d - k) for integer f = sum a*x^i*y^j of
    top exponent i = d and p = r/s: each row s^d * sum a*(z/s)^i is shifted
    by r by repeated synthetic division."""
    r, s = p.as_integer_ratio()
    d = max((i for i, _ in coeffs), default=0)
    rows: dict[int, dict] = {}
    for (i, j), a in coeffs.items():
        rows.setdefault(j, {})[i] = a * s ** (d - i)
    out = {}
    for j, terms in rows.items():
        row = [terms.get(i, 0) for i in range(max(terms) + 1)]
        for i in range(len(row) - 1 if r else 0):
            acc = row[-1]
            for k in range(len(row) - 2, i - 1, -1):
                acc = row[k] = row[k] + r * acc
        out.update({(j, k): b for k, b in enumerate(row) if b})
    return out


# ---------------------------------------------------------------------------
# Sparse univariate helpers: dicts from exponents to nonzero coefficients.


def _urem(a: dict, b: dict) -> dict:
    top = max(b)
    inv = Fraction(1, b[top])
    while a and (lead := max(a)) >= top:
        shift, factor = lead - top, a[lead] * inv
        a = _add(a, {shift + k: -factor * c for k, c in b.items()})
    return a


def _ugcd(a: dict, b: dict) -> dict:
    while b:
        a, b = b, _urem(a, b)
    return a


# ---------------------------------------------------------------------------
# Plain-text polynomial grammar: sum of terms c*x^i*y^j (local) or
# c*X0^i*X1^j*X2^k (homogeneous), rational c written as p/q.


class PolyParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position})")
        self.position = position


# One token per match: an ASCII number, since int() rejects some of what
# str.isdigit() accepts; a name, alphanumeric as str.isalnum() is; an
# operator; or any other character.  Whitespace, exactly str.isspace() and so
# the complement of \S, matches no alternative, and finditer skips it.  The
# name class admits a start such as '²' that is not str.isalpha(), so _tokens
# checks the start.  re compiles it on first use, so only a command that
# parses pays for it.
_TOKEN = r"([0-9]+)|([^\W\d_][^\W_]*)|([-+*/^])|(\S)"
_KINDS = (None, "NUM", "NAME", "OP", None)


def _tokens(text: str) -> Iterator[tuple[str, str, int]]:
    # int() refuses longer literals with a message of its own; Python before
    # 3.10.7 has no limit (0 means none too).
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for match in re.finditer(_TOKEN, text):
        kind, value, col = _KINDS[match.lastindex], match.group(), match.start() + 1
        if kind == "NUM" and limit and len(value) > limit:
            raise PolyParseError(f"number of {len(value)} digits exceeds the limit of {limit}", col)
        if kind is None or kind == "NAME" and not value[0].isalpha():
            raise PolyParseError(f"unexpected character {value[0]!r}", col)
        yield kind, value, col
    yield "END", "", len(text) + 1


def _operand(token: tuple[str, str, int]) -> int:
    """The number that must follow a '/' or a '^'."""
    if token[0] != "NUM":
        raise PolyParseError(f"expected NUM, found {token[1] or 'end of input'!r}", token[2])
    return int(token[1])


def _parse_terms(text: str, variables: dict[str, int], nvars: int) -> dict[tuple[int, ...], Scalar]:
    """The text's terms as exponents to nonzero coefficients, summed as ints
    where no p/q made a Fraction.  One pass reads the tokens as they are
    matched, with one token of lookahead and no token list; after a grammar
    error it reads the rest of the text, so a token error anywhere in it is
    the one reported."""
    tokens = _tokens(text)
    result: dict[tuple[int, ...], Scalar] = {}
    try:
        kind, value, col = next(tokens)
        while True:
            # A term: its sign, optional before the first term, then factors
            # joined by '*'.
            coeff: Scalar = -1 if value == "-" else 1
            if value in ("+", "-"):
                kind, value, col = next(tokens)
            expo = [0] * nvars
            while True:
                if kind == "NUM":
                    coeff *= int(value)
                    kind, value, col = next(tokens)
                    if value == "/":
                        token = next(tokens)
                        den = _operand(token)
                        if not den:
                            raise PolyParseError("zero denominator", token[2])
                        coeff = Fraction(coeff, den)
                        kind, value, col = next(tokens)
                elif kind == "NAME":
                    if value not in variables:
                        allowed = ", ".join(sorted(variables))
                        raise PolyParseError(f"unknown variable {value!r} (allowed: {allowed})", col)
                    index = variables[value]
                    kind, value, col = next(tokens)
                    power = 1
                    if value == "^":
                        power = _operand(next(tokens))
                        kind, value, col = next(tokens)
                    expo[index] += power
                else:
                    raise PolyParseError(
                        f"expected a coefficient or a variable, found {value or 'end of input'!r}", col
                    )
                if value != "*":
                    break
                kind, value, col = next(tokens)
            key = tuple(expo)
            result[key] = result.get(key, 0) + coeff
            if kind == "END":
                return {key: _integral(c) for key, c in result.items() if c}
            if value not in ("+", "-"):
                raise PolyParseError(f"expected '+' or '-', found {value!r}", col)
    except PolyParseError:
        for _ in tokens:  # a token error in the rest of the text wins
            pass
        raise


def parse_local_poly(text: str) -> Poly:
    """Parse a bivariate polynomial in the variables x and y."""
    return Poly._wrap(_parse_terms(text, {"x": 0, "y": 1}, 2), 2)


def parse_ternary_form(text: str) -> Poly:
    """Parse a homogeneous polynomial in the variables X0, X1, X2."""
    form = Poly._wrap(_parse_terms(text, {"X0": 0, "X1": 1, "X2": 2}, 3), 3)
    try:
        form.form_degree()
    except ValueError as exc:
        raise PolyParseError(str(exc), 1) from None
    return form


def _render_terms(terms, names) -> str:
    if not terms:
        return "0"
    parts: list[str] = []
    for expo, coeff in terms:
        factors = []
        for name, e in zip(names, expo):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        body = "*".join(factors)
        if not factors:
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        parts.append(("- " if coeff < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]
