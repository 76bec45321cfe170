"""Exact sparse polynomial arithmetic over the rationals.

Polynomials are dictionaries from exponent tuples to Fraction coefficients;
zero coefficients are never stored, so identity testing is plain dictionary
equality.  Three shapes are used throughout the package:

  LocalPoly    bivariate polynomial in local coordinates, the working shape
               for curve germs at a point,
  HomPoly      homogeneous ternary form, the working shape for projective
               plane curves,
  BinaryForm   homogeneous binary form, the restriction of a ternary form
               to a coordinate line.

All values are immutable by convention: no method mutates its receiver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

Rat = Fraction
Scalar = Union[int, Fraction]

# ---------------------------------------------------------------------------
# Raw dict arithmetic (shared by LocalPoly and HomPoly).


def _clean(coeffs: dict) -> dict:
    return {e: c for e, c in coeffs.items() if c}


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _scale(a: dict, k: Rat) -> dict:
    if not k:
        return {}
    return {e: c * k for e, c in a.items()}


def _mul(a: dict, b: dict, trunc: Optional[int] = None) -> dict:
    # trunc, when given, drops every product term of total degree >= trunc.
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if trunc is not None and sum(e) >= trunc:
                continue
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


# ---------------------------------------------------------------------------
# Bivariate local polynomials.


class LocalPoly:
    """Bivariate polynomial in local coordinates with exact rational
    coefficients, the shape used for curve germs centered at a point."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[Mapping[tuple[int, int], Scalar]] = None):
        cleaned: dict[tuple[int, int], Rat] = {}
        for e, c in (coeffs or {}).items():
            i, j = e
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in {e}")
            frac = Fraction(c)
            if frac:
                cleaned[(int(i), int(j))] = frac
        self.coeffs = cleaned

    @staticmethod
    def variable(index: int) -> "LocalPoly":
        if index not in (0, 1):
            raise ValueError("local polynomials have two variables")
        return LocalPoly({(1, 0) if index == 0 else (0, 1): 1})

    @staticmethod
    def constant(c: Scalar) -> "LocalPoly":
        return LocalPoly({(0, 0): c})

    def coefficient(self, e: tuple[int, int]) -> Rat:
        return self.coeffs.get(e, Fraction(0))

    @property
    def constant_term(self) -> Rat:
        return self.coefficient((0, 0))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LocalPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == _clean({(0, 0): Fraction(other)})
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: Union["LocalPoly", Scalar]) -> "LocalPoly":
        if isinstance(other, (int, Fraction)):
            other = LocalPoly.constant(other)
        if not isinstance(other, LocalPoly):
            return NotImplemented
        return LocalPoly(_add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self) -> "LocalPoly":
        return LocalPoly(_scale(self.coeffs, Fraction(-1)))

    def __sub__(self, other: Union["LocalPoly", Scalar]) -> "LocalPoly":
        if isinstance(other, (int, Fraction)):
            other = LocalPoly.constant(other)
        if not isinstance(other, LocalPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "LocalPoly":
        return LocalPoly.constant(other) + (-self)

    def __mul__(self, other: Union["LocalPoly", Scalar]) -> "LocalPoly":
        if isinstance(other, (int, Fraction)):
            return LocalPoly(_scale(self.coeffs, Fraction(other)))
        if not isinstance(other, LocalPoly):
            return NotImplemented
        return LocalPoly(_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LocalPoly":
        if k < 0:
            raise ValueError("negative powers are not polynomials")
        result = LocalPoly.constant(1)
        for _ in range(k):
            result = result * self
        return result

    def __call__(self, x: Scalar, y: Scalar) -> Rat:
        x, y = Fraction(x), Fraction(y)
        total = Fraction(0)
        for (i, j), c in self.coeffs.items():
            total += c * x**i * y**j
        return total

    def order(self) -> Optional[int]:
        """Minimal total degree of a nonzero term, None for the zero polynomial."""
        if not self.coeffs:
            return None
        return min(i + j for i, j in self.coeffs)

    def degree(self) -> int:
        if not self.coeffs:
            return -1
        return max(i + j for i, j in self.coeffs)

    def homogeneous_part(self, d: int) -> "LocalPoly":
        return LocalPoly({e: c for e, c in self.coeffs.items() if sum(e) == d})

    def truncated(self, bound: int) -> "LocalPoly":
        """Drop every term of total degree >= bound."""
        return LocalPoly({e: c for e, c in self.coeffs.items() if sum(e) < bound})

    def sorted_terms(self) -> list[tuple[tuple[int, int], Rat]]:
        return sorted(self.coeffs.items(), key=lambda item: (sum(item[0]), item[0]))

    def to_text(self, names: tuple[str, str] = ("x", "y")) -> str:
        return _render_terms(self.sorted_terms(), names)

    def __repr__(self) -> str:
        return f"LocalPoly({self.to_text()!r})"


def substitute(
    f: LocalPoly, gx: LocalPoly, gy: LocalPoly, trunc: Optional[int] = None
) -> LocalPoly:
    """Evaluate f(gx, gy), optionally truncating at total degree >= trunc.

    Truncation is sound whenever both substituted expressions have order
    >= 1, because then no product can drop below the degree of the source
    monomial.
    """
    max_i = max((e[0] for e in f.coeffs), default=0)
    max_j = max((e[1] for e in f.coeffs), default=0)
    xpow = [{(0, 0): Fraction(1)}]
    for _ in range(max_i):
        xpow.append(_mul(xpow[-1], gx.coeffs, trunc))
    ypow = [{(0, 0): Fraction(1)}]
    for _ in range(max_j):
        ypow.append(_mul(ypow[-1], gy.coeffs, trunc))
    acc: dict = {}
    for (i, j), c in f.coeffs.items():
        term = _mul(xpow[i], ypow[j], trunc)
        acc = _add(acc, _scale(term, c))
    return LocalPoly(acc)


# ---------------------------------------------------------------------------
# Homogeneous ternary forms.


# localize expands every term binomially, (e0 + 1)*(e1 + 1) products for a
# term with exponents e0, e1 in the two local variables, so it refuses forms
# above this degree and forms whose terms need more products in total.  A
# dense form of degree 33 needs 66,045 products.
MAX_LOCALIZE_DEGREE = 128
MAX_LOCALIZE_PRODUCTS = 100_000


class PointOffCurveError(ValueError):
    """The point handed to localize does not lie on the zero locus."""


class HomPoly:
    """Homogeneous ternary form with exact rational coefficients."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Mapping[tuple[int, int, int], Scalar]):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        cleaned: dict[tuple[int, int, int], Rat] = {}
        for e, c in coeffs.items():
            i, j, k = e
            if min(i, j, k) < 0:
                raise ValueError(f"negative exponent in {e}")
            if i + j + k != degree:
                raise ValueError(f"exponent triple {e} does not sum to the degree {degree}")
            frac = Fraction(c)
            if frac:
                cleaned[(int(i), int(j), int(k))] = frac
        self.degree = degree
        self.coeffs = cleaned

    @staticmethod
    def variable(index: int) -> "HomPoly":
        e = [0, 0, 0]
        e[index] = 1
        return HomPoly(1, {tuple(e): 1})

    def coefficient(self, e: tuple[int, int, int]) -> Rat:
        return self.coeffs.get(e, Fraction(0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomPoly):
            return NotImplemented
        # Zero forms of different declared degrees count as equal.
        if not self.coeffs and not other.coeffs:
            return True
        return self.degree == other.degree and self.coeffs == other.coeffs

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "HomPoly") -> "HomPoly":
        if not isinstance(other, HomPoly):
            return NotImplemented
        if self.coeffs and other.coeffs and self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        degree = self.degree if self.coeffs else other.degree
        return HomPoly(degree, _add(self.coeffs, other.coeffs))

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        return self + (-1) * other

    def __mul__(self, other: Union["HomPoly", Scalar]) -> "HomPoly":
        if isinstance(other, (int, Fraction)):
            return HomPoly(self.degree, _scale(self.coeffs, Fraction(other)))
        if not isinstance(other, HomPoly):
            return NotImplemented
        return HomPoly(self.degree + other.degree, _mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "HomPoly":
        if k < 0:
            raise ValueError("negative powers are not polynomials")
        result = HomPoly(0, {(0, 0, 0): 1})
        for _ in range(k):
            result = result * self
        return result

    def __call__(self, x0: Scalar, x1: Scalar, x2: Scalar) -> Rat:
        pt = (Fraction(x0), Fraction(x1), Fraction(x2))
        total = Fraction(0)
        for (i, j, k), c in self.coeffs.items():
            total += c * pt[0] ** i * pt[1] ** j * pt[2] ** k
        return total

    def partial(self, index: int) -> "HomPoly":
        out: dict[tuple[int, int, int], Rat] = {}
        for e, c in self.coeffs.items():
            if e[index] == 0:
                continue
            new = list(e)
            new[index] -= 1
            out[tuple(new)] = c * e[index]
        return HomPoly(max(self.degree - 1, 0), out)

    def exponents_divisible_by(self, n: int) -> bool:
        """Whether every exponent of every monomial is a multiple of n."""
        return all(all(x % n == 0 for x in e) for e in self.coeffs)

    def restrict(self, zero_var: int) -> "BinaryForm":
        """Set the given variable to zero, producing a binary form in the two
        remaining variables (kept in ascending index order)."""
        remaining = [i for i in range(3) if i != zero_var]
        out: dict[int, Rat] = {}
        for e, c in self.coeffs.items():
            if e[zero_var]:
                continue
            out[e[remaining[0]]] = out.get(e[remaining[0]], Fraction(0)) + c
        return BinaryForm.from_dict(self.degree, out)

    def localize(
        self, point: tuple[Scalar, Scalar, Scalar], chart: int
    ) -> LocalPoly:
        """Dehomogenize in the given chart and translate the point to the
        origin.  The two local variables are the non-chart coordinates in
        ascending index order; the result has zero constant term because the
        point is required to lie on the zero locus."""
        if chart not in (0, 1, 2):
            raise ValueError("chart must be 0, 1 or 2")
        if self.degree > MAX_LOCALIZE_DEGREE:
            raise ValueError(
                f"form degree {self.degree} exceeds the localization cap {MAX_LOCALIZE_DEGREE}"
            )
        remaining = [i for i in range(3) if i != chart]
        products = sum((e[remaining[0]] + 1) * (e[remaining[1]] + 1) for e in self.coeffs)
        if products > MAX_LOCALIZE_PRODUCTS:
            raise ValueError(
                f"localizing the form takes {products} binomial products, "
                f"more than the cap {MAX_LOCALIZE_PRODUCTS}"
            )
        pt = [Fraction(c) for c in point]
        if pt[chart] == 0:
            raise ValueError(f"chart coordinate {chart} vanishes at the point")
        pt = [c / pt[chart] for c in pt]
        if self(*pt) != 0:
            raise PointOffCurveError(f"point {tuple(point)} is not on the zero locus")
        acc: dict[tuple[int, int], Rat] = {}
        for e, c in self.coeffs.items():
            # (p + v)^e expanded binomially for each of the two local variables.
            e0, e1 = e[remaining[0]], e[remaining[1]]
            p0, p1 = pt[remaining[0]], pt[remaining[1]]
            for s0 in range(e0 + 1):
                c0 = math.comb(e0, s0) * p0 ** (e0 - s0)
                if not c0:
                    continue
                for s1 in range(e1 + 1):
                    c1 = math.comb(e1, s1) * p1 ** (e1 - s1)
                    if not c1:
                        continue
                    key = (s0, s1)
                    val = acc.get(key, Fraction(0)) + c * c0 * c1
                    acc[key] = val
        local = LocalPoly(acc)
        assert local.constant_term == 0
        return local

    def sorted_terms(self) -> list[tuple[tuple[int, int, int], Rat]]:
        return sorted(self.coeffs.items())

    def to_text(self) -> str:
        return _render_terms(self.sorted_terms(), ("X0", "X1", "X2"))

    def __repr__(self) -> str:
        return f"HomPoly(degree={self.degree}, {self.to_text()!r})"


# ---------------------------------------------------------------------------
# Binary forms and exact univariate helpers.


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous binary form in (u, v); coeffs[i] is the coefficient of
    u^i * v^(degree - i)."""

    degree: int
    coeffs: tuple[Rat, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("a degree-d binary form carries d + 1 coefficients")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    @staticmethod
    def from_dict(degree: int, coeffs: Mapping[int, Scalar]) -> "BinaryForm":
        row = [Fraction(0)] * (degree + 1)
        for i, c in coeffs.items():
            row[i] = Fraction(c)
        return BinaryForm(degree, tuple(row))

    def __mul__(self, other: "BinaryForm") -> "BinaryForm":
        out = [Fraction(0)] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return BinaryForm(self.degree + other.degree, tuple(out))

    def dehomogenized(self) -> tuple[Rat, ...]:
        """The univariate polynomial f(t, 1), coefficients by ascending degree."""
        return _utrim(self.coeffs)

    def distinct_projective_roots(self) -> int:
        """Number of distinct roots on the projective line, counted exactly via
        the square-free part (gcd with the derivative); no root isolation."""
        g = self.dehomogenized()
        if not g:
            raise ValueError("the zero form has no well-defined root count")
        count = _udeg(_usquarefree(g))
        if _udeg(g) < self.degree:  # (1 : 0) is a root
            count += 1
        return count

    def to_text(self, names: tuple[str, str] = ("u", "v")) -> str:
        terms = [
            ((i, self.degree - i), c)
            for i, c in enumerate(self.coeffs)
            if c
        ]
        return _render_terms(terms, names)


def _utrim(p: Iterable[Rat]) -> tuple[Rat, ...]:
    row = list(p)
    while row and not row[-1]:
        row.pop()
    return tuple(row)


def _udeg(p: tuple[Rat, ...]) -> int:
    return len(p) - 1


def _uderiv(p: tuple[Rat, ...]) -> tuple[Rat, ...]:
    return _utrim(i * c for i, c in enumerate(p) if i)


def _udivmod(a: tuple[Rat, ...], b: tuple[Rat, ...]) -> tuple[tuple[Rat, ...], tuple[Rat, ...]]:
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    rem = list(a)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv = 1 / b[-1]
    for shift in range(len(rem) - len(b), -1, -1):
        factor = rem[shift + len(b) - 1] * inv
        if factor:
            quot[shift] = factor
            for i, c in enumerate(b):
                rem[shift + i] -= factor * c
    return _utrim(quot), _utrim(rem)


def _ugcd(a: tuple[Rat, ...], b: tuple[Rat, ...]) -> tuple[Rat, ...]:
    a, b = _utrim(a), _utrim(b)
    while b:
        a, b = b, _udivmod(a, b)[1]
    if a:
        a = tuple(c / a[-1] for c in a)  # monic
    return a


def _usquarefree(p: tuple[Rat, ...]) -> tuple[Rat, ...]:
    p = _utrim(p)
    if _udeg(p) <= 0:
        return p
    quot, rem = _udivmod(p, _ugcd(p, _uderiv(p)))
    assert not rem
    return quot


# ---------------------------------------------------------------------------
# Plain-text polynomial grammar: sum of terms c*x^i*y^j (local) or
# c*X0^i*X1^j*X2^k (homogeneous), rational c written as p/q.


class PolyParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position})")
        self.position = position


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^":
            tokens.append(("OP", ch, i + 1))
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < len(text) and text[i].isdigit():
                i += 1
            tokens.append(("NUM", text[start:i], start + 1))
            continue
        if ch.isalpha():
            start = i
            i += 1
            while i < len(text) and text[i].isalnum():
                i += 1
            tokens.append(("NAME", text[start:i], start + 1))
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i + 1)
    tokens.append(("END", "", len(text) + 1))
    return tokens


def _parse_terms(text: str, variables: dict[str, int], nvars: int) -> dict[tuple[int, ...], Rat]:
    tokens = _tokenize(text)
    pos = 0

    def peek() -> tuple[str, str, int]:
        return tokens[pos]

    def take(kind: str) -> tuple[str, str, int]:
        nonlocal pos
        tok = tokens[pos]
        if tok[0] != kind:
            raise PolyParseError(f"expected {kind}, found {tok[1] or 'end of input'!r}", tok[2])
        pos += 1
        return tok

    def parse_factor() -> tuple[Rat, tuple[int, ...]]:
        kind, value, col = peek()
        if kind == "NUM":
            take("NUM")
            num = int(value)
            if peek()[:2] == ("OP", "/"):
                take("OP")
                den_tok = take("NUM")
                den = int(den_tok[1])
                if den == 0:
                    raise PolyParseError("zero denominator", den_tok[2])
                return Fraction(num, den), (0,) * nvars
            return Fraction(num), (0,) * nvars
        if kind == "NAME":
            take("NAME")
            if value not in variables:
                allowed = ", ".join(sorted(variables))
                raise PolyParseError(f"unknown variable {value!r} (allowed: {allowed})", col)
            exp = 1
            if peek()[:2] == ("OP", "^"):
                take("OP")
                exp = int(take("NUM")[1])
            e = [0] * nvars
            e[variables[value]] = exp
            return Fraction(1), tuple(e)
        raise PolyParseError(f"expected a coefficient or a variable, found {value or 'end of input'!r}", col)

    def parse_term() -> tuple[Rat, tuple[int, ...]]:
        coeff, expo = parse_factor()
        while peek()[:2] == ("OP", "*"):
            take("OP")
            c2, e2 = parse_factor()
            coeff *= c2
            expo = tuple(a + b for a, b in zip(expo, e2))
        return coeff, expo

    result: dict[tuple[int, ...], Rat] = {}
    sign = Fraction(1)
    if peek()[:2] == ("OP", "+"):
        take("OP")
    elif peek()[:2] == ("OP", "-"):
        take("OP")
        sign = Fraction(-1)
    while True:
        coeff, expo = parse_term()
        value = result.get(expo, Fraction(0)) + sign * coeff
        if value:
            result[expo] = value
        else:
            result.pop(expo, None)
        kind, value_txt, col = peek()
        if kind == "END":
            break
        if kind == "OP" and value_txt in "+-":
            take("OP")
            sign = Fraction(1) if value_txt == "+" else Fraction(-1)
            continue
        raise PolyParseError(f"expected '+' or '-', found {value_txt!r}", col)
    return result


def parse_local_poly(text: str) -> LocalPoly:
    """Parse a bivariate polynomial in the variables x and y."""
    return LocalPoly(_parse_terms(text, {"x": 0, "y": 1}, 2))


def parse_ternary_form(text: str) -> HomPoly:
    """Parse a homogeneous polynomial in the variables X0, X1, X2."""
    coeffs = _parse_terms(text, {"X0": 0, "X1": 1, "X2": 2}, 3)
    degrees = {sum(e) for e in coeffs}
    if len(degrees) > 1:
        raise PolyParseError(
            f"polynomial is not homogeneous: term degrees {sorted(degrees)}", 1
        )
    degree = degrees.pop() if degrees else 0
    return HomPoly(degree, coeffs)


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
