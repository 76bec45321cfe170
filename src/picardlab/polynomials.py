"""Exact sparse polynomial arithmetic over the rationals.

Polynomials are dictionaries from exponent tuples to Fraction coefficients;
zero coefficients are never stored, so identity testing is plain dictionary
equality.  One type, Poly, serves the whole package; it has a fixed number
of variables:

  two    curve germs in local coordinates, the symbolic identities of the
         geography, and binary forms, the restrictions of ternary forms to
         the coordinate lines,
  three  projective plane curves, which are homogeneous ternary forms.

substitute, the composition f(gx, gy), is the one expansion routine:
Poly.localize projects a form's exponents into a chart, which needs no
arithmetic, and moves the point to the origin with substitute.

All values are immutable by convention: no method mutates its receiver.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Union

Rat = Fraction
Scalar = Union[int, Fraction]

# ---------------------------------------------------------------------------
# Raw dict arithmetic.  Every result is clean: no zero coefficient is stored.


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
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
# Sparse polynomials.


# localize is a chart projection followed by substitute.  The degree cap
# bounds substitute's power tables, O(d^2) products; the product cap bounds
# the per-term products, (e0 + 1)*(e1 + 1) for a term with exponents e0, e1
# in the two local variables.  A dense form of degree 33 needs 66,045.
MAX_LOCALIZE_DEGREE = 128
MAX_LOCALIZE_PRODUCTS = 100_000


class PointOffCurveError(ValueError):
    """The point handed to localize does not lie on the zero locus."""


class Poly:
    """Sparse polynomial with exact rational coefficients in nvars variables.

    Germs, symbolic identities and binary forms use two variables, plane
    curves three; partial, restrict, exponents_divisible_by and localize
    are the methods for ternary forms, distinct_projective_roots the one
    for binary forms.
    """

    __slots__ = ("coeffs", "nvars")

    def __init__(self, coeffs: Optional[Mapping[tuple[int, ...], Scalar]] = None, nvars: int = 2):
        cleaned: dict[tuple[int, ...], Rat] = {}
        for e, c in (coeffs or {}).items():
            if len(e) != nvars:
                raise ValueError(f"exponent {e} does not have {nvars} entries")
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e}")
            frac = Fraction(c)
            if frac:
                cleaned[tuple(int(x) for x in e)] = frac
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
        return Poly._wrap({tuple(e): Fraction(1)}, nvars)

    def coefficient(self, e: tuple[int, ...]) -> Rat:
        return self.coeffs.get(e, Fraction(0))

    @property
    def constant_term(self) -> Rat:
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
            return Poly({(0,) * self.nvars: other}, self.nvars)
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
        return Poly._wrap(_scale(self.coeffs, -1), self.nvars)

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

    def __call__(self, *point: Scalar) -> Rat:
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

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Rat]]:
        return sorted(self.coeffs.items(), key=lambda item: (sum(item[0]), item[0]))

    def power_pullback(self, powers: tuple[int, ...]) -> "Poly":
        """The polynomial at (x0^p0, x1^p1, ...) for positive powers
        (p0, p1, ...): every exponent scaled, no arithmetic."""
        if len(powers) != self.nvars or min(powers) < 1:
            raise ValueError(f"expected {self.nvars} positive powers, got {powers}")
        return Poly._wrap(
            {tuple(k * p for k, p in zip(e, powers)): c for e, c in self.coeffs.items()},
            self.nvars,
        )

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
            raise ValueError(f"polynomial is not homogeneous: term degrees {sorted(degrees)}")
        return degrees.pop() if degrees else 0

    def partial(self, index: int) -> "Poly":
        out: dict[tuple[int, ...], Rat] = {}
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
                f"form degree {degree} exceeds the localization cap {MAX_LOCALIZE_DEGREE}"
            )
        r0, r1 = (i for i in range(3) if i != chart)
        products = sum((e[r0] + 1) * (e[r1] + 1) for e in self.coeffs)
        if products > MAX_LOCALIZE_PRODUCTS:
            raise ValueError(
                f"localizing the form takes {products} binomial products, "
                f"more than the cap {MAX_LOCALIZE_PRODUCTS}"
            )
        pt = [Fraction(c) for c in point]
        if pt[chart] == 0:
            raise ValueError(f"chart coordinate {chart} vanishes at the point")
        # Setting X_chart = 1 drops its exponent; a form has one term per
        # remaining pair, so no two terms collide.
        affine = Poly._wrap({(e[r0], e[r1]): c for e, c in self.coeffs.items()}, 2)
        p0, p1 = pt[r0] / pt[chart], pt[r1] / pt[chart]
        if affine(p0, p1) != 0:
            raise PointOffCurveError(f"point ({', '.join(map(str, pt))}) is not on the zero locus")
        return substitute(affine, Poly.variable(0) + p0, Poly.variable(1) + p1)


# Old names of Poly, kept as plain aliases: perfbench/tracing.py patches
# HomPoly.localize, HomPoly.__mul__ and HomPoly.__rmul__ by name, and the
# acceptance tests import LocalPoly.
LocalPoly = HomPoly = Poly


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
    return Poly._wrap(acc, 2)


# ---------------------------------------------------------------------------
# Sparse univariate helpers: dicts from exponents to nonzero coefficients.


def _urem(a: dict, b: dict) -> dict:
    top = max(b)
    inv = 1 / b[top]
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
        # ASCII digits only: int() rejects some of what str.isdigit() accepts.
        if "0" <= ch <= "9":
            start = i
            while i < len(text) and "0" <= text[i] <= "9":
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


def parse_local_poly(text: str) -> Poly:
    """Parse a bivariate polynomial in the variables x and y."""
    return Poly(_parse_terms(text, {"x": 0, "y": 1}, 2), 2)


def parse_ternary_form(text: str) -> Poly:
    """Parse a homogeneous polynomial in the variables X0, X1, X2."""
    form = Poly(_parse_terms(text, {"X0": 0, "X1": 1, "X2": 2}, 3), 3)
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
