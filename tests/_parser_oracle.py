"""The character-by-character polynomial parser, kept as a test oracle.

It walks the text one character at a time, classifying each with the str
predicates (isspace, isalpha, isalnum) and ASCII digit ranges, and
accumulates Fraction coefficients from a list of every token.  picardlab
instead reads the matches of one regular expression in a single pass, with
one token of lookahead and no token list; the tests compare both on the same
texts, dict for dict and error for error.
"""

import sys
from fractions import Fraction

from picardlab.polynomials import PolyParseError


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
        if "0" <= ch <= "9":
            start = i
            while i < len(text) and "0" <= text[i] <= "9":
                i += 1
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if limit and i - start > limit:
                raise PolyParseError(
                    f"number of {i - start} digits exceeds the limit of {limit}", start + 1
                )
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


def parse_terms(text: str, variables: dict[str, int], nvars: int) -> dict:
    """The exponent-to-coefficient dict of the text, or PolyParseError."""
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

    def parse_factor():
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

    def parse_term():
        coeff, expo = parse_factor()
        while peek()[:2] == ("OP", "*"):
            take("OP")
            c2, e2 = parse_factor()
            coeff *= c2
            expo = tuple(a + b for a, b in zip(expo, e2))
        return coeff, expo

    result: dict = {}
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
