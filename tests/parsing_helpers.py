"""The token-by-token Sq and polynomial parsers that the tests use as an oracle.

:func:`steenrod.parsing.parse_sq` and :func:`steenrod.parsing.parse_poly`
split a valid text with ``str`` methods.  The parsers here read the same
grammars one token at a time with regular expressions, through a scanner
of their own that skips whitespace before every token, so each error is
raised where the scan first fails.  The tests check that both give the
same element, or the same error message at the same column.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Callable, Hashable

from steenrod.adem import AdemElement, Word
from steenrod.f2 import F2Sum
from steenrod.parsing import ParseError
from steenrod.poly import Monomial, PolyElement, make_monomial

_WS_RE = re.compile(r"\s*")
_SQ_RE = re.compile(r"Sq(\d+)")
_VAR_RE = re.compile(r"t(\d+)")
_NAT_RE = re.compile(r"\d+")


class _Scanner:
    """A position in ``text``; whitespace is skipped before each token."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        self.pos = _WS_RE.match(self.text, self.pos).end()

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def take(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def match(self, pattern: re.Pattern) -> re.Match | None:
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if m:
            self.pos = m.end()
        return m

    def error(self, message: str) -> ParseError:
        self.skip_ws()
        return ParseError(message, self.pos)


def _number(m: re.Match, group: int) -> int:
    """The number a match group holds; a ParseError at its first digit if int() refuses that many."""
    try:
        return int(m.group(group))
    except ValueError:
        raise ParseError(f"numbers are limited to {sys.get_int_max_str_digits()} digits", m.start(group)) from None


def _reference_sum(
    text: str, parse_term: Callable[[_Scanner], Hashable], cls: type[F2Sum], what: str
) -> F2Sum:
    if text.strip() == "0":
        return cls(frozenset())
    scanner = _Scanner(text)
    terms: set = set()
    while True:
        terms ^= {parse_term(scanner)}
        if scanner.at_end():
            return cls(frozenset(terms))
        if not scanner.take("+"):
            raise scanner.error(f"expected '+' or end of {what}")


def reference_parse_sq(text: str) -> AdemElement:
    """``parse_sq``, one token at a time."""
    return _reference_sum(text, _sq_term, AdemElement, "expression")


def _sq_term(scanner: _Scanner) -> Word:
    if scanner.take("1"):
        return ()
    exponents: list[int] = []
    while True:
        scanner.skip_ws()
        start = scanner.pos
        m = scanner.match(_SQ_RE)
        if not m:
            break
        value = _number(m, 1)
        if value == 0:
            raise ParseError("Sq0 is not allowed; write 1 for the identity", start)
        exponents.append(value)
    if not exponents:
        raise scanner.error("expected a term: '1' or a sequence of SqN factors")
    return tuple(exponents)


def reference_parse_poly(text: str) -> PolyElement:
    """``parse_poly``, one token at a time."""
    return _reference_sum(text, _poly_mono, PolyElement, "polynomial")


def _poly_mono(scanner: _Scanner) -> Monomial:
    if scanner.take("1"):
        return ()
    factors: list[tuple[int, int]] = []
    while True:
        scanner.skip_ws()
        start = scanner.pos
        m = scanner.match(_VAR_RE)
        if not m:
            raise scanner.error("expected a factor like t1 or t2^3")
        index = _number(m, 1)
        if index == 0:
            raise ParseError("variables are numbered from t1", start)
        exp = 1
        if scanner.take("^"):
            e = scanner.match(_NAT_RE)
            if not e:
                raise scanner.error("expected an exponent after '^'")
            exp = _number(e, 0)
        factors.append((index, exp))
        if not scanner.take("*"):
            return make_monomial(factors)
