"""The token-by-token Sq and polynomial parsers that the tests use as an oracle.

:func:`steenrod.parsing.parse_sq` and :func:`steenrod.parsing.parse_poly`
read each term with one regular-expression match.  The parsers here
read the same grammars one token at a time through the module parser's
``_Scanner``, skipping whitespace before every token, so each error is
raised where the scan first fails.  The tests check that both give the
same element, or the same error message at the same column.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Hashable

from steenrod.adem import AdemElement, Word
from steenrod.f2 import F2Sum
from steenrod.parsing import ParseError, _Scanner
from steenrod.poly import Monomial, PolyElement, make_monomial

_SQ_RE = re.compile(r"Sq(\d+)")
_VAR_RE = re.compile(r"t(\d+)")
_NAT_RE = re.compile(r"\d+")


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
        value = int(m.group(1))
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
        index = int(m.group(1))
        if index == 0:
            raise ParseError("variables are numbered from t1", start)
        exp = 1
        if scanner.take("^"):
            e = scanner.match(_NAT_RE)
            if not e:
                raise scanner.error("expected an exponent after '^'")
            exp = int(e.group(0))
        factors.append((index, exp))
        if not scanner.take("*"):
            return make_monomial(factors)
