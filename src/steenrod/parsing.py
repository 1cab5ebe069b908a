"""Parsers for the surface syntaxes.

Sq expressions::

    expr := term ('+' term)*
    term := '1' | ('Sq' nat)+          (nat >= 1; Sq0 is rejected)

Polynomials::

    poly   := mono ('+' mono)*
    mono   := '1' | factor ('*' factor)*
    factor := 't' idx ('^' nat)?       (idx >= 1)

Module expressions, naming the builtin constructors::

    module := 's' nat | 'rp' nat | 'cp' nat
            | 'wedge(' module ',' module ')' | 'susp(' module ')'

Whitespace is free around tokens.  As an extension, the single token
``0`` denotes the zero element in the Sq and polynomial grammars, so
printing and parsing round-trip on every element.  Errors carry the
offending position.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Hashable

from .adem import AdemElement, Word
from .f2 import F2Sum
from .modules import GradedModule, complex_proj, real_proj, sphere, suspend, wedge
from .poly import Monomial, PolyElement, make_monomial


class ParseError(ValueError):
    """A syntax error with the position (0-based column) it occurred at."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at column {position})")
        self.message = message
        self.position = position


_WS_RE = re.compile(r"\s*")
_SQ_RE = re.compile(r"Sq(\d+)")
_VAR_RE = re.compile(r"t(\d+)")
_NAT_RE = re.compile(r"\d+")
_SPACE_RE = re.compile(r"(rp|cp|s)(\d+)")
_SPACES = {"s": sphere, "rp": real_proj, "cp": complex_proj}

#: Deepest wedge/susp nesting parse_module accepts; the parser recurses
#: once per level, so this keeps it far from the interpreter's limit.
_MAX_MODULE_NESTING = 200

#: Largest n parse_module accepts in s<n>, rp<n> and cp<n>.  The rp and
#: cp models hold a product table quadratic in n, built and walked in
#: full whatever the degree asked for.
_MAX_MODULE_DIMENSION = 256

#: Most table entries (generators, squares and products) one
#: parse_module expression may build, over its s/rp/cp models and every
#: wedge(...) and susp(...), each of which copies its operands' tables.
#: Without it nested wedges cost time quadratic in the depth.
_MAX_MODULE_ENTRIES = 1 << 17


class _Scanner:
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


def _parse_sum(
    text: str, parse_term: Callable[[_Scanner], Hashable], cls: type[F2Sum], what: str
) -> F2Sum:
    """A '+'-separated sum of terms, or the single token ``0``; duplicate terms cancel."""
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


def parse_sq(text: str) -> AdemElement:
    """Parse a Sq expression; duplicate terms cancel mod 2."""
    return _parse_sum(text, _parse_sq_term, AdemElement, "expression")


def _parse_sq_term(scanner: _Scanner) -> Word:
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


def parse_poly(text: str) -> PolyElement:
    """Parse a polynomial over F2[t1..tk]; duplicate monomials cancel."""
    return _parse_sum(text, _parse_poly_mono, PolyElement, "polynomial")


def _parse_poly_mono(scanner: _Scanner) -> Monomial:
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


def parse_module(text: str) -> GradedModule:
    """Build the module a constructor expression names, e.g. ``wedge(susp(cp2),s3)``.

    The expression is read and built left to right, and the first error
    met is raised.
    """
    scanner = _Scanner(text)
    module, _ = _parse_module_expr(scanner, 0, 0)
    if not scanner.at_end():
        raise scanner.error("expected end of module expression")
    return module


def _parse_module_expr(scanner: _Scanner, depth: int, built: int) -> tuple[GradedModule, int]:
    """The module an expression names, and ``built`` plus the table entries built for it."""
    if depth > _MAX_MODULE_NESTING:
        raise scanner.error(f"module expression nested deeper than {_MAX_MODULE_NESTING} levels")
    scanner.skip_ws()
    start = scanner.pos
    if scanner.take("wedge("):
        left, built = _parse_module_expr(scanner, depth + 1, built)
        if not scanner.take(","):
            raise scanner.error("expected ','")
        right, built = _parse_module_expr(scanner, depth + 1, built)
        if not scanner.take(")"):
            raise scanner.error("expected ')'")
        module = wedge(left, right)
    elif scanner.take("susp("):
        inner, built = _parse_module_expr(scanner, depth + 1, built)
        if not scanner.take(")"):
            raise scanner.error("expected ')'")
        module = suspend(inner)
    else:
        m = scanner.match(_SPACE_RE)
        if not m:
            raise scanner.error("expected s<n>, rp<n>, cp<n>, wedge(...) or susp(...)")
        try:
            n = int(m.group(2))
            if n > _MAX_MODULE_DIMENSION:
                raise ValueError(f"dimension must be at most {_MAX_MODULE_DIMENSION}")
            module = _SPACES[m.group(1)](n)
        except ValueError as err:
            raise ParseError(str(err), start) from None
    built += len(module.generators) + len(module.sq) + len(module.products)
    if built > _MAX_MODULE_ENTRIES:
        raise ParseError(f"module expression builds more than {_MAX_MODULE_ENTRIES} table entries", start)
    return module, built
