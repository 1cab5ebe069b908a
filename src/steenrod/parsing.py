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
offending position; a number with more digits than ``int()`` reads
(``sys.get_int_max_str_digits()``) is an error at its first digit.

A valid Sq or polynomial text is read with ``str`` methods: split at
each '+', each term split at each 'Sq' or '*'.  A text any term of which
does not read is scanned again one token at a time, so that the first
error is raised at its column.  The polynomial layer is imported only
when a polynomial is parsed, and the module layer only when a module
expression is (``Monomial`` and ``PolyElement`` in the annotations are
from ``steenrod.poly``, ``GradedModule`` is
``steenrod.modules.GradedModule``).
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from functools import partial

from .adem import AdemElement, Word
from .f2 import F2Sum


class ParseError(ValueError):
    """A syntax error with the position (0-based column) it occurred at."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at column {position})")
        self.message = message
        self.position = position


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
    """A position in ``text``; whitespace is skipped before each token."""

    def __init__(self, text: str) -> None:
        self.text, self.pos = text, 0

    def skip_ws(self) -> int:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.pos

    def at_end(self) -> bool:
        return self.skip_ws() == len(self.text)

    def take(self, literal: str) -> bool:
        if self.text.startswith(literal, self.skip_ws()):
            self.pos += len(literal)
            return True
        return False

    def digits(self, prefix: str = "") -> str:
        """The decimal digits after ``prefix``, taken with it; '' (nothing taken) if none follow."""
        start = end = self.skip_ws() + len(prefix)
        if self.text.startswith(prefix, self.pos):
            while end < len(self.text) and self.text[end].isdecimal():
                end += 1
        if end > start:
            self.pos = end
        return self.text[start:end]

    def nat(self, digits: str) -> int:
        """The value of ``digits``, just taken; a ParseError at their column if int() refuses that many."""
        try:
            return int(digits)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise ParseError(f"numbers are limited to {limit} digits", self.pos - len(digits)) from None

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.skip_ws())


def _parse_sum(text: str, read_term: Callable, scan_term: Callable, cls: type[F2Sum], what: str) -> F2Sum:
    """A '+'-separated sum of terms, or the single token ``0``; duplicate terms cancel.

    ``read_term`` reads a term and the whitespace around it, and raises
    ValueError on anything else.  Then ``scan_term`` reads the terms off a
    scanner instead, so that the first error is raised at its column.
    """
    if text.strip() == "0":
        return cls(frozenset())
    terms: set = set()
    try:
        for term in text.split("+"):
            terms ^= {read_term(term)}
        return cls(frozenset(terms))
    except ValueError:
        terms.clear()
    scanner = _Scanner(text)
    while True:
        terms ^= {scan_term(scanner)}
        if scanner.at_end():
            return cls(frozenset(terms))
        if not scanner.take("+"):
            raise scanner.error(f"expected '+' or end of {what}")


def parse_sq(text: str) -> AdemElement:
    """Parse a Sq expression; duplicate terms cancel mod 2."""
    return _parse_sum(text, _read_word, _scan_word, AdemElement, "expression")


def _read_word(term: str) -> Word:
    head, *numbers = term.split("Sq")
    if not numbers and head.strip() == "1":
        return ()
    numbers = [number.rstrip() for number in numbers]
    word = tuple(map(int, numbers))  # '' and a number too long for int() raise here
    if not word or head.strip() or not "".join(numbers).isdecimal() or 0 in word:
        raise ValueError(term)
    return word


def _scan_word(scanner: _Scanner) -> Word:
    if scanner.take("1"):
        return ()
    word = []
    while number := scanner.digits("Sq"):
        word.append(scanner.nat(number))
        if not word[-1]:
            raise ParseError("Sq0 is not allowed; write 1 for the identity", scanner.pos - len("Sq" + number))
    if not word:
        raise scanner.error("expected a term: '1' or a sequence of SqN factors")
    return tuple(word)


def parse_poly(text: str) -> PolyElement:
    """Parse a polynomial over F2[t1..tk]; duplicate monomials cancel."""
    from .poly import PolyElement, make_monomial

    read, scan = partial(_read_mono, make_monomial), partial(_scan_mono, make_monomial)
    return _parse_sum(text, read, scan, PolyElement, "polynomial")


def _read_mono(make_monomial: Callable[..., Monomial], term: str) -> Monomial:
    if term.strip() == "1":
        return ()
    factors = []
    for factor in term.split("*"):
        var, caret, exp = factor.partition("^")
        var, exp = var.strip(), exp.strip() if caret else "1"
        if var[:1] != "t" or not (var[1:] + exp).isdecimal():
            raise ValueError(term)
        factors.append((int(var[1:]), int(exp)))  # '' and a number too long for int() raise here
    return make_monomial(factors)  # refuses t0


def _scan_mono(make_monomial: Callable[..., Monomial], scanner: _Scanner) -> Monomial:
    if scanner.take("1"):
        return ()
    factors = []
    while True:
        digits = scanner.digits("t")
        if not digits:
            raise scanner.error("expected a factor like t1 or t2^3")
        index = scanner.nat(digits)
        if index == 0:
            raise ParseError("variables are numbered from t1", scanner.pos - len("t" + digits))
        exp = scanner.digits() if scanner.take("^") else "1"
        if not exp:
            raise scanner.error("expected an exponent after '^'")
        factors.append((index, scanner.nat(exp)))
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
    from .modules import complex_proj, real_proj, sphere, suspend, wedge

    if depth > _MAX_MODULE_NESTING:
        raise scanner.error(f"module expression nested deeper than {_MAX_MODULE_NESTING} levels")
    start = scanner.skip_ws()
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
        for name, build in (("rp", real_proj), ("cp", complex_proj), ("s", sphere)):
            if digits := scanner.digits(name):
                break
        else:
            raise scanner.error("expected s<n>, rp<n>, cp<n>, wedge(...) or susp(...)")
        n = scanner.nat(digits)
        try:
            if n > _MAX_MODULE_DIMENSION:
                raise ValueError(f"dimension must be at most {_MAX_MODULE_DIMENSION}")
            module = build(n)
        except ValueError as err:
            raise ParseError(str(err), start) from None
    built += len(module.generators) + len(module.sq) + len(module.products)
    if built > _MAX_MODULE_ENTRIES:
        raise ParseError(f"module expression builds more than {_MAX_MODULE_ENTRIES} table entries", start)
    return module, built
