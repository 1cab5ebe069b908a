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

Each Sq or polynomial term is read with one regular-expression match
and one ``findall``; a term is re-read factor by factor only to report
an error at the column a token-by-token scan would give.  The
polynomial layer is imported only when a polynomial is parsed, and the
module layer only when a module expression is (``Monomial`` and
``PolyElement`` in the annotations are from ``steenrod.poly``,
``GradedModule`` is ``steenrod.modules.GradedModule``).
"""

from __future__ import annotations

import re
from collections.abc import Callable
from functools import cache, partial

from .adem import AdemElement, Word
from .f2 import F2Sum


class ParseError(ValueError):
    """A syntax error with the position (0-based column) it occurred at."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at column {position})")
        self.message = message
        self.position = position


_WS_RE = re.compile(r"\s*")
_NAT_RE = re.compile(r"\d+")
_FACTOR_RE = re.compile(r"t(\d+)(?:\s*\^\s*(\d+))?")
#: One term with the whitespace around it.  A monomial match also takes a
#: '*' or '^' left dangling after its factors (group 2), to name what is missing.
_SQ_TERM_RE = re.compile(r"\s*(?:1|(Sq\d+(?:\s*Sq\d+)*))\s*")
_MONO_RE = re.compile(r"\s*(?:1|(t\d+(?:\s*\^\s*\d+)?(?:\s*\*\s*t\d+(?:\s*\^\s*\d+)?)*)(?:\s*([*^]))?)\s*")
_FACTOR_MISSING = "expected a factor like t1 or t2^3"
_SPACE_RE = re.compile(r"(rp|cp|s)(\d+)")

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
    text: str, term_re: re.Pattern, read_term: Callable, cls: type[F2Sum], what: str, missing: str
) -> F2Sum:
    """A '+'-separated sum of terms, or the single token ``0``; duplicate terms cancel.

    ``term_re`` matches one term with the whitespace around it; ``read_term`` reads it off.
    """
    if text.strip() == "0":
        return cls(frozenset())
    terms: set = set()
    pos = 0
    while m := term_re.match(text, pos):
        terms ^= {read_term(text, m)}
        pos = m.end()
        if pos == len(text):
            return cls(frozenset(terms))
        if text[pos] != "+":
            raise ParseError(f"expected '+' or end of {what}", pos)
        pos += 1
    raise ParseError(missing, _WS_RE.match(text, pos).end())


def parse_sq(text: str) -> AdemElement:
    """Parse a Sq expression; duplicate terms cancel mod 2."""
    missing = "expected a term: '1' or a sequence of SqN factors"
    return _parse_sum(text, _SQ_TERM_RE, _read_word, AdemElement, "expression", missing)


def _read_word(text: str, m: re.Match) -> Word:
    try:  # the term '1' has no factors
        if 0 not in (word := tuple(map(int, _NAT_RE.findall(m[1] or "")))):
            return word
    except ValueError:  # a number too long for int(); raised below, in text order
        pass
    for number in _NAT_RE.finditer(text, *m.span(1)):
        if int(number[0]) == 0:
            raise ParseError("Sq0 is not allowed; write 1 for the identity", number.start() - len("Sq"))


def parse_poly(text: str) -> PolyElement:
    """Parse a polynomial over F2[t1..tk]; duplicate monomials cancel."""
    cls, read_mono = _poly_layer()
    return _parse_sum(text, _MONO_RE, read_mono, cls, "polynomial", _FACTOR_MISSING)


@cache
def _poly_layer() -> tuple[type[PolyElement], Callable[[str, re.Match], Monomial]]:
    """``PolyElement`` and the monomial reader, importing ``poly`` on the first call only."""
    from .poly import PolyElement, make_monomial

    return PolyElement, partial(_read_mono, make_monomial)


def _read_mono(make_monomial: Callable[..., Monomial], text: str, m: re.Match) -> Monomial:
    try:  # the term '1' has no factors; make_monomial refuses t0
        if m[2] is None:
            return make_monomial((int(i), int(e or 1)) for i, e in _FACTOR_RE.findall(m[1] or ""))
    except ValueError:  # t0, or a number too long for int(); raised below, in text order
        pass
    for factor in _FACTOR_RE.finditer(text, *m.span(1)):
        if int(factor[1]) == 0:
            raise ParseError("variables are numbered from t1", factor.start())
        int(factor[2] or 1)  # an exponent too long for int() raises here
    if m[2] == "*" or factor[2] is None:
        raise ParseError(_FACTOR_MISSING if m[2] == "*" else "expected an exponent after '^'", m.end())
    raise ParseError("expected '+' or end of polynomial", m.start(2))


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
            module = {"s": sphere, "rp": real_proj, "cp": complex_proj}[m.group(1)](n)
        except ValueError as err:
            raise ParseError(str(err), start) from None
    built += len(module.generators) + len(module.sq) + len(module.products)
    if built > _MAX_MODULE_ENTRIES:
        raise ParseError(f"module expression builds more than {_MAX_MODULE_ENTRIES} table entries", start)
    return module, built
