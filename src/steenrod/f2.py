"""Parity arithmetic and formal mod-2 sums.

Scalars over F2 are plain ints 0/1.  A formal F2-sum of basis terms is
represented as a frozenset of the terms: addition is symmetric
difference, so a term appearing twice cancels and the empty set is
zero.  Every element class in this package (``AdemElement``,
``PolyElement`` and ``ModuleElement``) derives from
:class:`F2Sum`, which holds that frozenset and does the arithmetic and
comparison once for all of them.  The report records
(``AxiomFailure``, ``VerifyReport``, ``Pi4Report`` and
``RelationCertificate``) derive from :class:`Record`, which does their
construction, comparison and ``repr`` once.  ``F2Sum`` also orders and
prints every sum: its terms in each class's canonical order, joined by
`` + ``, or ``0`` for zero.  :func:`act_word` applies
a word of squares to a sum of terms for every action in the package.
:func:`dumps_json` writes every JSON document the package emits except
module files, which ``modfile.dumps`` writes straight from the tables.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Sequence


def binom_mod2(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) reduced mod 2.

    Out-of-range arguments (negative, or k > n) give 0 by convention.
    Uses Lucas' criterion: C(n, k) is odd iff every bit of k is also
    set in n.
    """
    if k < 0 or n < 0 or k > n:
        return 0
    return 1 if n & k == k else 0


def adem_coeff(a: int, b: int, c: int) -> int:
    """Coefficient of Sq^(a+b-c) Sq^c in the Adem expansion of Sq^a Sq^b.

    Equals C(b-c-1, a-2c) mod 2; degenerate indices give 0, so the
    function is total even though it is only meaningful for a < 2b and
    0 <= c <= a // 2.
    """
    return binom_mod2(b - c - 1, a - 2 * c)


def common_degree(degrees: Iterable[int]) -> int | None:
    """The one degree shared by all terms: None for none, ValueError for several."""
    found = set(degrees)
    if len(found) > 1:
        raise ValueError(f"element is not homogeneous (degrees {sorted(found)})")
    return found.pop() if found else None


def act_word(word: Sequence[int], terms: frozenset, square: Callable[[int, Hashable], frozenset]) -> frozenset:
    """A word of squares applied to the F2-sum ``terms``, rightmost square first.

    ``square(n, term)`` is Sq^n of one term as a set of terms; the images
    of the terms cancel mod 2.  The fold is a loop, so a word's length is
    not bounded by the recursion limit, and it stops once the sum is zero.
    """
    for n in reversed(word):
        if not terms:
            break
        if len(terms) == 1:
            terms = square(n, next(iter(terms)))
        else:
            acc: set = set()
            for term in terms:
                acc.symmetric_difference_update(square(n, term))
            terms = frozenset(acc)
    return terms


class F2Sum:
    """An immutable formal F2-sum: the frozenset ``terms`` of its terms.

    Subclasses publish ``terms`` under their own name.  One whose sums
    live over a context (a module, a symbol degree) takes it as leading
    constructor arguments and returns those from ``_context``.  Sums are
    equal when type, context and terms are; modules compare by identity.
    Each subclass orders its terms by ``_term_key`` and prints one term
    with ``_term_text``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: frozenset) -> None:
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _context(self) -> tuple:
        return ()

    def _term_key(self, term: Hashable) -> object:
        raise NotImplementedError

    def _term_text(self, term: Hashable) -> str:
        raise NotImplementedError

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list:
        """The terms in canonical order."""
        return sorted(self.terms, key=self._term_key)

    def __add__(self, other: F2Sum) -> F2Sum:
        if type(other) is not type(self):
            return NotImplemented
        context = self._context()
        if other._context() != context:
            raise ValueError(f"cannot add {type(self).__name__}s over different contexts")
        return type(self)(*context, self.terms ^ other.terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return False
        return other.terms == self.terms and other._context() == self._context()

    def __hash__(self) -> int:
        return hash((self._context(), self.terms))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(map(self._term_text, self.sorted_terms()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, (*self._context(), self.terms)))})"


class Record:
    """A plain record: its fields are its ``__slots__``, given positionally.

    Records compare equal when their types are the same and so is each
    field; they are unhashable.
    """

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other._values() == self._values()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self._values()))})"


_JSON_ESCAPES = {"\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b", "\f": "\\f"}


def _json_escape(char: str) -> str:
    """A character outside printable ASCII as JSON writes it; above U+FFFF, a surrogate pair."""
    code = ord(char)
    if code > 0xFFFF:
        return _json_escape(chr(0xD800 | (code - 0x10000) >> 10)) + _json_escape(chr(0xDC00 | code & 0x3FF))
    return _JSON_ESCAPES.get(char) or "\\u%04x" % code


def dumps_json(value: object, _newline: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` of dicts with ``str`` keys, lists, tuples,
    ``str``, ``int``, ``bool`` and ``None``, without loading ``json``; other values raise TypeError.
    """
    if isinstance(value, str):
        text = value.replace("\\", "\\\\").replace('"', '\\"')
        if not (text.isascii() and text.isprintable()):
            text = "".join(char if " " <= char <= "~" else _json_escape(char) for char in text)
        return f'"{text}"'
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = _newline + "  "
    if isinstance(value, dict):
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError("dumps_json writes only str keys")
            items.append(f"{dumps_json(key)}: {dumps_json(value[key], inner)}")
    elif isinstance(value, (list, tuple)):
        items = [dumps_json(item, inner) for item in value]
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    left, right = "{}" if isinstance(value, dict) else "[]"
    return f"{left}{inner}{(',' + inner).join(items)}{_newline}{right}" if items else left + right
