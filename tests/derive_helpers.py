"""The symbolic double total square that the tests use as an oracle.

:func:`steenrod.derive.derive_adem_relations` sums the double total
square of a generic class in closed form.  The classes here expand it
term by term instead: a :class:`SymbolicClass` is an F2-sum of
``Sq_word(a) * monomial(u, v)`` terms, and :func:`total_square_symbolic`
pushes it through the polynomial total square once per variable.
:func:`reference_derive_adem_relations` compares the two orders of that
expansion, so it checks the closed sum against the Cartan formula it
was read off from.
"""

from __future__ import annotations

from steenrod.adem import AdemElement, Word, degree
from steenrod.derive import _relation_key
from steenrod.f2 import F2Sum, common_degree
from steenrod.poly import Monomial, PolyElement, monomial_degree, monomial_mul, total_square

#: Auxiliary variable indices for the two expansion directions.
U, V = 1, 2

SymTerm = tuple[Word, Monomial]


class SymbolicClass(F2Sum):
    """F2-sum of terms ``Sq_word(a) * monomial(u, v)`` for a symbol a.

    Each term has total degree symbol_degree + degree(word) +
    degree(monomial); elements are kept homogeneous.
    """

    __slots__ = ("symbol_degree",)

    def __init__(self, symbol_degree: int, terms: frozenset[SymTerm]) -> None:
        object.__setattr__(self, "symbol_degree", symbol_degree)
        F2Sum.__init__(self, terms)

    def _context(self) -> tuple:
        return (self.symbol_degree,)

    def total_degree(self) -> int | None:
        return common_degree(
            self.symbol_degree + degree(word) + monomial_degree(mono) for word, mono in self.terms
        )

    @classmethod
    def generic(cls, symbol_degree: int) -> "SymbolicClass":
        """The bare symbol a of the given degree."""
        if symbol_degree < 0:
            raise ValueError("symbol degree must be a natural number")
        return cls(symbol_degree, frozenset({((), ())}))


def total_square_symbolic(cls: SymbolicClass, var: int) -> SymbolicClass:
    """Total square against a fresh auxiliary variable.

    For a class of total degree M returns sum_j Sq^j(cls) * var^(M-j),
    a homogeneous class of degree 2M.  A term Sq_w(a) * mono goes to
    sum_r Sq^r Sq_w(a) * var^(D-r), over r up to the degree D of
    Sq_w(a), times the total square of mono.  The variable must be fresh.
    """
    if cls.total_degree() is None:
        return cls
    acc: set[SymTerm] = set()
    for word, mono in cls.terms:
        squares = total_square(PolyElement(frozenset({mono})), var).monomials
        argument_degree = cls.symbol_degree + degree(word)
        for r in range(argument_degree + 1):
            new_word = (r,) + word if r else word
            vpow: Monomial = ((var, argument_degree - r),) if r < argument_degree else ()
            acc.symmetric_difference_update((new_word, monomial_mul(square, vpow)) for square in squares)
    return SymbolicClass(cls.symbol_degree, frozenset(acc))


def reference_derive_adem_relations(m: int) -> list[AdemElement]:
    """The relations of ``derive_adem_relations(m)``, by full expansion.

    Expands the two double total squares of a generic degree-m symbol
    and collects, for every bimonomial u^s v^r where the two sides
    disagree, the F2-sum of words that must therefore vanish on K_m.
    """
    base = SymbolicClass.generic(m)
    u_then_v = total_square_symbolic(total_square_symbolic(base, U), V)
    v_then_u = total_square_symbolic(total_square_symbolic(base, V), U)

    by_monomial: dict[Monomial, set[Word]] = {}
    for word, mono in u_then_v.terms ^ v_then_u.terms:
        by_monomial.setdefault(mono, set()).add(word)

    relations = {frozenset(words) for words in by_monomial.values() if words}
    return [AdemElement(words) for words in sorted(relations, key=_relation_key)]
