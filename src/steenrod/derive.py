"""Re-deriving the Adem relations from the double total square.

Take a generic class ``a`` of degree m and two auxiliary degree-1
variables u and v.  Squaring totally against u and then against v, or
in the other order, must give the same answer: squaring all copies of
a class is symmetric in the two directions.  Expanding both orders
with the Cartan formula and identifying the coefficient of each
bimonomial ``u^s v^r`` therefore forces F2-sums of composite squares
to vanish.  Those sums are returned as raw :class:`AdemElement`
values.

Bookkeeping rules used by the expansion:

* operator words applied to ``a`` are kept raw, never normalized, so
  the relations are genuinely forced by the expansion rather than
  assumed;
* the total square T is multiplicative: T(Sq_w(a) * mono) is
  T(Sq_w(a)) * T(mono), with T(mono) the polynomial total square in u
  and v, and T(Sq_w(a)) prepends Sq^r only for r up to the degree of
  Sq_w(a) (instability).

Because the expansion happens at a fixed source degree m, instability
is part of the arithmetic.  The emitted relations hold on every
degree-m class; most also hold in every degree, but some are
degree-m-only facts (for example Sq1 Sq2 vanishes on degree-2
classes), and those normalize to a nonzero admissible sum whose
words all have excess above m.

:func:`certify_relations` attaches two independent certificates to
each relation: its normal form under Adem rewriting, and its value
under the Cartan action on the squarefree class t1...tm, taken in the
orbit basis of symmetric polynomials.
"""

from __future__ import annotations

from .adem import AdemElement, Word, degree, normalize, word_key
from .f2 import F2Sum, Record, common_degree
from .poly import Monomial, PolyElement, act_on_squarefree, monomial_degree, monomial_mul, total_square

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


def _relation_key(words: frozenset[Word]) -> tuple:
    keys = sorted(word_key(w) for w in words)
    return (keys[0][0], len(keys), keys)


def derive_adem_relations(m: int) -> list[AdemElement]:
    """All operator relations forced on degree-m classes by the expansion.

    Expands the two double total squares of a generic degree-m symbol
    and collects, for every bimonomial u^s v^r where the two sides
    disagree, the F2-sum of words that must therefore vanish on K_m.
    Duplicate relations are merged; each returned element is a
    homogeneous sum of words of length at most 2.
    """
    base = SymbolicClass.generic(m)
    u_then_v = total_square_symbolic(total_square_symbolic(base, U), V)
    v_then_u = total_square_symbolic(total_square_symbolic(base, V), U)

    by_monomial: dict[Monomial, set[Word]] = {}
    for word, mono in u_then_v.terms ^ v_then_u.terms:
        by_monomial.setdefault(mono, set()).add(word)

    relations = {frozenset(words) for words in by_monomial.values() if words}
    return [AdemElement(words) for words in sorted(relations, key=_relation_key)]


def vanishes_on_degree(element: AdemElement, m: int) -> bool:
    """Whether the element acts as zero on every class of degree m.

    Evaluates the element once, through the Cartan action, on the
    squarefree class t1...tm.  That one evaluation decides every
    degree-m class: admissible words of excess above m kill all of
    them, and the Sq^I(t1...tm) with I admissible of excess at most m
    are linearly independent (Steenrod-Epstein, ch. I).  The image is
    symmetric and is evaluated in the orbit basis
    (:func:`steenrod.poly.act_on_squarefree`), where it is zero exactly
    when it is zero as a polynomial.
    """
    if m < 0:
        raise ValueError("degree must be a natural number")
    return not act_on_squarefree(element.words, m)


class RelationCertificate(Record):
    """A derived relation with its normal form and its action verdict."""

    __slots__ = ("relation", "normal_form", "vanishes_on_degree_m_classes")

    @property
    def normalizes_to_zero(self) -> bool:
        return self.normal_form.is_zero()

    def as_dict(self) -> dict:
        return {
            "relation": str(self.relation),
            "words": [list(w) for w in self.relation.sorted_words()],
            "normal_form": str(self.normal_form),
            "normalizes_to_zero": self.normalizes_to_zero,
            "vanishes_on_degree_m_classes": self.vanishes_on_degree_m_classes,
        }


def certify_relations(m: int) -> list[RelationCertificate]:
    """The relations forced on degree-m classes, each with its certificates."""
    return [
        RelationCertificate(relation, normalize(relation), vanishes_on_degree(relation, m))
        for relation in derive_adem_relations(m)
    ]
