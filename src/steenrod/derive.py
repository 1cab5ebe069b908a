"""Re-deriving the Adem relations from the double total square.

Take a generic class ``a`` of degree m and two auxiliary degree-1
variables u and v.  Squaring totally against u and then against v, or
in the other order, must give the same answer: squaring all copies of
a class is symmetric in the two directions.  Identifying the
coefficient of each bimonomial ``u^p v^q`` in the two orders therefore
forces F2-sums of composite squares to vanish.  Those sums are
returned as raw :class:`AdemElement` values, never normalized, so the
relations are genuinely forced by the expansion rather than assumed.

The expansion has a closed form.  The total square T_v sends u to
uv + u^2, and Sq^r vanishes above the degree of its argument
(instability), so

    T_v T_u a = sum_i sum_j Sq^j Sq^i a * v^(m+i-j) * (uv + u^2)^(m-i)

over 0 <= i <= m and 0 <= j <= m + i, the shape of the
Bullett-Macdonald identity at a fixed source degree.  By Lucas,
(uv + u^2)^e = sum u^(e+k) v^(e-k) over the binary submasks k of e.
The other order is the same sum with u and v exchanged.

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

from .adem import AdemElement, Word, normalize, word_key
from .f2 import Record, binom_mod2
from .poly import act_on_squarefree


def _relation_key(words: frozenset[Word]) -> tuple:
    keys = sorted(word_key(w) for w in words)
    return (keys[0][0], len(keys), keys)


def derive_adem_relations(m: int) -> list[AdemElement]:
    """All operator relations forced on degree-m classes by the expansion.

    Sums T_v T_u a for a generic degree-m class a in closed form and
    collects, for every bimonomial u^p v^q where it differs from
    T_u T_v a, the F2-sum of words that must therefore vanish on K_m.
    Duplicate relations are merged; each returned element is a
    homogeneous sum of words of length at most 2.
    """
    if m < 0:
        raise ValueError("symbol degree must be a natural number")
    words_at: dict[tuple[int, int], set[Word]] = {}
    for i in range(m + 1):
        e = m - i
        submasks = [k for k in range(e + 1) if binom_mod2(e, k)]
        for j in range(m + i + 1):
            word = tuple(r for r in (j, i) if r)
            for k in submasks:
                words_at.setdefault((e + k, 2 * m - j - k), set()).symmetric_difference_update((word,))
    relations = {frozenset(words ^ words_at.get((q, p), set())) for (p, q), words in words_at.items()}
    relations.discard(frozenset())
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
