"""The mod-2 Steenrod algebra as a rewriting system.

A word ``(i1, ..., ik)`` of positive ints stands for the composite
operation Sq^i1 ... Sq^ik; the empty word is the identity (Sq^0 is
never stored).  An :class:`AdemElement` is a formal F2-sum of words.
A word is admissible when every adjacent pair satisfies ``i >= 2*j``;
:func:`normalize` multiplies each word onto the identity one square at
a time, rewriting with the Adem rule the one pair that can break
admissibility, so the sum ends up supported on admissible words only.

Nothing in this module evaluates the operations on anything; the
polynomial action in :mod:`steenrod.poly` is kept fully independent so
it can serve as an oracle for the rewriting done here.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from .f2 import F2Sum, adem_coeff

Word = tuple[int, ...]

#: Rewrite steps allowed per normalize() call before giving up.  A
#: rewrite of Sq^a Sq^b costs a // 2 + 1 steps, the length of the Adem
#: sum it expands, whether or not that expansion is cached.  A word is
#: multiplied onto the identity one square at a time, so only the pair
#: (last square of an admissible word, new square) is ever rewritten.
#: Each product v Sq^a that needs a rewrite enters the shared
#: normal-form cache beside the element's own words, so it is charged
#: at most once until clear_caches(), and a later call that needs it
#: again gets it free.  Adem rewriting terminates, so the budget only
#: turns a regression or a huge square into a reported error instead
#: of a hang.
DEFAULT_STEP_BUDGET = 10**6


class StepBudgetExceeded(RuntimeError):
    """Normalization spent more rewrite steps than its budget allows."""


def degree(word: Word) -> int:
    """Total degree of a word: the sum of its exponents."""
    return sum(word)


def excess(word: Word) -> int:
    """Leading exponent minus the rest, floored at 0.

    An admissible word acts as zero on every class of degree below its
    excess.
    """
    if not word:
        return 0
    return max(0, word[0] - sum(word[1:]))


def is_admissible(word: Word) -> bool:
    """True iff every adjacent pair satisfies i_j >= 2 * i_{j+1}."""
    return all(i >= 2 * j for i, j in zip(word, word[1:]))


def word_key(word: Word) -> tuple[int, int, Word]:
    """Canonical sort key for words: degree, then length, then exponents."""
    return (sum(word), len(word), word)


@lru_cache(maxsize=None)
def adem_rewrite(a: int, b: int) -> frozenset[Word]:
    """Expand the inadmissible pair Sq^a Sq^b as an F2-sum of words.

    Requires ``1 <= a < 2*b``; rewriting an admissible pair is a
    contract error.  The c = 0 term drops its trailing Sq^0, so the
    result consists of words of length 1 or 2, all of degree a + b.
    Expansions are cached for the life of the process (errors are not).
    """
    if not 1 <= a < 2 * b:
        raise ValueError(f"Sq{a} Sq{b} is not an inadmissible pair (need 1 <= a < 2b)")
    words = set()
    for c in range(a // 2 + 1):
        if adem_coeff(a, b, c):
            words.add((a + b - c,) if c == 0 else (a + b - c, c))
    return frozenset(words)


class AdemElement(F2Sum):
    """A formal F2-sum of Sq-words, not necessarily admissible.

    Mixed-degree sums are allowed; all contracts that mention degree
    apply per homogeneous component.
    """

    __slots__ = ()
    words = F2Sum.terms

    @staticmethod
    def zero() -> "AdemElement":
        return _ZERO

    @staticmethod
    def one() -> "AdemElement":
        """The identity operation (the empty word)."""
        return _ONE

    def is_admissible(self) -> bool:
        return all(is_admissible(w) for w in self.words)

    _term_key = staticmethod(word_key)

    @staticmethod
    def _term_text(word: Word) -> str:
        return "Sq" + " Sq".join(map(str, word)) if word else "1"

    sorted_words = F2Sum.sorted_terms

    def __mul__(self, other: "AdemElement") -> "AdemElement":
        return product(self, other)


_ZERO = AdemElement(frozenset())
_ONE = AdemElement(frozenset({()}))


def Sq(*exponents: int) -> AdemElement:
    """The single word Sq^i1 ... Sq^ik as an element; Sq() is the identity."""
    if any(i < 1 for i in exponents):
        raise ValueError("Sq exponents must be >= 1; write Sq() for the identity")
    return AdemElement(frozenset({tuple(exponents)}))


class _Budget:
    __slots__ = ("left",)

    def __init__(self, steps: int) -> None:
        self.left = steps

    def spend(self, steps: int) -> None:
        self.left -= steps
        if self.left < 0:
            raise StepBudgetExceeded(
                "normalization exceeded its rewrite step budget"
            )


# Normal forms of single words, shared across calls: the words of the
# elements passed to normalize(), and each product v Sq^a of an
# admissible word by a square whose pair (v[-1], a) had to be rewritten,
# under the word v + (a,) it is the normal form of.  Each entry is
# written once its normal form is complete, so the cache never holds
# partial results and concurrent readers see consistent values.  Every
# zero normal form is the one shared _EMPTY.
_NF_CACHE: dict[Word, frozenset[Word]] = {}
_EMPTY: frozenset[Word] = frozenset()


def _times_square(v: Word, a: int, budget: _Budget) -> frozenset[Word]:
    """The normal form of v Sq^a for an admissible v with v[-1] < 2a.

    Its Adem rewrite is charged once and cached on v + (a,).
    """
    word = v + (a,)
    nf = _NF_CACHE.get(word)
    if nf is None:
        budget.spend(v[-1] // 2 + 1)
        acc: set[Word] = set()
        for t in adem_rewrite(v[-1], a):
            acc ^= _times_word(v[:-1], t, budget)
        nf = _NF_CACHE[word] = frozenset(acc) or _EMPTY
    return nf


def _times_word(v: Word, word: Word, budget: _Budget) -> set[Word]:
    """The normal form of v Sq^word for an admissible word v, one square at a time."""
    acc = {v}
    for a in word:
        step: set[Word] = set()
        for u in acc:
            if not u or u[-1] >= 2 * a:  # u Sq^a is admissible
                w = u + (a,)
                if w in step:
                    step.remove(w)
                else:
                    step.add(w)
            else:
                step ^= _times_square(u, a, budget)
        acc = step
    return acc


def normalize(element: AdemElement, *, step_budget: int = DEFAULT_STEP_BUDGET) -> AdemElement:
    """Rewrite an element onto the admissible basis.

    Idempotent and degree-preserving; represents the same operation as
    the input (checked empirically against the polynomial action).
    Raises :class:`StepBudgetExceeded` when the budget runs out.
    """
    budget = _Budget(step_budget)
    acc: set[Word] = set()
    for word in element.words:
        nf = _NF_CACHE.get(word)
        if nf is None:
            nf = _NF_CACHE[word] = frozenset(_times_word((), word, budget)) or _EMPTY
        acc ^= nf
    return AdemElement(frozenset(acc))


def product(left: AdemElement, right: AdemElement) -> AdemElement:
    """Concatenate all word pairs mod 2, then normalize."""
    acc: set[Word] = set()
    for w1 in left.words:
        for w2 in right.words:
            acc ^= {w1 + w2}
    return normalize(AdemElement(frozenset(acc)))


def _admissible_tails(total: int, max_first: int) -> Iterator[Word]:
    if total == 0:
        yield ()
        return
    # An admissible word starting with Sq^f has degree at most
    # f + f/2 + f/4 + ... < 2f, so its rest has degree at most f - 1.
    # A first square below (total + 2) // 2 would leave more than that.
    for first in range((total + 2) // 2, min(total, max_first) + 1):
        for rest in _admissible_tails(total - first, first // 2):
            yield (first,) + rest


def admissible_basis(d: int) -> list[Word]:
    """All admissible words of degree d, in canonical order.

    These form an F2-basis of the degree-d part of the Steenrod
    algebra; admissible_basis(0) is [()].
    """
    if d < 0:
        raise ValueError("degree must be a natural number")
    return sorted(_admissible_tails(d, d), key=word_key)
