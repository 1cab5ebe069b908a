"""The worklist normalizer that the tests use as an oracle.

:func:`steenrod.adem.normalize` multiplies each word onto the identity
one square at a time: every partial product is a sum of admissible
words, so only the pair (last square of an admissible word, new square)
is ever rewritten, and each product it rewrites is cached until
``steenrod.clear_caches()``, so it is charged at most once across calls.
The normalizer here rewrites whole words instead and keeps a working
sum: admissible words are folded into the result, other words wait in
a pending set (a second copy cancels the first), and the first
inadmissible pair of the largest pending word is rewritten next.  It
charges each rewrite the same ``a // 2 + 1`` steps, but may rewrite a
word more than once, so it can run out of budget where ``normalize``
finishes.

:func:`reference_admissible_basis` enumerates admissible words by
trying every first square from 1 up, the search that
:func:`steenrod.adem.admissible_basis` prunes by degree.
"""

from __future__ import annotations

from collections.abc import Iterator

from steenrod.adem import (
    DEFAULT_STEP_BUDGET,
    AdemElement,
    Word,
    _Budget,
    adem_rewrite,
    is_admissible,
    word_key,
)


def _first_inadmissible(word: Word) -> int | None:
    for j in range(len(word) - 1):
        if word[j] < 2 * word[j + 1]:
            return j
    return None


def _reference_word_normal_form(word: Word, budget: _Budget, cache: dict[Word, frozenset[Word]]) -> frozenset[Word]:
    cached = cache.get(word)
    if cached is not None:
        return cached

    admissible: set[Word] = set()
    pending: set[Word] = set()

    def fold(w: Word) -> None:
        # Cancellation against a pending copy comes first, so the branch
        # taken for a repeated word never depends on cache timing.
        if w in pending:
            pending.remove(w)
            return
        nf = cache.get(w)
        if nf is not None:
            admissible.symmetric_difference_update(nf)
        elif is_admissible(w):
            admissible.symmetric_difference_update((w,))
        else:
            pending.add(w)

    fold(word)
    while pending:
        w = max(pending)
        pending.remove(w)
        j = _first_inadmissible(w)
        budget.spend(w[j] // 2 + 1)
        for tail in adem_rewrite(w[j], w[j + 1]):
            fold(w[:j] + tail + w[j + 2 :])

    result = frozenset(admissible)
    cache[word] = result
    return result


def reference_normalize(element: AdemElement, *, step_budget: int = DEFAULT_STEP_BUDGET) -> AdemElement:
    """The worklist normal form; its cache lives for this call only."""
    budget = _Budget(step_budget)
    cache: dict[Word, frozenset[Word]] = {}
    acc: set[Word] = set()
    for word in element.words:
        acc ^= _reference_word_normal_form(word, budget, cache)
    return AdemElement(frozenset(acc))


def _reference_tails(total: int, max_first: int) -> Iterator[Word]:
    if total == 0:
        yield ()
        return
    for first in range(1, min(total, max_first) + 1):
        for rest in _reference_tails(total - first, first // 2):
            yield (first,) + rest


def reference_admissible_basis(d: int) -> list[Word]:
    """All admissible words of degree d, every first square tried."""
    return sorted(_reference_tails(d, d), key=word_key)
