"""Rewriting engine: admissibility, Adem expansion, normalization, basis."""

import itertools
import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steenrod
from steenrod import adem
from steenrod.adem import (
    AdemElement,
    Sq,
    StepBudgetExceeded,
    adem_rewrite,
    admissible_basis,
    degree,
    excess,
    is_admissible,
    normalize,
    product,
)

from adem_helpers import reference_admissible_basis, reference_normalize

words = st.lists(st.integers(1, 9), max_size=5).map(tuple)
elements = st.frozensets(words, max_size=4).map(AdemElement)


def all_compositions(d: int):
    """Every word of degree d (oracle: binary cut positions)."""
    if d == 0:
        yield ()
        return
    for cuts in itertools.product([0, 1], repeat=d - 1):
        word = []
        part = 1
        for cut in cuts:
            if cut:
                word.append(part)
                part = 1
            else:
                part += 1
        word.append(part)
        yield tuple(word)


def test_degree_and_excess_examples():
    assert degree(()) == 0
    assert degree((3,)) == 3
    assert degree((3, 1)) == 4
    assert excess(()) == 0
    assert excess((7,)) == 7
    assert excess((2, 1)) == 1
    assert excess((3, 1)) == 2
    assert excess((1, 3)) == 0  # floored at zero


def test_is_admissible_examples():
    assert is_admissible((2, 1))
    assert not is_admissible((3, 2))
    assert is_admissible(())
    assert is_admissible((4, 2, 1))
    assert not is_admissible((4, 2, 2))


def test_adem_rewrite_examples():
    assert adem_rewrite(1, 1) == frozenset()
    assert adem_rewrite(1, 2) == frozenset({(3,)})
    assert adem_rewrite(2, 2) == frozenset({(3, 1)})
    assert adem_rewrite(3, 2) == frozenset()


def test_adem_rewrite_words_are_homogeneous():
    for a in range(1, 10):
        for b in range(max(1, a // 2 + 1), 10):
            if a >= 2 * b:
                continue
            for word in adem_rewrite(a, b):
                assert degree(word) == a + b
                assert all(i >= 1 for i in word)
                assert len(word) in (1, 2)


def test_adem_rewrite_rejects_admissible_pairs():
    with pytest.raises(ValueError):
        adem_rewrite(2, 1)
    with pytest.raises(ValueError):
        adem_rewrite(0, 3)


def test_normalize_examples():
    assert normalize(Sq(1, 1)).is_zero()
    assert normalize(Sq(2, 2)) == Sq(3, 1)
    assert normalize(Sq(2, 1)) == Sq(2, 1)
    assert normalize(Sq(1, 1, 1)).is_zero()


def test_normalize_result_is_admissible():
    for word in all_compositions(9):
        assert normalize(AdemElement(frozenset({word}))).is_admissible()


@settings(max_examples=300)
@given(elements)
def test_normalize_idempotent(e):
    once = normalize(e)
    assert normalize(once) == once


@given(words)
def test_normalize_preserves_degree(word):
    for out in normalize(AdemElement(frozenset({word}))).words:
        assert degree(out) == degree(word)


def test_normalize_step_budget():
    # Earlier calls may have paid for the products of its prefixes.
    steenrod.clear_caches()
    with pytest.raises(StepBudgetExceeded):
        normalize(Sq(5, 9, 13, 7), step_budget=1)
    # the failed call must not poison later ones
    assert normalize(Sq(5, 9, 13, 7)).is_admissible()
    assert normalize(Sq(5, 9, 13, 7)) == reference_normalize(Sq(5, 9, 13, 7))


def test_normalize_reuses_a_product_paid_for_once():
    # normalize(Sq6 Sq4) caches the product Sq6 * Sq4 = Sq7 Sq3, so
    # Sq6 Sq4 Sq1 needs no rewrite: Sq7 Sq3 Sq1 is admissible.
    steenrod.clear_caches()
    normalize(Sq(6, 4))
    assert normalize(Sq(6, 4, 1), step_budget=0) == Sq(7, 3, 1)
    steenrod.clear_caches()
    with pytest.raises(StepBudgetExceeded):
        normalize(Sq(6, 4, 1), step_budget=0)


def test_normalize_caches_only_true_normal_forms():
    # The cache holds the element's words and the products of admissible
    # words by squares; a call that runs out of budget part-way must
    # leave only complete entries.  Zero entries share one empty set.
    rng = random.Random(3)
    steenrod.clear_caches()
    for _ in range(200):
        normalize(Sq(*(rng.randint(1, 24) for _ in range(rng.randint(1, 6)))))
    before = len(adem._NF_CACHE)
    with pytest.raises(StepBudgetExceeded):
        normalize(Sq(40, 33, 27, 21, 30, 17), step_budget=200)
    assert len(adem._NF_CACHE) > before > 200
    for word, nf in adem._NF_CACHE.items():
        assert nf or nf is adem._EMPTY
        assert AdemElement(nf) == reference_normalize(AdemElement(frozenset({word}))), word


def test_normalize_charges_each_rewrite_its_length():
    # Rewriting Sq^a Sq^b loops a // 2 + 1 times; charging one step per
    # rewrite let this single rewrite run for about 7 s under the default
    # budget.  The charge is the same whether the expansion is cached.
    start = time.perf_counter()
    for _ in range(2):
        with pytest.raises(StepBudgetExceeded):
            normalize(Sq(40000000, 40000000))
    assert time.perf_counter() - start < 1
    steenrod.clear_caches()
    with pytest.raises(StepBudgetExceeded):
        normalize(Sq(6, 4), step_budget=3)  # one rewrite, Sq6 Sq4 = Sq7 Sq3: 4 steps
    assert normalize(Sq(6, 4), step_budget=4) == Sq(7, 3)
    with pytest.raises(StepBudgetExceeded):
        normalize(Sq(20, 6, 4), step_budget=3)  # adem_rewrite(6, 4) is cached now
    assert normalize(Sq(20, 6, 4), step_budget=4) == Sq(20, 7, 3)


def test_normalize_exhausts_the_budget_in_bounded_time():
    # Multiplying one square at a time does uncharged work (appending a
    # square that keeps a word admissible, reusing a memoized product)
    # between rewrites; on this word it spends the default budget in about
    # 1 s on a 2-vCPU Xeon VM.
    word = (232, 98, 95, 244, 96, 49, 229, 156, 73, 47, 22, 203, 232, 81, 8, 33, 31, 19, 98, 124, 16, 238, 168, 226, 101, 120, 151, 256, 3, 44)
    steenrod.clear_caches()
    start = time.perf_counter()
    with pytest.raises(StepBudgetExceeded):
        normalize(Sq(*word))
    assert time.perf_counter() - start < 5


def test_normalize_of_a_large_sum_takes_linear_time():
    # Accumulating the normal forms in a frozenset copies the whole sum
    # at every word (3.6 s on a 2-vCPU Xeon VM); a set takes 0.03 s.
    element = AdemElement(frozenset((i,) for i in range(1, 16001)))
    start = time.perf_counter()
    assert normalize(element) == element
    assert time.perf_counter() - start < 2


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(1, 64), max_size=12).map(tuple))
def test_normalize_matches_the_worklist_oracle(word):
    # Wherever the worklist finishes within the default budget, normalize
    # must finish too (a StepBudgetExceeded here fails the test) and agree.
    steenrod.clear_caches()
    try:
        expected = reference_normalize(Sq(*word))
    except StepBudgetExceeded:
        return
    steenrod.clear_caches()
    assert normalize(Sq(*word)) == expected


def _in_thread_under_recursion_limit(limit, check):
    # A new thread starts with almost no frames on its stack, so the limit
    # bounds the call depth of check() itself.
    errors = []

    def run():
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(limit)
        try:
            check()
        except BaseException as exc:
            errors.append(exc)
        finally:
            sys.setrecursionlimit(old)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    if errors:
        raise errors[0]


def test_long_words_need_no_call_depth():
    # normalize multiplies the squares of a word onto the identity in a
    # loop, so the length of a word costs no call depth.  Calls nest only
    # while the Adem terms of one pair (last square of an admissible word,
    # new square) are multiplied back onto the rest of that word, all in
    # the word's degree D; on every word tried the nesting stayed within
    # D.bit_length() (13 for the 165 powers of two below: blocks
    # Sq^2^k ... Sq^2^s for 0 <= s <= k <= 8).  The 35-square word of
    # degree 201 ran out of the default budget when each word's first
    # inadmissible pair was rewritten (about 10^7 steps needed).
    word = tuple(2**i for k in range(9) for s in range(k + 1) for i in range(k, s - 1, -1))
    expected = Sq(*(k * 2 ** (k + 1) + 1 for k in range(8, -1, -1)))
    stacked = (16, 8, 16, 4, 8, 16, 2, 4, 8, 16, 1, 2, 4, 8, 16, 8, 4, 8, 2, 4, 8, 1, 2, 4, 8, 4, 2, 4, 1, 2, 4, 2, 1, 2, 1)
    rng = random.Random(0)
    # Each seeded word lies in the subalgebra generated by Sq1 .. Sq16,
    # which is zero above degree 201, so its normal form is zero.
    seeded = [tuple(rng.randint(1, 16) for _ in range(1100)) for _ in range(3)]

    def check():
        steenrod.clear_caches()
        assert normalize(Sq(*word)) == expected
        steenrod.clear_caches()
        assert normalize(Sq(*stacked)) == Sq(129, 49, 17, 5, 1)
        for long_word in [(1, 2) * 550, (4, 3, 2, 1) * 275, tuple(range(1, 1101)), *seeded]:
            steenrod.clear_caches()
            assert normalize(Sq(*long_word)).is_zero()
        steenrod.clear_caches()
        with pytest.raises(StepBudgetExceeded):
            normalize(Sq(*range(1100, 0, -1)))

    steenrod.clear_caches()  # imports every layer before the limit drops
    _in_thread_under_recursion_limit(50, check)
    steenrod.clear_caches()
    assert reference_normalize(Sq(*word)) == expected


def test_product_examples():
    assert product(Sq(1), Sq(1)).is_zero()
    assert product(Sq(1), Sq(2)) == Sq(3)
    e = AdemElement(frozenset({(2, 1), (3,)}))
    assert product(AdemElement.one(), e) == normalize(e)
    assert Sq(1) * Sq(2) == Sq(3)


def test_product_distributes_and_cancels():
    e = Sq(1) + Sq(1)
    assert e.is_zero()
    assert product(Sq(2) + Sq(2), Sq(1)).is_zero()


def test_admissible_basis_small():
    assert admissible_basis(0) == [()]
    assert admissible_basis(1) == [(1,)]
    assert admissible_basis(3) == [(3,), (2, 1)]
    assert admissible_basis(5) == [(5,), (4, 1)]


def test_admissible_basis_against_enumeration_oracle():
    for d in range(11):
        expected = sorted(
            (w for w in all_compositions(d) if is_admissible(w)),
            key=lambda w: (len(w), w),
        )
        assert admissible_basis(d) == expected


def test_admissible_basis_matches_the_unpruned_enumeration():
    for d in range(81):
        assert admissible_basis(d) == reference_admissible_basis(d), d
    assert len(admissible_basis(112)) == 1751
    assert len(admissible_basis(256)) == 43727


def test_element_string_forms():
    assert str(AdemElement.zero()) == "0"
    assert str(AdemElement.one()) == "1"
    assert str(Sq(3) + Sq(2, 1)) == "Sq3 + Sq2 Sq1"
    assert str(AdemElement.one() + Sq(1)) == "1 + Sq1"


def test_sq_factory_rejects_zero():
    with pytest.raises(ValueError):
        Sq(0)
    with pytest.raises(ValueError):
        Sq(2, 0, 1)
