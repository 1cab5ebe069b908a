"""The GF(2) rank of vectors given as sets of basis terms."""

import random

import pytest

from steenrod.linalg import rank_f2


def test_empty_input_has_rank_zero():
    assert rank_f2([]) == 0
    assert rank_f2(iter(())) == 0


def test_zero_rows_add_nothing():
    assert rank_f2([frozenset(), set(), ()]) == 0
    assert rank_f2([{"a"}, frozenset(), {"b"}]) == 2


def test_repeated_rows_count_once():
    assert rank_f2([{"a", "b"}, {"a", "b"}, {"b", "a"}]) == 1
    assert rank_f2([{"a", "b"}, {"b", "c"}, {"a", "c"}]) == 2  # the third is the sum of the first two


def test_terms_may_be_strings_or_tuples():
    assert rank_f2([{"x1"}, {"x1", "x3"}, {"x3"}]) == 2
    assert rank_f2([{(2, 1), (3,)}, {(3,)}, {(1, 2)}]) == 3
    assert rank_f2([{((1, 2),), ((1, 1), (2, 1))}, {((1, 2),)}]) == 2


def test_a_term_listed_twice_cancels():
    assert rank_f2([["a", "a"]]) == 0
    assert rank_f2([["a", "b", "a"], {"b"}]) == 1


@pytest.mark.parametrize("seed", range(20))
def test_rank_equals_the_rank_of_the_transpose(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(0, 9), rng.randint(0, 9)
    matrix = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
    as_rows = [{j for j in range(cols) if matrix[i][j]} for i in range(rows)]
    as_columns = [{f"r{i}" for i in range(rows) if matrix[i][j]} for j in range(cols)]
    rank = rank_f2(as_rows)
    assert rank == rank_f2(as_columns)
    assert rank <= min(rows, cols)
