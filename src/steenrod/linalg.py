"""Small GF(2) linear algebra helpers on int bitmask rows."""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def rank_f2(rows: Iterable[int]) -> int:
    """Rank over GF(2) of a set of rows encoded as int bitmasks."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead in pivots:
                row ^= pivots[lead]
            else:
                pivots[lead] = row
                rank += 1
                break
    return rank


def matrix_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over GF(2) of a 0/1 matrix given as a list of rows."""
    rows = []
    for row in matrix:
        mask = 0
        for j, entry in enumerate(row):
            if entry & 1:
                mask |= 1 << j
        rows.append(mask)
    return rank_f2(rows)
