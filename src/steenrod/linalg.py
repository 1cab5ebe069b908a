"""GF(2) rank of vectors given as sets of basis terms."""

from __future__ import annotations

from collections.abc import Hashable, Iterable


def rank_f2(rows: Iterable[Iterable[Hashable]]) -> int:
    """Rank over GF(2) of vectors, each given as the set of basis terms it contains.

    A row is any iterable of hashable terms, as an F2-sum stores them; a
    term listed twice cancels.  Columns are numbered in first-seen
    order, which the rank does not depend on, and each row is reduced
    as an int bitmask by Gaussian elimination.
    """
    columns: dict[Hashable, int] = {}
    pivots: dict[int, int] = {}
    rank = 0
    for terms in rows:
        row = 0
        for term in terms:
            row ^= 1 << columns.setdefault(term, len(columns))
        while row:
            lead = row.bit_length() - 1
            if lead in pivots:
                row ^= pivots[lead]
            else:
                pivots[lead] = row
                rank += 1
                break
    return rank
