"""The number of checks that verify_axioms counts, in closed form.

:func:`steenrod.modules.verify_axioms` counts checks it does not
evaluate, so its ``checks`` depend only on the table sizes and the
generator degrees.  :func:`predicted_checks` adds them up pass by pass
without evaluating any, and the tests hold the report to it.
"""

from __future__ import annotations

from collections import Counter

from steenrod.modules import GradedModule


def predicted_checks(module: GradedModule, max_degree: int) -> int:
    """Checks of ``verify_axioms(module, max_degree)``, read off the tables."""
    degrees = [d for _, d in module.generators if d <= max_degree]
    table = len(module.sq) + len(module.products)
    identity_and_top = 2 * len(degrees)
    cartan = sum(
        dg + dh
        for a, dg in enumerate(degrees)
        for dh in degrees[a:]
        if dg + dh <= max_degree
    )
    additivity = 12 * sum(1 for count in Counter(degrees).values() if count >= 2)
    inadmissible_pairs = sum(
        1 for k in range(1, max_degree) for n in range(1, 2 * k) if n + k <= max_degree
    )
    return table + identity_and_top + cartan + additivity + inadmissible_pairs * len(degrees)
