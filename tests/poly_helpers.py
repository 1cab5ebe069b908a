"""Polynomial helpers that only the tests use.

They build small oracles on top of the public polynomial API: the
square of a single power, renaming a variable, two identities of the
total square, and the monomial-basis evaluations on the squarefree
class t1...tm that the orbit basis replaced in the library.
"""

from steenrod.adem import AdemElement, admissible_basis
from steenrod.f2 import binom_mod2
from steenrod.linalg import rank_f2
from steenrod.poly import PolyElement, _act_monomial, act, cup, make_monomial, total_square, variable


def sq_on_power(var: int, power: int, n: int) -> PolyElement:
    """Sq^n on the single power t_var^power: C(power, n) t_var^(power+n)."""
    if var < 1:
        raise ValueError("variables are indexed from 1")
    if power < 0 or n < 0:
        raise ValueError("power and square index must be naturals")
    if binom_mod2(power, n) == 0:
        return PolyElement.zero()
    return PolyElement(frozenset({make_monomial({var: power + n})}))


def substitute(p: PolyElement, old: int, new: int) -> PolyElement:
    """Rename the variable ``old`` to ``new``, merging exponents."""
    acc: frozenset = frozenset()
    for mono in p.monomials:
        exps = dict(mono)
        if old in exps:
            e = exps.pop(old)
            exps[new] = exps.get(new, 0) + e
        acc ^= {tuple(sorted(exps.items()))}
    return PolyElement(acc)


def check_total_sq_multiplicative(p: PolyElement, q: PolyElement) -> bool:
    """Whether the total square of a product is the product of total squares."""
    fresh = max(p.variables() | q.variables(), default=0) + 1
    return total_square(cup(p, q), fresh) == cup(
        total_square(p, fresh), total_square(q, fresh)
    )


def check_tautological_vanishing(k: int) -> bool:
    """Substituting the companion variable back into the total square kills it.

    For each generator t of F2[t1..tk], total_square(t, u) = t*u + t^2,
    and setting u := t gives t^2 + t^2 = 0.  True for k = 0 (empty
    conjunction).
    """
    fresh = k + 1
    for j in range(1, k + 1):
        image = substitute(total_square(variable(j), fresh), fresh, j)
        if not image.is_zero():
            return False
    return True


def reference_faithful_rank(d: int) -> int:
    """Rank of the admissible-basis action on the squarefree class t1...td.

    Rows are act(w, t1*...*td) for w in the degree-d admissible basis,
    expressed in the monomial basis of the target degree.  Comparing
    against the basis size gives an empirical faithfulness check.
    """
    if d < 0:
        raise ValueError("degree must be a natural number")
    return rank_f2([_act_monomial(word, (1,) * d) for word in admissible_basis(d)])


def reference_vanishes_on_degree(element: AdemElement, m: int) -> bool:
    """Whether the element acts as zero on every class of degree m.

    Evaluates the element once, through the Cartan action, on the
    squarefree class t1...tm.  That one evaluation decides every
    degree-m class: admissible words of excess above m kill all of
    them, and the Sq^I(t1...tm) with I admissible of excess at most m
    are linearly independent (Steenrod-Epstein, ch. I).
    """
    if m < 0:
        raise ValueError("degree must be a natural number")
    squarefree = PolyElement(frozenset({tuple((j, 1) for j in range(1, m + 1))}))
    return act(element, squarefree).is_zero()
