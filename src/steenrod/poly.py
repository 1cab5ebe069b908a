"""The Cartan-formula action on mod-2 polynomial algebras.

``F2[t1..tk]`` models the cohomology of a product of k infinite real
projective spaces: every variable sits in degree 1, and the action of
the squares is forced by Sq(t) = t + t^2 together with the Cartan
formula.  A monomial is a sorted tuple of ``(variable, exponent)``
pairs with positive exponents; a :class:`PolyElement` is a formal
F2-sum of monomials.  Tuples are the public form: parsing, printing
and every function here take and return them.

The action kernel sees exponent vectors, not variable names, so
``t3*t7`` and ``t1*t2`` share its cache entries.  ``_act_monomial``
caches the images of a word on an exponent tuple.  On a miss it packs
the exponents into fixed-width fields of one int, the first in the
lowest bits, and folds the word through ``_sq_monomial``, which caches
one square on a packed monomial.  The width (8, 16, 32, ... bits) is
the narrowest that holds the largest exponent plus the degree of the
word; a square only raises exponents, by at most its degree in total,
so no field can overflow and exponents have no size limit.

Symmetric classes are kept in the orbit basis.  Squares commute with
permuting variables, and Sq^i(t^(2^j)) is nonzero only for i in
{0, 2^j}, so every image of the squarefree class t1...tm is a sum of
m_lam: the sum of the monomials in m variables with lam[j] exponents
2^j, for level counts lam.  :func:`act_on_squarefree` stores an image
as its set of lam, one entry per orbit where the monomial basis holds
up to m!.  The m_lam are linearly independent, so an image is zero,
and a set of images has a rank, exactly as in the monomial basis.

The action implemented here never touches the rewriting engine in
:mod:`steenrod.adem`.  That makes :func:`act` an independent oracle:
an element and its normal form must act identically.
"""

from __future__ import annotations

from functools import lru_cache, partial
from collections.abc import Iterable, Mapping, Sequence

from .adem import AdemElement, Sq, Word, admissible_basis
from .f2 import F2Sum, act_word, binom_mod2, common_degree
from .linalg import rank_f2

Monomial = tuple[tuple[int, int], ...]
#: Level counts of an orbit: lam[j] variables carry t^(2^j), no trailing zeros.
Orbit = tuple[int, ...]

#: Most terms :func:`total_square` expands an element into.
_MAX_TOTAL_SQUARE_TERMS = 1 << 16


def make_monomial(exponents: Mapping[int, int] | Iterable[tuple[int, int]]) -> Monomial:
    """Canonical monomial from a variable -> exponent mapping.

    Repeated variables merge by exponent addition; zero exponents are
    dropped.  Variables are indexed from 1.
    """
    merged: dict[int, int] = {}
    items = exponents.items() if isinstance(exponents, Mapping) else exponents
    for var, exp in items:
        if var < 1:
            raise ValueError("variables are indexed from 1")
        if exp < 0:
            raise ValueError("exponents must be naturals")
        if exp:
            merged[var] = merged.get(var, 0) + exp
    return tuple(sorted(merged.items()))


def monomial_degree(mono: Monomial) -> int:
    return sum(exp for _, exp in mono)


def monomial_mul(m1: Monomial, m2: Monomial) -> Monomial:
    merged = dict(m1)
    for var, exp in m2:
        merged[var] = merged.get(var, 0) + exp
    return tuple(sorted(merged.items()))


class PolyElement(F2Sum):
    """A formal F2-sum of monomials in F2[t1..tk]."""

    __slots__ = ()
    monomials = F2Sum.terms

    @staticmethod
    def zero() -> "PolyElement":
        return _P_ZERO

    @staticmethod
    def one() -> "PolyElement":
        return _P_ONE

    def variables(self) -> frozenset[int]:
        return frozenset(var for mono in self.monomials for var, _ in mono)

    def homogeneous_degree(self) -> int | None:
        """Common degree of all monomials; None for the zero element."""
        return common_degree(map(monomial_degree, self.monomials))

    @staticmethod
    def _term_key(mono: Monomial) -> tuple[int, tuple[tuple[int, int], ...]]:
        """Graded lexicographic order on exponent vectors."""
        return (monomial_degree(mono), tuple((var, -exp) for var, exp in mono))

    @staticmethod
    def _term_text(mono: Monomial) -> str:
        return "*".join(f"t{var}" if exp == 1 else f"t{var}^{exp}" for var, exp in mono) or "1"

    sorted_monomials = F2Sum.sorted_terms

    def __mul__(self, other: "PolyElement") -> "PolyElement":
        return cup(self, other)


_P_ZERO = PolyElement(frozenset())
_P_ONE = PolyElement(frozenset({()}))


def variable(index: int) -> PolyElement:
    """The degree-1 generator t_index."""
    if index < 1:
        raise ValueError("variables are indexed from 1")
    return PolyElement(frozenset({((index, 1),)}))


def cup(p: PolyElement, q: PolyElement) -> PolyElement:
    """Cup product: plain polynomial multiplication with mod-2 coefficients."""
    acc: set[Monomial] = set()
    for m1 in p.monomials:
        for m2 in q.monomials:
            acc ^= {monomial_mul(m1, m2)}
    return PolyElement(frozenset(acc))


def _field_width(bound: int) -> int:
    """Narrowest field width, 8 bits doubled as needed, holding ``bound``."""
    width = 8
    while bound >> width:
        width *= 2
    return width


def _pack(exps: Sequence[int], width: int) -> int:
    """Exponents in fixed-width fields of one int, the first in the lowest bits."""
    if width == 8:
        return int.from_bytes(bytes(exps), "little")
    packed = 0
    for exp in reversed(exps):
        packed = (packed << width) | exp
    return packed


def _fields(packed: int, width: int) -> Sequence[int]:
    """Exponent fields of a packed monomial, up to its last nonzero one."""
    if width == 8:
        return packed.to_bytes((packed.bit_length() + 7) >> 3, "little")
    mask = (1 << width) - 1
    return [(packed >> shift) & mask for shift in range(0, packed.bit_length(), width)]


@lru_cache(maxsize=None)
def _sq_monomial(width: int, n: int, packed: int) -> frozenset[int]:
    # Cartan convolution of Sq^n across the exponent fields, slot by
    # slot.  On a single power, Sq^i(t^e) = C(e, i) t^(e+i), and C(e, i)
    # is odd exactly when i is a submask of e, so only those i are
    # tried; instability falls out of the binomials.  Partial images
    # are grouped by the part of n still to place, and a group dies
    # when the fields left cannot absorb it.  Distinct splits of n land
    # on distinct exponent vectors, so no cancellation happens here.
    if n == 0:
        return frozenset((packed,))
    exps = _fields(packed, width)
    left = sum(exps)
    if n > left:
        return frozenset()
    done: list[int] = []
    groups = {n: [packed]}
    shift = 0
    for e in exps:
        left -= e
        if e:
            carried: dict[int, list[int]] = {}
            for rest, images in groups.items():
                low = rest - left
                top = e & ((1 << rest.bit_length()) - 1)
                i = top
                while i >= low:
                    if i <= rest:
                        step = i << shift
                        moved = [image + step for image in images] if i else images
                        if i == rest:
                            done += moved
                        else:
                            bucket = carried.get(rest - i)
                            carried[rest - i] = moved if bucket is None else bucket + moved
                    if not i:
                        break
                    i = (i - 1) & top
            groups = carried
        shift += width
    return frozenset(done)


@lru_cache(maxsize=None)
def _act_monomial(word: Word, exps: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    # Squares never lower an exponent, so every image has len(exps) fields.
    width = _field_width(max(exps, default=0) + sum(word))
    images = act_word(word, frozenset((_pack(exps, width),)), partial(_sq_monomial, width))
    return frozenset(tuple(_fields(image, width)) for image in images)


def act(element: AdemElement, p: PolyElement) -> PolyElement:
    """Apply a sum of Sq-words to a polynomial, rightmost square first.

    Composition is evaluated square by square through the Cartan
    action; the rewriting engine is never consulted.
    """
    words = element.words
    acc: set[Monomial] = set()
    for mono in p.monomials:
        variables, exps = zip(*mono) if mono else ((), ())
        for word in words:
            images = _act_monomial(word, exps)
            if images:
                acc.symmetric_difference_update(tuple(zip(variables, image)) for image in images)
    return PolyElement(frozenset(acc))


def sq(n: int, p: PolyElement) -> PolyElement:
    """Sq^n of a polynomial: the identity for n = 0, else :func:`act` of the word Sq^n."""
    if n < 0:
        raise ValueError("square index must be a natural number")
    return act(Sq(n), p) if n else p


def _power_splits(factors: Monomial) -> list[tuple[Monomial, int]]:
    """The terms prod t^(e+k) of prod t^e (u + t)^e, u left out, each with the sum of its k.

    By Lucas, k runs over the binary submasks of each exponent e.
    """
    terms: list[tuple[Monomial, int]] = [((), 0)]
    for var, e in factors:
        grown = []
        k = e
        while True:
            pair = ((var, e + k),)
            grown += [(head + pair, s + k) for head, s in terms]
            if not k:
                break
            k = (k - 1) & e
        terms = grown
    return terms


def total_square(p: PolyElement, var: int) -> PolyElement:
    """Generating function of all squares of a homogeneous element.

    For p of degree m returns sum_i Sq^i(p) * t_var^(m-i), a
    homogeneous element of degree 2m whose t_var^(m-i) coefficient
    recovers Sq^i(p) exactly.  The variable must be fresh.  The total
    square is multiplicative and sends t to t*u + t^2 (u = t_var), so a
    monomial prod t^e goes to prod t^e (u + t)^e, whose terms are
    distinct; more than ``_MAX_TOTAL_SQUARE_TERMS`` raise ValueError.
    """
    if var < 1:
        raise ValueError("variables are indexed from 1")
    m = p.homogeneous_degree()
    if m is None:
        return PolyElement.zero()
    if var in p.variables():
        raise ValueError(f"t{var} already occurs in the element; pick a fresh variable")
    if sum(1 << sum(e.bit_count() for _, e in mono) for mono in p.monomials) > _MAX_TOTAL_SQUARE_TERMS:
        raise ValueError(f"total square expands to more than {_MAX_TOTAL_SQUARE_TERMS} terms")
    acc: set[Monomial] = set()
    for mono in p.monomials:
        cut = sum(v < var for v, _ in mono)  # where t_var goes among the factors
        acc.symmetric_difference_update(
            split[:cut] + ((var, m - s),) + split[cut:] if s < m else split
            for split, s in _power_splits(mono)
        )
    return PolyElement(frozenset(acc))


def coefficient(p: PolyElement, var: int, exp: int) -> PolyElement:
    """Coefficient of t_var^exp: matching monomials with the factor removed."""
    out = set()
    for mono in p.monomials:
        found = dict(mono).get(var, 0)
        if found == exp:
            out.add(tuple(pair for pair in mono if pair[0] != var))
    return PolyElement(frozenset(out))


@lru_cache(maxsize=None)
def _sq_orbit(n: int, lam: Orbit) -> frozenset[Orbit]:
    # Sq(t^(2^j)) = t^(2^j) + t^(2^(j+1)): a term of Sq^n(x^alpha), alpha in
    # orb lam, doubles s_j of the lam[j] variables at each level j, with sum
    # s_j 2^j = n, and lands on mu[j] = lam[j] - s_j + s_(j-1); mu fixes every
    # s_j.  A monomial of orb mu is hit once per choice of the s_(j-1) doubled
    # among its mu[j] level-j variables: the product of the C(mu[j], s_(j-1)).
    states = [((), 0, n)]  # (mu so far, s_(j-1), n left)
    room = sum(count << j for j, count in enumerate(lam))  # the most the levels above j can take
    for j, count in enumerate(lam + (0,)):  # the level past lam takes the last carry
        room -= count << j
        grown = []
        for head, carry, left in states:
            for s in range(max(0, -((room - left) >> j)), min(count, left >> j) + 1):
                here = count - s + carry
                if binom_mod2(here, carry):
                    grown.append((head + (here,), s, left - (s << j)))
        states = grown
    return frozenset(head if head[-1] else head[:-1] for head, _, left in states if not left)


def act_on_squarefree(words: Iterable[Word], m: int) -> frozenset[Orbit]:
    """A sum of words applied to t1*...*tm, in the orbit basis.

    Returns the level counts lam whose monomial-symmetric sums m_lam
    make up the image; t1*...*tm itself is ``(m,)``, or ``()`` for
    m = 0.  Each word is folded by :func:`steenrod.f2.act_word`, one
    orbit at a time.
    """
    start = frozenset({(m,) if m else ()})
    acc: set[Orbit] = set()
    for word in words:
        acc.symmetric_difference_update(act_word(word, start, _sq_orbit))
    return frozenset(acc)


def faithful_rank(d: int) -> int:
    """Rank of the admissible-basis action on the squarefree class t1...td.

    Rows are act(w, t1*...*td) for w in the degree-d admissible basis,
    expressed in the orbit basis of the target degree (see
    :func:`act_on_squarefree`); the rank is the one in the monomial
    basis.  Comparing against the basis size gives an empirical
    faithfulness check.
    """
    if d < 0:
        raise ValueError("degree must be a natural number")
    return rank_f2([act_on_squarefree((w,), d) for w in admissible_basis(d)])
