"""Cartan action on polynomial models and its structural properties."""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import steenrod
from steenrod import poly
from steenrod.adem import AdemElement, Sq, admissible_basis, excess
from steenrod.f2 import adem_coeff
from steenrod.parsing import parse_poly, parse_sq
from steenrod.poly import (
    PolyElement,
    act,
    coefficient,
    cup,
    faithful_rank,
    make_monomial,
    sq,
    total_square,
    variable,
)

from poly_helpers import (
    check_tautological_vanishing,
    check_total_sq_multiplicative,
    reference_faithful_rank,
    sq_on_power,
    substitute,
)


def monomials(max_degree: int, nvars: int):
    """All monomials of degree <= max_degree in nvars variables."""
    out = []
    for degrees in itertools.product(range(max_degree + 1), repeat=nvars):
        if sum(degrees) <= max_degree:
            out.append(make_monomial({v + 1: e for v, e in enumerate(degrees)}))
    return out


def as_poly(mono) -> PolyElement:
    return PolyElement(frozenset({mono}))


def test_cup_examples():
    t1, t2 = variable(1), variable(2)
    assert cup(t1, t1) == parse_poly("t1^2")
    assert cup(t1 + t2, t1 + t2) == parse_poly("t1^2 + t2^2")
    assert cup(parse_poly("t1^3*t2"), PolyElement.one()) == parse_poly("t1^3*t2")


def test_cup_commutative_associative():
    p = parse_poly("t1 + t2^2")
    q = parse_poly("t1*t2")
    r = parse_poly("t2 + 1")
    assert cup(p, q) == cup(q, p)
    assert cup(cup(p, q), r) == cup(p, cup(q, r))


def test_sq_on_power_examples():
    assert sq_on_power(1, 1, 1) == parse_poly("t1^2")  # Sq^1(t) = t^2
    assert sq_on_power(1, 5, 0) == parse_poly("t1^5")  # Sq^0 = id
    assert sq_on_power(1, 2, 3).is_zero()  # above the degree
    assert sq_on_power(1, 3, 2) == parse_poly("t1^5")


def test_sq_examples():
    assert sq(1, parse_poly("t1*t2")) == parse_poly("t1^2*t2 + t1*t2^2")
    assert sq(2, parse_poly("t1*t2")) == parse_poly("t1^2*t2^2")
    assert sq(3, parse_poly("t1*t2") + parse_poly("t1*t2")).is_zero()


def test_sq_degree_shift():
    for mono in monomials(6, 3):
        if not mono:
            continue
        p = as_poly(mono)
        for n in range(7):
            image = sq(n, p)
            for out in image.monomials:
                assert sum(e for _, e in out) == sum(e for _, e in mono) + n


def test_instability():
    for mono in monomials(6, 3):
        m = sum(e for _, e in mono)
        for n in range(m + 1, m + 5):
            assert sq(n, as_poly(mono)).is_zero(), (mono, n)


def test_top_square_is_cup_square():
    for mono in monomials(6, 3):
        p = as_poly(mono)
        m = sum(e for _, e in mono)
        assert sq(m, p) == cup(p, p), mono


def test_pointedness():
    assert sq(4, PolyElement.zero()).is_zero()


def test_cartan_formula_sampled():
    # exhaustively at small scale; the acceptance suite runs the full range
    for p_mono in monomials(3, 2):
        for q_mono in monomials(3, 2):
            p, q = as_poly(p_mono), as_poly(q_mono)
            for n in range(5):
                expected = PolyElement.zero()
                for i in range(n + 1):
                    expected += cup(sq(i, p), sq(n - i, q))
                assert sq(n, cup(p, q)) == expected


def test_act_examples():
    t = variable(1)
    assert act(Sq(1, 1), t).is_zero()
    assert act(AdemElement.one(), parse_poly("t1^3*t2")) == parse_poly("t1^3*t2")
    p = parse_poly("t1*t2*t3")
    assert act(Sq(2, 2), p) == act(Sq(3, 1), p)


def test_act_is_rightmost_first():
    # Sq1 Sq2 (t1 t2 t3) applies Sq2 first
    p = parse_poly("t1*t2*t3")
    assert act(Sq(1, 2), p) == sq(1, sq(2, p))


def test_total_square_examples():
    t = variable(1)
    assert total_square(t, 2) == parse_poly("t1*t2 + t1^2")
    assert total_square(PolyElement.one(), 5) == PolyElement.one()
    assert total_square(parse_poly("t1^2"), 2) == parse_poly("t1^2*t2^2 + t1^4")


def test_total_square_of_a_power_beyond_32_bits():
    # Only Sq^0 and Sq^e of t1^e are nonzero for e = 2^40; the other 2^40 - 1
    # squares must not be visited one by one.
    e = 2**40
    assert total_square(parse_poly(f"t1^{e}"), 2) == parse_poly(f"t1^{2 * e} + t1^{e}*t2^{e}")
    assert total_square(parse_poly(f"t1^{e}*t3"), 2) == parse_poly(
        f"t1^{e}*t2^{e + 1}*t3 + t1^{e}*t2^{e}*t3^2 + t1^{2 * e}*t2*t3 + t1^{2 * e}*t3^2"
    )


def test_total_square_requires_fresh_variable():
    with pytest.raises(ValueError):
        total_square(parse_poly("t1*t2"), 2)


@pytest.mark.parametrize("var", [0, -3])
def test_total_square_rejects_variables_below_one(var):
    for p in (parse_poly("t1"), PolyElement.zero()):
        with pytest.raises(ValueError, match="variables are indexed from 1"):
            total_square(p, var)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: make_monomial({1: -1}), "exponents must be naturals"),
        (lambda: variable(0), "variables are indexed from 1"),
        (lambda: sq(-1, variable(1)), "square index must be a natural number"),
    ],
    ids=["negative exponent", "t0", "negative square"],
)
def test_poly_constructors_refuse_arguments_out_of_range(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_total_square_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        total_square(parse_poly("t1 + t1^2"), 3)


def degree_m_monomials(m: int, nvars: int) -> list:
    return [mono for mono in monomials(m, nvars) if sum(e for _, e in mono) == m]


def test_total_square_coefficients_recover_squares():
    # total_square shares no code with the Cartan kernel behind sq, so
    # this compares two independent computations.
    rng = random.Random(0)
    for m in range(1, 7):
        degree_m = degree_m_monomials(m, 3)
        elements = [as_poly(mono) for mono in degree_m]
        elements += [
            PolyElement(frozenset(rng.sample(degree_m, rng.randint(2, len(degree_m))))) for _ in range(12)
        ]
        for p in elements:
            ts = total_square(p, 9)
            for i in range(m + 1):
                assert coefficient(ts, 9, m - i) == sq(i, p), (p, i)


@st.composite
def small_homogeneous(draw, m: int) -> PolyElement:
    return PolyElement(frozenset(draw(st.sets(st.sampled_from(degree_m_monomials(m, 3)), max_size=4))))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3).flatmap(small_homogeneous), st.integers(0, 3).flatmap(small_homogeneous))
def test_total_square_is_multiplicative(p, q):
    assert total_square(p * q, 9) == total_square(p, 9) * total_square(q, 9)


def test_total_square_term_bound(monkeypatch):
    with pytest.raises(ValueError, match="^total square expands to more than 65536 terms$"):
        total_square(parse_poly("*".join(f"t{j}" for j in range(1, 301))), 301)
    # The count is 2^(one bits of the exponents) per monomial, summed over monomials.
    monkeypatch.setattr(poly, "_MAX_TOTAL_SQUARE_TERMS", 8)
    assert len(total_square(parse_poly("t1*t2*t3"), 4).monomials) == 8
    assert len(total_square(parse_poly("t1^3*t2"), 4).monomials) == 8
    for text in ("t1*t2*t3*t4", "t1^7*t2", "t1*t2*t3 + t1*t2*t4"):
        with pytest.raises(ValueError, match="more than 8 terms"):
            total_square(parse_poly(text), 5)


def test_check_total_sq_multiplicative():
    t1, t2 = variable(1), variable(2)
    assert check_total_sq_multiplicative(t1, t1)
    assert check_total_sq_multiplicative(PolyElement.one(), parse_poly("t1^2*t2"))
    assert check_total_sq_multiplicative(t1, t2)
    assert check_total_sq_multiplicative(parse_poly("t1*t2"), parse_poly("t2^2"))


def test_check_tautological_vanishing():
    assert check_tautological_vanishing(0)
    assert check_tautological_vanishing(1)
    assert check_tautological_vanishing(2)
    assert check_tautological_vanishing(5)


def test_substitute_merges_and_cancels():
    p = parse_poly("t1*t2 + t1^2")
    assert substitute(p, 2, 1).is_zero()
    assert substitute(parse_poly("t3^2"), 3, 1) == parse_poly("t1^2")


def test_faithful_rank_examples():
    assert faithful_rank(0) == 1
    assert faithful_rank(1) == 1
    assert faithful_rank(3) == len(admissible_basis(3)) == 2
    for d in range(15):
        assert faithful_rank(d) == len(admissible_basis(d)), d


def test_faithful_rank_matches_the_monomial_basis_reference():
    for d in range(12):
        assert faithful_rank(d) == reference_faithful_rank(d), d


def test_faithful_rank_reaches_degree_48():
    start = time.perf_counter()
    assert faithful_rank(24) == 26
    for d in range(49):
        assert faithful_rank(d) == len(admissible_basis(d)), d
    assert time.perf_counter() - start < 30


def orbit_sum(lam: tuple[int, ...]) -> PolyElement:
    """The monomial-symmetric sum m_lam: lam[j] exponents 2^j over t1..t_sum(lam)."""
    exps = [1 << j for j, count in enumerate(lam) for _ in range(count)]
    return PolyElement(frozenset(make_monomial(enumerate(alpha, 1)) for alpha in itertools.permutations(exps)))


def level_counts(mono) -> tuple[int, ...]:
    """How many exponents of a monomial equal 2^j, for each j; every exponent must be a power of 2."""
    counts = [0] * max((e.bit_length() for _, e in mono), default=0)
    for _, e in mono:
        assert e & (e - 1) == 0, mono
        counts[e.bit_length() - 1] += 1
    return tuple(counts)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=4).filter(lambda counts: sum(counts) <= 6), st.integers(0, 20))
@example([3, 0, 2], 7)
@example([0, 4], 8)
def test_sq_orbit_is_the_orbit_reduction_of_the_action(counts, n):
    while counts and not counts[-1]:
        counts = counts[:-1]
    lam = tuple(counts)
    image = sq(n, orbit_sum(lam))
    # Brute-force reduction: the level counts of the image's monomials,
    # whose orbit sums must make up the image exactly.
    orbits = {level_counts(mono) for mono in image.monomials}
    assert sum((orbit_sum(mu) for mu in orbits), PolyElement.zero()) == image
    assert poly._sq_orbit(n, lam) == orbits


def test_excess_vanishing():
    # an admissible word kills every homogeneous class of degree below its excess
    for d in range(1, 9):
        for word in admissible_basis(d):
            op = AdemElement(frozenset({word}))
            for m in range(min(excess(word), 5)):
                for mono in monomials(m, 3):
                    if sum(e for _, e in mono) != m:
                        continue
                    assert act(op, as_poly(mono)).is_zero(), (word, mono)


def test_adem_relation_action_side():
    # composite vs its Adem expansion, evaluated without any rewriting
    monos = [m for m in monomials(6, 3)]
    for k in range(1, 10):
        for n in range(1, min(2 * k, 10 - k + 1)):
            if n + k > 10:
                continue
            lhs_op = Sq(n, k)
            rhs_words = []
            for c in range(n // 2 + 1):
                if adem_coeff(n, k, c):
                    rhs_words.append((n + k - c,) if c == 0 else (n + k - c, c))
            rhs_op = AdemElement(frozenset(rhs_words))
            for mono in monos:
                p = as_poly(mono)
                assert act(lhs_op, p) == act(rhs_op, p), (n, k, mono)


def test_poly_string_and_order():
    assert str(PolyElement.zero()) == "0"
    assert str(PolyElement.one()) == "1"
    # graded order, t1-heavy monomials first within a degree
    p = parse_poly("t2^2 + t1*t2 + t1^2 + t1")
    assert str(p) == "t1 + t1^2 + t1*t2 + t2^2"


def cartan_reference(word, mono) -> PolyElement:
    """Apply a word square by square through the Cartan formula on single powers."""
    current = as_poly(mono)
    for n in reversed(word):
        image = PolyElement.zero()
        for m in current.monomials:
            # Sq^n(prod t_v^e_v) = sum over splits of n of prod Sq^i_v(t_v^e_v)
            partial = {0: PolyElement.one()}
            for var, exp in m:
                nxt = {}
                for used, factor in partial.items():
                    for i in range(n - used + 1):
                        term = cup(factor, sq_on_power(var, exp, i))
                        nxt[used + i] = nxt.get(used + i, PolyElement.zero()) + term
                partial = nxt
            image += partial.get(n, PolyElement.zero())
        current = image
    return current


def test_act_depends_only_on_exponents():
    # t2*t5^3*t11^2 and t1*t2^3*t3^2 share one kernel cache entry per word;
    # each image must be the renamed image of the other.
    sparse = parse_poly("t2*t5^3*t11^2")
    dense = parse_poly("t1*t2^3*t3^2")
    (mono,) = sparse.monomials
    words = [w for d in range(1, 8) for w in admissible_basis(d)] + [(1, 2), (2, 2), (3, 1, 2)]
    for word in words:
        op = AdemElement(frozenset({word}))
        image_sparse, image_dense = act(op, sparse), act(op, dense)
        renamed = substitute(substitute(substitute(image_dense, 3, 11), 2, 5), 1, 2)
        assert image_sparse == renamed, word
        assert image_sparse == cartan_reference(word, mono), word


def test_act_monomial_cache_key_holds_no_field_width():
    # Sq64 on t1^201 needs 16-bit fields, Sq1 alone 8-bit ones; the word Sq1
    # on the exponents (201,) must still be one cache entry.
    steenrod.clear_caches()
    p = parse_poly("t1^201")
    assert act(Sq(1), p) == parse_poly("t1^202")
    assert act(Sq(1) + Sq(64), p) == parse_poly("t1^202 + t1^265")
    assert steenrod.cache_info()["act_monomial"] == 2


def test_act_on_a_product_of_1100_variables():
    # One slot per variable; the convolution must not recurse per variable.
    p = parse_poly("*".join(f"t{j}" for j in range(1, 1101)))
    image = act(Sq(1), p)
    assert len(image.monomials) == 1100
    for j in (1, 550, 1100):
        doubled = make_monomial({**{v: 1 for v in range(1, 1101)}, j: 2})
        assert doubled in image.monomials


def test_act_with_a_word_of_1100_squares():
    # The word is folded in a loop, not by one recursion per square.
    t1 = parse_poly("t1")
    doubling = Sq(*(2**j for j in reversed(range(1100))))
    assert act(doubling, t1) == parse_poly(f"t1^{2**1100}")
    assert act(parse_sq(" ".join(["Sq1"] * 1100)), t1).is_zero()


def test_exponents_beyond_32_bits_stay_exact():
    big = 2**40 + 1
    assert sq(1, parse_poly(f"t1^{big}")) == parse_poly(f"t1^{big + 1}")
    p = parse_poly(f"t1^{big}*t3")
    assert act(Sq(2, 1), p) == parse_poly(f"t1^{big + 3}*t3 + t1^{big}*t3^4")
    assert act(Sq(2, 1), p) == cartan_reference((2, 1), next(iter(p.monomials)))
    # 2^64 - 1 + 1 does not fit 64 bits: the field must be wider, or the
    # carry would land in t7's field
    q = parse_poly(f"t2^{2**64 - 1}*t7")
    assert sq(1, q) == parse_poly(f"t2^{2**64}*t7 + t2^{2**64 - 1}*t7^2")
    # C(2^40 + 3, i) is odd for i = 2, 3: Sq^3 = Sq^3(t1^e) t2 + Sq^2(t1^e) Sq^1(t2)
    assert sq(3, parse_poly(f"t1^{2**40 + 3}*t2")) == parse_poly(
        f"t1^{2**40 + 6}*t2 + t1^{2**40 + 5}*t2^2"
    )


def test_kernel_caches_are_empty_lru_caches_after_import():
    # A fresh interpreter: tooling that reads cache_info() relies on these names,
    # and the action stays independent of the rewriting engine.
    probe = """
import functools, json
import steenrod
from steenrod import adem, poly
caches = [poly._sq_monomial, poly._act_monomial, poly._sq_orbit, adem.adem_rewrite]
rewriting = [adem, adem.normalize, adem.product]
print(json.dumps({
    "lru": [isinstance(c, functools._lru_cache_wrapper) for c in caches],
    "sizes": [c.cache_info().currsize for c in caches],
    "imports_rewriting": [any(v is f for v in vars(poly).values()) for f in rewriting],
}))
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    report = json.loads(out.stdout)
    assert report == {
        "lru": [True, True, True, True],
        "sizes": [0, 0, 0, 0],
        "imports_rewriting": [False, False, False],
    }


def test_cache_info_and_clear_caches_in_a_fresh_interpreter():
    probe = """
import json
import steenrod
from steenrod import Sq, act, faithful_rank, normalize, parse_poly
p = parse_poly("t1*t2^3 + t3^2")
seen = [steenrod.cache_info()]
first = (str(normalize(Sq(2, 2) + Sq(1, 2, 2))), str(act(Sq(2, 1), p)), faithful_rank(3))
seen.append(steenrod.cache_info())
steenrod.clear_caches()
seen.append(steenrod.cache_info())
again = (str(normalize(Sq(2, 2) + Sq(1, 2, 2))), str(act(Sq(2, 1), p)), faithful_rank(3))
print(json.dumps({"seen": seen, "same": first == again}))
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    report = json.loads(out.stdout)
    names = ["nf_cache", "adem_rewrite", "sq_monomial", "act_monomial", "sq_orbit"]
    empty, filled, cleared = report["seen"]
    assert sorted(empty) == sorted(names) and set(empty.values()) == {0}
    assert all(filled[name] > 0 for name in names)
    assert cleared == empty
    assert report["same"]


def test_cup_of_large_sums_takes_linear_time():
    # 200 x 200 products, all distinct.  Accumulating them in a frozenset
    # copies the whole sum at every step (about a minute); a set takes
    # about 0.1 s.
    p = PolyElement(frozenset(make_monomial({1: i}) for i in range(200)))
    q = PolyElement(frozenset(make_monomial({2: j}) for j in range(200)))
    start = time.perf_counter()
    product = cup(p, q)
    assert time.perf_counter() - start < 10
    assert product.monomials == {make_monomial({1: i, 2: j}) for i in range(200) for j in range(200)}
