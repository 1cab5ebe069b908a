"""The double-total-square expansion and the relations it forces."""

import itertools
import time

import pytest

from steenrod.adem import Sq, adem_rewrite, admissible_basis, degree, excess, normalize
from steenrod.derive import certify_relations, derive_adem_relations, vanishes_on_degree
from steenrod.linalg import rank_f2
from steenrod.poly import PolyElement, act, act_on_squarefree, make_monomial

from derive_helpers import (
    SymbolicClass,
    U,
    V,
    reference_derive_adem_relations,
    total_square_symbolic,
    two_square_words,
)
from poly_helpers import reference_vanishes_on_degree


def degree_m_monomials(m: int, nvars: int):
    for degrees in itertools.product(range(m + 1), repeat=nvars):
        if sum(degrees) == m:
            yield make_monomial({v + 1: e for v, e in enumerate(degrees)})


def test_generic_class_and_total_degree():
    a = SymbolicClass.generic(3)
    assert a.total_degree() == 3
    assert total_square_symbolic(a, U).total_degree() == 6


def test_total_square_symbolic_drops_squares_above_argument_degree():
    a = SymbolicClass.generic(1)
    # Sq^2 and above vanish on a degree-1 symbol, so no word starts with 2.
    ts = total_square_symbolic(a, U)
    assert {word for word, _ in ts.terms} == {(), (1,)}
    # Each square of the double expansion is at most the degree of its argument.
    for word, _ in total_square_symbolic(ts, V).terms:
        assert all(r <= 1 + degree(word[j + 1 :]) for j, r in enumerate(word)), word


def test_first_total_square_of_degree_one_symbol():
    a = SymbolicClass.generic(1)
    ts = total_square_symbolic(a, U)
    # a * u + Sq1(a)
    assert ts.terms == frozenset({((), ((U, 1),)), ((1,), ())})


def test_double_expansion_matches_hand_computation_degree_one():
    a = SymbolicClass.generic(1)
    both = total_square_symbolic(total_square_symbolic(a, U), V)
    # (a u + Sq1 a) v^2 + (Sq1(a) u + a u^2 + Sq1 Sq1 a) v + (Sq1(a) u^2 + Sq2 Sq1 a)
    expected = frozenset(
        {
            ((), ((U, 1), (V, 2))),
            ((1,), ((V, 2),)),
            ((1,), ((U, 1), (V, 1))),
            ((), ((U, 2), (V, 1))),
            ((1, 1), ((V, 1),)),
            ((1,), ((U, 2),)),
            ((2, 1), ()),
        }
    )
    assert both.terms == expected


def test_relations_degree_zero_symbol():
    assert derive_adem_relations(0) == []


def test_relations_degree_one_exactly_sq1_sq1():
    assert derive_adem_relations(1) == [Sq(1, 1)]


def test_relations_degree_two_known_set():
    rels = {frozenset(r.words) for r in derive_adem_relations(2)}
    assert frozenset({(1, 1)}) in rels
    assert frozenset({(2, 2), (3, 1)}) in rels  # Sq2 Sq2 = Sq3 Sq1
    assert frozenset({(3, 2)}) in rels  # Sq3 Sq2 = 0
    assert frozenset({(1, 2)}) in rels  # Sq1 Sq2 = 0 on degree-2 classes only


def test_derive_adem_relations_matches_the_reference():
    for m in range(33):
        assert derive_adem_relations(m) == reference_derive_adem_relations(m), m


def test_relation_counts():
    counts = [len(derive_adem_relations(m)) for m in range(15)]
    assert counts == [0, 1, 4, 9, 17, 29, 42, 59, 78, 100, 126, 156, 186, 226, 266]


def test_total_square_symbolic_requires_a_fresh_variable():
    ts = total_square_symbolic(SymbolicClass.generic(2), U)
    with pytest.raises(ValueError, match="fresh"):
        total_square_symbolic(ts, U)


def test_relations_nonempty_and_homogeneous():
    for m in range(1, 7):
        rels = derive_adem_relations(m)
        assert rels, m
        for rel in rels:
            degrees = {degree(w) for w in rel.words}
            assert len(degrees) == 1, (m, str(rel))
            assert all(len(w) <= 2 for w in rel.words)


def test_relations_vanish_on_degree_m_classes():
    # independent oracle: every relation kills every degree-m monomial,
    # and its certificate, evaluated on t1...tm alone, says so
    for m in range(1, 7):
        nvars = min(m, 6)
        monos = list(degree_m_monomials(m, nvars))
        certificates = certify_relations(m)
        assert [c.relation for c in certificates] == derive_adem_relations(m)
        for cert in certificates:
            rel = cert.relation
            for mono in monos:
                p = PolyElement(frozenset({mono}))
                assert act(rel, p).is_zero(), (m, str(rel), mono)
            assert cert.vanishes_on_degree_m_classes, (m, str(rel))
            assert cert.normal_form == normalize(rel)


def test_vanishes_on_degree_detects_a_nonzero_operation():
    # Sq1 Sq2 = Sq3 is the cup square on degree-3 classes
    assert not vanishes_on_degree(Sq(1, 2), 3)
    assert vanishes_on_degree(Sq(1, 2), 2)


def test_vanishes_on_degree_matches_the_monomial_basis_reference():
    # every derived relation and every admissible word of degree <= m,
    # with Sq1 added at m = 0, where Sq() is the only such word
    for m in range(9):
        words = [w for d in range(m + 1) for w in admissible_basis(d)] + ([(1,)] if m == 0 else [])
        elements = derive_adem_relations(m) + [Sq(*w) for w in words]
        for element in elements:
            assert vanishes_on_degree(element, m) == reference_vanishes_on_degree(element, m), (m, str(element))


def test_certify_relations_reaches_degree_12():
    start = time.perf_counter()
    certificates = certify_relations(12)
    assert time.perf_counter() - start < 10
    assert len(certificates) == 186
    assert all(cert.vanishes_on_degree_m_classes for cert in certificates)


def test_certify_relations_reaches_degree_20():
    start = time.perf_counter()
    certificates = certify_relations(20)
    assert time.perf_counter() - start < 10
    assert len(certificates) == 556
    assert all(cert.vanishes_on_degree_m_classes for cert in certificates)


def test_relation_residues_are_excess_dead():
    # normal forms need not vanish outright, but whatever survives must
    # have excess above m, so it still acts as zero in source degree m
    for m in range(1, 7):
        for rel in derive_adem_relations(m):
            for word in normalize(rel).words:
                assert excess(word) > m, (m, str(rel), word)


def test_stable_relations_appear():
    # the genuinely degree-independent Adem relations are among the output
    rels2 = {frozenset(r.words) for r in derive_adem_relations(2)}
    assert frozenset({(2, 2), (3, 1)}) in rels2
    rels3 = {frozenset(r.words) for r in derive_adem_relations(3)}
    assert frozenset({(1, 3)}) in rels3  # Sq1 Sq3 = 0 in every degree


def test_derived_relations_span_every_adem_relation_up_to_degree_m():
    # The "all" half of the derivation: each Adem relation Sq^a Sq^b + its
    # expansion with a + b <= m is a sum of derived relations.
    for m in range(13):
        relations = [relation.words for relation in derive_adem_relations(m)]
        rank = rank_f2(relations)
        for b in range(1, m + 1):
            for a in range(1, min(2 * b, m - b + 1)):
                adem = frozenset({(a, b)}) ^ adem_rewrite(a, b)
                assert rank_f2(relations + [adem]) == rank, (m, a, b)


def test_derived_relations_span_the_kernel_of_the_action_on_degree_m():
    # In each operator degree d, the relations among the words Sq^j Sq^i of
    # the expansion, acting on t1...tm, form a space of dimension
    # (word count) - (rank of their images); the derived relations of
    # degree d, each of which vanishes there, have exactly that rank.
    for m in range(13):
        relations = derive_adem_relations(m)
        for d, words in two_square_words(m).items():
            derived = [relation.words for relation in relations if degree(next(iter(relation.words))) == d]
            images = [act_on_squarefree((word,), m) for word in words]
            assert rank_f2(derived) == len(words) - rank_f2(images), (m, d)


def test_derived_relations_are_stable_below_the_source_degree():
    # Stability: in each operator degree d < m, the relations derived at
    # source degree m span the same space as those derived at m - 1.
    def by_degree(m):
        groups = {}
        for relation in derive_adem_relations(m):
            groups.setdefault(degree(next(iter(relation.words))), []).append(relation.words)
        return groups

    below = by_degree(0)
    for m in range(1, 33):
        here = by_degree(m)
        for d in range(m):
            a, b = here.get(d, []), below.get(d, [])
            assert rank_f2(a) == rank_f2(b) == rank_f2(a + b), (m, d)
        below = here


def test_generic_rejects_negative_degree():
    with pytest.raises(ValueError):
        SymbolicClass.generic(-1)
    with pytest.raises(ValueError, match="^degree must be a natural number$"):
        derive_adem_relations(-1)


def test_inhomogeneous_symbolic_class_rejected():
    bad = SymbolicClass(1, frozenset({((), ()), ((1,), ())}))
    with pytest.raises(ValueError):
        bad.total_degree()
