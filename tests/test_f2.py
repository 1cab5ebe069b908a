"""Parity arithmetic against a Pascal-triangle oracle, F2-sum laws, the word fold, and the F2Sum and Record bases."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steenrod.adem import AdemElement, Sq
from steenrod.derive import RelationCertificate
from steenrod.f2 import F2Sum, Record, act_word, adem_coeff, binom_mod2, common_degree, dumps_json
from steenrod.modules import AxiomFailure, ModuleElement, Pi4Report, VerifyReport, real_proj
from steenrod.parsing import parse_poly
from steenrod.poly import PolyElement

from derive_helpers import SymbolicClass


def sum_add(x, y) -> frozenset:
    """Add two formal F2-sums given as term sets: symmetric difference."""
    return frozenset(x) ^ frozenset(y)


def pascal_mod2(max_n: int) -> list[list[int]]:
    rows = [[1]]
    for n in range(1, max_n + 1):
        prev = rows[-1]
        rows.append([1] + [(prev[k - 1] + prev[k]) % 2 for k in range(1, n)] + [1])
    return rows


def test_binom_against_pascal_triangle():
    rows = pascal_mod2(64)
    for n in range(65):
        for k in range(65):
            expected = rows[n][k] if k <= n else 0
            assert binom_mod2(n, k) == expected, (n, k)


def test_binom_lucas_criterion():
    for n in range(65):
        for k in range(65):
            assert (binom_mod2(n, k) == 1) == (k & n == k and k <= n), (n, k)


def test_binom_examples():
    assert binom_mod2(0, 0) == 1
    assert binom_mod2(2, 1) == 0
    assert binom_mod2(5, 1) == 1


def test_binom_out_of_range():
    assert binom_mod2(3, 5) == 0
    assert binom_mod2(-1, 0) == 0
    assert binom_mod2(4, -2) == 0


def test_adem_coeff_examples():
    # C(0,1) = 0, C(1,1) = 1, C(1,2) = 0, C(0,0) = 1
    assert adem_coeff(1, 1, 0) == 0
    assert adem_coeff(1, 2, 0) == 1
    assert adem_coeff(2, 2, 0) == 0
    assert adem_coeff(2, 2, 1) == 1


def test_adem_coeff_degenerate_indices_vanish():
    assert adem_coeff(1, 0, 0) == 0  # b - c - 1 negative
    assert adem_coeff(5, 3, 3) == 0  # a - 2c negative


small_sets = st.frozensets(st.integers(0, 20), max_size=8)


@given(small_sets, small_sets)
def test_sum_add_commutative(x, y):
    assert sum_add(x, y) == sum_add(y, x)


@given(small_sets, small_sets, small_sets)
def test_sum_add_associative(x, y, z):
    assert sum_add(sum_add(x, y), z) == sum_add(x, sum_add(y, z))


@given(small_sets)
def test_sum_add_self_inverse_and_identity(x):
    assert sum_add(x, x) == frozenset()
    assert sum_add(x, frozenset()) == frozenset(x)


def test_sum_add_examples():
    assert sum_add({"w"}, {"w"}) == frozenset()
    assert sum_add({"w"}, set()) == frozenset({"w"})
    assert sum_add({"w1"}, {"w2"}) == frozenset({"w1", "w2"})


def test_act_word_applies_the_rightmost_square_first():
    # A square map that does not commute: Sq^n appends the digit n.
    def append(n, t):
        return frozenset({10 * t + n})

    assert act_word((1, 2), frozenset({0}), append) == {21}
    assert act_word((2, 1), frozenset({0}), append) == {12}
    assert act_word((1, 2), frozenset({3, 4}), append) == {321, 421}
    assert act_word((), frozenset({3, 4}), append) == {3, 4}


def test_act_word_cancels_images_mod_2():
    def square(n, t):
        return frozenset({n, 10 + t})

    assert act_word((1,), frozenset({0, 1}), square) == {10, 11}
    assert act_word((1,), frozenset({0, 1}), lambda n, t: frozenset({n})) == frozenset()


def test_act_word_stops_once_the_sum_is_zero():
    calls = []

    def square(n, t):
        calls.append((n, t))
        return frozenset({n})

    assert act_word((3, 2, 1), frozenset({0, 1}), square) == frozenset()
    assert sorted(calls) == [(1, 0), (1, 1)]
    calls.clear()
    assert act_word((3, 2, 1), frozenset(), square) == frozenset()
    assert calls == []


def test_act_word_is_additive_for_every_square_table():
    # verify_axioms counts its additivity checks without evaluating them on
    # this: a word acts on X + Y as on X plus on Y, whatever the table.
    rng = random.Random(0)
    for _ in range(2000):
        table = {(n, t): frozenset(rng.sample(range(8), rng.randint(0, 3))) for n in range(3) for t in range(8)}
        word = [rng.randrange(3) for _ in range(rng.randint(0, 3))]
        xs, ys = (frozenset(rng.sample(range(8), rng.randint(0, 5))) for _ in "xy")

        def square(n, t):
            return table[(n, t)]

        split = act_word(word, xs, square) ^ act_word(word, ys, square)
        assert act_word(word, xs ^ ys, square) == split, (table, word, xs, ys)


def test_every_element_class_is_an_f2_sum():
    for cls in (AdemElement, PolyElement, ModuleElement, SymbolicClass):
        assert issubclass(cls, F2Sum), cls


def test_common_degree():
    assert common_degree([]) is None
    assert common_degree([3, 3, 3]) == 3
    with pytest.raises(ValueError, match=r"not homogeneous \(degrees \[1, 2\]\)"):
        common_degree([2, 1, 2])


def _elements():
    rp3 = real_proj(3)
    return [
        Sq(2, 1) + Sq(3),
        parse_poly("t1*t2 + t3^2"),
        rp3.element(["t1", "t2"]),
        SymbolicClass.generic(2),
    ]


@pytest.mark.parametrize("element", _elements(), ids=lambda e: type(e).__name__)
def test_elements_are_immutable(element):
    with pytest.raises(AttributeError):
        element.terms = frozenset()
    with pytest.raises(AttributeError):
        element.extra = 1
    with pytest.raises(AttributeError):
        del element.terms
    assert not element.is_zero()


def _printed():
    rp10 = real_proj(10)
    return [
        (Sq(4) + Sq(2, 1) + Sq() + Sq(3), AdemElement.zero(), "1 + Sq3 + Sq2 Sq1 + Sq4"),
        (parse_poly("t3^2 + t1*t2 + 1 + t1^2"), PolyElement.zero(), "1 + t1^2 + t1*t2 + t3^2"),
        # degree first, then id: t10 sorts before t2 as a string
        (rp10.element(["t10", "t2", "t1"]), rp10.element(frozenset()), "t1 + t2 + t10"),
        (
            SymbolicClass(1, frozenset({((1,), ((1, 1),)), ((), ((1, 2),))})),
            SymbolicClass(1, frozenset()),
            "a*t1^2 + Sq1 a*t1",
        ),
    ]


@pytest.mark.parametrize("element, zero, text", _printed(), ids=["AdemElement", "PolyElement", "ModuleElement", "SymbolicClass"])
def test_elements_print_zero_and_their_terms_in_canonical_order(element, zero, text):
    assert str(zero) == "0" and zero.sorted_terms() == []
    assert str(element) == text


def test_sorted_words_and_monomials_are_the_canonical_order():
    assert AdemElement.sorted_words is F2Sum.sorted_terms is PolyElement.sorted_monomials
    assert (Sq(2, 1) + Sq(3) + Sq()).sorted_words() == [(), (3,), (2, 1)]
    assert parse_poly("t2 + t1^2 + t1*t2").sorted_monomials() == [((2, 1),), ((1, 2),), ((1, 1), (2, 1))]


def test_equality_is_type_exact():
    assert AdemElement(frozenset()) != PolyElement(frozenset())
    assert AdemElement(frozenset({()})) != PolyElement(frozenset({()}))
    assert AdemElement(frozenset()) == AdemElement.zero()


def test_module_elements_compare_their_module_by_identity():
    first, second = real_proj(3), real_proj(3)
    assert first.element("t1") == first.element("t1")
    assert first.element("t1") != second.element("t1")
    assert first.element(frozenset()) != second.element(frozenset())
    with pytest.raises(ValueError):
        first.element("t1") + second.element("t1")
    assert first.element("t1") + first.element(["t1", "t2"]) == first.element("t2")
    assert hash(first.element("t1")) == hash(first.element("t1"))
    assert len({first.element("t1"), second.element("t1")}) == 2


def test_symbolic_classes_compare_their_symbol_degree():
    assert SymbolicClass.generic(2) != SymbolicClass.generic(3)
    assert SymbolicClass.generic(2) == SymbolicClass.generic(2)
    with pytest.raises(ValueError):
        SymbolicClass.generic(2) + SymbolicClass.generic(3)
    assert (SymbolicClass.generic(2) + SymbolicClass.generic(2)).is_zero()


def test_adding_different_element_classes_is_a_type_error():
    with pytest.raises(TypeError):
        Sq(1) + parse_poly("t1")


@given(small_sets, small_sets)
def test_hash_agrees_with_equality(x, y):
    a, b = AdemElement(frozenset((i,) for i in x)), AdemElement(frozenset((i,) for i in y))
    assert (a == b) == (x == y)
    if a == b:
        assert hash(a) == hash(b)
    assert len({a, b}) == (1 if x == y else 2)


def test_repr_names_the_class_and_its_context():
    assert repr(Sq(2)) == "AdemElement(frozenset({(2,)}))"
    assert repr(SymbolicClass.generic(1)) == "SymbolicClass(1, frozenset({((), ())}))"


def test_records_take_their_fields_positionally():
    failure = AxiomFailure("(I1)", "t1", "identity word does not act as identity")
    assert (failure.axiom, failure.where, failure.detail) == ("(I1)", "t1", "identity word does not act as identity")
    with pytest.raises(TypeError, match=r"^AxiomFailure takes 3 fields, got 2$"):
        AxiomFailure("(I1)", "t1")
    with pytest.raises(TypeError, match=r"^VerifyReport takes 4 fields, got 5$"):
        VerifyReport("s1", 1, 0, (), "extra")
    with pytest.raises(TypeError):
        AxiomFailure("(I1)", "t1", detail="keywords are not fields")


def test_records_compare_type_exactly_field_by_field():
    fields = ("(I1)", "t1", "detail")
    failure = AxiomFailure(*fields)
    assert failure == AxiomFailure(*fields)
    assert failure != AxiomFailure("(I1)", "t1", "other detail")
    assert failure != fields and fields != failure
    assert failure != RelationCertificate(*fields)

    class Twin(Record):
        __slots__ = AxiomFailure.__slots__

    assert failure != Twin(*fields) and Twin(*fields) != failure
    certificate = RelationCertificate(Sq(1, 1), AdemElement.zero(), True)
    assert certificate == RelationCertificate(Sq(1, 1), AdemElement.zero(), True)
    assert certificate != RelationCertificate(Sq(1, 1), AdemElement.zero(), False)


@pytest.mark.parametrize("cls", [AxiomFailure, VerifyReport, Pi4Report, RelationCertificate])
def test_records_are_unhashable(cls):
    assert issubclass(cls, Record)
    record = cls(*range(len(cls.__slots__)))
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)


def test_record_repr_lists_the_fields_in_order():
    assert repr(AxiomFailure("(I1)", "t1", "d")) == "AxiomFailure('(I1)', 't1', 'd')"
    assert repr(VerifyReport("s1", 2, 3, ())) == "VerifyReport('s1', 2, 3, ())"


# All of Unicode, lone surrogates included, or only characters that JSON escapes.
_JSON_TEXT = st.text(st.characters(exclude_categories=())) | st.text('"\\\x00\x1f\x7f\b\f\n\r\t\u00e9\U0001f600\ud800')
# Ints of 4300 digits, the most int() converts to text by default, and of 5000, too many.
_LONG_INTS = st.builds(lambda digits, sign: sign * 10 ** (digits - 1), st.sampled_from([4300, 5000]), st.sampled_from([1, -1]))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _LONG_INTS | _JSON_TEXT,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_JSON_TEXT, inner),
    max_leaves=30,
)


def _written(write, value):
    """What a writer gives: its text, or the type and wording of its error."""
    try:
        return write(value)
    except ValueError as err:  # an int past sys.get_int_max_str_digits()
        return (type(err), str(err))


@settings(max_examples=300)
@given(_JSON_VALUES)
def test_dumps_json_writes_what_json_dumps_writes(value):
    expected = _written(lambda v: json.dumps(v, sort_keys=True, indent=2), value)
    assert _written(dumps_json, value) == expected


def test_dumps_json_examples():
    assert dumps_json({"b": [True, False, None], "a": {}, "c": ((), -1)}) == (
        '{\n  "a": {},\n  "b": [\n    true,\n    false,\n    null\n  ],\n  "c": [\n    [],\n    -1\n  ]\n}'
    )
    assert dumps_json('"\\\x7f\U0001f600\ud800π') == '"\\"\\\\\\u007f\\ud83d\\ude00\\ud800\\u03c0"'
    mixed_keys = [{"a": 1, 2: 3}, {2: 3, "a": 1}, {"a": {"b": 0, 1: 0}}]
    for unwritten in [{"a": 1.5}, {1: "a"}, {"a": {None: 1}}, [{"a"}], *mixed_keys]:
        with pytest.raises(TypeError):
            dumps_json(unwritten)
