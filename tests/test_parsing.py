"""Surface syntax: parsing, printing, and round trips."""

import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steenrod.adem import AdemElement
from steenrod.parsing import ParseError, parse_module, parse_poly, parse_sq
from steenrod.poly import PolyElement, make_monomial

from parsing_helpers import reference_parse_poly, reference_parse_sq

words = st.lists(st.integers(1, 12), max_size=5).map(tuple)
adem_elements = st.frozensets(words, max_size=5).map(AdemElement)

monomials = st.dictionaries(st.integers(1, 5), st.integers(1, 6), max_size=4).map(
    make_monomial
)
poly_elements = st.frozensets(monomials, max_size=5).map(PolyElement)


def test_parse_sq_of_a_large_sum_takes_linear_time():
    # Accumulating the terms in a frozenset copies the whole sum at every
    # '+' (about 5 s on a 2-vCPU Xeon VM); a set takes about 0.1 s.
    text = " + ".join(f"Sq{i}" for i in range(1, 16001))
    start = time.perf_counter()
    element = parse_sq(text)
    assert time.perf_counter() - start < 2
    assert element.words == frozenset((i,) for i in range(1, 16001))


def test_parse_sq_examples():
    assert parse_sq("Sq2 Sq1 + Sq3").words == frozenset({(2, 1), (3,)})
    assert parse_sq("Sq1 + Sq1").is_zero()
    assert parse_sq("1") == AdemElement.one()
    assert parse_sq("0").is_zero()


def test_parse_sq_rejects_sq0_with_hint():
    with pytest.raises(ParseError) as err:
        parse_sq("Sq0")
    assert "write 1" in str(err.value)
    assert err.value.position == 0


def test_parse_sq_error_positions():
    with pytest.raises(ParseError) as err:
        parse_sq("Sq2 + ")
    assert err.value.position == 6
    with pytest.raises(ParseError) as err:
        parse_sq("Sq2 Sq1 Sq0")
    assert err.value.position == 8
    with pytest.raises(ParseError):
        parse_sq("")
    with pytest.raises(ParseError):
        parse_sq("Sq2 & Sq1")


def test_parse_poly_examples():
    assert parse_poly("t1^2*t2").monomials == frozenset({((1, 2), (2, 1))})
    assert parse_poly("t1 + t1").is_zero()
    assert parse_poly("1") == PolyElement.one()
    assert parse_poly("0").is_zero()
    assert parse_poly("t1*t1") == parse_poly("t1^2")
    assert parse_poly("t2^0") == PolyElement.one()
    # Repeated variables merge and zero exponents drop, as make_monomial does.
    merges = {
        "t2*t1^2*t2": ([(2, 1), (1, 2), (2, 1)], "t1^2*t2^2"),
        "t1^0*t3^0": ([(1, 0), (3, 0)], "1"),
        "t1 ^ 0 * t2": ([(1, 0), (2, 1)], "t2"),
    }
    for text, (factors, merged) in merges.items():
        assert parse_poly(text).monomials == frozenset({make_monomial(factors)})
        assert parse_poly(text) == parse_poly(merged)


def test_parse_poly_of_a_large_sum_or_monomial_takes_linear_time():
    # As parse_sq above: a 16,000-term sum and a 5,000-factor monomial.
    start = time.perf_counter()
    element = parse_poly(" + ".join(f"t{i}" for i in range(1, 16001)))
    assert time.perf_counter() - start < 2
    assert element.monomials == frozenset(((i, 1),) for i in range(1, 16001))
    start = time.perf_counter()
    element = parse_poly(" * ".join(f"t{i}^2" for i in range(1, 5001)))
    assert time.perf_counter() - start < 2
    assert element.monomials == frozenset({tuple((i, 2) for i in range(1, 5001))})


def test_parse_poly_errors():
    with pytest.raises(ParseError):
        parse_poly("t1^")
    with pytest.raises(ParseError):
        parse_poly("t0")
    with pytest.raises(ParseError):
        parse_poly("t1 *")
    with pytest.raises(ParseError):
        parse_poly("x1")


@settings(max_examples=400)
@given(adem_elements)
def test_sq_round_trip(element):
    assert parse_sq(str(element)) == element


@settings(max_examples=400)
@given(poly_elements)
def test_poly_round_trip(element):
    assert parse_poly(str(element)) == element


@given(adem_elements)
def test_sq_print_parse_print_idempotent(element):
    printed = str(element)
    assert str(parse_sq(printed)) == printed


def test_whitespace_is_free():
    assert parse_sq("  Sq2   Sq1+Sq3 ") == parse_sq("Sq2 Sq1 + Sq3")
    assert parse_poly(" t1 ^2 * t2 ") == parse_poly("t1^2*t2")


def test_parse_module_names():
    for text, name in [
        ("s3", "s3"),
        ("wedge(s5,s3)", "wedge(s5,s3)"),
        ("susp(cp2)", "susp(cp2)"),
        ("wedge(susp(rp2), s1)", "wedge(susp(rp2),s1)"),
    ]:
        module = parse_module(text)
        assert module.name == name
        assert parse_module(module.name).name == name


def test_parse_module_error_positions():
    with pytest.raises(ParseError) as err:
        parse_module("wedge(s5")
    assert err.value.position == 8
    assert "','" in err.value.message
    with pytest.raises(ParseError) as err:
        parse_module("s3 junk")
    assert err.value.position == 3
    with pytest.raises(ParseError) as err:
        parse_module("nope(1)")
    assert err.value.position == 0
    assert "expected" in err.value.message
    with pytest.raises(ParseError) as err:
        parse_module("wedge(s2, s0)")
    assert err.value.position == 10


def test_parse_module_nesting_is_bounded():
    assert parse_module("susp(" * 50 + "s1" + ")" * 50).top_degree == 51
    with pytest.raises(ParseError) as err:
        parse_module("susp(" * 1200 + "s1" + ")" * 1200)
    assert "nested" in err.value.message


def test_parse_module_dimension_is_bounded():
    assert len(parse_module("rp256").generators) == 256
    assert parse_module("cp256").top_degree == 512
    for text, column in [("rp257", 0), ("cp2000", 0), ("s300", 0), ("wedge(s3, rp2000)", 10)]:
        with pytest.raises(ParseError) as err:
            parse_module(text)
        assert err.value.position == column, text
        assert err.value.message == "dimension must be at most 256"


def test_parse_module_bounds_the_table_entries_it_builds():
    assert len(parse_module("wedge(rp256,cp256)").generators) == 512
    assert len(parse_module("wedge(rp256,wedge(s3,cp256))").generators) == 513
    # Each wedge copies both tables; without the bound the first took
    # about a minute, and the second copies 64k products per level.
    nested = "wedge(rp256," * 40 + "rp256" + ")" * 40
    around_four = "wedge(s1," * 196 + "wedge(wedge(rp256,rp256),wedge(rp256,rp256))" + ")" * 196
    for text, column in [(nested, 78), (around_four, 1789), ("wedge(rp256,wedge(rp256,rp256))", 0)]:
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_module(text)
        assert time.perf_counter() - start < 10
        assert err.value.message == "module expression builds more than 131072 table entries"
        assert err.value.position == column, text[:40]


_TOKENS = ["Sq", "t", "^", "*", "+", "0", "1", "2", "7", " ", "s", "rp", "cp", "wedge(", "susp(", ",", ")", "(", "x"]
_TEXTS = st.one_of(st.text(max_size=40), st.lists(st.sampled_from(_TOKENS), max_size=30).map("".join))


@settings(max_examples=500, deadline=None)
@given(_TEXTS)
def test_parsers_give_a_result_or_a_value_error(text):
    for parse in (parse_sq, parse_poly, parse_module):
        try:
            parse(text)
        except ValueError:
            pass


def _outcome(parse, text):
    """What a parser gives: its element, or the type and wording of its error."""
    try:
        return parse(text)
    except ParseError as err:
        return ("ParseError", err.message, err.position)
    except ValueError as err:
        return ("ValueError", str(err))


# The Sq and polynomial tokens alone, so that most texts reach deep into a term.
_TERM_TOKENS = ["Sq", "t", "^", "*", "+", "0", "1", "2", " "]


@settings(max_examples=2500, deadline=None)
@given(st.one_of(_TEXTS, st.lists(st.sampled_from(_TERM_TOKENS), max_size=20).map("".join)))
def test_parsers_agree_with_the_token_by_token_reference(text):
    assert _outcome(parse_sq, text) == _outcome(reference_parse_sq, text)
    assert _outcome(parse_poly, text) == _outcome(reference_parse_poly, text)


@pytest.mark.parametrize(
    "parse, text, message, column",
    [
        (parse_sq, "Sq0", "Sq0 is not allowed; write 1 for the identity", 0),
        (parse_sq, "Sq2 Sq1 Sq0 Sq4", "Sq0 is not allowed; write 1 for the identity", 8),
        (parse_sq, "Sq2 + Sq00", "Sq0 is not allowed; write 1 for the identity", 6),
        (parse_sq, "1Sq2", "expected '+' or end of expression", 1),
        (parse_sq, "Sq2 +", "expected a term: '1' or a sequence of SqN factors", 5),
        (parse_sq, "Sq2 +  ", "expected a term: '1' or a sequence of SqN factors", 7),
        (parse_sq, "Sq2 Sq", "expected '+' or end of expression", 4),
        (parse_sq, "Sq\u0660", "Sq0 is not allowed; write 1 for the identity", 0),
        (parse_poly, "t0", "variables are numbered from t1", 0),
        (parse_poly, "t1*t2^3 * t0^2", "variables are numbered from t1", 10),
        (parse_poly, "t1^", "expected an exponent after '^'", 3),
        (parse_poly, "t1 ^ ", "expected an exponent after '^'", 5),
        (parse_poly, "t1*", "expected a factor like t1 or t2^3", 3),
        (parse_poly, "t1 * + t2", "expected a factor like t1 or t2^3", 5),
        (parse_poly, "t1^2^3", "expected '+' or end of polynomial", 4),
        (parse_poly, "1*t1", "expected '+' or end of polynomial", 1),
        (parse_poly, "t1 + x1", "expected a factor like t1 or t2^3", 5),
        (parse_module, "wedge(s5,s3", "expected ')'", 11),
        (parse_module, "susp(s3", "expected ')'", 7),
        (parse_module, "cp0", "dimension must be >= 1", 0),
    ],
)
def test_parse_error_messages_and_columns(parse, text, message, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.message, err.value.position) == (message, column)


def test_parsers_read_unicode_digits_as_int_does():
    # \d and int() both take any decimal digit, e.g. Arabic-Indic ones.
    assert parse_sq("Sq\u0663 Sq\u0661") == parse_sq("Sq3 Sq1")
    assert parse_poly("t\u0662^\u0661\u0660") == parse_poly("t2^10")


def test_an_error_earlier_in_a_term_wins_over_a_number_too_long_for_int():
    # int() refuses more than sys.get_int_max_str_digits() digits: a ParseError
    # at the number's first digit, and the factors of a term are still
    # checked in text order.
    long = "1" * 5000
    too_long = f"numbers are limited to {sys.get_int_max_str_digits()} digits"
    for parse, reference, text, expected in [
        (parse_sq, reference_parse_sq, f"Sq0 Sq{long}", ("ParseError", "Sq0 is not allowed; write 1 for the identity", 0)),
        (parse_sq, reference_parse_sq, f"Sq{long} Sq0", ("ParseError", too_long, 2)),
        (parse_sq, reference_parse_sq, f"Sq1 + 1 +  Sq{long}", ("ParseError", too_long, 13)),
        (parse_poly, reference_parse_poly, f"t0^{long}", ("ParseError", "variables are numbered from t1", 0)),
        (parse_poly, reference_parse_poly, f"t1^{long}*t0", ("ParseError", too_long, 3)),
        (parse_poly, reference_parse_poly, f"t{long}*", ("ParseError", too_long, 1)),
    ]:
        assert _outcome(parse, text) == _outcome(reference, text) == expected


def test_parse_module_refuses_a_number_too_long_for_int_at_its_column():
    long = "1" * 5000
    too_long = f"numbers are limited to {sys.get_int_max_str_digits()} digits"
    for text, column in [(f"rp{long}", 2), (f"wedge(s1, cp{long})", 12), (f"susp( s{long})", 7)]:
        with pytest.raises(ParseError) as err:
            parse_module(text)
        assert (err.value.message, err.value.position) == (too_long, column)
    with pytest.raises(ParseError, match="expected ','"):
        parse_module(f"wedge(s1 cp{long})")
