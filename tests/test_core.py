"""Literals, canonical encodings, and family enumeration."""

from itertools import product

import pytest

from querylab import (
    LimitExceeded,
    ParseError,
    QueryFunction,
    UndefinedValueError,
    canonical_encoding,
    enumerate_functions,
    input_sort_key,
    parse_function,
)
from querylab.core import RANK_DIGITS


def test_tt_round_trip():
    f = parse_function("tt:2:0111")
    assert f.arity == 2
    assert f.encoding() == "tt:2:0111"
    assert f.domain == ("00", "01", "10", "11")
    assert f("00") == "0" and f("11") == "1"
    assert f.is_total


def test_tt_partial_round_trip():
    f = parse_function("tt:2:0--1")
    assert f.domain == ("00", "11")
    assert not f.is_total
    assert f.encoding() == "tt:2:0--1"
    with pytest.raises(UndefinedValueError):
        f("01")


def test_arity_zero_rejected():
    # functions always have at least one position; the degenerate case is
    # the constant on n >= 1 inputs
    with pytest.raises(ParseError):
        parse_function("tt:0:1")
    with pytest.raises(ValueError):
        QueryFunction(0, {"": "1"})


def test_ext_round_trip_and_canonical_order():
    f = parse_function("ext:2:{0+=1,0*=0}")
    # entries are reordered by symbol rank, not by ASCII
    assert f.encoding() == "ext:2:{0*=0,0+=1}"
    assert f("0*") == "0" and f("0+") == "1"


def test_ext_collapses_to_tt_when_boolean():
    assert parse_function("ext:1:{0=0,1=1}").encoding() == "tt:1:01"
    assert parse_function("ext:2:{00=0,11=1}").encoding() == "tt:2:0--1"


def test_multichar_labels_need_ext():
    f = QueryFunction(1, {"0": "00", "1": "11"})
    enc = f.encoding()
    assert enc.startswith("ext:1:")
    assert parse_function(enc) == f


def test_symbol_rank_order():
    xs = ["++", "00", "1*", "0+", "**", "01"]
    ordered = sorted(xs, key=input_sort_key)
    assert ordered == ["00", "01", "0+", "1*", "**", "++"]


def test_domain_order_is_input_sort_key_order():
    strings = ["".join(p) for n in range(4) for p in product("01*+", repeat=n)]
    by_digits = sorted(strings, key=lambda x: x.translate(RANK_DIGITS))
    assert by_digits == sorted(strings, key=input_sort_key)
    for n in range(1, 4):
        table = {"".join(p): "0" for p in product("01*+", repeat=n)}
        f = QueryFunction(n, dict(reversed(table.items())))
        assert f.domain == tuple(sorted(table, key=input_sort_key))


def test_canonical_encoding_empty_domain():
    f = QueryFunction(2, {})
    assert canonical_encoding(f) == "ext:2:{}"
    # the empty literal is writable but deliberately not parseable
    with pytest.raises(ParseError):
        parse_function("ext:2:{}")


@pytest.mark.parametrize(
    "bad",
    [
        "tt:2:011",          # wrong cell count
        "tt:2:01112",        # illegal cell
        "tt:x:01",           # bad arity
        "tt:-1:0",           # negative arity
        "ext:2:{00=0,00=1}", # duplicate entry
        "ext:2:{0=0}",       # wrong input length
        "ext:2:{0#=0}",      # illegal symbol
        "ext:2:{00=2}",      # illegal label
        "ext:2:{00=}",       # empty label
        "ext:2:00=0",        # missing braces
        "blob:2:0111",       # unknown scheme
        "tt:2",              # truncated
        "",                  # empty
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_function(bad)


def test_query_function_validation():
    with pytest.raises(ValueError):
        QueryFunction(2, {"0": "0"})  # key length mismatch
    with pytest.raises(ValueError):
        QueryFunction(1, {"0": "2"})  # label outside {0,1}
    with pytest.raises(ValueError):
        QueryFunction(1, {"0": ""})  # empty label
    with pytest.raises(ValueError):
        QueryFunction(1, {"a": "0"})  # symbol outside alphabet


def test_alphabet_is_derived_from_domain():
    assert parse_function("tt:2:0111").alphabet == "01"
    assert parse_function("ext:2:{0*=0,0+=1}").alphabet == "01*+"


def test_equality_and_hash():
    a = parse_function("tt:2:0111")
    b = parse_function("ext:2:{00=0,01=1,10=1,11=1}")
    assert a == b
    assert hash(a) == hash(b)
    assert a != parse_function("tt:2:0110")


def test_enumerate_all_total():
    fs = list(enumerate_functions("all-total:1"))
    assert [f.encoding() for f in fs] == ["tt:1:00", "tt:1:01", "tt:1:10", "tt:1:11"]
    assert len(list(enumerate_functions("all-total:2"))) == 16
    assert len(list(enumerate_functions("all-total:3"))) == 256


def test_enumerate_nonconstant():
    fs = list(enumerate_functions("nonconstant-total:2"))
    assert len(fs) == 14
    assert all(len(f.labels()) == 2 for f in fs)


def test_enumerate_named_and_iterable():
    fs = list(enumerate_functions("named:tt:1:01;tt:2:0111"))
    assert [f.arity for f in fs] == [1, 2]
    fs = list(enumerate_functions(["tt:1:01"]))
    assert fs[0].encoding() == "tt:1:01"


def test_enumerate_limits_and_errors():
    with pytest.raises(LimitExceeded):
        list(enumerate_functions("all-total:5"))
    with pytest.raises(ParseError):
        list(enumerate_functions("all-total:0"))
    with pytest.raises(ParseError):
        list(enumerate_functions("weird:3"))
    with pytest.raises(ParseError):
        list(enumerate_functions("all-total:x"))
