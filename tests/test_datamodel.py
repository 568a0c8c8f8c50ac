import datetime
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from handysql.errors import OraError
from handysql.values import (
    DateType, NumberType, Tristate, Varchar2Type, codec, exact_sum,
    format_date, format_number, normalize_type, parse_date_text,
    parse_type_display, round_significant, type_display,
)

import reference
from conftest import REF_TRUTH, SETTING, truth


# --- type normalization and display ----------------------------------

def test_varchar_becomes_varchar2():
    assert normalize_type("VARCHAR", (20,)) == Varchar2Type(20)
    assert type_display(Varchar2Type(20)) == "VARCHAR2(20)"


def test_integer_becomes_number_38():
    assert normalize_type("INTEGER", ()) == NumberType(38, 0)
    assert type_display(NumberType(38, 0)) == "NUMBER(38)"


def test_bare_number_displays_without_parentheses():
    t = normalize_type("NUMBER", ())
    assert type_display(t) == "NUMBER"
    assert (t.precision, t.scale) == (38, 0)


def test_number_with_scale_displays_both():
    assert type_display(normalize_type("NUMBER", (10, 4))) == "NUMBER(10,4)"


def test_precision_out_of_range_is_1727():
    for bad in (0, 39, 99):
        with pytest.raises(OraError) as exc:
            normalize_type("NUMBER", (bad,))
        assert exc.value.code == 1727


def test_type_display_round_trips():
    for t in (NumberType(2), NumberType(10, 4), NumberType(bare=True),
              Varchar2Type(20), DateType()):
        assert parse_type_display(type_display(t)) == t


# --- dates -----------------------------------------------------------

def test_two_digit_year_window():
    assert parse_date_text("29-AUG-90") == datetime.date(1990, 8, 29)
    assert parse_date_text("01-JAN-49") == datetime.date(2049, 1, 1)
    assert parse_date_text("01-JAN-50") == datetime.date(1950, 1, 1)


def test_four_digit_year_and_case_insensitive_month():
    assert parse_date_text("24-jul-1992") == datetime.date(1992, 7, 24)


def test_bad_dates_are_1858():
    for bad in ("BAD-DATE", "32-JAN-90", "29-FEB-93", "1-XXX-90", "1990-01-01"):
        with pytest.raises(OraError) as exc:
            parse_date_text(bad)
        assert exc.value.code == 1858


def test_format_date_is_fixed_uppercase_form():
    assert format_date(datetime.date(1990, 8, 29)) == "29-AUG-90"
    assert format_date(datetime.date(2005, 1, 3)) == "03-JAN-05"


def test_date_parse_format_round_trip():
    rng_dates = [datetime.date(1955, 2, 28), datetime.date(1999, 12, 31),
                 datetime.date(2049, 6, 15)]
    for d in rng_dates:
        assert parse_date_text(format_date(d)) == d


# --- coercion --------------------------------------------------------

def test_number_coercion_rounds_half_up_to_scale():
    t = NumberType(5, 2)
    assert codec(t).coerce(Decimal("1.005")) == Decimal("1.01")
    assert codec(t).coerce(Decimal("-1.005")) == Decimal("-1.01")
    assert codec(t).coerce(Decimal("1.004")) == Decimal("1.00")


def test_number_overflow_is_1438_after_rounding():
    t = NumberType(2, 0)
    assert codec(t).coerce(Decimal("99.4")) == Decimal("99")
    with pytest.raises(OraError) as exc:
        codec(t).coerce(Decimal("99.5"))
    assert exc.value.code == 1438


def test_string_into_number_is_1722():
    with pytest.raises(OraError) as exc:
        codec(NumberType(5)).coerce("ABC")
    assert exc.value.code == 1722


def test_varchar_length_enforced_12899():
    assert codec(Varchar2Type(5)).coerce("ABCDE") == "ABCDE"
    with pytest.raises(OraError) as exc:
        codec(Varchar2Type(5)).coerce("ABCDEF")
    assert exc.value.code == 12899


def test_string_into_date_parses():
    assert codec(DateType()).coerce("29-AUG-90") == datetime.date(1990, 8, 29)


def test_cross_kind_coercions_are_932():
    cases = [
        (Decimal(1), Varchar2Type(5)),
        (Decimal(1), DateType()),
        (datetime.date(1990, 1, 1), NumberType(5)),
        (datetime.date(1990, 1, 1), Varchar2Type(20)),
    ]
    for value, target in cases:
        with pytest.raises(OraError) as exc:
            codec(target).coerce(value)
        assert exc.value.code == 932


def test_null_passes_any_coercion():
    for t in (NumberType(5), Varchar2Type(5), DateType()):
        assert codec(t).coerce(None) is None


# --- comparison and logic, through compiled predicates ---------------

def test_null_comparisons_are_unknown():
    assert truth("A = B", None, Decimal(1)) is Tristate.UNKNOWN
    assert truth("A = B", None, None) is Tristate.UNKNOWN
    assert truth("A != B", "A", None) is Tristate.UNKNOWN


def test_same_kind_comparisons():
    assert truth("A = B", Decimal("2"), Decimal("2.0")) is Tristate.TRUE
    assert truth("A < B", "A", "B") is Tristate.TRUE
    assert truth("A > B", datetime.date(1990, 1, 1),
                 datetime.date(1991, 1, 1)) is Tristate.FALSE


def test_text_number_comparison_is_1722():
    with pytest.raises(OraError) as exc:
        truth("A = B", "1", Decimal(1))
    assert exc.value.code == 1722


def test_date_mismatch_comparison_is_932():
    with pytest.raises(OraError) as exc:
        truth("A = B", datetime.date(1990, 1, 1), Decimal(5))
    assert exc.value.code == 932


@given(st.sampled_from(list(SETTING)), st.sampled_from(list(SETTING)))
def test_kleene_tables_match_reference(a, b):
    row = SETTING[a], SETTING[b]
    assert REF_TRUTH[truth("A = 1 AND B = 1", *row)] == reference.and3(a, b)
    assert REF_TRUTH[truth("A = 1 OR B = 1", *row)] == reference.or3(a, b)
    assert REF_TRUTH[truth("NOT A = 1", *row)] == reference.not3(a)


# --- exact arithmetic ------------------------------------------------

def test_format_number_never_scientific():
    assert format_number(Decimal("1E+3")) == "1000"
    assert format_number(Decimal("0.0001")) == "0.0001"


def test_round_significant_agrees_with_integer_oracle():
    cases = [Fraction(560, 7), Fraction(1, 3), Fraction(2, 3),
             Fraction(-1, 7), Fraction(10 ** 40, 7), Fraction(1, 10 ** 45)]
    for fr in cases:
        engine = round_significant(fr)
        assert Fraction(engine) == reference.round_sig(fr)


@given(st.integers(-10 ** 20, 10 ** 20), st.integers(1, 10 ** 10))
def test_round_significant_property(num, den):
    fr = Fraction(num, den)
    assert Fraction(round_significant(fr)) == reference.round_sig(fr)


def test_exact_sum_keeps_every_digit():
    values = [Decimal("1" * 30), Decimal("0." + "9" * 30)]
    assert Fraction(exact_sum(values)) == sum(Fraction(v) for v in values)
