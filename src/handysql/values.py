"""Scalar types, runtime values, truth values, dates and column codecs.

Numbers are exact decimals (never binary floats), strings compare
case-sensitively, dates are calendar dates, and NULL is Python None.
NULL never equals anything, including itself; comparisons involving it
yield UNKNOWN.

A column's type fixes the kind of every value it holds, so each type
has one Codec, built on first use: INSERT coercion, the snapshot cell
in both directions, and the result-set text.  Each column holds its
type's codec (catalog.ColumnSchema), and a MODIFY that widens the type
replaces the column.  Number text is str's, unless str writes an
exponent, and date text is put together from precomputed day, month
and year parts, since both run once per cell of a result set or a
snapshot.
"""

from __future__ import annotations

import datetime
import operator
import re
from collections.abc import Callable
from dataclasses import dataclass
from decimal import (
    ROUND_HALF_UP, Context, Decimal, InvalidOperation, localcontext,
)
from enum import Enum
from fractions import Fraction
from functools import cache

from .errors import OraError

SqlValue = Decimal | str | datetime.date | None

MAX_PRECISION = 38

# Plenty for exact sums of 38-significant-digit values at any scale the
# grammar can declare.
_EXACT_PRECISION = 240
_EXACT = Context(prec=_EXACT_PRECISION, rounding=ROUND_HALF_UP)


class Tristate(Enum):
    TRUE = "TRUE"
    FALSE = "FALSE"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class NumberType:
    precision: int = MAX_PRECISION
    scale: int = 0
    # Written as plain NUMBER with no precision: stored as (38, 0) but
    # displayed without parentheses.
    bare: bool = False


@dataclass(frozen=True)
class Varchar2Type:
    max_len: int


@dataclass(frozen=True)
class DateType:
    pass


SqlType = NumberType | Varchar2Type | DateType


def type_display(t: SqlType) -> str:
    """Catalog display form: NUMBER(p), NUMBER(p,s), VARCHAR2(n), DATE."""
    if isinstance(t, NumberType):
        if t.bare:
            return "NUMBER"
        if t.scale:
            return f"NUMBER({t.precision},{t.scale})"
        return f"NUMBER({t.precision})"
    if isinstance(t, Varchar2Type):
        return f"VARCHAR2({t.max_len})"
    return "DATE"


def normalize_type(keyword: str, args: tuple[int, ...],
                   line: int = 1, column: int = 1) -> SqlType:
    """Fold a written type into its stored form.

    VARCHAR becomes VARCHAR2, INTEGER becomes NUMBER(38), bare NUMBER
    keeps a flag so it displays without parentheses.  Idempotent: the
    written form of a normalized type normalizes to itself.
    """
    if keyword == "NUMBER":
        if not args:
            return NumberType(bare=True)
        precision = args[0]
        scale = args[1] if len(args) > 1 else 0
        if not 1 <= precision <= MAX_PRECISION:
            raise OraError(1727, line, column)
        return NumberType(precision, scale)
    if keyword in ("VARCHAR", "VARCHAR2"):
        if args[0] < 1:
            raise OraError(900, line, column)
        return Varchar2Type(args[0])
    if keyword == "INTEGER":
        return NumberType(MAX_PRECISION, 0)
    if keyword == "DATE":
        return DateType()
    raise AssertionError(f"unknown type keyword {keyword!r}")


_DISPLAY_RE = re.compile(
    r"NUMBER(?:\((\d+)(?:,(\d+))?\))?|VARCHAR2\((\d+)\)|DATE")


def parse_type_display(text: str) -> SqlType:
    """Inverse of type_display, used by the snapshot loader."""
    m = _DISPLAY_RE.fullmatch(text)
    if not m:
        raise ValueError(f"bad type display {text!r}")
    if text == "DATE":
        return DateType()
    if text.startswith("VARCHAR2"):
        return Varchar2Type(int(m.group(3)))
    if m.group(1) is None:
        return NumberType(bare=True)
    return NumberType(int(m.group(1)), int(m.group(2) or 0))


_MONTHS = ("JAN", "FEB", "MAR", "APR", "MAY", "JUN",
           "JUL", "AUG", "SEP", "OCT", "NOV", "DEC")
_MONTH_NUMBERS = {name: i + 1 for i, name in enumerate(_MONTHS)}
_DATE_RE = re.compile(r"(\d{1,2})-([A-Za-z]{3})-(\d{2}|\d{4})")


def parse_date_text(text: str) -> datetime.date:
    """Parse DD-MON-YY or DD-MON-YYYY.

    Two-digit years use a fixed window: 50-99 is 19xx, 00-49 is 20xx.
    Anything else, including impossible calendar dates, raises 1858.
    """
    m = _DATE_RE.fullmatch(text.strip())
    if not m:
        raise OraError(1858)
    month = _MONTH_NUMBERS.get(m.group(2).upper())
    if month is None:
        raise OraError(1858)
    year = int(m.group(3))
    if len(m.group(3)) == 2:
        year += 1900 if year >= 50 else 2000
    try:
        return datetime.date(year, month, int(m.group(1)))
    except ValueError:
        raise OraError(1858) from None


# The three parts of a DD-MON-YY text, by day, month and year % 100.
_DAY_TEXTS = tuple(f"{day:02d}-" for day in range(32))
_MONTH_TEXTS = ("", *(f"{name}-" for name in _MONTHS))
_YEAR_TEXTS = tuple(f"{year:02d}" for year in range(100))


def format_date(d: datetime.date) -> str:
    """DD-MON-YY with an uppercase month, the fixed output form."""
    return (_DAY_TEXTS[d.day] + _MONTH_TEXTS[d.month]
            + _YEAR_TEXTS[d.year % 100])


def format_number(value: Decimal) -> str:
    """Plain decimal text, never scientific notation.

    str gives exactly that text unless it writes an exponent, at a
    fraction of the cost of format(value, "f")'s.
    """
    text = str(value)
    return format(value, "f") if "E" in text else text


@dataclass(frozen=True, slots=True)
class Codec:
    """How the values of one column type enter and leave the engine.

    coerce fits an INSERT literal, or NULL, into the type, or raises
    its ORA error.  decode reads the text of a non-NULL snapshot cell,
    its escapes already undone, or raises OraError, ValueError or
    ArithmeticError.  decode_column reads a column of such texts that
    hold no tab and no backslash in one bulk check and one conversion,
    to what decode makes of each, or gives None when some text is not
    as encode writes it.  encode writes a non-NULL value as its snapshot
    cell, escapes included.  display gives a non-NULL value's text in a
    result set, where right_aligned columns are padded on the left.
    """
    coerce: Callable[[SqlValue], SqlValue]
    decode: Callable[[str], SqlValue]
    decode_column: Callable[[list[str]], list[SqlValue] | None]
    encode: Callable[[SqlValue], str]
    display: Callable[[SqlValue], str]
    right_aligned: bool


@cache
def codec(sql_type: SqlType) -> Codec:
    """The codec of a column type, built once per distinct type.

    Numbers round fractional digits beyond the scale half-up and must
    fit the precision afterwards (1438); every zero becomes an unsigned
    one, since Oracle has no negative zero.  Strings must fit the
    declared length (12899) and parse as dates for DATE columns (1858).
    Text is never implicitly accepted as a number (1722); other
    cross-kind moves are 932.  Snapshot numbers are plain positional
    text, dates YYYY-MM-DD and nothing else, and text escapes
    backslash, tab, newline and carriage return.  A column of the texts
    encode writes passes decode_column's bulk check and is read by C
    builtins.
    """
    if isinstance(sql_type, NumberType):
        return _number_codec(sql_type)
    if isinstance(sql_type, Varchar2Type):
        return _text_codec(sql_type)
    return _DATE_CODEC


def value_codec(value: SqlValue) -> Codec:
    """A codec of a non-NULL value's kind, for its display and alignment.

    Both depend on the kind alone, never on a type's size.
    """
    return _KIND_CODECS[value.__class__]


def _number_codec(t: NumberType) -> Codec:
    exponent = Decimal(1).scaleb(-t.scale)
    bound = Decimal(1).scaleb(t.precision - t.scale)

    def fit(value: Decimal) -> Decimal:
        try:
            rounded = value.quantize(exponent, context=_EXACT)
        except InvalidOperation:
            # More digits than even the working precision holds.
            raise OraError(1438) from None
        if rounded.copy_abs() >= bound:
            raise OraError(1438)
        return rounded if rounded else rounded.copy_abs()

    def coerce(value: SqlValue) -> SqlValue:
        if isinstance(value, Decimal):
            return fit(value)
        if value is None:
            return None
        raise OraError(1722 if isinstance(value, str) else 932)

    canonical = _canonical_numbers(t)

    def decode_column(texts: list[str]) -> list[SqlValue] | None:
        if canonical.fullmatch("\t".join(texts)):
            return list(map(Decimal, texts))
        return None

    return Codec(coerce, lambda text: fit(Decimal(text)), decode_column,
                 format_number, _number_text, True)


def _canonical_numbers(t: NumberType) -> re.Pattern[str]:
    """Tab-separated number texts as format_number writes a type's values.

    Each has exactly scale fraction digits, at most precision - scale
    integer digits with no leading zero, and no negative zero, so that
    Decimal(text) is already what fit(Decimal(text)) makes of it.
    """
    whole = t.precision - t.scale
    if not t.scale:
        cell = rf"-?[1-9][0-9]{{0,{whole - 1}}}|0"
    else:
        # Below 10 ** (precision - scale), the first fraction digits of
        # a scale beyond the precision are zeros.
        lead = max(0, -whole)
        fraction = "0" * lead + f"[0-9]{{{t.scale - lead}}}"
        cell = rf"0\.{fraction}|-0\.(?=0*[1-9]){fraction}"
        if whole > 0:
            cell = rf"-?[1-9][0-9]{{0,{whole - 1}}}\.{fraction}|{cell}"
    return re.compile(rf"(?:{cell})(?:\t(?:{cell}))*")


def _text_codec(t: Varchar2Type) -> Codec:
    max_len = t.max_len

    def fit(text: str) -> str:
        if len(text) > max_len:
            raise OraError(12899)
        return text

    def coerce(value: SqlValue) -> SqlValue:
        if isinstance(value, str):
            return fit(value)
        if value is None:
            return None
        raise OraError(932)

    def decode_column(texts: list[str]) -> list[SqlValue] | None:
        return texts if max(map(len, texts), default=0) <= max_len else None

    return Codec(coerce, fit, decode_column, escape_text, str, False)


def _coerce_date(value: SqlValue) -> SqlValue:
    if isinstance(value, datetime.date):
        return value
    if isinstance(value, str):
        return parse_date_text(value)
    if value is None:
        return None
    raise OraError(932)


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_ISO_DATES = re.compile(rf"{_ISO_DATE.pattern}(?:\t{_ISO_DATE.pattern})*")


def _decode_date(text: str) -> datetime.date:
    # date.fromisoformat reads more forms on some Python versions than
    # on others, so only the one saves writes gets that far.
    if _ISO_DATE.fullmatch(text) is None:
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return datetime.date.fromisoformat(text)


def _decode_date_column(texts: list[str]) -> list[SqlValue] | None:
    if _ISO_DATES.fullmatch("\t".join(texts)) is None:
        return None
    try:
        return list(map(datetime.date.fromisoformat, texts))
    except ValueError:  # a day the calendar lacks
        return None


def _number_text(value: Decimal) -> str:
    if not value:
        value = value.copy_abs()
    text = str(value)
    return format(value, "f") if "E" in text else text


def escape_text(text: str) -> str:
    """A text's snapshot cell; persistence undoes the escapes."""
    return (text.replace("\\", "\\\\")
                .replace("\t", "\\t")
                .replace("\n", "\\n")
                .replace("\r", "\\r"))


_DATE_CODEC = Codec(_coerce_date, _decode_date, _decode_date_column,
                    datetime.date.isoformat, format_date, False)
_KIND_CODECS = {Decimal: codec(NumberType()), str: codec(Varchar2Type(1)),
                datetime.date: _DATE_CODEC}


COMPARE_OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
               "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def mismatch_code(kind_a: type, kind_b: type) -> int:
    """The error for comparing two different kinds of value.

    Text against a number is 1722; any other pair is 932.
    """
    return 1722 if {kind_a, kind_b} == {str, Decimal} else 932


def round_significant(value: Fraction, digits: int = MAX_PRECISION) -> Decimal:
    """Round an exact rational half-up to a number of significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_UP
        return Decimal(value.numerator) / Decimal(value.denominator)


def exact_sum(values: list[Decimal]) -> Decimal:
    """Sum decimals with enough working precision to stay exact."""
    with localcontext(_EXACT):
        return sum(values, Decimal(0))
