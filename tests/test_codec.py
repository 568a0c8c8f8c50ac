"""Column codecs against the per-value oracles in reference.py.

The codecs must give what the oracles give, value for value and error
for error, except in three places where the oracles are wrong:
  - a zero is never negative, after INSERT, after loading, or shown;
  - a snapshot cell ending in a lone backslash is a bad escape;
  - a snapshot DATE cell reads only as YYYY-MM-DD, the form saves
    writes, whatever date.fromisoformat accepts on this Python.
"""

import dataclasses
import datetime
import re
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from conftest import make_session, run_sql
from handysql import catalog, constraints, persistence
from handysql.catalog import ColumnSchema, Database, Table
from handysql.errors import OraError
from handysql.executor import ResultSet
from handysql.nodes import Literal
from handysql.persistence import SnapshotError, loads, saves
from handysql.render import render_expr
from handysql.shell import render_result_set
from handysql.values import (
    MAX_PRECISION, DateType, NumberType, Varchar2Type, codec, type_display,
    value_codec,
)

NUMBER_TYPES = st.one_of(
    st.builds(NumberType, st.integers(1, MAX_PRECISION), st.integers(0, 12)),
    st.just(NumberType(bare=True)))
TEXT_TYPES = st.builds(Varchar2Type, st.integers(1, 6))
TYPES = st.one_of(NUMBER_TYPES, TEXT_TYPES, st.just(DateType()))


def decimal_of(n: int, exponent: int) -> Decimal:
    """n * 10**exponent, exactly, whatever the context's precision."""
    return Decimal((int(n < 0), tuple(map(int, str(abs(n)))), exponent))


@st.composite
def numbers(draw, t: NumberType | None = None) -> Decimal:
    """Decimals near a type's precision and scale edges, or anywhere."""
    if t is None or draw(st.booleans()):
        return draw(st.one_of(
            st.decimals(allow_nan=False, allow_infinity=False),
            st.builds(decimal_of, st.integers(-10 ** 45, 10 ** 45),
                      st.integers(-300, 300))))
    p = t.precision
    digits = draw(st.one_of(st.integers(p - 1, p + 1), st.integers(0, p)))
    n = max(0, 10 ** digits + draw(st.integers(-3, 3)))
    if draw(st.booleans()):
        n = n * 10 + 5  # a half at the first digit past the scale
    exponent = -t.scale - draw(st.integers(-2, 3))
    sign = draw(st.sampled_from([1, -1]))
    return decimal_of(sign * n, exponent)


DATE_TEXTS = st.one_of(
    st.sampled_from(["29-AUG-90", "31-FEB-20", "01-jan-2020", " 1-JAN-90 ",
                     "29-FEB-00", "29-FEB-1900", "1-JAN-1", "AUG-90"]),
    st.builds("{:02d}-{}-{}".format, st.integers(0, 32),
              st.sampled_from(["JAN", "feb", "DEC", "XYZ"]),
              st.sampled_from(["49", "50", "1999", "0001"])))
# Text with the characters snapshot cells escape, and others.
TEXTS = st.one_of(st.text(max_size=8), st.text("\\\t\n\rNa", max_size=6),
                  DATE_TEXTS)
DATES = st.dates()


@st.composite
def typed_values(draw):
    """A column type and a literal of any kind to coerce into it."""
    t = draw(TYPES)
    value = draw(st.one_of(
        st.none(), TEXTS, DATES,
        numbers(t if isinstance(t, NumberType) else None)))
    return t, value


def outcome(fn, *args):
    """What a call gives, with a number's exact digits and scale."""
    try:
        value = fn(*args)
    except OraError as err:
        return ("ORA", err.code)
    except SnapshotError as err:
        return ("snapshot", str(err))
    if isinstance(value, list):
        return [(type(v), str(v)) for v in value]
    return (type(value), str(value))


def unsigned(result):
    """The outcome with every zero's sign dropped."""
    if isinstance(result, list):
        return [unsigned(cell) for cell in result]
    if result[0] is Decimal and not Decimal(result[1]):
        return (Decimal, result[1].lstrip("-"))
    return result


@settings(max_examples=400)
@given(typed_values())
def test_coerce_matches_the_oracle(case):
    t, value = case
    expected = unsigned(outcome(reference.coerce_value, value, t))
    assert outcome(codec(t).coerce, value) == expected


@given(TYPES)
def test_codec_is_built_once_per_type(t):
    assert codec(t) is codec(type(t)(**vars(t)))


# --- snapshot cells ---------------------------------------------------

SPECIAL_CELLS = [
    "NaN", "-NaN", "sNaN", "Infinity", "-Infinity", "1_0", " 1 ", "\u0663",
    "1E+2", "1e-3", "-0", "-0.00", "+1", "", "nope", "\\N", "x\\N",
    "\\\\", "\\t", "\\n", "\\r", "\\x", "a\\", "a\\\\", "a\\\\\\", "\\",
    "2020-01-01", "2020-02-30", "0000-01-01", "2020-13-01", "20200101",
    "2020-W01-1", "2020-01-01 ", "\u0662020-01-01", "1\\t", "\\e",
    "\\eROWS T", "1\\e", "\\e\\N", "\\E", "1", "1.5", "12345678",
]
CELL_ALPHABET = "019-.E \\tnrxNa\t\r"


def cells(t):
    """Snapshot cell texts, valid or not, for a column of type t."""
    kinds = [st.sampled_from(SPECIAL_CELLS),
             st.text(CELL_ALPHABET, max_size=6)]
    if isinstance(t, NumberType):
        kinds.append(numbers(t).map(str))
        kinds.append(numbers(t).map(lambda d: format(d, "f")))
    elif isinstance(t, Varchar2Type):
        kinds.append(TEXTS.map(reference.escape_cell))
    else:
        kinds.append(DATES.map(datetime.date.isoformat))
    return st.one_of(kinds)


def expected_cell(column: ColumnSchema, cell: str):
    """The oracle's outcome for one cell, with the three fixes."""
    got = outcome(reference.parse_row, [column], cell)
    if got[0] == "snapshot" and got[1].startswith("bad escape"):
        return got
    if re.sub(r"\\.", "", cell, flags=re.S).endswith("\\"):
        return ("snapshot", "bad escape \\")
    if isinstance(column.type, DateType) and got != [(type(None), "None")]:
        text = reference.unescape_cell(cell)
        if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
            return ("snapshot", f"bad value {text!r} for column "
                    f"{column.name}: Invalid isoformat string: {text!r}")
    return unsigned(got)


def canonical_cells(t):
    """Cells as saves writes them for values of type t."""
    if isinstance(t, NumberType):
        digits = min(t.precision, 15)
        return st.integers(1 - 10 ** digits, 10 ** digits - 1).map(
            lambda n: reference.escape_cell(decimal_of(n, -t.scale)))
    if isinstance(t, Varchar2Type):
        return st.text(max_size=t.max_len).map(reference.escape_cell)
    return DATES.map(datetime.date.isoformat)


def near_canonical_cells(t):
    """Cells a step away from what saves writes: the bulk checks' edges."""
    if isinstance(t, NumberType):
        point = "." + "0" * t.scale if t.scale else ""
        return st.sampled_from([
            "-0" + point, "01" + point, "+1" + point,
            "9" * (t.precision - t.scale + 1) + point,
            "1" + point + ("0" if t.scale else ".0"), "1" + point[:-1],
            "0." + "1".ljust(t.scale, "0"), "1E+1", "-0.0" + point[1:]])
    if isinstance(t, Varchar2Type):
        return st.sampled_from(["x" * (t.max_len + 1), "a\\tb", "\\e"])
    return st.sampled_from(["2020-1-01", "2020-02-30", "0000-01-01",
                            "2020-01-011", "2020-01-0"])


# TYPES, with more scales beyond the precision, where canonical cells
# start with zeros after the point.
SECTION_TYPES = st.one_of(
    TYPES, st.builds(NumberType, st.integers(1, 3), st.integers(4, 12)))


@st.composite
def snapshot_sections(draw):
    """Columns of a table and the lines of a ROWS section for it.

    Each column is either all cells as saves writes them, or mostly
    those with cells of any kind among them, so that many sections hold
    several faults; a few rows have the wrong width, and some lines
    are blank.
    """
    types = draw(st.lists(SECTION_TYPES, min_size=1, max_size=4))
    columns = [ColumnSchema(f"C{i}", t) for i, t in enumerate(types)]
    kinds = [canonical_cells(t) if draw(st.booleans())
             else st.one_of(*[canonical_cells(t)] * 4,
                            near_canonical_cells(t), cells(t))
             for t in types]
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        texts = [draw(kind) for kind in kinds]
        width = draw(st.integers(0, 19))
        if width == 0:
            texts.append(draw(kinds[0]))
        elif width == 1:
            texts.pop()
        elif width == 2:
            texts = []
        lines.append("\t".join(texts))
    # A line starting so would start another section.
    return columns, [line for line in lines if not line.startswith("ROWS ")]


def load_rows(columns, lines):
    """The values loads reads from a ROWS section, row after row."""
    text = "".join(["HANDYDB 1\nTABLE T\n",
                    *(f"COL {c.name} {type_display(c.type)} NULL\n"
                      for c in columns),
                    "ROWS T\n", *(line + "\n" for line in lines)])
    return [value for row in loads(text).tables["T"].rows for value in row]


def expected_line(columns, line):
    """The oracle's outcome for one ROWS line, with the three fixes."""
    if len(line.split("\t")) != len(columns):
        return outcome(reference.parse_row, columns, line)
    expected = []
    for column, cell in zip(columns, line.split("\t")):
        got = expected_cell(column, cell)
        if not isinstance(got, list):
            return got
        expected += got
    return expected


@settings(max_examples=400)
@given(snapshot_sections())
@example(([ColumnSchema("C0", NumberType(5)),
           ColumnSchema("C1", NumberType(5, 2))], ["1\t1.00", "-0\t-0.00"]))
@example(([ColumnSchema("C0", NumberType(1, 12)),
           ColumnSchema("C1", NumberType(2, 4))],
          ["0.000000000009\t0.0099", "0.000000000010\t0.0100"]))
def test_decode_matches_the_oracle(case):
    """A section read a column at a time, against parse_row line by line.

    The first line the oracle turns away gives the error, and a blank
    line is no row.
    """
    columns, lines = case
    expected = []
    for line in filter(None, lines):
        got = expected_line(columns, line)
        if not isinstance(got, list):
            expected = got
            break
        expected += got
    assert outcome(load_rows, columns, lines) == expected


@settings(max_examples=300)
@given(typed_values())
def test_encode_matches_the_oracle_and_decodes_back(case):
    t, value = case
    try:
        stored = codec(t).coerce(value)
    except OraError:
        return
    cell = codec(t).encode(stored) if stored is not None else "\\N"
    assert cell == reference.escape_cell(stored)
    # A number first, so that the line is neither blank nor a header.
    columns = [ColumnSchema("N", NumberType()), ColumnSchema("A", t)]
    assert outcome(load_rows, columns, ["1\t" + cell]) == [
        (Decimal, "1"), (type(stored), str(stored))]


def saved_columns(text):
    """For each column of each ROWS section, whether a cell is escaped."""
    escaped = []
    for section in text.split("\nROWS ")[1:]:
        lines = list(filter(None, section.split("\n")[1:]))
        cells = [line.split("\t") for line in lines]
        escaped += [any("\\" in cell and cell != "\\N" for cell in column)
                    for column in zip(*cells)]
    return escaped


@st.composite
def tables(draw):
    """A table of every type, NUMBER at scales 0 to 12, as INSERT fills it."""
    types = draw(st.lists(SECTION_TYPES, min_size=1, max_size=4))
    table = Table("T", [ColumnSchema(f"C{i}", t)
                        for i, t in enumerate(types)])
    for _ in range(draw(st.integers(0, 8))):
        row = []
        for t in types:
            kind = (numbers(t) if isinstance(t, NumberType)
                    else DATES if isinstance(t, DateType)
                    else st.text(max_size=6))
            value = draw(st.one_of(st.none(), kind))
            try:
                row.append(codec(t).coerce(value))
            except OraError:
                row.append(None)
        table.rows.append(row)
    return Database(tables={"T": table})


@settings(max_examples=300)
@given(tables())
def test_saved_cells_load_in_bulk(db):
    """loads reads every column saves writes in bulk, but for escapes.

    A text column holding a cell saves escaped is read cell by cell by
    design; any other column read so means saves or a codec writes a
    cell the bulk checks turn away.
    """
    text = saves(db)
    calls = 0
    decode_cells = persistence._decode_cells

    def counting_cells(column, cells):
        nonlocal calls
        calls += 1
        return decode_cells(column, cells)

    persistence._decode_cells = counting_cells
    try:
        copy = loads(text)
    finally:
        persistence._decode_cells = decode_cells
    assert saves(copy) == text
    assert calls == sum(saved_columns(text))


def one_table(*columns):
    """A database of one table T, from (type, values) pairs per column."""
    types = [t for t, _ in columns]
    rows = [[codec(t).coerce(v) for t, v in zip(types, row)]
            for row in zip(*(values for _, values in columns))]
    return Database(tables={"T": Table(
        "T", [ColumnSchema(f"C{i}", t) for i, t in enumerate(types)],
        rows)})


def expected_rows_lines(table):
    """The ROWS lines of a table, a cell at a time by the oracle.

    A row whose text first cell would leave its line blank (the only
    cell) or reading as a header gets \\e in front.
    """
    lead = isinstance(table.columns[0].type, Varchar2Type)
    lines = []
    for row in table.rows:
        line = "\t".join(map(reference.escape_cell, row))
        first = reference.escape_cell(row[0])
        if lead and ((first == "" and len(row) == 1)
                     or first.startswith("ROWS ")):
            line = "\\e" + line
        lines.append(line)
    return lines


@settings(max_examples=120)
@given(tables())
@example(one_table((NumberType(38, 20), [Decimal("0.0000001"), None]),
                   (NumberType(1, 12), [None, Decimal("0.000000000009")])))
@example(one_table((Varchar2Type(6), ["a\\b", None]),
                   (Varchar2Type(6), ["x", "\t"]),
                   (Varchar2Type(6), [None, "x\ny"]),
                   (Varchar2Type(6), ["\r", ""])))
@example(one_table((Varchar2Type(6), [None, "x", None, "", "yz"]),
                   (NumberType(3), [Decimal(1), None, Decimal(-2),
                                    Decimal(0), None]),
                   (DateType(), [None, datetime.date(1990, 8, 29),
                                 datetime.date(1, 1, 1), None, None])))
@example(one_table((Varchar2Type(8), ["ROWS x", "ROWS T", "ROWSx"]),
                   (Varchar2Type(2), ["", None, "a"])))
@example(one_table((Varchar2Type(6), ["", "ROWS x", None, "x"])))
def test_saved_rows_match_the_cell_at_a_time_oracle(db):
    """saves writes a column at a time what escape_cell writes per cell."""
    text = saves(db)
    lines = text.split("\nROWS T\n", 1)[1].split("\n")[:-1]
    assert lines == expected_rows_lines(db.tables["T"])


def test_clean_columns_are_saved_without_a_call_per_cell(monkeypatch):
    """Numbers without exponents, texts without escapes, and dates."""
    db = one_table(
        (NumberType(5, 2), [Decimal("1.5"), None, Decimal("-0.25")]),
        (NumberType(), [Decimal(10 ** 37), Decimal(7), None]),
        (Varchar2Type(9), [None, "plain", "ROWS x"]),
        (DateType(), [datetime.date(2020, 2, 29), None,
                      datetime.date(1, 1, 1)]))
    expected = saves(db)
    calls = 0

    def counting(encode):
        def wrapper(value):
            nonlocal calls
            calls += 1
            return encode(value)
        return wrapper

    table = db.tables["T"]
    for column in table.columns:
        object.__setattr__(column, "codec", dataclasses.replace(
            column.codec, encode=counting(column.codec.encode)))
    monkeypatch.setattr(persistence, "escape_text",
                        counting(persistence.escape_text))
    assert saves(db) == expected
    assert calls == 0
    # An escaped text sends its own column, and only it, cell by cell.
    table.rows[0][2] = "a\tb"
    saves(db)
    assert calls == len(table.rows)


# --- result sets ------------------------------------------------------

VALUES = st.one_of(numbers(), st.text(max_size=6), DATES)


@given(VALUES)
def test_display_matches_the_oracle(value):
    kind = value_codec(value)
    expected = reference.cell_text(value)
    if isinstance(value, Decimal) and not value:
        expected = expected.lstrip("-")
    assert kind.display(value) == expected
    assert kind.right_aligned == isinstance(value, Decimal)


# 1-40 digits, leading zeros and signed zeros included, at exponents
# from -45 to +10: str writes an exponent at both ends of that range.
NUMBER_TEXTS = st.builds(
    lambda sign, digits, exponent: Decimal(
        (sign, tuple(map(int, digits)), exponent)),
    st.integers(0, 1), st.text("0123456789", min_size=1, max_size=40),
    st.integers(-45, 10))


@settings(max_examples=500)
@given(NUMBER_TEXTS)
def test_number_text_matches_the_oracle(value):
    """Display, snapshot encode and literal text, against digit arithmetic."""
    expected = reference.number_text(value)
    number = codec(NumberType())
    assert number.encode(value) == expected
    assert render_expr(Literal(value)) == expected
    shown = expected.lstrip("-") if not value else expected
    assert number.display(value) == shown


@st.composite
def result_sets(draw):
    kinds = draw(st.lists(st.sampled_from(
        [numbers().map(lambda d: d if d else d.copy_abs()),
         st.text(max_size=6), DATES]), min_size=1, max_size=3))
    headers = [draw(st.text("ABC_", min_size=1, max_size=4)) for _ in kinds]
    rows = draw(st.lists(st.tuples(*[st.one_of(st.none(), kind)
                                     for kind in kinds]).map(list),
                         max_size=5))
    return headers, rows


@settings(max_examples=150)
@given(result_sets())
def test_render_matches_the_oracle(case):
    headers, rows = case
    assert (render_result_set(ResultSet(headers, rows))
            == reference.render_result_set(headers, rows))


# --- the three fixes, end to end --------------------------------------

def test_negative_zero_is_stored_shown_and_saved_unsigned():
    session = make_session()
    run_sql(session, "CREATE TABLE T(A NUMBER(5,2), B NUMBER)")
    assert run_sql(session, "INSERT INTO T VALUES(-0, -0.000)")[1] == (
        "1 row created.")
    assert run_sql(session, "SELECT A, B FROM T")[3] == "0.00 0"
    assert run_sql(session, "SELECT -0 FROM DUAL")[3] == " 0"
    assert saves(session.db).endswith("ROWS T\n0.00\t0\n")
    reloaded = loads(saves(session.db).replace("0.00\t0", "-0.00\t-0E+3"))
    assert [str(v) for v in reloaded.tables["T"].rows[0]] == ["0.00", "0"]


@pytest.mark.parametrize("text", ["20200101", "2020-W01-1"])
def test_date_cells_read_only_as_iso_dates(text):
    with pytest.raises(SnapshotError) as info:
        loads(f"HANDYDB 1\nTABLE T\nCOL D DATE NULL\nROWS T\n{text}\n")
    assert str(info.value) == (f"bad value {text!r} for column D: "
                               f"Invalid isoformat string: {text!r}")


def test_rows_section_reads_header_words_as_text():
    session = make_session()
    run_sql(session, "CREATE TABLE T(A VARCHAR2(12))")
    for text in ("TABLE X", "COL A DATE NULL", "CONSTRAINT C", "COUNTER 9"):
        run_sql(session, f"INSERT INTO T VALUES('{text}')")
    text = saves(session.db)
    assert saves(loads(text)) == text


def test_modify_not_null_scans_through_validate_existing(monkeypatch):
    session = make_session()
    run_sql(session, "CREATE TABLE T(A NUMBER(5))")
    run_sql(session, "INSERT INTO T VALUES(NULL)")
    seen = []

    def spy(db, table, candidate, rows):
        seen.append((candidate.kind, candidate.columns))
        return real(db, table, candidate, rows)

    real = constraints.validate_existing
    monkeypatch.setattr(constraints, "validate_existing", spy)
    counter = session.db.sys_name_counter
    block = run_sql(session, "ALTER TABLE T MODIFY A NUMBER(5) NOT NULL")
    assert "ORA-02296" in "\n".join(block)
    assert seen == [("NOTNULL", ("A",))]
    assert session.db.sys_name_counter == counter
    assert catalog.describe(session.db, "T")[2].split()[1] == "NUMBER(5)"
