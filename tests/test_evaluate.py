"""Compiled predicates against the tree-walking oracle, NoREC-style.

Rigger and Su (ESEC/FSE 2020) check an optimized evaluation against a
plain one on random inputs.  Here the optimized side is
evaluate.compile_predicate and the plain side is
reference.interpret_predicate: on every row both must give the same
truth value or raise the same (code, line, column).  Each slot has a
declared type and holds values of its kind only, as stored rows do, so
the compiler's typed comparisons run; slots and literals of different
kinds still meet, so the checked comparisons and their errors run too.
A test the compiler says cannot raise must never raise.  The filter
kernels of evaluate.compile_filter are checked the same way: each keeps,
in order, exactly the rows the oracle finds TRUE.
"""

import datetime
import itertools
import operator
from decimal import Decimal

from hypothesis import given, settings, strategies as st

import reference
from conftest import REF_TRUTH, make_session, run_sql
from handysql.catalog import BUILTINS
from handysql.errors import OraError
from handysql.evaluate import compile_filter, compile_predicate
from handysql.nodes import (AggregateCall, BoolOp, ColumnRef, Comparison,
                            IsNull, Literal, Not)
from handysql.persistence import SnapshotError, loads, saves
from handysql.values import DateType, NumberType, Varchar2Type

WIDTH = 3
SLOT_OF = {ColumnRef(f"C{i}"): i for i in range(WIDTH)}

# Numbers at several scales, so equal values differ in Decimal form;
# text that looks like a number; dates.  Every kind meets every other.
NUMBERS = st.sampled_from(("0", "1", "1.0", "1.00", "-1", "2.5", "2.50")
                          ).map(Decimal)
TEXTS = st.sampled_from(("", "1", "A", "a", "B"))
DATES = st.sampled_from((datetime.date(1990, 1, 1),
                         datetime.date(2001, 5, 9)))
VALUES = st.one_of(st.none(), NUMBERS, TEXTS, DATES)
# A declared type of each kind, and the values a column of it holds.
KINDS = ((NumberType(10, 2), NUMBERS), (Varchar2Type(5), TEXTS),
         (DateType(), DATES))


@st.composite
def tables(draw):
    """A declared type per slot, and rows whose values have its kind."""
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=WIDTH,
                          max_size=WIDTH))
    row = st.tuples(*(st.one_of(st.none(), values) for _, values in kinds))
    rows = draw(st.lists(row.map(list), max_size=4))
    return [sql_type for sql_type, _ in kinds], rows


@st.composite
def predicates(draw, max_depth=3):
    """A random predicate tree; every node has its own position."""
    positions = itertools.count(1)

    def expr():
        line = next(positions)
        # Mostly columns and literals: an aggregate anywhere makes most
        # rows raise.
        shape = draw(st.integers(0, 14))
        if shape == 0:
            arg = draw(st.sampled_from((None, *SLOT_OF)))
            return AggregateCall("COUNT", arg, line=line, column=1)
        if shape <= 7:
            return Literal(draw(VALUES), line=line, column=1)
        return ColumnRef(f"C{draw(st.integers(0, WIDTH - 1))}",
                         line=line, column=1)

    def pred(depth):
        shape = draw(st.sampled_from(
            ("cmp", "cmp", "isnull", "not", "and", "or")
            if depth else ("cmp", "cmp", "isnull")))
        line = next(positions)
        if shape == "cmp":
            op = draw(st.sampled_from(("=", "!=", "<", "<=", ">", ">=")))
            return Comparison(op, expr(), expr(), line=line, column=2)
        if shape == "isnull":
            return IsNull(expr(), draw(st.booleans()), line=line, column=2)
        if shape == "not":
            return Not(pred(depth - 1))
        # Operands may be chains of the same op, which the parser never
        # makes, so chains of any shape are checked.
        return BoolOp(shape.upper(), tuple(
            pred(depth - 1) for _ in range(draw(st.integers(2, 4)))))

    return pred(draw(st.integers(0, max_depth)))


def outcome(evaluate):
    try:
        return evaluate()
    except OraError as err:
        return (err.code, err.line, err.column)


@settings(max_examples=400)
@given(predicates(), tables())
def test_compiled_predicate_matches_tree_walk(pred, table):
    types, rows = table
    # Compiling never raises: an aggregate's 934 waits for a row.
    test, raises = compile_predicate(
        pred, SLOT_OF, lambda ref: types[SLOT_OF[ref]])
    for row in rows:
        expected = outcome(lambda: reference.interpret_predicate(
            pred, lambda ref: row[SLOT_OF[ref]]))
        got = outcome(lambda: REF_TRUTH[test(row)])
        assert got == expected
        # A test said not to raise never does.
        assert raises or isinstance(expected, str)


# Two columns of each kind, so a comparison may pair two columns of one
# kind as well as a column with itself.
FILTER_KINDS = ((NumberType(10, 2), NUMBERS), (NumberType(10, 2), NUMBERS),
                (Varchar2Type(5), TEXTS), (Varchar2Type(5), TEXTS),
                (DateType(), DATES), (DateType(), DATES))
FILTER_SLOTS = {ColumnRef(f"C{i}"): i for i in range(len(FILTER_KINDS))}


@st.composite
def kernel_predicates(draw):
    """A conjunct that compile_filter scans without a per-row call.

    A column against a non-NULL literal of its kind on either side,
    two columns of one kind, or a column IS [NOT] NULL.
    """
    i = draw(st.integers(0, len(FILTER_KINDS) - 1))
    column = ColumnRef(f"C{i}", line=1, column=1)
    shape = draw(st.sampled_from(("column-literal", "literal-column",
                                  "column-column", "isnull")))
    if shape == "isnull":
        return IsNull(column, draw(st.booleans()), line=1, column=2)
    if shape == "column-column":
        # The other column of the kind, or the column itself.
        other = ColumnRef(f"C{draw(st.sampled_from((i, i ^ 1)))}",
                          line=1, column=3)
    else:
        other = Literal(draw(FILTER_KINDS[i][1]), line=1, column=3)
    if shape == "literal-column":
        column, other = other, column
    op = draw(st.sampled_from(("=", "!=", "<", "<=", ">", ">=")))
    return Comparison(op, column, other, line=1, column=2)


@settings(max_examples=400)
@given(kernel_predicates(), st.lists(
    st.tuples(*(st.one_of(st.none(), values)
                for _, values in FILTER_KINDS)).map(list), max_size=8))
def test_filter_kernels_match_tree_walk(pred, rows):
    """A kernel keeps, in order, the rows where the oracle says TRUE."""
    rows_where, raises = compile_filter(
        pred, FILTER_SLOTS, lambda ref: FILTER_KINDS[FILTER_SLOTS[ref]][0])
    assert not raises
    expected = [row for row in rows if reference.interpret_predicate(
        pred, lambda ref: row[FILTER_SLOTS[ref]]) == reference.TRUE]
    got = rows_where(iter(rows))
    assert got == expected
    # The very rows, not copies.
    assert all(map(operator.is_, got, expected))


# The compiled comparisons above trust that a column of each type only
# ever holds values of one class.  The class is exact: a datetime, say,
# does not compare with a date.
KIND_OF = {NumberType: Decimal, Varchar2Type: str, DateType: datetime.date}
DECLARED = ("NUMBER", "NUMBER(5,2)", "INTEGER", "VARCHAR2(6)", "VARCHAR(3)",
            "DATE")
LITERALS = ("NULL", "0", "-0.004", "12.345", "999", "1e3", "'1'", "''",
            "'abc'", "'01-JAN-90'", "'29-feb-2000'", "'x\ty'")
CELLS = ("\\N", "0", "-0.00", "12.5", "abc", "", "\\e", "\\eROWS T",
         "2020-01-01", "01-JAN-90", "a\\tb")


def assert_declared_kinds(table, rows):
    for row in rows:
        for col, value in zip(table.columns, row):
            assert value is None or type(value) is KIND_OF[type(col.type)]


@settings(max_examples=150)
@given(st.lists(st.sampled_from(DECLARED), min_size=1, max_size=3),
       st.lists(st.lists(st.sampled_from(LITERALS), min_size=3, max_size=3),
                max_size=4),
       st.lists(st.sampled_from(CELLS), min_size=3, max_size=3))
def test_stored_values_have_their_declared_kind(declared, inserts, cells):
    """INSERT, MODIFY and loads store only values of the declared kind."""
    session = make_session()
    columns = ", ".join(f"C{i} {t}" for i, t in enumerate(declared))
    run_sql(session, f"CREATE TABLE T({columns})")
    for literals in inserts:
        values = ", ".join(literals[:len(declared)])
        run_sql(session, f"INSERT INTO T VALUES({values})")
    if declared[0] == "VARCHAR(3)":
        run_sql(session, "ALTER TABLE T MODIFY C0 VARCHAR2(9)")
    table = session.db.tables["T"]
    assert_declared_kinds(table, table.rows)

    text = saves(session.db)
    assert_declared_kinds(table, loads(text).tables["T"].rows)
    try:
        edited = loads(text + "\t".join(cells[:len(declared)]) + "\n")
    except SnapshotError:
        return
    assert_declared_kinds(table, edited.tables["T"].rows)


def test_builtin_rows_have_their_declared_kind():
    session = make_session()
    for text in ("CREATE TABLE T(A NUMBER(3), B VARCHAR2(5))",
                 "ALTER TABLE T ADD CONSTRAINT PK_T PRIMARY KEY (A)",
                 "ALTER TABLE T ADD CONSTRAINT CH_T CHECK (B != 'x')",
                 "ALTER TABLE T MODIFY B VARCHAR2(5) NOT NULL"):
        assert run_sql(session, text)[1].startswith("Table")
    for table, rows_of in BUILTINS.values():
        rows = rows_of(session.db)
        assert rows
        assert_declared_kinds(table, rows)
