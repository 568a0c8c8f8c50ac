from decimal import Decimal
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import nested

from handysql import parser
from handysql.errors import OraError
from handysql.lexer import KEYWORDS, tokenize
from handysql.nodes import (
    AggregateCall, AlterAddConstraint, AlterModify, BoolOp, CheckBody,
    ColumnClause, ColumnRef, Comparison, CreateTable, Describe, FallbackBody,
    Insert, IsNull, Literal, Not, PrimaryKeyBody, Select, SelectItem,
    TableRef, TypeSpec, UniqueBody,
)
from handysql.parser import MAX_NESTING, parse, parse_text


def fails_with(text, code, line=None, column=None):
    with pytest.raises(OraError) as exc:
        parse_text(text)
    assert exc.value.code == code
    if line is not None:
        assert exc.value.line == line
    if column is not None:
        assert exc.value.column == column
    return exc.value


# --- create / describe ----------------------------------------------

def test_create_table_tree():
    stmt = parse_text("CREATE TABLE T(A NUMBER(2), B VARCHAR(20), C DATE)")
    assert stmt == CreateTable("T", (
        ColumnClause("A", TypeSpec("NUMBER", (2,))),
        ColumnClause("B", TypeSpec("VARCHAR", (20,))),
        ColumnClause("C", TypeSpec("DATE")),
    ))


def test_create_preserves_written_type_spelling():
    stmt = parse_text("CREATE TABLE T(A INTEGER, B VARCHAR2(5), C NUMBER)")
    assert [c.type_spec for c in stmt.columns] == [
        TypeSpec("INTEGER"), TypeSpec("VARCHAR2", (5,)), TypeSpec("NUMBER")]


def test_number_with_precision_and_scale():
    stmt = parse_text("CREATE TABLE T(A NUMBER(10,4))")
    assert stmt.columns[0].type_spec == TypeSpec("NUMBER", (10, 4))


def test_desc_and_describe_forms():
    assert parse_text("DESC STUDENTS") == Describe("STUDENTS")
    assert parse_text("DESCRIBE STUDENTS") == Describe("STUDENTS")


def test_varchar_requires_length():
    fails_with("CREATE TABLE T(A VARCHAR)", 900)


def test_create_missing_paren_is_900():
    fails_with("CREATE TABLE T A NUMBER", 900)


# --- insert ----------------------------------------------------------

def test_insert_plain_values():
    stmt = parse_text(
        "INSERT INTO STUDENTS VALUES(1, 'ROHI', NULL, -2.5)")
    assert stmt == Insert("STUDENTS", None, (
        Literal(Decimal(1)), Literal("ROHI"), Literal(None),
        Literal(Decimal("-2.5"))))


def test_insert_with_column_list():
    stmt = parse_text(
        "INSERT INTO STUDENTS(S_ROLL, S_NAME) VALUES(2, 'JUHI')")
    assert stmt.columns == ("S_ROLL", "S_NAME")
    assert [v.value for v in stmt.values] == [Decimal(2), "JUHI"]


def test_trailing_comma_before_close_is_936_at_paren():
    err = fails_with("INSERT INTO COURSE VALUES (4, 'INFT', )", 936,
                     line=1, column=39)
    assert err.message == "missing expression"


def test_missing_value_after_comma_at_eof_is_936():
    fails_with("INSERT INTO COURSE VALUES (4,", 936)


def test_double_comma_is_936():
    fails_with("INSERT INTO COURSE VALUES (4,, 5)", 936)


# --- select ----------------------------------------------------------

def test_select_star():
    stmt = parse_text("SELECT * FROM STUDENTS")
    assert stmt == Select(None, (TableRef("STUDENTS"),))


def test_select_items_and_aliases():
    stmt = parse_text(
        'SELECT A, B AS X, C Y, D AS "Mixed Case" FROM T')
    assert stmt.items == (
        SelectItem(ColumnRef("A")),
        SelectItem(ColumnRef("B"), "X"),
        SelectItem(ColumnRef("C"), "Y"),
        SelectItem(ColumnRef("D"), "Mixed Case", alias_quoted=True),
    )


def test_qualified_column_refs():
    stmt = parse_text("SELECT S.S_ROLL FROM STUDENTS S")
    assert stmt.items[0].expr == ColumnRef("S_ROLL", "S")


def test_aggregate_calls():
    stmt = parse_text("SELECT COUNT(*), AVG(M), SUM(M) FROM T")
    assert [i.expr for i in stmt.items] == [
        AggregateCall("COUNT", None),
        AggregateCall("AVG", ColumnRef("M")),
        AggregateCall("SUM", ColumnRef("M"))]


def test_star_argument_only_for_count():
    fails_with("SELECT AVG(*) FROM T", 900)


def test_single_quoted_alias_is_923_at_string():
    err = fails_with(
        "SELECT COUNT(S_MARKS) AS 'TOAL_MARKS' FROM STUDENTS", 923,
        line=1, column=26)
    assert err.message == "FROM keyword not found where expected"


def test_bare_string_after_item_is_923():
    fails_with("SELECT S_ROLL 'X' FROM STUDENTS", 923, column=15)


def test_missing_from_is_923():
    fails_with("SELECT S_ROLL STUDENTS", 923)
    fails_with("SELECT A B C FROM T", 923)


def test_empty_expression_slots_are_936():
    fails_with("SELECT FROM T", 936)
    fails_with("SELECT A, FROM T", 936)
    fails_with("SELECT , A FROM T", 936)


def test_comma_join_tables_with_aliases():
    stmt = parse_text("SELECT * FROM STUDENTS S, COURSE C")
    assert stmt.tables == (TableRef("STUDENTS", "S"), TableRef("COURSE", "C"))
    assert stmt.join_on is None


def test_inner_join_on():
    stmt = parse_text(
        "SELECT * FROM STUDENTS S INNER JOIN COURSE C "
        "ON S.S_ROLL=C.C_SROLL")
    assert stmt.tables == (TableRef("STUDENTS", "S"), TableRef("COURSE", "C"))
    assert stmt.join_on == Comparison(
        "=", ColumnRef("S_ROLL", "S"), ColumnRef("C_SROLL", "C"))


def test_where_predicates_and_precedence():
    stmt = parse_text(
        "SELECT * FROM T WHERE A = 1 OR B = 2 AND C = 3")
    a, b, c = (Comparison("=", ColumnRef(name), Literal(Decimal(n)))
               for name, n in (("A", 1), ("B", 2), ("C", 3)))
    assert stmt.where == BoolOp("OR", (a, BoolOp("AND", (b, c))))


def test_parenthesized_predicate_groups():
    stmt = parse_text("SELECT * FROM T WHERE (A = 1 OR B = 2) AND C = 3")
    assert isinstance(stmt.where, BoolOp) and stmt.where.op == "AND"
    group, last = stmt.where.operands
    assert isinstance(group, BoolOp) and group.op == "OR"
    assert len(group.operands) == 2 and isinstance(last, Comparison)


def test_not_and_is_null():
    stmt = parse_text(
        "SELECT * FROM T WHERE NOT A IS NULL AND B IS NOT NULL")
    assert stmt.where == BoolOp(
        "AND",
        (Not(IsNull(ColumnRef("A"))), IsNull(ColumnRef("B"), negated=True)))


def test_diamond_operator_is_canonicalized():
    stmt = parse_text("SELECT * FROM T WHERE A <> 1")
    assert stmt.where == Comparison("!=", ColumnRef("A"), Literal(Decimal(1)))


def test_a_chain_is_one_node_however_grouped():
    a, b, c = (Comparison("=", ColumnRef(name), Literal(Decimal(n)))
               for name, n in (("A", 1), ("B", 2), ("C", 3)))
    for op in ("AND", "OR"):
        spellings = [f"(A=1 {op} B=2) {op} C=3", f"A=1 {op} B=2 {op} C=3",
                     f"A=1 {op} (B=2 {op} C=3)",
                     f"((A=1) {op} ((B=2) {op} C=3))"]
        trees = [parse_text(f"SELECT * FROM T WHERE {text}").where
                 for text in spellings]
        assert all(tree == BoolOp(op, (a, b, c)) for tree in trees)
        assert len({hash(tree) for tree in trees}) == 1


def test_a_long_chain_parses_in_syntax_order():
    text = " OR ".join(f"A = {n}" for n in range(10000))
    where = parse_text(f"SELECT * FROM T WHERE {text}").where
    assert where.op == "OR"
    assert [p.right.value for p in where.operands] == list(range(10000))


# --- alter -----------------------------------------------------------

def test_alter_add_primary_key():
    stmt = parse_text(
        "ALTER TABLE STUDENTS ADD CONSTRAINT PK_P PRIMARY KEY (S_ROLL)")
    assert stmt == AlterAddConstraint(
        "STUDENTS", "PK_P", PrimaryKeyBody(("S_ROLL",)))


def test_alter_add_unique_multi_column():
    stmt = parse_text("ALTER TABLE T ADD CONSTRAINT U UNIQUE(A, B)")
    assert stmt.body == UniqueBody(("A", "B"))


def test_alter_add_check():
    stmt = parse_text(
        "ALTER TABLE STUDENTS ADD CONSTRAINT CHK_S CHECK(S_MARKS >=60)")
    assert stmt.body == CheckBody(
        Comparison(">=", ColumnRef("S_MARKS"), Literal(Decimal(60))))


def test_alter_add_fallback_keeps_tokens():
    stmt = parse_text("ALTER TABLE STUDENTS ADD CONSTRAINT NN DOB NOTNULL")
    assert isinstance(stmt.body, FallbackBody)
    assert [t.lexeme for t in stmt.body.tokens] == ["DOB", "NOTNULL"]
    assert (stmt.line, stmt.column) == (1, 37)


def test_fallback_name_position_spans_lines():
    stmt = parse_text(
        "ALTER TABLE STUDENTS\nADD CONSTRAINT\nNN DOB NOTNULL")
    assert (stmt.line, stmt.column) == (3, 1)


def test_alter_modify_type_and_nullability():
    stmt = parse_text("ALTER TABLE STUDENTS MODIFY DOB DATE NOT NULL")
    assert stmt == AlterModify(
        "STUDENTS", ColumnClause("DOB", TypeSpec("DATE")), "NOT NULL")
    stmt = parse_text("ALTER TABLE T MODIFY A NUMBER(5) NULL")
    assert stmt.nullability == "NULL"
    stmt = parse_text("ALTER TABLE T MODIFY A NUMBER(5)")
    assert stmt.nullability is None


# --- general ---------------------------------------------------------

def test_unknown_statement_head_is_900():
    fails_with("GRANT ALL TO X", 900, line=1, column=1)
    fails_with("DROP TABLE T", 900)
    fails_with("UPDATE T", 900)


def test_trailing_garbage_is_900():
    fails_with("DESC STUDENTS STUDENTS", 900)


def test_tree_equality_ignores_positions():
    one = parse_text("SELECT A FROM T WHERE B = 1")
    other = parse_text("SELECT  A\nFROM   T\nWHERE  B  =  1")
    assert one == other
    assert not one != other
    assert hash(one) == hash(other)
    assert (one.where.line, other.where.line) == (1, 3)
    assert {ColumnRef("B", None, 1, 23): 0}[other.where.left] == 0


def test_nodes_of_two_classes_or_a_tuple_are_unequal():
    pred = Comparison("=", ColumnRef("A"), Literal(Decimal(1)))
    assert PrimaryKeyBody(("A",)) != UniqueBody(("A",))
    assert not PrimaryKeyBody(("A",)) == UniqueBody(("A",))
    # A node is a tuple, but no plain tuple equals it, from either side.
    assert Not(pred) != (pred,)
    assert (pred,) != Not(pred)
    assert not Not(pred) == (pred,)
    assert ColumnRef("A") != ("A", None, 1, 1)
    assert Literal(None) != Describe(None)


def test_nodes_are_immutable():
    stmt = parse_text("INSERT INTO T VALUES(1)")
    for node, name in ((stmt, "table"), (stmt.values[0], "line"),
                       (TypeSpec("DATE"), "keyword")):
        with pytest.raises(AttributeError):
            setattr(node, name, "X")
    assert stmt.table == "T"


def test_nesting_up_to_the_limit_parses():
    stmt = parse_text(f"SELECT A FROM T WHERE {nested(MAX_NESTING)}")
    levels, node = 0, stmt.where
    while isinstance(node, Not):
        levels += 1
        node = (node.operand.operands[-1]
                if isinstance(node.operand, BoolOp) else node.operand)
    assert levels == MAX_NESTING // 2 + MAX_NESTING % 2


@pytest.mark.parametrize("text, column", [
    pytest.param(nested(MAX_NESTING + 1),
                 1 + len("NOT (A = 0 OR ") * (MAX_NESTING // 2), id="mixed"),
    pytest.param("(" * 10000 + "A = 1" + ")" * 10000, MAX_NESTING + 1,
                 id="parentheses"),
    pytest.param("NOT " * 10000 + "A = 1", 1 + len("NOT ") * MAX_NESTING,
                 id="nots"),
])
def test_nesting_past_the_limit_is_900_where_it_goes_deeper(text, column):
    fails_with(f"SELECT A FROM T WHERE\n{text}", 900, line=2, column=column)


def test_error_position_spans_lines():
    err = fails_with("INSERT INTO COURSE VALUES\n(4, 'INFT', )", 936,
                     line=2, column=13)
    assert err.line == 2


@pytest.mark.parametrize("text, code, line, column", [
    ("SELECT", 936, 1, 1),
    ("SELECT A AS", 900, 1, 10),
    ("SELECT A FROM", 900, 1, 10),
    ("SELECT A FROM T WHERE A", 900, 1, 23),
    ("SELECT A FROM T WHERE A IS NOT", 900, 1, 28),
    ("INSERT INTO T VALUES (1,", 936, 1, 24),
    ("CREATE TABLE T (A NUMBER(", 900, 1, 25),
    ("ALTER TABLE T ADD CONSTRAINT C CHECK (", 936, 1, 38),
    ("ALTER TABLE T MODIFY A NUMBER NOT", 900, 1, 31),
    ("DESC", 900, 1, 1),
    ("SELECT A\nFROM T\nWHERE A =", 936, 3, 9),
])
def test_early_end_is_reported_at_last_token(text, code, line, column):
    fails_with(text, code, line=line, column=column)


# --- INSERTs of literals ---------------------------------------------

# Whitespace the lexer skips: "\n" starts a line, the others do not.
SPACES = " \t\n\r\x0b\x0c\x1c\xa0\u2003\u2028\u3000"
ASCII_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_$#]{0,5}",
                            fullmatch=True).filter(
    lambda name: name.upper() not in KEYWORDS)
LITERALS = st.one_of(
    st.sampled_from(["-0", "007", "1.50", "''", "'it''s'", "NULL", "null"]),
    st.from_regex(r"-?[0-9]{1,5}(\.[0-9]{1,3})?", fullmatch=True),
    st.text("ab Z,()'-\té", max_size=6).map(
        lambda body: "'" + body.replace("'", "''") + "'"),
)
# Names and values the token path reads or turns away by itself.
ODD_NAMES = st.sampled_from([
    "values", "Null", "into", "TVALUES", "Tà", "&X", "٣", "ǰ", '"Q"', "1A",
]) | st.sampled_from(sorted(KEYWORDS))
ODD_VALUES = st.sampled_from([
    "nullx", "1.", "1e5", "- 1", "--1", "+1", ".5", "&X", "٣", "1٣",
    "'a\nb'", "'", "'it's'", "X", "NULL1", '"Q"', "'a'''", "(1)",
])
DEFECTS = ("name", "value", "glue", "parenthesis", "empty", "junk")


def mixed_case(word):
    return st.tuples(*(st.sampled_from((c.lower(), c.upper()))
                       for c in word)).map("".join)


@st.composite
def inserts(draw, near_miss=False):
    """INSERT INTO t [(cols)] VALUES (literals), drawn part by part.

    A near miss has one defect: an odd name or value, two words with
    no space between them, a parenthesis left out or doubled, an empty
    value list, or junk at the end.
    """
    defect = draw(st.sampled_from(DEFECTS)) if near_miss else None

    def gap(min_size=0):
        return draw(st.text(SPACES, min_size=min_size, max_size=2))

    def listed(items):
        body = gap()
        for i, item in enumerate(items):
            body += ("," + gap() if i else "") + item + gap()
        return body

    table = draw(ASCII_NAMES)
    columns = draw(st.none() | st.lists(ASCII_NAMES, min_size=1,
                                        max_size=4))
    values = draw(st.lists(LITERALS, min_size=1, max_size=4))
    # Between INSERT and INTO, INTO and t, and t and VALUES.
    glues = [gap(1), gap(1), gap(1)]
    parens = ["(", ")", "(", ")"]
    if defect == "name":
        at = draw(st.integers(0, len(columns or ())))
        if at:
            columns[at - 1] = draw(ODD_NAMES)
        else:
            table = draw(ODD_NAMES)
    elif defect == "value":
        values[draw(st.integers(0, len(values) - 1))] = draw(ODD_VALUES)
    elif defect == "glue":
        glues[draw(st.integers(0, 2))] = ""
    elif defect == "parenthesis":
        at = draw(st.integers(0, 3))
        parens[at] = draw(st.sampled_from(["", parens[at] * 2]))
    elif defect == "empty":
        values = []

    text = (gap() + draw(mixed_case("INSERT")) + glues[0]
            + draw(mixed_case("INTO")) + glues[1] + table)
    if columns is None:
        text += glues[2]
    else:
        text += gap() + parens[0] + listed(columns) + parens[1] + gap()
    text += (draw(mixed_case("VALUES")) + gap() + parens[2] + listed(values)
             + parens[3] + gap())
    if defect == "junk":
        text += draw(st.sampled_from([";", " x", ",", ")", "(1)"]))
    return text


def tree(node):
    """A node as nested tuples of class names and leaf reprs, so that
    two trees are equal only with every position and value form."""
    if isinstance(node, tuple):
        return (type(node).__name__, *map(tree, node))
    return repr(node)


def outcome(read, text):
    try:
        return tree(read(text))
    except OraError as err:
        return err.code, err.line, err.column


@settings(max_examples=400)
@given(inserts() | inserts(near_miss=True))
@example("INSERT INTO TVALUES (1)")
@example("INSERT INTO T VALUES ()")
@example("INSERT INTO T VALUES ((1)")
@example("INSERT INTO T VALUES 1)")
@example("INSERT INTO T VALUES (1) x")
@example("INSERT INTO T VALUES ('a\nb', 2)")
@example("INSERT INTO Tà VALUES (1)")
# IGNORECASE would take "İ" for "i", which the lexer does not fold to I.
@example("İNSERT INTO T VALUES (1)")
@example("ınsert ınto T VALUES (1)")
# Names outside ASCII take the token path, where "ı" and "ſ" stay.
@example("INSERT INTO ınt VALUES (1)")
@example("INSERT INTO T(ſ) VALUES (1)")
@example("insert into t\n(a,\tb)\u3000values\n( -0 ,'it''s' )\n")
def test_parse_text_agrees_with_the_token_path(text):
    assert outcome(parse_text, text) == outcome(
        lambda t: parse(tokenize(t)), text)


@settings(max_examples=200)
@given(inserts())
def test_well_formed_literal_inserts_skip_the_token_list(text):
    # Every drawn name is ASCII and no drawn string holds a line break.
    calls = []
    with mock.patch.object(parser, "tokenize", side_effect=lambda t: (
            calls.append(t) or tokenize(t))):
        parse_text(text)
    assert calls == []
