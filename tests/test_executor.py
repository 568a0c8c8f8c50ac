from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference
from conftest import make_session, ora_code, run_sql

from handysql import executor
from handysql.errors import OraError
from handysql.executor import Database, ResultSet, execute
from handysql.parser import parse_text
from handysql.persistence import loads, saves
from handysql.render import render_predicate
from handysql.values import codec


def select(session, text):
    outcome = execute(session.db, parse_text(text))
    assert isinstance(outcome, ResultSet)
    return outcome


def test_insert_reports_one_row_created(classroom):
    block = run_sql(classroom, "INSERT INTO COURSE VALUES(5, 'DS', 5)")
    assert block == ["", "1 row created.", ""]


def test_column_list_fills_unlisted_with_null(classroom):
    run_sql(classroom,
            "INSERT INTO COURSE(C_NAME, C_ID) VALUES('AI', 9)")
    rows = select(classroom,
                  "SELECT * FROM COURSE WHERE C_ID = 9").rows
    assert rows == [[Decimal(9), "AI", None]]


@pytest.mark.parametrize("text", [
    "SELECT * FROM COURSE",
    "SELECT * FROM STUDENTS S INNER JOIN COURSE C ON S.S_ROLL = C.C_SROLL",
    "SELECT * FROM STUDENTS, COURSE",
    "SELECT S_NAME, S_ROLL FROM STUDENTS",
])
def test_changing_a_result_row_leaves_the_tables_alone(classroom, text):
    before = saves(classroom.db)
    rows = select(classroom, text).rows
    assert rows
    for row in rows:
        row[0] = "CHANGED"
        row.append("EXTRA")
    assert saves(classroom.db) == before


def test_insert_too_many_values_is_913_at_first_extra(classroom):
    block = run_sql(classroom, "INSERT INTO COURSE VALUES(9, 'A', 9, 9)")
    assert ora_code(block) == 913
    line, marker = block[0], block[1]
    assert line == "INSERT INTO COURSE VALUES(9, 'A', 9, 9)"
    assert marker.index("*") == line.rindex("9")


def test_insert_too_few_values_is_947_at_closing_paren(classroom):
    block = run_sql(classroom, "INSERT INTO COURSE VALUES(9)")
    assert ora_code(block) == 947
    assert block[1].index("*") == len("INSERT INTO COURSE VALUES(9") - 1 + 1


def test_coercion_error_points_at_offending_literal(classroom):
    text = "INSERT INTO COURSE VALUES(1, 'A', 'XY')"
    block = run_sql(classroom, text)
    assert ora_code(block) == 1722
    assert block[1].index("*") == text.index("'XY'")


def test_number_beyond_working_precision_is_1438(session):
    run_sql(session, "CREATE TABLE T(N NUMBER)")
    text = f"INSERT INTO T VALUES ({'9' * 300})"
    block = run_sql(session, text)
    assert ora_code(block) == 1438
    assert block[1].index("*") == text.index("9")


def test_unknown_column_fires_even_on_empty_table(session):
    run_sql(session, "CREATE TABLE T(A NUMBER)")
    block = run_sql(session, "SELECT NOPE FROM T")
    assert ora_code(block) == 904


def test_ambiguous_column_fires_even_on_empty_tables(session):
    run_sql(session, "CREATE TABLE T(A NUMBER)")
    run_sql(session, "CREATE TABLE U(A NUMBER)")
    block = run_sql(session, "SELECT A FROM T, U")
    assert ora_code(block) == 918


def test_qualifier_matches_alias_or_table(classroom):
    by_alias = select(classroom, "SELECT S.S_NAME FROM STUDENTS S").rows
    by_table = select(
        classroom, "SELECT STUDENTS.S_NAME FROM STUDENTS").rows
    assert by_alias == by_table
    block = run_sql(classroom, "SELECT X.S_NAME FROM STUDENTS S")
    assert ora_code(block) == 904


def test_star_join_concatenates_all_columns(classroom):
    rs = select(classroom,
                "SELECT * FROM STUDENTS S, COURSE C "
                "WHERE S.S_ROLL = C.C_SROLL")
    assert rs.headers == ["S_ROLL", "S_NAME", "S_ADDRESS", "S_PHONE",
                          "DOB", "S_MARKS", "C_ID", "C_NAME", "C_SROLL"]
    assert len(rs.headers) == 9
    assert [r[1] for r in rs.rows] == ["ROHI", "JUHI", "TANISH"]


def test_comma_where_equals_inner_join_on(classroom):
    comma = select(classroom,
                   "SELECT * FROM STUDENTS S, COURSE C "
                   "WHERE S.S_ROLL = C.C_SROLL")
    inner = select(classroom,
                   "SELECT * FROM STUDENTS S INNER JOIN COURSE C "
                   "ON S.S_ROLL = C.C_SROLL")
    assert comma.headers == inner.headers
    assert comma.rows == inner.rows


def test_equi_join_evaluates_only_matching_pairs(session, passes):
    run_sql(session, "CREATE TABLE T(K NUMBER, V VARCHAR2(5))")
    run_sql(session, "CREATE TABLE U(K NUMBER(5,2), W DATE)")
    for k in range(10):
        run_sql(session, f"INSERT INTO T VALUES({k}, 'V{k}')")
        run_sql(session, f"INSERT INTO U VALUES({9 - k}, NULL)")
    run_sql(session, "INSERT INTO U VALUES(NULL, NULL)")
    rs = select(session, "SELECT T.V, U.K FROM T, U "
                         "WHERE U.K = T.K AND T.V != 'V3'")
    assert [r[0] for r in rs.rows] == [f"V{k}" for k in range(10) if k != 3]
    # One pass reads each T row (2 columns) once, not the 10 x 11
    # joined rows; the hash join key is never evaluated.
    assert passes == [(10, 2)]
    # A conjunct that may raise sends every pair through the nested
    # loop, so it raises even though no key matches.
    run_sql(session, "CREATE TABLE X(K NUMBER)")
    run_sql(session, "INSERT INTO X VALUES(50)")
    text = "SELECT * FROM T, X WHERE T.K = X.K AND T.V = 5"
    block = run_sql(session, text)
    assert ora_code(block) == 1722
    assert block[1].index("*") == text.rindex("=")


def test_join_compiles_each_conjunct_once(session, monkeypatch):
    for name in ("A", "B", "C"):
        run_sql(session, f"CREATE TABLE {name}(K NUMBER, V NUMBER)")
        for k in range(3):
            run_sql(session, f"INSERT INTO {name} VALUES({k}, {k * 10})")
    compiled = []
    original = executor.compile_filter

    def counting(pred, slot_of, type_of):
        compiled.append(render_predicate(pred))
        return original(pred, slot_of, type_of)

    monkeypatch.setattr(executor, "compile_filter", counting)
    rs = select(session, "SELECT A.K, C.V FROM A, B, C WHERE A.K = B.K "
                "AND (B.K = C.K AND A.V >= 10) AND C.V >= A.V")
    assert rs.rows == [[Decimal(1), Decimal(10)], [Decimal(2), Decimal(20)]]
    assert compiled == ["A.K = B.K", "B.K = C.K", "A.V >= 10", "C.V >= A.V"]


def test_cross_product_without_predicate(classroom):
    rs = select(classroom, "SELECT S_NAME, C_NAME FROM STUDENTS, COURSE")
    assert len(rs.rows) == 7 * 4


def test_rows_keep_insertion_order(session):
    run_sql(session, "CREATE TABLE T(A NUMBER(3))")
    for v in (5, 1, 4, 2):
        run_sql(session, f"INSERT INTO T VALUES({v})")
    rs = select(session, "SELECT A FROM T")
    assert [r[0] for r in rs.rows] == [Decimal(v) for v in (5, 1, 4, 2)]


def test_where_keeps_only_true(classroom):
    rs = select(classroom,
                "SELECT S_NAME FROM STUDENTS WHERE S_PHONE > 0")
    names = [r[0] for r in rs.rows]
    assert "JUHI" not in names
    assert "ROHI" in names


def test_aggregate_in_where_is_934(classroom):
    block = run_sql(
        classroom, "SELECT * FROM STUDENTS WHERE COUNT(S_ROLL) = 1")
    assert ora_code(block) == 934


def test_mixing_plain_column_with_aggregate_is_937(classroom):
    block = run_sql(classroom,
                    "SELECT S_NAME, COUNT(S_ROLL) FROM STUDENTS")
    assert ora_code(block) == 937


def test_literal_beside_aggregate_is_allowed(classroom):
    rs = select(classroom, "SELECT 1, COUNT(*) FROM STUDENTS")
    assert rs.rows == [[Decimal(1), Decimal(7)]]


def test_count_star_counts_all_null_rows(session):
    run_sql(session, "CREATE TABLE T(A NUMBER, B NUMBER)")
    run_sql(session, "INSERT INTO T VALUES(NULL, NULL)")
    run_sql(session, "INSERT INTO T VALUES(NULL, 1)")
    rs = select(session, "SELECT COUNT(*), COUNT(A), COUNT(B) FROM T")
    assert rs.rows == [[Decimal(2), Decimal(0), Decimal(1)]]


def test_aggregates_over_empty_table(session):
    run_sql(session, "CREATE TABLE T(A NUMBER)")
    rs = select(session,
                "SELECT COUNT(A), SUM(A), AVG(A), MIN(A), MAX(A) FROM T")
    assert rs.rows == [[Decimal(0), None, None, None, None]]


def test_aggregate_values_on_classroom(classroom):
    rs = select(classroom,
                "SELECT COUNT(S_MARKS), SUM(S_MARKS), AVG(S_MARKS), "
                "MIN(S_MARKS), MAX(S_MARKS) FROM STUDENTS")
    assert rs.rows == [[Decimal(7), Decimal(560), Decimal(80),
                        Decimal(65), Decimal(91)]]


def test_avg_rounds_to_38_significant_digits(session):
    run_sql(session, "CREATE TABLE T(A NUMBER)")
    for v in (1, 1, 1):
        run_sql(session, f"INSERT INTO T VALUES({v})")
    run_sql(session, "INSERT INTO T VALUES(0)")
    rs = select(session, "SELECT AVG(A) FROM T")
    assert rs.rows == [[Decimal("0.75")]]
    run_sql(session, "INSERT INTO T VALUES(0)")
    run_sql(session, "INSERT INTO T VALUES(0)")
    rs = select(session, "SELECT AVG(A) FROM T")
    assert rs.rows[0][0] == Decimal("0.5")


def test_min_max_work_on_text_and_dates(classroom):
    rs = select(classroom,
                "SELECT MIN(S_NAME), MAX(S_NAME), MIN(DOB), MAX(DOB) "
                "FROM STUDENTS")
    row = rs.rows[0]
    assert row[0] == "ASHA"
    assert row[1] == "VIVEK"
    assert row[2].year == 1990 and row[3].year == 1992


def test_sum_of_text_column_is_1722(classroom):
    block = run_sql(classroom, "SELECT SUM(S_NAME) FROM STUDENTS")
    assert ora_code(block) == 1722


_FOLDS = {"COUNT": reference.fold_count, "MIN": reference.fold_min,
          "MAX": reference.fold_max, "SUM": reference.fold_sum,
          "AVG": reference.fold_avg}
# NUMBER, VARCHAR2 and DATE columns, NULLs in each; lists may be empty.
_FOLD_ROWS = st.lists(st.tuples(
    st.one_of(st.none(), st.decimals(-10 ** 8, 10 ** 8, places=3)),
    st.one_of(st.none(), st.text("ab ", max_size=5)),
    st.one_of(st.none(), st.dates())), max_size=8)
# Several aggregates of one column often share a select list.
_FOLD_ITEMS = st.lists(st.sampled_from(
    [("COUNT", "*")] + [(func, col) for func in _FOLDS for col in "NSD"]),
    min_size=1, max_size=6)


def _exact(value):
    return Fraction(value) if isinstance(value, (Decimal, int)) else value


@settings(max_examples=200)
@given(_FOLD_ROWS, _FOLD_ITEMS)
def test_typed_folds_match_the_oracle(rows, items):
    """Each aggregate equals reference.fold_* over its column's values.

    SUM or AVG over a non-NUMBER column is 1722 when it has a value,
    item by item in select-list order.
    """
    session = make_session()
    run_sql(session, "CREATE TABLE T(N NUMBER(12,3), S VARCHAR2(5), D DATE)")
    table = session.db.tables["T"]
    for row in rows:
        table.rows.append([codec(col.type).coerce(v)
                           for col, v in zip(table.columns, row)])
    columns = dict(zip("NSD", zip(*table.rows))) if rows else {
        name: () for name in "NSD"}
    want: list = []
    for func, col in items:
        if col == "*":
            want.append(len(rows))
            continue
        values = columns[col]
        if func in ("SUM", "AVG") and col != "N" and any(
                v is not None for v in values):
            want = 1722
            break
        folded = _FOLDS[func](values)
        if func == "AVG" and folded is not None:
            folded = reference.round_sig(folded)
        want.append(_exact(folded))
    text = ", ".join(f"{func}({col})" for func, col in items)
    try:
        got = [_exact(v) for v in select(session,
                                         f"SELECT {text} FROM T").rows[0]]
    except OraError as err:
        got = err.code
    assert got == want


def test_select_from_user_constraints(classroom):
    run_sql(classroom,
            "ALTER TABLE STUDENTS ADD CONSTRAINT PK_P PRIMARY KEY (S_ROLL)")
    rs = select(classroom,
                "SELECT TABLE_NAME, CONSTRAINT_TYPE FROM USER_CONSTRAINTS")
    assert rs.rows == [["STUDENTS", "P"]]


def test_select_expression_header_uses_rendered_text(classroom):
    rs = select(classroom, "SELECT COUNT(S_MARKS) FROM STUDENTS")
    assert rs.headers == ["COUNT(S_MARKS)"]
    aliased = select(classroom,
                     "SELECT COUNT(S_MARKS) AS TOAL_MARKS FROM STUDENTS")
    assert aliased.headers == ["TOAL_MARKS"]


ATOMIC_SETUP = (
    "CREATE TABLE T (ID NUMBER(3), NAME VARCHAR(5), D DATE, K VARCHAR(1))",
    "INSERT INTO T VALUES (1, 'A', '01-JAN-90', 'x')",
    "INSERT INTO T VALUES (2, NULL, NULL, 'y')",
    "INSERT INTO T VALUES (3, 'A', NULL, 'z')",
    "ALTER TABLE T ADD CONSTRAINT PK_T PRIMARY KEY (ID)",
    "ALTER TABLE T ADD CONSTRAINT CH CHECK (ID < 100)",
    "ALTER TABLE T MODIFY K VARCHAR(1) NOT NULL",
)


@pytest.mark.parametrize("code, text", [
    pytest.param(942, "INSERT INTO NOWHERE VALUES (4)", id="942-insert"),
    pytest.param(942, "ALTER TABLE NOWHERE MODIFY A DATE", id="942-modify"),
    pytest.param(904, "INSERT INTO T (NOPE) VALUES (4)", id="904-insert"),
    pytest.param(904, "ALTER TABLE T ADD CONSTRAINT U UNIQUE (NOPE)",
                 id="904-unique"),
    pytest.param(904, "ALTER TABLE T MODIFY NOPE DATE", id="904-modify"),
    pytest.param(955, "CREATE TABLE T (A DATE)", id="955"),
    pytest.param(957, "INSERT INTO T (ID, ID) VALUES (4, 4)",
                 id="957-insert"),
    pytest.param(957, "CREATE TABLE U (A DATE, A DATE)", id="957-create"),
    pytest.param(1727, "CREATE TABLE U (A DATE, B NUMBER(39))", id="1727"),
    pytest.param(913, "INSERT INTO T VALUES (4, 'B', NULL, 'w', 4)",
                 id="913"),
    pytest.param(947, "INSERT INTO T VALUES (4)", id="947"),
    pytest.param(1400, "INSERT INTO T VALUES (NULL, 'B', NULL, 'w')",
                 id="1400-key"),
    pytest.param(1400, "INSERT INTO T VALUES (4, 'B', NULL, NULL)",
                 id="1400-notnull"),
    pytest.param(1, "INSERT INTO T VALUES (1, 'B', NULL, 'w')",
                 id="1-insert"),
    pytest.param(1, "ALTER TABLE T ADD CONSTRAINT U UNIQUE (NAME)",
                 id="1-unique"),
    pytest.param(2290, "INSERT INTO T VALUES (200, 'B', NULL, 'w')",
                 id="2290-insert"),
    pytest.param(2290, "ALTER TABLE T ADD CONSTRAINT C2 CHECK (ID > 1)",
                 id="2290-check"),
    pytest.param(1438, "INSERT INTO T VALUES (1000, 'B', NULL, 'w')",
                 id="1438"),
    pytest.param(12899, "INSERT INTO T VALUES (4, 'TOOLONG', NULL, 'w')",
                 id="12899"),
    pytest.param(1858, "INSERT INTO T VALUES (4, 'B', '31-FEB-90', 'w')",
                 id="1858"),
    pytest.param(1722, "ALTER TABLE T ADD CONSTRAINT C2 CHECK (ID > 'X')",
                 id="1722-check"),
    pytest.param(2260, "ALTER TABLE T ADD CONSTRAINT PK2 PRIMARY KEY (NAME)",
                 id="2260"),
    pytest.param(2264, "ALTER TABLE T ADD CONSTRAINT CH UNIQUE (NAME)",
                 id="2264"),
    pytest.param(1430, "ALTER TABLE T ADD CONSTRAINT X NAME VARCHAR(5)",
                 id="1430"),
    pytest.param(2296, "ALTER TABLE T MODIFY NAME VARCHAR(9) NOT NULL",
                 id="2296"),
    pytest.param(1439, "ALTER TABLE T MODIFY NAME VARCHAR(2) NOT NULL",
                 id="1439"),
])
def test_failed_statement_leaves_database_unchanged(session, code, text):
    for setup in ATOMIC_SETUP:
        assert ora_code(run_sql(session, setup)) is None, setup
    before = saves(session.db)
    indexes = _indexes(session.db)
    assert ora_code(run_sql(session, text)) == code
    assert saves(session.db) == before
    assert _indexes(session.db) == indexes


def _indexes(db):
    """Each table's keys, each with a copy of its index."""
    return {name: [(key, dict(key.index)) for key in table.keys]
            for name, table in db.tables.items()}


# Statements of random key sessions over tables of one shape.  The
# values are few, so keys often collide; some statements always fail:
# 1438, 12899, 913, 947, 1439, 957 and 955, and the rows may refuse a
# key or a CHECK.
_INDEX_SHAPE = "A NUMBER(4), B VARCHAR2(3), C DATE, D NUMBER(3,1)"
_INDEX_VALUES = {
    "A": ("1", "1.0", "2", "-3", "NULL", "12345"),
    "B": ("'a'", "'b'", "'ab'", "NULL", "'toolong'"),
    "C": ("'01-JAN-2020'", "'02-JAN-2020'", "NULL"),
    "D": ("1", "1.5", "2", "NULL"),
}
_INDEX_DDL = (
    "PRIMARY KEY ({})", "UNIQUE ({})", "CHECK (A != 2)", "CHECK (B != 'b')",
)
_INDEX_MODIFY = (
    "A NUMBER(6,2)", "D NUMBER(5,3)", "B VARCHAR2(5) NOT NULL",
    "A NUMBER(6,2) NULL", "C DATE NOT NULL", "B VARCHAR2(2)",
)


@st.composite
def _key_sessions(draw):
    tables = ["T"]
    script = [f"CREATE TABLE T({_INDEX_SHAPE})"]
    for i in range(draw(st.integers(1, 30))):
        table = draw(st.sampled_from(tables))
        shape = draw(st.sampled_from(["insert"] * 6 + ["key"] * 2
                                     + ["modify", "create"]))
        if shape == "insert":
            # Mostly whole rows, now and then one value short or over.
            columns = draw(st.one_of(
                st.sampled_from(["ABCD"] * 8 + ["ABC", "ABCDA"]),
                st.lists(st.sampled_from("ABCD"), min_size=1, max_size=4,
                         unique=True)))
            values = [draw(st.sampled_from(_INDEX_VALUES[c]))
                      for c in columns]
            listed = "" if isinstance(columns, str) else (
                f"({', '.join(columns)})")
            script.append(f"INSERT INTO {table}{listed} "
                          f"VALUES({', '.join(values)})")
        elif shape == "key":
            columns = draw(st.lists(st.sampled_from("ABCD"), min_size=1,
                                    max_size=3))
            body = draw(st.sampled_from(_INDEX_DDL)).format(
                ", ".join(columns))
            script.append(f"ALTER TABLE {table} ADD CONSTRAINT K{i} {body}")
        elif shape == "modify":
            script.append(f"ALTER TABLE {table} MODIFY "
                          f"{draw(st.sampled_from(_INDEX_MODIFY))}")
        else:
            name = draw(st.sampled_from(["T", "U"]))
            tables = sorted(set(tables) | {name})
            script.append(f"CREATE TABLE {name}({_INDEX_SHAPE})")
    return script


def _assert_indexes_rebuilt(db):
    """Every key's index is the brute-force one over its table's rows."""
    for name, table in db.tables.items():
        assert table.keys == [c for c in db.constraints if c.table == name
                              and c.kind in ("PK", "UNIQUE")]
        rows = [dict(zip(table.column_names(), row)) for row in table.rows]
        for key in table.keys:
            assert key.index == reference.key_index(rows, key.columns)


@settings(max_examples=200, deadline=None)
@given(_key_sessions())
def test_key_indexes_match_brute_force_oracle(script):
    """After every statement, failed ones too, and after a reload."""
    db = Database()
    for text in script:
        try:
            execute(db, parse_text(text))
        except OraError:
            pass
        _assert_indexes_rebuilt(db)
    _assert_indexes_rebuilt(loads(saves(db)))


@pytest.fixture
def keyed(session):
    """A 200-row table with a one-column PK and a two-column UNIQUE key.

    W holds only NULLs, so a conjunct comparing it with a number can
    raise but never does.
    """
    for text in ("CREATE TABLE R(ID NUMBER(5), GRP NUMBER(3), "
                 "TAG VARCHAR2(5), W VARCHAR2(5))",
                 "ALTER TABLE R ADD CONSTRAINT PK_R PRIMARY KEY (ID)",
                 "ALTER TABLE R ADD CONSTRAINT UK_R UNIQUE (GRP, TAG)",
                 "CREATE TABLE ONE(X NUMBER)",
                 "INSERT INTO ONE VALUES(1)"):
        run_sql(session, text)
    for i in range(200):
        run_sql(session,
                f"INSERT INTO R VALUES({i}, {i // 4}, 'T{i % 4}', NULL)")
    return session


@pytest.mark.parametrize("text, rows", [
    ("SELECT * FROM R WHERE ID = 17", [[17, 4, "T1", None]]),
    ("SELECT TAG FROM R X WHERE 17.0 = X.ID", [["T1"]]),
    ("SELECT ID FROM R WHERE TAG = 'T3' AND R.GRP = 5", [[23]]),
    ("SELECT ID FROM R WHERE ID = 17 AND GRP = 9", []),
    ("SELECT ID FROM R WHERE ID = 17 AND ID = 18", []),
    ("SELECT ID FROM R WHERE ID = 500", []),
])
def test_key_pinned_select_evaluates_at_most_one_row(keyed, passes,
                                                     text, rows):
    got = select(keyed, text).rows
    assert [[_exact(v) for v in row] for row in got] == rows
    assert passes
    assert all(read <= 1 for read, _ in passes)


@pytest.mark.parametrize("text, evaluated", [
    ("SELECT ID FROM R WHERE TAG = 'T1'", 200),  # not a key column
    ("SELECT ID FROM R WHERE GRP = 5", 200),  # part of a key
    ("SELECT ID FROM R WHERE ID = 17 AND W = 5", 200),  # can raise
    ("SELECT ID FROM R WHERE ID = NULL", 200),
    ("SELECT ID FROM R WHERE ID = 17 OR ID = 18", 200),
    ("SELECT * FROM USER_CONSTRAINTS WHERE CONSTRAINT_NAME = 'PK_R'", 2),
    ("SELECT R.ID FROM R, ONE WHERE R.ID = 17", 200),
])
def test_other_selects_evaluate_every_row(keyed, passes, text,
                                          evaluated):
    select(keyed, text)
    # The first pass reads every row: nothing was probed.
    assert passes[0][0] == evaluated


@pytest.mark.parametrize("text, read, kept", [
    # Each conjunct reads the rows the one before it kept.
    ("SELECT ID FROM R WHERE TAG = 'T1' AND GRP < 10", [200, 50], 10),
    ("SELECT ID FROM R WHERE GRP < 10 AND (TAG = 'T1')", [200, 40], 10),
    ("SELECT ID FROM R WHERE ID > 0 AND NOT (GRP = 3) AND TAG IS NOT NULL",
     [200, 199, 195], 195),
    # A WHERE that can raise runs whole, in one pass.
    ("SELECT ID FROM R WHERE GRP < 10 AND W = 5", [200], 0),
])
def test_and_runs_as_successive_passes(keyed, passes, text, read, kept):
    assert len(select(keyed, text).rows) == kept
    assert [n for n, _ in passes] == read


@pytest.mark.parametrize("modify, reload", [
    (True, False), (False, True), (True, True)],
    ids=["modify", "loads", "modify-loads"])
@pytest.mark.parametrize("pin", ["17", "17.00"])
def test_key_pinned_select_finds_its_row_after_modify_and_load(
        keyed, passes, modify, reload, pin):
    """A widened or reloaded key still finds its row, 17 or 17.00."""
    db = keyed.db
    if modify:
        execute(db, parse_text("ALTER TABLE R MODIFY ID NUMBER(7,2)"))
    if reload:
        db = loads(saves(db))
    got = execute(db, parse_text(f"SELECT ID, TAG FROM R WHERE ID = {pin}"))
    assert [[_exact(v) for v in row] for row in got.rows] == [[17, "T1"]]
    assert passes == [(1, 4)]


class _Unscanned(list):
    """Stored rows that fail any pass over them; indexing still works."""

    def __iter__(self):
        raise AssertionError("the table's rows were scanned")


@pytest.mark.parametrize("text, rows", [
    ("SELECT * FROM R WHERE ID = 17", [[17, 4, "T1", None]]),
    ("SELECT ID FROM R WHERE TAG = 'T3' AND R.GRP = 5", [[23]]),
    ("SELECT ID FROM R WHERE ID = 500", []),
    ("SELECT ID FROM R WHERE GRP = 5 AND TAG = 'T9'", []),
])
def test_key_pinned_select_iterates_no_stored_row(keyed, text, rows):
    table = keyed.db.tables["R"]
    table.rows = _Unscanned(table.rows)
    got = select(keyed, text).rows
    assert [[_exact(v) for v in row] for row in got] == rows
    with pytest.raises(AssertionError, match="scanned"):
        select(keyed, "SELECT ID FROM R WHERE TAG = 'T3'")


def test_changing_a_key_pinned_row_leaves_the_table_alone(keyed):
    before = saves(keyed.db)
    rows = select(keyed, "SELECT * FROM R WHERE ID = 17").rows
    rows[0][1] = Decimal(99)
    assert saves(keyed.db) == before
