import re
import sys
from decimal import Decimal

import pytest
from conftest import make_session, ora_code, run_sql

from handysql import catalog
from handysql.catalog import SYS_NAME_SEED, Database, next_sys_name
from handysql.conformance import load_fixture
from handysql.errors import OraError
from handysql.lexer import Token, TokenKind, fold, tokenize
from handysql.persistence import SnapshotError, loads, saves


def blocks(session, *statements, bindings=None):
    return [run_sql(session, text) for text in statements]


def test_create_then_describe_shows_normalized_types(session):
    create, desc = blocks(
        session,
        "CREATE TABLE STUDENTS(S_ROLL NUMBER(2), S_NAME VARCHAR(20), "
        "S_PHONE NUMBER(10), DOB DATE, S_MARKS INTEGER)",
        "DESC STUDENTS")
    assert create == ["", "Table created.", ""]
    assert desc == [
        "Name                           Null?    Type",
        "------------------------------ -------- --------------------",
        "S_ROLL                                  NUMBER(2)",
        "S_NAME                                  VARCHAR2(20)",
        "S_PHONE                                 NUMBER(10)",
        "DOB                                     DATE",
        "S_MARKS                                 NUMBER(38)",
        "",
    ]


def test_bare_number_and_scale_display(session):
    blocks(session, "CREATE TABLE T(A NUMBER, B NUMBER(10,4))")
    desc = run_sql(session, "DESC T")
    assert desc[2].endswith(" NUMBER")
    assert desc[3].endswith(" NUMBER(10,4)")


def test_describe_folds_table_name(session):
    blocks(session, "CREATE TABLE T(A NUMBER)")
    assert run_sql(session, "desc t") == run_sql(session, "DESC T")


def test_describe_unknown_table_is_4043_with_name(session):
    block = run_sql(session, "DESC NOWHERE")
    assert ora_code(block) == 4043
    assert "ORA-04043: object NOWHERE does not exist" in block


def test_duplicate_table_is_955(session):
    blocks(session, "CREATE TABLE T(A NUMBER)")
    assert ora_code(run_sql(session, "CREATE TABLE T(B NUMBER)")) == 955


def test_duplicate_column_in_create_is_957(session):
    assert ora_code(
        run_sql(session, "CREATE TABLE T(A NUMBER, A DATE)")) == 957


def test_names_outside_ascii_save_as_written_and_round_trip(session):
    # str.upper would write "ǰ" as J and U+030C, and "ẖ" as H and U+0331.
    assert run_sql(session, "CREATE TABLE ǰ(ẖ NUMBER)") == [
        "", "Table created.", ""]
    run_sql(session, "INSERT INTO ǰ VALUES(1)")
    text = saves(session.db)
    assert "TABLE ǰ\nCOL ẖ NUMBER NULL\n" in text
    assert saves(loads(text)) == text
    # No word folds to a letter and a combining mark.
    with pytest.raises(SnapshotError) as info:
        loads("HANDYDB 1\nTABLE J\u030c\nCOL A NUMBER NULL\n")
    assert str(info.value).startswith("line 2: table J\u030c: ORA-00904")


def test_fold_tokenize_and_is_name_agree_on_every_word_character():
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert not any(map(catalog.is_name, re.findall(r"[^\w$#]", everything)))
    for char in re.findall(r"[\w$#]", everything):
        for text in (char, "A" + char, char + "A"):
            try:
                tokens = tokenize(text)
            except OraError:
                tokens = []
            named = catalog.is_name(text)
            if named:
                assert tokens == [Token(TokenKind.IDENT, text)], text
            if len(tokens) != 1:
                continue
            kind, name = tokens[0][:2]
            if not text.isascii():
                assert kind is not TokenKind.KEYWORD, text
                assert not name.isascii(), text
            if kind is TokenKind.IDENT:
                assert name == fold(text) and len(name) == len(text), text
                if name != text:
                    assert catalog.is_name(name) and fold(name) == name, text
                else:
                    assert named, text


@pytest.mark.parametrize("name", [
    "A", "A$#", "_X", "Qǰ", "ǰ", "ß", "ﬁ", "É", "ıNT", "ſELECT"])
def test_what_an_identifier_folds_to_is_a_name(name):
    assert catalog.is_name(name)


@pytest.mark.parametrize("name", [
    "", "a", "SELECT", "1A", "\u00bdA", "A\u0301", "A-B", "$A",
    "\u00b2", "J\u030c", "é", "ınt"])
def test_what_no_identifier_folds_to_is_no_name(name):
    assert not catalog.is_name(name)


def test_virtual_tables_cannot_be_shadowed_or_written(session):
    assert ora_code(run_sql(session, "CREATE TABLE DUAL(X NUMBER)")) == 955
    assert ora_code(
        run_sql(session, "CREATE TABLE USER_CONSTRAINTS(X NUMBER)")) == 955
    assert ora_code(
        run_sql(session, "INSERT INTO DUAL VALUES('Y')")) == 942


def test_dual_is_selectable_and_describable(session):
    assert run_sql(session, "SELECT * FROM DUAL") == [
        "", "DUMMY", "-----", "X", ""]
    desc = run_sql(session, "DESC DUAL")
    assert desc[2].startswith("DUMMY")
    assert desc[2].endswith("VARCHAR2(1)")


def test_primary_key_marks_not_null_in_describe(classroom):
    blocks(classroom,
           "ALTER TABLE STUDENTS ADD CONSTRAINT PK_P PRIMARY KEY (S_ROLL)")
    desc = run_sql(classroom, "DESC STUDENTS")
    assert desc[2] == "S_ROLL                         NOT NULL NUMBER(2)"


def test_unique_and_check_leave_describe_unchanged(classroom):
    before = run_sql(classroom, "DESC STUDENTS")
    blocks(classroom,
           "ALTER TABLE STUDENTS ADD CONSTRAINT UK_S UNIQUE(S_PHONE)",
           "ALTER TABLE STUDENTS ADD CONSTRAINT CHK_S CHECK(S_MARKS >= 60)")
    assert run_sql(classroom, "DESC STUDENTS") == before


def test_second_primary_key_is_2260(classroom):
    blocks(classroom,
           "ALTER TABLE STUDENTS ADD CONSTRAINT PK_P PRIMARY KEY (S_ROLL)")
    block = run_sql(
        classroom, "ALTER TABLE STUDENTS ADD CONSTRAINT P2 PRIMARY KEY (DOB)")
    assert ora_code(block) == 2260


def test_duplicate_constraint_name_is_2264(classroom):
    blocks(classroom,
           "ALTER TABLE STUDENTS ADD CONSTRAINT UK_S UNIQUE(S_PHONE)")
    block = run_sql(
        classroom, "ALTER TABLE STUDENTS ADD CONSTRAINT UK_S UNIQUE(DOB)")
    assert ora_code(block) == 2264


def test_constraint_on_unknown_column_is_904(classroom):
    block = run_sql(
        classroom, "ALTER TABLE STUDENTS ADD CONSTRAINT U UNIQUE(NOPE)")
    assert ora_code(block) == 904


@pytest.mark.parametrize("body, code", [
    ("PRIMARY KEY (S_ROLL, S_ROLL)", 957),
    ("UNIQUE(S_NAME, S_PHONE, S_NAME)", 957),
    # Each column in turn: unknown before repeated, repeated before unknown.
    ("UNIQUE(NOPE, NOPE)", 904),
    ("UNIQUE(S_NAME, S_NAME, NOPE)", 957),
])
def test_key_naming_a_column_twice_is_957(classroom, body, code):
    before = saves(classroom.db)
    block = run_sql(classroom, f"ALTER TABLE STUDENTS ADD CONSTRAINT K {body}")
    assert ora_code(block) == code
    assert saves(classroom.db) == before


def test_constraint_on_unknown_table_is_942(session):
    block = run_sql(
        session, "ALTER TABLE NOWHERE ADD CONSTRAINT U UNIQUE(A)")
    assert ora_code(block) == 942


def test_check_with_aggregate_is_934(classroom):
    block = run_sql(
        classroom,
        "ALTER TABLE STUDENTS ADD CONSTRAINT C CHECK(COUNT(S_ROLL) > 0)")
    assert ora_code(block) == 934


def test_check_qualifier_must_match_table(classroom):
    ok = run_sql(
        classroom,
        "ALTER TABLE STUDENTS ADD CONSTRAINT C1 "
        "CHECK(STUDENTS.S_MARKS >= 0)")
    assert ora_code(ok) is None
    bad = run_sql(
        classroom,
        "ALTER TABLE STUDENTS ADD CONSTRAINT C2 CHECK(X.S_MARKS >= 0)")
    assert ora_code(bad) == 904


def test_check_mixing_kinds_is_rejected_at_its_comparison(session):
    run_sql(session, "CREATE TABLE T (N NUMBER(3), D DATE)")
    # The table is empty, so no row could have shown the mismatch.
    assert run_sql(
        session, "ALTER TABLE T ADD CONSTRAINT C1\nCHECK (\nN > 'X')") == [
        "N > 'X')", "  *", "ERROR at line 3:", "ORA-01722: invalid number",
        ""]
    text = "ALTER TABLE T ADD CONSTRAINT C2 CHECK (D > '01-JAN-1980')"
    assert run_sql(session, text) == [
        text, " " * 41 + "*", "ERROR at line 1:",
        "ORA-00932: inconsistent datatypes", ""]
    assert run_sql(session, "INSERT INTO T VALUES (5, '02-JAN-1990')") == [
        "", "1 row created.", ""]
    assert ora_code(run_sql(session, "SELECT * FROM USER_CONSTRAINTS")) \
        is None
    assert "C1" not in saves(session.db) and "C2" not in saves(session.db)


def test_fallback_naming_column_is_1430(classroom):
    block = run_sql(
        classroom, "ALTER TABLE STUDENTS ADD CONSTRAINT NN DOB NOTNULL")
    assert ora_code(block) == 1430
    assert block[0] == "ALTER TABLE STUDENTS ADD CONSTRAINT NN DOB NOTNULL"
    assert block[1] == " " * 36 + "*"
    assert block[2] == "ERROR at line 1:"


def test_fallback_without_known_column_is_900(classroom):
    block = run_sql(
        classroom, "ALTER TABLE STUDENTS ADD CONSTRAINT NN XYZ NOTNULL")
    assert ora_code(block) == 900


def test_modify_widen_and_narrow(classroom):
    long_name = ("INSERT INTO STUDENTS(S_ROLL, S_NAME) "
                 "VALUES(8, 'A NAME OF TWENTY-FIVE CHARS')")
    big_roll = "INSERT INTO STUDENTS(S_ROLL, S_NAME) VALUES(1234, 'NEW')"
    assert ora_code(run_sql(classroom, long_name)) == 12899
    assert ora_code(run_sql(classroom, big_roll)) == 1438
    ok = run_sql(classroom, "ALTER TABLE STUDENTS MODIFY S_NAME VARCHAR(30)")
    assert ora_code(ok) is None
    ok = run_sql(classroom, "ALTER TABLE STUDENTS MODIFY S_ROLL NUMBER(6)")
    assert ora_code(ok) is None
    # Each INSERT coerces through the widened column's own codec.
    assert ora_code(run_sql(classroom, long_name)) is None
    assert ora_code(run_sql(classroom, big_roll)) is None
    text = saves(classroom.db)
    copy = loads(text)
    assert [row[:2] for row in copy.tables["STUDENTS"].rows[-2:]] == [
        [Decimal(8), "A NAME OF TWENTY-FIVE CHARS"],
        [Decimal(1234), "NEW"]]
    assert saves(copy) == text
    narrower = run_sql(
        classroom, "ALTER TABLE STUDENTS MODIFY S_NAME VARCHAR(5)")
    assert ora_code(narrower) == 1439
    kind_change = run_sql(
        classroom, "ALTER TABLE STUDENTS MODIFY S_NAME NUMBER(5)")
    assert ora_code(kind_change) == 1439


def test_modify_to_a_wider_scale_refits_stored_values(session):
    blocks(session, "CREATE TABLE T(A NUMBER(2))",
           "INSERT INTO T VALUES(1)")
    block = run_sql(session, "ALTER TABLE T MODIFY A NUMBER(6,1)")
    assert ora_code(block) is None
    run_sql(session, "INSERT INTO T VALUES(2)")
    block = run_sql(session, "SELECT A FROM T")
    assert [line.strip() for line in block[3:5]] == ["1.0", "2.0"]
    text = saves(session.db)
    assert text.endswith("ROWS T\n1.0\n2.0\n")
    assert saves(loads(text)) == text


def test_modify_not_null_generates_sys_constraint(classroom):
    blocks(classroom, "ALTER TABLE STUDENTS MODIFY DOB DATE NOT NULL")
    names = run_sql(
        classroom,
        "SELECT CONSTRAINT_NAME FROM USER_CONSTRAINTS "
        "WHERE TABLE_NAME = 'STUDENTS'")
    assert "SYS_C005545" in names
    desc = run_sql(classroom, "DESC STUDENTS")
    assert desc[6] == "DOB                            NOT NULL DATE"


def test_modify_not_null_with_nulls_is_2296(classroom):
    block = run_sql(
        classroom, "ALTER TABLE STUDENTS MODIFY S_ADDRESS VARCHAR(20) "
                   "NOT NULL")
    assert ora_code(block) == 2296
    before = run_sql(classroom, "DESC STUDENTS")
    widening = run_sql(
        classroom, "ALTER TABLE STUDENTS MODIFY S_ADDRESS VARCHAR(30) "
                   "NOT NULL")
    assert ora_code(widening) == 2296
    # The failed statement changed nothing, not even the type.
    assert run_sql(classroom, "DESC STUDENTS") == before


def test_modify_back_to_null_clears_flag(classroom):
    blocks(classroom, "ALTER TABLE STUDENTS MODIFY DOB DATE NOT NULL")
    blocks(classroom, "ALTER TABLE STUDENTS MODIFY DOB DATE NULL")
    desc = run_sql(classroom, "DESC STUDENTS")
    assert desc[6] == "DOB                                     DATE"
    names = run_sql(
        classroom,
        "SELECT CONSTRAINT_NAME FROM USER_CONSTRAINTS "
        "WHERE TABLE_NAME = 'STUDENTS'")
    assert "SYS_C005545" not in names


def test_null_modify_keeps_primary_key_not_null(classroom):
    blocks(classroom,
           "ALTER TABLE STUDENTS ADD CONSTRAINT PK_P PRIMARY KEY (S_ROLL)")
    blocks(classroom, "ALTER TABLE STUDENTS MODIFY S_ROLL NUMBER(2) NULL")
    desc = run_sql(classroom, "DESC STUDENTS")
    assert "NOT NULL" in desc[2]

    # The other order: a generated NOT NULL first, the key over it next.
    other = make_session(load_fixture("classroom_full"))
    for text in ("ALTER TABLE STUDENTS MODIFY S_ROLL NUMBER(2) NOT NULL",
                 "ALTER TABLE STUDENTS ADD CONSTRAINT PK_P "
                 "PRIMARY KEY (S_ROLL)",
                 "ALTER TABLE STUDENTS MODIFY S_ROLL NUMBER(2) NULL"):
        assert ora_code(run_sql(other, text)) is None
    desc = run_sql(other, "DESC STUDENTS")
    assert "NOT NULL" in desc[2]
    insert = run_sql(other, "INSERT INTO STUDENTS "
                            "VALUES(NULL, 'A', 'B', 1, '01-JAN-90', 60)")
    assert ora_code(insert) == 1400
    text = saves(other.db)
    copy = make_session(loads(text))
    assert run_sql(copy, "DESC STUDENTS") == desc
    assert saves(copy.db) == text


def test_sys_names_increment_and_skip_taken():
    db = Database()
    assert db.sys_name_counter == SYS_NAME_SEED
    first = next_sys_name(db)
    assert first == "SYS_C005545"
    assert next_sys_name(db) == "SYS_C005546"


def test_user_constraints_types(classroom):
    for text in (
            "ALTER TABLE STUDENTS ADD CONSTRAINT PK_P PRIMARY KEY (S_ROLL)",
            "ALTER TABLE STUDENTS ADD CONSTRAINT UK_S UNIQUE(S_PHONE)",
            "ALTER TABLE STUDENTS ADD CONSTRAINT CHK_S CHECK(S_MARKS >= 60)",
            "ALTER TABLE STUDENTS MODIFY DOB DATE NOT NULL"):
        run_sql(classroom, text)
    rows = run_sql(
        classroom,
        "SELECT CONSTRAINT_NAME, CONSTRAINT_TYPE FROM USER_CONSTRAINTS "
        "WHERE TABLE_NAME = 'STUDENTS'")
    grid = [line.split() for line in rows[3:-1]]
    assert grid == [["PK_P", "P"], ["UK_S", "U"], ["CHK_S", "C"],
                    ["SYS_C005545", "C"]]


def test_user_constraints_values_are_case_sensitive(classroom):
    run_sql(classroom,
            "ALTER TABLE STUDENTS ADD CONSTRAINT PK_P PRIMARY KEY (S_ROLL)")
    block = run_sql(
        classroom,
        "SELECT CONSTRAINT_NAME FROM USER_CONSTRAINTS "
        "WHERE TABLE_NAME = 'students'")
    assert block == ["", "no rows selected"]


def test_alter_on_missing_table_reports_table_position(session):
    block = run_sql(session, "ALTER TABLE NOWHERE MODIFY A NUMBER(5)")
    assert ora_code(block) == 942
    assert block[1] == "            *"
