import importlib.resources

import pytest

from conftest import make_session, nested, run_sql

from handysql import persistence
from handysql.executor import Database
from handysql.parser import MAX_NESTING
from handysql.persistence import SnapshotError, loads, saves
from handysql.shell import Session, execute_statement


def build_db(*statements):
    session = make_session()
    for text in statements:
        block = run_sql(session, text)
        assert "ORA-" not in "\n".join(block), block
    return session.db


SETUP = (
    "CREATE TABLE T(A NUMBER(5,2), B VARCHAR(4), D DATE)",
    "INSERT INTO T VALUES(1.5, 'x', '01-JAN-90')",
    "INSERT INTO T VALUES(2, 'y', NULL)",
    "ALTER TABLE T ADD CONSTRAINT PK_T PRIMARY KEY (A)",
    "ALTER TABLE T ADD CONSTRAINT CH CHECK (A >= 0)",
    "ALTER TABLE T MODIFY B VARCHAR(4) NOT NULL",
)


def test_save_load_save_is_byte_identical():
    db = build_db(*SETUP)
    first = saves(db)
    again = saves(loads(first))
    assert first == again


def test_snapshot_sections_in_order():
    db = build_db(*SETUP)
    text = saves(db)
    lines = text.splitlines()
    assert lines[0] == "HANDYDB 1"
    kinds = [line.split()[0] for line in lines[1:]]
    order = {"TABLE": 0, "COL": 1, "CONSTRAINT": 2, "COUNTER": 3, "ROWS": 4}
    ranked = [order[k] for k in kinds if k in order]
    assert ranked == sorted(ranked)


def test_loaded_db_behaves_like_original(tmp_path):
    db = build_db(*SETUP)
    path = tmp_path / "t.handydb"
    persistence.save(db, str(path))
    reloaded = persistence.load(str(path))
    import io
    session = Session(reloaded, out=io.StringIO(),
                      instream=io.StringIO(), quiet=True)
    block = execute_statement(session, "SELECT B FROM T WHERE A = 1.5")
    assert block[3] == "x"
    dup = execute_statement(session, "INSERT INTO T VALUES(1.5, 'y', NULL)")
    assert "ORA-00001" in "\n".join(dup)


def test_failed_save_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "t.handydb"
    persistence.save(build_db(*SETUP), str(path))
    old = path.read_text()
    # A lone surrogate cannot be encoded, so the write fails part way.
    monkeypatch.setattr(persistence, "saves", lambda db: "HANDYDB 1\udc80")
    with pytest.raises(UnicodeEncodeError):
        persistence.save(Database(), str(path))
    assert path.read_text() == old
    assert [p.name for p in tmp_path.iterdir()] == ["t.handydb"]


def test_counter_round_trips():
    db = build_db(*SETUP)
    assert db.sys_name_counter == 5546
    assert loads(saves(db)).sys_name_counter == 5546


def test_escape_round_trip():
    special = "tab\there nl\nthere back\\slash"
    db = build_db("CREATE TABLE T(A VARCHAR(40))")
    import io
    session = Session(db, out=io.StringIO(), instream=io.StringIO(),
                      quiet=True)
    db.tables["T"].rows.append([special])
    copy = loads(saves(db))
    assert copy.tables["T"].rows == [[special]]


# Characters str.splitlines() breaks a line at, plus the escaped ones.
LINE_BREAKERS = "\r\n\t\\\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def test_line_breaking_characters_round_trip(tmp_path):
    db = build_db("CREATE TABLE T(A VARCHAR(5))",
                  *(f"INSERT INTO T VALUES('a{ch}b')" for ch in LINE_BREAKERS))
    rows = [[f"a{ch}b"] for ch in LINE_BREAKERS]
    assert db.tables["T"].rows == rows
    assert loads(saves(db)).tables["T"].rows == rows
    path = tmp_path / "t.handydb"
    persistence.save(db, str(path))
    assert persistence.load(str(path)).tables["T"].rows == rows


def test_null_marker_distinct_from_text():
    db = build_db("CREATE TABLE T(A VARCHAR(5))",
                  "INSERT INTO T VALUES(NULL)")
    text = saves(db)
    assert "\\N" in text
    copy = loads(text)
    assert copy.tables["T"].rows == [[None]]
    db.tables["T"].rows[0][0] = "\\N"
    literal = loads(saves(db))
    assert literal.tables["T"].rows == [["\\N"]]


def test_empty_text_of_a_one_column_table_reloads():
    db = build_db("CREATE TABLE T(A VARCHAR2(10))",
                  "INSERT INTO T VALUES('')", "INSERT INTO T VALUES('ROWS T')",
                  "INSERT INTO T VALUES('x')")
    rows = [[""], ["ROWS T"], ["x"]]
    assert db.tables["T"].rows == rows
    text = saves(db)
    assert text.endswith("ROWS T\n\\e\n\\eROWS T\nx\n")
    assert loads(text).tables["T"].rows == rows
    assert saves(loads(text)) == text


def test_first_cell_that_looks_like_a_header_reloads():
    db = build_db("CREATE TABLE U(A VARCHAR2(10), B NUMBER)",
                  "INSERT INTO U VALUES('ROWS U', 1)",
                  "INSERT INTO U VALUES('', 2)",
                  "INSERT INTO U VALUES('ROWS', 3)")
    text = saves(db)
    # An empty first cell of a wider row leaves the line non-blank.
    assert text.endswith("ROWS U\n\\eROWS U\t1\n\t2\nROWS\t3\n")
    copy = loads(text)
    assert copy.tables["U"].rows == db.tables["U"].rows
    assert saves(copy) == text


def test_lead_escape_reads_as_nothing_in_any_cell():
    assert loads("HANDYDB 1\nTABLE T\nCOL A VARCHAR2(5) NULL\n"
                 "COL B VARCHAR2(5) NULL\nROWS T\n\\ea\tb\\e\n"
                 ).tables["T"].rows == [["a", "b"]]


def reject(text, needle):
    with pytest.raises(SnapshotError) as info:
        loads(text)
    assert needle in str(info.value)


def test_bad_magic_rejected():
    reject("HANDYDB 2\n", "snapshot")
    reject("", "snapshot")
    reject("garbage\n", "snapshot")


def test_malformed_col_line_rejected():
    reject("HANDYDB 1\nTABLE T\nCOL A\n", "COL")


def test_unknown_type_display_rejected():
    reject("HANDYDB 1\nTABLE T\nCOL A BLOB NULL\n", "type")


def test_col_outside_table_rejected():
    reject("HANDYDB 1\nCOL A NUMBER(5) NULL\n", "COL")


def test_repeated_column_name_rejected_as_create_table_does():
    # CREATE TABLE refuses this with 957; SELECT A would read either.
    reject("HANDYDB 1\nTABLE T\nCOL A NUMBER NULL\nCOL A VARCHAR2(3) NULL\n"
           "COUNTER 5545\nROWS T\n1\tx\n",
           "line 4: table T: ORA-00957: duplicate column name")


@pytest.mark.parametrize("name", ["DUAL", "USER_CONSTRAINTS"])
def test_builtin_table_name_rejected_as_create_table_does(name):
    # A stored table of that name would shadow the built-in (955).
    reject(f"HANDYDB 1\nTABLE {name}\nCOL Z NUMBER NULL\nCOUNTER 5545\n"
           f"ROWS {name}\n5\n",
           f"line 2: table {name}: ORA-00955: name is already used")


@pytest.mark.parametrize("text, message", [
    pytest.param("TABLE T\nCOL A NUMBER NOTNULL\nCONSTRAINT P1 T PK A\n"
                 "CONSTRAINT P2 T PK A\n",
                 "line 5: table T: ORA-02260: table can have only one "
                 "primary key", id="second-primary-key"),
    pytest.param("TABLE T\nCOL  NUMBER NULL\n",
                 "line 3: table T: ORA-00904: invalid identifier",
                 id="empty-column-name"),
    pytest.param("TABLE t\nCOL A NUMBER NULL\n",
                 "line 2: table t: ORA-00904: invalid identifier",
                 id="lower-case-table-name"),
    pytest.param("TABLE T\nCOUNTER 5545\nROWS T\n",
                 "line 2: table T: ORA-00904: invalid identifier",
                 id="table-without-columns"),
    # next_sys_name would write SYS_C-00005; saves writes only digits.
    pytest.param("TABLE T\nCOL A NUMBER NULL\nCOUNTER -5\n",
                 "line 4: bad counter", id="negative-counter"),
    # int() reads 1_0 as 10, which saves would write back as 10.
    pytest.param("TABLE T\nCOL A NUMBER NULL\nCOUNTER 1_0\n",
                 "line 4: bad counter", id="underscored-counter"),
    pytest.param("TABLE T\nCOL A NUMBER NULL\nCOUNTER \u0663\n",
                 "line 4: bad counter", id="arabic-indic-counter"),
    pytest.param("TABLE T\nCOL A NUMBER NULL\nCONSTRAINT lower T UNIQUE A\n",
                 "line 4: table T: ORA-00904: invalid identifier",
                 id="lower-case-constraint-name"),
    pytest.param("TABLE T\nCOL A NUMBER NOTNULL\nCONSTRAINT N1 T NOTNULL A\n"
                 "CONSTRAINT N2 T NOTNULL A\n",
                 "line 5: table T: column A is NOT NULL already",
                 id="second-notnull"),
    # MODIFY ... NOT NULL adds nothing to a column a PK covers.
    pytest.param("TABLE T\nCOL A NUMBER NOTNULL\nCONSTRAINT P T PK A\n"
                 "CONSTRAINT SYS_C005545 T NOTNULL A\n",
                 "line 5: table T: column A is NOT NULL already",
                 id="notnull-on-a-primary-key-column"),
    # ALTER TABLE ... ADD CONSTRAINT refuses a key that repeats a column.
    pytest.param("TABLE T\nCOL A NUMBER NOTNULL\nCOL B NUMBER NULL\n"
                 "CONSTRAINT P T PK A,A\n",
                 "line 5: table T: ORA-00957: duplicate column name",
                 id="primary-key-repeats-a-column"),
    pytest.param("TABLE T\nCOL A NUMBER NULL\nCOL B NUMBER NULL\n"
                 "CONSTRAINT U T UNIQUE B,A,B\n",
                 "line 5: table T: ORA-00957: duplicate column name",
                 id="unique-repeats-a-column"),
])
def test_states_ddl_refuses_rejected_with_their_line(text, message):
    with pytest.raises(SnapshotError) as info:
        loads("HANDYDB 1\n" + text)
    assert str(info.value) == message


def test_primary_key_and_not_null_on_one_column_load():
    # DDL makes this: MODIFY ... NOT NULL, then a PK on the same column.
    text = ("HANDYDB 1\nTABLE T\nCOL A NUMBER NOTNULL\n"
            "CONSTRAINT SYS_C005545 T NOTNULL A\nCONSTRAINT P T PK A\n"
            "COUNTER 5546\nROWS T\n1\n")
    assert saves(loads(text)) == text


def test_repeated_table_name_rejected():
    reject("HANDYDB 1\nTABLE T\nCOL A NUMBER NULL\nTABLE T\n"
           "COL B NUMBER NULL\n", "line 4: table T: ORA-00955")


def test_constraint_for_unknown_table_rejected():
    reject("HANDYDB 1\nTABLE T\nCOL A NUMBER(5) NULL\n"
           "CONSTRAINT P X PK A\n", "X")


def test_constraint_on_unknown_column_rejected():
    reject("HANDYDB 1\nTABLE T\nCOL A NUMBER(5) NULL\n"
           "CONSTRAINT P T PK NOPE\n",
           "line 4: table T: ORA-00904: invalid identifier")
    # A NOTNULL line names one column, commas included.
    reject("HANDYDB 1\nTABLE T\nCOL A NUMBER(5) NOTNULL\n"
           "COL B NUMBER(5) NOTNULL\nCONSTRAINT N T NOTNULL A,B\n",
           "line 5: table T: ORA-00904: invalid identifier")


def test_duplicate_constraint_names_rejected():
    base = ("HANDYDB 1\nTABLE T\nCOL A NUMBER(5) NOTNULL\n"
            "COL B NUMBER(5) NULL\n"
            "CONSTRAINT P T PK A\nCONSTRAINT P T UNIQUE B\n")
    reject(base, "line 6: table T: ORA-02264: name already used by an "
           "existing constraint")


def test_rows_for_unknown_table_rejected():
    reject("HANDYDB 1\nROWS T\n1\n", "line 2: rows for unknown T")
    # Lines count on through the sections before, blank lines included.
    reject("HANDYDB 1\nTABLE T\nCOL A NUMBER NULL\n\nROWS T\n1\n\n2\n"
           "ROWS U\n", "line 9: rows for unknown U")


def test_row_width_mismatch_rejected():
    reject("HANDYDB 1\nTABLE T\nCOL A NUMBER(5) NULL\n"
           "COL B NUMBER(5) NULL\nROWS T\n1\n", "row")


def test_unparseable_cell_rejected():
    reject("HANDYDB 1\nTABLE T\nCOL A NUMBER(5) NULL\nROWS T\nnope\n",
           "nope")


def test_bad_escape_rejected():
    reject("HANDYDB 1\nTABLE T\nCOL A VARCHAR2(5) NULL\nROWS T\n\\x\n",
           "bad escape \\x")


def test_trailing_lone_backslash_rejected():
    # saves writes a backslash as two, so a lone one cannot end a cell.
    reject("HANDYDB 1\nTABLE T\nCOL A VARCHAR2(5) NULL\nROWS T\na\\\n",
           "bad escape \\")
    assert loads("HANDYDB 1\nTABLE T\nCOL A VARCHAR2(5) NULL\nROWS T\n"
                 "a\\\\\n").tables["T"].rows == [["a\\"]]
    with pytest.raises(SnapshotError) as info:
        loads("HANDYDB 1\nTABLE T\nCOL A VARCHAR2(5) NULL\n"
              "CONSTRAINT C T CHECK \\A != 'x\\\n")
    assert str(info.value).endswith("bad escape \\")


def test_check_violating_row_rejected():
    db = build_db("CREATE TABLE T(A NUMBER(5))",
                  "INSERT INTO T VALUES(10)",
                  "ALTER TABLE T ADD CONSTRAINT CH CHECK (A >= 0)")
    tampered = saves(db).replace("10", "-7")
    reject(tampered, "CH")


def test_empty_check_body_rejected():
    reject("HANDYDB 1\nTABLE T\nCOL A NUMBER(5) NULL\n"
           "CONSTRAINT C T CHECK \n", "bad check predicate ''")


@pytest.mark.parametrize("literal", [
    pytest.param("'x'", id="plain"),
    pytest.param("'x\ny'", id="newline"),
    pytest.param("'x\ry'", id="carriage-return"),
    pytest.param("'a\\n\nb'", id="backslash-and-newline"),
])
def test_check_reloads_and_still_rejects(tmp_path, literal):
    db = build_db("CREATE TABLE T(A NUMBER(3), B VARCHAR2(10))",
                  "INSERT INTO T VALUES(10, 'ok')",
                  f"ALTER TABLE T ADD CONSTRAINT CK CHECK "
                  f"(A >= 10 AND B != {literal})")
    text = saves(db)
    path = tmp_path / "t.handydb"
    persistence.save(db, str(path))
    reloaded = persistence.load(str(path))
    assert saves(reloaded) == text
    violating = f"INSERT INTO T VALUES(11, {literal})"
    before = run_sql(make_session(db), violating)
    assert "ORA-02290" in "\n".join(before)
    assert run_sql(make_session(reloaded), violating) == before
    assert saves(reloaded) == text


def test_check_backslashes_of_older_files_keep_their_meaning():
    # Written before CHECK bodies could be escaped: the backslashes are
    # literal characters of the string.
    text = ("HANDYDB 1\nTABLE T\nCOL B VARCHAR2(10) NULL\n"
            "CONSTRAINT CK T CHECK B != 'a\\nb\\\\'\nCOUNTER 5545\nROWS T\n")
    db = loads(text)
    assert db.constraints[0].predicate.right.value == "a\\nb\\\\"
    assert saves(db) == text


@pytest.mark.parametrize("body, code", [
    ("NOPE > 1", "ORA-00904"),
    ("U.A > 1", "ORA-00904"),
    ("COUNT(*) > 1", "ORA-00934"),
    ("A > 'X'", "ORA-01722"),
    ("D > '01-JAN-1980'", "ORA-00932"),
])
def test_check_the_table_cannot_hold_rejected(body, code):
    reject("HANDYDB 1\nTABLE T\nCOL A NUMBER(5) NULL\nCOL D DATE NULL\n"
           f"CONSTRAINT C T CHECK {body}\nROWS T\n1\t1990-01-02\n",
           f"line 5: table T: {code}: ")


@pytest.mark.parametrize("body", [
    pytest.param("(" * 10000 + "A > 1" + ")" * 10000, id="parentheses"),
    pytest.param("NOT " * 10000 + "A > 1", id="nots"),
])
def test_check_nested_too_deep_rejected(body):
    reject("HANDYDB 1\nTABLE T\nCOL A NUMBER(5) NULL\n"
           f"CONSTRAINT C T CHECK {body}\n", "ORA-00900")


def test_check_nested_to_the_limit_works_and_round_trips():
    body = nested(MAX_NESTING)
    db = build_db("CREATE TABLE T(A NUMBER(3))",
                  "INSERT INTO T VALUES(1)", "INSERT INTO T VALUES(NULL)",
                  f"ALTER TABLE T ADD CONSTRAINT CK CHECK ({body})")
    text = saves(db)
    reloaded = loads(text)
    assert saves(reloaded) == text
    for copy in (db, reloaded):
        session = make_session(copy)
        block = run_sql(session, "INSERT INTO T VALUES(2)")
        assert "ORA-02290" in "\n".join(block)
        block = run_sql(session, f"SELECT A FROM T WHERE {body}")
        assert [line.strip() for line in block[3:-1]] == ["1"]


def test_long_or_check_round_trips_and_rejects():
    body = " OR ".join(f"A = {k}" for k in range(1, 10001))
    db = build_db("CREATE TABLE T(A NUMBER(5))", "INSERT INTO T VALUES(7)",
                  f"ALTER TABLE T ADD CONSTRAINT CK CHECK ({body})")
    text = saves(db)
    assert f"CONSTRAINT CK T CHECK {body}\n" in text
    assert saves(loads(text)) == text
    block = run_sql(make_session(loads(text)), "INSERT INTO T VALUES(0)")
    assert "ORA-02290" in "\n".join(block)


def test_check_group_of_its_own_op_saves_without_parentheses():
    db = build_db("CREATE TABLE T(A NUMBER(5), B NUMBER(5))",
                  "ALTER TABLE T ADD CONSTRAINT CK "
                  "CHECK (A = 1 OR (B = 2 OR A = 3) OR (A = 4 AND B = 5))")
    text = saves(db)
    flat = "A = 1 OR B = 2 OR A = 3 OR A = 4 AND B = 5"
    assert f"CONSTRAINT CK T CHECK {flat}\n" in text
    assert saves(loads(text)) == text


def test_check_bad_escape_rejected_with_its_line():
    text = ("HANDYDB 1\nTABLE T\nCOL A VARCHAR2(5) NULL\n"
            + r"CONSTRAINT C T CHECK \A != 'x\q'" + "\n")
    with pytest.raises(SnapshotError) as info:
        loads(text)
    message = str(info.value)
    assert message.startswith("line 4: bad check predicate ")
    assert message.endswith(r"bad escape \q")


def test_duplicate_pk_rows_rejected():
    db = build_db("CREATE TABLE T(A NUMBER(5))",
                  "INSERT INTO T VALUES(1)",
                  "INSERT INTO T VALUES(2)",
                  "ALTER TABLE T ADD CONSTRAINT PK_T PRIMARY KEY (A)")
    tampered = saves(db).replace("\n2\n", "\n1\n")
    reject(tampered, "PK_T")


def test_null_in_not_null_column_rejected():
    db = build_db("CREATE TABLE T(A NUMBER(5))",
                  "INSERT INTO T VALUES(1)",
                  "ALTER TABLE T MODIFY A NUMBER(5) NOT NULL")
    tampered = saves(db).replace("\n1\n", "\n\\N\n")
    reject(tampered, "null column")


def test_flag_without_backing_constraint_rejected():
    db = build_db("CREATE TABLE T(A NUMBER(5))",
                  "ALTER TABLE T MODIFY A NUMBER(5) NOT NULL")
    text = saves(db)
    missing_constraint = "\n".join(
        line for line in text.splitlines()
        if not line.startswith("CONSTRAINT")) + "\n"
    reject(missing_constraint, "NOT NULL")


def test_constraint_without_flag_rejected():
    db = build_db("CREATE TABLE T(A NUMBER(5))",
                  "ALTER TABLE T MODIFY A NUMBER(5) NOT NULL")
    tampered = saves(db).replace("COL A NUMBER(5) NOTNULL",
                                 "COL A NUMBER(5) NULL")
    reject(tampered, "NOT NULL")


def test_load_missing_file_raises_snapshot_error(tmp_path):
    with pytest.raises(SnapshotError):
        persistence.load(str(tmp_path / "absent.handydb"))


def test_load_undecodable_file_raises_snapshot_error(tmp_path):
    path = tmp_path / "bad.handydb"
    path.write_bytes(b"HANDYDB 1\n\xff\n")
    with pytest.raises(SnapshotError):
        persistence.load(str(path))


PINNED = (
    "HANDYDB 1\n"
    "TABLE T\n"
    "COL ID NUMBER(5) NOTNULL\n"
    "COL NAME VARCHAR2(10) NOTNULL\n"
    "COL NOTE VARCHAR2(10) NULL\n"
    "CONSTRAINT PK_T T PK ID\n"
    "CONSTRAINT SYS_C005545 T NOTNULL NAME\n"
    "COUNTER 5546\n"
    "ROWS T\n"
    "1\tA\t\\N\n"
    "2\tB\tx\n"
)


def test_saves_output_is_pinned():
    db = build_db(
        "CREATE TABLE T(ID NUMBER(5), NAME VARCHAR(10), NOTE VARCHAR(10))",
        "INSERT INTO T VALUES(1, 'A', NULL)",
        "INSERT INTO T VALUES(2, 'B', 'x')",
        "ALTER TABLE T ADD CONSTRAINT PK_T PRIMARY KEY (ID)",
        "ALTER TABLE T MODIFY NAME VARCHAR(10) NOT NULL")
    assert saves(db) == PINNED
    assert saves(loads(PINNED)) == PINNED
    fixtures = importlib.resources.files("handysql") / "fixtures"
    for name in ("classroom", "classroom_full"):
        text = (fixtures / f"{name}.handydb").read_text()
        assert saves(loads(text)) == text


def test_empty_database_round_trips():
    db = Database()
    assert saves(db) == "HANDYDB 1\nCOUNTER 5545\n"
    copy = loads(saves(db))
    assert copy.tables == {}
