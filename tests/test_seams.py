"""The engine functions a per-layer tracer wraps stay where it looks.

perfbench/tracing.py replaces these module attributes with wrappers and
counts their calls.  If the engine calls one of them under another name,
the tracer silently reads zero, so this test wraps each the same way and
runs a short session that must reach every one.  It also pins which
rows each executor.eval_predicate pass reads once a join's filters are
pushed down.
"""

import pytest

from conftest import make_session

from handysql import (
    catalog, constraints, executor, parser, persistence, shell,
)
from handysql.executor import execute
from handysql.parser import parse_text

SEAMS = {
    shell: ("execute_statement", "substitute_variables", "parse_text",
            "execute", "render_result_set", "render_error"),
    parser: ("tokenize",),
    catalog: ("create_table", "add_constraint", "modify_column",
              "describe"),
    executor: ("check_row", "eval_predicate"),
    constraints: ("validate_existing",),
    persistence: ("validate_existing", "loads", "saves"),
}

SCRIPT = """\
CREATE TABLE DEPT(DID NUMBER(3), DNAME VARCHAR2(10));
CREATE TABLE EMP(EID NUMBER(3), DID NUMBER(3), PAY NUMBER(6));
ALTER TABLE DEPT ADD CONSTRAINT PK_D PRIMARY KEY (DID);
ALTER TABLE EMP MODIFY PAY NUMBER(7) NOT NULL;
INSERT INTO DEPT VALUES(1, 'OPS');
INSERT INTO DEPT VALUES(2, 'LAB');
INSERT INTO EMP VALUES(10, 1, 500);
INSERT INTO EMP VALUES(11, 2, 50);
INSERT INTO EMP VALUES(12, 2, 900);
DESC EMP;
SELECT E.EID, D.DNAME FROM EMP E, DEPT D WHERE E.DID = D.DID AND E.PAY > 100;
SELECT * FROM NO_SUCH_TABLE;
"""


def test_every_traced_name_is_called(tmp_path, monkeypatch):
    calls = {}

    def counting(module, name):
        original = getattr(module, name)
        key = f"{module.__name__}.{name}"
        calls[key] = 0

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return wrapper

    for module, names in SEAMS.items():
        for name in names:
            monkeypatch.setattr(module, name, counting(module, name))

    script = tmp_path / "session.sql"
    script.write_text(SCRIPT)
    session = make_session()
    shell.run_script(session, str(script))
    assert session.error_count == 1
    copy = persistence.loads(persistence.saves(session.db))
    assert copy.tables["EMP"].rows == session.db.tables["EMP"].rows
    assert [key for key, n in calls.items() if n == 0] == []


EMP = [(10, 1, 500), (11, 2, 50), (12, 2, 900), (13, 3, 700),
       (14, None, 800), (15, 1, 90)]
DEPT = [(1, "OPS"), (2, "LAB"), (3, "ART"), (4, "NEW")]


@pytest.fixture
def staff():
    session = make_session()
    for text in ("CREATE TABLE EMP(EID NUMBER(3), DID NUMBER(3), "
                 "PAY NUMBER(6))",
                 "CREATE TABLE DEPT(DID NUMBER(3), DNAME VARCHAR2(10))"):
        execute(session.db, parse_text(text))
    for row in EMP:
        values = ", ".join("NULL" if v is None else str(v) for v in row)
        execute(session.db, parse_text(f"INSERT INTO EMP VALUES({values})"))
    for did, name in DEPT:
        execute(session.db,
                parse_text(f"INSERT INTO DEPT VALUES({did}, '{name}')"))
    return session.db


def test_pushed_down_join_evaluates_each_filter_where_it_runs(
        staff, passes):
    rows = execute(staff, parse_text(
        "SELECT E.EID, D.DNAME FROM EMP E, DEPT D WHERE E.DID = D.DID "
        "AND E.PAY > 100 AND D.DNAME != 'LAB' AND E.EID >= D.DID")).rows
    # E.PAY > 100 reads each EMP row (3 columns) once, D.DNAME != 'LAB'
    # each DEPT row (2 columns) once; E.DID = D.DID is the hash join's
    # key and never evaluated; E.EID >= D.DID reads each joined row.
    paid = [e for e in EMP if e[2] > 100]
    kept = [d for d in DEPT if d[1] != "LAB"]
    joined = [(e, d) for e in paid for d in kept if e[1] == d[0]]
    assert passes == [(len(EMP), 3), (len(DEPT), 2), (len(joined), 5)]
    assert [[int(r[0]), r[1]] for r in rows] == [
        [e[0], d[1]] for e, d in joined if e[0] >= d[0]]
