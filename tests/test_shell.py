import io
import subprocess
import sys
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from conftest import make_session, ora_code, run_sql

from handysql.executor import ResultSet
from handysql.persistence import saves
from handysql.shell import (PROMPT, continuation_prompt, main,
                            read_statement, render_result_set, run_script,
                            substitute_variables)


def scripted_session(*lines):
    session = make_session()
    session.instream = io.StringIO("".join(line + "\n" for line in lines))
    return session


def test_prompts():
    assert PROMPT == "SQL> "
    assert continuation_prompt(2) == "  2  "
    assert continuation_prompt(3) == "  3  "
    assert continuation_prompt(10) == " 10  "


def test_read_statement_joins_continuations():
    session = scripted_session("SELECT *", "FROM DUAL;")
    assert read_statement(session.read_line) == "SELECT *\nFROM DUAL"


def test_read_statement_slash_terminates_buffer():
    session = scripted_session("SELECT * FROM DUAL", "/")
    assert read_statement(session.read_line) == "SELECT * FROM DUAL"


def test_leading_blank_lines_and_bare_slash_are_skipped():
    session = scripted_session("", "/", "", "SELECT 1 FROM DUAL;")
    assert read_statement(session.read_line) == "SELECT 1 FROM DUAL"


def test_exit_quit_and_eof_end_session():
    for closer in ("exit", "QUIT", "Exit;", "quit ;"):
        session = scripted_session(closer)
        assert read_statement(session.read_line) is None
    assert read_statement(scripted_session().read_line) is None


def test_exit_only_recognized_at_statement_start():
    session = scripted_session("SELECT 'exit'", "FROM DUAL;")
    assert read_statement(session.read_line) == "SELECT 'exit'\nFROM DUAL"


def test_interactive_substitution_prompts_every_occurrence():
    session = scripted_session("first", "second")
    resolved, lines = substitute_variables(
        session, "SELECT '&V', '&V' FROM DUAL")
    assert resolved == "SELECT 'first', 'second' FROM DUAL"
    assert lines == []
    assert session.out.getvalue() == ""


def test_script_bindings_consumed_first_match_case_insensitive():
    session = make_session()
    resolved, lines = substitute_variables(
        session, "SELECT '&name', '&NAME' FROM DUAL",
        bindings=[("NAME", "a"), ("name", "b"), ("other", "c")])
    assert resolved == "SELECT 'a', 'b' FROM DUAL"
    assert lines == ["Enter value for name: a", "Enter value for name: b"]


def test_missing_binding_yields_diagnostic_block():
    session = make_session()
    block = run_sql(session, "SELECT '&WHO' FROM DUAL", bindings=[])
    assert block[-2] == 'no binding for substitution variable "WHO"'
    assert session.error_count == 1


EMPTY_STATEMENT_BLOCK = ["", "*", "ERROR at line 1:",
                         "ORA-00900: invalid SQL statement", ""]


def test_empty_substitution_is_900_at_start():
    session = make_session()
    block = run_sql(session, "&X", bindings=[("X", "")])
    assert block == ["Enter value for x: ", *EMPTY_STATEMENT_BLOCK]
    assert session.error_count == 1


def test_lone_semicolon_is_900_at_the_prompt():
    proc = run_cli([], stdin_text=";\nSELECT * FROM DUAL;\n")
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert "SQL> ;\n" + "\n".join(EMPTY_STATEMENT_BLOCK) in proc.stdout
    assert "DUMMY" in proc.stdout


def test_feedback_block_shape(session):
    block = run_sql(session, "CREATE TABLE T(A NUMBER)")
    assert block == ["", "Table created.", ""]


def test_error_block_shape(session):
    block = run_sql(session, "SELECT * FROM NOWHERE")
    assert block[0] == "SELECT * FROM NOWHERE"
    assert block[-1] == ""
    assert ora_code(block) == 942


def test_listing_block_has_no_leading_blank(session):
    run_sql(session, "CREATE TABLE T(A NUMBER)")
    block = run_sql(session, "DESC T")
    assert block[0].startswith("Name")
    assert block[-1] == ""


def test_empty_result_block(session):
    run_sql(session, "CREATE TABLE T(A NUMBER)")
    assert run_sql(session, "SELECT * FROM T") == ["", "no rows selected"]


def test_render_result_set_alignment():
    rs = ResultSet(["ID", "NAME"],
                   [[Decimal(7), "A"], [Decimal(123), None]])
    assert render_result_set(rs) == [
        "ID  NAME",
        "--- ----",
        "  7 A",
        "123",
        "",
    ]


def test_render_widens_rule_to_value_width():
    rs = ResultSet(["N"], [[Decimal(98765)]])
    assert render_result_set(rs) == ["N", "-----", "98765", ""]


def test_date_cells_render_dd_mon_yy(classroom):
    block = run_sql(classroom,
                    "SELECT DOB FROM STUDENTS WHERE S_ROLL = 1")
    assert block[3] == "29-AUG-90"


def run_cli(args, stdin_text=""):
    proc = subprocess.run(
        [sys.executable, "-m", "handysql.shell", *args],
        input=stdin_text, capture_output=True, text=True)
    return proc


def write_script(tmp_path, text):
    path = tmp_path / "demo.sql"
    path.write_text(text)
    return str(path)


SCRIPT = """CREATE TABLE T(A NUMBER(3));
INSERT INTO T VALUES(5);
SELECT A
FROM T;
"""


@pytest.mark.parametrize("text", [
    pytest.param(SCRIPT, id="statements"),
    pytest.param("/\nSELECT * FROM DUAL;\n", id="lone-slash"),
    pytest.param("SELECT * FROM DUAL;\nexit\nSELECT * FROM DUAL;\n",
                 id="exit"),
    pytest.param("\nSELECT * FROM DUAL;\n  \n", id="blank-lines"),
    pytest.param("SELECT *\nFROM DUAL", id="unterminated"),
])
def test_script_and_pipe_transcripts_match(tmp_path, text):
    script = write_script(tmp_path, text)
    from_script = run_cli(["--script", script])
    from_pipe = run_cli([], stdin_text=text)
    assert from_script.returncode == 0
    assert from_script.stdout == from_pipe.stdout
    assert "ORA-" not in from_script.stdout


def test_script_transcript_ends_with_prompt(tmp_path):
    out = run_cli(["--script", write_script(tmp_path, SCRIPT)]).stdout
    assert "1 row created." in out
    assert out.endswith(PROMPT + "\n")


def test_script_statements_echo_with_prompts(tmp_path):
    script = write_script(tmp_path, "SELECT A\nFROM T;\n")
    out = run_cli(["--script", script]).stdout
    assert "SQL> SELECT A" in out
    assert "  2  FROM T;" in out


def test_bind_directives_feed_substitution(tmp_path):
    text = ("CREATE TABLE T(A NUMBER(3));\n"
            "-- bind v=42\n"
            "INSERT INTO T VALUES(&V);\n"
            "SELECT A FROM T;\n")
    script = write_script(tmp_path, text)
    proc = run_cli(["--script", script])
    assert "Enter value for v: 42" in proc.stdout
    assert "-- bind" not in proc.stdout
    assert "42" in proc.stdout


def test_markers_are_words_bound_by_their_fold(tmp_path):
    script = write_script(
        tmp_path,
        "-- bind _x=5\nSELECT &_x FROM DUAL;\n"
        # The whole word "aé" is the marker, so "a" does not bind it.
        "-- bind a=8\nSELECT &aé FROM DUAL;\n"
        "-- bind é=3\nSELECT &É FROM DUAL;\n"
        # "ſ" is no "s": str.upper would bind one to the other.
        "-- bind ſ=1\nSELECT &s FROM DUAL;\n"
        # A marker that starts with a numeral is the lexer's to refuse.
        "SELECT &½ FROM DUAL;\n")
    session = make_session()
    run_script(session, script)
    assert session.out.getvalue() == (
        "Enter value for _x: 5\n\n5\n-\n5\n\n"
        'no binding for substitution variable "aé"\n\n'
        "Enter value for é: 3\n\n3\n-\n3\n\n"
        'no binding for substitution variable "s"\n\n'
        "SELECT &½ FROM DUAL\n       *\nERROR at line 1:\n"
        "ORA-00900: invalid SQL statement\n\n")
    assert session.error_count == 3


# Script lines: comments and binds, slashes, exits, statements over
# several lines, an unbound marker, and literals holding characters
# str.splitlines would break a line at.
SCRIPT_LINES = [
    "", "   ", "\t", "-- a comment", "  -- bind v=7", "-- bind w= 'x y'",
    "--bind V=8", "-- bind", "--", "/", "  /  ", "exit", "exit;", "QUIT",
    "quit ;", "CREATE TABLE T(A NUMBER(3), B VARCHAR2(9));",
    "INSERT INTO T VALUES(&v, 'a');", "INSERT INTO T VALUES(1, '&w')",
    "SELECT A, B", "FROM T;", "  -- a comment inside a statement",
    "SELECT 'p\x0cq', 'r\x0bs', 'u\x85v', 'x\u2028y', '\x1c' FROM DUAL;",
    "SELECT '&nobody' FROM DUAL;", "SELECT * FROM T WHERE A = &v;",
    "SELECT * FROM NOPE;", "SELECT 1 FROM DUAL",
]


@st.composite
def scripts(draw):
    """A script's text, its lines ended by LF, CRLF or a lone CR."""
    lines = draw(st.lists(st.tuples(st.sampled_from(SCRIPT_LINES),
                                    st.sampled_from(["\n", "\r\n", "\r"])),
                          max_size=12))
    text = "".join(line + end for line, end in lines)
    if lines and draw(st.booleans()):
        text = text[:-len(lines[-1][1])]  # no final line break
    return text


@settings(max_examples=60, deadline=None)
@given(scripts())
@example("-- bind v=5\r\nINSERT INTO T VALUES(&v, 'a')\r/\nSELECT '\x0c'"
         " FROM DUAL;\nSELECT '&nobody' FROM DUAL;\nSELECT A\n  2")
@example("\n\n-- bind v=1\n\nexit\nSELECT 1 FROM DUAL;\n")
def test_script_replay_matches_the_line_at_a_time_reference(tmp_path_factory,
                                                            text):
    path = tmp_path_factory.mktemp("script") / "s.sql"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    for quiet in (False, True):
        got, expected = make_session(), make_session()
        got.quiet = expected.quiet = quiet
        run_script(got, str(path))
        reference.run_script(expected, str(path))
        assert got.out.getvalue() == expected.out.getvalue()
        assert got.error_count == expected.error_count
        assert saves(got.db) == saves(expected.db)


def test_statements_nested_too_deep_are_error_blocks(tmp_path):
    script = tmp_path / "deep.sql"
    script.write_text(
        "CREATE TABLE T(A NUMBER(3));\n"
        f"SELECT A FROM T WHERE {'(' * 10000}A = 1{')' * 10000};\n"
        f"SELECT A FROM T WHERE {'NOT ' * 10000}A = 1;\n"
        f"ALTER TABLE T ADD CONSTRAINT C CHECK ({'NOT ' * 10000}A = 1);\n")
    session = make_session()
    run_script(session, str(script))
    assert session.error_count == 3
    transcript = session.out.getvalue()
    assert transcript.count("ORA-00900: invalid SQL statement") == 3


def test_long_and_or_chains_are_one_node_at_any_length(tmp_path):
    n = 10000
    ands = " AND ".join(["A = 1"] * n)
    ors = " OR ".join([f"A = {k}" for k in range(2, n + 1)] + ["A = 1"])
    # One term a line, so the failing comparison sits on line 10,000.
    wrong = "\nOR ".join([f"A = {k}" for k in range(2, n + 1)] + ["B = 1"])
    script = tmp_path / "chains.sql"
    script.write_text(
        "CREATE TABLE T(A NUMBER(5), B VARCHAR2(5));\n"
        "INSERT INTO T VALUES(1, 'x');\n"
        f"SELECT A FROM T WHERE {ands};\n"
        f"SELECT A FROM T WHERE {ors};\n"
        f"SELECT A FROM T WHERE {wrong};\n")
    session = make_session()
    run_script(session, str(script))
    assert session.out.getvalue() == (
        "\nTable created.\n\n\n1 row created.\n\n"
        "\nA\n-\n1\n\n\nA\n-\n1\n\n"
        "OR B = 1\n     *\nERROR at line 10000:\n"
        "ORA-01722: invalid number\n\n")
    assert session.error_count == 1


def test_strict_exit_code(tmp_path):
    script = write_script(tmp_path, "SELECT * FROM NOWHERE;\n")
    assert run_cli(["--script", script]).returncode == 0
    assert run_cli(["--strict", "--script", script]).returncode == 1


def test_missing_script_is_usage_error(tmp_path):
    proc = run_cli(["--script", str(tmp_path / "absent.sql")])
    assert proc.returncode == 2


def test_corrupt_db_is_usage_error(tmp_path):
    bad = tmp_path / "bad.handydb"
    bad.write_text("HANDYDB 9\n")
    proc = run_cli(["--db", str(bad)], stdin_text="exit\n")
    assert proc.returncode == 2


@pytest.mark.parametrize("flag", ["--script", "--db"])
def test_undecodable_file_is_usage_error(tmp_path, flag):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\n")
    proc = run_cli([flag, str(bad)], stdin_text="exit\n")
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].startswith(f"handy-sql: {bad}: ")
    assert "Traceback" not in proc.stderr


def test_db_round_trip_through_cli(tmp_path):
    db = tmp_path / "state.handydb"
    first = run_cli(["--db", str(db)],
                    stdin_text="CREATE TABLE T(A NUMBER(3));\n"
                               "INSERT INTO T VALUES(7);\nexit\n")
    assert first.returncode == 0
    second = run_cli(["--db", str(db)], stdin_text="SELECT A FROM T;\n")
    assert "A\n-\n7\n" in second.stdout


def test_cli_start_writes_nothing_to_stderr():
    proc = run_cli([], stdin_text="SELECT * FROM DUAL;\n")
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_quiet_suppresses_prompts(tmp_path):
    proc = run_cli(["--quiet"], stdin_text="SELECT * FROM DUAL;\n")
    assert "SQL>" not in proc.stdout
    assert "DUMMY" in proc.stdout


def test_main_runs_repl_on_patched_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("exit\n"))
    assert main(["--quiet"]) == 0
    assert capsys.readouterr().out == ""
