import random

import pytest

from handysql import conformance
from handysql.conformance import (SUITES, Report, TranscriptFormatError,
                                  _is_directive, load_fixture, main,
                                  normalize_block, normalize_line,
                                  parse_transcript, replay, run_suite,
                                  suite_path, update_goldens)

SAMPLE = """-- demo transcript
SQL> CREATE TABLE T(A NUMBER(3));

Table created.

-- bind v=5
SQL> INSERT INTO T
  2  VALUES(&V);
Enter value for v: 5

1 row created.

SQL> SELECT A FROM T;

A
-
5

"""


def test_parse_transcript_counts_and_binds():
    entries = parse_transcript(SAMPLE)
    assert len(entries) == 3
    assert entries[0].statement == "CREATE TABLE T(A NUMBER(3))"
    assert entries[0].bindings == []
    assert entries[1].statement == "INSERT INTO T\nVALUES(&V)"
    assert entries[1].bindings == [("v", "5")]
    assert entries[2].bindings == []
    assert entries[0].expected == ["", "Table created.", ""]


def test_parse_transcript_slash_terminator():
    entries = parse_transcript("SQL> SELECT * FROM DUAL\n  2  /\n")
    assert entries[0].statement == "SELECT * FROM DUAL"


def test_parse_transcript_empty_file():
    assert parse_transcript("") == []
    assert parse_transcript("-- only a comment\n") == []


def test_parse_transcript_rejects_output_before_statement():
    with pytest.raises(TranscriptFormatError) as info:
        parse_transcript("Table created.\n")
    assert "line 1" in str(info.value)


def test_parse_transcript_rejects_bad_continuation():
    text = "SQL> SELECT *\nFROM DUAL;\n"
    with pytest.raises(TranscriptFormatError) as info:
        parse_transcript(text)
    assert "continuation" in str(info.value)
    assert "line 2" in str(info.value)


@pytest.mark.parametrize("text", [
    "SQL> SELECT *\n  3  FROM DUAL;\n",
    "SQL> exit\nSQL> SELECT * FROM DUAL;\n",
])
def test_parse_transcript_rejects_lines_the_shell_would_not_read(text):
    with pytest.raises(TranscriptFormatError) as info:
        parse_transcript(text)
    assert "line 2" in str(info.value)


def test_parse_transcript_rejects_unterminated_tail():
    with pytest.raises(TranscriptFormatError):
        parse_transcript("SQL> SELECT *\n")


def test_directive_lines_need_space_or_be_bare():
    assert _is_directive("--")
    assert _is_directive("-- bind a=1")
    assert not _is_directive("----------")
    assert not _is_directive("------ ------")
    assert not _is_directive("--x")


def test_dash_rules_survive_as_expected_output():
    entries = parse_transcript(
        "SQL> SELECT A FROM T;\n\nA\n----------\n5\n\n")
    assert "----------" in entries[0].expected


def test_normalize_collapses_runs_of_spaces():
    assert normalize_line("A   B\tC  ") == "A B C"
    assert normalize_block(["x", "", "  ", ""]) == ["x"]
    assert normalize_block(["", "x"]) == ["", "x"]


def test_replay_passes_on_faithful_transcript():
    entries = parse_transcript(SAMPLE)
    report = replay(entries, "empty", "demo")
    assert isinstance(report, Report)
    assert report.passed
    assert all(r.ok for r in report.results)


def test_replay_fails_with_diff_on_corrupted_expected():
    entries = parse_transcript(SAMPLE)
    entries[2].expected[-2] = "6"
    report = replay(entries, "empty", "demo")
    assert not report.passed
    failing = [r for r in report.results if not r.ok]
    assert len(failing) == 1
    diff = "\n".join(failing[0].diff)
    assert "-6" in diff
    assert "+5" in diff


def test_unused_binding_is_harmless():
    entries = parse_transcript(
        "-- bind unused=1\nSQL> SELECT * FROM DUAL;\n\nDUMMY\n-----\nX\n\n")
    assert replay(entries, "empty", "one").passed


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    report = run_suite(name)
    details = "\n".join(
        line for r in report.results if not r.ok for line in r.diff)
    assert report.passed, details


def test_suites_pass_in_any_order():
    names = sorted(SUITES)
    rng = random.Random(7)
    for _ in range(3):
        rng.shuffle(names)
        assert all(run_suite(n).passed for n in names)


def test_replay_is_deterministic():
    name = "constraints"
    first = run_suite(name)
    second = run_suite(name)
    assert [(r.ok, r.diff) for r in first.results] == \
        [(r.ok, r.diff) for r in second.results]


def test_suite_files_and_fixtures_exist():
    for name, (transcript, fixture) in SUITES.items():
        assert suite_path(name).is_file()
        load_fixture(fixture)


def test_main_reports_all_pass(capsys):
    assert main(["--all"]) == 0
    out = capsys.readouterr().out
    assert "all suites passed" in out
    for name in SUITES:
        assert f"{name} " in out


def test_main_single_suite(capsys):
    assert main(["--suite", "joins"]) == 0
    out = capsys.readouterr().out
    assert "joins" in out
    assert "ddl" not in out


@pytest.mark.parametrize("name", sorted(SUITES))
def test_update_goldens_leaves_suite_bytes_unchanged(name, tmp_path,
                                                     monkeypatch):
    copy = tmp_path / suite_path(name).name
    copy.write_bytes(suite_path(name).read_bytes())
    monkeypatch.setattr(conformance, "suite_path", lambda _name: copy)
    update_goldens(name)
    assert copy.read_bytes() == suite_path(name).read_bytes()
