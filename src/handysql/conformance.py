"""Golden-transcript harness.

A transcript file alternates shell input with expected output:

    -- bind s_roll=3
    SQL> INSERT INTO STUDENTS VALUES
      2  (&S_ROLL, 'X', 'Y', 5, '01-JAN-90', 60);
    Enter value for s_roll: 3

    1 row created.

Input lines carry the "SQL> " / "  N  " prefixes the shell prints;
everything between one statement's input and the next "SQL> " line is
that statement's expected output.  "-- bind name=value" lines supply
substitution values for the next statement; other "--" lines are
comments.  Replay runs the entries in order in one session against a
named fixture and compares blocks after whitespace normalization
(runs of blanks collapse, trailing blanks drop), since column padding
is presentation, not behavior.
"""

from __future__ import annotations

import argparse
import difflib
import importlib.resources
import io
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import persistence
from .executor import Database
from .shell import (PROMPT, Session, execute_statement, parse_bind,
                    read_statement)

SUITES: dict[str, tuple[str, str]] = {
    "ddl": ("ddl.transcript", "empty"),
    "dml": ("dml.transcript", "classroom"),
    "constraints": ("constraints.transcript", "classroom_full"),
    "aggregates": ("aggregates.transcript", "classroom_full"),
    "joins": ("joins.transcript", "classroom_full"),
}

class TranscriptFormatError(Exception):
    pass


@dataclass
class TranscriptEntry:
    statement: str
    bindings: list[tuple[str, str]] = field(default_factory=list)
    expected: list[str] = field(default_factory=list)
    input_lines: list[str] = field(default_factory=list)


@dataclass
class EntryResult:
    statement: str
    ok: bool
    diff: list[str] = field(default_factory=list)


@dataclass
class Report:
    suite: str
    results: list[EntryResult]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.results)


def normalize_line(line: str) -> str:
    return re.sub(r"[ \t]+", " ", line).rstrip()


def normalize_block(lines: list[str]) -> list[str]:
    out = [normalize_line(line) for line in lines]
    while out and not out[-1]:
        out.pop()
    return out


def parse_transcript(text: str) -> list[TranscriptEntry]:
    """Split a transcript into entries by the shell's own reading rules.

    A line is input only when it starts with the exact prompt the shell
    would show before it; at statement start other lines are directives
    or the previous entry's expected output.
    """
    entries: list[TranscriptEntry] = []
    pending = TranscriptEntry("")
    lines = enumerate(text.splitlines(), start=1)

    def read_line(prompt: str) -> str | None:
        for lineno, line in lines:
            if line.startswith(prompt):
                pending.input_lines.append(line)
                return line[len(prompt):]
            if prompt != PROMPT:
                raise TranscriptFormatError(
                    f"line {lineno}: expected continuation prompt "
                    f"{prompt!r}, got {line!r}")
            if _is_directive(line.strip()):
                bind = parse_bind(line)
                if bind is not None:
                    pending.bindings.append(bind)
            elif entries:
                entries[-1].expected.append(line)
            elif line.strip():
                raise TranscriptFormatError(
                    f"line {lineno}: output before any statement")
        if prompt != PROMPT:
            raise TranscriptFormatError("statement not terminated")
        return None

    while (statement := read_statement(read_line)) is not None:
        pending.statement = statement
        entries.append(pending)
        pending = TranscriptEntry("")
    rest = next(lines, None)
    if rest is not None:
        raise TranscriptFormatError(f"line {rest[0]}: input after exit")
    return entries


def _is_directive(stripped: str) -> bool:
    # "--" must be followed by a space (or end the line) so that dash
    # rules in expected result grids are not mistaken for comments.
    return stripped == "--" or stripped.startswith("-- ")


def _fixture_dir():
    return importlib.resources.files("handysql") / "fixtures"


def load_fixture(name: str) -> Database:
    if name == "empty":
        return Database()
    text = (_fixture_dir() / f"{name}.handydb").read_text()
    return persistence.loads(text)


def _run_entries(entries: list[TranscriptEntry],
                 fixture: str) -> list[list[str]]:
    db = load_fixture(fixture)
    session = Session(db, out=io.StringIO(), instream=io.StringIO(),
                      quiet=True)
    return [execute_statement(session, e.statement, list(e.bindings))
            for e in entries]


def replay(entries: list[TranscriptEntry], fixture: str,
           suite: str = "") -> Report:
    actual_blocks = _run_entries(entries, fixture)
    results = []
    for entry, actual in zip(entries, actual_blocks):
        expected = normalize_block(entry.expected)
        got = normalize_block(actual)
        if expected == got:
            results.append(EntryResult(entry.statement, True))
        else:
            diff = list(difflib.unified_diff(
                expected, got, "expected", "actual", lineterm=""))
            results.append(EntryResult(entry.statement, False, diff))
    return Report(suite, results)


def suite_path(name: str) -> Path:
    fname = SUITES[name][0]
    return Path(str(_fixture_dir() / "suites" / fname))


def run_suite(name: str) -> Report:
    fname, fixture = SUITES[name]
    entries = parse_transcript(suite_path(name).read_text())
    return replay(entries, fixture, name)


def update_goldens(name: str) -> None:
    """Rewrite a suite file with the engine's actual output blocks."""
    fname, fixture = SUITES[name]
    entries = parse_transcript(suite_path(name).read_text())
    actual_blocks = _run_entries(entries, fixture)
    out: list[str] = []
    for entry, block in zip(entries, actual_blocks):
        for bname, bvalue in entry.bindings:
            out.append(f"-- bind {bname}={bvalue}")
        out.extend(entry.input_lines)
        out.extend(block)
    suite_path(name).write_text("\n".join(out) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="handy-sql-conform",
        description="Replay the bundled golden transcripts.")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--suite", choices=sorted(SUITES),
                       help="run one suite (default: all)")
    group.add_argument("--all", action="store_true",
                       help="run every suite")
    parser.add_argument("--update-goldens", action="store_true",
                        help="rewrite suite files with actual output")
    args = parser.parse_args(argv)

    names = [args.suite] if args.suite else sorted(SUITES)
    if args.update_goldens:
        for name in names:
            update_goldens(name)
            print(f"{name}: updated")
        return 0

    failed = 0
    for name in names:
        report = run_suite(name)
        for idx, result in enumerate(report.results, start=1):
            status = "ok" if result.ok else "FAIL"
            first = result.statement.splitlines()[0]
            print(f"{name} [{idx}] {status}: {first}")
            if not result.ok:
                failed += 1
                for line in result.diff:
                    print(f"    {line}")
    if failed:
        print(f"{failed} entr{'y' if failed == 1 else 'ies'} failed")
        return 1
    print("all suites passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
