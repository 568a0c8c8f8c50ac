"""Interactive sqlplus-style shell and script runner.

The prompt is "SQL> "; continuation lines are numbered "  2  ", "  3  "
and numbering restarts for every statement.  A statement ends with a
line whose last character is ";" or with a lone "/" line.  When input
is not a terminal every consumed line is echoed after its prompt, so a
piped session writes the exact transcript a script run would.  A
result set is drawn column by column: a column holds one kind of value,
so its first non-NULL value picks the display of all (plain positional
numbers, right-aligned; DD-MON-YY dates; text as it is), and each
column is padded to its widest cell.  A statement's &NAME markers take
values typed at a prompt or bound by name, matched by lexer.fold.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TextIO

from . import persistence
from .errors import OraError, render_error
from .executor import Database, Feedback, Listing, ResultSet, execute
from .lexer import WORD, fold
from .parser import parse_text
from .values import value_codec

PROMPT = "SQL> "

_SUBST = re.compile(f"&({WORD.pattern})")


def continuation_prompt(n: int) -> str:
    return f"{n:3d}  "


class ShellEOF(Exception):
    """Input ended while a substitution prompt was waiting."""


class SubstitutionError(Exception):
    """Script mode referenced a variable with no binding left."""

    def __init__(self, name: str, lines: list[str]):
        super().__init__(name)
        self.name = name
        self.lines = lines


@dataclass
class Session:
    db: Database
    out: TextIO = field(default_factory=lambda: sys.stdout)
    instream: TextIO = field(default_factory=lambda: sys.stdin)
    echo_input: bool = False
    quiet: bool = False
    error_count: int = 0

    def read_line(self, prompt: str) -> str | None:
        """Show prompt and read one input line; None at end of input."""
        if not self.quiet:
            self.out.write(prompt)
            self.out.flush()
        line = self.instream.readline()
        if line == "":
            if not self.quiet:
                self.out.write("\n")
            return None
        line = line.rstrip("\r\n")
        if self.echo_input and not self.quiet:
            self.out.write(line + "\n")
        return line


def strip_terminator(line: str) -> str:
    content = line.rstrip()
    assert content.endswith(";")
    return content[:-1].rstrip()


def parse_bind(line: str) -> tuple[str, str] | None:
    """The (name, value) of a "-- bind name=value" line, else None."""
    body = line.strip()[2:].strip()
    if not body.startswith("bind "):
        return None
    name, eq, value = body[4:].strip().partition("=")
    return (name.strip(), value) if eq else None


def read_statement(read_line: Callable[[str], str | None]) -> str | None:
    """Next statement text, or None when the session should end.

    read_line(prompt) gives the next input line typed after prompt, or
    None at end of input; the prompt is PROMPT at statement start and
    continuation_prompt(n) for the statement's n-th line.
    """
    buffered: list[str] = []
    while True:
        prompt = PROMPT if not buffered else continuation_prompt(
            len(buffered) + 1)
        line = read_line(prompt)
        if line is None:
            return None
        stripped = line.strip()
        if not buffered:
            if not stripped:
                continue
            if stripped.rstrip(";").strip().lower() in ("exit", "quit"):
                return None
        if stripped == "/":
            if buffered:
                return "\n".join(buffered)
            continue
        if line.rstrip().endswith(";"):
            buffered.append(strip_terminator(line))
            return "\n".join(buffered)
        buffered.append(line)


def substitute_variables(
        session: Session, text: str,
        bindings: list[tuple[str, str]] | None = None,
) -> tuple[str, list[str]]:
    """Resolve &NAME markers left to right.

    A marker's name is a word as the lexer reads it.  Interactive mode
    (bindings None) prompts on the session streams as it goes and
    returns no lines; script mode consumes the first unused binding
    whose name has the marker's fold and returns the prompt lines it
    would have shown, so both modes emit identical transcripts.  Every
    occurrence is resolved afresh.
    """
    if "&" not in text:
        return text, []
    lines: list[str] = []
    remaining = list(bindings) if bindings is not None else None

    def fill(match: re.Match[str]) -> str:
        name = match.group(1)
        if not (name[0].isalpha() or name[0] == "_"):
            return match[0]  # "&½" is the lexer's to refuse
        display = name.lower()
        if remaining is None:
            value = session.read_line(f"Enter value for {display}: ")
            if value is None:
                raise ShellEOF()
        else:
            key = name.upper() if name.isascii() else fold(name)
            for i, (bname, value) in enumerate(remaining):
                if (bname.upper() if bname.isascii() else fold(bname)) == key:
                    del remaining[i]
                    break
            else:
                raise SubstitutionError(name, lines)
            lines.append(f"Enter value for {display}: {value}")
        return value

    return _SUBST.sub(fill, text), lines


def render_result_set(rs: ResultSet) -> list[str]:
    if not rs.rows:
        return ["no rows selected"]
    # Column by column: a result column holds one kind of value, so its
    # first non-NULL value gives the display of all.
    widths: list[int] = []
    columns: list[list[str]] = []
    for header, values in zip(rs.headers, zip(*rs.rows)):
        display, pad = str, str.ljust  # an all-NULL column shows only ""
        for value in values:
            if value is not None:
                kind = value_codec(value)
                display = kind.display
                if kind.right_aligned:
                    pad = str.rjust
                break
        texts = ["" if v is None else display(v) for v in values]
        width = max(len(header), *map(len, texts))
        widths.append(width)
        columns.append([pad(text, width) for text in texts])
    lines = [" ".join(h.ljust(w)
                      for h, w in zip(rs.headers, widths)).rstrip()]
    lines.append(" ".join("-" * w for w in widths))
    lines.extend(" ".join(cells).rstrip() for cells in zip(*columns))
    lines.append("")
    return lines


def _outcome_lines(outcome) -> list[str]:
    if isinstance(outcome, Feedback):
        return ["", outcome.message, ""]
    if isinstance(outcome, Listing):
        return [*outcome.lines, ""]
    assert isinstance(outcome, ResultSet)
    return ["", *render_result_set(outcome)]


def execute_statement(session: Session, text: str,
                      bindings: list[tuple[str, str]] | None = None,
                      ) -> list[str]:
    """Run one statement; the returned lines are its output block."""
    try:
        resolved, subst_lines = substitute_variables(session, text, bindings)
    except SubstitutionError as err:
        session.error_count += 1
        return [*err.lines,
                f'no binding for substitution variable "{err.name}"', ""]
    try:
        stmt = parse_text(resolved)
        outcome = execute(session.db, stmt)
    except OraError as err:
        err.statement_text = resolved
        session.error_count += 1
        return [*subst_lines, *render_error(err), ""]
    return [*subst_lines, *_outcome_lines(outcome)]


def _emit(session: Session, lines: list[str]) -> None:
    for line in lines:
        session.out.write(line + "\n")


def repl(session: Session) -> None:
    while (text := read_statement(session.read_line)) is not None:
        try:
            block = execute_statement(session, text)
        except ShellEOF:
            return
        _emit(session, block)


def run_script(session: Session, path: str) -> None:
    """Execute a statement file, writing the full transcript.

    The transcript is the one a piped interactive session typing the
    same lines would produce, except that lines starting with "--" at
    statement start are not echoed; "-- bind name=value" lines among
    them supply substitution values for the next statement.  The file
    is read once, its line ends as open() reads them, and cut into
    lines at each "\n" (str.splitlines would also cut at a form feed or
    another separator inside a literal).  read_statement splits every
    statement before the first one runs, since no statement reads input
    in script mode, and each statement's echoed input and output block
    go out in one write.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    if not lines[-1]:
        lines.pop()  # what follows the last line break is no line
    lines.reverse()  # popped from the end, the first line last
    echoed: list[str] = []  # the prompts and lines shown since a statement
    binds: list[tuple[str, str]] = []
    statements = []

    def read_line(prompt: str) -> str | None:
        if prompt == PROMPT:
            while lines and lines[-1].lstrip().startswith("--"):
                bind = parse_bind(lines.pop())
                if bind is not None:
                    binds.append(bind)
        line = lines.pop() if lines else None
        if not session.quiet:
            echoed.append(prompt if line is None else prompt + line)
        return line

    while (text := read_statement(read_line)) is not None:
        statements.append((echoed, text, binds))
        echoed, binds = [], []
    for shown, text, bindings in statements:
        block = execute_statement(session, text, bindings)
        session.out.write("\n".join([*shown, *block, ""]))
    if echoed:
        session.out.write("\n".join([*echoed, ""]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="handy-sql",
        description="Interactive shell for a small Oracle-flavored "
                    "SQL engine.")
    parser.add_argument("--db", metavar="FILE",
                        help="load this snapshot on start and save it "
                             "back on exit")
    parser.add_argument("--script", metavar="FILE",
                        help="run statements from FILE instead of the REPL")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 if any statement errored")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress prompts and input echo")
    args = parser.parse_args(argv)

    if args.db and os.path.exists(args.db):
        try:
            db = persistence.load(args.db)
        except persistence.SnapshotError as err:
            print(f"handy-sql: {args.db}: {err}", file=sys.stderr)
            return 2
    else:
        db = Database()

    session = Session(db, out=sys.stdout, instream=sys.stdin,
                      echo_input=not sys.stdin.isatty(), quiet=args.quiet)
    if args.script:
        try:
            run_script(session, args.script)
        except (OSError, UnicodeDecodeError) as err:
            print(f"handy-sql: {args.script}: {err}", file=sys.stderr)
            return 2
    else:
        repl(session)

    if args.db:
        try:
            persistence.save(db, args.db)
        except OSError as err:
            print(f"handy-sql: {err}", file=sys.stderr)
            return 2
    if args.strict and session.error_count:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
