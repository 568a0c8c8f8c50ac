"""Plain-text snapshots of a database.

Format, line oriented:

    HANDYDB 1
    TABLE STUDENTS
    COL S_ROLL NUMBER(2) NOTNULL
    ...
    CONSTRAINT PK_S STUDENTS PK S_ROLL
    COUNTER 5546
    ROWS STUDENTS
    1<TAB>ROHI<TAB>...

Lines end with "\\n" only, and blank lines are skipped.  ROWS sections
come last: every line after a ROWS line, up to the next ROWS line, is a
row of its table.  Row cells are tab separated; NULL is \\N; backslash,
tab, newline and carriage return are escaped, and a lone backslash ends
no cell.  \\e reads as nothing: saves writes it only in front of a row
line that would otherwise be blank (the empty text of a one-column
table) or start with "ROWS ", so that every row it writes loads again.
Each column's codec (ColumnSchema.codec) writes and reads its cells:
dates as YYYY-MM-DD, numbers in plain positional notation.  A ROWS
section is written and read a column at a time.  saves writes a number
column as str's texts and a text column as its values, each checked
once over the whole column, and a date column as ISO texts; only a
number column where str writes an exponent, or a text column holding a
backslash, tab, newline or carriage return, is written cell by cell
through its codec.  A column whose cells hold no escape and pass its
codec's bulk check, as every column saves writes does, is read by C
builtins; any other is read cell by cell, to the same values and the
same first error in row order.  A CHECK body is its
predicate's SQL text; one whose literals hold a newline or a carriage
return is escaped as a cell is, behind a leading backslash, which no SQL
text starts with.  A PK or UNIQUE line lists its columns with commas,
and a NOTNULL line names its one column.  The NOTNULL/NULL field of a
COL line is derived from the constraint list when saving and, on
loading, must match what the constraints imply.  Loading rebuilds one
Database record, tables holding their rows, and re-validates every row
against its column types and all constraints, so a snapshot edited into
an inconsistent state is rejected rather than trusted; each key's index
is built in the pass that validates the key.  Each table goes
through catalog.define_table, as CREATE TABLE's do, and each CONSTRAINT
line through catalog.install_constraint, as ALTER TABLE ... ADD
CONSTRAINT's do, so a state DDL refuses is an error that names its
line and the ORA error DDL gives: a name in use (955, 2264), a repeated
column or key column (957), a second PK (2260), a CHECK the table
cannot hold (904, 934, 932, 1722), or a name DDL could not have
written, an unknown key column or a table without columns (904).
So are a NOTNULL line on a column already NOT NULL (MODIFY adds none to
such a column) and a COUNTER other than the digits saves writes, with
no sign and no leading zero.
"""

from __future__ import annotations

import contextlib
import os
import re
from itertools import repeat

from .catalog import (
    ColumnSchema, ConstraintDef, Database, Position, Table, define_table,
    install_constraint,
)
from .constraints import not_null_sources, validate_existing
from .errors import OraError
from .parser import parse_standalone_predicate
from .render import render_predicate
from .values import (
    NumberType, SqlValue, Varchar2Type, escape_text, parse_type_display,
    type_display,
)

_MAGIC = "HANDYDB 1"
_NULL = "\\N"


class SnapshotError(Exception):
    pass


# Undoes values.escape_text, and reads \e as nothing.  A lone
# backslash at the end of a cell is a bad escape too.
_UNESCAPE = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r", "e": ""}
# Leads a row line that would otherwise read as blank or as a header.
_LEAD = "\\e"
_COUNTER = re.compile("0|[1-9][0-9]*")
_ESCAPE_SEQ = re.compile(r"\\(.?)", re.DOTALL)


def _unescape_one(match: re.Match[str]) -> str:
    try:
        return _UNESCAPE[match.group(1)]
    except KeyError:
        raise SnapshotError(f"bad escape \\{match.group(1)}") from None


def _unescape_cell(text: str) -> str:
    return _ESCAPE_SEQ.sub(_unescape_one, text)


def _encode_check_body(body: str) -> str:
    # Bodies without line breaks are written as they are, so every file
    # an earlier version wrote, backslashes in literals included, keeps
    # its meaning.
    if "\n" in body or "\r" in body:
        return "\\" + escape_text(body)
    return body


def _decode_check_body(detail: str) -> str:
    if detail.startswith("\\"):
        return _unescape_cell(detail[1:])
    return detail


def saves(db: Database) -> str:
    lines = [_MAGIC]
    for name, table in db.tables.items():
        lines.append(f"TABLE {name}")
        not_null = not_null_sources(db, name)
        for col in table.columns:
            null = "NOTNULL" if col.name in not_null else "NULL"
            lines.append(f"COL {col.name} {type_display(col.type)} {null}")
    for con in db.constraints:
        if con.kind == "CHECK":
            detail = _encode_check_body(render_predicate(con.predicate))
        else:
            detail = ",".join(con.columns)
        lines.append(f"CONSTRAINT {con.name} {con.table} {con.kind} {detail}")
    lines.append(f"COUNTER {db.sys_name_counter}")
    for name, table in db.tables.items():
        lines.append(f"ROWS {name}")
        cells = list(map(_encode_column, table.columns, zip(*table.rows)))
        if cells and isinstance(table.columns[0].type, Varchar2Type):
            # Only a text cell can be empty or start like a header.
            one_column = len(cells) == 1
            cells[0] = [_LEAD + cell if (not cell and one_column)
                        or cell.startswith("ROWS ") else cell
                        for cell in cells[0]]
        lines.extend(map("\t".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def save(db: Database, path: str) -> None:
    """Write a snapshot; a failed or interrupted save keeps the old file.

    The text goes to a temporary file beside the target, reaches the
    disk, and only then replaces the target in one rename.
    """
    text = saves(db)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="\n") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def loads(text: str) -> Database:
    head, rows_follow, sections = text.partition("\nROWS ")
    lines = head.split("\n")
    if lines[0] != _MAGIC:
        raise SnapshotError("not a database snapshot")
    db = Database()
    # A TABLE line's name, line number and columns, defined at the
    # first line after it that is not a COL line.
    pending: tuple[str, int, list[tuple[ColumnSchema, Position]]] | None = None
    flagged: dict[str, set[str]] = {}  # table -> columns marked NOTNULL
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        if pending is not None and not line.startswith("COL "):
            _define(db, *pending)
            pending = None
        if line.startswith("TABLE "):
            pending = (line[6:], lineno, [])
            flagged[line[6:]] = set()
        elif line.startswith("COL "):
            if pending is None:
                raise SnapshotError(f"line {lineno}: COL outside TABLE")
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in ("NOTNULL", "NULL"):
                raise SnapshotError(f"line {lineno}: bad COL line")
            _, cname, tdisplay, null = parts
            try:
                ctype = parse_type_display(tdisplay)
            except ValueError:
                raise SnapshotError(
                    f"line {lineno}: bad type {tdisplay}") from None
            pending[2].append((ColumnSchema(cname, ctype), (lineno, 1)))
            if null == "NOTNULL":
                flagged[pending[0]].add(cname)
        elif line.startswith("CONSTRAINT "):
            _install(db, lineno, line)
        elif line.startswith("COUNTER "):
            # Only the digits saves writes: int() would also take a
            # sign, "_", spaces or digits outside ASCII.
            if _COUNTER.fullmatch(line, 8) is None:
                raise SnapshotError(f"line {lineno}: bad counter")
            db.sys_name_counter = int(line[8:])
        else:
            raise SnapshotError(f"line {lineno}: unexpected line {line!r}")
    if pending is not None:
        _define(db, *pending)

    # Every line after the first ROWS line is a row or starts a section.
    lineno = len(lines) + 1
    for section in sections.split("\nROWS ") if rows_follow else ():
        name, _, body = section.partition("\n")
        if name not in db.tables:
            raise SnapshotError(f"line {lineno}: rows for unknown {name}")
        table = db.tables[name]
        row_lines = list(filter(None, body.split("\n")))
        table.rows += _decode_rows(table, row_lines)
        lineno += section.count("\n") + 1

    _validate(db, flagged)
    return db


def _decode_rows(table: Table, lines: list[str]) -> list[list[SqlValue]]:
    """A ROWS section's non-blank lines as rows, read a column at a time.

    The first bad cell in row order is the error reported, and a row of
    the wrong width only when the rows before it read.
    """
    if not lines:
        return []
    width = len(table.columns)
    if set(map(str.count, lines, repeat("\t"))) != {width - 1}:
        bad = next(i for i, line in enumerate(lines)
                   if line.count("\t") != width - 1)
        _decode_rows(table, lines[:bad])
        found = lines[bad].count("\t") + 1
        raise SnapshotError(f"row width {found} != {width} columns")
    flat = "\t".join(lines).split("\t")
    columns = []
    failures = []  # (row, column, error) of each column's first bad cell
    for i, column in enumerate(table.columns):
        values, error = _decode_column(column, flat[i::width])
        if error is not None:
            failures.append((len(values), i, error))
        columns.append(values)
    if failures:
        raise min(failures, key=lambda failure: failure[:2])[2]
    return list(map(list, zip(*columns)))


def _decode_column(column: ColumnSchema, cells: list[str]
                   ) -> tuple[list[SqlValue], SnapshotError | None]:
    """A column's values and any bad cell's error, as _decode_cells.

    Unless a cell other than a NULL holds a backslash, the codec reads
    the column in bulk; a column holding an escape or a cell its bulk
    check turns away is read cell by cell instead.
    """
    nulls = cells.count(_NULL)
    if "".join(cells).count("\\") == nulls:
        texts = [cell for cell in cells if cell != _NULL] if nulls else cells
        values = column.codec.decode_column(texts) if texts else []
        if values is not None:
            if nulls:
                # No text is \N, so get gives each NULL cell None.
                values = list(map(dict(zip(texts, values)).get, cells))
            return values, None
    return _decode_cells(column, cells)


def _encode_column(column: ColumnSchema, values: tuple[SqlValue, ...]
                   ) -> list[str]:
    """A column's cells, as its codec's encode writes each, NULL as \\N.

    A number column is str's texts unless one holds an exponent, a text
    column its values as they are unless one holds a character that
    escape_text escapes, and a date column its ISO texts; a column that
    fails its check is written cell by cell through the codec instead.
    """
    if isinstance(column.type, NumberType):
        # An "is None" per cell: "None in values" would make each
        # Decimal compare itself with None.
        cells = [_NULL if v is None else str(v) for v in values]
        if "E" not in "".join(cells):
            return cells
    elif isinstance(column.type, Varchar2Type):
        # Only the values: a NULL's \N holds a backslash.
        texts = "".join(filter(None, values))
        if not ("\\" in texts or "\t" in texts or "\n" in texts
                or "\r" in texts):
            return [_NULL if v is None else v for v in values]
    else:
        return [_NULL if v is None else v.isoformat() for v in values]
    encode = column.codec.encode
    return [_NULL if v is None else encode(v) for v in values]


def _decode_cells(column: ColumnSchema, cells: list[str]
                  ) -> tuple[list[SqlValue], SnapshotError | None]:
    """A column's cells read one at a time, and the first one's error.

    The values stop before a cell that does not read, and its error
    comes with them; the error is None when every cell reads.
    """
    decode = column.codec.decode
    values: list[SqlValue] = []
    for cell in cells:
        if cell == _NULL:
            values.append(None)
            continue
        try:
            text = _unescape_cell(cell)
        except SnapshotError as err:
            return values, err
        try:
            values.append(decode(text))
        except (OraError, ValueError, ArithmeticError) as err:
            return values, SnapshotError(
                f"bad value {text!r} for column {column.name}: {err}")
    return values, None


def _define(db: Database, name: str, lineno: int,
            columns: list[tuple[ColumnSchema, Position]]) -> None:
    """A TABLE line's table, checked as CREATE TABLE checks it."""
    try:
        define_table(db, name, columns, (lineno, 1))
    except OraError as err:
        raise SnapshotError(f"line {err.line}: table {name}: {err}") from None


def _install(db: Database, lineno: int, line: str) -> None:
    """A CONSTRAINT line's constraint, added as ALTER TABLE adds one.

    Rows come last, so its table holds none yet to violate it; they are
    validated, and the keys indexed, once all are read.  MODIFY adds no
    NOTNULL to a column that is NOT NULL already, so no NOTNULL line may
    either.
    """
    parts = line.split(" ", 4)
    if len(parts) != 5:
        raise SnapshotError(f"line {lineno}: bad CONSTRAINT line")
    _, name, table, kind, detail = parts
    if table not in db.tables:
        raise SnapshotError(
            f"line {lineno}: constraint on unknown table {table}")
    columns, predicate = (detail,), None
    if kind in ("PK", "UNIQUE"):
        columns = tuple(detail.split(","))
    elif kind == "CHECK":
        columns = ()
        try:
            predicate = parse_standalone_predicate(_decode_check_body(detail))
        except (SnapshotError, OraError) as err:
            raise SnapshotError(f"line {lineno}: bad check predicate "
                                f"{detail!r}: {err}") from None
    elif kind != "NOTNULL":
        raise SnapshotError(f"line {lineno}: bad kind {kind}")
    elif detail in not_null_sources(db, table):
        raise SnapshotError(f"line {lineno}: table {table}: column {detail} "
                            "is NOT NULL already")
    try:
        install_constraint(db, ConstraintDef(name, table, kind, columns,
                                             predicate), (lineno, 1))
    except OraError as err:
        raise SnapshotError(
            f"line {lineno}: table {table}: {err}") from None


def load(path: str) -> Database:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise SnapshotError(str(err)) from None
    return loads(text)


def _validate(db: Database, flagged: dict[str, set[str]]) -> None:
    for con in db.constraints:
        violation = validate_existing(db, con.table, con,
                                      db.tables[con.table].rows)
        if violation is not None:
            raise SnapshotError(
                f"rows violate constraint {con.name} ({violation.reason})")
    # The COL lines' NOT NULL flags must say what the constraints imply.
    for name, marked in flagged.items():
        enforced = set(not_null_sources(db, name))
        if enforced != marked:
            raise SnapshotError(
                f"table {name}: NOT NULL flags {sorted(marked)} do not "
                f"match constraints {sorted(enforced)}")
