"""The database: tables with their rows, constraints and DDL.

A Database is one record of all state: its tables in creation order,
each holding its columns and its rows in insertion order; a flat
constraint list (also creation order, which is what USER_CONSTRAINTS
reports); and the counter behind generated SYS_C names.  The constraint
list is the only record of nullability: a column is NOT NULL when a
NOTNULL or PK constraint lists it.  BUILTINS declares the read-only
relations DUAL and USER_CONSTRAINTS, each as a table, whose own row
list stays empty, and a function from the database to its rows.  A name
is a word that is its own lexer.fold and no keyword (is_name).

Each PRIMARY KEY and UNIQUE constraint holds an index of its table's
stored keys, as Oracle enforces these constraints with a unique index.
constraints.validate_existing builds it in the pass that checks the key,
when install_constraint adds the key and when a snapshot's rows are
loaded; store_row adds each inserted row's key once the row has passed
every constraint.  The subset has no UPDATE or DELETE, and MODIFY only
widens a value to an equal one, which hashes equal, so the index only
grows.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

from . import constraints as checks
from .errors import OraError, violation_error
from .evaluate import Test, compile_predicate, kind_mismatch, predicate_nodes
from .lexer import KEYWORDS, WORD, TokenKind, fold
from .nodes import (
    AggregateCall, AlterAddConstraint, AlterModify, CheckBody, ColumnRef,
    CreateTable, FallbackBody, Predicate, PrimaryKeyBody,
)
from .values import (
    Codec, DateType, NumberType, SqlType, SqlValue, Varchar2Type, codec,
    normalize_type, type_display,
)

SYS_NAME_SEED = 5545

_DESC_NAME_WIDTH = 30
_DESC_NULL_WIDTH = 8
_DESC_TYPE_WIDTH = 20


@dataclass(frozen=True, slots=True)
class ColumnSchema:
    """A column's name and type, and the type's codec, found once."""

    name: str
    type: SqlType
    codec: Codec = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "codec", codec(self.type))


@dataclass
class Table:
    name: str
    columns: list[ColumnSchema]
    rows: list[list[SqlValue]] = field(default_factory=list)
    # The table's PRIMARY KEY and UNIQUE constraints, in creation order:
    # the same ConstraintDefs as in Database.constraints, appended with
    # them in one place, install_constraint.  Keys are never dropped or
    # changed, so the two stay in step.  Each holds its index of these
    # rows.
    keys: list[ConstraintDef] = field(default_factory=list)

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def index_of(self, name: str) -> int | None:
        """Position of the column of that name, or None if none has it."""
        for i, col in enumerate(self.columns):
            if col.name == name:
                return i
        return None


@dataclass
class ConstraintDef:
    name: str
    table: str
    kind: str  # PK | UNIQUE | CHECK | NOTNULL
    columns: tuple[str, ...] = ()  # a NOTNULL lists its one column
    predicate: Predicate | None = None
    # A CHECK's predicate compiled over the table's column positions;
    # made by check_constraint.
    test: Test | None = field(default=None, compare=False, repr=False)
    # A PK or UNIQUE key's getter of a row's key, which is the value of
    # a one-column key and the tuple of a wider one's values, and the
    # ordinal of the row holding each stored key without a NULL; made by
    # constraints.validate_existing and extended by store_row.
    key_of: Callable[[list[SqlValue]], object] | None = field(
        default=None, compare=False, repr=False)
    index: dict[object, int] | None = field(
        default=None, compare=False, repr=False)


def check_constraint(name: str, table: Table,
                     predicate: Predicate) -> ConstraintDef:
    """A CHECK constraint on a table, its predicate compiled once.

    The predicate may name only the table's own columns (904), no
    aggregate (934), and no comparison of two kinds (1722/932), which
    would fail on every row.  Columns never move or change kind, since
    the subset can neither add nor drop one, so the test stays valid.
    """
    aggs = predicate_nodes(predicate, AggregateCall)
    if aggs:
        raise OraError(934, aggs[0].line, aggs[0].column)
    slot_of: dict[ColumnRef, int] = {}
    for ref in predicate_nodes(predicate, ColumnRef):
        index = table.index_of(ref.name)
        if ((ref.qualifier is not None and ref.qualifier != table.name)
                or index is None):
            raise OraError(904, ref.line, ref.column)
        slot_of[ref] = index

    def type_of(ref: ColumnRef) -> SqlType:
        return table.columns[slot_of[ref]].type

    error = kind_mismatch(predicate, type_of)
    if error is not None:
        raise error
    test, _ = compile_predicate(predicate, slot_of, type_of)
    return ConstraintDef(name, table.name, "CHECK", predicate=predicate,
                         test=test)


@dataclass
class Database:
    tables: dict[str, Table] = field(default_factory=dict)
    constraints: list[ConstraintDef] = field(default_factory=list)
    sys_name_counter: int = SYS_NAME_SEED


_TYPE_CODES = {"PK": "P", "UNIQUE": "U", "CHECK": "C", "NOTNULL": "C"}


def user_constraints_rows(db: Database) -> list[list[SqlValue]]:
    """USER_CONSTRAINTS contents, one row per constraint in creation order.

    NOTNULL constraints report type 'C', same as CHECK, matching what
    Oracle shows for its generated not-null checks.
    """
    return [[c.name, c.table, _TYPE_CODES[c.kind]] for c in db.constraints]


BUILTINS: dict[str, tuple[Table,
                          Callable[[Database], list[list[SqlValue]]]]] = {
    "DUAL": (Table("DUAL", [ColumnSchema("DUMMY", Varchar2Type(1))]),
             lambda db: [["X"]]),
    "USER_CONSTRAINTS": (Table("USER_CONSTRAINTS", [
        ColumnSchema("CONSTRAINT_NAME", Varchar2Type(30)),
        ColumnSchema("TABLE_NAME", Varchar2Type(30)),
        ColumnSchema("CONSTRAINT_TYPE", Varchar2Type(1)),
    ]), user_constraints_rows),
}


Position = tuple[int, int]  # (line, column)

def is_name(name: str) -> bool:
    """Whether DDL could write name: one word, its own fold, no keyword."""
    if name.isupper() and name.isascii() and name.isidentifier():
        return name not in KEYWORDS  # most names, in three C calls
    return (WORD.fullmatch(name) is not None
            and (name[0].isalpha() or name[0] == "_")
            and fold(name) == name and name not in KEYWORDS)


def define_table(db: Database, name: str,
                 columns: Iterable[tuple[ColumnSchema, Position]],
                 at: Position) -> None:
    """Add a new, empty table to db: CREATE TABLE and snapshots alike.

    A name that a stored table or a built-in already has is 955 at
    `at`, and a column name that an earlier column has is 957 at its
    own position.  A table or column name that is_name refuses, and a
    table without columns, are 904, which only a snapshot can reach
    past the parser.
    columns is read one by one after the name passes; nothing is added
    unless every column does.
    """
    if not is_name(name):
        raise OraError(904, *at)
    if name in db.tables or name in BUILTINS:
        raise OraError(955, *at)
    table = Table(name, [])
    for col, pos in columns:
        if not is_name(col.name):
            raise OraError(904, *pos)
        if table.index_of(col.name) is not None:
            raise OraError(957, *pos)
        table.columns.append(col)
    if not table.columns:
        raise OraError(904, *at)
    db.tables[name] = table


def create_table(db: Database, stmt: CreateTable) -> str:
    def columns() -> Iterator[tuple[ColumnSchema, Position]]:
        for clause in stmt.columns:
            spec = clause.type_spec
            sql_type = normalize_type(spec.keyword, spec.args,
                                      spec.line, spec.column)
            yield ColumnSchema(clause.name, sql_type), (clause.line,
                                                        clause.column)

    define_table(db, stmt.table, columns(), (stmt.line, stmt.column))
    return "Table created."


def describe(db: Database, name: str,
             line: int = 1, column: int = 1) -> list[str]:
    """The fixed-width DESC listing: Name, Null?, Type."""
    if name in db.tables:
        table = db.tables[name]
    elif name in BUILTINS:
        table = BUILTINS[name][0]
    else:
        raise OraError(4043, line, column, name=name)
    not_null = checks.not_null_sources(db, name)
    header = (f"{'Name':<{_DESC_NAME_WIDTH}} "
              f"{'Null?':<{_DESC_NULL_WIDTH}} Type")
    rule = " ".join("-" * w for w in
                    (_DESC_NAME_WIDTH, _DESC_NULL_WIDTH, _DESC_TYPE_WIDTH))
    lines = [header.rstrip(), rule]
    for col in table.columns:
        null_mark = "NOT NULL" if col.name in not_null else ""
        lines.append((f"{col.name:<{_DESC_NAME_WIDTH}} "
                      f"{null_mark:<{_DESC_NULL_WIDTH}} "
                      f"{type_display(col.type)}").rstrip())
    return lines


def next_sys_name(db: Database) -> str:
    """Next SYS_Cnnnnnn name, skipping any the user already claimed."""
    taken = {c.name for c in db.constraints}
    while True:
        name = f"SYS_C{db.sys_name_counter:06d}"
        db.sys_name_counter += 1
        if name not in taken:
            return name


def _stored_table(db: Database, stmt) -> Table:
    table = db.tables.get(stmt.table)
    if table is None:
        raise OraError(942, *stmt.table_pos)
    return table


def store_row(table: Table, row: list[SqlValue]) -> None:
    """Append a row that has passed every constraint, and index its keys.

    A key holding a NULL is left out of its index.
    """
    ordinal = len(table.rows)
    table.rows.append(row)
    for key in table.keys:
        held = key.key_of(row)
        if held is not None and (len(key.columns) == 1 or None not in held):
            key.index[held] = ordinal


def install_constraint(db: Database, definition: ConstraintDef,
                       at: Position) -> checks.Violation | None:
    """Add a constraint to its table: ALTER TABLE, MODIFY and snapshots.

    In this order, at `at`: a name DDL could not have written is 904, a
    name in use 2264, a second PRIMARY KEY 2260, and a key or NOTNULL
    column the table lacks (904) or that a key lists twice (957); then a
    CHECK's predicate is compiled (check_constraint).  Last the table's
    rows are validated: their first violation is returned and nothing is
    added.  Otherwise the constraint joins db.constraints and, a key,
    its table's keys, with its index; nothing else appends to either.
    """
    if not is_name(definition.name):
        raise OraError(904, *at)
    if any(c.name == definition.name for c in db.constraints):
        raise OraError(2264, *at)
    if definition.kind == "PK" and any(
            c.kind == "PK" and c.table == definition.table
            for c in db.constraints):
        raise OraError(2260, *at)
    table = db.tables[definition.table]
    for i, col in enumerate(definition.columns):
        if table.index_of(col) is None:
            raise OraError(904, *at)
        if col in definition.columns[:i]:
            raise OraError(957, *at)
    if definition.kind == "CHECK":
        definition = check_constraint(definition.name, table,
                                      definition.predicate)
    violation = checks.validate_existing(db, definition.table, definition,
                                         table.rows)
    if violation is None:
        db.constraints.append(definition)
        if definition.kind in ("PK", "UNIQUE"):
            table.keys.append(definition)
    return violation


def add_constraint(db: Database, stmt: AlterAddConstraint) -> str:
    """ALTER TABLE ... ADD CONSTRAINT against the table's rows.

    A clause that is not PRIMARY KEY/UNIQUE/CHECK is re-read as an
    attempt to add a column; if it names an existing column the result
    is 1430, marked at the start of the clause.  Any other error is
    install_constraint's, marked at the constraint name.
    """
    table = _stored_table(db, stmt)
    if isinstance(stmt.body, FallbackBody):
        names = {t.lexeme for t in stmt.body.tokens
                 if t.kind in (TokenKind.IDENT, TokenKind.KEYWORD)}
        if names & set(table.column_names()):
            raise OraError(1430, stmt.line, stmt.column)
        raise OraError(900, stmt.line, stmt.column)
    if isinstance(stmt.body, CheckBody):
        definition = ConstraintDef(stmt.name, stmt.table, "CHECK",
                                   predicate=stmt.body.predicate)
    else:
        kind = "PK" if isinstance(stmt.body, PrimaryKeyBody) else "UNIQUE"
        definition = ConstraintDef(stmt.name, stmt.table, kind,
                                   columns=stmt.body.columns)
    violation = install_constraint(db, definition, (stmt.line, stmt.column))
    if violation is not None:
        raise violation_error(violation)
    return "Table altered."


def _narrowing(old: SqlType, new: SqlType) -> bool:
    if isinstance(old, NumberType) and isinstance(new, NumberType):
        return (new.precision - new.scale < old.precision - old.scale
                or new.scale < old.scale)
    if isinstance(old, Varchar2Type) and isinstance(new, Varchar2Type):
        return new.max_len < old.max_len
    if isinstance(old, DateType) and isinstance(new, DateType):
        return False
    return True  # kind change


def modify_column(db: Database, stmt: AlterModify) -> str:
    """ALTER TABLE ... MODIFY: widen a type and/or flip nullability.

    Only same-kind, non-narrowing type changes are allowed (1439), and
    the column is replaced by one of the new type, with its codec.  A
    larger NUMBER scale coerces the stored values again, which gives
    them its fraction digits, as it does every later INSERT.
    Setting NOT NULL, unless a constraint already covers the column,
    validates the rows against a new NOTNULL constraint (2296) and
    registers it under a generated SYS_C name; dropping it removes the
    column's NOTNULL constraints, so a column in a primary key stays NOT
    NULL.
    """
    table = _stored_table(db, stmt)
    index = table.index_of(stmt.change.name)
    if index is None:
        raise OraError(904, stmt.line, stmt.column)
    col = table.columns[index]
    spec = stmt.change.type_spec
    new_type = normalize_type(spec.keyword, spec.args, spec.line, spec.column)
    if _narrowing(col.type, new_type):
        raise OraError(1439, spec.line, spec.column)
    # The NOT NULL constraint, added only once the rows pass, is the last
    # thing that can fail, so a failed MODIFY leaves the column, the
    # constraints and the SYS_C counter exactly as they were.
    if (stmt.nullability == "NOT NULL"
            and col.name not in checks.not_null_sources(db, stmt.table)):
        counter = db.sys_name_counter
        not_null = ConstraintDef(next_sys_name(db), stmt.table, "NOTNULL",
                                 columns=(col.name,))
        if install_constraint(db, not_null,
                              (stmt.line, stmt.column)) is not None:
            db.sys_name_counter = counter
            raise OraError(2296)

    if isinstance(new_type, NumberType) and new_type.scale > col.type.scale:
        # Only a larger scale changes a stored value, and it fits every
        # one, so this cannot raise.
        coerce = codec(new_type).coerce
        for row in table.rows:
            row[index] = coerce(row[index])
    table.columns[index] = ColumnSchema(col.name, new_type)
    if stmt.nullability == "NULL":
        db.constraints = [c for c in db.constraints
                          if not (c.kind == "NOTNULL"
                                  and c.table == stmt.table
                                  and c.columns == (col.name,))]
    return "Table altered."
