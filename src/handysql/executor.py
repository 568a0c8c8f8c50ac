"""Statement execution over the database's in-memory tables.

The Database record and its DDL live in catalog, and execute hands DDL
statements to it.  An insert is stored only after every constraint has
passed, by catalog.store_row, which also indexes its keys.

A select is planned once and then run.  Planning binds every column
reference to a slot of the combined row.  A join compiles each
top-level AND conjunct of ON and WHERE once, at the slots of the rows
it filters, and when none can raise places each where its columns
first meet: one naming a single table filters that table's rows before
the join, the first equality of each later table with an earlier one
becomes its hash join key, and the rest filter the joined rows.
Otherwise, and for a single table, ON and WHERE filter the whole
product, ON first, so errors come as from a plain nested loop.  A
single stored table whose WHERE cannot raise, and whose top-level AND
conjuncts set every column of one PRIMARY KEY or UNIQUE key equal to a
non-NULL literal, finds the one row that can pass with one probe of
that key's index, and WHERE runs on that row alone; the rows, their
order and the errors stay those of the scan.

Each filter runs as passes, one executor.eval_predicate call each,
that read rows and keep, in a list and in order, those where it is
TRUE: a predicate that cannot raise is one pass per top-level AND
conjunct, in syntax order, and one that can is one pass, whole.  Joins
pull rows through generators, left to right over the FROM list, and
keep nested-loop order: rows follow the first table's insertion order,
then the second table's within each, and so on.  A comma join with a
WHERE filter is the same computation as INNER JOIN ... ON.  Join output
is all left-table columns then all right-table columns, in schema
order, names un-renamed.

The select list is read only once every filtered row is in hand, so
each filter error comes before any of its errors.  A list of columns
becomes one itemgetter over the rows.  An aggregate list reads each
argument column out once, without its NULLs, and folds it with the
builtins len, min, max and sum: the column's declared type fixes the
kind of every value, so no value's kind is checked.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

from . import catalog as cat_mod
from .catalog import ColumnSchema, Database, Table
from .constraints import check_row
from .errors import OraError, violation_error
from .evaluate import (
    RowsWhere, compile_filter, eval_predicate, predicate_nodes,
)
from .nodes import (
    AggregateCall, AlterAddConstraint, AlterModify, ColumnRef, Comparison,
    CreateTable, Describe, Insert, Literal, Predicate, Select, Statement,
    TableRef, chain_operands,
)
from .render import render_expr
from .values import (
    NumberType, SqlType, SqlValue, exact_sum, round_significant,
)

Row = list[SqlValue]


@dataclass
class Feedback:
    message: str


@dataclass
class ResultSet:
    headers: list[str]
    rows: list[list[SqlValue]]


@dataclass
class Listing:
    lines: list[str]


Outcome = Feedback | ResultSet | Listing


def execute(db: Database, stmt: Statement) -> Outcome:
    if isinstance(stmt, CreateTable):
        return Feedback(cat_mod.create_table(db, stmt))
    if isinstance(stmt, Describe):
        return Listing(cat_mod.describe(db, stmt.table,
                                        stmt.line, stmt.column))
    if isinstance(stmt, Insert):
        return execute_insert(db, stmt)
    if isinstance(stmt, Select):
        return execute_select(db, stmt)
    if isinstance(stmt, AlterAddConstraint):
        return Feedback(cat_mod.add_constraint(db, stmt))
    if isinstance(stmt, AlterModify):
        return Feedback(cat_mod.modify_column(db, stmt))
    raise AssertionError(f"unknown statement {stmt!r}")


def execute_insert(db: Database, stmt: Insert) -> Feedback:
    table = db.tables.get(stmt.table)
    if table is None:
        raise OraError(942, stmt.line, stmt.column)

    if stmt.columns is not None:
        targets: list[int] = []
        for name, pos in zip(stmt.columns, stmt.column_positions):
            idx = table.index_of(name)
            if idx is None:
                raise OraError(904, *pos)
            if idx in targets:
                raise OraError(957, *pos)
            targets.append(idx)
    else:
        targets = list(range(len(table.columns)))

    if len(stmt.values) > len(targets):
        extra = stmt.values[len(targets)]
        raise OraError(913, extra.line, extra.column)
    if len(stmt.values) < len(targets):
        raise OraError(947, *stmt.values_end)

    row: list[SqlValue] = [None] * len(table.columns)
    for idx, literal in zip(targets, stmt.values):
        try:
            row[idx] = table.columns[idx].codec.coerce(literal.value)
        except OraError as err:
            raise OraError(err.code, literal.line, literal.column) from None

    violation = check_row(db, stmt.table, row, table.rows)
    if violation is not None:
        raise violation_error(violation)
    cat_mod.store_row(table, row)
    return Feedback("1 row created.")


@dataclass
class _Source:
    keys: set[str]  # alias and/or table name
    table: Table
    offset: int  # slot of its first column in the combined row
    rows: list[Row]


class _Scope:
    """The FROM list of one select: its rows, column slots and join keys."""

    def __init__(self, db: Database, tables: tuple[TableRef, ...]):
        self.sources: list[_Source] = []
        offset = 0
        for tref in tables:
            if tref.table in db.tables:
                table = db.tables[tref.table]
                rows = table.rows
            elif tref.table in cat_mod.BUILTINS:
                table, rows_of = cat_mod.BUILTINS[tref.table]
                rows = rows_of(db)
            else:
                raise OraError(942, tref.line, tref.column)
            keys = {tref.table}
            if tref.alias:
                keys.add(tref.alias)
            self.sources.append(_Source(keys, table, offset, rows))
            offset += len(table.columns)

    def resolve(self, ref: ColumnRef) -> int:
        """Flat index of a column reference in the combined row."""
        matches: list[int] = []
        for source in self.sources:
            if ref.qualifier is not None and ref.qualifier not in source.keys:
                continue
            index = source.table.index_of(ref.name)
            if index is not None:
                matches.append(source.offset + index)
        if not matches:
            raise OraError(904, ref.line, ref.column)
        if len(matches) > 1:
            raise OraError(918, ref.line, ref.column)
        return matches[0]

    def bind(self, pred: Predicate) -> dict[ColumnRef, int]:
        """Slot of every column in a predicate, resolved in syntax order."""
        return {ref: self.resolve(ref)
                for ref in predicate_nodes(pred, ColumnRef)}

    def column_at(self, slot: int) -> tuple[int, ColumnSchema]:
        """The source index and the column behind a slot."""
        i = len(self.sources) - 1
        while slot < self.sources[i].offset:
            i -= 1
        source = self.sources[i]
        return i, source.table.columns[slot - source.offset]

    def type_of(self, slot_of: dict[ColumnRef, int],
                ) -> Callable[[ColumnRef], SqlType]:
        """The declared type of each column bound in slot_of."""
        return lambda ref: self.column_at(slot_of[ref])[1].type


class _Conjunct(NamedTuple):
    pred: Predicate
    slots: list[int]  # of its columns in the combined row, syntax order
    named: list[int]  # the sources it names, ascending
    rows_where: RowsWhere  # its filter pass, at the slots where it runs
    raises: bool


def _compiled(scope: _Scope, conj: Predicate, slot_of: dict[ColumnRef, int],
              type_of: Callable[[ColumnRef], SqlType]) -> _Conjunct:
    """conj compiled once, at the slots of the rows it filters.

    A conjunct naming one source filters that source's own rows, and
    any other the combined rows.
    """
    refs = predicate_nodes(conj, ColumnRef)
    slots = [slot_of[ref] for ref in refs]
    named = sorted({scope.column_at(slot)[0] for slot in slots})
    offset = scope.sources[named[0]].offset if len(named) == 1 else 0
    rows_where, raises = compile_filter(
        conj, {ref: slot - offset for ref, slot in zip(refs, slots)},
        type_of)
    return _Conjunct(conj, slots, named, rows_where, raises)


def execute_select(db: Database, stmt: Select) -> ResultSet:
    scope = _Scope(db, stmt.tables)
    matching = _matching_rows(scope, stmt.join_on, stmt.where)

    if stmt.items is None:
        headers = [c.name for s in scope.sources for c in s.table.columns]
        source = scope.sources[0]
        if len(scope.sources) == 1 and source.rows is source.table.rows:
            # Copies, so no caller ever holds a stored row.
            return ResultSet(headers, list(map(list.copy, matching)))
        # A join builds each of its rows anew, and a built-in's rows
        # are made for this query.
        return ResultSet(headers, list(matching))

    # Every filter error comes before any select-list error.
    rows = list(matching)

    headers = [_item_header(item) for item in stmt.items]
    if any(isinstance(item.expr, AggregateCall) for item in stmt.items):
        return ResultSet(headers, [_folded(stmt, rows, scope)])
    return ResultSet(headers, _projected(stmt, rows, scope))


def _matching_rows(scope: _Scope, on: Predicate | None,
                   where: Predicate | None) -> Iterable[Row]:
    """Combined rows that pass ON and then WHERE, in nested-loop order.

    Errors come in the order of a nested loop that filters the whole
    product by ON before it looks at WHERE: ON columns (904/918), ON
    evaluation, WHERE aggregates (934), WHERE columns, WHERE evaluation.
    A join compiles each top-level AND conjunct once, where it runs,
    and while none can raise, no error can come after planning and the
    rows come from _pushed_down.  Otherwise ON and then WHERE filter
    the product, each by _passes.
    """
    slot_of: dict[ColumnRef, int] = {}
    type_of = scope.type_of(slot_of)
    rows = _joined([source.rows for source in scope.sources])
    # None once the filters run over the whole product.
    placed: list[_Conjunct] | None = [] if len(scope.sources) > 1 else None
    for pred in (on, where):
        if pred is None:
            continue
        if pred is where:
            aggs = predicate_nodes(where, AggregateCall)
            if aggs:
                raise OraError(934, aggs[0].line, aggs[0].column)
        slot_of.update(scope.bind(pred))
        conjs = chain_operands(pred, "AND")
        if placed is not None:
            compiled = [_compiled(scope, conj, slot_of, type_of)
                        for conj in conjs]
            if not any(conj.raises for conj in compiled):
                placed += compiled
                continue
            if pred is where and on is not None:
                # ON's conjuncts were placed; it runs first, over the
                # whole product.
                rows = _filtered(rows, _passes(on, slot_of, type_of)[0])
            placed = None
        passes, raises = _passes(pred, slot_of, type_of)
        if not raises and len(scope.sources) == 1:
            rows = _probed(scope.sources[0], conjs)
        # A list: ON errors outrank every WHERE error, so ON runs over
        # the whole product before WHERE is even resolved.
        rows = _filtered(rows, passes)
    return rows if placed is None else _pushed_down(scope, placed)


def _passes(pred: Predicate, slot_of: dict[ColumnRef, int],
            type_of: Callable[[ColumnRef], SqlType],
            ) -> tuple[list[RowsWhere], bool]:
    """pred's filter passes over the combined rows, and whether it can raise.

    While none of its top-level AND conjuncts can raise, each is one
    pass, in syntax order: AND is the rows that pass them all.
    Otherwise pred is one pass, whole, so its rows are read in order and
    the first that raises does.
    """
    passes: list[RowsWhere] = []
    for conj in chain_operands(pred, "AND"):
        rows_where, raises = compile_filter(conj, slot_of, type_of)
        if raises:
            if conj is not pred:
                rows_where = compile_filter(pred, slot_of, type_of)[0]
            return [rows_where], True
        passes.append(rows_where)
    return passes, False


def _probed(source: _Source, conjs: tuple[Predicate, ...]) -> list[Row]:
    """The rows of one source that may pass a WHERE that cannot raise.

    conjs are the WHERE's top-level AND conjuncts.  When those of the
    form column = non-NULL literal, either way round, pin every column
    of one PRIMARY KEY or UNIQUE key of a stored table, only the row
    holding that key can pass, and one probe of the key's index finds
    it: stored keys are unique, and the index matches by == and hash,
    which agree with the comparison's =.  Otherwise every row may pass.
    A column pinned twice is looked up by its first literal; WHERE still
    runs on the row found.
    """
    table = source.table
    if not table.keys:
        return source.rows
    pinned: dict[str, SqlValue] = {}
    for conj in conjs:
        if type(conj) is not Comparison:
            continue
        op, col, lit, _, _ = conj
        if type(col) is Literal:
            col, lit = lit, col
        if (op == "=" and type(col) is ColumnRef and type(lit) is Literal
                and lit.value is not None):
            pinned.setdefault(col.name, lit.value)
    if not pinned:
        return source.rows
    for key in table.keys:
        if key.columns[0] in pinned and all(
                map(pinned.__contains__, key.columns)):
            break
    else:
        return source.rows
    # A one-column key is its value, a wider one the tuple of its values.
    ordinal = key.index.get(itemgetter(*key.columns)(pinned))
    return [] if ordinal is None else [table.rows[ordinal]]


def _pushed_down(scope: _Scope, conjs: list[_Conjunct]) -> Iterable[Row]:
    """A join's rows, each filter placed where it first has its columns.

    No conjunct can raise, so they may run in any order and on any
    subset of the product that holds their columns.  A conjunct naming
    at most one source filters that source's own rows before the join.
    For each later source, the first equality x = y with y in it and x
    in an earlier one becomes its hash join key: the hash join yields
    exactly the pairs where it is TRUE, so it is not evaluated again.
    Each other conjunct filters the joined rows as soon as the last
    source it names has been joined.  The conjuncts of one place run as
    successive passes, in syntax order.
    """
    n = len(scope.sources)
    before: list[list[RowsWhere]] = [[] for _ in range(n)]
    after: dict[int, list[RowsWhere]] = {}
    keys: dict[int, tuple[int, int]] = {}
    for conj in conjs:
        if len(conj.named) <= 1:
            before[conj.named[0] if conj.named else 0].append(
                conj.rows_where)
            continue
        last = conj.named[-1]
        if (isinstance(conj.pred, Comparison) and conj.pred.op == "="
                and len(conj.slots) == 2 and last not in keys):
            # Slots grow with the source index, so left is the earlier.
            left, right = sorted(conj.slots)
            keys[last] = (left, right - scope.sources[last].offset)
        else:
            after.setdefault(last, []).append(conj.rows_where)
    inputs = [_filtered(source.rows, passes)
              for source, passes in zip(scope.sources, before)]
    return _joined(inputs, keys, after)


def _joined(inputs: list[Iterable[Row]],
            keys: dict[int, tuple[int, int]] | None = None,
            filters: dict[int, list[RowsWhere]] | None = None,
            ) -> Iterable[Row]:
    """The combined rows of each source's rows, left to right.

    Sources after the first are lists.  keys gives the hash join key of
    a source, and filters the passes over the rows joined through it.
    """
    keys = keys or {}
    filters = filters or {}
    rows = inputs[0]
    for i in range(1, len(inputs)):
        right = inputs[i]
        if i in keys:
            rows = _hash_join(rows, right, *keys[i])
        else:
            rows = _nested_join(rows, right)
        rows = _filtered(rows, filters.get(i, ()))
    return rows


def _nested_join(left_rows: Iterable[Row],
                 right_rows: list[Row]) -> Iterator[Row]:
    for left in left_rows:
        for right in right_rows:
            yield left + right


def _hash_join(left_rows: Iterable[Row], right_rows: list[Row],
               left_slot: int, right_col: int) -> Iterator[Row]:
    """Only the pairs whose two key values are equal and not NULL.

    Buckets keep insertion order, so the output order is the nested
    loop's.
    """
    buckets: dict[SqlValue, list[Row]] = {}
    for right in right_rows:
        if right[right_col] is not None:
            buckets.setdefault(right[right_col], []).append(right)
    for left in left_rows:
        for right in buckets.get(left[left_slot], ()):
            yield left + right


def _filtered(rows: Iterable[Row],
              passes: Iterable[RowsWhere]) -> Iterable[Row]:
    """The rows that pass each filter pass in turn, in their order."""
    for rows_where in passes:
        rows = eval_predicate(rows_where, rows)
    return rows


def _item_header(item) -> str:
    if item.alias is not None:
        return item.alias
    if isinstance(item.expr, ColumnRef):
        return item.expr.name
    return render_expr(item.expr)


def _projected(stmt: Select, rows: list[Row], scope: _Scope) -> list[Row]:
    """The select list's values of each row.

    A list of columns alone is one itemgetter, a slice when the slots
    are adjacent and in order, which copies them in one step.
    """
    cells: list[tuple[int | None, SqlValue]] = []  # (slot, constant)
    for item in stmt.items:
        if isinstance(item.expr, ColumnRef):
            cells.append((scope.resolve(item.expr), None))
        else:
            cells.append((None, item.expr.value))
    slots = [slot for slot, _ in cells]
    if None in slots:
        return [[row[slot] if slot is not None else const
                 for slot, const in cells] for row in rows]
    first = slots[0]
    if slots == list(range(first, first + len(slots))):
        return list(map(itemgetter(slice(first, first + len(slots))), rows))
    return list(map(list, map(itemgetter(*slots), rows)))


def _folded(stmt: Select, rows: list[Row], scope: _Scope) -> Row:
    """The one row of an aggregate select list, item by item.

    A column may stand only inside an aggregate (937).  The values of
    each distinct argument column are read out once, without their
    NULLs, and COUNT(*) counts the rows.
    """
    present: dict[int, list[SqlValue]] = {}
    folded: Row = []
    for item in stmt.items:
        expr = item.expr
        if isinstance(expr, Literal):
            folded.append(expr.value)
        elif isinstance(expr, ColumnRef):
            raise OraError(937, expr.line, expr.column)
        elif expr.arg is None:
            folded.append(Decimal(len(rows)))
        else:
            slot = scope.resolve(expr.arg)
            if slot not in present:
                present[slot] = [v for v in map(itemgetter(slot), rows)
                                 if v is not None]
            folded.append(eval_aggregate(expr.func, present[slot],
                                         scope.column_at(slot)[1].type))
    return folded


def eval_aggregate(func: str, present: list[SqlValue],
                   sql_type: SqlType) -> SqlValue:
    """Fold the non-NULL values of one column of a declared type.

    Every value has its type's kind, so MIN and MAX compare them as
    they are.  Over no values COUNT is 0 and the others are NULL.  SUM
    and AVG over a non-NUMBER column raise 1722 when there is a value.
    AVG divides the exact sum once, as a rational, then rounds half-up
    to 38 significant digits.
    """
    if func == "COUNT":
        return Decimal(len(present))
    if not present:
        return None
    if func == "MIN":
        return min(present)
    if func == "MAX":
        return max(present)
    if not isinstance(sql_type, NumberType):
        raise OraError(1722)
    total = exact_sum(present)
    if func == "SUM":
        return total
    assert func == "AVG"
    return round_significant(Fraction(total) / len(present))
