"""Statement execution over the database's in-memory tables.

The Database record and its DDL live in catalog, and execute hands DDL
statements to it.  An insert appends to its table's rows only after
every constraint has passed.

A select is planned once and then run as a stream of rows.  Planning
binds every column reference to a slot of the combined row and compiles
ON, WHERE and the select list into functions of that row.  When neither
ON nor WHERE can raise, a join places each top-level AND conjunct where
its columns first meet: one naming a single table filters that table's
rows before the join, the first equality of each later table with an
earlier one becomes its hash join key, and the rest filter the joined
rows.  Otherwise the whole product is filtered by ON, then WHERE, so
errors come as from a plain nested loop.  Running pulls rows through
generators, left to right over the FROM list, and keeps nested-loop
order: rows follow the first table's insertion order, then the second
table's within each, and so on.  A comma join with a WHERE filter is
the same computation as INNER JOIN ... ON.  Join output is all
left-table columns then all right-table columns, in schema order, names
un-renamed.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from . import catalog as cat_mod
from .catalog import ColumnSchema, Database, Table
from .constraints import check_row
from .errors import OraError, violation_error
from .evaluate import (
    TRUE, Test, compile_predicate, eval_predicate, predicate_nodes,
)
from .nodes import (
    AggregateCall, AlterAddConstraint, AlterModify, BoolOp, ColumnRef,
    Comparison, CreateTable, Describe, Insert, Literal, Predicate,
    Select, Statement, TableRef,
)
from .render import render_expr
from .values import (
    SqlType, SqlValue, codec, exact_sum, round_significant,
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
            if table.find(name) is None:
                raise OraError(904, *pos)
            idx = table.index_of(name)
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
            row[idx] = codec(table.columns[idx].type).coerce(literal.value)
        except OraError as err:
            raise OraError(err.code, literal.line, literal.column) from None

    violation = check_row(db, stmt.table, row, table.rows)
    if violation is not None:
        raise violation_error(violation)
    table.rows.append(row)
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
            col = source.table.find(ref.name)
            if col is not None:
                matches.append(source.offset
                               + source.table.index_of(ref.name))
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


def _conjuncts(pred: Predicate) -> list[Predicate]:
    if isinstance(pred, BoolOp) and pred.op == "AND":
        return _conjuncts(pred.left) + _conjuncts(pred.right)
    return [pred]


def execute_select(db: Database, stmt: Select) -> ResultSet:
    scope = _Scope(db, stmt.tables)
    matching = _matching_rows(scope, stmt.join_on, stmt.where)

    if stmt.items is None:
        headers = [c.name for s in scope.sources for c in s.table.columns]
        # Copies, so no caller ever holds a stored row.
        return ResultSet(headers, [row.copy() for row in matching])

    # Every filter error comes before any select-list error.
    rows = list(matching)

    aggregated = any(isinstance(item.expr, AggregateCall)
                     for item in stmt.items)
    headers = [_item_header(item) for item in stmt.items]
    if aggregated:
        row = [_eval_aggregate_item(item, rows, scope)
               for item in stmt.items]
        return ResultSet(headers, [row])

    return ResultSet(headers, list(map(_projection(stmt, scope), rows)))


def _matching_rows(scope: _Scope, on: Predicate | None,
                   where: Predicate | None) -> Iterable[Row]:
    """Combined rows that pass ON and then WHERE, in nested-loop order.

    Errors come in the order of a nested loop that filters the whole
    product by ON before it looks at WHERE: ON columns (904/918), ON
    evaluation, WHERE aggregates (934), WHERE columns, WHERE evaluation.
    When neither predicate can raise, no error can come after planning,
    and a join runs as _pushed_down.
    """
    slot_of = scope.bind(on) if on is not None else {}
    type_of = scope.type_of(slot_of)
    rows = _joined([source.rows for source in scope.sources])
    tests: list[Test] = []
    raises = False
    if on is not None:
        test, raises = compile_predicate(on, slot_of, type_of)
        if raises:
            # ON errors outrank every WHERE error, so ON runs over the
            # whole product before WHERE is even resolved.
            rows = list(_passing(rows, test))
        else:
            tests.append(test)
    if where is not None:
        aggs = predicate_nodes(where, AggregateCall)
        if aggs:
            raise OraError(934, aggs[0].line, aggs[0].column)
        slot_of.update(scope.bind(where))
        test, where_raises = compile_predicate(where, slot_of, type_of)
        raises = raises or where_raises
        tests.append(test)
    if len(scope.sources) > 1 and not raises:
        return _pushed_down(scope, [p for p in (on, where) if p], slot_of)
    for test in tests:
        rows = _passing(rows, test)
    return rows


def _pushed_down(scope: _Scope, preds: list[Predicate],
                 slot_of: dict[ColumnRef, int]) -> Iterable[Row]:
    """A join's rows, each filter placed where it first has its columns.

    preds cannot raise, so their top-level AND conjuncts may run in any
    order and on any subset of the product that holds their columns.  A
    conjunct naming at most one source filters that source's own rows
    before the join.  For each later source, the first equality x = y
    with y in it and x in an earlier one becomes its hash join key: the
    hash join yields exactly the pairs where it is TRUE, so it is not
    evaluated again.  Each other conjunct filters the joined rows as
    soon as the last source it names has been joined.
    """
    n = len(scope.sources)
    before: list[list[Predicate]] = [[] for _ in range(n)]
    after: list[list[Predicate]] = [[] for _ in range(n)]
    keys: dict[int, tuple[int, int]] = {}
    for conj in [c for pred in preds for c in _conjuncts(pred)]:
        refs = predicate_nodes(conj, ColumnRef)
        named = sorted({scope.column_at(slot_of[ref])[0] for ref in refs})
        if len(named) <= 1:
            before[named[0] if named else 0].append(conj)
            continue
        last = named[-1]
        if (isinstance(conj, Comparison) and conj.op == "="
                and len(refs) == 2 and last not in keys):
            # Slots grow with the source index, so left is the earlier.
            left, right = sorted(slot_of[ref] for ref in refs)
            keys[last] = (left, right - scope.sources[last].offset)
        else:
            after[last].append(conj)

    type_of = scope.type_of(slot_of)
    inputs: list[Iterable[Row]] = []
    for i, source in enumerate(scope.sources):
        rows: Iterable[Row] = source.rows
        if before[i]:
            # Slots within the source's own row.
            local = {ref: slot - source.offset
                     for ref, slot in slot_of.items()}
            test, _ = compile_predicate(_conjunction(before[i]), local,
                                        type_of)
            rows = _passing(rows, test)
            if i:
                rows = list(rows)
        inputs.append(rows)
    filters = {i: compile_predicate(_conjunction(conjs), slot_of, type_of)[0]
               for i, conjs in enumerate(after) if conjs}
    return _joined(inputs, keys, filters)


def _conjunction(conjs: list[Predicate]) -> Predicate:
    return functools.reduce(lambda a, b: BoolOp("AND", a, b), conjs)


def _joined(inputs: list[Iterable[Row]],
            keys: dict[int, tuple[int, int]] | None = None,
            filters: dict[int, Test] | None = None) -> Iterable[Row]:
    """The combined rows of each source's rows, left to right.

    Sources after the first are lists.  keys gives the hash join key of
    a source, and filters a test on the rows joined through it.
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
        if i in filters:
            rows = _passing(rows, filters[i])
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


def _passing(rows: Iterable[Row], test: Test) -> Iterator[Row]:
    """The rows on which a compiled predicate is TRUE, evaluated in order."""
    for row in rows:
        if eval_predicate(test, row) is TRUE:
            yield row


def _item_header(item) -> str:
    if item.alias is not None:
        return item.alias
    if isinstance(item.expr, ColumnRef):
        return item.expr.name
    return render_expr(item.expr)


def _projection(stmt: Select, scope: _Scope) -> Callable[[Row], Row]:
    """The select list as one function from a combined row to a row."""
    cells: list[tuple[int | None, SqlValue]] = []  # (slot, constant)
    for item in stmt.items:
        expr = item.expr
        if isinstance(expr, ColumnRef):
            cells.append((scope.resolve(expr), None))
        elif isinstance(expr, Literal):
            cells.append((None, expr.value))
        else:
            raise OraError(937, expr.line, expr.column)
    return lambda row: [row[slot] if slot is not None else const
                        for slot, const in cells]


def _eval_aggregate_item(item, rows: list[Row], scope: _Scope) -> SqlValue:
    expr = item.expr
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        raise OraError(937, expr.line, expr.column)
    assert isinstance(expr, AggregateCall)
    if expr.arg is None:
        return eval_aggregate("COUNT", [None] * len(rows), star=True)
    slot = scope.resolve(expr.arg)
    return eval_aggregate(expr.func, [row[slot] for row in rows])


def eval_aggregate(func: str, values: list[SqlValue],
                   star: bool = False) -> SqlValue:
    """Fold one column of values.

    NULLs are skipped everywhere except COUNT(*), which counts rows.
    Aggregates over no non-null input are NULL, except COUNT which is 0.
    AVG uses an exact rational intermediate, then rounds half-up to 38
    significant digits.
    """
    if star:
        return Decimal(len(values))
    present = [v for v in values if v is not None]
    if func == "COUNT":
        return Decimal(len(present))
    if not present:
        return None
    if func in ("MIN", "MAX"):
        kinds = {type(v) for v in present}
        if len(kinds) > 1:
            raise OraError(932)
        return min(present) if func == "MIN" else max(present)
    if not all(isinstance(v, Decimal) for v in present):
        raise OraError(1722)
    if func == "SUM":
        return exact_sum(present)
    assert func == "AVG"
    return round_significant(Fraction(exact_sum(present)) / len(present))
