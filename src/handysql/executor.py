"""Statement execution over the database's in-memory tables.

The Database record and its DDL live in catalog, and execute hands DDL
statements to it.  An insert appends to its table's rows only after
every constraint has passed.

A select is planned once and then run as a stream of rows.  Planning
binds every column reference to a slot of the combined row, compiles
each ON and WHERE predicate and the select list into functions of that
row, and, when no predicate can raise, picks for each table after the
first an equality with an earlier table to hash-join on.  Running pulls
rows through generators, left to right over the FROM list, and keeps
nested-loop order: rows follow the first table's insertion order, then
the second table's within each, and so on.  A comma join with a WHERE
filter is the same computation as INNER JOIN ... ON.  Join output is all
left-table columns then all right-table columns, in schema order, names
un-renamed.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from . import catalog as cat_mod
from .catalog import ColumnSchema, Database, Table
from .constraints import check_row
from .errors import OraError, violation_error
from .evaluate import (
    TRUE, Test, compile_predicate, eval_predicate, kind_mismatch,
    predicate_nodes,
)
from .nodes import (
    AggregateCall, AlterAddConstraint, AlterModify, BoolOp, ColumnRef,
    Comparison, CreateTable, Describe, Insert, Literal, Predicate,
    Select, Statement, TableRef,
)
from .render import render_expr
from .values import SqlValue, codec, exact_sum, round_significant

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

    def may_raise(self, pred: Predicate,
                  slot_of: dict[ColumnRef, int]) -> bool:
        """Whether evaluating pred on some row could raise.

        Only an aggregate (934) or a comparison of two different kinds
        (1722/932) can.
        """
        if predicate_nodes(pred, AggregateCall):
            return True
        return kind_mismatch(
            pred, lambda ref: self.column_at(slot_of[ref])[1].type,
        ) is not None

    def hash_keys(self, preds: list[Predicate],
                  slot_of: dict[ColumnRef, int],
                  ) -> dict[int, tuple[int, int]]:
        """Equalities to hash-join on: source index -> (left slot, column).

        For each source, the first top-level AND conjunct of the form
        x = y with y in that source and x in an earlier one.  Pairs for
        which it is not TRUE cannot pass the predicate holding it.
        """
        keys: dict[int, tuple[int, int]] = {}
        for pred in preds:
            for conj in _conjuncts(pred):
                if not (isinstance(conj, Comparison) and conj.op == "="
                        and isinstance(conj.left, ColumnRef)
                        and isinstance(conj.right, ColumnRef)):
                    continue
                # Slots grow with the source index, so left is the earlier.
                left, right = sorted((slot_of[conj.left], slot_of[conj.right]))
                i, j = self.column_at(left)[0], self.column_at(right)[0]
                if i < j:
                    keys.setdefault(j, (left, right - self.sources[j].offset))
        return keys


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
    """
    slot_of = scope.bind(on) if on is not None else {}
    rows: Iterable[Row] | None = None
    if on is not None and scope.may_raise(on, slot_of):
        # ON errors outrank every WHERE error, so ON runs over the whole
        # product before WHERE is even resolved.
        rows = list(_passing(_joined(scope.sources, {}),
                             compile_predicate(on, slot_of)))
        on = None
    if where is not None:
        aggs = predicate_nodes(where, AggregateCall)
        if aggs:
            raise OraError(934, aggs[0].line, aggs[0].column)
        slot_of.update(scope.bind(where))
    preds = [p for p in (on, where) if p is not None]
    if rows is None:
        # ON, if any, cannot raise here; the hash join needs WHERE safe too.
        keys: dict[int, tuple[int, int]] = {}
        if len(scope.sources) > 1 and not (
                where is not None and scope.may_raise(where, slot_of)):
            keys = scope.hash_keys(preds, slot_of)
        rows = _joined(scope.sources, keys)
    for pred in preds:
        rows = _passing(rows, compile_predicate(pred, slot_of))
    return rows


def _joined(sources: list[_Source],
            keys: dict[int, tuple[int, int]]) -> Iterable[Row]:
    """The FROM list's combined rows, hash-joining sources that have keys."""
    rows: Iterable[Row] = sources[0].rows
    for i in range(1, len(sources)):
        right = sources[i].rows
        if i in keys:
            rows = _hash_join(rows, right, *keys[i])
        else:
            rows = _nested_join(rows, right)
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
    total = sum(Fraction(v) for v in present)
    return round_significant(total / len(present))
