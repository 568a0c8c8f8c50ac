"""Row constraint checking, kept free of error codes.

check_row guards a candidate insert, validate_existing guards new
constraints and reloaded snapshots.  Both return the first Violation
found or None; mapping violations to ORA codes happens elsewhere.

Evaluation order: NOT NULL constraints first (in column order), then
the registered constraints in creation order.  Uniqueness never fires on
key tuples containing NULL.  A CHECK runs the test compiled when its
constraint was made, and accepts TRUE and UNKNOWN: only a definite
FALSE violates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .evaluate import FALSE
from .values import SqlValue

if TYPE_CHECKING:
    from .catalog import Catalog, ConstraintDef, TableSchema

NULL_COLUMN = "null column"
DUPLICATE_KEY = "duplicate key values"
FAILED_PREDICATE = "failed predicate"


@dataclass
class Violation:
    constraint: ConstraintDef
    reason: str
    row_ordinal: int


def _key_tuple(schema: TableSchema, columns: tuple[str, ...],
               row: list[SqlValue]) -> tuple[SqlValue, ...] | None:
    values = tuple(row[schema.index_of(c)] for c in columns)
    if any(v is None for v in values):
        return None
    return values


def not_null_sources(cat: Catalog, table: str) -> dict[str, ConstraintDef]:
    """NOT NULL columns of a table and the constraint behind each.

    A column maps to the first NOTNULL or PK constraint covering it, in
    creation order; that is the constraint a NULL in it violates.
    """
    sources: dict[str, ConstraintDef] = {}
    for c in cat.constraints:
        if c.table != table:
            continue
        if c.kind == "NOTNULL":
            sources.setdefault(c.column, c)
        elif c.kind == "PK":
            for column in c.columns:
                sources.setdefault(column, c)
    return sources


def check_row(cat: Catalog, table: str, row: list[SqlValue],
              existing: list[list[SqlValue]]) -> Violation | None:
    """First violation a candidate row would cause, or None."""
    schema = cat.tables[table]
    if None in row:
        not_null = not_null_sources(cat, table)
        for col, value in zip(schema.columns, row):
            if value is None and col.name in not_null:
                return Violation(not_null[col.name], NULL_COLUMN,
                                 len(existing))
    for c in cat.constraints:
        if c.table != table:
            continue
        if c.kind in ("PK", "UNIQUE"):
            key = _key_tuple(schema, c.columns, row)
            if key is None:
                continue
            for ordinal, other in enumerate(existing):
                if _key_tuple(schema, c.columns, other) == key:
                    return Violation(c, DUPLICATE_KEY, ordinal)
        elif c.kind == "CHECK":
            if c.test(row) is FALSE:
                return Violation(c, FAILED_PREDICATE, len(existing))
    return None


def validate_existing(cat: Catalog, table: str, candidate: ConstraintDef,
                      rows: list[list[SqlValue]]) -> Violation | None:
    """First violation of a prospective constraint over stored rows."""
    schema = cat.tables[table]
    if candidate.kind == "NOTNULL":
        idx = schema.index_of(candidate.column)
        for ordinal, row in enumerate(rows):
            if row[idx] is None:
                return Violation(candidate, NULL_COLUMN, ordinal)
        return None
    if candidate.kind == "CHECK":
        test = candidate.test
        for ordinal, row in enumerate(rows):
            if test(row) is FALSE:
                return Violation(candidate, FAILED_PREDICATE, ordinal)
        return None
    if candidate.kind == "PK":
        for ordinal, row in enumerate(rows):
            for col in candidate.columns:
                if row[schema.index_of(col)] is None:
                    return Violation(candidate, NULL_COLUMN, ordinal)
    # Equal keys hash equal, Decimal('1.0') and Decimal('1') included.
    seen: set[tuple[SqlValue, ...]] = set()
    for ordinal, row in enumerate(rows):
        key = _key_tuple(schema, candidate.columns, row)
        if key is None:
            continue
        if key in seen:
            return Violation(candidate, DUPLICATE_KEY, ordinal)
        seen.add(key)
    return None
