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
from itertools import repeat
from operator import is_, itemgetter
from typing import TYPE_CHECKING

from .evaluate import FALSE
from .values import SqlValue

if TYPE_CHECKING:
    from collections.abc import Iterable

    from .catalog import ConstraintDef, Database

NULL_COLUMN = "null column"
DUPLICATE_KEY = "duplicate key values"
FAILED_PREDICATE = "failed predicate"


@dataclass
class Violation:
    constraint: ConstraintDef
    reason: str
    row_ordinal: int


def not_null_sources(db: Database, table: str) -> dict[str, ConstraintDef]:
    """NOT NULL columns of a table and the constraint behind each.

    A column maps to the first NOTNULL or PK constraint listing it, in
    creation order; that is the constraint a NULL in it violates.
    """
    sources: dict[str, ConstraintDef] = {}
    for c in db.constraints:
        if c.table == table and c.kind in ("NOTNULL", "PK"):
            for column in c.columns:
                sources.setdefault(column, c)
    return sources


def _has_null(values: Iterable[SqlValue]) -> bool:
    # By identity: `None in values` compares each Decimal with ==,
    # which takes several times as long.
    return any(map(is_, values, repeat(None)))


def check_row(db: Database, table: str, row: list[SqlValue],
              existing: list[list[SqlValue]]) -> Violation | None:
    """First violation a candidate row would cause, or None."""
    schema = db.tables[table]
    if _has_null(row):
        not_null = not_null_sources(db, table)
        for col, value in zip(schema.columns, row):
            if value is None and col.name in not_null:
                return Violation(not_null[col.name], NULL_COLUMN,
                                 len(existing))
    for c in db.constraints:
        if c.table != table:
            continue
        if c.kind in ("PK", "UNIQUE"):
            positions = [schema.index_of(name) for name in c.columns]
            key = [row[i] for i in positions]
            if _has_null(key):
                continue
            # A stored key holding a NULL never equals this one.
            for ordinal, other in enumerate(existing):
                if [other[i] for i in positions] == key:
                    return Violation(c, DUPLICATE_KEY, ordinal)
        elif c.kind == "CHECK":
            if c.test(row) is FALSE:
                return Violation(c, FAILED_PREDICATE, len(existing))
    return None


def validate_existing(db: Database, table: str, candidate: ConstraintDef,
                      rows: list[list[SqlValue]]) -> Violation | None:
    """First violation of a prospective constraint over stored rows.

    A key is checked by building its index, a dict from each key to its
    row's ordinal: the keys without a NULL repeat none when the dict
    holds as many of them as there are.  A key that passes keeps its
    getter and index, which store_row then extends.  Only a known
    violation is looked for row by row.
    """
    if candidate.kind == "CHECK":
        test = candidate.test
        for ordinal, row in enumerate(rows):
            if test(row) is FALSE:
                return Violation(candidate, FAILED_PREDICATE, ordinal)
        return None
    schema = db.tables[table]
    positions = [schema.index_of(name) for name in candidate.columns]
    # A one-column key is its value, a wider one the tuple of its values.
    key_of = itemgetter(*positions)
    keys = list(map(key_of, rows))
    index = dict(zip(keys, range(len(keys))))
    if len(positions) == 1:
        held = {None} if None in index else set()
    else:
        held = {key for key in index if None in key}
    present = len(keys)
    if held:
        if candidate.kind != "UNIQUE":
            for ordinal, row in enumerate(rows):
                for i in positions:
                    if row[i] is None:
                        return Violation(candidate, NULL_COLUMN, ordinal)
        for key in held:
            del index[key]
        present -= sum(map(held.__contains__, keys))
    if candidate.kind == "NOTNULL":
        return None
    # Equal keys hash equal, Decimal('1.0') and Decimal('1') included.
    if len(index) == present:
        candidate.key_of, candidate.index = key_of, index
        return None
    seen: set[tuple[SqlValue, ...]] = set()
    for ordinal, row in enumerate(rows):
        key = tuple([row[i] for i in positions])
        if _has_null(key):
            continue
        if key in seen:
            return Violation(candidate, DUPLICATE_KEY, ordinal)
        seen.add(key)
    raise AssertionError("a repeated key was counted but not found")
