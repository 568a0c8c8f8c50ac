"""Typed statement tree produced by the parser.

Each node is a NamedTuple: building one makes one tuple, with no store
per field.  Source positions ride along in the fields from `line` on,
which equality and hashing ignore, so two trees compare equal when they
mean the same statement regardless of layout.  Written type spellings
(VARCHAR vs VARCHAR2) are preserved here; normalization happens later
in the data model.
"""

from __future__ import annotations

from decimal import Decimal
from typing import NamedTuple

from .lexer import Token, positions_ignored


@positions_ignored
class TypeSpec(NamedTuple):
    keyword: str
    args: tuple[int, ...] = ()
    line: int = 1
    column: int = 1


@positions_ignored
class ColumnRef(NamedTuple):
    name: str
    qualifier: str | None = None
    line: int = 1
    column: int = 1


@positions_ignored
class Literal(NamedTuple):
    value: Decimal | str | None
    line: int = 1
    column: int = 1


@positions_ignored
class AggregateCall(NamedTuple):
    func: str
    arg: ColumnRef | None = None  # None is the COUNT(*) star form
    line: int = 1
    column: int = 1


Expr = ColumnRef | Literal | AggregateCall


@positions_ignored
class Comparison(NamedTuple):
    op: str  # canonical: = != < <= > >=
    left: Expr
    right: Expr
    line: int = 1
    column: int = 1


@positions_ignored
class IsNull(NamedTuple):
    operand: Expr
    negated: bool = False
    line: int = 1
    column: int = 1


@positions_ignored
class Not(NamedTuple):
    operand: "Predicate"


@positions_ignored
class BoolOp(NamedTuple):
    """A whole AND or OR chain: two or more operands, in syntax order.

    No operand is a chain of the same op: a parenthesised one joins its
    parent, so every spelling of one chain gives one equal node.
    """

    op: str  # AND | OR
    operands: tuple["Predicate", ...]


Predicate = Comparison | IsNull | Not | BoolOp


def chain_operands(pred: Predicate, op: str) -> tuple[Predicate, ...]:
    """pred's operands if it is an op chain, else pred alone."""
    return pred.operands if type(pred) is BoolOp and pred.op == op else (pred,)


@positions_ignored
class ColumnClause(NamedTuple):
    name: str
    type_spec: TypeSpec
    line: int = 1
    column: int = 1


@positions_ignored
class CreateTable(NamedTuple):
    table: str
    columns: tuple[ColumnClause, ...]
    line: int = 1
    column: int = 1


@positions_ignored
class Describe(NamedTuple):
    table: str
    line: int = 1
    column: int = 1


@positions_ignored
class Insert(NamedTuple):
    table: str
    columns: tuple[str, ...] | None
    values: tuple[Literal, ...]
    line: int = 1
    column: int = 1
    column_positions: tuple[tuple[int, int], ...] = ()
    values_end: tuple[int, int] = (1, 1)


@positions_ignored
class SelectItem(NamedTuple):
    expr: Expr
    alias: str | None = None
    alias_quoted: bool = False


@positions_ignored
class TableRef(NamedTuple):
    table: str
    alias: str | None = None
    line: int = 1
    column: int = 1


@positions_ignored
class Select(NamedTuple):
    items: tuple[SelectItem, ...] | None  # None is the '*' form
    tables: tuple[TableRef, ...]
    join_on: Predicate | None = None  # set only for INNER JOIN ... ON
    where: Predicate | None = None


@positions_ignored
class PrimaryKeyBody(NamedTuple):
    columns: tuple[str, ...]


@positions_ignored
class UniqueBody(NamedTuple):
    columns: tuple[str, ...]


@positions_ignored
class CheckBody(NamedTuple):
    predicate: Predicate


@positions_ignored
class FallbackBody(NamedTuple):
    """Clause tail after a constraint name that is not PK/UNIQUE/CHECK.

    Kept as raw tokens; the catalog decides whether it names an existing
    column (the add-column re-interpretation) when executed.
    """

    tokens: tuple[Token, ...]


ConstraintBody = PrimaryKeyBody | UniqueBody | CheckBody | FallbackBody


@positions_ignored
class AlterAddConstraint(NamedTuple):
    table: str
    name: str
    body: ConstraintBody
    # Position of the constraint-name token, where the fallback error
    # marker lands.
    line: int = 1
    column: int = 1
    table_pos: tuple[int, int] = (1, 1)


@positions_ignored
class AlterModify(NamedTuple):
    table: str
    change: ColumnClause
    nullability: str | None = None  # "NOT NULL" | "NULL" | None
    line: int = 1
    column: int = 1
    table_pos: tuple[int, int] = (1, 1)


Statement = (CreateTable | Describe | Insert | Select
             | AlterAddConstraint | AlterModify)
