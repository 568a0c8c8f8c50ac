"""Row-level predicates shared by WHERE, ON and CHECK, compiled once.

compile_predicate turns a predicate tree into nested closures over the
slots of a row, given the slot and the declared type of every column it
names, and says whether the result can raise.  The closures follow
Kleene logic.  A comparison reads its left operand, then its right;
NULL on either side is UNKNOWN, and values of two different kinds raise
1722 or 932 at the comparison.  Stored values always have their
column's kind, so a comparison whose two sides have one static kind
(column against column, or column against a non-NULL literal) reads its
slots directly and never checks kinds or raises.  Any other comparison
checks kinds on every row, as the tree walk in tests/reference.py does.
kind_mismatch finds a comparison of two kinds before any row is read.
An AND or OR chain pairs off its operands level by level, each pair
one closure, so n operands nest about log2(n) deep.  A pair skips its
right side once the left side decides, unless the right side can raise:
then both sides run, left first, so every operand that can raise runs,
in syntax order, and its error surfaces as in a full evaluation.
Aggregate calls are illegal inside predicates: one raises 934 at its
own position when it is evaluated, not when it is compiled.

compile_filter turns a predicate into a filter pass: a function from
rows to the list of those where it is TRUE, in their order.  A column
compared with a non-NULL literal or with another column of its kind,
and a column IS [NOT] NULL, scan in one comprehension that makes no
Python call per row; any other predicate calls its compiled test on
each row.
"""

from __future__ import annotations

import datetime
from collections.abc import Callable, Iterable, Mapping, Sequence
from decimal import Decimal
from operator import itemgetter
from typing import TypeVar

from .errors import OraError
from .nodes import (
    AggregateCall, BoolOp, ColumnRef, Comparison, Expr, IsNull, Literal,
    Not, Predicate,
)
from .values import (
    COMPARE_OPS, DateType, NumberType, SqlType, SqlValue, Tristate,
    Varchar2Type, mismatch_code,
)

Row = Sequence[SqlValue]
Test = Callable[[Row], Tristate]
RowsWhere = Callable[[Iterable[Row]], list[Row]]
N = TypeVar("N")

# Looking up an Enum member costs about 0.2 us on Python 3.11, and the
# closures below run once per row, so they read these instead.
TRUE, FALSE, UNKNOWN = Tristate.TRUE, Tristate.FALSE, Tristate.UNKNOWN

# The Python class of every stored value of a declared type.
_VALUE_KINDS = {NumberType: Decimal, Varchar2Type: str,
                DateType: datetime.date}


def eval_predicate(rows_where: RowsWhere, rows: Iterable[Row]) -> list[Row]:
    """One filter pass: the rows where a predicate is TRUE, in order."""
    return rows_where(rows)


def compile_filter(pred: Predicate, slot_of: Mapping[ColumnRef, int],
                   type_of: Callable[[ColumnRef], SqlType],
                   ) -> tuple[RowsWhere, bool]:
    """A filter pass for pred, and whether it can raise.

    slot_of and type_of are as for compile_predicate.  A pass that can
    raise reads its rows in order, so the first row that raises does.
    """
    if isinstance(pred, IsNull) and isinstance(pred.operand, ColumnRef):
        i = slot_of[pred.operand]
        if pred.negated:
            return (lambda rows: [r for r in rows if r[i] is not None]), False
        return (lambda rows: [r for r in rows if r[i] is None]), False
    typed = (_slot_comparison(pred, slot_of, type_of)
             if isinstance(pred, Comparison) else None)
    if typed is None:
        test, raises = compile_predicate(pred, slot_of, type_of)
        return (lambda rows: [r for r in rows if test(r) is TRUE]), raises
    op, i, j, value = typed
    if j is None:
        return (lambda rows: [r for r in rows
                              if (a := r[i]) is not None and op(a, value)],
                False)
    return (lambda rows: [r for r in rows
                          if (a := r[i]) is not None
                          and (b := r[j]) is not None and op(a, b)],
            False)


def compile_predicate(pred: Predicate, slot_of: Mapping[ColumnRef, int],
                      type_of: Callable[[ColumnRef], SqlType],
                      ) -> tuple[Test, bool]:
    """A function of a row giving pred's truth value, and whether it can raise.

    slot_of gives the row slot of every column pred names, and type_of
    its declared type.  Only an aggregate call (934) or a comparison of
    two different static kinds (1722/932) can raise.
    """
    if isinstance(pred, Comparison):
        return _compile_comparison(pred, slot_of, type_of)
    if isinstance(pred, IsNull):
        when_null, when_not = (FALSE, TRUE) if pred.negated else (TRUE, FALSE)
        if isinstance(pred.operand, ColumnRef):
            slot = slot_of[pred.operand]
            return (lambda row: when_null if row[slot] is None
                    else when_not), False
        get = _compile_expr(pred.operand, slot_of)
        return (lambda row: when_null if get(row) is None else when_not,
                isinstance(pred.operand, AggregateCall))
    if isinstance(pred, Not):
        inner_test, raises = compile_predicate(pred.operand, slot_of, type_of)

        def negation(row: Row) -> Tristate:
            state = inner_test(row)
            if state is TRUE:
                return FALSE
            if state is FALSE:
                return TRUE
            return UNKNOWN
        return negation, raises
    if isinstance(pred, BoolOp):
        compiled = [compile_predicate(operand, slot_of, type_of)
                    for operand in pred.operands]
        while len(compiled) > 1:
            paired = [_combine(pred.op, *compiled[i:i + 2])
                      for i in range(0, len(compiled) - 1, 2)]
            if len(compiled) % 2:
                paired.append(compiled[-1])
            compiled = paired
        return compiled[0]
    raise AssertionError(f"unknown predicate {pred!r}")


def _combine(op: str, left: tuple[Test, bool], right: tuple[Test, bool],
             ) -> tuple[Test, bool]:
    """left op right, for op AND or OR, from each side's compiled test.

    FALSE decides an AND and TRUE an OR; the other is its identity.
    """
    (left_test, left_raises), (right_test, right_raises) = left, right
    decides, identity = (FALSE, TRUE) if op == "AND" else (TRUE, FALSE)
    if right_raises:
        def both(row: Row) -> Tristate:
            a = left_test(row)
            b = right_test(row)
            if a is decides or b is decides:
                return decides
            return b if a is identity else UNKNOWN
        return both, True

    def short(row: Row) -> Tristate:
        a = left_test(row)
        if a is decides:
            return decides
        b = right_test(row)
        return b if a is identity or b is decides else UNKNOWN
    return short, left_raises


def _compile_expr(expr: Expr, slot_of: Mapping[ColumnRef, int],
                  ) -> Callable[[Row], SqlValue]:
    if isinstance(expr, ColumnRef):
        return itemgetter(slot_of[expr])
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, AggregateCall):
        def aggregate(row: Row) -> SqlValue:
            raise OraError(934, expr.line, expr.column)
        return aggregate
    raise AssertionError(f"unknown expression {expr!r}")


def _static_kind(expr: Expr, type_of: Callable[[ColumnRef], SqlType],
                 ) -> type | None:
    """The class of every non-NULL value of expr, if it has one.

    A NULL literal, and an aggregate call, have none.
    """
    if isinstance(expr, ColumnRef):
        return _VALUE_KINDS[type(type_of(expr))]
    if isinstance(expr, Literal) and expr.value is not None:
        return type(expr.value)
    return None


# Each operator with its operands swapped.
_SWAPPED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _compile_comparison(pred: Comparison, slot_of: Mapping[ColumnRef, int],
                        type_of: Callable[[ColumnRef], SqlType],
                        ) -> tuple[Test, bool]:
    typed = _slot_comparison(pred, slot_of, type_of)
    if typed is not None:
        op, i, j, value = typed
        if j is None:
            def column_literal(row: Row) -> Tristate:
                a = row[i]
                if a is None:
                    return UNKNOWN
                return TRUE if op(a, value) else FALSE
            return column_literal, False

        def column_column(row: Row) -> Tristate:
            a = row[i]
            b = row[j]
            if a is None or b is None:
                return UNKNOWN
            return TRUE if op(a, b) else FALSE
        return column_column, False
    kinds = {_static_kind(pred.left, type_of),
             _static_kind(pred.right, type_of)} - {None}
    raises = len(kinds) > 1 or any(
        isinstance(e, AggregateCall) for e in (pred.left, pred.right))
    op = COMPARE_OPS[pred.op]
    get_left = _compile_expr(pred.left, slot_of)
    get_right = _compile_expr(pred.right, slot_of)

    def comparison(row: Row) -> Tristate:
        a = get_left(row)
        b = get_right(row)
        if a is None or b is None:
            return UNKNOWN
        if type(a) is type(b):
            return TRUE if op(a, b) else FALSE
        raise OraError(mismatch_code(type(a), type(b)),
                       pred.line, pred.column)
    return comparison, raises


def _slot_comparison(pred: Comparison, slot_of: Mapping[ColumnRef, int],
                     type_of: Callable[[ColumnRef], SqlType],
                     ) -> tuple[Callable[[SqlValue, SqlValue], bool], int,
                                int | None, SqlValue] | None:
    """pred as (op, i, j, value), read straight from the row's slots, or None.

    It is op(row[i], row[j]), or op(row[i], value) when j is None.  Only
    a comparison of a column with another column or with a non-NULL
    literal of its kind, either way round, gets one.  Stored values
    always have their column's kind, so it needs no per-row kind check
    and never raises.
    """
    left, right = pred.left, pred.right
    kind = _static_kind(left, type_of)
    if kind is None or kind is not _static_kind(right, type_of):
        return None
    op = COMPARE_OPS[pred.op]
    if isinstance(left, Literal):
        if isinstance(right, Literal):
            return None
        left, right = right, left
        op = COMPARE_OPS[_SWAPPED[pred.op]]
    if isinstance(right, Literal):
        return op, slot_of[left], None, right.value
    return op, slot_of[left], slot_of[right], None


def kind_mismatch(pred: Predicate, type_of: Callable[[ColumnRef], SqlType],
                  ) -> OraError | None:
    """The error of pred's first comparison of two different kinds.

    type_of gives a column's declared type.  Stored values always have
    their column's kind, so such a comparison raises on every row where
    neither side is NULL, and no other comparison ever raises.  A NULL
    literal, and an aggregate call, compare with anything.
    """
    for comp in predicate_nodes(pred, Comparison):
        kinds = {_static_kind(comp.left, type_of),
                 _static_kind(comp.right, type_of)} - {None}
        if len(kinds) > 1:
            return OraError(mismatch_code(*kinds), comp.line, comp.column)
    return None


def predicate_nodes(pred: Predicate, kind: type[N]) -> list[N]:
    """Every node of one class inside a predicate, in syntax order.

    The walk enters comparisons, IS NULL tests, NOT, AND/OR and the
    argument of an aggregate call, so COUNT(col) yields col as a column.
    """
    found: list[N] = []

    def walk(node: Predicate | Expr) -> None:
        if isinstance(node, kind):
            found.append(node)
        if isinstance(node, Comparison):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, BoolOp):
            for operand in node.operands:
                walk(operand)
        elif isinstance(node, (IsNull, Not)):
            walk(node.operand)
        elif isinstance(node, AggregateCall) and node.arg is not None:
            walk(node.arg)

    walk(pred)
    return found
