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
AND and OR skip their right side once the left side decides, unless
the right side can raise: then both sides run, left first, so its
error surfaces as in a full evaluation.  Aggregate calls are illegal
inside predicates: one raises 934 at its own position when it is
evaluated, not when it is compiled.
"""

from __future__ import annotations

import datetime
from collections.abc import Callable, Mapping, Sequence
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
N = TypeVar("N")

# Looking up an Enum member costs about 0.2 us on Python 3.11, and the
# closures below run once per row, so they read these instead.
TRUE, FALSE, UNKNOWN = Tristate.TRUE, Tristate.FALSE, Tristate.UNKNOWN

# The Python class of every stored value of a declared type.
_VALUE_KINDS = {NumberType: Decimal, Varchar2Type: str,
                DateType: datetime.date}


def eval_predicate(test: Test, row: Row) -> Tristate:
    """One evaluation of a compiled predicate on one row."""
    return test(row)


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
        left, left_raises = compile_predicate(pred.left, slot_of, type_of)
        right, right_raises = compile_predicate(pred.right, slot_of, type_of)
        raises = left_raises or right_raises
        if pred.op == "AND":
            if right_raises:
                def conjunction(row: Row) -> Tristate:
                    a = left(row)
                    b = right(row)
                    if a is FALSE or b is FALSE:
                        return FALSE
                    if a is TRUE and b is TRUE:
                        return TRUE
                    return UNKNOWN
                return conjunction, raises
            return conjoin(left, right), raises
        if right_raises:
            def disjunction(row: Row) -> Tristate:
                a = left(row)
                b = right(row)
                if a is TRUE or b is TRUE:
                    return TRUE
                if a is FALSE and b is FALSE:
                    return FALSE
                return UNKNOWN
            return disjunction, raises

        def short_disjunction(row: Row) -> Tristate:
            a = left(row)
            if a is TRUE:
                return TRUE
            b = right(row)
            if a is FALSE or b is TRUE:
                return b
            return UNKNOWN
        return short_disjunction, raises
    raise AssertionError(f"unknown predicate {pred!r}")


def conjoin(left: Test, right: Test) -> Test:
    """left AND right, for a right that cannot raise.

    right runs only on rows where left is not FALSE.
    """
    def short_conjunction(row: Row) -> Tristate:
        a = left(row)
        if a is FALSE:
            return FALSE
        b = right(row)
        if a is TRUE or b is FALSE:
            return b
        return UNKNOWN
    return short_conjunction


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
    typed = _typed_comparison(pred, slot_of, type_of)
    if typed is not None:
        return typed, False
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


def _typed_comparison(pred: Comparison, slot_of: Mapping[ColumnRef, int],
                      type_of: Callable[[ColumnRef], SqlType],
                      ) -> Test | None:
    """pred read straight from the row's slots, or None.

    Only a comparison whose two sides have one static kind, neither
    NULL, gets one.  Stored values always have their column's kind, so
    it needs no per-row kind check and never raises.
    """
    left, right = pred.left, pred.right
    kind = _static_kind(left, type_of)
    if kind is None or kind is not _static_kind(right, type_of):
        return None
    if isinstance(left, Literal):
        if isinstance(right, Literal):
            state = TRUE if COMPARE_OPS[pred.op](left.value,
                                                 right.value) else FALSE
            return lambda row: state
        left, right = right, left
        op = COMPARE_OPS[_SWAPPED[pred.op]]
    else:
        op = COMPARE_OPS[pred.op]
    i = slot_of[left]
    if isinstance(right, Literal):
        value = right.value

        def column_literal(row: Row) -> Tristate:
            a = row[i]
            if a is None:
                return UNKNOWN
            return TRUE if op(a, value) else FALSE
        return column_literal
    j = slot_of[right]

    def column_column(row: Row) -> Tristate:
        a = row[i]
        b = row[j]
        if a is None or b is None:
            return UNKNOWN
        return TRUE if op(a, b) else FALSE
    return column_column


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
        if isinstance(node, (Comparison, BoolOp)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, (IsNull, Not)):
            walk(node.operand)
        elif isinstance(node, AggregateCall) and node.arg is not None:
            walk(node.arg)

    walk(pred)
    return found
