"""Row-level predicates shared by WHERE, ON and CHECK, compiled once.

compile_predicate turns a predicate tree into nested closures over the
slots of a row, given the slot of every column it names: a column
becomes operator.itemgetter(slot) and a literal a constant.  The
closures follow Kleene logic.  A comparison reads its left operand,
then its right; NULL on either side is UNKNOWN, and values of two
different kinds raise 1722 or 932 at the comparison.  kind_mismatch
finds such a comparison before any row is read.  AND and OR
evaluate both sides, left first, so an error on the right surfaces
even when the left already decides the result.  Aggregate calls are
illegal inside predicates: one raises 934 at its own position when it
is evaluated, not when it is compiled.
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


def compile_predicate(pred: Predicate,
                      slot_of: Mapping[ColumnRef, int]) -> Test:
    """A function of a row giving pred's truth value on it."""
    if isinstance(pred, Comparison):
        return _compile_comparison(pred, slot_of)
    if isinstance(pred, IsNull):
        get = _compile_expr(pred.operand, slot_of)
        when_null, when_not = (FALSE, TRUE) if pred.negated else (TRUE, FALSE)
        return lambda row: when_null if get(row) is None else when_not
    if isinstance(pred, Not):
        inner = compile_predicate(pred.operand, slot_of)

        def negation(row: Row) -> Tristate:
            state = inner(row)
            if state is TRUE:
                return FALSE
            if state is FALSE:
                return TRUE
            return UNKNOWN
        return negation
    if isinstance(pred, BoolOp):
        left = compile_predicate(pred.left, slot_of)
        right = compile_predicate(pred.right, slot_of)
        if pred.op == "AND":
            def conjunction(row: Row) -> Tristate:
                a = left(row)
                b = right(row)
                if a is FALSE or b is FALSE:
                    return FALSE
                if a is TRUE and b is TRUE:
                    return TRUE
                return UNKNOWN
            return conjunction

        def disjunction(row: Row) -> Tristate:
            a = left(row)
            b = right(row)
            if a is TRUE or b is TRUE:
                return TRUE
            if a is FALSE and b is FALSE:
                return FALSE
            return UNKNOWN
        return disjunction
    raise AssertionError(f"unknown predicate {pred!r}")


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


def _compile_comparison(pred: Comparison,
                        slot_of: Mapping[ColumnRef, int]) -> Test:
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
    return comparison


def kind_mismatch(pred: Predicate, type_of: Callable[[ColumnRef], SqlType],
                  ) -> OraError | None:
    """The error of pred's first comparison of two different kinds.

    type_of gives a column's declared type.  Stored values always have
    their column's kind, so such a comparison raises on every row where
    neither side is NULL, and no other comparison ever raises.  A NULL
    literal, and an aggregate call, compare with anything.
    """
    def kind(expr: Expr) -> type | None:
        if isinstance(expr, ColumnRef):
            return _VALUE_KINDS[type(type_of(expr))]
        if isinstance(expr, Literal) and expr.value is not None:
            return type(expr.value)
        return None

    for comp in predicate_nodes(pred, Comparison):
        kinds = {kind(comp.left), kind(comp.right)} - {None}
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
