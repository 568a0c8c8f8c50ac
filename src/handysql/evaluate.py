"""Row-level predicate evaluation shared by WHERE, ON and CHECK.

The caller supplies a resolver mapping column references to runtime
values; this module only knows Kleene logic and value comparison.
Aggregate calls are illegal inside predicates (934).
"""

from __future__ import annotations

from typing import Callable, TypeVar

from .errors import OraError
from .nodes import (
    AggregateCall, BoolOp, ColumnRef, Comparison, Expr, IsNull, Literal,
    Not, Predicate,
)
from .values import SqlValue, Tristate, and3, compare_values, from_bool, not3, or3

Resolver = Callable[[ColumnRef], SqlValue]
N = TypeVar("N")


def eval_expr(expr: Expr, resolve: Resolver) -> SqlValue:
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        return resolve(expr)
    if isinstance(expr, AggregateCall):
        raise OraError(934, expr.line, expr.column)
    raise AssertionError(f"unknown expression {expr!r}")


def eval_predicate(pred: Predicate, resolve: Resolver) -> Tristate:
    if isinstance(pred, Comparison):
        left = eval_expr(pred.left, resolve)
        right = eval_expr(pred.right, resolve)
        try:
            return compare_values(left, right, pred.op)
        except OraError as err:
            raise OraError(err.code, pred.line, pred.column) from None
    if isinstance(pred, IsNull):
        is_null = eval_expr(pred.operand, resolve) is None
        return from_bool(is_null != pred.negated)
    if isinstance(pred, Not):
        return not3(eval_predicate(pred.operand, resolve))
    if isinstance(pred, BoolOp):
        left = eval_predicate(pred.left, resolve)
        right = eval_predicate(pred.right, resolve)
        return and3(left, right) if pred.op == "AND" else or3(left, right)
    raise AssertionError(f"unknown predicate {pred!r}")


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
