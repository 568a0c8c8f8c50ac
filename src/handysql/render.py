"""Canonical SQL text for expressions and predicates.

Select-list headers and snapshot CHECK lines use it.  Rendering then
parsing a predicate gives the same tree (positions aside): parentheses
appear exactly where precedence needs them.  An AND or OR chain is its
operands joined by its op; no operand is a chain of the same op, so
only an OR inside an AND, or a chain inside a NOT, is parenthesised.
"""

from __future__ import annotations

from decimal import Decimal

from .nodes import (
    AggregateCall, BoolOp, ColumnRef, Comparison, Expr, IsNull, Literal, Not,
    Predicate,
)
from .values import format_number

_PREC_OR = 1
_PREC_AND = 2
_PREC_NOT = 3
_PREC_ATOM = 4


def render_expr(expr: Expr) -> str:
    if isinstance(expr, ColumnRef):
        if expr.qualifier:
            return f"{expr.qualifier}.{expr.name}"
        return expr.name
    if isinstance(expr, Literal):
        return _literal_text(expr)
    if isinstance(expr, AggregateCall):
        inner = render_expr(expr.arg) if expr.arg is not None else "*"
        return f"{expr.func}({inner})"
    raise AssertionError(f"unknown expression {expr!r}")


def render_predicate(pred: Predicate) -> str:
    return _render_pred(pred, 0)


def _render_pred(pred: Predicate, parent_prec: int) -> str:
    if isinstance(pred, Comparison):
        text = (f"{render_expr(pred.left)} {pred.op} "
                f"{render_expr(pred.right)}")
        prec = _PREC_ATOM
    elif isinstance(pred, IsNull):
        verb = "IS NOT NULL" if pred.negated else "IS NULL"
        text = f"{render_expr(pred.operand)} {verb}"
        prec = _PREC_ATOM
    elif isinstance(pred, Not):
        text = "NOT " + _render_pred(pred.operand, _PREC_NOT)
        prec = _PREC_NOT
    elif isinstance(pred, BoolOp):
        prec = _PREC_AND if pred.op == "AND" else _PREC_OR
        text = f" {pred.op} ".join(
            [_render_pred(operand, prec) for operand in pred.operands])
    else:
        raise AssertionError(f"unknown predicate {pred!r}")
    if prec < parent_prec:
        return f"({text})"
    return text


def _literal_text(lit: Literal) -> str:
    if lit.value is None:
        return "NULL"
    if isinstance(lit.value, Decimal):
        return format_number(lit.value)
    return "'" + lit.value.replace("'", "''") + "'"
