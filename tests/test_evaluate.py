"""Compiled predicates against the tree-walking oracle, NoREC-style.

Rigger and Su (ESEC/FSE 2020) check an optimized evaluation against a
plain one on random inputs.  Here the optimized side is
evaluate.compile_predicate and the plain side is
reference.interpret_predicate: on every row both must give the same
truth value or raise the same (code, line, column).
"""

import datetime
import itertools
from decimal import Decimal

from hypothesis import given, settings, strategies as st

import reference
from handysql.errors import OraError
from conftest import REF_TRUTH
from handysql.evaluate import compile_predicate, eval_predicate
from handysql.nodes import (AggregateCall, BoolOp, ColumnRef, Comparison,
                            IsNull, Literal, Not)

WIDTH = 3
SLOT_OF = {ColumnRef(f"C{i}"): i for i in range(WIDTH)}

# Numbers at several scales, so equal values differ in Decimal form;
# text that looks like a number; dates.  Every kind meets every other.
VALUES = st.one_of(
    st.none(),
    st.sampled_from(("0", "1", "1.0", "1.00", "-1", "2.5", "2.50"))
      .map(Decimal),
    st.sampled_from(("", "1", "A", "a", "B")),
    st.sampled_from((datetime.date(1990, 1, 1), datetime.date(2001, 5, 9))),
)
ROWS = st.lists(st.lists(VALUES, min_size=WIDTH, max_size=WIDTH),
                max_size=4)


@st.composite
def predicates(draw, max_depth=3):
    """A random predicate tree; every node has its own position."""
    positions = itertools.count(1)

    def expr():
        line = next(positions)
        # Mostly columns and literals: an aggregate anywhere makes most
        # rows raise.
        shape = draw(st.integers(0, 14))
        if shape == 0:
            arg = draw(st.sampled_from((None, *SLOT_OF)))
            return AggregateCall("COUNT", arg, line=line, column=1)
        if shape <= 7:
            return Literal(draw(VALUES), line=line, column=1)
        return ColumnRef(f"C{draw(st.integers(0, WIDTH - 1))}",
                         line=line, column=1)

    def pred(depth):
        shape = draw(st.sampled_from(
            ("cmp", "cmp", "isnull", "not", "and", "or")
            if depth else ("cmp", "cmp", "isnull")))
        line = next(positions)
        if shape == "cmp":
            op = draw(st.sampled_from(("=", "!=", "<", "<=", ">", ">=")))
            return Comparison(op, expr(), expr(), line=line, column=2)
        if shape == "isnull":
            return IsNull(expr(), draw(st.booleans()), line=line, column=2)
        if shape == "not":
            return Not(pred(depth - 1))
        return BoolOp(shape.upper(), pred(depth - 1), pred(depth - 1))

    return pred(draw(st.integers(0, max_depth)))


def outcome(evaluate):
    try:
        return evaluate()
    except OraError as err:
        return (err.code, err.line, err.column)


@settings(max_examples=400)
@given(predicates(), ROWS)
def test_compiled_predicate_matches_tree_walk(pred, rows):
    # Compiling never raises: an aggregate's 934 waits for a row.
    test = compile_predicate(pred, SLOT_OF)
    for row in rows:
        expected = outcome(lambda: reference.interpret_predicate(
            pred, lambda ref: row[SLOT_OF[ref]]))
        got = outcome(lambda: REF_TRUTH[eval_predicate(test, row)])
        assert got == expected
