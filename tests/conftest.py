import datetime
import io
from decimal import Decimal

import pytest

import reference
from handysql import conformance, executor
from handysql.evaluate import compile_predicate, predicate_nodes
from handysql.executor import Database
from handysql.nodes import ColumnRef
from handysql.parser import parse_standalone_predicate
from handysql.shell import Session, execute_statement
from handysql.values import DateType, NumberType, Tristate, Varchar2Type

# The reference's name for each engine truth value.
REF_TRUTH = {Tristate.TRUE: reference.TRUE, Tristate.FALSE: reference.FALSE,
             Tristate.UNKNOWN: reference.UNKNOWN}
# A value of A (or B) that makes "A = 1" take each reference truth value.
SETTING = {reference.TRUE: Decimal(1), reference.FALSE: Decimal(2),
           reference.UNKNOWN: None}


def make_session(db: Database | None = None) -> Session:
    return Session(db if db is not None else Database(),
                   out=io.StringIO(), instream=io.StringIO(), quiet=True)


def run_sql(session: Session, text: str, bindings=None) -> list[str]:
    return execute_statement(session, text, bindings)


def ora_code(block: list[str]) -> int | None:
    """The ORA code of an error block, or None for a success block."""
    for line in block:
        if line.startswith("ORA-"):
            return int(line[4:9])
    return None


# A declared type of each kind of value; a NULL fits any column.
_TYPE_OF_VALUE = {Decimal: NumberType(), str: Varchar2Type(4000),
                  datetime.date: DateType(), type(None): NumberType()}


def truth(text: str, a=None, b=None):
    """A predicate over columns A and B, compiled, on the row (a, b).

    Each column is declared with the type of its value.
    """
    pred = parse_standalone_predicate(text)
    row = [a, b]
    slot_of = {ref: "AB".index(ref.name)
               for ref in predicate_nodes(pred, ColumnRef)}
    test, _ = compile_predicate(
        pred, slot_of, lambda ref: _TYPE_OF_VALUE[type(row[slot_of[ref]])])
    return test(row)


def nested(depth: int) -> str:
    """A predicate over A, NOT and "(" nesting depth deep in turns.

    Its NOT (A = 0 OR ...) levels make it TRUE for A = 1 alone when
    depth is a multiple of 4, and UNKNOWN for NULL.
    """
    half, odd = divmod(depth, 2)
    return "NOT (A = 0 OR " * half + "NOT " * odd + "A = 1" + ")" * half


@pytest.fixture
def session() -> Session:
    return make_session()


@pytest.fixture
def classroom() -> Session:
    return make_session(conformance.load_fixture("classroom_full"))


@pytest.fixture
def passes(monkeypatch) -> list[tuple[int, int | None]]:
    """Each filter pass a statement runs: (rows read, their width).

    executor.eval_predicate runs one pass over its rows.  The wrapper
    reads them out first, so a pass over a join counts the joined rows.
    The width is the one length of its rows, None when it reads none.
    """
    seen: list[tuple[int, int | None]] = []
    original = executor.eval_predicate

    def counting(rows_where, rows):
        rows = list(rows)
        widths = {len(row) for row in rows}
        assert len(widths) <= 1
        seen.append((len(rows), widths.pop() if widths else None))
        return original(rows_where, rows)

    monkeypatch.setattr(executor, "eval_predicate", counting)
    return seen
