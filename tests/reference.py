"""Independent reference implementations used as test oracles.

Everything here recomputes expected results with deliberately different
machinery from the package: rows are dicts, numbers are ints and
Fractions, rounding is integer arithmetic, predicates are plain tuples.
Agreement between the package and this module is therefore meaningful.

Predicate shape:
    ("cmp", op, operand, operand)
    ("isnull", operand, negated)
    ("not", pred)
    ("and" | "or", pred, pred)
operand shape:
    ("col", name) | ("lit", value)
with values being None, int, Fraction, str, or datetime.date.

The SELECT oracle, the tree-walking predicate evaluator and the
statement renderer are the exceptions to the tuple shapes: they work on
parsed statement trees.  So are the per-value codec oracles, which ask
every value its kind, as the engine did before it built one codec per
column type: they work on the engine's values and types.  They write a
number from its Decimal digits and a date from its ISO text, sharing no
formatter with the engine.
"""

from __future__ import annotations

import datetime
import io
import random
import re
import string
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation, localcontext
from fractions import Fraction
from functools import reduce

from handysql.errors import OraError
from handysql.lexer import TokenKind
from handysql.nodes import (AggregateCall, AlterAddConstraint, AlterModify,
                            BoolOp, CheckBody, ColumnRef, Comparison,
                            CreateTable, Describe, FallbackBody, Insert,
                            IsNull, Literal, Not, PrimaryKeyBody, Select,
                            UniqueBody)
from handysql.persistence import SnapshotError
from handysql import shell
from handysql.render import render_expr, render_predicate
from handysql.values import (DateType, NumberType, Varchar2Type,
                             parse_date_text)

TRUE, FALSE, UNKNOWN = "T", "F", "U"

_MONTH_NAMES = ("JAN", "FEB", "MAR", "APR", "MAY", "JUN",
                "JUL", "AUG", "SEP", "OCT", "NOV", "DEC")


def date_literal_text(d: datetime.date) -> str:
    return f"{d.day:02d}-{_MONTH_NAMES[d.month - 1]}-{d.year:04d}"


def date_text(d: datetime.date) -> str:
    """DD-MON-YY, cut out of the ISO text."""
    iso = d.isoformat()  # YYYY-MM-DD, the year padded to four digits
    return f"{iso[8:10]}-{_MONTH_NAMES[int(iso[5:7]) - 1]}-{iso[2:4]}"


def number_text(value: Decimal) -> str:
    """Plain positional text of a finite decimal, by integer arithmetic.

    The coefficient's digits times ten to the exponent: trailing zeros
    for a positive exponent, and otherwise exactly -exponent digits
    after the point.  A negative zero keeps its sign.
    """
    sign, digits, exponent = value.as_tuple()
    coefficient = 0
    for digit in digits:
        coefficient = coefficient * 10 + digit
    if exponent >= 0:
        text = str(coefficient * 10 ** exponent)
    else:
        whole, fraction = divmod(coefficient, 10 ** -exponent)
        text = f"{whole}.{str(fraction).rjust(-exponent, '0')}"
    return "-" + text if sign else text


_KEYWORDS = {
    "SELECT", "FROM", "WHERE", "CREATE", "TABLE", "DESC", "DESCRIBE",
    "INSERT", "INTO", "VALUES", "ALTER", "ADD", "CONSTRAINT", "MODIFY",
    "PRIMARY", "KEY", "UNIQUE", "CHECK", "NOT", "NULL", "AND", "OR", "IS",
    "INNER", "JOIN", "ON", "AS",
    "NUMBER", "VARCHAR", "VARCHAR2", "INTEGER", "DATE",
    "AVG", "MIN", "MAX", "SUM", "COUNT",
}


# --- three-valued logic ----------------------------------------------

def not3(a: str) -> str:
    return {TRUE: FALSE, FALSE: TRUE, UNKNOWN: UNKNOWN}[a]


def and3(a: str, b: str) -> str:
    if FALSE in (a, b):
        return FALSE
    if UNKNOWN in (a, b):
        return UNKNOWN
    return TRUE


def or3(a: str, b: str) -> str:
    if TRUE in (a, b):
        return TRUE
    if UNKNOWN in (a, b):
        return UNKNOWN
    return FALSE


def compare(op: str, left, right) -> str:
    if left is None or right is None:
        return UNKNOWN
    outcome = {
        "=": left == right,
        "!=": left != right,
        "<": left < right,
        "<=": left <= right,
        ">": left > right,
        ">=": left >= right,
    }[op]
    return TRUE if outcome else FALSE


# --- predicate evaluation and rendering ------------------------------

def eval_operand(operand, row: dict):
    tag = operand[0]
    if tag == "col":
        return row[operand[1]]
    return operand[1]


def eval_pred(pred, row: dict) -> str:
    tag = pred[0]
    if tag == "cmp":
        return compare(pred[1], eval_operand(pred[2], row),
                       eval_operand(pred[3], row))
    if tag == "isnull":
        value = eval_operand(pred[1], row)
        state = TRUE if value is None else FALSE
        return not3(state) if pred[2] else state
    if tag == "not":
        return not3(eval_pred(pred[1], row))
    if tag == "and":
        return and3(eval_pred(pred[1], row), eval_pred(pred[2], row))
    return or3(eval_pred(pred[1], row), eval_pred(pred[2], row))


def operand_text(operand) -> str:
    tag, payload = operand
    if tag == "col":
        return payload
    if payload is None:
        return "NULL"
    if isinstance(payload, str):
        return "'" + payload.replace("'", "''") + "'"
    if isinstance(payload, datetime.date):
        return "'" + date_literal_text(payload) + "'"
    return str(payload)


def pred_text(pred) -> str:
    tag = pred[0]
    if tag == "cmp":
        return (f"{operand_text(pred[2])} {pred[1]} "
                f"{operand_text(pred[3])}")
    if tag == "isnull":
        suffix = "IS NOT NULL" if pred[2] else "IS NULL"
        return f"{operand_text(pred[1])} {suffix}"
    if tag == "not":
        return f"NOT ({pred_text(pred[1])})"
    return f"({pred_text(pred[1])} {pred[0].upper()} ({pred_text(pred[2])}))"


def pred_columns(pred) -> set[str]:
    tag = pred[0]
    if tag == "cmp":
        return {o[1] for o in (pred[2], pred[3]) if o[0] == "col"}
    if tag == "isnull":
        return {pred[1][1]} if pred[1][0] == "col" else set()
    if tag == "not":
        return pred_columns(pred[1])
    return pred_columns(pred[1]) | pred_columns(pred[2])


# --- aggregates ------------------------------------------------------

def fold_count(values) -> int:
    return sum(1 for v in values if v is not None)


def fold_min(values):
    present = [v for v in values if v is not None]
    return min(present) if present else None


def fold_max(values):
    present = [v for v in values if v is not None]
    return max(present) if present else None


def fold_sum(values):
    present = [v for v in values if v is not None]
    return sum(Fraction(v) for v in present) if present else None


def fold_avg(values):
    """Exact rational mean over the non-null values, unrounded."""
    present = [v for v in values if v is not None]
    if not present:
        return None
    return sum(Fraction(v) for v in present) / len(present)


def round_sig(value: Fraction, digits: int = 38) -> Fraction:
    """Half-up rounding to significant digits, by integer arithmetic."""
    if value == 0:
        return Fraction(0)
    sign = -1 if value < 0 else 1
    magnitude = abs(value)
    exponent = 0
    while magnitude >= 10 ** exponent:
        exponent += 1
    while magnitude < 10 ** (exponent - 1):
        exponent -= 1
    scaled = magnitude * Fraction(10) ** (digits - exponent)
    mantissa = (2 * scaled.numerator
                + scaled.denominator) // (2 * scaled.denominator)
    return sign * mantissa * Fraction(10) ** (exponent - digits)


# --- constraint oracle -----------------------------------------------

def null_violation(row: dict, columns) -> bool:
    return any(row[c] is None for c in columns)


def key_violation(existing: list[dict], row: dict, columns,
                  primary: bool) -> bool:
    """True when adding row would break a key over the given columns.

    A primary key also forbids NULL components.  For uniqueness, any
    tuple containing a NULL never collides with anything.
    """
    key = tuple(row[c] for c in columns)
    if None in key:
        return primary
    for other in existing:
        other_key = tuple(other[c] for c in columns)
        if None not in other_key and other_key == key:
            return True
    return False


def check_violation(pred, row: dict) -> bool:
    """CHECK fails only on definite FALSE; UNKNOWN is tolerated."""
    return eval_pred(pred, row) == FALSE


def existing_key_violation(rows: list[dict], columns,
                           primary: bool) -> tuple[str, int] | None:
    """First (reason, ordinal) a new key over stored rows would report.

    A primary key first looks for a NULL component in any row; then
    each row is checked against every row before it, so the ordinal is
    that of the later row of the first duplicate pair.
    """
    if primary:
        for i, row in enumerate(rows):
            if null_violation(row, columns):
                return ("null", i)
    for i, row in enumerate(rows):
        if key_violation(rows[:i], row, columns, primary=False):
            return ("duplicate", i)
    return None


def row_violation(constraints, columns, existing: list[dict],
                  row: dict) -> tuple[int, str, int] | None:
    """First (constraint index, reason, ordinal) a new row would report.

    constraints are (kind, columns, predicate) triples in creation
    order, kind one of "notnull", "pk", "unique" and "check", and
    columns are the table's in order.  NOT NULL comes first: the first
    column holding NULL that a NOT NULL or primary key lists violates
    the first constraint listing it, at the new row's ordinal.  Then
    each constraint in turn: a key violates at the first stored row
    holding the same key, unless the new key holds a NULL, and a CHECK
    violates on FALSE, at the new row's ordinal.
    """
    for col in columns:
        if row[col] is not None:
            continue
        for i, (kind, cols, _) in enumerate(constraints):
            if kind in ("notnull", "pk") and col in cols:
                return (i, "null", len(existing))
    for i, (kind, cols, pred) in enumerate(constraints):
        if kind in ("pk", "unique"):
            key = [row[c] for c in cols]
            if any(v is None for v in key):
                continue
            for ordinal, other in enumerate(existing):
                if [other[c] for c in cols] == key:
                    return (i, "duplicate", ordinal)
        elif kind == "check" and check_violation(pred, row):
            return (i, "check", len(existing))
    return None


def key_index(rows: list[dict], columns) -> dict:
    """A key's index by brute force: the first ordinal of each key.

    Keys holding a NULL are left out.  A one-column key is its value
    and a wider one the tuple of its values.
    """
    pairs: list[tuple] = []
    for ordinal, row in enumerate(rows):
        key = tuple(row[c] for c in columns)
        if any(v is None for v in key):
            continue
        if len(key) == 1:
            key = key[0]
        if all(other != key for other, _ in pairs):
            pairs.append((key, ordinal))
    return dict(pairs)


# --- tree-walking predicate oracle -----------------------------------

def interpret_expr(expr, resolve):
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        return resolve(expr)
    if isinstance(expr, AggregateCall):
        raise OraError(934, expr.line, expr.column)
    raise AssertionError(f"unknown expression {expr!r}")


def interpret_predicate(pred, resolve) -> str:
    """A parsed predicate's truth value, walking the tree on every call.

    resolve maps a column reference to its value.  This is the engine's
    evaluator from before predicates were compiled: comparisons read
    left then right, AND/OR always evaluate every operand, in order, and
    an aggregate raises 934 when reached.  Two non-NULL values of
    different kinds raise 1722 when one is text and the other a number,
    and 932 otherwise.
    """
    if isinstance(pred, Comparison):
        left = interpret_expr(pred.left, resolve)
        right = interpret_expr(pred.right, resolve)
        kinds = {type(left), type(right)} - {type(None)}
        if len(kinds) > 1:
            code = 1722 if kinds == {str, Decimal} else 932
            raise OraError(code, pred.line, pred.column)
        return compare(pred.op, left, right)
    if isinstance(pred, IsNull):
        is_null = interpret_expr(pred.operand, resolve) is None
        state = TRUE if is_null else FALSE
        return not3(state) if pred.negated else state
    if isinstance(pred, Not):
        return not3(interpret_predicate(pred.operand, resolve))
    if isinstance(pred, BoolOp):
        states = [interpret_predicate(p, resolve) for p in pred.operands]
        return reduce(and3 if pred.op == "AND" else or3, states)
    raise AssertionError(f"unknown predicate {pred!r}")


# --- nested-loop SELECT oracle ---------------------------------------

class Expected(Exception):
    """The error a statement must raise: (code, line, column).

    An error with no node, such as SUM over text, sits at (1, 1).
    """

    def __init__(self, code: int, node=None):
        super().__init__(code)
        self.where = ((code, node.line, node.column) if node is not None
                      else (code, 1, 1))


def _operands(pred) -> list:
    """Expressions of a predicate tree, in syntax order."""
    if isinstance(pred, Comparison):
        return [pred.left, pred.right]
    if isinstance(pred, IsNull):
        return [pred.operand]
    if isinstance(pred, Not):
        return _operands(pred.operand)
    return [expr for p in pred.operands for expr in _operands(p)]


def _columns(pred) -> list:
    return [e.arg if isinstance(e, AggregateCall) else e
            for e in _operands(pred)
            if isinstance(e, ColumnRef)
            or (isinstance(e, AggregateCall) and e.arg is not None)]


def nested_loop_select(tables: dict, stmt) -> list[list]:
    """Rows of a parsed SELECT, by brute force, or raise Expected.

    tables maps a table name to (column names, rows).  Every combination
    of rows is built first; ON filters all of them, then WHERE filters
    what is left, and errors surface in that order.  Every operand of
    AND/OR is always evaluated.  Aggregates are COUNT, MIN, MAX, and
    SUM and AVG through fold_sum, fold_avg and round_sig.
    """
    header: list[tuple[set, str]] = []  # (qualifiers, column name)
    product: list[list] = [[]]
    for tref in stmt.tables:
        if tref.table not in tables:
            raise Expected(942, tref)
        names, rows = tables[tref.table]
        qualifiers = {tref.table, tref.alias} - {None}
        header += [(qualifiers, name) for name in names]
        product = [combo + list(row) for combo in product for row in rows]

    def position(ref) -> int:
        hits = [i for i, (qualifiers, name) in enumerate(header)
                if name == ref.name
                and (ref.qualifier is None or ref.qualifier in qualifiers)]
        if not hits:
            raise Expected(904, ref)
        if len(hits) > 1:
            raise Expected(918, ref)
        return hits[0]

    def value(expr, combo):
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, AggregateCall):
            raise Expected(934, expr)
        return combo[position(expr)]

    def truth(pred, combo) -> str:
        if isinstance(pred, Comparison):
            left, right = value(pred.left, combo), value(pred.right, combo)
            if left is None or right is None:
                return UNKNOWN
            if type(left) is not type(right):
                mixed = {type(left), type(right)} == {str, Decimal}
                raise Expected(1722 if mixed else 932, pred)
            return compare(pred.op, left, right)
        if isinstance(pred, IsNull):
            state = TRUE if value(pred.operand, combo) is None else FALSE
            return not3(state) if pred.negated else state
        if isinstance(pred, Not):
            return not3(truth(pred.operand, combo))
        states = [truth(p, combo) for p in pred.operands]
        return reduce(and3 if pred.op == "AND" else or3, states)

    if stmt.join_on is not None:
        for ref in _columns(stmt.join_on):
            position(ref)
        product = [c for c in product if truth(stmt.join_on, c) == TRUE]
    if stmt.where is not None:
        for expr in _operands(stmt.where):
            if isinstance(expr, AggregateCall):
                raise Expected(934, expr)
        for ref in _columns(stmt.where):
            position(ref)
        product = [c for c in product if truth(stmt.where, c) == TRUE]

    if stmt.items is None:
        return product
    exprs = [item.expr for item in stmt.items]
    if not any(isinstance(e, AggregateCall) for e in exprs):
        cells = [(position(e), None) if isinstance(e, ColumnRef)
                 else (None, e.value) for e in exprs]
        return [[c[i] if i is not None else lit for i, lit in cells]
                for c in product]
    folded = []
    for expr in exprs:
        if isinstance(expr, Literal):
            folded.append(expr.value)
        elif isinstance(expr, ColumnRef):
            raise Expected(937, expr)
        elif expr.arg is None:
            folded.append(len(product))
        else:
            i = position(expr.arg)
            values = [c[i] for c in product]
            if expr.func in ("SUM", "AVG") and any(
                    v is not None and not isinstance(v, Decimal)
                    for v in values):
                raise Expected(1722)
            fold = {"COUNT": fold_count, "MIN": fold_min, "MAX": fold_max,
                    "SUM": fold_sum, "AVG": _rounded_avg}[expr.func]
            folded.append(fold(values))
    return [folded]


def _rounded_avg(values):
    mean = fold_avg(values)
    return None if mean is None else round_sig(mean)


# --- statement rendering ---------------------------------------------

def render_statement(stmt) -> str:
    """Canonical SQL text of a parsed statement.

    Rendering then parsing is the identity on statement trees (positions
    aside), which the round-trip tests check.  Written type spellings
    are emitted exactly as parsed.
    """
    if isinstance(stmt, CreateTable):
        cols = ", ".join(
            f"{c.name} {render_type(c.type_spec)}" for c in stmt.columns)
        return f"CREATE TABLE {stmt.table} ({cols})"
    if isinstance(stmt, Describe):
        return f"DESC {stmt.table}"
    if isinstance(stmt, Insert):
        cols = f" ({', '.join(stmt.columns)})" if stmt.columns else ""
        vals = ", ".join(render_expr(v) for v in stmt.values)
        return f"INSERT INTO {stmt.table}{cols} VALUES ({vals})"
    if isinstance(stmt, Select):
        return _render_select(stmt)
    if isinstance(stmt, AlterAddConstraint):
        return (f"ALTER TABLE {stmt.table} ADD CONSTRAINT {stmt.name} "
                + _render_body(stmt.body))
    if isinstance(stmt, AlterModify):
        tail = f" {stmt.nullability}" if stmt.nullability else ""
        return (f"ALTER TABLE {stmt.table} MODIFY {stmt.change.name} "
                f"{render_type(stmt.change.type_spec)}{tail}")
    raise AssertionError(f"unknown statement {stmt!r}")


def render_type(spec) -> str:
    if spec.args:
        return f"{spec.keyword}({','.join(str(a) for a in spec.args)})"
    return spec.keyword


def _render_select(stmt) -> str:
    if stmt.items is None:
        items = "*"
    else:
        parts = []
        for item in stmt.items:
            text = render_expr(item.expr)
            if item.alias is not None:
                alias = (f'"{item.alias}"' if item.alias_quoted
                         else item.alias)
                text = f"{text} {alias}"
            parts.append(text)
        items = ", ".join(parts)
    refs = [t.table + (f" {t.alias}" if t.alias else "") for t in stmt.tables]
    if stmt.join_on is not None:
        source = (f"{refs[0]} INNER JOIN {refs[1]} "
                  f"ON {render_predicate(stmt.join_on)}")
    else:
        source = ", ".join(refs)
    text = f"SELECT {items} FROM {source}"
    if stmt.where is not None:
        text += f" WHERE {render_predicate(stmt.where)}"
    return text


def _render_body(body) -> str:
    if isinstance(body, PrimaryKeyBody):
        return f"PRIMARY KEY ({', '.join(body.columns)})"
    if isinstance(body, UniqueBody):
        return f"UNIQUE ({', '.join(body.columns)})"
    if isinstance(body, CheckBody):
        return f"CHECK ({render_predicate(body.predicate)})"
    if isinstance(body, FallbackBody):
        return " ".join(_token_text(t) for t in body.tokens)
    raise AssertionError(f"unknown constraint body {body!r}")


def _token_text(tok) -> str:
    if tok.kind is TokenKind.STRING:
        return "'" + tok.lexeme.replace("'", "''") + "'"
    if tok.kind is TokenKind.QUOTED_IDENT:
        return f'"{tok.lexeme}"'
    return tok.lexeme


# --- lexer oracle ----------------------------------------------------

_PUNCT = {"(", ")", ",", "*", ".", "=", "!=", "<>", "<", "<=", ">", ">="}


class _Scanner:
    """Character-at-a-time cursor; only "\n" starts a new line."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def peek(self, ahead: int = 0) -> str:
        i = self.pos + ahead
        return self.text[i] if i < len(self.text) else ""

    def advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.column = 1
        else:
            self.column += 1
        return ch

    def word(self) -> str:
        parts: list[str] = []
        while self.peek() and (self.peek().isalnum() or self.peek() in "_$#"):
            parts.append(self.advance())
        return "".join(parts)

    def quoted(self, quote: str, doubled_escapes: bool) -> str:
        line, column = self.line, self.column
        self.advance()
        parts: list[str] = []
        while True:
            if self.pos >= len(self.text):
                raise OraError(1756, line, column)
            ch = self.advance()
            if ch == quote:
                if doubled_escapes and self.peek() == quote:
                    parts.append(self.advance())
                    continue
                return "".join(parts)
            parts.append(ch)

    def number(self) -> str:
        parts: list[str] = []
        if self.peek() == "-":
            parts.append(self.advance())
        while self.peek().isdecimal():
            parts.append(self.advance())
        if self.peek() == "." and self.peek(1).isdecimal():
            parts.append(self.advance())
            while self.peek().isdecimal():
                parts.append(self.advance())
        return "".join(parts)


def _ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _fold_char(ch: str) -> str:
    """One character of a word as an unquoted name reads it.

    Its upper case, when that is a single character on the same side of
    code point 128; otherwise the character itself.
    """
    up = ch.upper()
    if len(up) == 1 and (ord(up) < 128) == (ord(ch) < 128):
        return up
    return ch


def reference_tokenize(text: str) -> list[tuple]:
    """(kind, lexeme, line, column) of each token, scanned by hand.

    The engine's lexer before it became one regular expression, except
    that numbers take str.isdecimal digits where it took str.isdigit,
    and a word folds a character at a time (_fold_char), not by
    str.upper.
    Errors raise OraError: 1756 at an unclosed quote, 900 elsewhere.
    """
    sc = _Scanner(text)
    tokens: list[tuple] = []
    while sc.pos < len(text):
        ch = sc.peek()
        if ch.isspace():
            sc.advance()
            continue
        line, column = sc.line, sc.column
        if ch == "'":
            kind, lexeme = TokenKind.STRING, sc.quoted("'", True)
        elif ch == '"':
            kind, lexeme = TokenKind.QUOTED_IDENT, sc.quoted('"', False)
        elif ch.isdecimal() or (ch == "-" and sc.peek(1).isdecimal()):
            kind, lexeme = TokenKind.NUMBER, sc.number()
        elif _ident_start(ch):
            lexeme = "".join(_fold_char(c) for c in sc.word())
            kind = (TokenKind.KEYWORD if lexeme in _KEYWORDS
                    else TokenKind.IDENT)
        elif ch == "&" and _ident_start(sc.peek(1)):
            sc.advance()
            kind, lexeme = TokenKind.SUBST, "&" + sc.word()
        elif ch in _PUNCT or ch == "!":
            two = ch + sc.peek(1)
            lexeme = two if len(two) == 2 and two in _PUNCT else ch
            if lexeme not in _PUNCT:
                raise OraError(900, line, column)
            for _ in lexeme:
                sc.advance()
            kind = TokenKind.PUNCT
        else:
            raise OraError(900, line, column)
        tokens.append((kind, lexeme, line, column))
    return tokens


# --- values, one kind question per value ----------------------------

def coerce_value(value, target):
    """Fit a literal value into a column type, or raise.

    Numbers round fractional digits beyond the scale half-up and must
    fit the precision afterwards (1438).  Strings must fit the declared
    length (12899) and parse as dates for DATE columns (1858).  Text is
    never implicitly accepted as a number (1722); other cross-kind
    moves are 932.
    """
    if value is None:
        return None
    if isinstance(target, NumberType):
        if isinstance(value, Decimal):
            with localcontext() as ctx:
                ctx.prec = 240
                try:
                    rounded = value.quantize(
                        Decimal(1).scaleb(-target.scale),
                        rounding=ROUND_HALF_UP)
                except InvalidOperation:
                    raise OraError(1438) from None
                if abs(rounded) >= Decimal(1).scaleb(
                        target.precision - target.scale):
                    raise OraError(1438)
            return rounded
        if isinstance(value, str):
            raise OraError(1722)
        raise OraError(932)
    if isinstance(target, Varchar2Type):
        if isinstance(value, str):
            if len(value) > target.max_len:
                raise OraError(12899)
            return value
        raise OraError(932)
    if isinstance(value, datetime.date):
        return value
    if isinstance(value, str):
        return parse_date_text(value)
    raise OraError(932)


def escape_cell(value) -> str:
    """A value's snapshot cell."""
    if value is None:
        return "\\N"
    if isinstance(value, Decimal):
        return number_text(value)
    if isinstance(value, datetime.date):
        return value.isoformat()
    return (value.replace("\\", "\\\\")
                .replace("\t", "\\t")
                .replace("\n", "\\n")
                .replace("\r", "\\r"))


_UNESCAPE = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r", "e": ""}
_ESCAPE_SEQ = re.compile(r"\\(.)", re.DOTALL)


def _unescape_one(match) -> str:
    try:
        return _UNESCAPE[match.group(1)]
    except KeyError:
        raise SnapshotError(f"bad escape \\{match.group(1)}") from None


def unescape_cell(text: str) -> str:
    """Undo escape_cell's escapes; a lone final backslash stays."""
    return _ESCAPE_SEQ.sub(_unescape_one, text)


def parse_row(columns: list, line: str) -> list:
    """One snapshot ROWS line of a table with these ColumnSchemas."""
    cells = line.split("\t")
    if len(cells) != len(columns):
        raise SnapshotError(
            f"row width {len(cells)} != {len(columns)} columns")
    row = []
    for cell, col in zip(cells, columns):
        if cell == "\\N":
            row.append(None)
            continue
        text = unescape_cell(cell)
        ctype = col.type
        try:
            if isinstance(ctype, Varchar2Type):
                value = coerce_value(text, ctype)
            elif isinstance(ctype, DateType):
                value = datetime.date.fromisoformat(text)
            else:
                value = coerce_value(Decimal(text), ctype)
        except (OraError, ValueError, ArithmeticError) as err:
            raise SnapshotError(
                f"bad value {text!r} for column {col.name}: {err}") from None
        row.append(value)
    return row


def cell_text(value) -> str:
    """A value's text in a result set."""
    if value is None:
        return ""
    if isinstance(value, Decimal):
        return number_text(value)
    if isinstance(value, str):
        return value
    return date_text(value)


def render_result_set(headers: list[str], rows: list[list]) -> list[str]:
    """A result set's lines; number cells are right-aligned."""
    if not rows:
        return ["no rows selected"]
    texts = [[cell_text(value) for value in row] for row in rows]
    widths = [max(len(header), *(len(row[i]) for row in texts))
              for i, header in enumerate(headers)]
    lines = [" ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append(" ".join("-" * w for w in widths))
    for row, cells in zip(rows, texts):
        lines.append(" ".join(
            text.rjust(width) if isinstance(value, Decimal)
            else text.ljust(width)
            for value, text, width in zip(row, cells, widths)).rstrip())
    lines.append("")
    return lines


# --- generators ------------------------------------------------------

def gen_name(rng: random.Random, used: set[str], max_len: int = 8) -> str:
    while True:
        length = rng.randint(1, max_len)
        name = rng.choice(string.ascii_uppercase)
        name += "".join(rng.choice(string.ascii_uppercase + "0123456789_")
                        for _ in range(length - 1))
        if name not in _KEYWORDS and name not in used:
            used.add(name)
            return name


def gen_number(rng: random.Random, precision: int = 5, scale: int = 0):
    limit = 10 ** precision - 1
    numerator = rng.randint(-limit, limit)
    if scale == 0:
        return numerator
    return Fraction(numerator, 10 ** scale)


def gen_text(rng: random.Random, max_len: int = 8) -> str:
    length = rng.randint(0, max_len)
    return "".join(rng.choice(string.ascii_uppercase) for _ in range(length))


def gen_date(rng: random.Random) -> datetime.date:
    base = datetime.date(1960, 1, 1)
    return base + datetime.timedelta(days=rng.randint(0, 30000))


def gen_value(rng: random.Random, kind: str, null_rate: float = 0.25):
    if rng.random() < null_rate:
        return None
    if kind == "number":
        return gen_number(rng)
    if kind == "text":
        return gen_text(rng)
    return gen_date(rng)


def gen_operand(rng: random.Random, columns: dict[str, str], kind: str):
    named = [c for c, k in columns.items() if k == kind]
    if named and rng.random() < 0.7:
        return ("col", rng.choice(named))
    return ("lit", gen_value(rng, kind, null_rate=0.1))


def gen_predicate(rng: random.Random, columns: dict[str, str],
                  depth: int = 2):
    """Random predicate over columns ({name: kind}), well-kinded."""
    if depth > 0 and rng.random() < 0.5:
        shape = rng.choice(["and", "or", "not"])
        if shape == "not":
            return ("not", gen_predicate(rng, columns, depth - 1))
        return (shape, gen_predicate(rng, columns, depth - 1),
                gen_predicate(rng, columns, depth - 1))
    if rng.random() < 0.2:
        kind = rng.choice(["number", "text", "date"])
        return ("isnull", gen_operand(rng, columns, kind),
                rng.random() < 0.5)
    kind = rng.choice(["number", "text", "date"])
    op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
    return ("cmp", op, gen_operand(rng, columns, kind),
            gen_operand(rng, columns, kind))


def gen_columns(rng: random.Random, used: set[str],
                n_min: int = 1, n_max: int = 4) -> dict[str, str]:
    count = rng.randint(n_min, n_max)
    return {gen_name(rng, used): rng.choice(["number", "text", "date"])
            for _ in range(count)}


def gen_rows(rng: random.Random, columns: dict[str, str],
             n_max: int = 5) -> list[dict]:
    return [{c: gen_value(rng, k) for c, k in columns.items()}
            for _ in range(rng.randint(0, n_max))]


def sql_type(kind: str) -> str:
    return {"number": "NUMBER(10,4)", "text": "VARCHAR2(30)",
            "date": "DATE"}[kind]


def sql_literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, datetime.date):
        return "'" + date_literal_text(value) + "'"
    if isinstance(value, Fraction):
        # Denominators from gen_number divide a power of ten, so a
        # finite decimal spelling always exists.
        scale = 0
        while (value * 10 ** scale).denominator != 1:
            scale += 1
        scaled = abs(value.numerator) * 10 ** scale // value.denominator
        digits = str(scaled).rjust(scale + 1, "0")
        sign = "-" if value < 0 else ""
        if scale:
            return f"{sign}{digits[:-scale]}.{digits[-scale:]}"
        return f"{sign}{digits}"
    return str(value)


# --- script replay, a line at a time ----------------------------------

def _skip_comments(stream, binds: list[tuple[str, str]]) -> None:
    """Consume the "--" lines next in a script, collecting their binds."""
    while True:
        start = stream.tell()
        line = stream.readline()
        if not line.lstrip().startswith("--"):
            stream.seek(start)
            return
        bind = shell.parse_bind(line)
        if bind is not None:
            binds.append(bind)


def run_script(session, path: str) -> None:
    """shell.run_script as a piped session reads: one line at a time.

    The file becomes the session's input stream, each line goes through
    Session.read_line's prompt, echo and flush, "--" lines at statement
    start are skipped by tell, readline and seek, and each statement
    runs as soon as read_statement returns it, its lines written one at
    a time.
    """
    with open(path) as fh:
        session.instream = io.StringIO(fh.read())
    session.echo_input = True
    binds: list[tuple[str, str]] = []

    def read_line(prompt: str):
        if prompt == shell.PROMPT:
            _skip_comments(session.instream, binds)
        return session.read_line(prompt)

    while (text := shell.read_statement(read_line)) is not None:
        for line in shell.execute_statement(session, text, binds):
            session.out.write(line + "\n")
        binds = []
