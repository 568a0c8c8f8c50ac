"""Recursive-descent parser with one-token lookahead.

parse_text reads an INSERT INTO t [(cols)] VALUES (literals) with ASCII
names, plain numbers, NULL and strings without a line break by one
regex match, with no token list, into the tree and positions the token
path gives.  Every other text goes through parse(tokenize(text)), so
every error comes from the one general path.

Grammar violations raise positioned OraErrors: an absent expression is
936, junk where an alias or FROM belongs is 923, and anything outside
the documented failure shapes falls back to 900.  A constraint clause
that is neither PRIMARY KEY, UNIQUE nor CHECK parses into a fallback
body so the catalog can produce the add-column diagnostic.

The token stream gets one END token appended, so lookahead never runs
out; an error found at END is reported at the last real token.  NOTs
and parentheses nest at most MAX_NESTING deep in a predicate; the one
that goes deeper is 900, well before the interpreter's recursion limit.
An AND or OR chain of any length is one BoolOp, built in a loop.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from decimal import Decimal
from typing import TypeVar

from .errors import OraError
from .lexer import AGGREGATE_FUNCS, KEYWORDS, Token, TokenKind, tokenize
from .nodes import (
    AggregateCall, AlterAddConstraint, AlterModify, BoolOp, CheckBody,
    ColumnClause, ColumnRef, Comparison, CreateTable, Describe, Expr,
    FallbackBody, Insert, IsNull, Literal, Not, Predicate, PrimaryKeyBody,
    Select, SelectItem, Statement, TableRef, TypeSpec, UniqueBody,
    chain_operands,
)

_COMPARE_PUNCT = {"=", "!=", "<>", "<", "<=", ">", ">="}
# Tokens that legitimately follow an expression slot; hitting one where
# an expression should start means the expression is missing (936).
_EXPR_TERMINATORS = {",", ")"}
_END = Token(TokenKind.END, "")
# How deep NOTs and parentheses may nest in one predicate.
MAX_NESTING = 100
# Looking up an Enum member costs about 0.17 us on Python 3.11, and the
# parser tests token kinds several times per token.
_KEYWORD, _PUNCT, _IDENT = TokenKind.KEYWORD, TokenKind.PUNCT, TokenKind.IDENT
_NUMBER, _STRING = TokenKind.NUMBER, TokenKind.STRING
_QUOTED_IDENT = TokenKind.QUOTED_IDENT

_T = TypeVar("_T")


def _lexemes(tokens: list[Token]) -> tuple[str, ...]:
    return tuple(t.lexeme for t in tokens)


def _chain(op: str, operands: list[Predicate]) -> BoolOp:
    """One op chain of two or more operands, groups of op flattened."""
    flat: list[Predicate] = []
    for pred in operands:
        flat += chain_operands(pred, op)
    return BoolOp(op, tuple(flat))


class _Parser:
    def __init__(self, tokens: list[Token]):
        if not tokens:
            # An empty statement (a lone ";") is invalid where it starts.
            raise OraError(900, 1, 1)
        self.tokens = [*tokens, _END]
        self.pos = 0
        self.depth = 0  # of the NOTs and parentheses open in a predicate

    # -- stream helpers ------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, code: int) -> OraError:
        """Error at the current token; at the end, at the last real one."""
        tok = self.tokens[self.pos]
        if tok is _END:
            tok = self.tokens[-2]
        return OraError(code, tok.line, tok.column)

    def accept_kw(self, word: str) -> Token | None:
        tok = self.tokens[self.pos]
        if tok.kind is _KEYWORD and tok.lexeme == word:
            self.pos += 1
            return tok
        return None

    def accept_punct(self, mark: str) -> Token | None:
        tok = self.tokens[self.pos]
        if tok.kind is _PUNCT and tok.lexeme == mark:
            self.pos += 1
            return tok
        return None

    def expect_kw(self, word: str) -> Token:
        tok = self.accept_kw(word)
        if tok is None:
            raise self.fail(900)
        return tok

    def expect_punct(self, mark: str) -> Token:
        tok = self.accept_punct(mark)
        if tok is None:
            raise self.fail(900)
        return tok

    def expect_ident(self) -> Token:
        if self.tokens[self.pos].kind is not _IDENT:
            raise self.fail(900)
        return self.advance()

    def expect_end(self) -> None:
        if self.tokens[self.pos] is not _END:
            raise self.fail(900)

    def comma_list(self, rule: Callable[[], _T]) -> list[_T]:
        items = [rule()]
        while self.accept_punct(","):
            items.append(rule())
        return items

    # -- statements ----------------------------------------------------

    def statement(self) -> Statement:
        tok = self.peek()
        if tok.kind is not _KEYWORD or tok.lexeme not in _STATEMENTS:
            raise self.fail(900)
        self.advance()
        return _STATEMENTS[tok.lexeme](self)

    def create_table(self) -> CreateTable:
        self.expect_kw("TABLE")
        name = self.expect_ident()
        self.expect_punct("(")
        columns = self.comma_list(self.column_def)
        self.expect_punct(")")
        self.expect_end()
        return CreateTable(name.lexeme, tuple(columns), name.line, name.column)

    def column_def(self) -> ColumnClause:
        name = self.expect_ident()
        spec = self.type_spec()
        return ColumnClause(name.lexeme, spec, name.line, name.column)

    def type_spec(self) -> TypeSpec:
        tok = self.peek()
        if tok.kind is not _KEYWORD:
            raise self.fail(900)
        args: tuple[int, ...] = ()
        if tok.lexeme == "NUMBER":
            self.advance()
            if self.accept_punct("("):
                args = (self.unsigned_int(),)
                if self.accept_punct(","):
                    args += (self.unsigned_int(),)
                self.expect_punct(")")
        elif tok.lexeme in ("VARCHAR", "VARCHAR2"):
            self.advance()
            self.expect_punct("(")
            args = (self.unsigned_int(),)
            self.expect_punct(")")
        elif tok.lexeme in ("INTEGER", "DATE"):
            self.advance()
        else:
            raise self.fail(900)
        return TypeSpec(tok.lexeme, args, tok.line, tok.column)

    def unsigned_int(self) -> int:
        tok = self.peek()
        if tok.kind is not _NUMBER or not tok.lexeme.isdigit():
            raise self.fail(900)
        self.advance()
        return int(tok.lexeme)

    def describe(self) -> Describe:
        name = self.expect_ident()
        self.expect_end()
        return Describe(name.lexeme, name.line, name.column)

    def insert(self) -> Insert:
        self.expect_kw("INTO")
        name = self.expect_ident()
        columns: tuple[str, ...] | None = None
        column_positions: tuple[tuple[int, int], ...] = ()
        if self.peek().is_punct("("):
            cols = self.paren_ident_list()
            columns = _lexemes(cols)
            column_positions = tuple((t.line, t.column) for t in cols)
        self.expect_kw("VALUES")
        self.expect_punct("(")
        values = self.comma_list(self.value_literal)
        rparen = self.expect_punct(")")
        self.expect_end()
        return Insert(name.lexeme, columns, tuple(values), name.line,
                      name.column, column_positions,
                      (rparen.line, rparen.column))

    def literal(self) -> Literal | None:
        """A NUMBER, string or NULL literal, or None if none is next."""
        tok = self.peek()
        if tok.kind is _NUMBER:
            value: Decimal | str | None = Decimal(tok.lexeme)
        elif tok.kind is _STRING:
            value = tok.lexeme
        elif tok.is_kw("NULL"):
            value = None
        else:
            return None
        self.advance()
        return Literal(value, tok.line, tok.column)

    def missing_expression(self, *enders: str) -> OraError:
        """936 if the slot is empty (the next token ends it), else 900."""
        tok = self.peek()
        empty = (tok is _END or tok.is_punct(*_EXPR_TERMINATORS)
                 or tok.is_kw(*enders))
        return self.fail(936 if empty else 900)

    def value_literal(self) -> Literal:
        lit = self.literal()
        if lit is None:
            raise self.missing_expression()
        return lit

    def select(self) -> Select:
        items: tuple[SelectItem, ...] | None = None
        if not self.accept_punct("*"):
            items = tuple(self.comma_list(self.select_item))
        if not self.accept_kw("FROM"):
            raise self.fail(923)
        tables, join_on = self.table_refs()
        where = self.predicate() if self.accept_kw("WHERE") else None
        self.expect_end()
        return Select(items, tables, join_on, where)

    def select_item(self) -> SelectItem:
        expr = self.expression()
        after_as = self.accept_kw("AS")
        tok = self.peek()
        if tok.kind is _STRING:
            raise self.fail(923)
        if tok.kind is _IDENT or tok.kind is _QUOTED_IDENT:
            self.advance()
            return SelectItem(expr, tok.lexeme, tok.kind is _QUOTED_IDENT)
        if after_as:
            raise self.fail(900)
        return SelectItem(expr)

    def expression(self) -> Expr:
        tok = self.peek()
        if tok.kind is _KEYWORD and tok.lexeme in AGGREGATE_FUNCS:
            self.advance()
            self.expect_punct("(")
            # Only COUNT takes "*"; anywhere else the "*" is not a column.
            arg: ColumnRef | None = None
            if tok.lexeme != "COUNT" or not self.accept_punct("*"):
                arg = self.column_ref()
            self.expect_punct(")")
            return AggregateCall(tok.lexeme, arg, tok.line, tok.column)
        if tok.kind is _IDENT:
            return self.column_ref()
        lit = self.literal()
        if lit is None:
            raise self.missing_expression("FROM", "WHERE")
        return lit

    def column_ref(self) -> ColumnRef:
        first = self.expect_ident()
        if self.accept_punct("."):
            name = self.expect_ident()
            return ColumnRef(name.lexeme, first.lexeme, first.line,
                             first.column)
        return ColumnRef(first.lexeme, None, first.line, first.column)

    def table_refs(self) -> tuple[tuple[TableRef, ...], Predicate | None]:
        tables = self.comma_list(self.table_ref)
        if len(tables) == 1 and self.accept_kw("INNER"):
            self.expect_kw("JOIN")
            tables.append(self.table_ref())
            self.expect_kw("ON")
            return tuple(tables), self.predicate()
        return tuple(tables), None

    def table_ref(self) -> TableRef:
        name = self.expect_ident()
        alias = None
        if self.peek().kind is _IDENT:
            alias = self.advance().lexeme
        return TableRef(name.lexeme, alias, name.line, name.column)

    # -- predicates ----------------------------------------------------

    def predicate(self) -> Predicate:
        operands = [self.pred_and()]
        while self.accept_kw("OR"):
            operands.append(self.pred_and())
        return operands[0] if len(operands) == 1 else _chain("OR", operands)

    def pred_and(self) -> Predicate:
        operands = [self.pred_not()]
        while self.accept_kw("AND"):
            operands.append(self.pred_not())
        return operands[0] if len(operands) == 1 else _chain("AND", operands)

    def pred_not(self) -> Predicate:
        tok = self.tokens[self.pos]
        if not (tok.is_kw("NOT") or tok.is_punct("(")):
            return self.comparison()
        # Each level costs a few Python frames here and in every walk
        # of the tree, so a NOT or "(" past the limit is an error.
        if self.depth == MAX_NESTING:
            raise self.fail(900)
        self.depth += 1
        self.pos += 1
        if tok.lexeme == "NOT":
            pred: Predicate = Not(self.pred_not())
        else:
            pred = self.predicate()
            self.expect_punct(")")
        self.depth -= 1
        return pred

    def comparison(self) -> Predicate:
        left = self.expression()
        tok = self.peek()
        if self.accept_kw("IS"):
            negated = self.accept_kw("NOT") is not None
            self.expect_kw("NULL")
            return IsNull(left, negated, tok.line, tok.column)
        if tok.kind is not _PUNCT or tok.lexeme not in _COMPARE_PUNCT:
            raise self.fail(900)
        self.advance()
        op = "!=" if tok.lexeme == "<>" else tok.lexeme
        right = self.expression()
        return Comparison(op, left, right, tok.line, tok.column)

    # -- alter ---------------------------------------------------------

    def alter(self) -> Statement:
        self.expect_kw("TABLE")
        table = self.expect_ident()
        if self.accept_kw("ADD"):
            return self.alter_add(table)
        if self.accept_kw("MODIFY"):
            return self.alter_modify(table)
        raise self.fail(900)

    def alter_add(self, table: Token) -> AlterAddConstraint:
        self.expect_kw("CONSTRAINT")
        name = self.expect_ident()
        body: CheckBody | PrimaryKeyBody | UniqueBody | FallbackBody
        if self.accept_kw("PRIMARY"):
            self.expect_kw("KEY")
            body = PrimaryKeyBody(_lexemes(self.paren_ident_list()))
        elif self.accept_kw("UNIQUE"):
            body = UniqueBody(_lexemes(self.paren_ident_list()))
        elif self.accept_kw("CHECK"):
            self.expect_punct("(")
            body = CheckBody(self.predicate())
            self.expect_punct(")")
        else:
            # Not a recognized constraint clause: keep the tail verbatim
            # and let the catalog decide what it was trying to be.
            body = FallbackBody(tuple(self.tokens[self.pos:-1]))
            self.pos = len(self.tokens) - 1
        self.expect_end()
        return AlterAddConstraint(table.lexeme, name.lexeme, body,
                                  name.line, name.column,
                                  (table.line, table.column))

    def paren_ident_list(self) -> list[Token]:
        self.expect_punct("(")
        cols = self.comma_list(self.expect_ident)
        self.expect_punct(")")
        return cols

    def alter_modify(self, table: Token) -> AlterModify:
        col = self.expect_ident()
        spec = self.type_spec()
        nullability = None
        if self.accept_kw("NOT"):
            self.expect_kw("NULL")
            nullability = "NOT NULL"
        elif self.accept_kw("NULL"):
            nullability = "NULL"
        self.expect_end()
        change = ColumnClause(col.lexeme, spec, col.line, col.column)
        return AlterModify(table.lexeme, change, nullability, col.line,
                           col.column, (table.line, table.column))


_STATEMENTS: dict[str, Callable[[_Parser], Statement]] = {
    "CREATE": _Parser.create_table, "DESC": _Parser.describe,
    "DESCRIBE": _Parser.describe, "INSERT": _Parser.insert,
    "SELECT": _Parser.select, "ALTER": _Parser.alter,
}


def parse(tokens: list[Token]) -> Statement:
    """Parse one statement; an empty token stream is ORA-00900 at 1:1."""
    return _Parser(tokens).statement()


# An INSERT of literals, read whole by one match of _INSERT: the table
# name, the column list and the value list are its groups.  A name is
# ASCII, so str.upper is its lexer.fold, and a lookahead keeps a
# backtrack from ending it early ("TVALUES" is never "T" "VALUES").
# Keywords match ASCII letters only ("(?ai:...)"), since IGNORECASE
# alone also takes "İ" for "i".  A string holds no line break; "''"
# inside it stands for one quote.
_NAME = r"[A-Za-z_][A-Za-z0-9_$\#]*(?![\w$\#])"
_VALUE = r"""(?:-?[0-9]+(?:\.[0-9]+)?
  | '[^'\n]*(?:''[^'\n]*)*'(?!')
  | (?ai:null)(?![\w$\#]))"""
_INSERT = re.compile(rf"""
  \s*(?ai:insert)(?![\w$\#])\s*(?ai:into)(?![\w$\#])\s*({_NAME})\s*
  (?:\((\s*{_NAME}\s*(?:,\s*{_NAME}\s*)*)\)\s*)?
  (?ai:values)(?![\w$\#])\s*\((\s*{_VALUE}\s*(?:,\s*{_VALUE}\s*)*)\)\s*
""", re.VERBOSE)
# The items of a list _INSERT has matched, one match each: a number, a
# string's body, or a word (a column name, or NULL).
_ITEM = re.compile(r"(-?[0-9.]+)|'([^']*(?:''[^']*)*)'|[\w$\#]+")
_new = tuple.__new__


def _literal_insert(text: str) -> Insert | None:
    """The Insert parse(tokenize(text)) gives, if _INSERT reads text.

    Anything else, names that are keywords included, is None.  A
    position is the lexer's: the line is one more than the count of
    "\n" before it, the column its distance from the last of them.
    """
    m = _INSERT.fullmatch(text)
    if m is None:
        return None
    table = m[1].upper()
    if table in KEYWORDS:
        return None
    if "\n" in text:
        def at(offset: int) -> tuple[int, int]:
            return (text.count("\n", 0, offset) + 1,
                    offset - text.rfind("\n", 0, offset))
    else:
        def at(offset: int) -> tuple[int, int]:
            return 1, offset + 1
    columns, column_positions = None, ()
    if m[2] is not None:
        names = list(_ITEM.finditer(text, *m.span(2)))
        columns = tuple([name[0].upper() for name in names])
        if not KEYWORDS.isdisjoint(columns):
            return None
        column_positions = tuple([at(name.start()) for name in names])
    values = []
    for item in _ITEM.finditer(text, *m.span(3)):
        number, string = item.groups()
        if number is not None:
            value: Decimal | str | None = Decimal(number)
        elif string is not None:
            value = string.replace("''", "'")
        else:
            value = None
        values.append(_new(Literal, (value, *at(item.start()))))
    return _new(Insert, (table, columns, tuple(values), *at(m.start(1)),
                         column_positions, at(m.end(3))))


def parse_text(text: str) -> Statement:
    """Parse one statement's text.

    An INSERT of literals that _literal_insert reads skips the token
    list; every other text, and so every error, goes through
    parse(tokenize(text)).
    """
    stmt = _literal_insert(text)
    return stmt if stmt is not None else parse(tokenize(text))


def parse_standalone_predicate(text: str) -> Predicate:
    """Parse a bare predicate, used when reloading stored CHECK bodies."""
    parser = _Parser(tokenize(text))
    pred = parser.predicate()
    parser.expect_end()
    return pred
