"""Tokenizer with Oracle-style identifier folding and 1-based positions.

Bare identifiers and keywords fold to uppercase; quoted identifiers and
string literals keep their case.  '&NAME' becomes a substitution-marker
token when the shell has not already resolved it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto

from .errors import OraError

KEYWORDS = frozenset({
    "SELECT", "FROM", "WHERE", "CREATE", "TABLE", "DESC", "DESCRIBE",
    "INSERT", "INTO", "VALUES", "ALTER", "ADD", "CONSTRAINT", "MODIFY",
    "PRIMARY", "KEY", "UNIQUE", "CHECK", "NOT", "NULL", "AND", "OR", "IS",
    "INNER", "JOIN", "ON", "AS",
    "NUMBER", "VARCHAR", "VARCHAR2", "INTEGER", "DATE",
    "AVG", "MIN", "MAX", "SUM", "COUNT",
})

AGGREGATE_FUNCS = frozenset({"AVG", "MIN", "MAX", "SUM", "COUNT"})

_PUNCT = {"(", ")", ",", "*", ".", "=", "!=", "<>", "<", "<=", ">", ">="}


class TokenKind(Enum):
    KEYWORD = auto()
    IDENT = auto()
    QUOTED_IDENT = auto()
    STRING = auto()
    NUMBER = auto()
    PUNCT = auto()
    SUBST = auto()
    END = auto()  # end of input; appended by the parser, never lexed


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    lexeme: str
    line: int = field(default=1, compare=False)
    column: int = field(default=1, compare=False)

    def is_kw(self, *words: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.lexeme in words

    def is_punct(self, *marks: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.lexeme in marks


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return bool(ch) and (ch.isalnum() or ch in "_$#")


class _Scanner:
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


def tokenize(text: str) -> list[Token]:
    """Split statement text into tokens, raising positioned OraErrors."""
    sc = _Scanner(text)
    tokens: list[Token] = []
    while sc.pos < len(sc.text):
        ch = sc.peek()
        if ch.isspace():
            sc.advance()
            continue
        line, column = sc.line, sc.column
        if ch == "'":
            tokens.append(Token(TokenKind.STRING,
                                _scan_string(sc), line, column))
        elif ch == '"':
            tokens.append(Token(TokenKind.QUOTED_IDENT,
                                _scan_quoted_ident(sc), line, column))
        elif ch.isdigit() or (ch == "-" and sc.peek(1).isdigit()):
            tokens.append(Token(TokenKind.NUMBER,
                                _scan_number(sc), line, column))
        elif _is_ident_start(ch):
            word = _scan_word(sc).upper()
            kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, word, line, column))
        elif ch == "&" and _is_ident_start(sc.peek(1)):
            sc.advance()
            tokens.append(Token(TokenKind.SUBST,
                                "&" + _scan_word(sc), line, column))
        elif ch in "<>!=":
            two = ch + sc.peek(1)
            mark = two if two in _PUNCT else ch
            if mark not in _PUNCT:
                raise OraError(900, line, column)
            for _ in mark:
                sc.advance()
            tokens.append(Token(TokenKind.PUNCT, mark, line, column))
        elif ch in _PUNCT:
            sc.advance()
            tokens.append(Token(TokenKind.PUNCT, ch, line, column))
        else:
            raise OraError(900, line, column)
    return tokens


def _scan_string(sc: _Scanner) -> str:
    start_line, start_col = sc.line, sc.column
    sc.advance()
    parts: list[str] = []
    while True:
        if sc.pos >= len(sc.text):
            raise OraError(1756, start_line, start_col)
        ch = sc.advance()
        if ch == "'":
            if sc.peek() == "'":
                sc.advance()
                parts.append("'")
                continue
            return "".join(parts)
        parts.append(ch)


def _scan_quoted_ident(sc: _Scanner) -> str:
    start_line, start_col = sc.line, sc.column
    sc.advance()
    parts: list[str] = []
    while True:
        if sc.pos >= len(sc.text):
            raise OraError(1756, start_line, start_col)
        ch = sc.advance()
        if ch == '"':
            return "".join(parts)
        parts.append(ch)


def _scan_number(sc: _Scanner) -> str:
    parts: list[str] = []
    if sc.peek() == "-":
        parts.append(sc.advance())
    while sc.peek().isdigit():
        parts.append(sc.advance())
    if sc.peek() == "." and sc.peek(1).isdigit():
        parts.append(sc.advance())
        while sc.peek().isdigit():
            parts.append(sc.advance())
    return "".join(parts)


def _scan_word(sc: _Scanner) -> str:
    parts: list[str] = []
    while _is_ident_char(sc.peek()):
        parts.append(sc.advance())
    return "".join(parts)
