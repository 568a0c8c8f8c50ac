"""Tokenizer with Oracle-style identifier folding and 1-based positions.

A WORD (a letter or "_" first) is a keyword or an identifier, upper-cased
by fold; quoted identifiers and string literals keep their case.  '&NAME'
becomes a substitution-marker token when the shell has not resolved it.

One findall of a compiled pattern splits a statement into (leading
whitespace, token) pairs, and an empty token marks the end.  Each
token's kind follows from its first character, and line and column
from the running length of the text before it: only "\\n" starts a
line, whether in whitespace or inside a string or quoted identifier.
Number literals use decimal digits (regex \\d, str.isdecimal).
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import NamedTuple, TypeVar

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

_NT = TypeVar("_NT")

WORD = re.compile(r"[^\W\d][\w$#]*")


def fold(word: str) -> str:
    """A word's upper case, char by char where that is one character on
    the same side of ASCII: "é" is "É", but "ſ", "ı", "ß" and "ǰ" stay,
    so a word outside ASCII folds to no keyword and no ASCII name."""
    return "".join([upper if len(upper := char.upper()) == 1
                    and upper.isascii() == char.isascii() else char
                    for char in word])


class TokenKind(Enum):
    KEYWORD = auto()
    IDENT = auto()
    QUOTED_IDENT = auto()
    STRING = auto()
    NUMBER = auto()
    PUNCT = auto()
    SUBST = auto()
    END = auto()  # end of input; appended by the parser, never lexed


def positions_ignored(cls: type[_NT]) -> type[_NT]:
    """Make a NamedTuple class compare and hash by its fields before `line`.

    Those that follow are positions, which say where a thing was
    written, not what it is.  Instances of two classes are unequal, and
    so is an instance and a plain tuple, which would otherwise compare
    field by field.
    """
    fields = cls._fields  # type: ignore[attr-defined]
    n = fields.index("line") if "line" in fields else len(fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is cls:
            return self[:n] == other[:n]
        if isinstance(other, tuple) and type(other).__eq__ is tuple.__eq__:
            return False
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        equal = __eq__(self, other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self) -> int:
        return hash(self[:n])

    cls.__eq__, cls.__ne__, cls.__hash__ = __eq__, __ne__, __hash__
    return cls


@positions_ignored
class Token(NamedTuple):
    """One lexeme; equality and hashing ignore its position."""

    kind: TokenKind
    lexeme: str
    line: int = 1
    column: int = 1

    def is_kw(self, *words: str) -> bool:
        return self.kind is _KEYWORD and self.lexeme in words

    def is_punct(self, *marks: str) -> bool:
        return self.kind is _PUNCT and self.lexeme in marks


# Each token after its leading whitespace; the alternatives are tried
# in order.  [^\W\d] also admits numerals that are not decimal digits
# ("²", "½"); tokenize turns away a WORD that starts with one.  A
# string closes at a quote not followed by another: "''" inside it
# stands for one quote, and the lookahead keeps "'ab''" from closing at
# the first quote of its "''".  An empty token is the end of the text,
# and any other single character (a lone quote, "!" or "-" among them)
# is an error where it stands.
_PAIR = re.compile(rf"""(\s*)(
    {WORD.pattern}
  | -?\d+(?:\.\d+)?
  | <>|<=|>=|!=|[<>=(),*.]
  | '(?:[^']|'')*'(?!')
  | "[^"]*"
  | &{WORD.pattern}
  | \Z
  | .
)""", re.VERBOSE | re.DOTALL)

# Enum attribute lookups are slow enough to show per token, so the
# kinds are looked up here once.
_KEYWORD, _IDENT, _PUNCT = TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.PUNCT
_NUMBER, _STRING, _QUOTED = (TokenKind.NUMBER, TokenKind.STRING,
                             TokenKind.QUOTED_IDENT)
_SUBST = TokenKind.SUBST
# The kind of a token by the ASCII character it starts with.  A lone
# "-", "!", "&" or quote has the kind its longer tokens have, and is
# turned away by its length.
_KIND_OF = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                    "abcdefghijklmnopqrstuvwxyz_", _IDENT),
    **dict.fromkeys("0123456789-", _NUMBER),
    **dict.fromkeys("<>=(),*.!", _PUNCT),
    "'": _STRING, '"': _QUOTED, "&": _SUBST,
}
# Token(...) would run the NamedTuple's Python-level __new__ per token.
_new = tuple.__new__


def tokenize(text: str) -> list[Token]:
    """Split statement text into tokens, raising positioned OraErrors."""
    tokens: list[Token] = []
    append = tokens.append
    multiline = "\n" in text
    line, line_start, pos = 1, 0, 0
    for space, lexeme in _PAIR.findall(text):
        start = pos + len(space)
        if multiline and "\n" in space:
            line += space.count("\n")
            line_start = pos + space.rindex("\n") + 1
        pos = start + len(lexeme)
        column = start - line_start + 1
        first = lexeme[:1]
        kind = _KIND_OF.get(first)
        if kind is None:
            # The end, or a character outside ASCII.
            if first.isalpha():
                kind = _IDENT
            elif first.isdecimal():
                kind = _NUMBER
            elif not lexeme:
                break
            else:
                raise OraError(900, line, column)
        if kind is _IDENT:
            # fold, with its ASCII case inline: most words are ASCII.
            lexeme = lexeme.upper() if lexeme.isascii() else fold(lexeme)
            if lexeme in KEYWORDS:
                kind = _KEYWORD
        elif kind is _PUNCT or kind is _NUMBER:
            if lexeme == "!" or lexeme == "-":
                raise OraError(900, line, column)
        elif kind is _SUBST:
            if not (lexeme[1:2].isalpha() or lexeme[1:2] == "_"):
                raise OraError(900, line, column)
        else:
            if len(lexeme) == 1:
                raise OraError(1756, line, column)
            body = lexeme[1:-1]
            if kind is _STRING:
                body = body.replace("''", "'")
            append(_new(Token, (kind, body, line, column)))
            # Line breaks inside the quotes move the tokens that follow.
            if multiline and "\n" in lexeme:
                line += lexeme.count("\n")
                line_start = start + lexeme.rindex("\n") + 1
            continue
        append(_new(Token, (kind, lexeme, line, column)))
    return tokens
