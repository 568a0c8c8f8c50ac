"""Tokenizer with Oracle-style identifier folding and 1-based positions.

Bare identifiers and keywords fold to uppercase; quoted identifiers and
string literals keep their case.  '&NAME' becomes a substitution-marker
token when the shell has not already resolved it.

The text is split by one compiled alternation matched left to right
(the "Writing a Tokenizer" recipe of the re module documentation).
Number literals use decimal digits (regex \\d, str.isdecimal); line and
column come from match offsets, and only "\\n" starts a new line.
"""

from __future__ import annotations

import re
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


class TokenKind(Enum):
    KEYWORD = auto()
    IDENT = auto()
    QUOTED_IDENT = auto()
    STRING = auto()
    NUMBER = auto()
    PUNCT = auto()
    SUBST = auto()
    END = auto()  # end of input; appended by the parser, never lexed


class Token:
    """One lexeme; equality and hashing ignore its position."""

    __slots__ = ("kind", "lexeme", "line", "column")

    def __init__(self, kind: TokenKind, lexeme: str,
                 line: int = 1, column: int = 1):
        self.kind = kind
        self.lexeme = lexeme
        self.line = line
        self.column = column

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return self.kind is other.kind and self.lexeme == other.lexeme

    def __hash__(self) -> int:
        return hash((self.kind, self.lexeme))

    def __repr__(self) -> str:
        return (f"Token(kind={self.kind!r}, lexeme={self.lexeme!r}, "
                f"line={self.line!r}, column={self.column!r})")

    def is_kw(self, *words: str) -> bool:
        return self.kind is _KEYWORD_KIND and self.lexeme in words

    def is_punct(self, *marks: str) -> bool:
        return self.kind is _PUNCT_KIND and self.lexeme in marks


# A word is [\w$#]* after a letter or "_".  "[^\W\d]" also admits
# numeric characters that are not decimal digits ("²", "½"); tokenize
# turns those away with str.isalpha.  A string closes at a quote not
# followed by another: "''" inside it stands for one quote, and the
# lookahead keeps "'ab''" from closing at the first quote of its "''".
_TOKEN = re.compile(r"""\s*(?:
    (?P<WORD>[^\W\d][\w$\#]*)
  | (?P<NUMBER>-?\d+(?:\.\d+)?)
  | (?P<PUNCT><>|<=|>=|!=|[<>=(),*.])
  | (?P<STRING>'(?:[^']|'')*'(?!'))
  | (?P<QUOTED_IDENT>"[^"]*")
  | (?P<SUBST>&[^\W\d][\w$\#]*)
  | (?P<UNTERMINATED>['"])
  | (?P<END>\Z)
  | (?P<BAD>.)
)""", re.VERBOSE | re.DOTALL)

# Group numbers of _TOKEN's alternatives, and the token kind of each
# that yields a token.  Enum attribute lookups are slow enough to show
# per token, so the kinds are looked up here once.
(_WORD, _NUMBER, _PUNCT, _STRING, _QUOTED_IDENT, _SUBST, _UNTERMINATED,
 _END) = range(1, 9)
_GROUP_KINDS = (None, TokenKind.IDENT, TokenKind.NUMBER, TokenKind.PUNCT,
                TokenKind.STRING, TokenKind.QUOTED_IDENT, TokenKind.SUBST)
_KEYWORD_KIND, _PUNCT_KIND = TokenKind.KEYWORD, TokenKind.PUNCT


def tokenize(text: str) -> list[Token]:
    """Split statement text into tokens, raising positioned OraErrors."""
    tokens: list[Token] = []
    multiline = "\n" in text
    line, line_start, seen = 1, 0, 0
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        start = m.start(group)
        if multiline:
            nl = text.rfind("\n", seen, start)
            if nl >= 0:
                line += text.count("\n", seen, nl + 1)
                line_start = nl + 1
            seen = start
        column = start - line_start + 1
        if group >= _UNTERMINATED:
            if group == _END:
                break
            raise OraError(1756 if group == _UNTERMINATED else 900,
                           line, column)
        kind = _GROUP_KINDS[group]
        lexeme = m.group(group)
        if group == _WORD:
            if not (lexeme[0].isalpha() or lexeme[0] == "_"):
                raise OraError(900, line, column)
            lexeme = lexeme.upper()
            if lexeme in KEYWORDS:
                kind = _KEYWORD_KIND
        elif group == _STRING:
            lexeme = lexeme[1:-1].replace("''", "'")
        elif group == _QUOTED_IDENT:
            lexeme = lexeme[1:-1]
        elif group == _SUBST and not (lexeme[1].isalpha()
                                      or lexeme[1] == "_"):
            raise OraError(900, line, column)
        tokens.append(Token(kind, lexeme, line, column))
    return tokens
