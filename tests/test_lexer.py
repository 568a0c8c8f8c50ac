import pytest
from hypothesis import given, settings, strategies as st

from conftest import ora_code, run_sql

from handysql.errors import OraError
from handysql.lexer import Token, TokenKind, tokenize
from reference import reference_tokenize


def kinds(text):
    return [(t.kind, t.lexeme) for t in tokenize(text)]


def test_keywords_and_identifiers_fold_to_uppercase():
    assert kinds("desc Students") == [
        (TokenKind.KEYWORD, "DESC"), (TokenKind.IDENT, "STUDENTS")]


def test_a_word_outside_ascii_never_folds_into_ascii():
    # str.upper would read "ſelect" as SELECT, "ınt" as INT, and write
    # "ǰ" as J and U+030C, "ß" as SS and "ﬁ" as FI.
    assert kinds("ſelect ınt ǰ ß ﬁ é Qǰ") == [
        (TokenKind.IDENT, "ſELECT"), (TokenKind.IDENT, "ıNT"),
        (TokenKind.IDENT, "ǰ"), (TokenKind.IDENT, "ß"),
        (TokenKind.IDENT, "ﬁ"), (TokenKind.IDENT, "É"),
        (TokenKind.IDENT, "Qǰ")]


def test_string_literal_preserves_case_and_strips_quotes():
    assert kinds("'MiXeD'") == [(TokenKind.STRING, "MiXeD")]


def test_string_literal_quote_escape():
    assert kinds("'it''s'") == [(TokenKind.STRING, "it's")]


def test_quoted_identifier_preserves_case():
    assert kinds('"Total Marks"') == [(TokenKind.QUOTED_IDENT, "Total Marks")]


def test_unterminated_string_is_1756_at_open_quote():
    with pytest.raises(OraError) as exc:
        tokenize("SELECT 'oops FROM DUAL")
    assert exc.value.code == 1756
    assert (exc.value.line, exc.value.column) == (1, 8)


def test_unterminated_quoted_identifier_is_1756():
    with pytest.raises(OraError) as exc:
        tokenize('SELECT "oops FROM DUAL')
    assert exc.value.code == 1756


def test_numbers_including_negatives_and_decimals():
    assert kinds("1 -2 3.5 -0.25") == [
        (TokenKind.NUMBER, "1"), (TokenKind.NUMBER, "-2"),
        (TokenKind.NUMBER, "3.5"), (TokenKind.NUMBER, "-0.25")]


def test_positions_are_one_based_and_track_newlines():
    tokens = tokenize("DESC\n  STUDENTS")
    assert (tokens[0].line, tokens[0].column) == (1, 1)
    assert (tokens[1].line, tokens[1].column) == (2, 3)
    # Only "\n" ends a line; "\r", "\u2028" and "\x85" are spaces.
    text = "SELECT\r\n  'a\nb' ,\u2028X\n\x85Y"
    assert [(t.lexeme, t.line, t.column) for t in tokenize(text)] == [
        ("SELECT", 1, 1), ("a\nb", 2, 3), (",", 3, 4), ("X", 3, 6),
        ("Y", 4, 2)]


def test_two_character_punctuation():
    assert kinds("a <= b <> c != d >= e") == [
        (TokenKind.IDENT, "A"), (TokenKind.PUNCT, "<="),
        (TokenKind.IDENT, "B"), (TokenKind.PUNCT, "<>"),
        (TokenKind.IDENT, "C"), (TokenKind.PUNCT, "!="),
        (TokenKind.IDENT, "D"), (TokenKind.PUNCT, ">="),
        (TokenKind.IDENT, "E")]


def test_substitution_marker_token():
    assert kinds("(&S_ROLL)") == [
        (TokenKind.PUNCT, "("), (TokenKind.SUBST, "&S_ROLL"),
        (TokenKind.PUNCT, ")")]


def test_unknown_character_is_900():
    with pytest.raises(OraError) as exc:
        tokenize("SELECT ^ FROM DUAL")
    assert exc.value.code == 900
    assert exc.value.column == 8


def test_token_equality_ignores_position():
    assert Token(TokenKind.IDENT, "A", 1, 1) == Token(TokenKind.IDENT, "A", 9, 9)


def test_token_hash_ignores_position_and_kind_counts():
    a, b = Token(TokenKind.IDENT, "A", 1, 1), Token(TokenKind.IDENT, "A", 3, 7)
    assert hash(a) == hash(b)
    assert len({a, b, Token(TokenKind.QUOTED_IDENT, "A")}) == 2
    assert not hasattr(a, "__dict__")


def test_ident_with_dollar_and_hash():
    assert kinds("USER_CONSTRAINTS A$B C#1") == [
        (TokenKind.IDENT, "USER_CONSTRAINTS"),
        (TokenKind.IDENT, "A$B"), (TokenKind.IDENT, "C#1")]


def test_word_at_end_of_input():
    assert kinds("DESC T") == [
        (TokenKind.KEYWORD, "DESC"), (TokenKind.IDENT, "T")]


def error_at(text):
    with pytest.raises(OraError) as exc:
        tokenize(text)
    return exc.value.code, exc.value.line, exc.value.column


def test_doubled_quote_before_end_leaves_string_open():
    assert error_at("'ab''") == (1756, 1, 1)


# Digits that are not decimal ("²".isdigit() but not isdecimal()) start
# no number and continue none; each is ORA-00900 where it stands.
NON_DECIMAL_DIGITS = [
    ("SELECT ² FROM DUAL", (900, 1, 8)),
    ("SELECT 1² FROM DUAL", (900, 1, 9)),
    ("SELECT 1 FROM DUAL WHERE 1 = -²", (900, 1, 30)),
    ("SELECT &² FROM DUAL", (900, 1, 8)),
]


@pytest.mark.parametrize("text,where", NON_DECIMAL_DIGITS)
def test_non_decimal_digit_is_900(text, where):
    assert error_at(text) == where


def test_non_decimal_digits_are_error_blocks_in_the_shell(session):
    for text, (code, line, column) in NON_DECIMAL_DIGITS:
        block = run_sql(session, text)
        assert ora_code(block) == code
        assert block[1] == " " * (column - 1) + "*"


def test_decimal_digits_of_other_scripts_are_numbers(session):
    assert kinds("٣.٥") == [(TokenKind.NUMBER, "٣.٥")]
    block = run_sql(session, "SELECT ٣ FROM DUAL")
    assert ora_code(block) is None
    assert block[-2].strip() == "3"


PIECES = ["SELECT", "from", "a1", "_x", "B$#", "'", "''", '"', "'it''s'",
          "'a\nb'", '"q\nr"',
          "'open", '"Open', "1", "-", "-2", "3.5", ".", ",", "(", ")", "*",
          "&", "&v", "<", ">", "!", "=", "<>", "!=", "<=", ">=", " ", "\t",
          "\n", "\r\n", "\u2028", "\x85", "\xa0", "\x1c", "é", "ß", "²",
          "½", "٣", "&½", "^", ";", "ſelect", "ınt", "ǰ", "ﬁ"]


def outcome(tokens_of, text):
    try:
        # A Token is a tuple of its kind, lexeme, line and column.
        return [tuple(t) for t in tokens_of(text)]
    except OraError as err:
        return (err.code, err.line, err.column)


@settings(max_examples=500)
@given(st.lists(st.one_of(st.sampled_from(PIECES), st.characters()),
                max_size=30).map("".join))
def test_tokenize_matches_reference_scanner(text):
    assert outcome(tokenize, text) == outcome(reference_tokenize, text)
