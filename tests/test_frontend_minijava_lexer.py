"""Tests for the MiniJava lexer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.minijava import LexError, tokenize


def kinds(src):
    return [(t.kind, t.text) for t in tokenize(src)[:-1]]


def test_identifiers_and_keywords():
    assert kinds("foo if whilex") == [
        ("ident", "foo"), ("keyword", "if"), ("ident", "whilex")
    ]


def test_string_literal_with_escapes():
    assert kinds(r'"a\nb\"c"') == [("string", 'a\nb"c')]


def test_unterminated_string_raises():
    with pytest.raises(LexError):
        tokenize('"abc')
    with pytest.raises(LexError):
        tokenize('"abc\n"')


def test_numbers():
    assert kinds("1 23 4.5 1L 2.0f") == [
        ("int", "1"), ("int", "23"), ("float", "4.5"),
        ("int", "1"), ("float", "2.0"),
    ]


def test_comments_skipped():
    assert kinds("a // comment\nb /* block\nstill */ c") == [
        ("ident", "a"), ("ident", "b"), ("ident", "c")
    ]


def test_unterminated_block_comment_raises():
    with pytest.raises(LexError):
        tokenize("/* never closed")


def test_maximal_munch_operators():
    assert kinds("a<=b==c&&d") == [
        ("ident", "a"), ("op", "<="), ("ident", "b"), ("op", "=="),
        ("ident", "c"), ("op", "&&"), ("ident", "d"),
    ]


def test_increment_vs_plus():
    assert [t for _, t in kinds("i++ + 1")] == ["i", "++", "+", "1"]


def test_line_and_column_tracking():
    tokens = tokenize("a\n  b")
    assert (tokens[0].line, tokens[0].col) == (1, 1)
    assert (tokens[1].line, tokens[1].col) == (2, 3)


def test_unexpected_character():
    with pytest.raises(LexError):
        tokenize("a @ b")


def test_eof_token_present():
    assert tokenize("")[-1].kind == "eof"


# ----------------------------------------------------------------------
# positions after comments, and the master-regex scanner against the
# per-character scanner it replaced


def test_column_after_multiline_block_comment_counts_from_its_end():
    tokens = tokenize("/* a\nb */ x")
    assert (tokens[0].text, tokens[0].line, tokens[0].col) == ("x", 2, 6)


def test_line_comment_advances_the_column():
    assert (tokenize("a // c")[-1].line, tokenize("a // c")[-1].col) == (1, 7)


def test_lex_error_position_after_a_comment():
    with pytest.raises(LexError, match="line 2, column 8"):
        tokenize("/* a\nb */ x @")


def reference_tokenize(source):
    """The per-character scanner, kept as the reference (with its two
    column fixes: a block comment counts from its ``*/``, a line
    comment advances the column)."""
    from repro.frontend.minijava.lexer import KEYWORDS, OPERATORS, Token

    tokens = []
    i, line, col = 0, 1, 1
    n = len(source)

    def error(msg):
        return LexError(f"{msg} at line {line}, column {col}")

    while i < n:
        c = source[i]
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
                col += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise error("unterminated block comment")
            skipped = source[i:end + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = end + 2
            continue
        if c == '"':
            j = i + 1
            out = []
            while j < n and source[j] != '"':
                if source[j] == "\\" and j + 1 < n:
                    esc = source[j + 1]
                    out.append({"n": "\n", "t": "\t", '"': '"',
                                "\\": "\\"}.get(esc, esc))
                    j += 2
                elif source[j] == "\n":
                    raise error("unterminated string literal")
                else:
                    out.append(source[j])
                    j += 1
            if j >= n:
                raise error("unterminated string literal")
            tokens.append(Token("string", "".join(out), line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if c.isdigit():
            j = i
            is_float = False
            while j < n and (source[j].isdigit() or source[j] == "."):
                if source[j] == ".":
                    if is_float or j + 1 >= n or not source[j + 1].isdigit():
                        break
                    is_float = True
                j += 1
            if j < n and source[j] in "lLfFdD":
                j += 1
                text = source[i:j - 1]
            else:
                text = source[i:j]
            tokens.append(Token("float" if is_float else "int", text,
                                line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            tokens.append(Token("keyword" if text in KEYWORDS else "ident",
                                text, line, col))
            col += j - i
            i = j
            continue
        for op in OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("op", op, line, col))
                i += len(op)
                col += len(op)
                break
        else:
            raise error(f"unexpected character {c!r}")
    tokens.append(Token("eof", "", line, col))
    return tokens


def _outcome(scan, source):
    try:
        return scan(source)
    except LexError as err:
        return ("LexError", str(err))


#: MiniJava's alphabet, plus quotes, escapes, comment openers, tabs,
#: dot runs, number suffixes and non-ASCII letters and digits
_PIECES = (
    list("abcxyzABC_019 ;,(){}[]<>=!+-*/%:&|@#$")
    + ["if", "class", "new", "while", "return"]
    + ['"', '\\', '\\"', '\\n', "\n", "\t", "\r", "//", "/*", "*/",
       ".", "..", "...", "1.5", "2.", "l", "L", "f", "F", "d", "D",
       "é", "²", "٣", "ß", " "]
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
def test_tokenize_equals_the_reference_scanner(source):
    assert _outcome(tokenize, source) == _outcome(reference_tokenize, source)


@pytest.mark.parametrize("source", [
    "1²", "1.²3", "٣.5f", "x²y", "é1", "1.5.٣", "1L²", "²", "½", "Ⅻ",
    '"a\\\nb" c', "/*/ x */ y", "/**/z", "a b", "1..2", "1.x",
])
def test_tokenize_equals_the_reference_on_predicate_edges(source):
    assert _outcome(tokenize, source) == _outcome(reference_tokenize, source)


def test_tokenize_equals_the_reference_on_the_generated_corpus():
    from repro.corpus import CorpusConfig, CorpusGenerator, java_registry

    for generated in CorpusGenerator(
            java_registry(), CorpusConfig(n_files=20, seed=3)).generate():
        assert tokenize(generated.text) == reference_tokenize(generated.text)
