"""Lexer for MiniJava: one compiled master regex.

Every token kind is one named alternative of :data:`_MASTER`, tried at
the current offset; the alternatives are ASCII-only apart from the
identifier tail ``\\w``, which is exactly ``str.isalnum()`` plus ``_``.
The two places where Python's character predicates and the regex
classes disagree are left to small per-character fallbacks: a token
that starts with a non-ASCII character, and a number next to one
(``str.isdigit`` accepts ``²``, which ``\\d`` does not).
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Tuple

KEYWORDS = {
    "class",
    "else",
    "false",
    "for",
    "if",
    "import",
    "new",
    "null",
    "return",
    "true",
    "while",
}

#: Multi-character operators, longest first so maximal munch works.
OPERATORS = [
    "==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=",
    "<", ">", "=", "!", "+", "-", "*", "/", "%",
    "(", ")", "{", "}", "[", "]", ".", ",", ";", ":",
]

_MASTER = re.compile(r"""
    (?P<space>[ \t\r\n]+)
  | (?P<line>//[^\n]*)
  | (?P<block>/\*[\s\S]*?\*/)
  | (?P<open>/\*)
  | (?P<string>"(?:\\[\s\S]|[^"\\\n])*")
  | (?P<quote>")
  | (?P<number>(?P<digits>[0-9]+(?:\.[0-9]+)?)[lLfFdD]?)
  | (?P<word>[A-Za-z_]\w*)
  | (?P<op>""" + "|".join(re.escape(op) for op in OPERATORS) + r""")
""", re.VERBOSE)

_WORD_TAIL = re.compile(r"\w*")
_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


class LexError(SyntaxError):
    """Raised on malformed MiniJava input."""


class Token(NamedTuple):
    kind: str  # "ident" | "keyword" | "string" | "int" | "float" | "op" | "eof"
    text: str
    line: int
    col: int

    def __repr__(self) -> str:
        return f"{self.kind}({self.text!r})@{self.line}:{self.col}"


def _unescape(match: "re.Match[str]") -> str:
    esc = match.group(1)
    return _ESCAPES.get(esc, esc)


def _scan_number(source: str, i: int) -> Tuple[str, str, int]:
    """``(kind, text, end)`` of the number at ``i``, by ``str.isdigit``."""
    n = len(source)
    j = i
    is_float = False
    while j < n and (source[j].isdigit() or source[j] == "."):
        if source[j] == ".":
            if is_float or j + 1 >= n or not source[j + 1].isdigit():
                break
            is_float = True
        j += 1
    text = source[i:j]
    # trailing type suffixes (1L, 1.0f) are consumed and ignored
    if j < n and source[j] in "lLfFdD":
        j += 1
    return ("float" if is_float else "int"), text, j


def tokenize(source: str) -> List[Token]:
    """Tokenize MiniJava source; raises :class:`LexError` on bad input.

    Positions are 1-based; a tab counts as one column.
    """
    tokens: List[Token] = []
    append = tokens.append
    match = _MASTER.match
    i, line, col = 0, 1, 1
    n = len(source)
    while i < n:
        m = match(source, i)
        kind = m.lastgroup if m is not None else None
        if kind == "number":
            digits_end = m.end("digits")
            if not source[digits_end:digits_end + 2].isascii():
                kind = None  # str.isdigit may extend it: scan by hand
        if kind == "word":
            text = m.group()
            append(Token("keyword" if text in KEYWORDS else "ident",
                         text, line, col))
        elif kind == "op":
            append(Token("op", m.group(), line, col))
        elif kind == "space" or kind == "line" or kind == "block":
            text = m.group()
            newlines = text.count("\n")
            if newlines:
                line += newlines
                col = len(text) - text.rfind("\n")
            else:
                col += len(text)
            i = m.end()
            continue
        elif kind == "number":
            text = m.group("digits")
            append(Token("float" if "." in text else "int", text, line, col))
        elif kind == "string":
            text = m.group()[1:-1]
            if "\\" in text:
                text = _ESCAPE.sub(_unescape, text)
            # an escaped newline stays inside the literal and does not
            # advance the line
            append(Token("string", text, line, col))
        elif kind == "quote":
            raise LexError(
                f"unterminated string literal at line {line}, column {col}")
        elif kind == "open":
            raise LexError(
                f"unterminated block comment at line {line}, column {col}")
        else:
            c = source[i]
            if c.isdigit():
                number, text, end = _scan_number(source, i)
                append(Token(number, text, line, col))
            elif c.isalpha():
                end = _WORD_TAIL.match(source, i + 1).end()
                append(Token("ident", source[i:end], line, col))
            else:
                raise LexError(
                    f"unexpected character {c!r} at line {line}, "
                    f"column {col}")
            col += end - i
            i = end
            continue
        end = m.end()
        col += end - i
        i = end
    append(Token("eof", "", line, col))
    return tokens
