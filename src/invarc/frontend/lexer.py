"""Hand-written lexer for the C subset.

Rejected constructs that are recognizable at the token level (``goto``,
``switch``, ``union``, inline asm, preprocessor residue) are surfaced as
:class:`RejectedConstruct` so the parser never sees them.

A token keeps only its line and start column, the column counted from
the offset where its line starts; its :class:`Span` is built on demand.
"""

from __future__ import annotations

import re

from ..diagnostics import ParseFailure, RejectedConstruct, Span

KEYWORDS = {
    "int", "long", "double", "struct", "if", "else", "while", "for",
    "return", "void", "NULL", "const",
}

REJECTED_KEYWORDS = {
    "goto": "goto",
    "switch": "switch",
    "case": "switch",
    "default": "switch",
    "union": "union",
    "asm": "inline asm",
    "__asm__": "inline asm",
    "char": "char type",
    "float": "float type (use double)",
    "unsigned": "unsigned types",
    "short": "short type",
    "typedef": "typedef",
    "enum": "enum",
    "static": "storage-class specifier",
    "extern": "storage-class specifier",
    "sizeof": "sizeof",
    "do": "do-while",
    "break": "break",
    "continue": "continue",
}

PUNCT = [
    "->", "++", "--", "+=", "-=", "*=", "/=", "%=", "&&", "||",
    "==", "!=", "<=", ">=",
    "{", "}", "(", ")", "[", "]", ";", ",", "...", ".",
    "+", "-", "*", "/", "%", "<", ">", "=", "&", "!", "|",
]


# One alternative per token class, tried in this order after the blanks
# and the line comment that precede it, which the match consumes; `end`
# matches blanks or a comment that run to the end of the input.
# Punctuators keep PUNCT's order, so a longer one wins over its prefix.
# `\w` is exactly `str.isalnum()` or `_`; a word whose first character is
# not a letter or `_` (a numeric character such as `½`) is rejected below,
# and so is a number that runs on into a word (`0x10`, `10L`, `1.5e3`).
_MASTER = re.compile(r"[ \t\r]*(?://[^\n]*)?(?:" + "|".join([
    r"(?P<nl>\n)",
    r"(?P<block>/\*.*?\*/)",
    r"(?P<open>/\*)",
    r"(?P<word>[^\W\d]\w*)",
    r"(?P<num>\d+(?P<frac>\.\d+)?(?P<suffix>\w+)?)",
    "(?P<punct>" + "|".join(re.escape(p) for p in PUNCT) + ")",
    r"(?P<end>\Z)",
]) + ")", re.DOTALL)


class Token:
    """One token.  Its `span` is built only when asked for: the parser
    never asks for the spans of most punctuators and keywords."""

    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind    # 'ident', 'int', 'float', 'punct', 'kw', 'eof'
        self.text = text
        self.line = line
        self.col = col

    @property
    def span(self):
        # all four fields given, so `Span.__new__` has nothing to add
        return tuple.__new__(Span, (self.line, self.col, self.line,
                                    self.col + len(self.text)))


def lex(source):
    tokens = []
    append = tokens.append
    line, line_start = 1, 0     # a column is 1 + the offset from line_start
    i, n = 0, len(source)
    match = _MASTER.match
    while i < n:
        m = match(source, i)
        if m is None:
            _reject(source, i, line, line_start)
        group, end = m.lastgroup, m.end()
        if group == "word":
            text = m["word"]
            start = end - len(text)
            if not (source[start].isalpha() or source[start] == "_"):
                _reject(source, start, line, line_start)
            tok = Token("kw" if text in KEYWORDS else "ident", text, line,
                        start - line_start + 1)
            if text in REJECTED_KEYWORDS:
                raise RejectedConstruct(REJECTED_KEYWORDS[text], tok.span)
            append(tok)
        elif group == "punct":
            text = m["punct"]
            tok = Token("punct", text, line, end - len(text) - line_start + 1)
            if text == "...":
                raise RejectedConstruct("varargs", tok.span)
            append(tok)
        elif group == "num":
            text = m["num"]
            tok = Token("float" if m["frac"] else "int", text, line,
                        end - len(text) - line_start + 1)
            if m["suffix"]:     # hexadecimal, an exponent or a suffix
                raise RejectedConstruct(f"numeric literal {text!r}", tok.span)
            append(tok)
        elif group == "nl":
            line, line_start = line + 1, end
        elif group == "block":
            breaks = m["block"].count("\n")
            if breaks:
                line += breaks
                line_start = source.rindex("\n", i, end) + 1
        elif group == "end":
            # the end of input stays where a trailing line comment began
            comment = source.find("//", i)
            i = comment if comment >= 0 else n
            break
        else:       # "open": a comment with no end
            _reject(source, i, line, line_start)
        i = end
    tokens.append(Token("eof", "", line, i - line_start + 1))
    return tokens


def _reject(source, i, line, line_start):
    """Raise the error for the character at `i`, or after the blanks that
    start there."""
    while source[i] in " \t\r":
        i += 1
    col = i - line_start + 1
    sp, c = Span(line, col, line, col + 1), source[i]
    if source.startswith("/*", i):
        raise ParseFailure("unterminated comment", sp)
    if c == "#":
        raise RejectedConstruct("preprocessor residue", sp)
    if c in "\"'":
        raise RejectedConstruct("string/char literal", sp)
    raise ParseFailure(f"unexpected character {c!r}", sp)
