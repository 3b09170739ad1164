"""Hand-written lexer for the C subset.

Rejected constructs that are recognizable at the token level (``goto``,
``switch``, ``union``, inline asm, preprocessor residue) are surfaced as
:class:`RejectedConstruct` so the parser never sees them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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


# One alternative per token class, tried in this order at each position.
# Punctuators keep PUNCT's order, so a longer one wins over its prefix.
# `\w` is exactly `str.isalnum()` or `_`; a word whose first character is
# not a letter or `_` (a numeric character such as `½`) is rejected below.
_MASTER = re.compile("|".join([
    r"(?P<nl>\n)",
    r"(?P<ws>[ \t\r]+)",
    r"(?P<line>//[^\n]*)",
    r"(?P<block>/\*.*?\*/)",
    r"(?P<open>/\*)",
    r"(?P<word>[^\W\d]\w*)",
    r"(?P<num>\d+(?P<frac>\.\d+)?)",
    "(?P<punct>" + "|".join(re.escape(p) for p in PUNCT) + ")",
]), re.DOTALL)


@dataclass(frozen=True)
class Token:
    kind: str   # 'ident', 'int', 'float', 'punct', 'kw', 'eof'
    text: str
    span: Span


def lex(source):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(source)
    match = _MASTER.match
    while i < n:
        m = match(source, i)
        group = m.lastgroup if m else None
        if group == "nl":
            i, line, col = i + 1, line + 1, 1
            continue
        if group == "ws":
            col += m.end() - i
            i = m.end()
            continue
        if group == "line":
            i = m.end()     # the column stays as it is: a newline follows
            continue
        if group == "block":
            text = m.group()
            i = m.end()
            breaks = text.count("\n")
            if breaks:
                line, col = line + breaks, len(text) - text.rindex("\n")
            else:
                col += len(text)
            continue
        if group == "word" and not (source[i].isalpha() or source[i] == "_"):
            group = None
        if group in ("word", "num", "punct"):
            text = m.group()
            sp = Span(line, col, line, col + len(text))
            if group == "word":
                if text in REJECTED_KEYWORDS:
                    raise RejectedConstruct(REJECTED_KEYWORDS[text], sp)
                kind = "kw" if text in KEYWORDS else "ident"
            elif group == "num":
                kind = "float" if m.group("frac") else "int"
            elif text == "...":
                raise RejectedConstruct("varargs", sp)
            else:
                kind = "punct"
            tokens.append(Token(kind, text, sp))
            i += len(text)
            col += len(text)
            continue
        c, sp = source[i], Span(line, col, line, col + 1)
        if group == "open":
            raise ParseFailure("unterminated comment", sp)
        if c == "#":
            raise RejectedConstruct("preprocessor residue", sp)
        if c in "\"'":
            raise RejectedConstruct("string/char literal", sp)
        raise ParseFailure(f"unexpected character {c!r}", sp)
    tokens.append(Token("eof", "", Span(line, col)))
    return tokens
