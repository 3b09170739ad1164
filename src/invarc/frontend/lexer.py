"""Hand-written lexer for the C subset.

Rejected constructs that are recognizable at the token level (``goto``,
``switch``, ``union``, inline asm, preprocessor residue) are surfaced as
:class:`RejectedConstruct` so the parser never sees them.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class Token:
    kind: str   # 'ident', 'int', 'float', 'punct', 'kw', 'eof'
    text: str
    span: Span


def lex(source):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(source)

    def span(ln, cl, length=1):
        return Span(ln, cl, ln, cl + length)

    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise ParseFailure("unterminated comment", span(line, col))
            for ch in source[i:end + 2]:
                if ch == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            i = end + 2
            continue
        if c == "#":
            raise RejectedConstruct("preprocessor residue", span(line, col))
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            sp = span(line, col, j - i)
            if word in REJECTED_KEYWORDS:
                raise RejectedConstruct(REJECTED_KEYWORDS[word], sp)
            kind = "kw" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, sp))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            is_float = False
            if j < n and source[j] == "." and j + 1 < n and source[j + 1].isdigit():
                is_float = True
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            text = source[i:j]
            sp = span(line, col, j - i)
            tokens.append(Token("float" if is_float else "int", text, sp))
            col += j - i
            i = j
            continue
        if c in "\"'":
            raise RejectedConstruct("string/char literal", span(line, col))
        for p in PUNCT:
            if source.startswith(p, i):
                sp = span(line, col, len(p))
                if p == "...":
                    raise RejectedConstruct("varargs", sp)
                tokens.append(Token("punct", p, sp))
                col += len(p)
                i += len(p)
                break
        else:
            raise ParseFailure(f"unexpected character {c!r}", span(line, col))
    tokens.append(Token("eof", "", Span(line, col)))
    return tokens
