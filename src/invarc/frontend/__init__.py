"""C-subset frontend: lexer, parser, typechecker, construct classifier."""

from .ast import Ast, ast_text
from .classify import SubsetItem, SubsetReport, classify_constructs
from .parser import parse_translation_unit

__all__ = [
    "Ast",
    "SubsetItem",
    "SubsetReport",
    "ast_text",
    "classify_constructs",
    "parse_translation_unit",
]
