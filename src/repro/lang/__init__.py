"""Arboretum's query language: AST, lexer, parser, simplifier and pretty
printer (§4.1). The cleartext reference interpreter is a test oracle
(``tests/oracles/reference_interp.py``)."""

from .ast import Program, format_program
from .parser import ParseError, parse, parse_expression
from .simplify import simplify

__all__ = [
    "Program",
    "format_program",
    "parse",
    "parse_expression",
    "ParseError",
    "simplify",
]
