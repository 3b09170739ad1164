"""Source spans and error types shared across the pipeline.

All user-facing diagnostics render as ``file:line:col: severity: message``.
"""

from __future__ import annotations

from operator import itemgetter


class Span(tuple):
    """Half-open region of source text, 1-based lines and columns: the
    tuple `(line, col, end_line, end_col)`, so that it hashes and orders as
    that tuple.  Without an end it is the empty region at its start."""

    __slots__ = ()

    def __new__(cls, line, col, end_line=0, end_col=0):
        if end_line == 0:
            end_line, end_col = line, col
        return tuple.__new__(cls, (line, col, end_line, end_col))

    line = property(itemgetter(0))
    col = property(itemgetter(1))
    end_line = property(itemgetter(2))
    end_col = property(itemgetter(3))

    def __reduce__(self):
        return Span, tuple(self)

    def __repr__(self):
        return (f"Span(line={self[0]}, col={self[1]}, end_line={self[2]}, "
                f"end_col={self[3]})")

    def __str__(self):
        return f"{self[0]}:{self[1]}"


class InvarcError(Exception):
    """Base class for all pipeline errors."""

    severity = "error"

    def __init__(self, message, span=None):
        self.message = message
        self.span = span
        super().__init__(self.render())

    def render(self, filename="<input>"):
        loc = f"{filename}:{self.span}" if self.span else filename
        return f"{loc}: {self.severity}: {self.message}"


class InputError(InvarcError):
    """An input file that cannot be read as UTF-8 text."""


class ParseFailure(InvarcError):
    """Syntax error: carries the offending span and the expected-token set."""

    def __init__(self, message, span=None, expected=()):
        self.expected = tuple(sorted(expected))
        if self.expected:
            message = f"{message} (expected one of: {', '.join(self.expected)})"
        super().__init__(message, span)


class RejectedConstruct(ParseFailure):
    """A construct deliberately outside the supported language subset."""

    def __init__(self, kind, span=None):
        self.kind = kind
        super().__init__(f"unsupported construct: {kind}")
        self.span = span


class FrontendTypeError(InvarcError):
    """Unresolved identifier or ill-typed expression."""


class NormalizeError(InvarcError):
    """Failure while inlining or lowering to simple assignments."""


class InlineDepthExceeded(NormalizeError):
    pass


class UnsupportedExpression(NormalizeError):
    pass


class AnalysisError(InvarcError):
    """Errors from pollution / abstraction stages."""


class InconsistentInput(AnalysisError):
    pass


class EncodeError(InvarcError):
    """Translation to solver form failed."""


class UnsupportedType(EncodeError):
    pass


class UnsupportedOperator(EncodeError):
    pass


class UnknownSymbol(EncodeError):
    pass


class SolverNotFound(InvarcError):
    pass


class ProtocolError(InvarcError):
    """Solver produced output we could not interpret."""


class StepBudgetExceeded(InvarcError):
    """Interpreter ran out of steps while enumerating inputs."""
