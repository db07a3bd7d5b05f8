"""Exception types shared across the package."""

from __future__ import annotations


class FlagcalcError(Exception):
    """Base class for every error raised by this package."""


class DomainError(FlagcalcError):
    """An operation was applied to values outside its domain."""


class ResourceLimitError(FlagcalcError):
    """An enumeration exceeded its configured size cap."""


class RerouteError(DomainError):
    """A flag corridor could not be routed; pick a different base point."""


class ParseError(FlagcalcError):
    """Input text failed to parse.

    Carries a 1-based line/column position and, when useful, the set of
    token kinds that would have been accepted at that position.
    """

    def __init__(
        self,
        message: str,
        *,
        line: int = 1,
        column: int = 1,
        expected: tuple[str, ...] = (),
    ) -> None:
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        text = f"{line}:{column}: {message}"
        if self.expected:
            text += " (expected " + " or ".join(self.expected) + ")"
        super().__init__(text)


class UnknownGeneratorError(ParseError):
    """A word or tree literal used a generator name that is not declared."""

    def __init__(self, name: str, *, line: int = 1, column: int = 1) -> None:
        self.name = name
        super().__init__(
            f"unknown generator {name!r}",
            line=line,
            column=column,
            expected=("declared generator name",),
        )
