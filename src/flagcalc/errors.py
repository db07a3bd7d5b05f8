"""Exception types shared across the package, and the helpers their messages use."""

from __future__ import annotations

import sys

# How many characters of a token an error message echoes.
EXCERPT_CHARS = 40


class FlagcalcError(Exception):
    """Base class for every error raised by this package."""


class DomainError(FlagcalcError):
    """An operation was applied to values outside its domain."""


class ResourceLimitError(FlagcalcError):
    """An input or an enumeration exceeded a size limit."""


class RerouteError(DomainError):
    """A flag corridor could not be routed; pick a different base point."""


class ParseError(FlagcalcError):
    """Input text failed to parse.

    Carries a 1-based line/column position and, when useful, the set of
    token kinds that would have been accepted at that position.  The
    position may be moved after the error is raised, by a reader that parsed
    a piece of a longer line; the text follows it.
    """

    def __init__(
        self,
        message: str,
        *,
        line: int = 1,
        column: int = 1,
        expected: tuple[str, ...] = (),
    ) -> None:
        self.message = message
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        super().__init__(message)

    def __str__(self) -> str:
        text = f"{self.line}:{self.column}: {self.message}"
        if self.expected:
            text += " (expected " + " or ".join(self.expected) + ")"
        return text


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


def excerpt(token: str) -> str:
    """``repr(token)``, cut to its first :data:`EXCERPT_CHARS` characters."""
    if len(token) <= EXCERPT_CHARS:
        return repr(token)
    return f"{token[:EXCERPT_CHARS]!r}... ({len(token)} characters)"


def check_digit_limit(token: str) -> None:
    """Raise :class:`ResourceLimitError` if ``token`` is too long to read as a number.

    CPython refuses to convert text of more than
    ``sys.get_int_max_str_digits()`` digits to an ``int``.  Call this where
    ``int`` or ``Fraction`` refused ``token``.  The limit is left as it is:
    raising it would change the whole interpreter, not only this package.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and len(token) > limit:
        raise ResourceLimitError(
            f"number {excerpt(token)} is longer than {limit} digits, the interpreter's "
            "limit on reading an integer (sys.get_int_max_str_digits())"
        )
