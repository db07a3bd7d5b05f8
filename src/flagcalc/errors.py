"""Exception types shared across the package, and the helpers that read text.

A reader reports an error's line and column in the text it was given; the
code that cut that text out of a longer line or file moves the error there
with :func:`parse_at`.
"""

from __future__ import annotations

import sys
from typing import Callable, TypeVar

_T = TypeVar("_T")

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

    Carries a 1-based line/column position in the text that was read and,
    when useful, the set of token kinds that would have been accepted there.
    An error without a column is about its whole line and reads as column 1.
    :func:`parse_at` moves the position after the error is raised.
    """

    def __init__(
        self,
        message: str,
        *,
        line: int = 1,
        column: int | None = None,
        expected: tuple[str, ...] = (),
    ) -> None:
        self.message = message
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        super().__init__(message)

    def __str__(self) -> str:
        text = f"{self.line}:{self.column or 1}: {self.message}"
        if self.expected:
            text += " (expected " + " or ".join(self.expected) + ")"
        return text


class UnknownGeneratorError(ParseError):
    """A word or tree literal used a generator name that is not declared."""

    def __init__(self, name: str, *, column: int = 1) -> None:
        self.name = name
        super().__init__(
            f"unknown generator {name!r}",
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


def parse_at(line: int, column: int, parse: Callable[..., _T], text: str, *args: object) -> _T:
    """``parse(text, *args)``, with a parse error moved to where ``text`` starts.

    ``text`` starts at ``line`` and ``column`` of a longer text.  The error
    moves ``line - 1`` lines down and, on ``text``'s first line and if it
    has a column, ``column - 1`` columns right.
    """
    try:
        return parse(text, *args)
    except ParseError as exc:
        if exc.line == 1 and exc.column is not None:
            exc.column += column - 1
        exc.line += line - 1
        raise


def read_int(token: str, message: str, expected: tuple[str, ...] = ("integer",)) -> int:
    """``int(token)``, or a parse error at column 1 of ``token`` with ``message``.

    A ``{}`` in ``message`` stands for an excerpt of ``token``.  A number too
    long to read is a :class:`ResourceLimitError` (:func:`check_digit_limit`).
    """
    try:
        return int(token)
    except ValueError:
        check_digit_limit(token)
        message = message.format(excerpt(token))
        raise ParseError(message, column=1, expected=expected) from None


def strip_comment(line: str) -> str:
    """``line`` up to its first ``#``, so that its columns stay the same."""
    return line.split("#", 1)[0]
