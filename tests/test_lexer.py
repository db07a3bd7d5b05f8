"""The command-line lexer against the shell-style splitting it replaces."""

import io
import shlex

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcalc.cli import _lex, run_script
from flagcalc.errors import ParseError

# The characters of flagcalc's commands, the ones that quote, escape and
# comment, and whitespace that shlex splits on (and \xa0, which it does not).
ALPHABET = "ab+-()[]:,/01 lf pair" + "'\"\\#" + "\t\xa0\r\n"


def shlex_words(line: str) -> list[str] | None:
    """``shlex.split(line, comments=True)``, or None where shlex refuses the line."""
    try:
        return shlex.split(line, comments=True)
    except ValueError:
        return None


def lexed_words(line: str) -> list[str] | None:
    try:
        return [value for value, _, _ in _lex(line)]
    except ParseError:
        return None


@settings(max_examples=3000)
@given(st.text(ALPHABET, max_size=30))
def test_lex_splits_and_refuses_as_shlex_does(line):
    assert lexed_words(line) == shlex_words(line)


@settings(max_examples=1000)
@given(st.text(ALPHABET, max_size=30))
def test_each_token_span_lexes_to_its_own_value(line):
    try:
        tokens = _lex(line)
    except ParseError:
        return
    end = 0
    for value, start, stop in tokens:
        assert end <= start < stop
        end = stop
        assert lexed_words(line[start:stop]) == [value]


@pytest.mark.parametrize(
    "line, words",
    [
        ("a#b c", ["a"]),
        ("inv a+ # the involution", ["inv", "a+"]),
        ("a\\#b", ["a#b"]),
        ("'a#b'", ["a#b"]),
        ('pair ++ "a+ b+" c+', ["pair", "++", "a+ b+", "c+"]),
        ('"a\\"b\\\\c\\d"', ['a"b\\c\\d']),
        ("'a\\b'", ["a\\b"]),
        ("a\\ b", ["a b"]),
        ("inv ''", ["inv", ""]),
        ("a\xa0b\tc", ["a\xa0b", "c"]),
    ],
)
def test_words(line, words):
    assert lexed_words(line) == shlex_words(line) == words


def test_tokens_carry_their_spans():
    line = "  pair ++ 'a+ b+'  c+#x"
    assert _lex(line) == [("pair", 2, 6), ("++", 7, 9), ("a+ b+", 10, 17), ("c+", 19, 21)]


@pytest.mark.parametrize(
    "line, error",
    [
        ("inv 'a+ b+", "1:5: no closing quotation"),
        ('inv a+ "b+', "1:8: no closing quotation"),
        ('inv "a+\\', "1:5: no closing quotation"),
        ("inv a+\\", "1:7: no character after a backslash"),
    ],
)
def test_unfinished_quotes_and_escapes_are_refused_at_their_column(line, error):
    with pytest.raises(ParseError) as caught:
        _lex(line)
    assert str(caught.value) == error


def test_a_refused_line_is_one_error_line_and_the_script_goes_on():
    out, err = io.StringIO(), io.StringIO()
    code = run_script("gens a b\ninv 'a+\ninv a+\n", out=out, err=err)
    assert (out.getvalue(), err.getvalue(), code) == (
        "generators: a b\na-\n",
        "error: 2:5: no closing quotation\n",
        2,
    )


def test_a_quoted_literal_is_built_from_the_token_values():
    out, err = io.StringIO(), io.StringIO()
    code = run_script('gens a b\ninv ""\ninv "a+  b+"\nab a+\\ b+\n', out=out, err=err)
    assert (out.getvalue(), err.getvalue(), code) == (
        "generators: a b\n\nb- a-\n(1, 1)\n",
        "",
        0,
    )
