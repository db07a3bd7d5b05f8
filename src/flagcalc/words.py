"""Signed words over an ordered generator alphabet.

A word is a finite sequence of letters ``c+`` / ``c-`` drawn from a declared
generator set; the empty word is the monoid identity.  Reversing a word and
negating every sign is an involutive anti-automorphism.  Each word and its
involution form an unordered two-element fiber, a *presentation class*.
Which member is printed as canonical is a display choice: :func:`class_of`
takes the lex-least member unless the caller names preferred words.

A word stores each letter ``c_i^s`` as the int code ``2*i + (s < 0)``, so
the involution reverses the codes and flips their low bit, and comparing
code tuples is the letter order (generator index ascending, then ``+``
before ``-``).  ``SignedWord(gens, codes)`` is the one checked constructor:
it refuses any code that is not an ``int`` in ``range(2 * len(gens))``.

Free reduction (:func:`free_reduce`) cancels adjacent letters ``c+ c-`` and
``c- c+`` until none remain.  It is the map from this monoid onto the free
group on the generators: ``SignedWord.concat`` is the monoid's
concatenation, and the free-group product of ``u`` and ``v`` is
``free_reduce(u.concat(v))``.  On a punctured plane's crossing words
(:func:`flagcalc.plane.crossing_word`) the free group is the plane's
fundamental group pi_1.

Connected sums of two classes are computed on chosen presentations via
:func:`pair` and satisfy a commutation law checked by
:func:`check_commutation_law`:  ``pair(a, s, t, b)`` and ``pair(b, t, s, a)``
always land in the same presentation class.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Literal

from .errors import DomainError, ParseError, UnknownGeneratorError

Sign = Literal[1, -1]

PLUS: Sign = 1
MINUS: Sign = -1

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_LETTER_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)([+-])")


def sign_char(sign: Sign) -> str:
    """One-character rendering of a sign, ``+`` or ``-``."""
    return "+" if sign > 0 else "-"


# Each sign pair by its text, ``sigma`` then ``tau``.
_SIGN_PAIRS: dict[str, tuple[Sign, Sign]] = {
    sign_char(s) + sign_char(t): (s, t) for s in (PLUS, MINUS) for t in (PLUS, MINUS)
}


def parse_sign_pair(token: str) -> tuple[Sign, Sign]:
    """Parse a sign pair like ``+-``: ``sigma`` then ``tau``."""
    pair = _SIGN_PAIRS.get(token)
    if pair is None:
        raise ParseError(
            f"bad sign pair {token!r}", column=1, expected=("two signs like '+-'",)
        )
    return pair


def _check_sign(sign: int) -> None:
    if sign not in (PLUS, MINUS):
        raise DomainError(f"sign must be +1 or -1, got {sign!r}")


@dataclass(frozen=True)
class GeneratorSet:
    """Ordered alphabet of generator names.

    Names must be unique identifiers (letter followed by letters, digits or
    underscores).  The order given here fixes letter order everywhere else:
    lexicographic comparisons, abelianized coordinates, printed output.
    """

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if type(self.names) is not tuple:
            raise DomainError(
                f"generator names must be a tuple of str, not {type(self.names).__name__}"
            )
        if not self.names:
            raise DomainError("generator set must contain at least one name")
        seen: set[str] = set()
        for name in self.names:
            if type(name) is not str or not _NAME_RE.fullmatch(name):
                raise DomainError(f"invalid generator name {name!r}")
            if name in seen:
                raise DomainError(f"duplicate generator name {name!r}")
            seen.add(name)

    @classmethod
    def of(cls, *names: str) -> "GeneratorSet":
        return cls(tuple(names))

    def __len__(self) -> int:
        return len(self.names)


@dataclass(frozen=True, slots=True, init=False)
class SignedWord:
    """An immutable word over a fixed generator set, one letter code per letter."""

    gens: GeneratorSet
    codes: tuple[int, ...]

    def __init__(self, gens: GeneratorSet, codes: Iterable[int] = ()) -> None:
        if not isinstance(gens, GeneratorSet):
            raise DomainError(f"gens must be a GeneratorSet, got {type(gens).__name__}")
        codes = tuple(codes)
        n = len(gens)
        for code in codes:
            if type(code) is not int or not 0 <= code < 2 * n:
                raise DomainError(
                    f"letter code {code!r} is not an int in range({2 * n}) for {n} generators"
                )
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "codes", codes)

    @classmethod
    def _of_codes(cls, gens: GeneratorSet, codes: tuple[int, ...]) -> "SignedWord":
        """The word of ``codes``, each already in ``range(2 * len(gens))``."""
        word = object.__new__(cls)
        object.__setattr__(word, "gens", gens)
        object.__setattr__(word, "codes", codes)
        return word

    def __len__(self) -> int:
        return len(self.codes)

    def __str__(self) -> str:
        return format_word(self)

    def concat(self, other: "SignedWord") -> "SignedWord":
        """Concatenation; both operands must share one generator set."""
        if not isinstance(other, SignedWord):
            raise DomainError(f"cannot concatenate SignedWord with {type(other).__name__}")
        if other.gens != self.gens:
            raise DomainError("cannot concatenate words over different generator sets")
        return SignedWord._of_codes(self.gens, self.codes + other.codes)

    def involution(self) -> "SignedWord":
        """Reverse the word and negate every sign (an anti-automorphism)."""
        return SignedWord._of_codes(self.gens, tuple(c ^ 1 for c in reversed(self.codes)))


def free_reduce(word: SignedWord) -> SignedWord:
    """``word`` with adjacent inverse letters cancelled until none remain.

    A code ``c`` cancels a preceding ``c ^ 1``, the same generator with the
    opposite sign (Lyndon & Schupp 1977, *Combinatorial Group Theory*, ch. I).
    """
    out: list[int] = []
    for c in word.codes:
        if out and out[-1] == c ^ 1:
            out.pop()
        else:
            out.append(c)
    return SignedWord._of_codes(word.gens, tuple(out))


@dataclass(frozen=True, eq=False)
class PresentationClass:
    """Unordered fiber ``{canonical, anti}`` with a distinguished member.

    Equality and hashing treat the fiber as an unordered pair, so two classes
    of the same word with different canonical members compare equal.  A class
    is *degenerate* when the word is fixed by the involution (for example
    ``a+ a-``); the fiber then has a single element and the flag is reported
    rather than the input rejected.
    """

    canonical: SignedWord
    anti: SignedWord

    def __post_init__(self) -> None:
        for member in (self.canonical, self.anti):
            if not isinstance(member, SignedWord):
                raise DomainError(
                    f"class members must be SignedWords, got {type(member).__name__}"
                )
        if self.anti != self.canonical.involution():
            raise DomainError("anti presentation must be the involution of canonical")

    @classmethod
    def _of_fiber(cls, canonical: SignedWord, anti: SignedWord) -> "PresentationClass":
        """The class of ``canonical`` and ``anti``, already its involution."""
        fiber = object.__new__(cls)
        object.__setattr__(fiber, "canonical", canonical)
        object.__setattr__(fiber, "anti", anti)
        return fiber

    @property
    def is_degenerate(self) -> bool:
        return self.canonical == self.anti

    def members(self) -> frozenset[SignedWord]:
        return frozenset((self.canonical, self.anti))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PresentationClass):
            return NotImplemented
        # ``anti`` is the involution of ``canonical``, so one member decides.
        return other.canonical == self.canonical or other.canonical == self.anti

    def __hash__(self) -> int:
        return hash(self.members())

    def __str__(self) -> str:
        return f"{{{format_word(self.canonical)} | {format_word(self.anti)}}}"


def class_of(word: SignedWord, preferred: Collection[SignedWord] = ()) -> PresentationClass:
    """Presentation class of ``word``.

    The canonical member is ``word`` if it is in ``preferred``, else its
    involution if that is, else the lexicographically least member.
    """
    anti = word.involution()
    if word not in preferred and (anti in preferred or anti.codes < word.codes):
        word, anti = anti, word
    return PresentationClass._of_fiber(word, anti)


def pair(a: PresentationClass, sigma: Sign, tau: Sign, b: PresentationClass) -> SignedWord:
    """Connected-sum presentation: ``a`` at sign ``sigma`` then ``b`` at ``-tau``."""
    _check_sign(sigma)
    _check_sign(tau)
    left = a.canonical if sigma > 0 else a.anti
    return left.concat(b.anti if tau > 0 else b.canonical)


def check_commutation_law(
    a: PresentationClass, sigma: Sign, tau: Sign, b: PresentationClass
) -> bool:
    """``pair(a, s, t, b)`` and ``pair(b, t, s, a)`` present the same class."""
    return class_of(pair(a, sigma, tau, b)) == class_of(pair(b, tau, sigma, a))


def words_of_length(gens: GeneratorSet, length: int) -> Iterator[SignedWord]:
    """All words of exactly ``length`` letters, in deterministic order."""
    for codes in itertools.product(range(2 * len(gens)), repeat=length):
        yield SignedWord._of_codes(gens, codes)


def iter_words(gens: GeneratorSet, max_length: int) -> Iterator[SignedWord]:
    """All words of length ``0..max_length``, shortest first."""
    for n in range(max_length + 1):
        yield from words_of_length(gens, n)


def letter_tokens(gens: GeneratorSet) -> list[str]:
    """The token of each letter code in code order: ``a+ a- b+ b- ...``."""
    return [name + sign for name in gens.names for sign in "+-"]


def format_word(word: SignedWord) -> str:
    """Render as ``a+ b-``; the empty word renders as the empty string."""
    tokens = letter_tokens(word.gens)
    return " ".join([tokens[c] for c in word.codes])


def parse_word(text: str, gens: GeneratorSet) -> SignedWord:
    """Parse a word literal: whitespace-separated ``<name>+`` / ``<name>-`` tokens.

    The empty (or all-whitespace) string parses to the empty word.
    """
    names = gens.names
    codes: list[int] = []
    for match in re.finditer(r"\S+", text):
        token = match.group()
        m = _LETTER_RE.fullmatch(token)
        if m is None:
            raise ParseError(
                f"bad letter token {token!r}",
                column=match.start() + 1,
                expected=("'<name>+'", "'<name>-'"),
            )
        name = m.group(1)
        if name not in names:
            raise UnknownGeneratorError(name, column=match.start() + 1)
        codes.append(2 * names.index(name) + (m.group(2) == "-"))
    return SignedWord._of_codes(gens, tuple(codes))
