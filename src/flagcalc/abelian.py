"""Commutative shadows of signed words.

Three layers, each a monoid homomorphism out of the previous one:

* :func:`multiset_quotient` forgets letter order, keeping one count per
  letter code: ``2k`` counts with ``#c_i+`` at ``2i`` and ``#c_i-`` at
  ``2i + 1``, the order :func:`format_multiset` prints;
* :func:`abelianize` keeps only the difference ``#c_i+  -  #c_i-`` per
  generator, counted straight from the word's letter codes;
* :meth:`RelationLattice.reduce` reduces an integer vector modulo the row
  lattice of a relation matrix, yielding a canonical coset representative.

Multisets and vectors are plain ``tuple[int, ...]``s.  A vector has one
entry per generator, the type :func:`flagcalc.plane.winding_profile` gives a
loop's image in H_1.

Lattice reduction uses an integer Hermite-style echelon basis computed once
per lattice.  One rule reduces both a vector and the basis itself, whose
rows are reduced by the rows below them from the bottom up; all arithmetic
is arbitrary-precision, so there is no overflow to guard against.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DomainError, ParseError, parse_at, plain_digits, read_int, strip_comment, too_long_to_write
)
from .words import GeneratorSet, SignedWord, letter_tokens


def multiset_quotient(word: SignedWord) -> tuple[int, ...]:
    """Forget letter order: one count per letter code, additive over concatenation."""
    counts = [0] * (2 * len(word.gens))
    for code in word.codes:
        counts[code] += 1
    return tuple(counts)


def abelianize(word: SignedWord) -> tuple[int, ...]:
    """Signed exposure counts ``#c_i+ - #c_i-``; negates under the involution."""
    coords = [0] * len(word.gens)
    for code in word.codes:
        coords[code >> 1] += 1 - 2 * (code & 1)
    return tuple(coords)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    # Returns (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g.
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _first_nonzero(row: list[int]) -> int | None:
    for j, value in enumerate(row):
        if value:
            return j
    return None


def _reduce_by(v: list[int], rows: Sequence[Sequence[int]], pivots: Sequence[int]) -> list[int]:
    # Puts v's entry at each echelon row's pivot into [0, pivot), row by row.
    for brow, j in zip(rows, pivots):
        q = v[j] // brow[j]
        if q:
            v = [x - q * y for x, y in zip(v, brow)]
    return v


@dataclass(frozen=True, eq=False)
class RelationLattice:
    """Integer row lattice in Z^dim, given by (possibly dependent) rows."""

    rows: tuple[tuple[int, ...], ...]
    dim: int

    def __post_init__(self) -> None:
        if type(self.dim) is not int or self.dim < 1:
            raise DomainError(f"lattice dimension must be an int >= 1, not {self.dim!r}")
        for row in self.rows:
            if len(row) != self.dim:
                raise DomainError(
                    f"lattice row {row!r} does not have dimension {self.dim}"
                )
            if any(type(x) is not int for x in row):
                raise DomainError(f"lattice row {row!r} has an entry that is not an int")

    @classmethod
    def from_rows(cls, rows: list[list[int]], dim: int | None = None) -> "RelationLattice":
        if dim is None:
            if not rows:
                raise DomainError("cannot infer dimension from an empty row list")
            dim = len(rows[0])
        return cls(tuple(map(tuple, rows)), dim)

    @cached_property
    def _echelon(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """Canonical echelon basis and its pivot columns.

        Pivots are positive and move right down the basis.  After each row
        joins, each basis row is reduced by the rows below it, from the bottom
        up, by the rule of :meth:`reduce`; that keeps the entries bounded
        (Kannan & Bachem 1979), and equal lattices share one basis.
        """
        basis: list[list[int]] = []
        pivots: list[int] = []
        for row in self.rows:
            v = list(row)
            while (j := _first_nonzero(v)) is not None:
                k = bisect_left(pivots, j)
                if k == len(pivots) or pivots[k] != j:
                    basis.insert(k, v if v[j] > 0 else [-x for x in v])
                    pivots.insert(k, j)
                    break
                brow = basis[k]
                a, b = brow[j], v[j]
                if b % a == 0:
                    q = b // a
                    v = [x - q * y for x, y in zip(v, brow)]
                else:
                    # The combined row's pivot is the gcd, which is positive.
                    g, x, y = _xgcd(a, b)
                    basis[k] = [x * p + y * q2 for p, q2 in zip(brow, v)]
                    v = [(a // g) * q2 - (b // g) * p for p, q2 in zip(brow, v)]
            for k in range(len(basis) - 2, -1, -1):
                basis[k] = _reduce_by(basis[k], basis[k + 1 :], pivots[k + 1 :])
        return tuple(tuple(r) for r in basis), tuple(pivots)

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        return self._echelon[0]

    def __eq__(self, other: object) -> bool:
        """Equal as lattices, ``(dim, basis)``, whatever rows present them."""
        if not isinstance(other, RelationLattice):
            return NotImplemented
        return self.dim == other.dim and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.dim, self.basis))

    def reduce(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        """Canonical coset representative of ``coords`` modulo the lattice."""
        if len(coords) != self.dim:
            raise DomainError(
                f"vector of dimension {len(coords)} against lattice of dimension {self.dim}"
            )
        if any(type(x) is not int for x in coords):
            raise DomainError(f"vector {coords!r} has an entry that is not an int")
        return tuple(_reduce_by(list(coords), *self._echelon))

    def contains(self, coords: tuple[int, ...]) -> bool:
        return all(x == 0 for x in self.reduce(coords))


def format_multiset(counts: tuple[int, ...], gens: GeneratorSet) -> str:
    """Render as ``{a+:2, a-:0, b+:0, b-:1}`` in letter-code order."""
    if len(counts) != 2 * len(gens):
        raise DomainError("multiset dimension does not match generator set")
    pairs = zip(letter_tokens(gens), counts)
    return "{" + ", ".join(f"{token}:{count}" for token, count in pairs) + "}"


def format_vector(coords: tuple[int, ...]) -> str:
    """Render integers as ``(2, -1)``; a single one renders as ``(2)``."""
    try:
        return "(" + ", ".join(str(c) for c in coords) + ")"
    except ValueError:
        raise too_long_to_write() from None


def parse_vector(text: str) -> tuple[int, ...]:
    """Parse ``(n1, n2, ...)`` with integer entries."""
    stripped = text.strip()
    offset = len(text) - len(text.lstrip())  # of ``stripped`` in ``text``
    if not (stripped.startswith("(") and stripped.endswith(")")):
        raise ParseError(
            "vector literal must be parenthesized",
            column=offset + 1,
            expected=("'(n1, n2, ...)'",),
        )
    inner = stripped[1:-1]
    if not inner.strip():
        raise ParseError("vector literal needs at least one entry", column=offset + 2)
    parts = inner.split(",")
    try:
        # One check of the whole literal lets int() read each entry; else the
        # integer reader reads them, and places its error at the entry.
        if plain_digits(inner):
            return tuple(map(int, parts))
    except ValueError:
        pass
    message = "bad integer {} in vector literal"
    coords = []
    column = offset + 2  # of the current comma part in ``text``
    for part in parts:
        start = column + len(part) - len(part.lstrip())
        coords.append(parse_at(1, start, read_int, part.strip(), message))
        column += len(part) + 1
    return tuple(coords)


def parse_lattice_row(raw: str) -> list[int]:
    """Parse one lattice row: integers, then an optional ``#`` comment."""
    text = strip_comment(raw)
    try:
        if plain_digits(text):  # as in parse_vector
            return list(map(int, text.split()))
    except ValueError:
        pass
    message = "bad integer {} in lattice row"
    return [parse_at(1, m.start() + 1, read_int, m[0], message) for m in re.finditer(r"\S+", text)]


def parse_lattice(text: str) -> RelationLattice:
    """Parse a lattice file: one row per line, blank and comment lines skipped."""
    rows: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        row = parse_at(lineno, 1, parse_lattice_row, raw)
        if not row:
            continue
        if rows and len(row) != len(rows[0]):
            raise ParseError(
                f"row has {len(row)} entries, expected {len(rows[0])}", line=lineno
            )
        rows.append(row)
    if not rows:
        raise ParseError("lattice file declares no rows and no dimension is known")
    return RelationLattice.from_rows(rows)


def format_lattice(lattice: RelationLattice) -> str:
    """Inverse of :func:`parse_lattice` for the stored rows."""
    return "\n".join(" ".join(str(x) for x in row) for row in lattice.rows)
