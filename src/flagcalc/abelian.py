"""Commutative shadows of signed words.

Three layers, each a monoid homomorphism out of the previous one:

* :func:`multiset_quotient` forgets letter order, keeping one count per
  signed generator;
* :func:`abelianize` (factoring through :func:`difference_map`) keeps only
  the difference ``#c_i+  -  #c_i-`` per generator;
* :func:`reduce_coset` reduces an integer vector modulo the row lattice of a
  relation matrix, yielding a canonical coset representative.

Lattice reduction uses an integer Hermite-style echelon basis computed once
per lattice; all arithmetic is arbitrary-precision, so there is no overflow
to guard against.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError, ParseError
from .words import GeneratorSet, SignedWord, sign_char


@dataclass(frozen=True)
class SignedMultiset:
    """Occurrence counts of ``c_i+`` and ``c_i-`` for each generator."""

    plus: tuple[int, ...]
    minus: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.plus) != len(self.minus):
            raise DomainError("plus and minus count vectors must have equal length")
        if any(c < 0 for c in self.plus + self.minus):
            raise DomainError("multiset counts must be nonnegative")

    def __add__(self, other: "SignedMultiset") -> "SignedMultiset":
        if not isinstance(other, SignedMultiset):
            return NotImplemented
        if len(other.plus) != len(self.plus):
            raise DomainError("cannot add multisets of different dimensions")
        return SignedMultiset(
            tuple(a + b for a, b in zip(self.plus, other.plus)),
            tuple(a + b for a, b in zip(self.minus, other.minus)),
        )


@dataclass(frozen=True)
class AbelianVector:
    """Integer coordinate vector, one entry per generator."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coords:
            raise DomainError("abelian vector needs at least one coordinate")

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "AbelianVector") -> "AbelianVector":
        if not isinstance(other, AbelianVector):
            return NotImplemented
        if other.dim != self.dim:
            raise DomainError("cannot add vectors of different dimensions")
        return AbelianVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "AbelianVector":
        return AbelianVector(tuple(-c for c in self.coords))

    def __str__(self) -> str:
        return format_vector(self.coords)


def multiset_quotient(word: SignedWord) -> SignedMultiset:
    """Forget letter order; additive over concatenation."""
    n = len(word.gens)
    plus = [0] * n
    minus = [0] * n
    for letter in word.letters:
        if letter.sign > 0:
            plus[letter.gen] += 1
        else:
            minus[letter.gen] += 1
    return SignedMultiset(tuple(plus), tuple(minus))


def difference_map(ms: SignedMultiset) -> AbelianVector:
    """Per-generator count difference; collapses each ``{c+, c-}`` pair."""
    return AbelianVector(tuple(p - m for p, m in zip(ms.plus, ms.minus)))


def abelianize(word: SignedWord) -> AbelianVector:
    """Signed exposure counts ``#c_i+ - #c_i-``; negates under the involution."""
    return difference_map(multiset_quotient(word))


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


@dataclass(frozen=True)
class RelationLattice:
    """Integer row lattice in Z^dim, given by (possibly dependent) rows."""

    rows: tuple[tuple[int, ...], ...]
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DomainError("lattice dimension must be at least 1")
        for row in self.rows:
            if len(row) != self.dim:
                raise DomainError(
                    f"lattice row {row!r} does not have dimension {self.dim}"
                )

    @classmethod
    def free(cls, dim: int) -> "RelationLattice":
        """The zero lattice: no relations at all."""
        return cls((), dim)

    @classmethod
    def from_rows(cls, rows: list[list[int]], dim: int | None = None) -> "RelationLattice":
        if dim is None:
            if not rows:
                raise DomainError("cannot infer dimension from an empty row list")
            dim = len(rows[0])
        return cls(tuple(tuple(int(x) for x in row) for row in rows), dim)

    @cached_property
    def _echelon(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """Canonical echelon basis and its pivot columns.

        Pivots are positive and strictly right-moving down the basis; entries
        above each pivot are reduced into ``[0, pivot)``, so equal lattices
        presented by different rows share one basis.
        """
        basis: list[list[int]] = []
        pivots: list[int] = []
        for row in self.rows:
            v = list(row)
            while True:
                j = _first_nonzero(v)
                if j is None:
                    break
                k = bisect_left(pivots, j)
                if k < len(pivots) and pivots[k] == j:
                    brow = basis[k]
                    a, b = brow[j], v[j]
                    if b % a == 0:
                        q = b // a
                        v = [x - q * y for x, y in zip(v, brow)]
                    else:
                        g, x, y = _xgcd(a, b)
                        combined = [x * p + y * q2 for p, q2 in zip(brow, v)]
                        v = [(a // g) * q2 - (b // g) * p for p, q2 in zip(brow, v)]
                        basis[k] = combined
                else:
                    basis.insert(k, v)
                    pivots.insert(k, j)
                    break
        for k, j in enumerate(pivots):
            if basis[k][j] < 0:
                basis[k] = [-x for x in basis[k]]
        for k in range(len(basis)):
            j = pivots[k]
            pivot = basis[k][j]
            for i in range(k):
                q = basis[i][j] // pivot
                if q:
                    basis[i] = [x - q * y for x, y in zip(basis[i], basis[k])]
        return tuple(tuple(r) for r in basis), tuple(pivots)

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        return self._echelon[0]

    def reduce(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        """Canonical coset representative of ``coords`` modulo the lattice."""
        if len(coords) != self.dim:
            raise DomainError(
                f"vector of dimension {len(coords)} against lattice of dimension {self.dim}"
            )
        basis, pivots = self._echelon
        v = list(coords)
        for brow, j in zip(basis, pivots):
            q = v[j] // brow[j]
            if q:
                v = [x - q * y for x, y in zip(v, brow)]
        return tuple(v)

    def contains(self, coords: tuple[int, ...]) -> bool:
        return all(x == 0 for x in self.reduce(coords))


@dataclass(frozen=True)
class HomologyClass:
    """A coset of the relation lattice, stored by its canonical representative."""

    lattice: RelationLattice
    rep: AbelianVector

    def __post_init__(self) -> None:
        if self.rep.dim != self.lattice.dim:
            raise DomainError("representative dimension does not match lattice")

    @property
    def is_zero(self) -> bool:
        return self.rep.is_zero

    def __str__(self) -> str:
        return format_vector(self.rep.coords)


def reduce_coset(vector: AbelianVector, lattice: RelationLattice) -> HomologyClass:
    """Idempotent reduction of ``vector`` to its canonical coset representative."""
    return HomologyClass(lattice, AbelianVector(lattice.reduce(vector.coords)))


def diagram_check(u: SignedWord, v: SignedWord, lattice: RelationLattice) -> bool:
    """Abelianize-then-reduce commutes with concatenation on ``u`` and ``v``."""
    via_concat = reduce_coset(abelianize(u.concat(v)), lattice)
    via_sum = reduce_coset(abelianize(u) + abelianize(v), lattice)
    return via_concat == via_sum


def tower_image(
    word: SignedWord, lattice: RelationLattice
) -> tuple[SignedMultiset, AbelianVector, HomologyClass]:
    """The word's image at every level of the tower."""
    ms = multiset_quotient(word)
    vec = difference_map(ms)
    return ms, vec, reduce_coset(vec, lattice)


def format_multiset(ms: SignedMultiset, gens: GeneratorSet) -> str:
    """Render as ``{a+:2, a-:0, b+:0, b-:1}`` in generator order."""
    if len(ms.plus) != len(gens):
        raise DomainError("multiset dimension does not match generator set")
    parts = []
    for i, name in enumerate(gens.names):
        parts.append(f"{name}{sign_char(1)}:{ms.plus[i]}")
        parts.append(f"{name}{sign_char(-1)}:{ms.minus[i]}")
    return "{" + ", ".join(parts) + "}"


def format_vector(coords: tuple[int, ...]) -> str:
    """Render integers as ``(2, -1)``; a single one renders as ``(2)``."""
    return "(" + ", ".join(str(c) for c in coords) + ")"


def parse_vector(text: str, *, line: int = 1) -> AbelianVector:
    """Parse ``(n1, n2, ...)`` with integer entries."""
    stripped = text.strip()
    if not (stripped.startswith("(") and stripped.endswith(")")):
        raise ParseError(
            "vector literal must be parenthesized",
            line=line,
            column=1,
            expected=("'(n1, n2, ...)'",),
        )
    body = stripped[1:-1].strip()
    if not body:
        raise ParseError(
            "vector literal needs at least one entry", line=line, column=2
        )
    coords = []
    for part in body.split(","):
        part = part.strip()
        try:
            coords.append(int(part))
        except ValueError:
            raise ParseError(
                f"bad integer {part!r} in vector literal",
                line=line,
                column=1 + stripped.index(part),
                expected=("integer",),
            ) from None
    return AbelianVector(tuple(coords))


def parse_lattice(text: str, dim: int | None = None) -> RelationLattice:
    """Parse a lattice file: one row of integers per line, ``#`` comments allowed."""
    rows: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        row = []
        for token in line.split():
            try:
                row.append(int(token))
            except ValueError:
                raise ParseError(
                    f"bad integer {token!r} in lattice row",
                    line=lineno,
                    column=raw.index(token) + 1,
                    expected=("integer",),
                ) from None
        if rows and len(row) != len(rows[0]):
            raise ParseError(
                f"row has {len(row)} entries, expected {len(rows[0])}",
                line=lineno,
                column=1,
            )
        rows.append(row)
    if not rows:
        if dim is None:
            raise ParseError("lattice file declares no rows and no dimension is known")
        return RelationLattice.free(dim)
    if dim is not None and len(rows[0]) != dim:
        raise DomainError(
            f"lattice rows have dimension {len(rows[0])}, expected {dim}"
        )
    return RelationLattice.from_rows(rows)


def format_lattice(lattice: RelationLattice) -> str:
    """Inverse of :func:`parse_lattice` for the stored rows."""
    return "\n".join(" ".join(str(x) for x in row) for row in lattice.rows)
