"""Built-in brute-force property suites.

Each suite sweeps one family of algebraic laws over a small exhaustive or
seeded universe and reports the number of checks performed plus any
counterexamples found.  The CLI exposes them through ``check <suite|all>``;
they use fixed internal generator sets and seeds, so their output is
deterministic regardless of session state.

:func:`verify_group_law` is the group-law sweep around one puncture.  The
``oracle`` suite runs it at a fixed seed, and ``oracle sweep`` runs it at the
sample count and seed the user gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from math import gcd
from random import Random
from typing import Callable, Sequence

from . import abelian, plane, trees, words
from .errors import DomainError
from .words import MINUS, PLUS, GeneratorSet

_SIGNS = (PLUS, MINUS)
_SEED = 514


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def tick(self, ok: bool, detail: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(detail)


def involution_suite() -> SuiteResult:
    """Involution is an anti-automorphism of order two; fibers are classes."""
    result = SuiteResult("involution")
    gens = GeneratorSet.of("a", "b", "c")
    by_length = [list(words.words_of_length(gens, n)) for n in range(5)]
    universe = list(chain.from_iterable(by_length))
    for w in universe:
        result.tick(w.involution().involution() == w, f"double involution moved {w!r}")
        result.tick(
            words.class_of(w) == words.class_of(w.involution()),
            f"fiber of {w!r} split",
        )
    for u in universe:
        for v in chain.from_iterable(by_length[: 5 - len(u)]):  # len(u) + len(v) <= 4
            result.tick(
                u.concat(v).involution() == v.involution().concat(u.involution()),
                f"anti-automorphism failed on {u!r} * {v!r}",
            )
    return result


def laws_suite() -> SuiteResult:
    """The four pairing commutation identities over all generator pairs."""
    result = SuiteResult("laws")
    gens = GeneratorSet.of("a", "b", "c", "d")
    classes = [
        words.class_of(words.parse_word(f"{name}+", gens)) for name in gens.names
    ]
    for a in classes:
        for b in classes:
            for sigma in _SIGNS:
                for tau in _SIGNS:
                    result.tick(
                        words.check_commutation_law(a, sigma, tau, b),
                        f"law broke at ({a}, {words.sign_char(sigma)}, "
                        f"{words.sign_char(tau)}, {b})",
                    )
    return result


def trees_suite() -> SuiteResult:
    """Flip realizes the involution; word round-trips; orbits stay in class."""
    result = SuiteResult("trees")
    gens = GeneratorSet.of("a", "b")
    for size in range(2, 6):
        for tree in trees.all_trees(size, len(gens)):
            flipped = trees.eval_tree(trees.RootedPresentation(trees.flip(tree)), gens)
            straight = trees.eval_tree(trees.RootedPresentation(tree), gens)
            result.tick(
                flipped == straight.involution(),
                f"flip mismatch on a {size}-leaf tree",
            )
    for w in words.iter_words(gens, 5):
        if len(w) == 0:
            continue
        result.tick(
            trees.eval_tree(trees.word_to_tree(w), gens) == w,
            f"round trip moved {w!r}",
        )
    visited: set[trees.RootedPresentation] = set()
    for size in range(1, 5):
        for rooted in trees.iter_rooted(size, len(gens)):
            if rooted in visited:
                continue
            orbit = trees.move_closure(rooted)
            visited.update(orbit)
            cls = words.class_of(trees.eval_tree(rooted, gens))
            result.tick(
                all(
                    words.class_of(trees.eval_tree(member, gens)) == cls
                    for member in orbit
                ),
                f"orbit of a {size}-leaf presentation left its class",
            )
    return result


def assoc_suite() -> SuiteResult:
    """Pair-based triple products agree as words for all generator triples."""
    result = SuiteResult("assoc")
    gens = GeneratorSet.of("a", "b", "c")
    classes = [
        words.class_of(words.parse_word(f"{name}+", gens)) for name in gens.names
    ]

    def keep_product(x: words.PresentationClass, y: words.PresentationClass):
        return words.PresentationClass.from_canonical(words.pair(x, PLUS, MINUS, y))

    for a in classes:
        for b in classes:
            for c in classes:
                left = words.pair(keep_product(a, b), PLUS, MINUS, c)
                right = words.pair(a, PLUS, MINUS, keep_product(b, c))
                result.tick(
                    left == right,
                    f"triple product disagreed at ({a}, {b}, {c})",
                )
    return result


def monoid_suite() -> SuiteResult:
    """Cancellation fails wordwise but succeeds in the abelian shadow."""
    result = SuiteResult("monoid")
    gens = GeneratorSet.of("a", "b", "c")
    for length in range(1, 4):
        for w in words.words_of_length(gens, length):
            back_and_forth = w.concat(w.involution())
            result.tick(
                len(back_and_forth) > 0,
                f"{w!r} cancelled against its involution",
            )
            result.tick(
                abelian.abelianize(back_and_forth).is_zero,
                f"{w!r} * involution did not abelianize to zero",
            )
    return result


def _det(m: Sequence[Sequence[int]]) -> int:
    """Integer determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


def _rank_and_divisor(rows: Sequence[Sequence[int]], dim: int) -> tuple[int, int]:
    """Rank ``r`` of ``rows`` and the gcd of their r x r minors.

    The gcd is the r-th determinantal divisor.  Unimodular row operations and
    zero rows leave it unchanged, so it depends only on the row lattice: it is
    the lattice's covolume inside its own span.
    """
    for r in range(min(len(rows), dim), 0, -1):
        minors = [
            _det([[row[j] for j in cols] for row in picked])
            for picked in combinations(rows, r)
            for cols in combinations(range(dim), r)
        ]
        if any(minors):
            return r, gcd(*minors)
    return 0, 1


def _exact_member(rows: Sequence[Sequence[int]], vec: Sequence[int]) -> bool:
    """Decide membership in the integer row lattice by determinantal divisors.

    Appending ``vec`` keeps the row lattice exactly when it keeps the rank and
    the gcd of the maximal minors (Kannan & Bachem 1979), dependent rows or not.
    """
    dim = len(vec)
    return _rank_and_divisor(rows, dim) == _rank_and_divisor([*rows, vec], dim)


def homology_suite() -> SuiteResult:
    """Additivity of the tower maps plus lattice reduction against brute force."""
    result = SuiteResult("homology")
    gens = GeneratorSet.of("a", "b")
    universe = list(words.iter_words(gens, 3))
    lattice = abelian.RelationLattice.from_rows([[2, 0]])
    for u in universe:
        for v in universe:
            uv = u.concat(v)
            result.tick(
                abelian.multiset_quotient(uv)
                == abelian.multiset_quotient(u) + abelian.multiset_quotient(v),
                f"multiset additivity failed on {u!r}, {v!r}",
            )
            result.tick(
                abelian.abelianize(uv)
                == abelian.abelianize(u) + abelian.abelianize(v),
                f"abelianize additivity failed on {u!r}, {v!r}",
            )
            result.tick(
                abelian.diagram_check(u, v, lattice),
                f"diagram check failed on {u!r}, {v!r}",
            )
    rng = Random(_SEED)
    zero = (0, 0, 0)
    for trial in range(100):
        rows = [
            [rng.randint(-3, 3) for _ in range(3)]
            for _ in range(rng.randint(1, 3))
        ]
        lat = abelian.RelationLattice.from_rows(rows, dim=3)
        members = [
            tuple(
                sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(3)
            )
            for coeffs in (
                [rng.randint(-9, 9) for _ in rows],
                [rng.randint(-9, 9) for _ in rows],
            )
        ]
        others = [tuple(rng.randint(-6, 6) for _ in range(3)) for _ in range(3)]
        for vec in members:
            result.tick(
                lat.contains(vec),
                f"built member rejected at trial {trial}: {vec}",
            )
            result.tick(
                lat.reduce(vec) == zero,
                f"member not reduced to zero at trial {trial}: {vec}",
            )
        for vec in others:
            verdict = _exact_member(rows, vec)
            result.tick(
                lat.contains(vec) == verdict,
                f"membership mismatch at trial {trial} for {vec}",
            )
            if not verdict:
                result.tick(
                    lat.reduce(vec) != zero,
                    f"non-member reduced to zero at trial {trial}: {vec}",
                )
        for vec in members + others:
            reduced = lat.reduce(vec)
            result.tick(
                lat.reduce(reduced) == reduced,
                f"reduction not idempotent at trial {trial} for {vec}",
            )
            for row in rows:
                shifted = tuple(a + b for a, b in zip(vec, row))
                result.tick(
                    lat.reduce(shifted) == reduced,
                    f"reduction not shift-invariant at trial {trial} for {vec}",
                )
    return result


def _contractible_square(p: plane.Point) -> plane.FlaggedLoop:
    """A counterclockwise unit square below and right of ``p``, winding 0 around it."""
    corners = ((7, -8), (7, -7), (6, -7), (6, -8))
    return plane.FlaggedLoop(
        tuple(plane.Point(p.x + dx, p.y + dy) for dx, dy in corners), 0, "F"
    )


def verify_group_law(
    punctured: plane.PuncturedPlane, samples: int = 50, seed: int = 0
) -> list[SuiteResult]:
    """Check the group behavior of loop composition around one puncture.

    Four sweeps over seeded loops with windings in ``[-3, 3]``, one result
    each: the ``(+,-)`` sum adds winding numbers (``addition``), the
    contractible square is a unit on either side (``identity``), the ``(+,+)``
    self-sum cancels to winding zero (``inverse``), and iterated sums
    associate (``associativity``).  Each ``l_i # l_(i+1)`` at ``(+,-)`` is
    built once and serves the addition check and both bracketings.
    """
    if len(punctured.punctures) != 1:
        raise DomainError("the group-law oracle needs exactly one puncture")
    if samples < 1:
        raise DomainError("need at least one sample")
    p = punctured.punctures[0]
    loops = plane.sample_loops(punctured, samples, seed)
    windings = [plane.winding_number(loop, p) for loop in loops]
    unit = _contractible_square(p)

    def sum_of(
        a: plane.FlaggedLoop, sa: words.Sign, sb: words.Sign, b: plane.FlaggedLoop
    ) -> plane.FlaggedLoop:
        return plane.connected_sum_auto(a, sa, sb, b, punctured)

    def wound(
        a: plane.FlaggedLoop, sa: words.Sign, sb: words.Sign, b: plane.FlaggedLoop
    ) -> int:
        return plane.winding_number(sum_of(a, sa, sb, b), p)

    # pairs[i] is l_i # l_(i+1) at (+,-).
    pairs = [
        sum_of(loop, PLUS, MINUS, loops[(i + 1) % samples])
        for i, loop in enumerate(loops)
    ]
    laws = [
        SuiteResult(name)
        for name in ("addition", "identity", "inverse", "associativity")
    ]
    addition, identity, inverse, associativity = laws
    for i, (l1, w1) in enumerate(zip(loops, windings)):
        j, k = (i + 1) % samples, (i + 2) % samples
        w2 = windings[j]
        got = plane.winding_number(pairs[i], p)
        addition.tick(got == w1 + w2, f"loops {i},{i + 1}: {got} != {w1}+{w2}")
        left = wound(unit, PLUS, MINUS, l1)
        identity.tick(left == w1, f"loop {i}: left unit sum wound {left} != {w1}")
        right = wound(l1, PLUS, MINUS, unit)
        identity.tick(right == w1, f"loop {i}: right unit sum wound {right} != {w1}")
        cancelled = wound(l1, PLUS, PLUS, l1)
        inverse.tick(cancelled == 0, f"loop {i}: self-sum wound {cancelled} != 0")
        assoc_l = wound(pairs[i], PLUS, MINUS, loops[k])
        assoc_r = wound(l1, PLUS, MINUS, pairs[j])
        associativity.tick(
            assoc_l == assoc_r, f"loops {i},{i + 1},{i + 2}: {assoc_l} != {assoc_r}"
        )
    return laws


def oracle_suite() -> SuiteResult:
    """Exact-geometry sweeps: group law, signed addition, crossing words.

    A crossing word must be the reduced product of its summands' words, sum
    to the winding numbers, and turn into its involution when the loop's
    traversal is reversed.
    """
    result = SuiteResult("oracle")
    one = plane.ORIGIN_PLANE
    for law in verify_group_law(one, samples=50, seed=_SEED):
        result.checks += law.checks
        result.failures.extend(f"group law [{law.name}]: {d}" for d in law.failures)

    loops = plane.sample_loops(one, 100, _SEED + 1)
    origin = one.punctures[0]
    for i in range(50):
        l1, l2 = loops[2 * i], loops[2 * i + 1]
        w1 = plane.winding_number(l1, origin)
        w2 = plane.winding_number(l2, origin)
        for sigma in _SIGNS:
            for tau in _SIGNS:
                total = plane.winding_number(
                    plane.connected_sum_auto(l1, sigma, tau, l2, one), origin
                )
                result.tick(
                    total == sigma * w1 - tau * w2,
                    f"signed addition failed on pair {i} at "
                    f"({words.sign_char(sigma)},{words.sign_char(tau)})",
                )

    two = plane.PuncturedPlane((plane.Point.of(0, 0), plane.Point.of(10, 0)))
    pairs = plane.sample_loops(two, 100, _SEED + 2)
    base = plane.DEFAULT_BASE_POINTS[0]
    for i in range(50):
        l1, l2 = pairs[2 * i], pairs[2 * i + 1]
        n1 = plane.normalize_flag(l1, base, two)
        n2 = plane.normalize_flag(l2, base, two)
        summed = plane.connected_sum(l1, PLUS, MINUS, l2, base, two)
        word = plane.crossing_word(summed, two)
        product = plane.crossing_word(n1, two).concat(plane.crossing_word(n2, two))
        result.tick(
            word == words.free_reduce(product),
            f"crossing word of pair {i} is not the reduced product",
        )
        result.tick(
            abelian.abelianize(word).coords == plane.winding_profile(summed, two),
            f"crossing exponents disagree with windings on pair {i}",
        )
    for i, loop in enumerate(pairs):
        back = "B" if loop.traversal == "F" else "F"
        reverse = plane.FlaggedLoop(loop.vertices, loop.flag_vertex, back)
        result.tick(
            plane.crossing_word(reverse, two)
            == plane.crossing_word(loop, two).involution(),
            f"reversing loop {i} does not invert its crossing word",
        )
    return result


SUITES: dict[str, Callable[[], SuiteResult]] = {
    "involution": involution_suite,
    "laws": laws_suite,
    "trees": trees_suite,
    "assoc": assoc_suite,
    "monoid": monoid_suite,
    "homology": homology_suite,
    "oracle": oracle_suite,
}
