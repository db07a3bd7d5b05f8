"""Built-in brute-force property suites.

Each suite sweeps one family of algebraic laws over a small exhaustive or
seeded universe and reports the number of checks performed plus any
counterexamples found.  The CLI exposes them through ``check <suite|all>``;
they use fixed internal generator sets and seeds, so their output is
deterministic regardless of session state.

:func:`verify_group_law` is the group-law sweep on any plane, decided on
winding profiles.  The ``oracle`` suite runs it on one puncture and on two,
and ``oracle sweep`` on the session's plane, sample count and seed.
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
# Builds a record from fields already checked, skipping its class's ``__new__``.
_new = tuple.__new__
# An element of H_1 = Z^k: a word's abelianization or a loop's winding profile.
Vector = tuple[int, ...]


def _add(u: Vector, v: Sequence[int]) -> Vector:
    """Coordinatewise sum; ``+`` on tuples would concatenate."""
    return tuple([a + b for a, b in zip(u, v)])


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def tick(self, ok: bool, detail: str, *args: object) -> None:
        """Count one check; on failure keep ``detail % args``, formatted only then."""
        self.checks += 1
        if not ok:
            self.failures.append(detail % args if args else detail)


def involution_suite() -> SuiteResult:
    """Involution is an anti-automorphism of order two; fibers are classes."""
    result = SuiteResult("involution")
    gens = GeneratorSet.of("a", "b", "c")
    by_length = [list(words.words_of_length(gens, n)) for n in range(5)]
    universe = list(chain.from_iterable(by_length))
    for w in universe:
        result.tick(w.involution().involution() == w, "double involution moved %r", w)
        result.tick(
            words.class_of(w) == words.class_of(w.involution()), "fiber of %r split", w
        )
    for u in universe:
        for v in chain.from_iterable(by_length[: 5 - len(u)]):  # len(u) + len(v) <= 4
            result.tick(
                u.concat(v).involution() == v.involution().concat(u.involution()),
                "anti-automorphism failed on %r * %r",
                u,
                v,
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
                        "law broke at (%s, %s, %s, %s)",
                        a,
                        words.sign_char(sigma),
                        words.sign_char(tau),
                        b,
                    )
    return result


def trees_suite() -> SuiteResult:
    """Flip realizes the involution; word round-trips; orbits stay in class.

    The flip sweep decides each tree ``t`` of 2 to 5 leaves once: ``eval_tree``
    of ``(flip(t), +)`` must give the codes of ``t`` at ``-``.  Those come from
    a table of every smaller tree's codes at ``+`` and at ``-``, composed from
    its children's entries and not by ``eval_tree``: ``t`` at ``+`` reads
    ``form(left, sigma) + form(right, -tau)`` and at ``-`` its involution
    ``form(right, tau) + form(left, -sigma)``.  Flip is a bijection on the
    trees of each size, so every tree is still evaluated once.  The table
    holds trees below the largest size only, which are the only children.
    """
    result = SuiteResult("trees")
    gens = GeneratorSet.of("a", "b")
    largest = 5
    # Each tree's codes at + and at -, for trees of fewer than ``largest`` leaves.
    table = {
        leaf: ((2 * leaf.gen,), (2 * leaf.gen + 1,))
        for leaf in trees.all_trees(1, len(gens))
    }
    for size in range(2, largest + 1):
        for tree in trees.all_trees(size, len(gens)):
            sigma, tau, left, right = tree
            left_plus, left_minus = table[left]
            right_plus, right_minus = table[right]
            minus = (right_plus if tau > 0 else right_minus) + (
                left_minus if sigma > 0 else left_plus
            )
            if size < largest:
                plus = (left_plus if sigma > 0 else left_minus) + (
                    right_minus if tau > 0 else right_plus
                )
                table[tree] = (plus, minus)
            flipped = _new(trees.RootedPresentation, (trees.flip(tree), PLUS))
            result.tick(
                trees.eval_tree(flipped, gens).codes == minus,
                "flip mismatch on a %d-leaf tree",
                size,
            )
    for w in words.iter_words(gens, 5):
        if len(w) == 0:
            continue
        result.tick(
            trees.eval_tree(trees.word_to_tree(w), gens) == w,
            "round trip moved %r",
            w,
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
                "orbit of a %d-leaf presentation left its class",
                size,
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
        product = words.pair(x, PLUS, MINUS, y)
        return words.class_of(product, (product,))

    for a in classes:
        for b in classes:
            for c in classes:
                left = words.pair(keep_product(a, b), PLUS, MINUS, c)
                right = words.pair(a, PLUS, MINUS, keep_product(b, c))
                result.tick(
                    left == right,
                    "triple product disagreed at (%s, %s, %s)",
                    a,
                    b,
                    c,
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
                len(back_and_forth) > 0, "%r cancelled against its involution", w
            )
            result.tick(
                not any(abelian.abelianize(back_and_forth)),
                "%r * involution did not abelianize to zero",
                w,
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
                == _add(abelian.multiset_quotient(u), abelian.multiset_quotient(v)),
                "multiset additivity failed on %r, %r",
                u,
                v,
            )
            vec = abelian.abelianize(uv)
            summed = _add(abelian.abelianize(u), abelian.abelianize(v))
            result.tick(
                vec == summed, "abelianize additivity failed on %r, %r", u, v
            )
            result.tick(
                lattice.reduce(vec) == lattice.reduce(summed),
                "diagram check failed on %r, %r",
                u,
                v,
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
                "built member rejected at trial %d: %s",
                trial,
                vec,
            )
            result.tick(
                lat.reduce(vec) == zero,
                "member not reduced to zero at trial %d: %s",
                trial,
                vec,
            )
        for vec in others:
            verdict = _exact_member(rows, vec)
            result.tick(
                lat.contains(vec) == verdict,
                "membership mismatch at trial %d for %s",
                trial,
                vec,
            )
            if not verdict:
                result.tick(
                    lat.reduce(vec) != zero,
                    "non-member reduced to zero at trial %d: %s",
                    trial,
                    vec,
                )
        for vec in members + others:
            reduced = lat.reduce(vec)
            result.tick(
                lat.reduce(reduced) == reduced,
                "reduction not idempotent at trial %d for %s",
                trial,
                vec,
            )
            for row in rows:
                result.tick(
                    lat.reduce(_add(vec, row)) == reduced,
                    "reduction not shift-invariant at trial %d for %s",
                    trial,
                    vec,
                )
    return result


def _contractible_square(punctured: plane.PuncturedPlane) -> plane.FlaggedLoop:
    """A counterclockwise unit square below and right of every puncture, winding 0."""
    x = max(p.x for p in punctured.punctures)
    y = min(p.y for p in punctured.punctures)
    corners = ((7, -8), (7, -7), (6, -7), (6, -8))
    return plane.FlaggedLoop(
        tuple(plane.Point(x + dx, y + dy) for dx, dy in corners), 0, "F"
    )


def verify_group_law(
    punctured: plane.PuncturedPlane, samples: int = 50, seed: int = 0
) -> list[SuiteResult]:
    """Check the group behavior of loop composition in ``H_1`` of any plane.

    Four sweeps over seeded loops, each decided on winding profiles, a loop's
    image in ``H_1 = Z^k`` for ``k`` punctures: the ``(+,-)`` sum adds them
    (``addition``), the contractible square is a unit on either side
    (``identity``), the ``(+,+)`` self-sum cancels to zero (``inverse``), and
    iterated sums associate (``associativity``).  Each ``l_i # l_(i+1)`` at
    ``(+,-)`` is built once and serves the addition check and both bracketings.
    """
    if samples < 1:
        raise DomainError("need at least one sample")
    loops = plane.sample_loops(punctured, samples, seed)
    unit = _contractible_square(punctured)
    show = abelian.format_vector

    def wound(
        a: plane.FlaggedLoop, sa: words.Sign, sb: words.Sign, b: plane.FlaggedLoop
    ) -> Vector:
        summed = plane.connected_sum_auto(a, sa, sb, b, punctured)
        return plane.winding_profile(summed, punctured)

    def check(
        law: SuiteResult, got: Vector, want: Vector, where: str, *at: int
    ) -> None:
        # Formatting only failures: formatting every case cost 5% of a sweep.
        if got == want:
            law.tick(True, where)
        else:
            law.tick(False, where + ": %s != %s", *at, show(got), show(want))

    profiles = [plane.winding_profile(loop, punctured) for loop in loops]
    # pairs[i] is l_i # l_(i+1) at (+,-).
    pairs = [
        plane.connected_sum_auto(a, PLUS, MINUS, b, punctured)
        for a, b in zip(loops, loops[1:] + loops[:1])
    ]
    names = ("addition", "identity", "inverse", "associativity")
    laws = [SuiteResult(name) for name in names]
    addition, identity, inverse, associativity = laws
    for i, (l1, w1) in enumerate(zip(loops, profiles)):
        j, k = (i + 1) % samples, (i + 2) % samples
        got = plane.winding_profile(pairs[i], punctured)
        check(addition, got, _add(w1, profiles[j]), "loops %d,%d", i, j)
        check(identity, wound(unit, PLUS, MINUS, l1), w1, "loop %d left unit sum", i)
        check(identity, wound(l1, PLUS, MINUS, unit), w1, "loop %d right unit sum", i)
        check(inverse, wound(l1, PLUS, PLUS, l1), (0,) * len(w1), "loop %d self-sum", i)
        assoc_l = wound(pairs[i], PLUS, MINUS, loops[k])
        assoc_r = wound(l1, PLUS, MINUS, pairs[j])
        check(associativity, assoc_l, assoc_r, "loops %d,%d,%d", i, j, k)
    return laws


def oracle_suite() -> SuiteResult:
    """Exact-geometry sweeps: group law, signed addition, crossing words.

    The group-law sweep runs on one puncture and on two.  On two, a loop's
    crossing word must abelianize to its winding profile and turn into its
    involution when the loop's traversal is reversed.
    """
    result = SuiteResult("oracle")
    one = plane.ORIGIN_PLANE
    two = plane.PuncturedPlane((plane.Point.of(0, 0), plane.Point.of(10, 0)))
    for punctured, seed in ((one, _SEED), (two, _SEED + 2)):
        for law in verify_group_law(punctured, samples=50, seed=seed):
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
                    "signed addition failed on pair %d at (%s,%s)",
                    i,
                    words.sign_char(sigma),
                    words.sign_char(tau),
                )

    for i, loop in enumerate(plane.sample_loops(two, 100, _SEED + 2)):
        word = plane.crossing_word(loop, two)
        back = "B" if loop.traversal == "F" else "F"
        reverse = plane.FlaggedLoop(loop.vertices, loop.flag_vertex, back)
        result.tick(
            plane.crossing_word(reverse, two) == word.involution(),
            "reversing loop %d does not invert its crossing word",
            i,
        )
        result.tick(
            abelian.abelianize(word) == plane.winding_profile(loop, two),
            "crossing exponents disagree with windings on loop %d",
            i,
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
