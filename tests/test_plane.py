import math
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flagcalc import plane as plane_module
from flagcalc.abelian import abelianize
from flagcalc.errors import DomainError, ParseError, RerouteError
from flagcalc.plane import (
    DEFAULT_BASE_POINTS,
    FlaggedLoop,
    Point,
    PuncturedPlane,
    _detour_point,
    _walk,
    connected_sum,
    connected_sum_auto,
    crossing_word,
    ensure_avoids,
    format_free_word,
    format_loop_literal,
    format_point,
    normalize_flag,
    parse_loop_literal,
    parse_plane_file,
    parse_point,
    sample_loops,
    winding_number,
    winding_profile,
)
from flagcalc.words import SignedWord, free_reduce

ORIGIN = Point.of(0, 0)
ONE_PUNCTURE = PuncturedPlane((ORIGIN,))
TWO_PUNCTURES = PuncturedPlane((ORIGIN, Point.of(10, 0)))

CCW_SQUARE = FlaggedLoop(
    (Point.of(1, -1), Point.of(1, 1), Point.of(-1, 1), Point.of(-1, -1)), 0
)
CW_SQUARE = FlaggedLoop(
    (Point.of(1, -1), Point.of(-1, -1), Point.of(-1, 1), Point.of(1, 1)), 0
)
FAR_SQUARE = FlaggedLoop(
    (Point.of(4, -1), Point.of(4, 1), Point.of(3, 1), Point.of(3, -1)), 0
)

DATA = Path(__file__).parent / "data"
# Three punctures whose y-coordinates have unlike denominators, so sums and
# detours mix denominators 3, 7 and the base points' 3 to 17.
GOLDEN_PLANE = PuncturedPlane(
    (Point.of(0, 0), Point.of(10, Fraction(1, 3)), Point.of(-10, Fraction(-2, 7)))
)

# Punctures close enough that some sampled loops touch one, so sampling has to
# retry, and others put a vertex on a downward ray.
CROWDED_PLANE = PuncturedPlane(
    (Point.of(0, 0), Point.of(3, 5), Point.of(-2, Fraction(1, 2)))
)


def edges(loop: FlaggedLoop):
    """The loop's directed edges, from the flag in traversal order."""
    walk = _walk(loop.vertices, loop.flag_vertex, loop.traversal)
    return zip(walk, walk[1:] + walk[:1])


def angle_sum_winding(loop: FlaggedLoop, puncture: Point) -> int:
    """Independent check: accumulate signed turn angles in floating point."""
    total = 0.0
    for a, b in edges(loop):
        ax, ay = float(a.x - puncture.x), float(a.y - puncture.y)
        bx, by = float(b.x - puncture.x), float(b.y - puncture.y)
        total += math.atan2(ax * by - ay * bx, ax * bx + ay * by)
    return round(total / math.tau)


class TestPoint:
    def test_of_coerces_to_fractions(self):
        p = Point.of(1, -2)
        assert p.x == Fraction(1) and p.y == Fraction(-2)
        assert Point.of(Fraction(1, 3), 0).x == Fraction(1, 3)

    def test_str_is_the_point_literal(self):
        assert str(Point.of(1, Fraction(-1, 2))) == "(1,-1/2)"

    def test_text_reads_as_the_same_point(self):
        p = Point.of("1/3", -12)
        assert p == Point(Fraction(1, 3), -12) and hash(p) == hash(Point(Fraction(1, 3), -12))
        assert Point.of(" 2/6 ", "-24/2") == p
        copy = pickle.loads(pickle.dumps(p))
        assert copy == p and hash(copy) == hash(p)
        assert repr(p) == "Point(x=Fraction(1, 3), y=Fraction(-12, 1))"

    def test_keeps_integers_over_the_least_denominator(self):
        p = Point(Fraction(1, 6), Fraction(-3, 4))
        assert (p._den, p._xy) == (12, (2, -9))
        assert (p.x, p.y) == (Fraction(1, 6), Fraction(-3, 4))
        with pytest.raises(FrozenInstanceError):
            p._den = 1

    @pytest.mark.parametrize("x", [0.5, 1.0, "1", None], ids=repr)
    def test_refuses_a_coordinate_that_is_not_rational(self, x):
        with pytest.raises(DomainError):
            Point(x, 1)
        if not isinstance(x, str):
            with pytest.raises(DomainError):
                Point.of(x, 1)

    @pytest.mark.parametrize("text", ["1.5", "2e1", "1_0", "1/0", "1/-2", ""])
    def test_of_refuses_text_that_is_not_a_coordinate(self, text):
        with pytest.raises(ValueError):
            Point.of(0, text)


class TestPuncturedPlane:
    def test_rejects_duplicate_punctures(self):
        with pytest.raises(DomainError):
            PuncturedPlane((ORIGIN, ORIGIN))

    def test_rejects_shared_x_coordinates(self):
        with pytest.raises(DomainError):
            PuncturedPlane((ORIGIN, Point.of(0, 5)))

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            PuncturedPlane(())

    @pytest.mark.parametrize("puncture", [(5, 0), Fraction(5), None])
    def test_refuses_a_puncture_that_is_not_a_point(self, puncture):
        message = f"^a point must be a Point, not {type(puncture).__name__}$"
        with pytest.raises(DomainError, match=message):
            PuncturedPlane((ORIGIN, puncture))

    def test_gens_name_one_letter_per_puncture(self):
        assert TWO_PUNCTURES.gens.names == ("x1", "x2")
        assert repr(ONE_PUNCTURE) == f"PuncturedPlane(punctures={(ORIGIN,)!r})"
        copy = pickle.loads(pickle.dumps(TWO_PUNCTURES))
        assert copy == TWO_PUNCTURES and copy.gens == TWO_PUNCTURES.gens


class TestFlaggedLoop:
    def test_requires_three_vertices(self):
        with pytest.raises(DomainError):
            FlaggedLoop((ORIGIN, Point.of(1, 0)), 0)

    def test_flag_must_be_in_range(self):
        with pytest.raises(DomainError):
            FlaggedLoop(CCW_SQUARE.vertices, 4)

    def test_traversal_letter(self):
        with pytest.raises(DomainError):
            FlaggedLoop(CCW_SQUARE.vertices, 0, "X")

    def test_rejects_repeated_consecutive_vertices(self):
        with pytest.raises(DomainError):
            FlaggedLoop((ORIGIN, ORIGIN, Point.of(1, 1)), 0)

    def test_refuses_vertices_that_are_not_points(self):
        with pytest.raises(DomainError, match="a point must be a Point, not tuple"):
            FlaggedLoop([(0, 0), (1, 0), (0, 1)], 0)
        with pytest.raises(DomainError, match="not str"):
            FlaggedLoop((ORIGIN, Point.of(1, 0), "(0,1)"), 0)

    def test_derived_loops_are_not_checked_again(self, monkeypatch):
        # Only the public constructors read points through _over_lcd.
        calls = []
        over_lcd = plane_module._over_lcd

        def counted(points):
            calls.append(points)
            return over_lcd(points)

        monkeypatch.setattr(plane_module, "_over_lcd", counted)
        base = Point.of(Fraction(1, 3), -12)
        a, b = sample_loops(TWO_PUNCTURES, 2, 7)
        moved = normalize_flag(a, base, TWO_PUNCTURES)
        connected_sum(moved, 1, -1, b, base, TWO_PUNCTURES)
        assert calls == []
        FlaggedLoop(moved.vertices, 0)
        assert calls == [moved.vertices]

    def test_walk_rotates_to_flag(self):
        loop = FlaggedLoop(CCW_SQUARE.vertices, 2)
        walk = _walk(loop.vertices, loop.flag_vertex, loop.traversal)
        assert walk[0] == Point.of(-1, 1)
        assert len(walk) == 4

    def test_backward_traversal_keeps_flag_first(self):
        loop = FlaggedLoop(CCW_SQUARE.vertices, 1, "B")
        v = CCW_SQUARE.vertices
        walk = _walk(loop.vertices, loop.flag_vertex, loop.traversal)
        assert walk == (v[1], v[0], v[3], v[2])

    def test_is_frozen_and_pickles_by_value(self):
        loop = FlaggedLoop(CCW_SQUARE.vertices, 2, "B")
        with pytest.raises(FrozenInstanceError):
            loop.flag_vertex = 0
        assert pickle.loads(pickle.dumps(loop)) == loop

    def test_vertex_on_puncture_is_rejected(self):
        bad = FlaggedLoop((ORIGIN, Point.of(1, 1), Point.of(2, 0)), 0)
        with pytest.raises(DomainError):
            ensure_avoids(bad, ONE_PUNCTURE)

    def test_edge_through_puncture_is_rejected(self):
        bad = FlaggedLoop(
            (Point.of(-1, 0), Point.of(1, 0), Point.of(1, 2), Point.of(-1, 2)), 0
        )
        with pytest.raises(DomainError):
            ensure_avoids(bad, ONE_PUNCTURE)


class TestWindingNumber:
    def test_square_orientations(self):
        assert winding_number(CCW_SQUARE, ORIGIN) == 1
        assert winding_number(CW_SQUARE, ORIGIN) == -1
        assert winding_number(FAR_SQUARE, ORIGIN) == 0

    def test_puncture_on_edge_is_rejected(self):
        bad = FlaggedLoop(
            (Point.of(-1, 0), Point.of(1, 0), Point.of(1, 2), Point.of(-1, 2)), 0
        )
        with pytest.raises(DomainError):
            winding_number(bad, ORIGIN)

    def test_agrees_with_angle_sum_on_fixtures(self):
        for loop in (CCW_SQUARE, CW_SQUARE, FAR_SQUARE):
            assert winding_number(loop, ORIGIN) == angle_sum_winding(loop, ORIGIN)

    def test_agrees_with_angle_sum_on_sampled_loops(self):
        for loop in sample_loops(TWO_PUNCTURES, 40, seed=11):
            for p in TWO_PUNCTURES.punctures:
                assert winding_number(loop, p) == angle_sum_winding(loop, p)

    def test_reversal_negates(self):
        for loop in sample_loops(ONE_PUNCTURE, 20, seed=3):
            flipped = "B" if loop.traversal == "F" else "F"
            reverse = FlaggedLoop(loop.vertices, loop.flag_vertex, flipped)
            assert winding_number(reverse, ORIGIN) == -winding_number(loop, ORIGIN)

    def test_profile_orders_by_puncture(self):
        assert winding_profile(CCW_SQUARE, TWO_PUNCTURES) == (1, 0)


def every_walk(points) -> list[FlaggedLoop]:
    """The loop on ``points`` from each flag vertex, in both traversals."""
    return [FlaggedLoop(points, f, t) for f in range(len(points)) for t in "FB"]


def sense(loop: FlaggedLoop) -> int:
    return 1 if loop.traversal == "F" else -1


def split_at_heights(points, heights) -> tuple[Point, ...]:
    """``points`` with a vertex added wherever an edge strictly crosses one of ``heights``."""
    out = []
    for a, b in zip(points, points[1:] + points[:1]):
        out.append(a)
        crossed = [h for h in heights if min(a.y, b.y) < h < max(a.y, b.y)]
        cuts = sorted(((h - a.y) / (b.y - a.y), h) for h in crossed)
        out.extend(Point(a.x + t * (b.x - a.x), h) for t, h in cuts)
    return tuple(out)


class TestWindingAtThePunctureHeight:
    """Edges with an end on a puncture's horizontal, which the skip of edges
    wholly above or below it must keep."""

    def test_horizontal_edge_through_the_puncture_is_refused(self):
        for loop in every_walk((Point.of(-1, 0), Point.of(1, 0), Point.of(0, 1))):
            with pytest.raises(DomainError, match="touches the puncture"):
                winding_profile(loop, ONE_PUNCTURE)
            with pytest.raises(DomainError, match="^loop edge 0 passes through puncture 1$"):
                ensure_avoids(loop, ONE_PUNCTURE)

    def test_horizontal_edge_beside_the_puncture_counts_nothing(self):
        # Counterclockwise around the origin, with the edge (1,0)-(2,0) on
        # its horizontal; the edge leaving (2,0) upward is the one that counts.
        right = (
            Point.of(1, 0), Point.of(2, 0), Point.of(2, 1),
            Point.of(-1, 1), Point.of(-1, -1), Point.of(1, -1),
        )
        left = tuple(Point(-p.x, p.y) for p in reversed(right))
        for points in (right, left):
            for loop in every_walk(points):
                ensure_avoids(loop, ONE_PUNCTURE)
                assert winding_profile(loop, ONE_PUNCTURE) == (sense(loop),)
                assert angle_sum_winding(loop, ORIGIN) == sense(loop)

    def test_a_vertex_on_the_horizontal_counts_once(self):
        # The diamond crosses the origin's horizontal at its vertex (1,0):
        # that crossing counts once, on one of the two edges that meet there.
        diamond = (Point.of(1, 0), Point.of(0, 1), Point.of(-1, 0), Point.of(0, -1))
        for loop in every_walk(diamond):
            assert winding_profile(loop, ONE_PUNCTURE) == (sense(loop),)
        # A vertex that meets the horizontal and turns back counts nothing.
        above = (Point.of(1, 0), Point.of(2, 1), Point.of(0, 1))
        below = (Point.of(1, 0), Point.of(0, -1), Point.of(2, -1))
        for points in (above, below):
            for loop in every_walk(points):
                assert winding_profile(loop, ONE_PUNCTURE) == (0,)

    @pytest.mark.parametrize("seed", [7, 8])
    def test_every_flag_gives_one_profile_and_b_negates_it(self, seed):
        # Each sampled loop, and the same loop with a vertex added wherever
        # it crosses a puncture's horizontal, which changes no winding.
        punctures = CROWDED_PLANE.punctures
        heights = {p.y for p in punctures}
        for loop in sample_loops(CROWDED_PLANE, 100, seed):
            forward = FlaggedLoop(loop.vertices, 0, "F")
            want = tuple(angle_sum_winding(forward, p) for p in punctures)
            for points in (loop.vertices, split_at_heights(loop.vertices, heights)):
                for walk in every_walk(points):
                    got = winding_profile(walk, CROWDED_PLANE)
                    assert got == tuple(sense(walk) * w for w in want)


class TestNormalizeFlag:
    BASE = Point.of(Fraction(1, 3), -12)

    def test_preserves_windings(self):
        for loop in sample_loops(TWO_PUNCTURES, 25, seed=5):
            moved = normalize_flag(loop, self.BASE, TWO_PUNCTURES)
            assert winding_profile(moved, TWO_PUNCTURES) == winding_profile(
                loop, TWO_PUNCTURES
            )

    def test_result_is_based_and_forward(self):
        moved = normalize_flag(CCW_SQUARE, self.BASE, TWO_PUNCTURES)
        assert moved.flag_vertex == 0
        assert moved.traversal == "F"
        assert moved.vertices[0] == self.BASE

    def test_base_at_existing_flag_only_rotates(self):
        loop = FlaggedLoop(CCW_SQUARE.vertices, 2)
        moved = normalize_flag(loop, Point.of(-1, 1), TWO_PUNCTURES)
        assert moved.vertices[0] == Point.of(-1, 1)
        assert winding_profile(moved, TWO_PUNCTURES) == (1, 0)

    def test_base_on_puncture_is_rejected(self):
        with pytest.raises(DomainError):
            normalize_flag(CCW_SQUARE, ORIGIN, ONE_PUNCTURE)

    @pytest.mark.parametrize(
        "plane", [ONE_PUNCTURE, TWO_PUNCTURES, GOLDEN_PLANE], ids=["one", "two", "three"]
    )
    def test_remembered_moves_match_a_fresh_loop(self, plane):
        a, b = DEFAULT_BASE_POINTS[:2]
        # The third base equals the first without being the same object.
        bases = (a, b, Point(a.x, a.y))
        for loop in sample_loops(plane, 20, seed=19):
            for base in bases:
                fresh = FlaggedLoop(loop.vertices, loop.flag_vertex, loop.traversal)
                assert _outcome(lambda: normalize_flag(loop, base, plane)) == _outcome(
                    lambda: normalize_flag(fresh, base, plane)
                )
            fresh = FlaggedLoop(loop.vertices, loop.flag_vertex, loop.traversal)
            assert loop == fresh and hash(loop) == hash(fresh)
            assert repr(loop) == repr(fresh)
            copy = pickle.loads(pickle.dumps(loop))
            assert copy == fresh and hash(copy) == hash(fresh) and repr(copy) == repr(fresh)
            assert pickle.dumps(loop) == pickle.dumps(fresh)

    def test_a_refused_move_is_not_remembered(self):
        loop = FlaggedLoop(CCW_SQUARE.vertices, 0)
        moved = normalize_flag(loop, self.BASE, ONE_PUNCTURE)
        with pytest.raises(DomainError, match="base point coincides"):
            normalize_flag(loop, ORIGIN, ONE_PUNCTURE)
        assert normalize_flag(loop, self.BASE, ONE_PUNCTURE) is moved

    def test_gives_up_when_no_return_leg_clears_the_punctures(self):
        # The corridor from (1/3, 0) runs straight down to the base.  Two
        # punctures 12/2^20 either side of it at y = -24/5 sit inside every
        # triangle the search tries, since its smallest offset is 12/2^15.
        flag = Point.of(Fraction(1, 3), 0)
        eps = Fraction(12, 2**20)
        plane = PuncturedPlane(
            (Point.of(flag.x - eps, Fraction(-24, 5)), Point.of(flag.x + eps, Fraction(-24, 5)))
        )
        loop = FlaggedLoop(
            (flag, Point.of(Fraction(4, 3), 0), Point.of(Fraction(4, 3), 1), Point.of(flag.x, 1)),
            0,
        )
        assert self.BASE == DEFAULT_BASE_POINTS[0]
        with pytest.raises(RerouteError, match="could not route the corridor's return leg"):
            normalize_flag(loop, self.BASE, plane)

    def test_another_plane_is_checked_again(self):
        loop = FlaggedLoop(CCW_SQUARE.vertices, 0)
        normalize_flag(loop, self.BASE, ONE_PUNCTURE)
        on_edge = PuncturedPlane((Point.of(1, 0),))
        with pytest.raises(DomainError, match="passes through puncture"):
            normalize_flag(loop, self.BASE, on_edge)


class TestConnectedSum:
    L1 = CCW_SQUARE
    L2 = FlaggedLoop(
        (Point.of(11, -1), Point.of(11, 1), Point.of(9, 1), Point.of(9, -1)), 0
    )
    BASE = Point.of(Fraction(1, 3), -12)

    @pytest.mark.parametrize(
        "sigma,tau,expected",
        [(1, -1, (1, 1)), (1, 1, (1, -1)), (-1, 1, (-1, -1)), (-1, -1, (-1, 1))],
    )
    def test_signed_addition_on_squares(self, sigma, tau, expected):
        total = connected_sum(self.L1, sigma, tau, self.L2, self.BASE, TWO_PUNCTURES)
        w1 = winding_profile(self.L1, TWO_PUNCTURES)
        w2 = winding_profile(self.L2, TWO_PUNCTURES)
        law = tuple(sigma * a - tau * b for a, b in zip(w1, w2))
        assert winding_profile(total, TWO_PUNCTURES) == law == expected

    def test_signed_addition_on_sampled_loops(self):
        loops = sample_loops(ONE_PUNCTURE, 30, seed=9)
        for i in range(15):
            l1, l2 = loops[2 * i], loops[2 * i + 1]
            w1 = winding_number(l1, ORIGIN)
            w2 = winding_number(l2, ORIGIN)
            for sigma in (1, -1):
                for tau in (1, -1):
                    total = connected_sum_auto(l1, sigma, tau, l2, ONE_PUNCTURE)
                    assert winding_number(total, ORIGIN) == sigma * w1 - tau * w2


    def test_auto_moves_on_when_a_puncture_blocks_the_first_corridor(self):
        # (1/3,-2) lies on the corridor from the flag (1/3,-1) straight down
        # to the first default base (1/3,-12), and off the one to (2/7,-14).
        plane = PuncturedPlane((ORIGIN, Point.of(Fraction(1, 3), -2)))
        loop = FlaggedLoop(
            (
                Point.of(Fraction(1, 3), -1),
                Point.of(2, 0),
                Point.of(Fraction(1, 3), 1),
                Point.of(-2, 0),
            ),
            0,
        )
        first, second = DEFAULT_BASE_POINTS[:2]
        with pytest.raises(RerouteError):
            connected_sum(loop, 1, -1, loop, first, plane)
        total = connected_sum_auto(loop, 1, -1, loop, plane)
        assert total.vertices[total.flag_vertex] == second == Point.of(Fraction(2, 7), -14)
        assert total == connected_sum(loop, 1, -1, loop, second, plane)
        assert winding_profile(total, plane) == (2, 0)

    def test_auto_gives_up_when_every_corridor_is_blocked(self):
        # One puncture at the midpoint of each corridor from the flag (0, 1).
        flag = Point.of(0, 1)
        plane = PuncturedPlane(
            tuple(Point((flag.x + b.x) / 2, (flag.y + b.y) / 2) for b in DEFAULT_BASE_POINTS)
        )
        loop = FlaggedLoop((flag, Point.of(1, 1), Point.of(1, 2), Point.of(0, 2)), 0)
        with pytest.raises(RerouteError, match="no usable base point"):
            connected_sum_auto(loop, 1, -1, loop, plane)


class TestCrossingWord:
    def test_square_crossings(self):
        assert format_free_word(crossing_word(CCW_SQUARE, ONE_PUNCTURE)) == "x1"
        assert format_free_word(crossing_word(CW_SQUARE, ONE_PUNCTURE)) == "x1^-1"
        assert crossing_word(FAR_SQUARE, ONE_PUNCTURE).codes == ()

    def test_second_puncture_uses_its_own_letter(self):
        loop = TestConnectedSum.L2
        assert format_free_word(crossing_word(loop, TWO_PUNCTURES)) == "x2"

    def test_vertex_on_ray_reads_as_right_of_it(self):
        diamond = FlaggedLoop(
            (Point.of(0, -1), Point.of(1, 0), Point.of(0, 1), Point.of(-1, 0)), 0
        )
        assert format_free_word(crossing_word(diamond, ONE_PUNCTURE)) == "x1"
        backward = FlaggedLoop(diamond.vertices, 0, "B")
        assert format_free_word(crossing_word(backward, ONE_PUNCTURE)) == "x1^-1"
        # Arrives from the left at a vertex on the ray and leaves it leftward.
        dipped = FlaggedLoop(
            (Point.of(0, -3), Point.of(2, -4), Point.of(2, -5), Point.of(-2, -5)), 0
        )
        assert crossing_word(dipped, ONE_PUNCTURE).codes == ()

    def test_abelianization_matches_windings(self):
        for loop in sample_loops(TWO_PUNCTURES, 30, seed=21):
            word = crossing_word(loop, TWO_PUNCTURES)
            assert abelianize(word) == winding_profile(loop, TWO_PUNCTURES)

    def test_product_law_for_normalized_loops(self):
        loops = sample_loops(TWO_PUNCTURES, 30, seed=13)
        base = DEFAULT_BASE_POINTS[0]
        for i in range(15):
            n1 = normalize_flag(loops[2 * i], base, TWO_PUNCTURES)
            n2 = normalize_flag(loops[2 * i + 1], base, TWO_PUNCTURES)
            total = connected_sum(n1, 1, -1, n2, base, TWO_PUNCTURES)
            product = crossing_word(n1, TWO_PUNCTURES).concat(
                crossing_word(n2, TWO_PUNCTURES)
            )
            word = crossing_word(total, TWO_PUNCTURES)
            assert word == free_reduce(product)
            assert abelianize(word) == winding_profile(total, TWO_PUNCTURES)

    def test_format(self):
        gens = TWO_PUNCTURES.gens
        assert format_free_word(SignedWord(gens, (0, 0, 3))) == "x1 x1 x2^-1"
        assert format_free_word(SignedWord(gens)) == ""


def eighths(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), 8)


def box(lo: Point, hi: Point) -> list[Point]:
    """The corners of the box from ``lo`` to ``hi``, counterclockwise from lower right."""
    return [Point(hi.x, lo.y), hi, Point(lo.x, hi.y), lo]


def reference_draw(rng: random.Random, plane: PuncturedPlane) -> FlaggedLoop:
    """One of ``sample_loop``'s draws, in its order, built from Points and Fractions."""
    k = len(plane.punctures)
    kind = rng.randrange(k + 2 if k > 1 else 2)
    if kind < k:
        p = plane.punctures[kind]
        laps = rng.randint(1, 3)
        ccw = rng.randint(0, 1) == 1
        c = Point(p.x + eighths(rng, -4, 4), p.y + eighths(rng, -4, 4))
        radii = [1 + t + eighths(rng, 0, 3) for t in range(laps)]
    elif kind == k:
        p = plane.punctures[rng.randrange(k)]
        c = Point(p.x + 3 + eighths(rng, 0, 3), p.y + eighths(rng, -4, 4))
        ccw = rng.randint(0, 1) == 1
        radii = [Fraction(1, 2)]
    if kind <= k:
        vertices = [
            v for a in radii for v in box(Point(c.x - a, c.y - a), Point(c.x + a, c.y + a))
        ]
    else:
        xs = [p.x for p in plane.punctures]
        ys = [p.y for p in plane.punctures]
        margin = 5 + eighths(rng, 1, 3)
        ccw = rng.randint(0, 1) == 1
        vertices = box(
            Point(min(xs) - margin, min(ys) - margin),
            Point(max(xs) + margin, max(ys) + margin),
        )
    if not ccw:
        vertices.reverse()
    flag = rng.randrange(len(vertices))
    return FlaggedLoop(vertices, flag, "F" if rng.randint(0, 1) == 0 else "B")


def reference_sample(rng: random.Random, plane: PuncturedPlane, keeps) -> FlaggedLoop:
    """The first of up to 20 :func:`reference_draw` loops that ``keeps`` returns true on."""
    for _ in range(20):
        loop = reference_draw(rng, plane)
        if keeps(loop):
            return loop
    raise AssertionError("no loop kept in 20 draws")


def crossing_word_sample(
    rng: random.Random, plane: PuncturedPlane, refused: list[str]
) -> FlaggedLoop:
    """``sample_loop``'s draws, keeping a loop once ``crossing_word`` reads it.

    The name of each refusal's error class is appended to ``refused``.
    """

    def reads(loop: FlaggedLoop) -> bool:
        try:
            crossing_word(loop, plane)
        except DomainError as exc:
            refused.append(type(exc).__name__)
            return False
        return True

    return reference_sample(rng, plane, reads)


def avoids(plane: PuncturedPlane):
    def check(loop: FlaggedLoop) -> bool:
        try:
            ensure_avoids(loop, plane)
        except DomainError:
            return False
        return True

    return check


class TestSampling:
    def test_same_seed_same_loops(self):
        assert sample_loops(ONE_PUNCTURE, 12, seed=4) == sample_loops(
            ONE_PUNCTURE, 12, seed=4
        )

    def test_all_samples_are_valid(self):
        for loop in sample_loops(TWO_PUNCTURES, 30, seed=2):
            ensure_avoids(loop, TWO_PUNCTURES)
            crossing_word(loop, TWO_PUNCTURES)

    @pytest.mark.parametrize("seed", [7, 8])
    def test_keeps_the_loops_that_have_crossing_words(self, seed):
        refused: list[str] = []
        rng = random.Random(seed)
        expected = [
            crossing_word_sample(rng, CROWDED_PLANE, refused) for _ in range(200)
        ]
        assert sample_loops(CROWDED_PLANE, 200, seed) == expected
        assert set(refused) == {"DomainError"}

    @pytest.mark.parametrize(
        "plane",
        [ONE_PUNCTURE, TWO_PUNCTURES, CROWDED_PLANE, GOLDEN_PLANE],
        ids=["one", "two", "crowded", "golden"],
    )
    def test_integer_draws_match_the_fraction_draws(self, plane):
        # Equal loops also have equal integer forms: the least denominator
        # and the vertices over it.
        for seed in range(60):
            rng = random.Random(seed)
            expected = [reference_sample(rng, plane, avoids(plane)) for _ in range(12)]
            got = sample_loops(plane, 12, seed)
            assert [
                (loop._den, loop._ints, loop.flag_vertex, loop.traversal) for loop in got
            ] == [
                (loop._den, loop._ints, loop.flag_vertex, loop.traversal) for loop in expected
            ]

    def test_gives_up_when_every_draw_is_refused(self, monkeypatch):
        refused = []

        def refuse(ints, punctures):
            refused.append(ints)
            raise DomainError("loop passes through puncture")

        monkeypatch.setattr(plane_module, "_check_avoids", refuse)
        with pytest.raises(DomainError, match="could not sample a loop clear of the punctures"):
            sample_loops(ONE_PUNCTURE, 1, seed=0)
        assert len(refused) == 20

    def test_windings_stay_small(self):
        for loop in sample_loops(ONE_PUNCTURE, 50, seed=17):
            assert abs(winding_number(loop, ORIGIN)) <= 3


class TestLoopText:
    def test_literal_round_trip(self):
        for loop in (CCW_SQUARE, FlaggedLoop(CCW_SQUARE.vertices, 2, "B")):
            assert parse_loop_literal(format_loop_literal(loop)) == loop

    def test_fractional_coordinates(self):
        loop = parse_loop_literal("loop 0 F (1/3,-12) (1,1) (-1,1)")
        assert loop.vertices[0] == Point.of(Fraction(1, 3), -12)

    def test_malformed_literals(self):
        for text in [
            "loop 0 (1,1) (2,2) (3,1)",
            "loop 9 F (1,1) (2,2) (3,1)",
            "loop 0 F (1,1) (2,2)",
            "walk 0 F (1,1) (2,2) (3,1)",
            "loop 0 F (1,1) (2,2) (3;1)",
        ]:
            with pytest.raises(ParseError):
                parse_loop_literal(text)

    def test_plane_file_round_trip(self):
        text = (
            "# fixture\n"
            "punctures: (0,0) (10,0)\n"
            "loop 0 F (1,-1) (1,1) (-1,1) (-1,-1)\n"
            "loop 0 F (11,-1) (11,1) (9,1) (9,-1)\n"
        )
        plane, loops = parse_plane_file(text)
        assert plane == TWO_PUNCTURES
        assert len(loops) == 2
        assert winding_profile(loops[1], plane) == (0, 1)

    def test_plane_file_rejects_loop_through_puncture(self):
        text = "punctures: (0,0)\nloop 0 F (-1,0) (1,0) (1,2) (-1,2)\n"
        with pytest.raises(ParseError):
            parse_plane_file(text)

    @pytest.mark.parametrize(
        "text, error",
        [
            ("punctures: (0,0) (5,x)\n", "1:18: bad rational coordinate in '(5,x)'"),
            (
                "punctures: (0,0)\nloop 0 F (1,1) (2,-1) (3,1/0)\n",
                "2:23: bad rational coordinate in '(3,1/0)'",
            ),
            (
                "punctures: (0,0)\n  loop 0 F (1,1) (2,-1) 3,1\n",
                "2:25: bad point '3,1' (expected '(x,y)' with rational coordinates)",
            ),
            (
                "punctures: (0,0)\n  loop x F (1,1) (2,-1) (3,1)\n",
                "2:8: bad flag index 'x' (expected integer)",
            ),
            (
                "punctures: (0,0)\nloop 0 G (1,1) (2,-1) (3,1)\n",
                "2:8: bad traversal 'G' (expected 'F' or 'B')",
            ),
            ("punctures: (0,0)\nloop 0\n", "2:7: loop literal is missing its header fields"),
            ("", "1:1: plane file is empty"),
            ("# nothing\n\n", "1:1: plane file is empty"),
            (
                "punctures: (0,0) (0,1)\n",
                "1:1: punctures must have pairwise distinct x-coordinates",
            ),
            (
                "punctures: (0,0)\n  loop 9 F (1,1) (2,2) (3,1)\n",
                "2:1: flag vertex 9 out of range for 3 vertices",
            ),
        ],
    )
    def test_plane_file_errors_name_their_field_column(self, text, error):
        with pytest.raises(ParseError) as caught:
            parse_plane_file(text)
        assert str(caught.value) == error

    def test_plane_file_requires_punctures_first(self):
        with pytest.raises(ParseError):
            parse_plane_file("loop 0 F (1,1) (2,2) (3,1)\n")

    @pytest.mark.parametrize(
        "point",
        ["(1.5,1)", "(2e1,1)", "(1_0,1)", "(١٢,1)", "(１２,1)", "(1/-2,1)", "(0x10,1)"],
        ids=["decimal", "exponent", "underscore", "arabic-indic", "full-width", "1/-2", "hex"],
    )
    def test_plane_file_refuses_other_number_spellings(self, point):
        with pytest.raises(ParseError) as caught:
            parse_plane_file(f"punctures: (0,0) {point}\n")
        assert str(caught.value) == f"1:18: bad rational coordinate in {point!r}"

    def test_an_exponent_cannot_get_round_the_digit_limit(self):
        # Read as a Fraction, this 15-character coordinate has ten million digits.
        with pytest.raises(ParseError) as caught:
            parse_plane_file("punctures: (0,0) (1e10000000,1)\n")
        assert str(caught.value) == "1:18: bad rational coordinate in '(1e10000000,1)'"


@st.composite
def coordinate_texts(draw) -> str:
    """A coordinate in the kept grammar ``[+-]?[0-9]+(/[0-9]+)?``, with spaces around it."""
    digits = st.text("0123456789", min_size=1, max_size=12)
    text = draw(st.sampled_from(["", "+", "-"])) + draw(digits)
    if draw(st.booleans()):
        text += "/" + draw(digits.filter(lambda d: int(d) != 0))
    return draw(st.sampled_from(["", " ", "\t"])) + text + draw(st.sampled_from(["", " "]))


class TestCoordinateGrammar:
    @given(coordinate_texts(), coordinate_texts())
    def test_reads_as_fractions_read_it(self, a, b):
        expected = Point(Fraction(a), Fraction(b))
        assert parse_point(f"({a},{b})") == expected
        assert format_point(parse_point(f"({a},{b})")) == f"({Fraction(a)},{Fraction(b)})"


# --- exact predicates against independent references ------------------------

DENOMINATORS = (1, 3, 7, 2, 4, 8, 16)


@st.composite
def rationals(draw):
    den = draw(st.sampled_from(DENOMINATORS))
    return Fraction(draw(st.integers(-6 * den, 6 * den)), den)


@st.composite
def planes_and_loops(draw):
    """A plane of one to three punctures and a polygon that often grazes them.

    Besides free vertices, a vertex may sit on the horizontal line through a
    puncture or on its downward ray.  In about half the polygons it may also
    sit on a puncture, or mirror the previous vertex through one so that the
    edge between them passes through it.
    """
    punctures = draw(
        st.lists(
            st.builds(Point, rationals(), rationals()),
            min_size=1,
            max_size=3,
            unique_by=lambda p: p.x,
        )
    )
    kinds = ("free", "free", "horizontal", "ray")
    if draw(st.booleans()):
        kinds += ("on", "mirror")
    vertices: list[Point] = []
    for _ in range(draw(st.integers(3, 7))):
        p = draw(st.sampled_from(punctures))
        kind = draw(st.sampled_from(kinds))
        x, y = draw(rationals()), draw(rationals())
        if kind == "on":
            x, y = p.x, p.y
        elif kind == "horizontal":
            y = p.y
        elif kind == "ray":
            x, y = p.x, p.y - abs(y) - Fraction(1, 7)
        elif kind == "mirror" and vertices:
            x, y = 2 * p.x - vertices[-1].x, 2 * p.y - vertices[-1].y
        vertices.append(Point(x, y))
    assume(all(vertices[i - 1] != v for i, v in enumerate(vertices)))
    loop = FlaggedLoop(
        tuple(vertices),
        draw(st.integers(0, len(vertices) - 1)),
        draw(st.sampled_from("FB")),
    )
    return PuncturedPlane(tuple(punctures)), loop


@st.composite
def corridors(draw):
    """A corridor ``w0 -> base`` and punctures placed at ``w0 + alpha d + beta n``.

    ``d`` runs along the corridor and ``n`` across it.  Small dyadic ``beta``
    puts punctures on or near the candidate detour triangles, their edges
    included.
    """
    w0 = draw(st.builds(Point, rationals(), rationals()))
    base = draw(st.builds(Point, rationals(), rationals()))
    assume(w0 != base)
    dx, dy = base.x - w0.x, base.y - w0.y
    alphas = st.integers(-4, 12).map(lambda i: Fraction(i, 8))
    betas = st.sampled_from([Fraction(s, 2**j) for s in (1, -1) for j in range(2, 7)])
    placed = draw(
        st.lists(st.tuples(alphas, st.just(0) | betas), min_size=1, max_size=3)
    )
    punctures = tuple(
        Point(w0.x + a * dx - b * dy, w0.y + a * dy + b * dx) for a, b in placed
    )
    assume(len({p.x for p in punctures}) == len(punctures))
    assume(w0 not in punctures and base not in punctures)
    return PuncturedPlane(punctures), w0, base


def touches(p: Point, a: Point, b: Point) -> bool:
    """Whether ``p`` lies on the closed segment ``ab``, computed on Fractions."""
    return cross(a, b, p) == 0 and (
        min(a.x, b.x) <= p.x <= max(a.x, b.x)
        and min(a.y, b.y) <= p.y <= max(a.y, b.y)
    )


def cross(a: Point, b: Point, p: Point) -> Fraction:
    return (b.x - a.x) * (p.y - a.y) - (p.x - a.x) * (b.y - a.y)


def contact(loop: FlaggedLoop, punctures) -> bool:
    """Whether some edge of ``loop`` touches one of ``punctures``."""
    return any(touches(p, a, b) for p in punctures for a, b in edges(loop))


def shift_clear_of_rays(loop: FlaggedLoop, plane: PuncturedPlane) -> Fraction:
    """A rational ``eps > 0`` such that shifting ``loop`` right by ``eps``
    puts no vertex on a downward ray and sweeps no edge across a puncture.

    Half of the least positive horizontal distance from a puncture to a
    vertex, or along the puncture's horizontal to an edge.
    """
    gaps = [abs(v.x - p.x) for v in loop.vertices for p in plane.punctures]
    for p in plane.punctures:
        for a, b in edges(loop):
            if a.y == b.y == p.y:
                gaps += [abs(a.x - p.x), abs(b.x - p.x)]
            elif min(a.y, b.y) <= p.y <= max(a.y, b.y):
                x = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
                gaps.append(abs(x - p.x))
    # With no positive gap, every vertex is on the one puncture's vertical.
    return min((g for g in gaps if g), default=Fraction(2)) / 2


def reference_detour(w0: Point, base: Point, plane: PuncturedPlane) -> Point | None:
    """The corridor's return-leg point by Fraction arithmetic; None if refused."""
    if any(touches(p, w0, base) for p in plane.punctures):
        return None
    dx, dy = base.x - w0.x, base.y - w0.y
    for t in map(Fraction, ("1/2", "1/3", "2/5", "3/7", "4/9")):
        for k in range(2, 16):
            for side in (1, -1):
                eps = Fraction(side, 2**k)
                q = Point(w0.x + t * dx - eps * dy, w0.y + t * dy + eps * dx)
                signs = [
                    (cross(w0, base, p), cross(base, q, p), cross(q, w0, p))
                    for p in plane.punctures
                ]
                if any(min(s) >= 0 or max(s) <= 0 for s in signs):
                    continue
                return q
    return None


class TestExactPredicates:
    @settings(max_examples=400)
    @given(planes_and_loops())
    def test_winding_agrees_with_angle_sum(self, case):
        plane, loop = case
        for p in plane.punctures:
            if contact(loop, [p]):
                with pytest.raises(DomainError):
                    winding_number(loop, p)
            else:
                assert winding_number(loop, p) == angle_sum_winding(loop, p)

    @settings(max_examples=400)
    @given(planes_and_loops())
    def test_ensure_avoids_raises_exactly_on_contact(self, case):
        plane, loop = case
        if contact(loop, plane.punctures):
            with pytest.raises(DomainError):
                ensure_avoids(loop, plane)
        else:
            ensure_avoids(loop, plane)

    @settings(max_examples=400)
    @given(planes_and_loops())
    def test_crossing_word_sums_to_the_windings(self, case):
        plane, loop = case
        if contact(loop, plane.punctures):
            with pytest.raises(DomainError) as raised:
                crossing_word(loop, plane)
            assert type(raised.value) is DomainError
            return
        word = crossing_word(loop, plane)
        assert abelianize(word) == tuple(
            angle_sum_winding(loop, p) for p in plane.punctures
        )
        flipped = "B" if loop.traversal == "F" else "F"
        reverse = FlaggedLoop(loop.vertices, loop.flag_vertex, flipped)
        assert crossing_word(reverse, plane) == word.involution()
        eps = shift_clear_of_rays(loop, plane)
        shifted = FlaggedLoop(
            tuple(Point(v.x + eps, v.y) for v in loop.vertices),
            loop.flag_vertex,
            loop.traversal,
        )
        assert not any(v.x == p.x for v in shifted.vertices for p in plane.punctures)
        assert crossing_word(shifted, plane) == word

    @settings(max_examples=400)
    @given(corridors())
    def test_detour_point_matches_fraction_reference(self, case):
        plane, w0, base = case
        expected = reference_detour(w0, base, plane)
        points = (w0, base) + plane.punctures
        den = math.lcm(*(c.denominator for p in points for c in (p.x, p.y)))
        w, b, *punctures = [(int(p.x * den), int(p.y * den)) for p in points]
        if expected is None:
            with pytest.raises(RerouteError):
                _detour_point(w, b, punctures)
        else:
            m, (qx, qy) = _detour_point(w, b, punctures)
            assert Point(Fraction(qx, den * m), Fraction(qy, den * m)) == expected


@st.composite
def spread_planes(draw):
    """One to three punctures 20 apart in x, offset by small rationals."""
    count = draw(st.integers(1, 3))
    return PuncturedPlane(
        tuple(
            Point(20 * i + draw(rationals()), draw(rationals()))
            for i in range(count)
        )
    )


def point_literal(loop: FlaggedLoop) -> str:
    """``format_loop_literal`` written through the loop's ``Point`` vertices."""
    points = " ".join(format_point(v) for v in loop.vertices)
    return f"loop {loop.flag_vertex} {loop.traversal} {points}"


def reference_move(loop: FlaggedLoop, base: Point, plane: PuncturedPlane) -> tuple:
    """The vertices ``normalize_flag`` gives, built from Points and Fractions."""
    walk = _walk(loop.vertices, loop.flag_vertex, loop.traversal)
    if walk[0] == base:
        return walk
    return (base,) + walk + (walk[0], reference_detour(walk[0], base, plane))


class TestDerivedLoops:
    """Loops built from integer forms are the loops their Points describe."""

    SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

    def check_loop(self, loop: FlaggedLoop) -> None:
        rebuilt = FlaggedLoop(loop.vertices, loop.flag_vertex, loop.traversal)
        assert loop == rebuilt and hash(loop) == hash(rebuilt)
        literal = format_loop_literal(loop)
        assert literal == point_literal(loop)
        assert parse_loop_literal(literal) == loop

    @settings(max_examples=60, deadline=None)
    @given(spread_planes(), st.integers(0, 10**6))
    def test_moves_and_sums_match_their_points(self, plane, seed):
        try:
            l1, l2 = sample_loops(plane, 2, seed)
        except DomainError:
            assume(False)
        for base in DEFAULT_BASE_POINTS:
            try:
                moved = normalize_flag(l1, base, plane)
            except RerouteError:
                flag = l1.vertices[l1.flag_vertex]
                assert reference_detour(flag, base, plane) is None
                continue
            assert moved.vertices == reference_move(l1, base, plane)
            self.check_loop(moved)
            for sigma, tau in self.SIGN_PAIRS:
                try:
                    summed = connected_sum(l1, sigma, tau, l2, base, plane)
                except RerouteError:
                    continue
                self.check_loop(summed)
                self.check_loop(connected_sum(summed, tau, sigma, l1, base, plane))


# --- pinned output ----------------------------------------------------------


def _outcome(build) -> str:
    try:
        return build()
    except DomainError as exc:
        return f"{type(exc).__name__}: {exc}"


def plane_golden_text() -> str:
    """Flag moves, crossing words and nested sums of loops on ``GOLDEN_PLANE``.

    For each of 59 sampled loops: the loop moved to each default base point
    with its crossing word, then ``(l_i # l_i+1) # l_i+2`` at signs ``(+,-)``
    and ``(-,+)`` with its crossing word and winding profile.  A refused
    operation prints as ``ErrorClass: message``.
    """
    plane = GOLDEN_PLANE
    loops = sample_loops(plane, 60, 2026)

    def described(loop: FlaggedLoop, *extra: str) -> str:
        word = format_free_word(crossing_word(loop, plane))
        return " | ".join((format_loop_literal(loop), word) + extra)

    def nested_sum(i: int) -> str:
        inner = connected_sum_auto(loops[i], 1, -1, loops[i + 1], plane)
        outer = connected_sum_auto(inner, -1, 1, loops[(i + 2) % len(loops)], plane)
        return described(outer, str(winding_profile(outer, plane)))

    lines = []
    for i in range(len(loops) - 1):
        for k, base in enumerate(DEFAULT_BASE_POINTS):
            moved = _outcome(lambda: described(normalize_flag(loops[i], base, plane)))
            lines.append(f"{i} base{k}: {moved}")
        lines.append(f"{i} sum: {_outcome(lambda: nested_sum(i))}")
    return "\n".join(lines) + "\n"


def test_plane_output_matches_golden():
    golden = (DATA / "plane_golden.txt").read_bytes()
    assert plane_golden_text().encode("utf-8") == golden
