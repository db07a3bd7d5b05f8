import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flagcalc.errors import DomainError, ParseError, RayDegeneracyError, RerouteError
from flagcalc.plane import (
    DEFAULT_BASE_POINTS,
    FlaggedLoop,
    FreeWord,
    Point,
    PuncturedPlane,
    _detour_point,
    connected_sum,
    connected_sum_auto,
    crossing_word,
    ensure_avoids,
    format_free_word,
    format_loop_literal,
    free_reduce,
    normalize_flag,
    parse_loop_literal,
    parse_plane_file,
    sample_loops,
    verify_group_law,
    winding_number,
    winding_profile,
)

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


def edges(loop: FlaggedLoop):
    """The loop's directed edges, from the flag in traversal order."""
    walk = loop.directed_vertices()
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

    def test_directed_vertices_rotate_to_flag(self):
        loop = FlaggedLoop(CCW_SQUARE.vertices, 2)
        walk = loop.directed_vertices()
        assert walk[0] == Point.of(-1, 1)
        assert len(walk) == 4

    def test_backward_traversal_keeps_flag_first(self):
        loop = FlaggedLoop(CCW_SQUARE.vertices, 1, "B")
        v = CCW_SQUARE.vertices
        assert loop.directed_vertices() == (v[1], v[0], v[3], v[2])

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


class TestCrossingWord:
    def test_square_crossings(self):
        assert format_free_word(crossing_word(CCW_SQUARE, ONE_PUNCTURE)) == "x1"
        assert format_free_word(crossing_word(CW_SQUARE, ONE_PUNCTURE)) == "x1^-1"
        assert crossing_word(FAR_SQUARE, ONE_PUNCTURE).is_identity

    def test_second_puncture_uses_its_own_letter(self):
        loop = TestConnectedSum.L2
        assert format_free_word(crossing_word(loop, TWO_PUNCTURES)) == "x2"

    def test_vertex_on_ray_is_rejected(self):
        loop = FlaggedLoop(
            (Point.of(0, -3), Point.of(2, -4), Point.of(2, -5), Point.of(-2, -5)), 0
        )
        with pytest.raises(RayDegeneracyError):
            crossing_word(loop, ONE_PUNCTURE)

    def test_exponent_sums_match_windings(self):
        for loop in sample_loops(TWO_PUNCTURES, 30, seed=21):
            word = crossing_word(loop, TWO_PUNCTURES)
            assert word.exponent_sums(2) == winding_profile(loop, TWO_PUNCTURES)

    def test_product_law_for_normalized_loops(self):
        loops = sample_loops(TWO_PUNCTURES, 30, seed=13)
        base = DEFAULT_BASE_POINTS[0]
        for i in range(15):
            n1 = normalize_flag(loops[2 * i], base, TWO_PUNCTURES)
            n2 = normalize_flag(loops[2 * i + 1], base, TWO_PUNCTURES)
            total = connected_sum(n1, 1, -1, n2, base, TWO_PUNCTURES)
            product = crossing_word(n1, TWO_PUNCTURES) * crossing_word(
                n2, TWO_PUNCTURES
            )
            assert crossing_word(total, TWO_PUNCTURES) == product


class TestFreeWord:
    def test_reduction(self):
        assert free_reduce([(0, 1), (0, -1)]) == ()
        assert free_reduce([(0, 1), (1, 1), (1, -1), (0, 1)]) == ((0, 1), (0, 1))

    def test_rejects_unreduced(self):
        with pytest.raises(DomainError):
            FreeWord(((0, 1), (0, -1)))
        with pytest.raises(DomainError):
            FreeWord(((0, 0),))
        with pytest.raises(DomainError):
            FreeWord(((0, 2),))

    def test_group_identities(self):
        x = FreeWord.from_letters([(0, 1), (1, -1), (1, -1)])
        assert (x * x.inverse()).is_identity
        assert x.inverse().inverse() == x

    @given(
        st.lists(
            st.tuples(st.integers(0, 1), st.sampled_from((1, -1))), max_size=8
        ),
        st.lists(
            st.tuples(st.integers(0, 1), st.sampled_from((1, -1))), max_size=8
        ),
    )
    def test_product_exponents_add(self, xs, ys):
        u = FreeWord.from_letters(xs)
        v = FreeWord.from_letters(ys)
        sums = tuple(
            a + b for a, b in zip(u.exponent_sums(2), v.exponent_sums(2))
        )
        assert (u * v).exponent_sums(2) == sums

    def test_format(self):
        word = FreeWord.from_letters([(0, 1), (0, 1), (1, -1)])
        assert format_free_word(word) == "x1 x1 x2^-1"
        assert format_free_word(FreeWord()) == ""


class TestSampling:
    def test_same_seed_same_loops(self):
        assert sample_loops(ONE_PUNCTURE, 12, seed=4) == sample_loops(
            ONE_PUNCTURE, 12, seed=4
        )

    def test_all_samples_are_valid(self):
        for loop in sample_loops(TWO_PUNCTURES, 30, seed=2):
            ensure_avoids(loop, TWO_PUNCTURES)
            crossing_word(loop, TWO_PUNCTURES)

    def test_windings_stay_small(self):
        for loop in sample_loops(ONE_PUNCTURE, 50, seed=17):
            assert abs(winding_number(loop, ORIGIN)) <= 3


class TestGroupLawOracle:
    def test_passes_on_seeded_sweep(self):
        report = verify_group_law(ONE_PUNCTURE, samples=10, seed=6)
        assert report.passed
        assert not report.failures
        assert report.lines()[-1] == "result: PASS"
        assert any("addition" in line for line in report.lines())

    def test_requires_one_puncture(self):
        with pytest.raises(DomainError):
            verify_group_law(TWO_PUNCTURES, samples=5, seed=0)


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

    def test_plane_file_requires_punctures_first(self):
        with pytest.raises(ParseError):
            parse_plane_file("loop 0 F (1,1) (2,2) (3,1)\n")


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
                if any(q.x == p.x for p in plane.punctures):
                    continue
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
        on_ray = any(
            v.x == p.x and v.y < p.y for v in loop.vertices for p in plane.punctures
        )
        if contact(loop, plane.punctures):
            with pytest.raises(DomainError) as raised:
                crossing_word(loop, plane)
            assert type(raised.value) is DomainError
        elif on_ray:
            with pytest.raises(RayDegeneracyError):
                crossing_word(loop, plane)
        else:
            word = crossing_word(loop, plane)
            assert word.exponent_sums(len(plane.punctures)) == tuple(
                angle_sum_winding(loop, p) for p in plane.punctures
            )

    @settings(max_examples=400)
    @given(corridors())
    def test_detour_point_matches_fraction_reference(self, case):
        plane, w0, base = case
        expected = reference_detour(w0, base, plane)
        if expected is None:
            with pytest.raises(RerouteError):
                _detour_point(w0, base, plane)
        else:
            assert _detour_point(w0, base, plane) == expected


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
