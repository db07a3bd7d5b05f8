"""Exact loop calculus in a punctured plane.

Loops are polygons with rational vertices, a marked flag vertex, and a
traversal direction.  Everything here is computed in exact rational
arithmetic: winding numbers by signed crossing counts (no floating-point
angles), crossing words by transversal intersections with the downward
vertical ray under each puncture, connected sums by rerouting both loops
through a shared base point along a there-and-back corridor.

The corridor's return leg is offset by a small rational shear so the out and
back segments do not overlap; the shear is shrunk deterministically until
the resulting thin triangle is free of punctures, which keeps every winding
number unchanged.

:func:`verify_group_law` is the numeric oracle: around a single puncture it
samples seeded loops and confirms that connected sums add winding numbers,
admit a contractible identity, cancel against the reversed partner, and
associate.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import (
    DomainError,
    ParseError,
    RayDegeneracyError,
    RerouteError,
)
from .words import MINUS, PLUS, Sign, _check_sign


@dataclass(frozen=True)
class Point:
    x: Fraction
    y: Fraction

    @classmethod
    def of(cls, x: int | str | Fraction, y: int | str | Fraction) -> "Point":
        return cls(Fraction(x), Fraction(y))

    def __str__(self) -> str:
        return format_point(self)


def _cross(a: Point, b: Point, p: Point) -> Fraction:
    # > 0 when p lies strictly left of the directed line a -> b.
    return (b.x - a.x) * (p.y - a.y) - (p.x - a.x) * (b.y - a.y)


def _on_segment(p: Point, a: Point, b: Point) -> bool:
    if _cross(a, b, p) != 0:
        return False
    return (
        min(a.x, b.x) <= p.x <= max(a.x, b.x)
        and min(a.y, b.y) <= p.y <= max(a.y, b.y)
    )


def _in_closed_triangle(p: Point, a: Point, b: Point, c: Point) -> bool:
    o1 = _cross(a, b, p)
    o2 = _cross(b, c, p)
    o3 = _cross(c, a, p)
    return (o1 >= 0 and o2 >= 0 and o3 >= 0) or (o1 <= 0 and o2 <= 0 and o3 <= 0)


@dataclass(frozen=True)
class PuncturedPlane:
    """Finitely many punctures with pairwise distinct x-coordinates.

    Distinct x-coordinates keep the downward vertical rays disjoint, which
    the crossing-word algorithm relies on.
    """

    punctures: tuple[Point, ...]

    def __post_init__(self) -> None:
        if not self.punctures:
            raise DomainError("a punctured plane needs at least one puncture")
        xs = [p.x for p in self.punctures]
        if len(set(self.punctures)) != len(self.punctures):
            raise DomainError("punctures must be pairwise distinct")
        if len(set(xs)) != len(xs):
            raise DomainError("punctures must have pairwise distinct x-coordinates")


@dataclass(frozen=True)
class FlaggedLoop:
    """Closed polygon with a flag vertex and a traversal direction.

    ``traversal`` is ``"F"`` (vertex order) or ``"B"`` (reversed); reversing
    it negates every winding number.  Consecutive vertices must differ, also
    across the wrap-around; a vertex may repeat non-consecutively, so
    spiral-shaped loops are fine.
    """

    vertices: tuple[Point, ...]
    flag_vertex: int
    traversal: str = "F"

    def __post_init__(self) -> None:
        n = len(self.vertices)
        if n < 3:
            raise DomainError("a loop needs at least three vertices")
        if not 0 <= self.flag_vertex < n:
            raise DomainError(
                f"flag vertex {self.flag_vertex} out of range for {n} vertices"
            )
        if self.traversal not in ("F", "B"):
            raise DomainError(f"traversal must be 'F' or 'B', got {self.traversal!r}")
        for i in range(n):
            if self.vertices[i] == self.vertices[(i + 1) % n]:
                raise DomainError(f"consecutive vertices {i} and {(i + 1) % n} coincide")

    def directed_vertices(self) -> tuple[Point, ...]:
        """Vertices starting at the flag, following the traversal direction."""
        rotated = self.vertices[self.flag_vertex:] + self.vertices[: self.flag_vertex]
        if self.traversal == "F":
            return rotated
        return (rotated[0],) + tuple(reversed(rotated[1:]))

    def directed_edges(self) -> Iterator[tuple[Point, Point]]:
        walk = self.directed_vertices()
        for i, a in enumerate(walk):
            yield a, walk[(i + 1) % len(walk)]


def ensure_avoids(loop: FlaggedLoop, plane: PuncturedPlane) -> None:
    """Raise unless every vertex and edge stays clear of every puncture."""
    for j, p in enumerate(plane.punctures):
        for i, v in enumerate(loop.vertices):
            if v == p:
                raise DomainError(f"loop vertex {i} coincides with puncture {j + 1}")
        n = len(loop.vertices)
        for i in range(n):
            a, b = loop.vertices[i], loop.vertices[(i + 1) % n]
            if _on_segment(p, a, b):
                raise DomainError(f"loop edge {i} passes through puncture {j + 1}")


def winding_number(loop: FlaggedLoop, puncture: Point) -> int:
    """Signed crossing count of the directed loop around ``puncture``.

    Exact: every comparison is rational.  Edges are treated half-open in y,
    so vertices landing exactly on the horizontal through the puncture are
    attributed to exactly one edge.
    """
    wn = 0
    for a, b in loop.directed_edges():
        if _on_segment(puncture, a, b):
            raise DomainError("loop touches the puncture; winding is undefined")
        if a.y <= puncture.y:
            if b.y > puncture.y and _cross(a, b, puncture) > 0:
                wn += 1
        elif b.y <= puncture.y and _cross(a, b, puncture) < 0:
            wn -= 1
    return wn


def winding_profile(loop: FlaggedLoop, plane: PuncturedPlane) -> tuple[int, ...]:
    """Winding number around each puncture, in puncture order."""
    return tuple(winding_number(loop, p) for p in plane.punctures)


def _detour_point(w0: Point, base: Point, plane: PuncturedPlane) -> Point:
    """Shear offset for the corridor's return leg.

    Deterministically tries midpoint-like stations along the corridor and
    shrinking perpendicular offsets on both sides until the closed triangle
    ``(w0, base, q)`` contains no puncture and ``q`` sits off every downward
    ray.  The triangle condition is what preserves winding numbers.
    """
    dx, dy = base.x - w0.x, base.y - w0.y
    nx, ny = -dy, dx
    ray_xs = {p.x for p in plane.punctures}
    stations = (
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(2, 5),
        Fraction(3, 7),
        Fraction(4, 9),
    )
    for t in stations:
        for k in range(2, 16):
            for side in (1, -1):
                eps = Fraction(side, 2**k)
                q = Point(w0.x + t * dx + eps * nx, w0.y + t * dy + eps * ny)
                if q.x in ray_xs:
                    continue
                if any(q == p for p in plane.punctures):
                    continue
                if any(
                    _in_closed_triangle(p, w0, base, q) for p in plane.punctures
                ):
                    continue
                return q
    raise RerouteError("could not route the corridor's return leg past the punctures")


def normalize_flag(loop: FlaggedLoop, base: Point, plane: PuncturedPlane) -> FlaggedLoop:
    """Reroute ``loop`` through ``base`` as its flag vertex.

    Appends a there-and-back corridor from the current flag to ``base``; the
    two legs cancel, so every winding number is preserved.  A loop already
    flagged at ``base`` is only rotated into traversal order.
    """
    for p in plane.punctures:
        if base == p:
            raise DomainError("base point coincides with a puncture")
    ensure_avoids(loop, plane)
    walk = loop.directed_vertices()
    if walk[0] == base:
        return FlaggedLoop(walk, 0, "F")
    w0 = walk[0]
    for p in plane.punctures:
        if _on_segment(p, w0, base):
            raise RerouteError(
                "corridor from the flag to the base passes through a puncture"
            )
    q = _detour_point(w0, base, plane)
    return FlaggedLoop((base,) + walk + (w0, q), 0, "F")


def connected_sum(
    l1: FlaggedLoop,
    sigma: Sign,
    tau: Sign,
    l2: FlaggedLoop,
    base: Point,
    plane: PuncturedPlane,
) -> FlaggedLoop:
    """Traverse ``l1`` at sign ``sigma``, then ``l2`` at sign ``-tau``.

    Both loops are first rerouted through the shared ``base``.  Winding
    numbers add with those signs: ``s(sigma)*w1 + s(-tau)*w2`` around every
    puncture.
    """
    _check_sign(sigma)
    _check_sign(tau)
    n1 = normalize_flag(l1, base, plane)
    n2 = normalize_flag(l2, base, plane)
    tail1 = n1.vertices[1:]
    if sigma < 0:
        tail1 = tuple(reversed(tail1))
    tail2 = n2.vertices[1:]
    if tau > 0:
        tail2 = tuple(reversed(tail2))
    return FlaggedLoop((base,) + tail1 + (base,) + tail2, 0, "F")


DEFAULT_BASE_POINTS: tuple[Point, ...] = (
    Point(Fraction(1, 3), Fraction(-12)),
    Point(Fraction(2, 7), Fraction(-14)),
    Point(Fraction(3, 11), Fraction(-16)),
    Point(Fraction(5, 13), Fraction(-18)),
    Point(Fraction(7, 17), Fraction(-21)),
)


def connected_sum_auto(
    l1: FlaggedLoop,
    sigma: Sign,
    tau: Sign,
    l2: FlaggedLoop,
    plane: PuncturedPlane,
    bases: Sequence[Point] = DEFAULT_BASE_POINTS,
) -> FlaggedLoop:
    """Connected sum over the first base candidate whose corridors route."""
    for base in bases:
        try:
            return connected_sum(l1, sigma, tau, l2, base, plane)
        except RerouteError:
            continue
    raise RerouteError("no usable base point among the candidates")


def free_reduce(letters: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Cancel adjacent inverse pairs until none remain."""
    out: list[tuple[int, int]] = []
    for idx, exp in letters:
        if out and out[-1][0] == idx and out[-1][1] == -exp:
            out.pop()
        else:
            out.append((idx, exp))
    return tuple(out)


@dataclass(frozen=True)
class FreeWord:
    """Freely reduced word in one symbol per puncture; stored as (index, +-1)."""

    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        for idx, exp in self.letters:
            if idx < 0:
                raise DomainError("puncture index must be nonnegative")
            if exp not in (1, -1):
                raise DomainError("free-word exponents must be +1 or -1")
        if self.letters != free_reduce(self.letters):
            raise DomainError("free word is not freely reduced")

    @classmethod
    def from_letters(cls, letters: Sequence[tuple[int, int]]) -> "FreeWord":
        return cls(free_reduce(letters))

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if not isinstance(other, FreeWord):
            return NotImplemented
        return FreeWord(free_reduce(self.letters + other.letters))

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple((idx, -exp) for idx, exp in reversed(self.letters)))

    def exponent_sums(self, n_punctures: int) -> tuple[int, ...]:
        sums = [0] * n_punctures
        for idx, exp in self.letters:
            if idx >= n_punctures:
                raise DomainError("letter index exceeds puncture count")
            sums[idx] += exp
        return tuple(sums)

    def __str__(self) -> str:
        return format_free_word(self)


def crossing_word(loop: FlaggedLoop, plane: PuncturedPlane) -> FreeWord:
    """Reduced crossing word against the downward rays under the punctures.

    Walking from the flag in traversal order, each transversal crossing of
    puncture ``j``'s downward vertical ray contributes ``x_j`` when passing
    left-to-right (the counterclockwise sense) and ``x_j^-1`` right-to-left.
    A vertex sitting exactly on a ray makes the crossing ill-defined, which
    raises :class:`RayDegeneracyError`; nudge the vertex and retry.
    """
    ensure_avoids(loop, plane)
    for i, v in enumerate(loop.vertices):
        for j, p in enumerate(plane.punctures):
            if v.x == p.x and v.y < p.y:
                raise RayDegeneracyError(
                    f"vertex {i} lies on the downward ray of puncture {j + 1}; "
                    "perturb the loop"
                )
    letters: list[tuple[int, int]] = []
    for a, b in loop.directed_edges():
        hits: list[tuple[Fraction, int, int]] = []
        for j, p in enumerate(plane.punctures):
            da = a.x - p.x
            db = b.x - p.x
            if (da < 0 < db) or (db < 0 < da):
                t = (p.x - a.x) / (b.x - a.x)
                y_at = a.y + (b.y - a.y) * t
                if y_at < p.y:
                    hits.append((t, j, 1 if da < 0 else -1))
        hits.sort()
        letters.extend((j, exp) for _, j, exp in hits)
    return FreeWord(free_reduce(letters))


# --- seeded sampling -------------------------------------------------------


def _eighths(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), 8)


def _rect_ring(center: Point, radii: Sequence[Fraction], ccw: bool) -> tuple[Point, ...]:
    pts: list[Point] = []
    for a in radii:
        pts.extend(
            (
                Point(center.x + a, center.y - a),
                Point(center.x + a, center.y + a),
                Point(center.x - a, center.y + a),
                Point(center.x - a, center.y - a),
            )
        )
    if not ccw:
        pts.reverse()
    return tuple(pts)


def _spiral_vertices(rng: random.Random, p: Point) -> tuple[Point, ...]:
    laps = rng.randint(1, 3)
    ccw = rng.randint(0, 1) == 1
    center = Point(p.x + _eighths(rng, -4, 4), p.y + _eighths(rng, -4, 4))
    radii = [1 + t + _eighths(rng, 0, 3) for t in range(laps)]
    return _rect_ring(center, radii, ccw)


def _offset_square_vertices(rng: random.Random, p: Point) -> tuple[Point, ...]:
    center = Point(p.x + 3 + _eighths(rng, 0, 3), p.y + _eighths(rng, -4, 4))
    ccw = rng.randint(0, 1) == 1
    return _rect_ring(center, [Fraction(1, 2)], ccw)


def _bounding_box_vertices(rng: random.Random, plane: PuncturedPlane) -> tuple[Point, ...]:
    xs = [p.x for p in plane.punctures]
    ys = [p.y for p in plane.punctures]
    margin = 5 + _eighths(rng, 1, 3)
    lo = Point(min(xs) - margin, min(ys) - margin)
    hi = Point(max(xs) + margin, max(ys) + margin)
    ccw = rng.randint(0, 1) == 1
    pts = (
        Point(hi.x, lo.y),
        Point(hi.x, hi.y),
        Point(lo.x, hi.y),
        Point(lo.x, lo.y),
    )
    return pts if ccw else tuple(reversed(pts))


def sample_loop(rng: random.Random, plane: PuncturedPlane) -> FlaggedLoop:
    """One seeded loop: a spiral around some puncture, an offset square, or a
    box around everything.  Winding numbers stay within ``[-3, 3]``.

    Assumes punctures are spread out (pairwise distance above ~9); retries a
    few times against accidental contact before giving up.
    """
    k = len(plane.punctures)
    n_kinds = k + 2 if k > 1 else 2
    for _ in range(20):
        kind = rng.randrange(n_kinds)
        if kind < k:
            vertices = _spiral_vertices(rng, plane.punctures[kind])
        elif kind == k:
            vertices = _offset_square_vertices(rng, plane.punctures[rng.randrange(k)])
        else:
            vertices = _bounding_box_vertices(rng, plane)
        flag = rng.randrange(len(vertices))
        traversal = "F" if rng.randint(0, 1) == 0 else "B"
        loop = FlaggedLoop(vertices, flag, traversal)
        try:
            ensure_avoids(loop, plane)
            crossing_word(loop, plane)
        except DomainError:
            continue
        return loop
    raise DomainError(
        "could not sample a loop clear of the punctures; spread the punctures out"
    )


def sample_loops(plane: PuncturedPlane, count: int, seed: int) -> list[FlaggedLoop]:
    """Deterministic list of sampled loops for a given seed."""
    rng = random.Random(seed)
    return [sample_loop(rng, plane) for _ in range(count)]


# --- group-law oracle ------------------------------------------------------


@dataclass(frozen=True)
class LawFailure:
    check: str
    detail: str


@dataclass(frozen=True)
class GroupLawReport:
    """Outcome of the winding-number group-law sweep."""

    samples: int
    seed: int
    counts: tuple[tuple[str, int], ...]
    failures: tuple[LawFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        failed_checks = {f.check for f in self.failures}
        out = []
        for name, count in self.counts:
            status = "FAIL" if name in failed_checks else "PASS"
            out.append(f"{name}: {status} ({count} cases)")
        for failure in self.failures[:5]:
            out.append(f"  {failure.check}: {failure.detail}")
        out.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return out


def _contractible_square(p: Point) -> FlaggedLoop:
    center = Point(p.x + Fraction(13, 2), p.y - Fraction(15, 2))
    return FlaggedLoop(_rect_ring(center, [Fraction(1, 2)], True), 0, "F")


def verify_group_law(
    plane: PuncturedPlane, samples: int = 50, seed: int = 0
) -> GroupLawReport:
    """Check the group behavior of loop composition around one puncture.

    Four sweeps over seeded loops with windings in ``[-3, 3]``: the ``(+,-)``
    sum adds winding numbers, the contractible square is a two-sided
    identity, the ``(+,+)`` self-sum cancels to winding zero, and iterated
    sums associate.  The report lists counterexamples; expected none.
    """
    if len(plane.punctures) != 1:
        raise DomainError("the group-law oracle needs exactly one puncture")
    if samples < 1:
        raise DomainError("need at least one sample")
    p = plane.punctures[0]
    rng = random.Random(seed)
    loops = [sample_loop(rng, plane) for _ in range(samples)]
    windings = [winding_number(loop, p) for loop in loops]
    unit = _contractible_square(p)
    failures: list[LawFailure] = []

    def sum_of(a: FlaggedLoop, sa: Sign, sb: Sign, b: FlaggedLoop) -> FlaggedLoop:
        return connected_sum_auto(a, sa, sb, b, plane)

    for i in range(samples):
        l1, w1 = loops[i], windings[i]
        l2, w2 = loops[(i + 1) % samples], windings[(i + 1) % samples]
        l3 = loops[(i + 2) % samples]

        got = winding_number(sum_of(l1, PLUS, MINUS, l2), p)
        if got != w1 + w2:
            failures.append(
                LawFailure("addition", f"loops {i},{i + 1}: {got} != {w1}+{w2}")
            )

        right = winding_number(sum_of(l1, PLUS, MINUS, unit), p)
        left = winding_number(sum_of(unit, PLUS, MINUS, l1), p)
        if right != w1 or left != w1:
            failures.append(
                LawFailure(
                    "identity",
                    f"loop {i}: unit sum gave ({left}, {right}), expected {w1}",
                )
            )

        cancelled = winding_number(sum_of(l1, PLUS, PLUS, l1), p)
        if cancelled != 0:
            failures.append(
                LawFailure("inverse", f"loop {i}: self-sum wound {cancelled} != 0")
            )

        assoc_l = winding_number(
            sum_of(sum_of(l1, PLUS, MINUS, l2), PLUS, MINUS, l3), p
        )
        assoc_r = winding_number(
            sum_of(l1, PLUS, MINUS, sum_of(l2, PLUS, MINUS, l3)), p
        )
        if assoc_l != assoc_r:
            failures.append(
                LawFailure(
                    "associativity",
                    f"loops {i},{i + 1},{i + 2}: {assoc_l} != {assoc_r}",
                )
            )

    counts = (
        ("addition", samples),
        ("identity", 2 * samples),
        ("inverse", samples),
        ("associativity", samples),
    )
    return GroupLawReport(samples, seed, counts, tuple(failures))


# --- text formats ----------------------------------------------------------

_POINT_RE = re.compile(r"\(([^(),]+),([^(),]+)\)")
_FREE_LETTER_RE = re.compile(r"x(\d+)(\^-1)?")


def format_point(p: Point) -> str:
    return f"({p.x},{p.y})"


def parse_point(token: str, *, line: int = 1, column: int = 1) -> Point:
    m = _POINT_RE.fullmatch(token.strip())
    if m is None:
        raise ParseError(
            f"bad point {token!r}",
            line=line,
            column=column,
            expected=("'(x,y)' with rational coordinates",),
        )
    try:
        return Point(Fraction(m.group(1).strip()), Fraction(m.group(2).strip()))
    except (ValueError, ZeroDivisionError):
        raise ParseError(
            f"bad rational coordinate in {token!r}", line=line, column=column
        ) from None


def format_loop_literal(loop: FlaggedLoop) -> str:
    points = " ".join(format_point(v) for v in loop.vertices)
    return f"loop {loop.flag_vertex} {loop.traversal} {points}"


def parse_loop_literal(text: str, *, line: int = 1) -> FlaggedLoop:
    tokens = text.split()
    if not tokens or tokens[0] != "loop":
        raise ParseError(
            "loop literal must start with 'loop'",
            line=line,
            column=1,
            expected=("'loop <flag> <F|B> (x,y) ...'",),
        )
    if len(tokens) < 3:
        raise ParseError("loop literal is missing its header fields", line=line)
    try:
        flag = int(tokens[1])
    except ValueError:
        raise ParseError(
            f"bad flag index {tokens[1]!r}", line=line, expected=("integer",)
        ) from None
    traversal = tokens[2]
    if traversal not in ("F", "B"):
        raise ParseError(
            f"bad traversal {traversal!r}", line=line, expected=("'F'", "'B'")
        )
    vertices = tuple(parse_point(tok, line=line) for tok in tokens[3:])
    if len(vertices) < 3:
        raise ParseError("loop literal needs at least three vertices", line=line)
    try:
        return FlaggedLoop(vertices, flag, traversal)
    except DomainError as exc:
        raise ParseError(str(exc), line=line) from None


def format_punctures_line(plane: PuncturedPlane) -> str:
    return "punctures: " + " ".join(format_point(p) for p in plane.punctures)


def parse_plane_file(text: str) -> tuple[PuncturedPlane, list[FlaggedLoop]]:
    """Parse a plane file: a ``punctures:`` line, then one loop per line."""
    plane: PuncturedPlane | None = None
    loops: list[FlaggedLoop] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if plane is None:
            if not line.startswith("punctures:"):
                raise ParseError(
                    "plane file must open with a 'punctures:' line",
                    line=lineno,
                    column=1,
                    expected=("'punctures: (x,y) ...'",),
                )
            body = line[len("punctures:"):].strip()
            tokens = body.split()
            if not tokens:
                raise ParseError("no punctures declared", line=lineno)
            try:
                plane = PuncturedPlane(
                    tuple(parse_point(tok, line=lineno) for tok in tokens)
                )
            except DomainError as exc:
                raise ParseError(str(exc), line=lineno) from None
            continue
        loop = parse_loop_literal(line, line=lineno)
        try:
            ensure_avoids(loop, plane)
        except DomainError as exc:
            raise ParseError(str(exc), line=lineno) from None
        loops.append(loop)
    if plane is None:
        raise ParseError("plane file is empty")
    return plane, loops


def format_free_word(word: FreeWord) -> str:
    """Render as ``x1 x2^-1``; the identity renders as the empty string."""
    return " ".join(
        f"x{idx + 1}" + ("" if exp > 0 else "^-1") for idx, exp in word.letters
    )


def parse_free_word(text: str, *, line: int = 1) -> FreeWord:
    letters: list[tuple[int, int]] = []
    for match in re.finditer(r"\S+", text):
        token = match.group()
        m = _FREE_LETTER_RE.fullmatch(token)
        if m is None:
            raise ParseError(
                f"bad free-word letter {token!r}",
                line=line,
                column=match.start() + 1,
                expected=("'x<k>'", "'x<k>^-1'"),
            )
        idx = int(m.group(1))
        if idx < 1:
            raise ParseError(
                f"puncture symbols are numbered from x1, got {token!r}",
                line=line,
                column=match.start() + 1,
            )
        letters.append((idx - 1, -1 if m.group(2) else 1))
    return FreeWord.from_letters(letters)
