"""Exact loop calculus in a punctured plane.

Loops are polygons with rational vertices, a marked flag vertex, and a
traversal direction.  Everything here is exact: winding numbers by signed
crossing counts (no floating-point angles), crossing words by half-open
crossings of the downward vertical ray under each puncture, connected sums
by rerouting both loops through a shared base point along a there-and-back
corridor.  Every loop that avoids the punctures has a crossing word, also
one with a vertex on a ray.

A crossing word is a :class:`~flagcalc.words.SignedWord` over the plane's
generators ``x1 ... xk``, one per puncture.  The raw sequence of ray
crossings lives in the monoid of signed words; free reduction
(:func:`flagcalc.words.free_reduce`) is the map from that monoid to the
plane's fundamental group pi_1, and a crossing word is its reduced image.

Coordinates are rational, but every number here is an integer.  A point, a
loop and a plane each keep their coordinates as integer pairs over their
least common denominator.  Text is read into those integers with ASCII
digits and written from them; derived and sampled loops are built straight
on integers; ``Point.x`` and ``.y`` build a ``Fraction`` for library callers.
Each operation scales the loop, the punctures and the base point to one
common denominator (:func:`_over_one_den`), then takes every orientation,
on-segment, triangle, ray and ordering test on Python ints: each is the sign
of a comparison or of a cross product, which scaling by one positive integer
keeps, so the answers are exact.  The winding count and the contact check
skip every edge wholly above or wholly below a puncture, which can neither
cross the puncture's horizontal nor touch it.

The corridor's return leg is offset by a small rational shear so the out and
back segments do not overlap; the shear is shrunk deterministically until
the resulting thin triangle is free of punctures, which keeps every winding
number unchanged.
"""

from __future__ import annotations

import math
import operator
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from numbers import Rational
from typing import Iterator, Sequence, TypeVar

from .errors import (
    DomainError,
    ParseError,
    RerouteError,
    check_digit_limit,
    excerpt,
    parse_at,
    read_int,
    strip_comment,
)
from .words import GeneratorSet, Sign, SignedWord, _check_sign, free_reduce


# A point scaled to integers: its coordinates times a common denominator.
_IntPoint = tuple[int, int]
# A tuple or a list, sliced and concatenated with its own kind.
_Seq = TypeVar("_Seq", tuple, list)


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Point:
    """A rational point: the integer pair ``_xy`` over ``_den``, its least denominator.

    ``Point(x, y)`` takes ints or ``Fraction``s; anything else, a float too,
    is a :class:`DomainError`.  ``x`` and ``y`` build a ``Fraction`` on each read.
    """

    _den: int
    _xy: _IntPoint

    def __init__(self, x: Rational, y: Rational) -> None:
        self._put(*_terms(x), *_terms(y))

    @classmethod
    def of(cls, x: int | str | Fraction, y: int | str | Fraction) -> Point:
        """``Point(x, y)``, also from a coordinate's text; ValueError if it spells none."""
        point = object.__new__(cls)
        point._put(*_terms(x, text=True), *_terms(y, text=True))
        return point

    def _put(self, nx: int, dx: int, ny: int, dy: int) -> None:
        den, [xy] = _least(dx * dy, [(nx * dy, ny * dx)])
        _set_den(self, den)
        _set_xy(self, xy)

    x = property(lambda self: _fraction(Fraction, self._xy[0], self._den))
    y = property(lambda self: _fraction(Fraction, self._xy[1], self._den))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(x={self.x!r}, y={self.y!r})"

    def __str__(self) -> str:
        return format_point(self)

    def __reduce__(self) -> tuple:
        return (type(self), (self.x, self.y))


# FlaggedLoop.vertices makes a Point per vertex and bench/layers.py reads both
# coordinates of each, so both skip a call: the setters pass the frozen check,
# and Fraction, having no __init__, needs only its __new__.
_set_den = Point._den.__set__  # type: ignore[attr-defined]
_set_xy = Point._xy.__set__  # type: ignore[attr-defined]
_fraction = Fraction.__new__
_COORDINATE_RE = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def _terms(c: object, text: bool = False) -> tuple[int, int]:
    """The numerator and denominator of an int, a Fraction or, with ``text``, a str.

    A str must spell ``[+-]?[0-9]+(/[0-9]+)?``, with spaces around it, else ValueError.
    """
    if text and isinstance(c, str):
        m = _COORDINATE_RE.fullmatch(c)
        den = 0 if m is None else int(m[2] or 1)
        if not den:
            raise ValueError(f"bad rational coordinate {excerpt(c)}")
        return int(m[1]), den
    if not isinstance(c, Rational):
        raise DomainError(f"a coordinate must be an int or a Fraction, not {type(c).__name__}")
    return c.numerator, c.denominator


def _least(den: int, ints: list[_IntPoint]) -> tuple[int, list[_IntPoint]]:
    """Integer points over ``den``, brought to their least common denominator."""
    g = math.gcd(den, *chain.from_iterable(ints))
    return den // g, [(x // g, y // g) for x, y in ints]


def _over_lcd(points: Sequence[Point]) -> tuple[int, list[_IntPoint]]:
    """The least common denominator of ``points``, and the points over it."""
    den = math.lcm(*{p._den for p in points})
    return den, [(p._xy[0] * (den // p._den), p._xy[1] * (den // p._den)) for p in points]


def _times(points: Sequence[_IntPoint], factor: int) -> list[_IntPoint]:
    """A new list of integer ``points`` times ``factor``.

    The predicates slice and concatenate what this returns, and lists keep
    that off tuples.  CPython 3.11 keeps up to 2,000 freed tuples of each
    length from 1 to 20 for reuse; over repeated ``oracle sweep`` runs the
    length-20 ones filled that cache, about 0.4 MB.
    """
    if factor == 1:
        return list(points)
    return [(x * factor, y * factor) for x, y in points]


def _walk(items: _Seq, flag: int, traversal: str) -> _Seq:
    """``items`` from index ``flag``, forward for ``"F"`` and backward for ``"B"``."""
    rotated = items[flag:] + items[:flag]
    if traversal == "F":
        return rotated
    return rotated[:1] + rotated[:0:-1]


def _edges(walk: _Seq) -> Iterator[tuple]:
    """Consecutive pairs of ``walk``, closing back to its start."""
    return zip(walk, walk[1:] + walk[:1])


def _cross(a: _IntPoint, b: _IntPoint, p: _IntPoint) -> int:
    # > 0 when p lies strictly left of the directed line a -> b.
    return (b[0] - a[0]) * (p[1] - a[1]) - (p[0] - a[0]) * (b[1] - a[1])


def _in_box(p: _IntPoint, a: _IntPoint, b: _IntPoint) -> bool:
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _on_segment(p: _IntPoint, a: _IntPoint, b: _IntPoint) -> bool:
    return _in_box(p, a, b) and _cross(a, b, p) == 0


def _in_closed_triangle(
    p: _IntPoint, a: _IntPoint, b: _IntPoint, c: _IntPoint
) -> bool:
    o1 = _cross(a, b, p)
    o2 = _cross(b, c, p)
    o3 = _cross(c, a, p)
    return (o1 >= 0 and o2 >= 0 and o3 >= 0) or (o1 <= 0 and o2 <= 0 and o3 <= 0)


@dataclass(frozen=True)
class PuncturedPlane:
    """Finitely many punctures with pairwise distinct x-coordinates.

    Distinct x-coordinates keep the downward vertical rays disjoint, which
    the crossing-word algorithm relies on.  ``gens`` names the crossing
    words' generators ``x1 ... xk``, one per puncture in order.
    """

    punctures: tuple[Point, ...]
    gens: GeneratorSet = field(init=False, compare=False, repr=False)
    _den: int = field(init=False, compare=False, repr=False)
    _ints: tuple[_IntPoint, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.punctures:
            raise DomainError("a punctured plane needs at least one puncture")
        den, ints = _over_lcd(self.punctures)
        if len(set(ints)) != len(ints):
            raise DomainError("punctures must be pairwise distinct")
        if len({x for x, _ in ints}) != len(ints):
            raise DomainError("punctures must have pairwise distinct x-coordinates")
        names = tuple(f"x{j + 1}" for j in range(len(ints)))
        object.__setattr__(self, "gens", GeneratorSet(names))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_ints", tuple(ints))


# The ``oracle`` suite's one-puncture plane, and ``oracle sweep``'s when none is loaded.
ORIGIN_PLANE = PuncturedPlane((Point.of(0, 0),))


@dataclass(frozen=True, slots=True, init=False, repr=False)
class FlaggedLoop:
    """Closed polygon with a flag vertex and a traversal direction.

    ``traversal`` is ``"F"`` (vertex order) or ``"B"`` (reversed); reversing
    it negates every winding number.  Consecutive vertices must differ, also
    across the wrap-around; a vertex may repeat non-consecutively, so
    spiral-shaped loops are fine.

    The loop keeps its vertices as integer pairs over their least common
    denominator, which is what the predicates read; ``vertices`` builds a
    :class:`Point` tuple from them on each read.  Loops are immutable and
    compare and hash by value.  A loop also remembers its last
    :func:`normalize_flag` result, with the base and plane it was made for,
    so a loop summed several times at one base is rerouted once; that memo
    takes no part in ``==``, ``hash``, ``repr`` or pickling.

    ``FlaggedLoop(vertices, flag_vertex, traversal)`` checks every condition
    above.  The loops that :func:`normalize_flag` and :func:`connected_sum`
    derive from checked loops meet them by construction and are not checked
    again.
    """

    _den: int
    _ints: tuple[_IntPoint, ...]
    flag_vertex: int
    traversal: str
    _based: tuple[Point, PuncturedPlane, FlaggedLoop] | None = field(compare=False)

    def __init__(
        self, vertices: Sequence[Point], flag_vertex: int, traversal: str = "F"
    ) -> None:
        den, ints = _over_lcd(tuple(vertices))
        n = len(ints)
        if n < 3:
            raise DomainError("a loop needs at least three vertices")
        if not 0 <= flag_vertex < n:
            raise DomainError(
                f"flag vertex {flag_vertex} out of range for {n} vertices"
            )
        if traversal not in ("F", "B"):
            raise DomainError(f"traversal must be 'F' or 'B', got {traversal!r}")
        same = list(map(operator.eq, ints, ints[1:] + ints[:1]))
        if True in same:
            i = same.index(True)
            raise DomainError(f"consecutive vertices {i} and {(i + 1) % n} coincide")
        self._set(den, ints, flag_vertex, traversal)

    @classmethod
    def _of_ints(
        cls, den: int, ints: list[_IntPoint], flag_vertex: int, traversal: str
    ) -> FlaggedLoop:
        """The loop of vertices ``ints`` over ``den``, their least denominator."""
        loop = object.__new__(cls)
        loop._set(den, ints, flag_vertex, traversal)
        return loop

    def _set(
        self, den: int, ints: list[_IntPoint], flag_vertex: int, traversal: str
    ) -> None:
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_ints", tuple(ints))
        object.__setattr__(self, "flag_vertex", flag_vertex)
        object.__setattr__(self, "traversal", traversal)
        object.__setattr__(self, "_based", None)

    @property
    def vertices(self) -> tuple[Point, ...]:
        # One gcd gives each point its own least denominator (see _set_den).
        den = self._den
        points = []
        for x, y in self._ints:
            g = math.gcd(den, x, y)
            point = object.__new__(Point)
            points.append(point)
            _set_den(point, den // g)
            _set_xy(point, (x // g, y // g))
        return tuple(points)

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(vertices={self.vertices!r}, "
            f"flag_vertex={self.flag_vertex!r}, traversal={self.traversal!r})"
        )

    def __reduce__(self) -> tuple:
        return (type(self), (self.vertices, self.flag_vertex, self.traversal))


def _over_one_den(
    loop: FlaggedLoop, plane: PuncturedPlane, *dens: int
) -> tuple[int, list[_IntPoint], list[_IntPoint]]:
    """The lcm of ``dens`` and both denominators, and the loop and punctures over it."""
    den = math.lcm(loop._den, plane._den, *dens)
    return den, _times(loop._ints, den // loop._den), _times(plane._ints, den // plane._den)


def _check_avoids(
    vertices: Sequence[_IntPoint], punctures: Sequence[_IntPoint]
) -> None:
    """:func:`ensure_avoids` on vertices and punctures over one denominator."""
    for j, p in enumerate(punctures):
        if p in vertices:
            i = vertices.index(p)
            raise DomainError(f"loop vertex {i} coincides with puncture {j + 1}")
        py = p[1]
        for i, (a, b) in enumerate(_edges(vertices)):
            # An edge wholly above or wholly below p cannot pass through it.
            if a[1] < py > b[1] or a[1] > py < b[1]:
                continue
            if _on_segment(p, a, b):
                raise DomainError(f"loop edge {i} passes through puncture {j + 1}")


def ensure_avoids(loop: FlaggedLoop, plane: PuncturedPlane) -> None:
    """Raise unless every vertex and edge stays clear of every puncture."""
    _, vertices, punctures = _over_one_den(loop, plane)
    _check_avoids(vertices, punctures)


def winding_number(loop: FlaggedLoop, puncture: Point) -> int:
    """Signed crossing count of the directed loop around ``puncture``.

    Exact: every comparison is on integers over a common denominator.  Edges
    are treated half-open in y, so vertices landing exactly on the
    horizontal through the puncture are attributed to exactly one edge.
    """
    return winding_profile(loop, PuncturedPlane((puncture,)))[0]


def winding_profile(loop: FlaggedLoop, plane: PuncturedPlane) -> tuple[int, ...]:
    """Winding number around each puncture, in puncture order.

    The count is a sum over the edges and so does not depend on where the
    walk starts: it runs over the stored vertex order, and traversal ``"B"``
    negates it.  An edge wholly above or wholly below a puncture can neither
    cross its horizontal nor touch it, so it is skipped before any cross
    product (the edge classification of Hormann & Agathos 2001).
    """
    _, vertices, punctures = _over_one_den(loop, plane)
    edges = list(_edges(vertices))
    profile = []
    for px, py in punctures:
        wn = 0
        for (ax, ay), (bx, by) in edges:
            if ay < py > by or ay > py < by:
                continue
            # What is left spans py, so a zero cross product touches p
            # exactly when the edge also spans px.
            cross = (bx - ax) * (py - ay) - (px - ax) * (by - ay)
            if cross == 0 and (ax <= px <= bx or bx <= px <= ax):
                raise DomainError("loop touches the puncture; winding is undefined")
            if ay <= py:
                if by > py and cross > 0:
                    wn += 1
            elif by <= py and cross < 0:
                wn -= 1
        profile.append(wn)
    if loop.traversal == "B":
        return tuple(-wn for wn in profile)
    return tuple(profile)


# Fractions ``t`` of the way from the flag to the base, as (numerator, denominator).
_STATIONS = ((1, 2), (1, 3), (2, 5), (3, 7), (4, 9))


def _detour_point(
    w: _IntPoint, b: _IntPoint, punctures: Sequence[_IntPoint]
) -> tuple[int, _IntPoint]:
    """Shear offset for the corridor's return leg, as ``(m, q)``.

    ``w`` (the flag), ``b`` (the base) and ``punctures`` are integers over
    one denominator ``den``; the point found is ``q`` over ``den * m``.
    Raises :class:`RerouteError` when the corridor from ``w`` to ``b``
    passes through a puncture.  Otherwise deterministically tries
    midpoint-like stations ``t`` along the corridor and shrinking
    perpendicular offsets ``±2^-k`` until the closed triangle ``(w, b, q)``
    contains no puncture, which is what preserves winding numbers.
    """
    for p in punctures:
        if _on_segment(p, w, b):
            raise RerouteError(
                "corridor from the flag to the base passes through a puncture"
            )
    dx, dy = b[0] - w[0], b[1] - w[1]
    nx, ny = -dy, dx
    for t_num, t_den in _STATIONS:
        for k in range(2, 16):
            # q = w + (t_num / t_den) d + (side / 2^k) n; scale everything by
            # m = t_den 2^k so that q's coordinates are integers too.
            m = t_den << k
            ws, bs = (w[0] * m, w[1] * m), (b[0] * m, b[1] * m)
            ps = [(px * m, py * m) for px, py in punctures]
            for side in (1, -1):
                q = (
                    ws[0] + (t_num * dx << k) + side * t_den * nx,
                    ws[1] + (t_num * dy << k) + side * t_den * ny,
                )
                if any(_in_closed_triangle(p, ws, bs, q) for p in ps):
                    continue
                return m, q
    raise RerouteError("could not route the corridor's return leg past the punctures")


def normalize_flag(loop: FlaggedLoop, base: Point, plane: PuncturedPlane) -> FlaggedLoop:
    """Reroute ``loop`` through ``base`` as its flag vertex.

    Appends a there-and-back corridor from the current flag to ``base``; the
    two legs cancel, so every winding number is preserved.  A loop already
    flagged at ``base`` is only rotated into traversal order.

    ``loop`` keeps the result with ``base`` and ``plane``, one entry, and
    returns it for an equal ``base`` on the same ``plane`` without redoing
    the puncture checks or the corridor search.  A call that raises stores
    nothing.
    """
    based = loop._based
    if based is not None and (based[0] is base or based[0] == base) and based[1] is plane:
        return based[2]
    den, vertices, punctures = _over_one_den(loop, plane, base._den)
    [b] = _times([base._xy], den // base._den)
    if b in punctures:
        raise DomainError("base point coincides with a puncture")
    _check_avoids(vertices, punctures)
    walk = _walk(vertices, loop.flag_vertex, loop.traversal)
    if walk[0] == b:
        rotated = _walk(list(loop._ints), loop.flag_vertex, loop.traversal)
        moved = FlaggedLoop._of_ints(loop._den, rotated, 0, "F")
    else:
        w0 = walk[0]
        # The result needs no loop check: b != w0, and q lies off the line w0-b.
        m, q = _detour_point(w0, b, punctures)
        ints = _times([b, *walk, w0], m)
        ints.append(q)
        # ``den * m`` covers the punctures too; the loop keeps the least one.
        moved = FlaggedLoop._of_ints(*_least(den * m, ints), 0, "F")
    object.__setattr__(loop, "_based", (base, plane, moved))
    return moved


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
    # The lcm of the two least common denominators is the union's least one.
    den = math.lcm(n1._den, n2._den)
    v1 = _times(n1._ints, den // n1._den)
    v2 = _times(n2._ints, den // n2._den)
    tail1 = v1[1:] if sigma > 0 else v1[:0:-1]
    tail2 = v2[:0:-1] if tau > 0 else v2[1:]
    return FlaggedLoop._of_ints(den, [v1[0], *tail1, v1[0], *tail2], 0, "F")


DEFAULT_BASE_POINTS: tuple[Point, ...] = tuple(
    Point.of(x, y)
    for x, y in (("1/3", -12), ("2/7", -14), ("3/11", -16), ("5/13", -18), ("7/17", -21))
)


def connected_sum_auto(
    l1: FlaggedLoop,
    sigma: Sign,
    tau: Sign,
    l2: FlaggedLoop,
    plane: PuncturedPlane,
) -> FlaggedLoop:
    """Connected sum over the first default base point whose corridors route."""
    for base in DEFAULT_BASE_POINTS:
        try:
            return connected_sum(l1, sigma, tau, l2, base, plane)
        except RerouteError:
            continue
    raise RerouteError("no usable base point among the candidates")


def crossing_word(loop: FlaggedLoop, plane: PuncturedPlane) -> SignedWord:
    """Reduced crossing word against the downward rays under the punctures.

    Walking from the flag in traversal order, each transversal crossing of
    puncture ``j``'s downward vertical ray contributes ``x_j+`` when passing
    left-to-right (the counterclockwise sense) and ``x_j-`` right-to-left.
    The word is over ``plane.gens`` and freely reduced.

    Crossings are counted half-open in x, as :func:`winding_profile` counts
    them in y: a vertex on a ray counts as lying just right of it, as if
    every ray were moved left by less than any gap between x-coordinates.
    So every loop that avoids the punctures has a word, and reversing the
    loop gives the involution of its word.  Raises :class:`DomainError` when
    the loop touches a puncture.
    """
    _, vertices, punctures = _over_one_den(loop, plane)
    _check_avoids(vertices, punctures)
    codes: list[int] = []
    for a, b in _edges(_walk(vertices, loop.flag_vertex, loop.traversal)):
        dx = b[0] - a[0]
        hits: list[tuple[int, int]] = []
        for j, p in enumerate(punctures):
            da = a[0] - p[0]
            db = b[0] - p[0]
            # The edge meets the vertical through p at t = (p.x - a.x) / dx,
            # below p exactly when _cross(a, b, p) has the sign of dx.
            if ((da < 0 <= db) or (db < 0 <= da)) and _cross(a, b, p) * dx > 0:
                # t * dx^2 orders an edge's hits as t does, with no division;
                # distinct puncture x-coordinates keep the t values distinct.
                hits.append(((p[0] - a[0]) * dx, 2 * j + (db < 0)))
        hits.sort()
        codes.extend(code for _, code in hits)
    return free_reduce(SignedWord._of_codes(plane.gens, tuple(codes)))


# --- seeded sampling -------------------------------------------------------


def _corners(x0: int, y0: int, x1: int, y1: int) -> list[_IntPoint]:
    """The corners of ``[x0, x1] x [y0, y1]``, counterclockwise from the lower right."""
    return [(x1, y0), (x1, y1), (x0, y1), (x0, y0)]


def sample_loop(rng: random.Random, plane: PuncturedPlane) -> FlaggedLoop:
    """One seeded loop: a spiral around some puncture, an offset square, or a
    box around everything.  Winding numbers stay within ``[-3, 3]``.

    Every coordinate is a puncture coordinate plus a whole number of eighths,
    so the loop is drawn straight onto integers over ``lcm(plane._den, 8)``
    and checked there.

    Assumes punctures are spread out (pairwise distance above ~9); retries a
    few times against accidental contact before giving up.
    """
    den = math.lcm(plane._den, 8)
    e = den // 8  # one eighth
    punctures = _times(plane._ints, den // plane._den)
    k = len(punctures)
    n_kinds = k + 2 if k > 1 else 2
    for _ in range(20):
        kind = rng.randrange(n_kinds)
        if kind < k:
            # A spiral of 1 to 3 square laps, of half-widths 1, 2, 3 plus eighths.
            px, py = punctures[kind]
            laps = rng.randint(1, 3)
            ccw = rng.randint(0, 1) == 1
            cx, cy = px + e * rng.randint(-4, 4), py + e * rng.randint(-4, 4)
            ints = []
            for t in range(laps):
                a = e * (8 + 8 * t + rng.randint(0, 3))
                ints += _corners(cx - a, cy - a, cx + a, cy + a)
        elif kind == k:
            # A unit square about 3 to the right of a puncture.
            px, py = punctures[rng.randrange(k)]
            cx, cy = px + e * (24 + rng.randint(0, 3)), py + e * rng.randint(-4, 4)
            ccw = rng.randint(0, 1) == 1
            ints = _corners(cx - 4 * e, cy - 4 * e, cx + 4 * e, cy + 4 * e)
        else:
            # A box with a margin of 5 plus eighths around every puncture.
            margin = e * (40 + rng.randint(1, 3))
            xs = [x for x, _ in punctures]
            ys = [y for _, y in punctures]
            ccw = rng.randint(0, 1) == 1
            ints = _corners(
                min(xs) - margin, min(ys) - margin, max(xs) + margin, max(ys) + margin
            )
        if not ccw:
            ints.reverse()
        flag = rng.randrange(len(ints))
        traversal = "F" if rng.randint(0, 1) == 0 else "B"
        try:
            _check_avoids(ints, punctures)
        except DomainError:
            continue
        # The loop keeps the least denominator, as one built from its Points would.
        return FlaggedLoop._of_ints(*_least(den, ints), flag, traversal)
    raise DomainError(
        "could not sample a loop clear of the punctures; spread the punctures out"
    )


def sample_loops(plane: PuncturedPlane, count: int, seed: int) -> list[FlaggedLoop]:
    """Deterministic list of sampled loops for a given seed."""
    rng = random.Random(seed)
    return [sample_loop(rng, plane) for _ in range(count)]


# --- text formats ----------------------------------------------------------

_POINT_RE = re.compile(r"\(([^(),]+),([^(),]+)\)")
_FIELD_RE = re.compile(r"\S+")


def _format_coordinate(n: int, den: int) -> str:
    """``n / den`` in lowest terms: ``n`` alone when it is whole, else ``n/d``."""
    g = math.gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def format_point(p: Point) -> str:
    x, y = p._xy
    return f"({_format_coordinate(x, p._den)},{_format_coordinate(y, p._den)})"


def parse_point(token: str) -> Point:
    m = _POINT_RE.fullmatch(token.strip())
    if m is None:
        raise ParseError(
            f"bad point {excerpt(token)}",
            column=1,
            expected=("'(x,y)' with rational coordinates",),
        )
    try:
        return Point.of(m[1], m[2])
    except ValueError:
        for text in m.groups():
            check_digit_limit(text.strip())
        raise ParseError(f"bad rational coordinate in {excerpt(token)}", column=1) from None


def format_loop_literal(loop: FlaggedLoop) -> str:
    den = loop._den
    points = " ".join(
        f"({_format_coordinate(x, den)},{_format_coordinate(y, den)})"
        for x, y in loop._ints
    )
    return f"loop {loop.flag_vertex} {loop.traversal} {points}"


def parse_loop_literal(text: str) -> FlaggedLoop:
    """Parse ``loop <flag> <F|B> (x,y) ...``; errors name each field's column in ``text``.

    An error about the whole loop, such as a flag index out of range, has no column.
    """
    fields = list(_FIELD_RE.finditer(text))
    if not fields or fields[0].group() != "loop":
        raise ParseError(
            "loop literal must start with 'loop'",
            column=fields[0].start() + 1 if fields else 1,
            expected=("'loop <flag> <F|B> (x,y) ...'",),
        )
    if len(fields) < 3:
        raise ParseError(
            "loop literal is missing its header fields", column=fields[-1].end() + 1
        )
    flag_field, traversal_field = fields[1], fields[2]
    flag = parse_at(1, flag_field.start() + 1, read_int, flag_field[0], "bad flag index {}")
    traversal = traversal_field.group()
    if traversal not in ("F", "B"):
        raise ParseError(
            f"bad traversal {excerpt(traversal)}",
            column=traversal_field.start() + 1,
            expected=("'F'", "'B'"),
        )
    vertices = tuple(parse_at(1, m.start() + 1, parse_point, m.group()) for m in fields[3:])
    if len(vertices) < 3:
        raise ParseError("loop literal needs at least three vertices")
    try:
        return FlaggedLoop(vertices, flag, traversal)
    except DomainError as exc:
        raise ParseError(str(exc)) from None


def format_punctures_line(plane: PuncturedPlane) -> str:
    return "punctures: " + " ".join(format_point(p) for p in plane.punctures)


def parse_punctures_line(text: str) -> PuncturedPlane:
    """Inverse of :func:`format_punctures_line`; errors name each point's column."""
    head = re.match(r"\s*punctures:", text)
    if head is None:
        raise ParseError(
            "plane file must open with a 'punctures:' line",
            column=1,
            expected=("'punctures: (x,y) ...'",),
        )
    fields = _FIELD_RE.finditer(text, head.end())
    points = tuple(parse_at(1, m.start() + 1, parse_point, m.group()) for m in fields)
    if not points:
        raise ParseError("no punctures declared")
    return PuncturedPlane(points)


def parse_loop_in(text: str, plane: PuncturedPlane) -> FlaggedLoop:
    """Parse a loop literal; a :class:`DomainError` unless it avoids ``plane``'s punctures."""
    loop = parse_loop_literal(text)
    ensure_avoids(loop, plane)
    return loop


def parse_plane_file(text: str) -> tuple[PuncturedPlane, list[FlaggedLoop]]:
    """Parse a plane file: a ``punctures:`` line, then one loop per line."""
    plane: PuncturedPlane | None = None
    loops: list[FlaggedLoop] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw)
        if not line.strip():
            continue
        try:
            if plane is None:
                plane = parse_at(lineno, 1, parse_punctures_line, line)
            else:
                loops.append(parse_at(lineno, 1, parse_loop_in, line, plane))
        except DomainError as exc:
            raise ParseError(str(exc), line=lineno) from None
    if plane is None:
        raise ParseError("plane file is empty")
    return plane, loops


def format_free_word(word: SignedWord) -> str:
    """Render as ``x1 x2^-1``; the empty word renders as the empty string."""
    tokens = [name + power for name in word.gens.names for power in ("", "^-1")]
    return " ".join([tokens[c] for c in word.codes])
