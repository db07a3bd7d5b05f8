"""Seeded inputs for the three workloads, each with the check its outputs must pass.

A plan is one round of operations.  An operation is one command line given to
``cli.run_script``; its ``expect`` is the exact text the command must print
to stdout, or a predicate on that text.  Expected texts come from
:mod:`oracles`, never from the program.  A line with a ``fault`` is hit by a
known program fault: it is counted as failed while the fault stands, and
checked like any other line once it succeeds.
"""

from __future__ import annotations

import random
import re
import shlex
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import ModuleType
from typing import Callable

import oracles as o

# Known program faults, kept as failing lines of the session workload.
FAULT_SUM_SIGNS = "a: cli._positionals reads the sign pair '--' as an option"  # sum, orbit
FAULT_DEEP_TREE = "b: trees._format_bare recurses once per tree level"


@dataclass
class Op:
    line: str
    expect: str | Callable[[str], bool]
    fault: str = ""

    @property
    def kind(self) -> str:
        return self.line.split(None, 1)[0]

    def check(self, out: str) -> bool:
        if callable(self.expect):
            return self.expect(out)
        return out == self.expect + "\n"


@dataclass
class Plan:
    """One round of operations and how to run it."""

    ops: list[Op]
    session_per_op: bool
    # Checks that call the library, run once outside the timed part.
    confirm: Callable[[ModuleType], bool] = field(default=lambda package: True)
    # Files the round writes, removed after it outside the timed part.  On
    # ext4 a rewrite that truncates a file flushes it to disk on close (about
    # 70 ms on the reference machine), which would time the disk, not flagcalc.
    written: list[Path] = field(default_factory=list)


# --- check-all -------------------------------------------------------------


def _catalan(n: int) -> int:
    out = 1
    for k in range(n):
        out = out * 2 * (2 * k + 1) // (k + 2)
    return out


def suite_minimums() -> dict[str, int]:
    """Fewest checks each suite can report, counted from the sweep's definition."""
    # involution: words of length <= 4 over 3 generators (6 letters) get two
    # checks each; every (u, v) with len(u) + len(v) <= 4 gets one.
    involution = 2 * sum(6**n for n in range(5)) + sum(
        (n + 1) * 6**n for n in range(5)
    )
    # trees: a flip check per tree of 2..5 leaves over 2 generators (shapes x
    # leaf labels x sign pairs), a round trip per word of 1..5 letters, and at
    # least one orbit.
    flips = sum(_catalan(n - 1) * 2**n * 4 ** (n - 1) for n in range(2, 6))
    trees = flips + sum(4**n for n in range(1, 6)) + 1
    # homology: three additivity checks per pair of words of length <= 3 over
    # 2 generators, then 100 lattices with at least two members (two checks
    # each), five idempotence checks and five shift checks per row.
    homology = 3 * sum(4**n for n in range(4)) ** 2 + 100 * (2 * 2 + 5 + 5)
    return {
        "involution": involution,
        "laws": 4 * 4 * 2 * 2,
        "trees": trees,
        "assoc": 3**3,
        "monoid": 2 * sum(6**n for n in range(1, 4)),
        "homology": homology,
        # oracle: the 50-sample group-law sweep (1 + 2 + 1 + 1 cases each),
        # four sign pairs on 50 pairs, two crossing checks on 50 pairs.
        "oracle": 50 * 5 + 50 * 4 + 50 * 2,
    }


def _check_all_output(minimums: dict[str, int]) -> Callable[[str], bool]:
    def check(out: str) -> bool:
        lines = out.split("\n")
        if len(lines) != len(minimums) + 2 or lines[-2:] != ["all checks passed", ""]:
            return False
        for line, (name, least) in zip(lines, minimums.items()):
            m = re.fullmatch(rf"{name}: PASS \((\d+) checks\)", line)
            if m is None or int(m.group(1)) < least:
                return False
        return True

    return check


def check_all_plan(seed: int, workdir: Path) -> Plan:
    """One ``check all`` per round; the suites fix their own inputs."""
    return Plan([Op("check all", _check_all_output(suite_minimums()))], True)


# --- oracle-sweep ----------------------------------------------------------

SWEEP_SAMPLES = 10
SWEEP_SEEDS = 100
CONFIRMED_SEEDS = 3


def _sweep_text(seed: int) -> str:
    k = SWEEP_SAMPLES
    return (
        f"oracle sweep: samples={k} seed={seed}\n"
        f"addition: PASS ({k} cases)\n"
        f"identity: PASS ({2 * k} cases)\n"
        f"inverse: PASS ({k} cases)\n"
        f"associativity: PASS ({k} cases)\n"
        "result: PASS"
    )


def confirm_sweeps(package: ModuleType, seeds: list[int]) -> bool:
    """Windings of the sweep's own sums add up, by the benchmark's routine.

    Rebuilds the loops ``oracle sweep`` samples for each seed and checks, with
    :func:`oracles.winding_numbers`, that the ``(+,-)`` sums add windings and
    the ``(+,+)`` self-sums cancel.
    """
    plane = package.plane
    one = plane.PuncturedPlane((plane.Point.of(0, 0),))
    punctures = plane.format_punctures_line(one)

    def wind(loop: object) -> int:
        return o.winding_numbers(plane.format_loop_literal(loop), punctures)[0]

    for seed in seeds:
        loops = plane.sample_loops(one, SWEEP_SAMPLES, seed)
        windings = [wind(loop) for loop in loops]
        for i, loop in enumerate(loops):
            j = (i + 1) % len(loops)
            added = plane.connected_sum_auto(loop, 1, -1, loops[j], one)
            cancelled = plane.connected_sum_auto(loop, 1, 1, loop, one)
            if wind(added) != windings[i] + windings[j] or wind(cancelled) != 0:
                return False
    return True


def oracle_sweep_plan(seed: int, workdir: Path) -> Plan:
    """``oracle sweep`` over seeds drawn from the workload seed."""
    rng = random.Random(seed)
    seeds = [rng.randrange(10**6) for _ in range(SWEEP_SEEDS)]
    ops = [
        Op(f"oracle sweep --samples {SWEEP_SAMPLES} --seed {s}", _sweep_text(s))
        for s in seeds
    ]
    return Plan(ops, True, lambda package: confirm_sweeps(package, seeds[:CONFIRMED_SEEDS]))


# --- session ---------------------------------------------------------------

GENS = ["a", "b", "c", "d"]
PUNCTURES = [(Fraction(10 * i), Fraction(0)) for i in range(3)]
SEGMENTS = 3
LIGHT_PER_SEGMENT = 130
LATTICE_DIM = 20
COSETS_PER_LATTICE = 6
SUM_SIGNS = ("+-", "-+", "++")
DEEP_WORD_LETTERS = 1600


def _point(x: Fraction, y: Fraction) -> str:
    return f"({x},{y})"


_PUNCTURES_LINE = "punctures: " + " ".join(_point(x, y) for x, y in PUNCTURES)


class _Loop:
    """A generated loop: its literal and its winding around each puncture."""

    def __init__(self, vertices: list[tuple[Fraction, Fraction]], flag: int,
                 traversal: str, windings: list[int]) -> None:
        self.literal = f"loop {flag} {traversal} " + " ".join(
            _point(x, y) for x, y in vertices
        )
        self.windings = windings if traversal == "F" else [-w for w in windings]


def _eighths(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), 8)


def _rings(cx: Fraction, cy: Fraction, radii: list[Fraction], ccw: bool) -> list:
    points = []
    for r in radii:
        points += [(cx + r, cy - r), (cx + r, cy + r), (cx - r, cy + r), (cx - r, cy - r)]
    return points if ccw else points[::-1]


def _make_loop(rng: random.Random, kind: str, laps: int = 1) -> _Loop:
    """A spiral of ``laps`` squares around one puncture, a small square beside
    one, or a box around all three; the flag sits on a bottom vertex (y < 0).

    Punctures sit on y = 0, so a corridor from the flag down to a base point
    below y = -12 stays clear of every puncture and every sum routes.
    """
    ccw = rng.random() < 0.5
    sense = 1 if ccw else -1
    if kind == "spiral":
        i = rng.randrange(len(PUNCTURES))
        cx, cy = PUNCTURES[i][0] + _eighths(rng, -4, 4), _eighths(rng, -4, 4)
        radii = [1 + t + _eighths(rng, 0, 3) for t in range(laps)]
        windings = [sense * laps if j == i else 0 for j in range(len(PUNCTURES))]
    elif kind == "square":
        i = rng.randrange(len(PUNCTURES))
        cx, cy = PUNCTURES[i][0] + 3 + _eighths(rng, 0, 3), _eighths(rng, -3, 3)
        radii = [Fraction(1, 2)]
        windings = [0] * len(PUNCTURES)
    else:
        margin = 5 + _eighths(rng, 1, 3)
        cx = (PUNCTURES[0][0] + PUNCTURES[-1][0]) / 2
        cy = Fraction(0)
        radii = [cx - PUNCTURES[0][0] + margin]
        windings = [sense] * len(PUNCTURES)
    vertices = _rings(cx, cy, radii, ccw)
    bottom = [k for k, (_, y) in enumerate(vertices) if y < 0]
    traversal = rng.choice("FB")
    return _Loop(vertices, rng.choice(bottom), traversal, windings)


def _base(rng: random.Random) -> str:
    q = rng.choice((3, 7, 11, 13))
    x = rng.randint(-3, 22) + Fraction(rng.randint(1, q - 1), q)
    y = Fraction(-60 - rng.randint(0, 20), 5)
    return _point(x, y)


def _random_word(rng: random.Random, length: int) -> o.Word:
    return [(rng.choice(GENS), rng.choice("+-")) for _ in range(length)]


def _random_tree(rng: random.Random, leaves: int, signs: list[str]) -> str:
    """A random tree literal whose nodes take their sign pairs from ``signs``."""
    if leaves == 1:
        return f"leaf:{rng.choice(GENS)}"
    left = rng.randint(1, leaves - 1)
    st = signs.pop()
    return (
        f"(pair {st} {_random_tree(rng, left, signs)} "
        f"{_random_tree(rng, leaves - left, signs)})"
    )


def _quoted(word: o.Word) -> str:
    return '"' + o.format_word(word) + '"'


def _signed(st: str) -> tuple[int, int]:
    return (1 if st[0] == "+" else -1), (1 if st[1] == "+" else -1)


def _light(rng: random.Random) -> Op:
    kind = rng.choice(("inv", "class", "pair", "ms", "ab"))
    word = _random_word(rng, rng.randint(1, 12))
    text = o.format_word(word)
    if kind == "inv":
        return Op(f"inv {text}", o.format_word(o.involution(word)))
    if kind == "class":
        return Op(f"class {text}", o.class_lines(word, GENS))
    if kind == "ms":
        return Op(f"ms {text}", o.multiset_text(word, GENS))
    if kind == "ab":
        return Op(f"ab {text}", o.abelian_text(word, GENS))
    other = _random_word(rng, rng.randint(1, 12))
    st = rng.choice(("++", "+-", "-+", "--"))
    return Op(
        f"pair {st} {_quoted(word)} {_quoted(other)}",
        o.format_word(o.pair(st, word, other, GENS)),
    )


def _word2tree(word: o.Word, fault: str = "") -> Op:
    return Op(f"word2tree {o.format_word(word)}", o.left_comb(word), fault)


def _eval(word: o.Word) -> Op:
    literal = o.left_comb(word)
    if o.eval_tree_literal(literal) != word:
        raise AssertionError("left comb oracle disagrees with the tree evaluator")
    return Op(f"eval {literal}", o.format_word(word))


def _orbit_check(literal: str) -> Callable[[str], bool]:
    target = o.canonical(o.eval_tree_literal(literal), GENS)
    toggled = ("[-" if literal.startswith("[+") else "[+") + literal[2:]

    def check(out: str) -> bool:
        lines = out.rstrip("\n").split("\n")
        m = re.fullmatch(r"orbit size: (\d+)", lines[0])
        members = lines[1:]
        return (
            m is not None
            and int(m.group(1)) == len(members)
            and members == sorted(set(members))
            and literal in members
            and toggled in members
            and all(
                o.canonical(o.eval_tree_literal(member), GENS) == target
                for member in members
            )
        )

    return check


def _orbit(rng: random.Random, leaves: int, fault: str = "") -> Op:
    """``orbit`` of a random tree.

    ``orbit`` reads its arguments through ``cli._positionals``, so a ``--``
    node hits fault (a).  Only lines marked with the fault get one, exactly
    one, so the failed share stays the same for every seed.
    """
    signs = [rng.choice(SUM_SIGNS) for _ in range(leaves - 1)]
    if fault:
        signs[rng.randrange(leaves - 1)] = "--"
    literal = f"[{rng.choice('+-')} {_random_tree(rng, leaves, signs)}]"
    return Op(f"orbit {literal}", _orbit_check(literal), fault)


def _tree_lines(rng: random.Random) -> list[Op]:
    """Heavier word and tree lines: sizes on a fixed ladder, contents seeded."""
    ops = [_word2tree(_random_word(rng, 20 + 70 * i + rng.randrange(70))) for i in range(4)]
    ops += [_eval(_random_word(rng, 20 + 55 * i + rng.randrange(55))) for i in range(4)]
    ops += [_orbit(rng, 4), _orbit(rng, 4)] + [_orbit(rng, 5) for _ in range(4)]
    ops.append(_orbit(rng, 5, FAULT_SUM_SIGNS))
    return ops


def _sum_check(name: str, base: str, windings: list[int]) -> Callable[[str], bool]:
    prefix = f"{name} = loop 0 F {base} "

    def check(out: str) -> bool:
        return out.startswith(prefix) and out.endswith("\n") and o.winding_numbers(
            out[len(name) + 3:-1], _PUNCTURES_LINE
        ) == windings

    return check


def _fgword_check(windings: list[int]) -> Callable[[str], bool]:
    def check(out: str) -> bool:
        return (
            out.endswith("\n")
            and "\n" not in out[:-1]
            and o.free_word_exponents(out[:-1], len(PUNCTURES)) == windings
        )

    return check


def _loop_queries(name: str, windings: list[int]) -> list[Op]:
    return [
        Op(f"wind {name}", o.vector_text(windings)),
        Op(f"fgword {name}", _fgword_check(windings)),
    ]


def _same_bytes(first: Path, second: Path) -> Callable[[str], bool]:
    def check(out: str) -> bool:
        return out == f"saved {second}\n" and first.read_bytes() == second.read_bytes()

    return check


def _lattice(rng: random.Random) -> tuple[list[list[int]], list[list[int]]]:
    """A known upper triangular basis T and the rows U*T for a random unimodular U.

    U is a row permutation of a unit lower triangular times a unit upper
    triangular matrix, so U*T spans exactly the row lattice of T.
    """
    n = LATTICE_DIM
    basis = [
        [0] * i + [rng.randint(1, 9) * rng.choice((1, -1))] + [rng.randint(-9, 9) for _ in range(n - i - 1)]
        for i in range(n)
    ]
    lower = [[rng.randint(-1, 1) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[rng.randint(-1, 1) if j > i else int(i == j) for j in range(n)] for i in range(n)]

    def times(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
        return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(n)] for row in a]

    rows = times(times(lower, upper), basis)
    rng.shuffle(rows)
    return basis, rows


def _segment(rng: random.Random, seg: int, workdir: Path, written: list[Path]) -> list[Op]:
    """One plane, a chain of sums, save/load, the (-,-) sum, one lattice."""
    plane_path = workdir / f"plane{seg}.plane"
    # Fixed kinds and lap counts keep the loops' sizes, and so the cost of
    # the sums over them, the same for every seed.
    loops = [
        _make_loop(rng, "spiral", 2),
        _make_loop(rng, "spiral", 3),
        _make_loop(rng, "box"),
        _make_loop(rng, "square"),
    ]
    rng.shuffle(loops)
    for loop in loops:
        if o.winding_numbers(loop.literal, _PUNCTURES_LINE) != loop.windings:
            raise AssertionError("generated loop does not wind as constructed")
    plane_path.write_text(
        "\n".join([_PUNCTURES_LINE] + [loop.literal for loop in loops]) + "\n",
        encoding="utf-8",
    )
    ops = [
        Op(
            f"plane load {shlex.quote(str(plane_path))}",
            "\n".join(
                [f"plane: {len(PUNCTURES)} puncture(s)"]
                + [f"loop{k} = {loop.literal}" for k, loop in enumerate(loops, 1)]
            ),
        )
    ]
    windings = {f"loop{k}": loop.windings for k, loop in enumerate(loops, 1)}
    for name in list(windings):
        ops += _loop_queries(name, windings[name])

    def add_sum(st: str, first: str, second: str, name: str, fault: str = "") -> None:
        sigma, tau = _signed(st)
        base = _base(rng)
        summed = [sigma * a - tau * b for a, b in zip(windings[first], windings[second])]
        ops.append(
            Op(f"sum {st} {first} {second} --base {base}", _sum_check(name, base, summed), fault)
        )
        if not fault:
            windings[name] = summed
            ops.extend(_loop_queries(name, summed))

    # A chain of sums over changing base points, so denominators grow.
    a, b, c, d = rng.sample(list(windings), 4)
    add_sum(rng.choice(SUM_SIGNS), a, b, "loop5")
    add_sum(rng.choice(SUM_SIGNS), "loop5", c, "loop6")
    add_sum(rng.choice(SUM_SIGNS), "loop6", d, "loop7")
    add_sum(rng.choice(SUM_SIGNS), "loop7", "loop5", "loop8")

    first, second = workdir / f"session{seg}a.txt", workdir / f"session{seg}b.txt"
    written += [first, second]
    ops += [
        Op(f"save {shlex.quote(str(first))}", f"saved {first}"),
        Op(f"load {shlex.quote(str(first))}", f"loaded {first}"),
        Op(f"save {shlex.quote(str(second))}", _same_bytes(first, second)),
    ]
    ops += _loop_queries("loop8", windings["loop8"])
    # Fault (a).  It is the last line that could bind a loop before the next
    # 'plane load' drops them all, so binding one once the fault is mended
    # renumbers nothing that later lines use.
    add_sum("--", *rng.sample([f"loop{k}" for k in range(1, 9)], 2), "loop9", FAULT_SUM_SIGNS)

    basis, rows = _lattice(rng)
    lattice_path = workdir / f"lattice{seg}.lat"
    lattice_path.write_text(
        "\n".join(" ".join(str(x) for x in row) for row in rows) + "\n", encoding="utf-8"
    )
    ops.append(
        Op(
            f"lattice load {shlex.quote(str(lattice_path))}",
            f"lattice: {LATTICE_DIM} row(s), dimension {LATTICE_DIM}",
        )
    )
    hermite = o.hermite_from_triangular(basis)
    for _ in range(COSETS_PER_LATTICE):
        vector = [rng.randint(-10**4, 10**4) for _ in range(LATTICE_DIM)]
        rep = o.coset_rep(hermite, vector)
        if not o.triangular_member(basis, [x - r for x, r in zip(vector, rep)]):
            raise AssertionError("coset oracle left the coset")
        ops.append(Op(f"coset {o.vector_text(vector)}", o.vector_text(rep)))
        ops.append(Op(f"coset {o.vector_text(rep)}", o.vector_text(rep)))
    return ops


def _merge(rng: random.Random, ordered: list[Op], free: list[Op]) -> list[Op]:
    """Interleave ``free`` lines into ``ordered`` at seeded places, keeping both orders."""
    slots = [True] * len(ordered) + [False] * len(free)
    rng.shuffle(slots)
    a, b = iter(ordered), iter(free)
    return [next(a) if slot else next(b) for slot in slots]


def session_plan(seed: int, workdir: Path) -> Plan:
    """A generated script, run line by line in one Session per round."""
    rng = random.Random(seed)
    ops = [Op("gens " + " ".join(GENS), "generators: " + " ".join(GENS))]
    written: list[Path] = []
    for _ in range(4):
        vector = [rng.randint(-99, 99) for _ in GENS]
        ops.append(Op(f"coset {o.vector_text(vector)}", o.vector_text(vector)))
    for seg in range(SEGMENTS):
        free = [_light(rng) for _ in range(LIGHT_PER_SEGMENT)] + _tree_lines(rng)
        if seg == 1:
            free.append(_word2tree(_random_word(rng, DEEP_WORD_LETTERS), FAULT_DEEP_TREE))
        rng.shuffle(free)
        ops += _merge(rng, _segment(rng, seg, workdir, written), free)
    return Plan(ops, False, written=written)


PLANS: dict[str, Callable[[int, Path], Plan]] = {
    "check-all": check_all_plan,
    "oracle-sweep": oracle_sweep_plan,
    "session": session_plan,
}
