"""Line-oriented command shell over the whole calculus.

One command per line; ``flagcalc script.txt`` runs a batch, ``flagcalc``
reads stdin, ``flagcalc -c '...'`` runs a single command.  A line is split
into words as a POSIX shell splits it (see :func:`_lex`).  Output is fully
deterministic: no timestamps, no hash-ordered iteration, seeds are explicit
arguments.  Exit codes: 0 success, 1 domain error (also failed check
sweeps), 2 syntax error.  Error text goes to stderr prefixed ``error:`` and,
for a syntax error, the ``line:column`` where it is in the script (or, for a
file that a command reads, in that file).

Sessions hold the declared generator set, the preferred words that ``class``
and ``pair`` print as canonical (the ``canon`` lines of a session file), an
optional relation lattice, an optional punctured plane, and named bindings.
``save``/``load`` serialize all of that losslessly as a line-oriented text
file reusing the same literal grammars the commands accept.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Callable, TextIO, TypeVar

from . import abelian, suites, trees, words
from . import plane as planes
from .errors import (
    DomainError,
    FlagcalcError,
    ParseError,
    ResourceLimitError,
    check_digit_limit,
    excerpt,
    parse_at,
    read_int,
    strip_comment,
)

# Not typing.Union, for the reason given at ``trees.PairingTree``.
Binding = words.SignedWord | trees.RootedPresentation | planes.FlaggedLoop
# A word of a command line: its value, and its start and end offsets in the line.
Token = tuple[str, int, int]
_T = TypeVar("_T")

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_LOOP_NAME_RE = re.compile(r"loop(\d+)")
_FIELD_RE = re.compile(r"\S+")
# The characters that quote, escape or comment; a line without them splits on
# whitespace alone.
_QUOTING_RE = re.compile(r"['\"\\#]")
_PLAIN_WORD_RE = re.compile(r"[^ \t\r\n]+")
# Whitespace, a comment, a word, or the quote or backslash that opens a word
# piece with no end.  A word is a run of pieces: unquoted characters, '...',
# "..." (in which a backslash escapes the next character) and a backslash
# with the character after it.
_LEX_RE = re.compile(
    r"""[ \t\r\n]+|\#[^\n]*
    |(?P<word>(?:[^ \t\r\n'"\\\#]+|'[^']*'|"[^"\\]*(?:\\.[^"\\]*)*"|\\.)+)
    |(?P<open>.)""",
    re.VERBOSE | re.DOTALL,
)
_PIECE_RE = re.compile(r"""'([^']*)'|"([^"\\]*(?:\\.[^"\\]*)*)"|\\(.)|([^'"\\]+)""", re.DOTALL)
# Inside "...", a backslash escapes only a double quote and a backslash.
_QUOTED_ESCAPE_RE = re.compile(r'\\(["\\])')

# The same bound as ``orbit``'s default ``--cap``.
MAX_SWEEP_SAMPLES = trees.DEFAULT_CLOSURE_CAP


@dataclass
class Session:
    """Mutable shell state threaded through :func:`run_command`."""

    gens: words.GeneratorSet | None = None
    canon: frozenset[words.SignedWord] = frozenset()
    lattice: abelian.RelationLattice | None = None
    plane: planes.PuncturedPlane | None = None
    bindings: dict[str, Binding] = field(default_factory=dict)


def _require_gens(session: Session) -> words.GeneratorSet:
    if session.gens is None:
        raise DomainError("no generators declared; run 'gens <name> ...' first")
    return session.gens


def _require_plane(session: Session) -> planes.PuncturedPlane:
    if session.plane is None:
        raise DomainError("no plane loaded; run 'plane load <file>' first")
    return session.plane


def _resolve_word(session: Session, text: str, column: int) -> words.SignedWord:
    bound = session.bindings.get(text.strip())
    if isinstance(bound, words.SignedWord):
        return bound
    return parse_at(1, column, words.parse_word, text, _require_gens(session))


def _resolve_tree(session: Session, text: str, column: int) -> trees.RootedPresentation:
    bound = session.bindings.get(text.strip())
    if isinstance(bound, trees.RootedPresentation):
        return bound
    return parse_at(1, column, trees.parse_tree, text, _require_gens(session))


def _resolve_loop(session: Session, name: str) -> planes.FlaggedLoop:
    bound = session.bindings.get(name)
    if not isinstance(bound, planes.FlaggedLoop):
        raise DomainError(f"no loop named {name!r} is bound")
    return bound


def _positionals(
    tokens: list[Token], options: tuple[str, ...]
) -> tuple[list[Token], dict[str, Token]]:
    """Split ``tokens`` into positionals and ``--name value`` options."""
    pos: list[Token] = []
    opts: dict[str, Token] = {}
    i = 0
    while i < len(tokens):
        arg, start, _ = tokens[i]
        if arg.startswith("--") and arg != "--":  # a lone ``--`` is a sign pair
            name = arg[2:]
            if name not in options:
                raise ParseError(
                    f"unknown option {excerpt(arg)}",
                    column=start + 1,
                    expected=tuple(f"--{o}" for o in sorted(options)),
                )
            if i + 1 >= len(tokens):
                raise ParseError(f"option {arg!r} needs a value", column=start + 1)
            opts[name] = tokens[i + 1]
            i += 2
        else:
            pos.append(tokens[i])
            i += 1
    return pos, opts


def _int_option(opts: dict[str, Token], name: str, default: int | None = None) -> int:
    if name not in opts:
        if default is None:
            raise ParseError(f"missing required option --{name}")
        return default
    value, start, _ = opts[name]
    return parse_at(1, start + 1, read_int, value, f"option --{name} needs an integer", ())


def _values(tokens: list[Token]) -> list[str]:
    return [value for value, _, _ in tokens]


def _arity(tokens: list[Token], count: int, usage: str) -> None:
    if len(tokens) != count:
        raise ParseError(f"usage: {usage}")


def _literal(line: str, tokens: list[Token], usage: str) -> tuple[str, int]:
    """The literal that ``tokens`` spell, and the line column where it starts.

    It is sliced from ``line``, so that it keeps its own spacing and an error
    inside it can name its column in the line.  If a token was quoted or
    escaped, or an option stood between two of them, the literal is the
    tokens' values joined by spaces instead.
    """
    if not tokens:
        raise ParseError(f"usage: {usage}")
    start = tokens[0][1]
    text = line[start : tokens[-1][2]]
    if _QUOTING_RE.search(text) or len(text.split()) != len(tokens):
        text = " ".join(_values(tokens))
    return text, start + 1


def _word_at(line: str, token: Token) -> tuple[str, int]:
    """A token's value, and its column, past the quote if the token opens with one."""
    value, start, _ = token
    return value, start + 1 + (line[start] in "'\"")


class _FileParseError(FlagcalcError):
    """A parse error placed in a file that a command read, not in the command line."""


def _parse_file(path: str, parse: Callable[[str], _T]) -> _T:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror or exc}") from None
    try:
        return parse(text)
    except ParseError as exc:
        raise _FileParseError(str(exc)) from None


def _loop_names(bindings: dict[str, Binding], count: int) -> list[str]:
    """Names for ``count`` new loops, numbered on from the highest ``loop<n>`` in ``bindings``."""
    highest = 0
    for name in bindings:
        m = _LOOP_NAME_RE.fullmatch(name)
        if m:
            # The number after it may have one digit more.
            check_digit_limit(m.group(1) + "0")
            highest = max(highest, int(m.group(1)))
    # A later scan reads the highest new number, so it must pass the same check.
    check_digit_limit(f"{highest + count}0")
    return [f"loop{highest + i}" for i in range(1, count + 1)]


def _kept_bindings(session: Session, kind: type | tuple[type, ...]) -> dict[str, Binding]:
    """The session's bindings without those of type ``kind``."""
    return {name: v for name, v in session.bindings.items() if not isinstance(v, kind)}


# --- command handlers ------------------------------------------------------


def _cmd_gens(session: Session, line: str, args: list[Token]) -> tuple[str, int]:
    if not args:
        raise ParseError("usage: gens <name> [<name> ...]")
    session.gens = words.GeneratorSet.of(*_values(args))
    session.canon = frozenset()
    session.bindings = _kept_bindings(session, (words.SignedWord, trees.RootedPresentation))
    return "generators: " + " ".join(session.gens.names), 0


def _cmd_inv(session: Session, line: str, args: list[Token]) -> tuple[str, int]:
    word = _resolve_word(session, *_literal(line, args, "inv <word>"))
    return words.format_word(word.involution()), 0


def _cmd_class(session: Session, line: str, args: list[Token]) -> tuple[str, int]:
    cls = words.class_of(
        _resolve_word(session, *_literal(line, args, "class <word>")), session.canon
    )
    return (
        f"canonical: {words.format_word(cls.canonical)}\n"
        f"anti: {words.format_word(cls.anti)}\n"
        f"degenerate: {'true' if cls.is_degenerate else 'false'}"
    ), 0


def _cmd_pair(session: Session, line: str, args: list[Token]) -> tuple[str, int]:
    _arity(args, 3, "pair <st> <word> <word> (quote multi-letter words)")
    (st, st_start, _), a_token, b_token = args
    sigma, tau = parse_at(1, st_start + 1, words.parse_sign_pair, st)
    a = words.class_of(_resolve_word(session, *_word_at(line, a_token)), session.canon)
    b = words.class_of(_resolve_word(session, *_word_at(line, b_token)), session.canon)
    return words.format_word(words.pair(a, sigma, tau, b)), 0


def _cmd_eval(session: Session, line: str, args: list[Token]) -> tuple[str, int]:
    gens = _require_gens(session)
    rooted = _resolve_tree(session, *_literal(line, args, "eval <tree>"))
    return words.format_word(trees.eval_tree(rooted, gens)), 0


def _cmd_word2tree(session: Session, line: str, args: list[Token]) -> tuple[str, int]:
    gens = _require_gens(session)
    word = _resolve_word(session, *_literal(line, args, "word2tree <word>"))
    return trees.format_tree(trees.word_to_tree(word), gens), 0


def _cmd_orbit(session: Session, line: str, args: list[Token]) -> tuple[str, int]:
    pos, opts = _positionals(args, ("cap",))
    gens = _require_gens(session)
    cap = _int_option(opts, "cap", trees.DEFAULT_CLOSURE_CAP)
    rooted = _resolve_tree(session, *_literal(line, pos, "orbit <tree> [--cap K]"))
    orbit = trees.move_closure(rooted, cap)
    literals = sorted(trees.format_tree(member, gens) for member in orbit)
    return "\n".join([f"orbit size: {len(orbit)}"] + literals), 0


def _cmd_ms(session: Session, line: str, args: list[Token]) -> tuple[str, int]:
    gens = _require_gens(session)
    ms = abelian.multiset_quotient(
        _resolve_word(session, *_literal(line, args, "ms <word>"))
    )
    return abelian.format_multiset(ms, gens), 0


def _cmd_ab(session: Session, line: str, args: list[Token]) -> tuple[str, int]:
    vec = abelian.abelianize(_resolve_word(session, *_literal(line, args, "ab <word>")))
    return abelian.format_vector(vec), 0


def _cmd_coset(session: Session, line: str, args: list[Token]) -> tuple[str, int]:
    text, column = _literal(line, args, "coset <vector>")
    vector = parse_at(1, column, abelian.parse_vector, text)
    if session.lattice is not None:  # else the free lattice, which reduces nothing
        vector = session.lattice.reduce(vector)
    return abelian.format_vector(vector), 0


def _cmd_lattice(session: Session, line: str, args: list[Token]) -> tuple[str, int]:
    values = _values(args)
    if len(values) != 2 or values[0] != "load":
        raise ParseError("usage: lattice load <file>")
    lattice = _parse_file(values[1], abelian.parse_lattice)
    session.lattice = lattice
    return f"lattice: {len(lattice.rows)} row(s), dimension {lattice.dim}", 0


def _cmd_plane(session: Session, line: str, args: list[Token]) -> tuple[str, int]:
    values = _values(args)
    if len(values) != 2 or values[0] != "load":
        raise ParseError("usage: plane load <file>")
    plane, loops = _parse_file(values[1], planes.parse_plane_file)
    # Every name is found before the session changes, so a failure leaves it whole.
    kept = _kept_bindings(session, planes.FlaggedLoop)
    named = dict(zip(_loop_names(kept, len(loops)), loops))
    session.plane = plane
    session.bindings = kept | named
    lines = [f"plane: {len(plane.punctures)} puncture(s)"]
    lines.extend(f"{name} = {planes.format_loop_literal(loop)}" for name, loop in named.items())
    return "\n".join(lines), 0


def _cmd_wind(session: Session, line: str, args: list[Token]) -> tuple[str, int]:
    _arity(args, 1, "wind <loopname>")
    plane = _require_plane(session)
    loop = _resolve_loop(session, args[0][0])
    return abelian.format_vector(planes.winding_profile(loop, plane)), 0


def _cmd_fgword(session: Session, line: str, args: list[Token]) -> tuple[str, int]:
    _arity(args, 1, "fgword <loopname>")
    plane = _require_plane(session)
    loop = _resolve_loop(session, args[0][0])
    return planes.format_free_word(planes.crossing_word(loop, plane)), 0


def _cmd_sum(session: Session, line: str, args: list[Token]) -> tuple[str, int]:
    pos, opts = _positionals(args, ("base",))
    _arity(pos, 3, "sum <st> <loop1> <loop2> --base (x,y)")
    if "base" not in opts:
        raise ParseError("missing required option --base")
    (st, st_start, _), (name1, _, _), (name2, _, _) = pos
    sigma, tau = parse_at(1, st_start + 1, words.parse_sign_pair, st)
    plane = _require_plane(session)
    l1 = _resolve_loop(session, name1)
    l2 = _resolve_loop(session, name2)
    base_text, base_start, _ = opts["base"]
    base = parse_at(1, base_start + 1, planes.parse_point, base_text)
    result = planes.connected_sum(l1, sigma, tau, l2, base, plane)
    (name,) = _loop_names(session.bindings, 1)
    session.bindings[name] = result
    return f"{name} = {planes.format_loop_literal(result)}", 0


def _cmd_oracle(session: Session, line: str, args: list[Token]) -> tuple[str, int]:
    if not args or args[0][0] != "sweep":
        raise ParseError("usage: oracle sweep --samples K --seed S")
    pos, opts = _positionals(args[1:], ("samples", "seed"))
    if pos:
        raise ParseError("usage: oracle sweep --samples K --seed S")
    samples = _int_option(opts, "samples")
    seed = _int_option(opts, "seed")
    if samples > MAX_SWEEP_SAMPLES:
        raise ResourceLimitError(
            f"oracle sweep takes at most {MAX_SWEEP_SAMPLES} samples, got {samples}"
        )
    plane = session.plane or planes.ORIGIN_PLANE
    laws = suites.verify_group_law(plane, samples=samples, seed=seed)
    passed = all(law.passed for law in laws)
    lines = [f"oracle sweep: samples={samples} seed={seed}"]
    lines.extend(
        f"{law.name}: {'PASS' if law.passed else 'FAIL'} ({law.checks} cases)"
        for law in laws
    )
    details = [f"  {law.name}: {detail}" for law in laws for detail in law.failures]
    lines.extend(details[:5])
    lines.append(f"result: {'PASS' if passed else 'FAIL'}")
    return "\n".join(lines), 0 if passed else 1


def _cmd_check(session: Session, line: str, args: list[Token]) -> tuple[str, int]:
    _arity(args, 1, "check <suite|all>")
    suite, start, _ = args[0]
    if suite == "all":
        names = list(suites.SUITES)
    elif suite in suites.SUITES:
        names = [suite]
    else:
        raise ParseError(
            f"unknown suite {excerpt(suite)}",
            column=start + 1,
            expected=tuple(sorted(suites.SUITES)) + ("all",),
        )
    lines = []
    failed = False
    for name in names:
        result = suites.SUITES[name]()
        if result.passed:
            lines.append(f"{result.name}: PASS ({result.checks} checks)")
        else:
            failed = True
            lines.append(
                f"{result.name}: FAIL "
                f"({len(result.failures)} failures / {result.checks} checks)"
            )
            lines.extend(f"  {detail}" for detail in result.failures[:3])
    lines.append("some checks failed" if failed else "all checks passed")
    return "\n".join(lines), 1 if failed else 0


def _cmd_save(session: Session, line: str, args: list[Token]) -> tuple[str, int]:
    _arity(args, 1, "save <file>")
    path = args[0][0]
    try:
        Path(path).write_text(_session_text(session), encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror or exc}") from None
    return f"saved {path}", 0


def _cmd_load(session: Session, line: str, args: list[Token]) -> tuple[str, int]:
    _arity(args, 1, "load <file>")
    path = args[0][0]
    loaded = _parse_file(path, _parse_session_text)
    session.gens = loaded.gens
    session.canon = loaded.canon
    session.lattice = loaded.lattice
    session.plane = loaded.plane
    session.bindings = loaded.bindings
    return f"loaded {path}", 0


_HANDLERS: dict[str, Callable[[Session, str, list[Token]], tuple[str, int]]] = {
    "gens": _cmd_gens,
    "inv": _cmd_inv,
    "class": _cmd_class,
    "pair": _cmd_pair,
    "eval": _cmd_eval,
    "word2tree": _cmd_word2tree,
    "orbit": _cmd_orbit,
    "ms": _cmd_ms,
    "ab": _cmd_ab,
    "coset": _cmd_coset,
    "lattice": _cmd_lattice,
    "plane": _cmd_plane,
    "wind": _cmd_wind,
    "fgword": _cmd_fgword,
    "sum": _cmd_sum,
    "oracle": _cmd_oracle,
    "check": _cmd_check,
    "save": _cmd_save,
    "load": _cmd_load,
}


def run_command(
    session: Session, argv: list[str]
) -> tuple[Session, str | None, str | None, int]:
    """Execute one command given as its words; returns (session, stdout text, stderr text, code).

    A literal argument is its words joined by spaces, and errors are placed
    in that joined line.
    """
    tokens: list[Token] = []
    start = 0
    for value in argv:
        tokens.append((value, start, start + len(value)))
        start += len(value) + 1
    return (session, *_execute(session, " ".join(argv), 1, tokens))


def _execute(
    session: Session, line: str, lineno: int, tokens: list[Token] | None = None
) -> tuple[str | None, str | None, int]:
    """Run ``line``, line ``lineno`` of a script; ``tokens`` are its words, if given."""
    try:
        text, code = parse_at(lineno, 1, _dispatch, line, session, tokens)
    except (ParseError, _FileParseError) as exc:
        return None, str(exc), 2
    except FlagcalcError as exc:
        return None, str(exc), 1
    except RecursionError:
        # ``orbit`` rewrites trees recursively, one frame per level, and
        # ``move_closure`` refuses a tree nested past the recursion limit.
        return None, "input nested too deeply for this command", 1
    return text, None, code


def _dispatch(line: str, session: Session, tokens: list[Token] | None) -> tuple[str | None, int]:
    tokens = _lex(line) if tokens is None else tokens
    if not tokens:
        return None, 0
    name, start, _ = tokens[0]
    handler = _HANDLERS.get(name)
    if handler is None:
        raise ParseError(
            f"unknown command {excerpt(name)}",
            column=start + 1,
            expected=tuple(sorted(_HANDLERS)),
        )
    return handler(session, line, tokens[1:])


# --- session files ---------------------------------------------------------


def _session_text(session: Session) -> str:
    lines: list[str] = []
    if session.gens is not None:
        lines.append("gens " + " ".join(session.gens.names))
    choices = sorted(words.format_word(choice) for choice in session.canon)
    lines.extend(f"canon {choice}".rstrip() for choice in choices)
    if session.lattice is not None:
        lines.append(f"lattice {len(session.lattice.rows)} {session.lattice.dim}")
        lines.extend(abelian.format_lattice(session.lattice).splitlines())
    if session.plane is not None:
        lines.append(planes.format_punctures_line(session.plane))
    for name, value in session.bindings.items():
        if isinstance(value, words.SignedWord):
            lines.append(f"bind {name} word {words.format_word(value)}".rstrip())
        elif isinstance(value, trees.RootedPresentation):
            gens = session.gens
            assert gens is not None  # tree bindings require declared generators
            lines.append(f"bind {name} tree {trees.format_tree(value, gens)}")
        else:
            lines.append(f"bind {name} {planes.format_loop_literal(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def _parse_session_text(text: str) -> Session:
    session = Session()
    canon: set[words.SignedWord] = set()
    seen: set[str] = set()
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        lineno = i + 1
        line = strip_comment(lines[i]).rstrip()
        i += 1
        # The fields that any head needs; each field, and each payload after
        # its head or kind, is read where it stands in the line.
        fields = list(islice(_FIELD_RE.finditer(line), 4))
        if not fields:
            continue
        head = fields[0].group()
        if head in ("gens", "policy", "lattice", "punctures:"):
            # At most once each: a second one could break the bindings read
            # under the first.
            if head in seen:
                raise ParseError(f"duplicate {head!r} line", line=lineno)
            seen.add(head)
        try:
            if head == "gens":
                session.gens = words.GeneratorSet.of(*line[fields[0].end():].split())
            elif head == "policy":
                # Older files name the canonical choice; the 'canon' lines
                # already say it.
                policy = line[fields[0].end():].strip()
                if policy not in ("lex", "explicit"):
                    raise ParseError(
                        f"unknown policy {policy!r}", line=lineno, expected=("lex", "explicit")
                    )
            elif head == "canon":
                gens = session.gens
                if gens is None:
                    raise DomainError("'canon' line before any 'gens' line")
                end = fields[0].end()
                canon.add(parse_at(lineno, end + 1, words.parse_word, line[end:], gens))
            elif head == "lattice":
                if len(fields) != 3:
                    raise ParseError(
                        "lattice header needs row count and dimension", line=lineno
                    )
                message = "bad integer {} in lattice header"
                n_rows, dim = (
                    parse_at(lineno, f.start() + 1, read_int, f.group(), message)
                    for f in fields[1:]
                )
                if n_rows < 0:
                    raise ParseError(f"negative lattice row count {n_rows}", line=lineno)
                rows = []
                for _ in range(n_rows):
                    if i >= len(lines):
                        raise ParseError(
                            "lattice header promises more rows than the file has",
                            line=lineno,
                        )
                    i += 1
                    row = parse_at(i, 1, abelian.parse_lattice_row, lines[i - 1])
                    if len(row) != dim:
                        message = f"lattice row {tuple(row)!r} does not have dimension {dim}"
                        raise ParseError(message, line=i)
                    rows.append(row)
                session.lattice = abelian.RelationLattice.from_rows(rows, dim=dim)
            elif head == "punctures:":
                session.plane = parse_at(lineno, 1, planes.parse_punctures_line, line)
            elif head == "bind":
                if len(fields) < 3:
                    raise ParseError(
                        "usage: bind <name> <word|tree|loop> <literal>", line=lineno
                    )
                name, kind = fields[1].group(), fields[2].group()
                if not _NAME_RE.fullmatch(name):
                    raise ParseError(f"bad binding name {name!r}", line=lineno)
                if name in session.bindings:
                    raise ParseError(f"duplicate binding name {name!r}", line=lineno)
                if kind in ("word", "tree"):
                    gens = session.gens
                    if gens is None:
                        raise DomainError(f"{kind} binding before any 'gens' line")
                    parse = words.parse_word if kind == "word" else trees.parse_tree
                    end = fields[2].end()
                    session.bindings[name] = parse_at(lineno, end + 1, parse, line[end:], gens)
                elif kind == "loop":
                    if session.plane is None:
                        raise DomainError("loop binding before any 'punctures:' line")
                    # The loop literal starts with its kind, 'loop'.
                    start = fields[2].start()
                    session.bindings[name] = parse_at(
                        lineno, start + 1, planes.parse_loop_in, line[start:], session.plane
                    )
                else:
                    raise ParseError(
                        f"unknown binding kind {kind!r}",
                        line=lineno,
                        expected=("word", "tree", "loop"),
                    )
            else:
                raise ParseError(
                    f"unknown session directive {head!r}",
                    line=lineno,
                    expected=("gens", "canon", "lattice", "punctures:", "bind"),
                )
        except DomainError as exc:
            raise ParseError(str(exc), line=lineno) from None
    session.canon = frozenset(canon)
    return session


# --- entry point -----------------------------------------------------------


def _lex(line: str) -> list[Token]:
    """Split a command line into words as ``shlex.split(line, comments=True)`` does.

    Words are separated by spaces, tabs, carriage returns and newlines only.
    ``'...'`` quotes everything up to the next ``'``.  ``"..."`` quotes too,
    and inside it a backslash escapes a ``"`` or a backslash and is kept
    before any other character.  Outside quotes, a backslash escapes the
    character after it, and a ``#`` ends the line, in the middle of a word
    too.  Each word comes with the offsets in ``line`` where its text starts
    and ends, quotes included.  An unclosed quote and a trailing backslash
    are parse errors at their column.
    """
    if not _QUOTING_RE.search(line):
        return [(m[0], m.start(), m.end()) for m in _PLAIN_WORD_RE.finditer(line)]
    tokens: list[Token] = []
    for m in _LEX_RE.finditer(line):
        if m.lastgroup == "word":
            text = m[0]
            if _QUOTING_RE.search(text):
                text = "".join(
                    _QUOTED_ESCAPE_RE.sub(r"\1", piece.group(2))
                    if piece.lastindex == 2
                    else piece.group(piece.lastindex)
                    for piece in _PIECE_RE.finditer(text)
                )
            tokens.append((text, m.start(), m.end()))
        elif m.lastgroup == "open":
            what = "no closing quotation" if m[0] != "\\" else "no character after a backslash"
            raise ParseError(what, column=m.start() + 1)
    return tokens


def _run_line(session: Session, line: str, lineno: int, out: TextIO, err: TextIO) -> int:
    out_text, err_text, code = _execute(session, line, lineno)
    if out_text is not None:
        print(out_text, file=out)
    if err_text is not None:
        print(f"error: {err_text}", file=err)
    return code


def run_script(
    text: str,
    session: Session | None = None,
    out: TextIO | None = None,
    err: TextIO | None = None,
) -> int:
    """Run commands line by line; keeps going after errors.

    The exit code is 0 when everything succeeded, otherwise the code of the
    first failing command.  A syntax error names its line in ``text``.
    """
    session = session if session is not None else Session()
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    exit_code = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        code = _run_line(session, line, lineno, out, err)
        if code and not exit_code:
            exit_code = code
    return exit_code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="flagcalc",
        description="Calculator for signed-word classes, pairing trees, "
        "abelian shadows, and punctured-plane loops.",
    )
    parser.add_argument(
        "script", nargs="?", help="command script to run; reads stdin when omitted"
    )
    parser.add_argument("-c", "--command", help="run a single command and exit")
    ns = parser.parse_args(argv)
    session = Session()
    if ns.command is not None:
        return _run_line(session, ns.command, 1, sys.stdout, sys.stderr)
    if ns.script is not None:
        try:
            text = Path(ns.script).read_text(encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot read {ns.script}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    else:
        text = sys.stdin.read()
    return run_script(text, session)


if __name__ == "__main__":
    sys.exit(main())
