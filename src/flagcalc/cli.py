"""Line-oriented command shell over the whole calculus.

One command per line; ``flagcalc script.txt`` runs a batch, ``flagcalc``
reads stdin, ``flagcalc -c '...'`` runs a single command.  Output is fully
deterministic: no timestamps, no hash-ordered iteration, seeds are explicit
arguments.  Exit codes: 0 success, 1 domain error (also failed check
sweeps), 2 syntax error.  Error text goes to stderr prefixed ``error:``.

Sessions hold the declared generator set, the preferred words that ``class``
and ``pair`` print as canonical (the ``canon`` lines of a session file), an
optional relation lattice, an optional punctured plane, and named bindings.
``save``/``load`` serialize all of that losslessly as a line-oriented text
file reusing the same literal grammars the commands accept.
"""

from __future__ import annotations

import argparse
import re
import shlex
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, TextIO

from . import abelian, suites, trees, words
from . import plane as planes
from .errors import DomainError, FlagcalcError, ParseError, ResourceLimitError

# Not typing.Union, for the reason given at ``trees.PairingTree``.
Binding = words.SignedWord | trees.RootedPresentation | planes.FlaggedLoop

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_LOOP_NAME_RE = re.compile(r"loop(\d+)")

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


def _resolve_word(session: Session, text: str) -> words.SignedWord:
    bound = session.bindings.get(text.strip())
    if isinstance(bound, words.SignedWord):
        return bound
    return words.parse_word(text, _require_gens(session))


def _resolve_tree(session: Session, text: str) -> trees.RootedPresentation:
    bound = session.bindings.get(text.strip())
    if isinstance(bound, trees.RootedPresentation):
        return bound
    return trees.parse_tree(text, _require_gens(session))


def _resolve_loop(session: Session, name: str) -> planes.FlaggedLoop:
    bound = session.bindings.get(name)
    if not isinstance(bound, planes.FlaggedLoop):
        raise DomainError(f"no loop named {name!r} is bound")
    return bound


def _positionals(args: list[str], options: tuple[str, ...]) -> tuple[list[str], dict[str, str]]:
    """Split ``args`` into positionals and ``--name value`` options."""
    pos: list[str] = []
    opts: dict[str, str] = {}
    i = 0
    while i < len(args):
        arg = args[i]
        if arg.startswith("--") and arg != "--":  # a lone ``--`` is a sign pair
            name = arg[2:]
            if name not in options:
                raise ParseError(
                    f"unknown option {arg!r}",
                    expected=tuple(f"--{o}" for o in sorted(options)),
                )
            if i + 1 >= len(args):
                raise ParseError(f"option {arg!r} needs a value")
            opts[name] = args[i + 1]
            i += 2
        else:
            pos.append(arg)
            i += 1
    return pos, opts


def _int_option(opts: dict[str, str], name: str, default: int | None = None) -> int:
    if name not in opts:
        if default is None:
            raise ParseError(f"missing required option --{name}")
        return default
    try:
        return int(opts[name])
    except ValueError:
        raise ParseError(f"option --{name} needs an integer") from None


def _arity(args: list[str], count: int, usage: str) -> None:
    if len(args) != count:
        raise ParseError(f"usage: {usage}")


def _joined(args: list[str], usage: str) -> str:
    """Rebuild a trailing literal that shlex split on whitespace."""
    if not args:
        raise ParseError(f"usage: {usage}")
    return " ".join(args)


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror or exc}") from None


def _next_loop_name(session: Session) -> str:
    highest = 0
    for name in session.bindings:
        m = _LOOP_NAME_RE.fullmatch(name)
        if m:
            highest = max(highest, int(m.group(1)))
    return f"loop{highest + 1}"


def _drop_bindings(session: Session, kind: type | tuple[type, ...]) -> None:
    session.bindings = {
        name: value
        for name, value in session.bindings.items()
        if not isinstance(value, kind)
    }


# --- command handlers ------------------------------------------------------


def _cmd_gens(session: Session, args: list[str]) -> tuple[str, int]:
    if not args:
        raise ParseError("usage: gens <name> [<name> ...]")
    session.gens = words.GeneratorSet.of(*args)
    session.canon = frozenset()
    _drop_bindings(session, (words.SignedWord, trees.RootedPresentation))
    return "generators: " + " ".join(session.gens.names), 0


def _cmd_inv(session: Session, args: list[str]) -> tuple[str, int]:
    word = _resolve_word(session, _joined(args, "inv <word>"))
    return words.format_word(word.involution()), 0


def _cmd_class(session: Session, args: list[str]) -> tuple[str, int]:
    cls = words.class_of(
        _resolve_word(session, _joined(args, "class <word>")), session.canon
    )
    return (
        f"canonical: {words.format_word(cls.canonical)}\n"
        f"anti: {words.format_word(cls.anti)}\n"
        f"degenerate: {'true' if cls.is_degenerate else 'false'}"
    ), 0


def _cmd_pair(session: Session, args: list[str]) -> tuple[str, int]:
    _arity(args, 3, "pair <st> <word> <word> (quote multi-letter words)")
    sigma, tau = words.parse_sign_pair(args[0])
    a = words.class_of(_resolve_word(session, args[1]), session.canon)
    b = words.class_of(_resolve_word(session, args[2]), session.canon)
    return words.format_word(words.pair(a, sigma, tau, b)), 0


def _cmd_eval(session: Session, args: list[str]) -> tuple[str, int]:
    gens = _require_gens(session)
    rooted = _resolve_tree(session, _joined(args, "eval <tree>"))
    return words.format_word(trees.eval_tree(rooted, gens)), 0


def _cmd_word2tree(session: Session, args: list[str]) -> tuple[str, int]:
    gens = _require_gens(session)
    word = _resolve_word(session, _joined(args, "word2tree <word>"))
    return trees.format_tree(trees.word_to_tree(word), gens), 0


def _cmd_orbit(session: Session, args: list[str]) -> tuple[str, int]:
    pos, opts = _positionals(args, ("cap",))
    gens = _require_gens(session)
    cap = _int_option(opts, "cap", trees.DEFAULT_CLOSURE_CAP)
    rooted = _resolve_tree(session, _joined(pos, "orbit <tree> [--cap K]"))
    orbit = trees.move_closure(rooted, cap)
    literals = sorted(trees.format_tree(member, gens) for member in orbit)
    return "\n".join([f"orbit size: {len(orbit)}"] + literals), 0


def _cmd_ms(session: Session, args: list[str]) -> tuple[str, int]:
    gens = _require_gens(session)
    ms = abelian.multiset_quotient(
        _resolve_word(session, _joined(args, "ms <word>"))
    )
    return abelian.format_multiset(ms, gens), 0


def _cmd_ab(session: Session, args: list[str]) -> tuple[str, int]:
    vec = abelian.abelianize(_resolve_word(session, _joined(args, "ab <word>")))
    return abelian.format_vector(vec), 0


def _cmd_coset(session: Session, args: list[str]) -> tuple[str, int]:
    vector = abelian.parse_vector(_joined(args, "coset <vector>"))
    if session.lattice is not None:  # else the free lattice, which reduces nothing
        vector = session.lattice.reduce(vector)
    return abelian.format_vector(vector), 0


def _cmd_lattice(session: Session, args: list[str]) -> tuple[str, int]:
    if len(args) != 2 or args[0] != "load":
        raise ParseError("usage: lattice load <file>")
    lattice = abelian.parse_lattice(_read_file(args[1]))
    session.lattice = lattice
    return f"lattice: {len(lattice.rows)} row(s), dimension {lattice.dim}", 0


def _cmd_plane(session: Session, args: list[str]) -> tuple[str, int]:
    if len(args) != 2 or args[0] != "load":
        raise ParseError("usage: plane load <file>")
    plane, loops = planes.parse_plane_file(_read_file(args[1]))
    session.plane = plane
    _drop_bindings(session, planes.FlaggedLoop)
    lines = [f"plane: {len(plane.punctures)} puncture(s)"]
    for loop in loops:
        name = _next_loop_name(session)
        session.bindings[name] = loop
        lines.append(f"{name} = {planes.format_loop_literal(loop)}")
    return "\n".join(lines), 0


def _cmd_wind(session: Session, args: list[str]) -> tuple[str, int]:
    _arity(args, 1, "wind <loopname>")
    plane = _require_plane(session)
    loop = _resolve_loop(session, args[0])
    return abelian.format_vector(planes.winding_profile(loop, plane)), 0


def _cmd_fgword(session: Session, args: list[str]) -> tuple[str, int]:
    _arity(args, 1, "fgword <loopname>")
    plane = _require_plane(session)
    loop = _resolve_loop(session, args[0])
    return planes.format_free_word(planes.crossing_word(loop, plane)), 0


def _cmd_sum(session: Session, args: list[str]) -> tuple[str, int]:
    pos, opts = _positionals(args, ("base",))
    _arity(pos, 3, "sum <st> <loop1> <loop2> --base (x,y)")
    if "base" not in opts:
        raise ParseError("missing required option --base")
    sigma, tau = words.parse_sign_pair(pos[0])
    plane = _require_plane(session)
    l1 = _resolve_loop(session, pos[1])
    l2 = _resolve_loop(session, pos[2])
    base = planes.parse_point(opts["base"])
    result = planes.connected_sum(l1, sigma, tau, l2, base, plane)
    name = _next_loop_name(session)
    session.bindings[name] = result
    return f"{name} = {planes.format_loop_literal(result)}", 0


def _cmd_oracle(session: Session, args: list[str]) -> tuple[str, int]:
    if not args or args[0] != "sweep":
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


def _cmd_check(session: Session, args: list[str]) -> tuple[str, int]:
    _arity(args, 1, "check <suite|all>")
    if args[0] == "all":
        names = list(suites.SUITES)
    elif args[0] in suites.SUITES:
        names = [args[0]]
    else:
        raise ParseError(
            f"unknown suite {args[0]!r}",
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


def _cmd_save(session: Session, args: list[str]) -> tuple[str, int]:
    _arity(args, 1, "save <file>")
    try:
        Path(args[0]).write_text(_session_text(session), encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot write {args[0]}: {exc.strerror or exc}") from None
    return f"saved {args[0]}", 0


def _cmd_load(session: Session, args: list[str]) -> tuple[str, int]:
    _arity(args, 1, "load <file>")
    loaded = _parse_session_text(_read_file(args[0]))
    session.gens = loaded.gens
    session.canon = loaded.canon
    session.lattice = loaded.lattice
    session.plane = loaded.plane
    session.bindings = loaded.bindings
    return f"loaded {args[0]}", 0


_HANDLERS: dict[str, Callable[[Session, list[str]], tuple[str, int]]] = {
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
    """Execute one command; returns (session, stdout text, stderr text, code)."""
    if not argv:
        return session, None, None, 0
    try:
        handler = _HANDLERS.get(argv[0])
        if handler is None:
            raise ParseError(
                f"unknown command {argv[0]!r}",
                expected=tuple(sorted(_HANDLERS)),
            )
        text, code = handler(session, argv[1:])
        return session, text, None, code
    except ParseError as exc:
        return session, None, str(exc), 2
    except FlagcalcError as exc:
        return session, None, str(exc), 1
    except RecursionError:
        # ``orbit`` rewrites trees recursively, one frame per level, and
        # ``move_closure`` refuses a tree nested past the recursion limit.
        return session, None, "input nested too deeply for this command", 1


# --- session files ---------------------------------------------------------


def _session_text(session: Session) -> str:
    lines: list[str] = []
    if session.gens is not None:
        lines.append("gens " + " ".join(session.gens.names))
    if session.canon:
        lines.append("policy explicit")
        choices = sorted(words.format_word(choice) for choice in session.canon)
        lines.extend(f"canon {choice}".rstrip() for choice in choices)
    else:
        lines.append("policy lex")
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
    policy_mode: str | None = None
    canon: set[words.SignedWord] = set()
    seen: set[str] = set()
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        lineno = i + 1
        line = lines[i].split("#", 1)[0].strip()
        i += 1
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head in ("gens", "policy", "lattice", "punctures:"):
            # At most once each: a second one could break the bindings read
            # under the first.
            if head in seen:
                raise ParseError(f"duplicate {head!r} line", line=lineno)
            seen.add(head)
        try:
            if head == "gens":
                session.gens = words.GeneratorSet.of(*rest.split())
            elif head == "policy":
                if rest not in ("lex", "explicit"):
                    raise ParseError(
                        f"unknown policy {rest!r}",
                        line=lineno,
                        expected=("lex", "explicit"),
                    )
                policy_mode = rest
            elif head == "canon":
                gens = session.gens
                if gens is None:
                    raise DomainError("'canon' line before any 'gens' line")
                canon.add(words.parse_word(rest, gens, line=lineno))
            elif head == "lattice":
                # The header's fields, after "lattice", with their columns.
                fields = list(re.finditer(r"\S+", lines[lineno - 1].split("#", 1)[0]))[1:]
                if len(fields) != 2:
                    raise ParseError(
                        "lattice header needs row count and dimension", line=lineno
                    )
                header = []
                for match in fields:
                    try:
                        header.append(int(match.group()))
                    except ValueError:
                        raise ParseError(
                            f"bad integer {match.group()!r} in lattice header",
                            line=lineno,
                            column=match.start() + 1,
                            expected=("integer",),
                        ) from None
                n_rows, dim = header
                if n_rows < 0:
                    raise ParseError(
                        f"negative lattice row count {n_rows}", line=lineno
                    )
                rows = []
                for _ in range(n_rows):
                    if i >= len(lines):
                        raise ParseError(
                            "lattice header promises more rows than the file has",
                            line=lineno,
                        )
                    row = abelian.parse_lattice_row(lines[i], line=i + 1)
                    i += 1
                    if len(row) != dim:
                        message = f"lattice row {tuple(row)!r} does not have dimension {dim}"
                        raise ParseError(message, line=i)
                    rows.append(row)
                session.lattice = abelian.RelationLattice.from_rows(rows, dim=dim)
            elif head == "punctures:":
                session.plane = planes.parse_punctures_line(line, line=lineno)
            elif head == "bind":
                parts = rest.split(None, 2)
                if len(parts) < 2:
                    raise ParseError(
                        "usage: bind <name> <word|tree|loop> <literal>", line=lineno
                    )
                name, kind = parts[0], parts[1]
                payload = parts[2] if len(parts) > 2 else ""
                if not _NAME_RE.fullmatch(name):
                    raise ParseError(f"bad binding name {name!r}", line=lineno)
                if name in session.bindings:
                    raise ParseError(f"duplicate binding name {name!r}", line=lineno)
                if kind in ("word", "tree"):
                    gens = session.gens
                    if gens is None:
                        raise DomainError(f"{kind} binding before any 'gens' line")
                    parse = words.parse_word if kind == "word" else trees.parse_tree
                    session.bindings[name] = parse(payload, gens, line=lineno)
                elif kind == "loop":
                    if session.plane is None:
                        raise DomainError("loop binding before any 'punctures:' line")
                    session.bindings[name] = planes.parse_loop_in(
                        f"loop {payload}", session.plane, line=lineno
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
                    expected=("gens", "policy", "canon", "lattice", "punctures:", "bind"),
                )
        except DomainError as exc:
            raise ParseError(str(exc), line=lineno) from None
    if policy_mode == "explicit":
        session.canon = frozenset(canon)
    elif canon:
        raise ParseError("'canon' lines require 'policy explicit'")
    return session


# --- entry point -----------------------------------------------------------


def _run_line(session: Session, line: str, out: TextIO, err: TextIO) -> int:
    try:
        argv = shlex.split(line, comments=True)
    except ValueError as exc:
        print(f"error: 1:1: {exc}", file=err)
        return 2
    _, out_text, err_text, code = run_command(session, argv)
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
    first failing command.
    """
    session = session if session is not None else Session()
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    exit_code = 0
    for line in text.splitlines():
        code = _run_line(session, line, out, err)
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
        return _run_line(session, ns.command, sys.stdout, sys.stderr)
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
