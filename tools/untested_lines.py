"""List the lines of ``src/`` that no test runs.

Runs ``tests/`` and ``bench/test_oracles.py`` in this process under
``sys.settrace`` and prints, as ``path:line``, every executable line of
``src/`` (the line numbers of each code object's ``co_lines()``) that never
ran.  Exits 1 when the tests fail or when a line outside ``ALLOWED`` did not
run, and also when an ``ALLOWED`` line did run, so the list cannot go stale.

Usage, from the repository root::

    python tools/untested_lines.py

Standard library only, apart from pytest, which runs the tests.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Lines that run only in a subprocess, where the tracer does not follow:
# keyed by file name relative to src/, each a set of stripped source lines,
# or None for the whole file.
ALLOWED: dict[str, set[str] | None] = {
    # `python -m flagcalc`; the tests start it with subprocess.
    "flagcalc/__main__.py": None,
    "flagcalc/cli.py": {
        # main's stdin branch, run by piping a script into the console script.
        "text = sys.stdin.read()",
        # The module's own __main__ guard.
        "sys.exit(main())",
    },
}


def executable_lines(path: Path) -> set[int]:
    """Line numbers that carry bytecode, over every code object in ``path``."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        # Line 0 marks set-up code that no source line holds.
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_tests_traced(files: set[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run the tests; returns pytest's exit code and the ``(file, line)`` pairs that ran."""
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in files:
            return None
        ran.add((filename, frame.f_lineno))
        return local

    import pytest

    sys.path.insert(0, str(SRC))
    sys.settrace(tracer)
    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), str(ROOT / "bench/test_oracles.py")]
        )
    finally:
        sys.settrace(None)
    return int(status), ran


def main() -> int:
    paths = sorted(SRC.rglob("*.py"))
    status, ran = run_tests_traced({str(p) for p in paths})
    failed = status != 0
    for path in paths:
        name = path.relative_to(SRC).as_posix()
        source = path.read_text(encoding="utf-8").splitlines()
        allowed = ALLOWED.get(name, set())
        for line in sorted(executable_lines(path)):
            text = source[line - 1].strip()
            listed = allowed is None or text in allowed
            if (str(path), line) in ran:
                if listed:
                    print(f"src/{name}:{line}: ran, but is on the allow-list: {text}")
                    failed = True
            else:
                print(f"src/{name}:{line}: {'allowed' if listed else 'NOT RUN'}: {text}")
                failed = failed or not listed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
