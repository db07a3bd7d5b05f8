"""Benchmark harness for flagcalc: one process, one thread, standard library only.

Usage, from the repository root:

    python3 bench/run.py --workload check-all|oracle-sweep|session \
        --seed N --seconds S --trace 0|1

The harness imports the package from ``src/`` of the checkout it sits in and
drives it through ``cli.run_script``, one command line per call, with its own
stdout and stderr buffers.  Set-up (import, input generation, file writing)
runs once before the timed part and ten more times between its rounds; the
fastest is reported.  The timed part runs whole rounds of the workload's
operations until their summed time reaches ``--seconds``.  Every output is
checked against the oracles in ``oracles.py``.

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics.  With ``--trace 1`` the untraced part runs as well, then the same
number of rounds again under :class:`layers.Tracer`, and the JSON object holds
the per-layer metrics, per round.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import resource
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Callable

import layers
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
TAIL_MIN_OPS = 100  # p90 only where a run holds at least ten operations beyond it
COMMANDS = (
    "check", "oracle", "gens", "inv", "class", "pair", "ms", "ab", "coset",
    "wind", "fgword", "sum", "word2tree", "eval", "orbit", "lattice", "plane",
    "save", "load",
)


@dataclass
class Phase:
    rounds: int = 0
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    # times[i] holds op i's time in each round; a failed run counts as inf.
    times: list[list[float]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def note(self, problem: str) -> None:
        self.correct = False
        if len(self.problems) < 5:
            self.problems.append(problem)

    def op_times(self) -> list[float]:
        """Each operation's fastest time over the rounds (inf if it failed).

        The reference machine switches, for seconds to minutes at a time,
        between speeds up to 2x apart; the fastest of an operation's repeats
        reads the same speed in nearly every run, its median does not.
        """
        return [math.inf if math.inf in t else min(t) for t in self.times]


def import_package() -> ModuleType:
    """Import flagcalc afresh from ``src/``; any earlier import is dropped."""
    for name in [m for m in sys.modules if m == "flagcalc" or m.startswith("flagcalc.")]:
        del sys.modules[name]
    package = importlib.import_module("flagcalc")
    for layer in layers.LAYERS:
        importlib.import_module(f"flagcalc.{layer}")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported flagcalc from {package.__file__}, not {SRC}")
    return package


def run_phase(package: ModuleType, plan: workloads.Plan, seconds: float | None,
              rounds: int | None = None,
              after_round: Callable[[Phase], None] = lambda phase: None) -> Phase:
    """Run whole rounds until ``seconds`` of op time, or exactly ``rounds`` rounds."""
    cli = package.cli
    clock = time.perf_counter
    phase = Phase(times=[[] for _ in plan.ops])
    while (phase.rounds < rounds) if rounds is not None else (
        phase.rounds == 0 or phase.busy_s < seconds
    ):
        session = cli.Session()
        for op, times in zip(plan.ops, phase.times):
            if plan.session_per_op:
                session = cli.Session()
            out, err = io.StringIO(), io.StringIO()
            start = clock()
            try:
                code = cli.run_script(op.line, session, out, err)
            except Exception as exc:  # fault (b) escapes run_script
                code = type(exc).__name__
            elapsed = clock() - start
            phase.busy_s += elapsed
            phase.attempted += 1
            if code == 0 and not err.getvalue():
                if not op.check(out.getvalue()):
                    phase.note(f"wrong output for {op.line[:80]!r}: {out.getvalue()[:200]!r}")
            else:
                phase.failed += 1
                elapsed = math.inf
                if not op.fault:
                    phase.note(f"{op.line[:80]!r} failed ({code}): {err.getvalue()[:200]!r}")
            times.append(elapsed)
        for path in plan.written:
            path.unlink()
        phase.rounds += 1
        after_round(phase)
    return phase


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(phase: Phase, setups: list[float]) -> dict:
    op_times = phase.op_times()
    completed = [t for t in op_times if t != math.inf]
    p50 = percentile(op_times, 0.5)
    # check-all has one operation per round: no tail, the median stands in.
    p90 = percentile(op_times, 0.9) if len(op_times) >= TAIL_MIN_OPS else p50
    return {
        # A round's completed operations over the round's time, each
        # operation at its fastest.
        "ops_per_s": _metric(len(completed) / sum(completed), "1/s"),
        "op_p50_ms": _metric(p50 * 1e3, "ms"),
        "op_p90_ms": _metric(p90 * 1e3, "ms"),
        # Fastest set-up, for the reason op_times gives.
        "setup_s": _metric(min(setups), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


def per_layer(plan: workloads.Plan, untraced: Phase, traced: Phase,
              tracer: layers.Tracer) -> dict:
    """Counts per round; times are the fastest round's, as for operations."""
    rounds = traced.rounds

    def count(total: int) -> dict:
        return _metric(total // rounds if total % rounds == 0 else total / rounds, "count")

    metrics = {}
    for name, layer in tracer.layers.items():
        if name != "suites":
            metrics[f"{name}.calls"] = count(layer.calls)
        metrics[f"{name}.self_s"] = _metric(min(tracer.rounds[f"{name}.self_s"]), "s")
    for name in tracer.suite_s:
        metrics[f"suite.{name}_s"] = _metric(min(tracer.rounds[f"suite.{name}_s"]), "s")
    for name, value in tracer.counters.items():
        if name.endswith("_bits"):
            metrics[name] = _metric(value, "bits")
        else:
            metrics[name] = count(value)
    by_kind: dict[str, list[float]] = {}
    for op, seconds in zip(plan.ops, untraced.op_times()):
        by_kind.setdefault(op.kind, []).append(seconds)
    for kind in COMMANDS:
        times = by_kind.get(kind)
        metrics[f"cmd.{kind}.p50_ms"] = _metric(
            percentile(times, 0.5) * 1e3 if times else 0.0, "ms"
        )
    overhead = sum(
        traced_s - untraced_s
        for traced_s, untraced_s in zip(traced.op_times(), untraced.op_times())
        if untraced_s != math.inf
    )
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "flagcalc" / "__init__.py").is_file():
        print(f"error: no flagcalc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    make_plan = workloads.PLANS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        setups: list[float] = []

        def set_up() -> tuple[ModuleType, workloads.Plan]:
            start = time.perf_counter()
            package = import_package()
            workdir = Path(tmp) / f"setup{len(setups)}"
            workdir.mkdir()
            plan = make_plan(args.seed, workdir)
            setups.append(time.perf_counter() - start)
            return package, plan

        def set_up_when_due(phase: Phase) -> None:
            # Spread the repeats over the timed part, between rounds, so
            # that they meet the machine's fast moments as operations do.
            if len(setups) < SETUP_REPEATS and (
                phase.busy_s >= len(setups) * args.seconds / SETUP_REPEATS
            ):
                set_up()

        package, plan = set_up()
        untraced = run_phase(package, plan, args.seconds, after_round=set_up_when_due)
        while len(setups) < SETUP_REPEATS:
            set_up()
        confirmed = plan.confirm(package)
        if args.trace:
            tracer = layers.Tracer(package)
            tracer.install()
            try:
                traced = run_phase(package, plan, None, untraced.rounds,
                                   after_round=lambda phase: tracer.end_round())
            finally:
                tracer.uninstall()
            metrics = per_layer(plan, untraced, traced, tracer)
            correct = untraced.correct and traced.correct and confirmed
            problems = untraced.problems + traced.problems
        else:
            metrics = end_to_end(untraced, setups)
            correct = untraced.correct and confirmed
            problems = untraced.problems
    if not confirmed:
        problems.append("library sums failed the benchmark's winding check")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": untraced.attempted,
        "failed": untraced.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
