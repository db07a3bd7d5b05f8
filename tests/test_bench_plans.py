"""One round of each benchmark plan, in-process.

The session plan drives ``load``, ``save``, ``lattice load`` and ``plane
load``, and the check-all plan holds every suite's check count to the
benchmark's own minimums, so a benchmark operation that starts failing shows
here first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import flagcalc.cli  # run_phase calls it as ``package.cli``

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_run():
    with pytest.MonkeyPatch.context() as patch:
        # run.py imports its sibling modules by their bare names.
        patch.syspath_prepend(str(BENCH))
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        patch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
        spec.loader.exec_module(run)
        yield run


@pytest.mark.parametrize("workload", ["session", "oracle-sweep", "check-all"])
def test_one_round_is_correct(bench_run, tmp_path, workload):
    plan = bench_run.workloads.PLANS[workload](1, tmp_path)
    phase = bench_run.run_phase(flagcalc, plan, None, rounds=1)
    assert phase.correct, phase.problems
    assert phase.failed == 0
    assert plan.confirm(flagcalc)


def _patchable(package, layers):
    """What a tracer may replace: module callables, suite entries, lattice members."""
    found = {
        name: {k: v for k, v in vars(getattr(package, name)).items() if callable(v)}
        for name in layers.LAYERS
    }
    found["SUITES"] = dict(package.suites.SUITES)
    found["RelationLattice"] = dict(vars(package.abelian.RelationLattice))
    return found


@pytest.mark.parametrize("workload", ["session", "oracle-sweep"])
def test_one_traced_round_is_correct(bench_run, tmp_path, workload):
    layers = bench_run.layers
    plan = bench_run.workloads.PLANS[workload](1, tmp_path)
    before = _patchable(flagcalc, layers)
    tracer = layers.Tracer(flagcalc)
    tracer.install()
    try:
        phase = bench_run.run_phase(
            flagcalc, plan, None, rounds=1, after_round=lambda _: tracer.end_round()
        )
    finally:
        tracer.uninstall()
    assert phase.correct, phase.problems
    assert phase.failed == 0
    assert tracer.layers["cli"].calls > 0
    assert _patchable(flagcalc, layers) == before
