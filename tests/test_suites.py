import importlib.util
import io
import re
from itertools import product
from pathlib import Path

import pytest

import flagcalc
from flagcalc import cli, plane
from flagcalc.abelian import RelationLattice
from flagcalc.errors import DomainError
from flagcalc.plane import Point, PuncturedPlane
from flagcalc.suites import _exact_member, verify_group_law


@pytest.mark.parametrize(
    "rows, vec, member",
    [
        ([[2, 0, 0], [4, 0, 0]], (2, 0, 0), True),
        ([[2, 0, 0], [4, 0, 0]], (1, 0, 0), False),
        ([[0, 0, 0]], (0, 0, 0), True),
        ([[0, 0, 0]], (1, 0, 0), False),
    ],
)
def test_exact_member_decides_dependent_and_zero_rows(rows, vec, member):
    assert _exact_member(rows, vec) is member


def test_exact_member_agrees_with_the_lattice_when_a_row_is_a_sum():
    rows = [[2, 1, 0], [0, 3, 1], [2, 4, 1]]
    lattice = RelationLattice.from_rows(rows)
    for vec in product(range(-3, 4), repeat=3):
        assert _exact_member(rows, vec) == lattice.contains(vec), vec


ONE_PUNCTURE = PuncturedPlane((Point.of(0, 0),))
LAWS = ("addition", "identity", "inverse", "associativity")


def script_output(text: str) -> tuple[str, int]:
    out = io.StringIO()
    code = cli.run_script(text, out=out, err=io.StringIO())
    return out.getvalue(), code


class TestGroupLawOracle:
    def test_passes_on_seeded_sweep(self):
        laws = verify_group_law(ONE_PUNCTURE, samples=10, seed=6)
        assert [law.name for law in laws] == list(LAWS)
        assert [law.checks for law in laws] == [10, 20, 10, 10]
        assert all(law.passed and not law.failures for law in laws)

    def test_requires_one_puncture(self):
        two = PuncturedPlane((Point.of(0, 0), Point.of(10, 0)))
        with pytest.raises(DomainError):
            verify_group_law(two, samples=5, seed=0)

    def test_requires_a_sample(self):
        with pytest.raises(DomainError):
            verify_group_law(ONE_PUNCTURE, samples=0, seed=0)

    def test_reports_failing_laws(self, monkeypatch):
        # Every loop and every sum winds once: sums stop adding and self-sums
        # stop cancelling, while the unit and the bracketings still agree.
        monkeypatch.setattr(plane, "winding_number", lambda loop, puncture: 1)
        out, code = script_output("oracle sweep --samples 3 --seed 1\n")
        lines = out.splitlines()
        assert code == 1
        assert lines[:5] == [
            "oracle sweep: samples=3 seed=1",
            "addition: FAIL (3 cases)",
            "identity: PASS (6 cases)",
            "inverse: FAIL (3 cases)",
            "associativity: PASS (3 cases)",
        ]
        # Six failures, law by law; the first five are printed.
        assert lines[5:] == [
            "  addition: loops 0,1: 1 != 1+1",
            "  addition: loops 1,2: 1 != 1+1",
            "  addition: loops 2,3: 1 != 1+1",
            "  inverse: loop 0: self-sum wound 1 != 0",
            "  inverse: loop 1: self-sum wound 1 != 0",
            "result: FAIL",
        ]

        out, code = script_output("check oracle\n")
        lines = out.splitlines()
        assert code == 1
        assert re.fullmatch(r"oracle: FAIL \(\d+ failures / 650 checks\)", lines[0])
        assert lines[1:] == [
            "  group law [addition]: loops 0,1: 1 != 1+1",
            "  group law [addition]: loops 1,2: 1 != 1+1",
            "  group law [addition]: loops 2,3: 1 != 1+1",
            "some checks failed",
        ]


def test_tracer_hooks_count_the_sweep_sums():
    path = Path(__file__).resolve().parent.parent / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    original = plane.connected_sum
    tracer = layers.Tracer(flagcalc)
    tracer.install()
    try:
        out, code = script_output("oracle sweep --samples 3 --seed 1\n")
        assert code == 0, out
        assert tracer.counters["plane.sum_calls"] == 18
        assert tracer.counters["plane.base_retries"] == 0
    finally:
        tracer.uninstall()
    assert plane.connected_sum is original
