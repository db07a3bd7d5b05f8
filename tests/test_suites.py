import importlib.util
import io
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import flagcalc
from flagcalc import cli, plane, trees, words
from flagcalc.abelian import RelationLattice
from flagcalc.errors import DomainError
from flagcalc.plane import Point, PuncturedPlane, winding_profile
from flagcalc.suites import (
    SuiteResult,
    _contractible_square,
    _exact_member,
    monoid_suite,
    trees_suite,
    verify_group_law,
)


def test_tick_formats_only_failures():
    result = SuiteResult("x")
    result.tick(True, "%d is never formatted", "not a number")
    result.tick(False, "fiber of %r split", (1,))
    result.tick(False, "100% plain")
    assert result.checks == 3
    assert result.failures == ["fiber of (1,) split", "100% plain"]


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


def _flip_mismatches(result: SuiteResult) -> int:
    return sum(detail.startswith("flip mismatch") for detail in result.failures)


def test_trees_suite_catches_an_eval_that_negates_deep_taus(monkeypatch):
    def eval_negating_deep_taus(tree, sign):
        """``_eval_codes`` with ``tau`` negated on every node at depth 2 or more."""

        def form(tree, sign, depth):
            if type(tree) is trees.Leaf:
                return [2 * tree.gen + (sign < 0)]
            sigma, tau, left, right = tree
            if depth >= 2:
                tau = -tau
            if sign > 0:
                return form(left, sigma, depth + 1) + form(right, -tau, depth + 1)
            return form(right, tau, depth + 1) + form(left, -sigma, depth + 1)

        return tuple(form(tree, sign, 0))

    monkeypatch.setattr(trees, "_eval_codes", eval_negating_deep_taus)
    result = trees_suite()
    assert len(result.failures) == 120_420
    assert _flip_mismatches(result) == 118_784


def test_trees_suite_catches_a_flip_that_keeps_the_signs(monkeypatch):
    def flip_children_only(node):
        sigma, tau, left, right = node
        return trees.Node(sigma, tau, right, left)

    monkeypatch.setattr(trees, "flip", flip_children_only)
    result = trees_suite()
    assert len(result.failures) == 60_206
    assert _flip_mismatches(result) == 60_008


def test_monoid_suite_catches_a_concat_that_cancels(monkeypatch):
    # With free reduction, w * involution(w) is the empty word: the group,
    # which the signed-word monoid is not.  Its abelian image stays zero.
    concat = words.SignedWord.concat
    monkeypatch.setattr(
        words.SignedWord, "concat", lambda self, other: words.free_reduce(concat(self, other))
    )
    result = monoid_suite()
    assert (result.passed, result.checks, len(result.failures)) == (False, 516, 258)
    assert all(f.endswith(" cancelled against its involution") for f in result.failures)


ONE_PUNCTURE = PuncturedPlane((Point.of(0, 0),))
TWO_PUNCTURES = PuncturedPlane((Point.of(0, 0), Point.of(10, 0)))
THREE_PUNCTURES = PuncturedPlane(
    (Point.of(0, 0), Point.of(10, Fraction(1, 3)), Point.of(-10, Fraction(-2, 7)))
)
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

    @pytest.mark.parametrize(
        "punctured", [TWO_PUNCTURES, THREE_PUNCTURES], ids=["two", "three"]
    )
    def test_passes_on_several_punctures(self, punctured):
        laws = verify_group_law(punctured, samples=20, seed=514)
        assert [law.checks for law in laws] == [20, 40, 20, 20]
        assert all(law.passed for law in laws), [law.failures[:3] for law in laws]

    def test_unit_square_winds_zero_below_every_puncture(self):
        for punctured in (ONE_PUNCTURE, TWO_PUNCTURES, THREE_PUNCTURES):
            unit = _contractible_square(punctured)
            assert winding_profile(unit, punctured) == (0,) * len(punctured.punctures)
        corners = _contractible_square(THREE_PUNCTURES).vertices
        assert corners[0] == Point.of(17, Fraction(-58, 7))
        assert _contractible_square(ONE_PUNCTURE).vertices[0] == Point.of(7, -8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_passes_on_one_sample(self, seed):
        laws = verify_group_law(plane.ORIGIN_PLANE, samples=1, seed=seed)
        assert [law.checks for law in laws] == [1, 2, 1, 1]
        assert all(law.passed for law in laws)

    def test_requires_a_sample(self):
        with pytest.raises(DomainError):
            verify_group_law(ONE_PUNCTURE, samples=0, seed=0)

    @pytest.mark.parametrize("samples, seed", [(3, 1), (10, 5)])
    def test_reroutes_each_loop_once(self, monkeypatch, samples, seed):
        # The sampled loops and the unit square each search for one corridor;
        # the sums come out flagged at the base and need none.
        searches = []
        search = plane._detour_point

        def counted(*args):
            searches.append(args)
            return search(*args)

        monkeypatch.setattr(plane, "_detour_point", counted)
        laws = verify_group_law(plane.ORIGIN_PLANE, samples, seed)
        assert all(law.passed for law in laws)
        assert len(searches) == samples + 1

    def test_reports_failing_laws(self, monkeypatch):
        # Every loop and every sum winds once: sums stop adding and self-sums
        # stop cancelling, while the unit and the bracketings still agree.
        monkeypatch.setattr(
            plane, "winding_profile", lambda loop, punctured: (1,) * len(punctured.punctures)
        )
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
            "  addition: loops 0,1: (1) != (2)",
            "  addition: loops 1,2: (1) != (2)",
            "  addition: loops 2,0: (1) != (2)",
            "  inverse: loop 0 self-sum: (1) != (0)",
            "  inverse: loop 1 self-sum: (1) != (0)",
            "result: FAIL",
        ]

        # On two punctures a profile has two entries.
        loops_plane = Path(__file__).parent / "data" / "loops.plane"
        out, code = script_output(
            f"plane load {loops_plane}\noracle sweep --samples 3 --seed 1\n"
        )
        assert code == 1
        assert "  addition: loops 0,1: (1, 1) != (2, 2)" in out.splitlines()

        out, code = script_output("check oracle\n")
        lines = out.splitlines()
        assert code == 1
        assert re.fullmatch(r"oracle: FAIL \(\d+ failures / 900 checks\)", lines[0])
        assert lines[1:] == [
            "  group law [addition]: loops 0,1: (1) != (2)",
            "  group law [addition]: loops 1,2: (1) != (2)",
            "  group law [addition]: loops 2,3: (1) != (2)",
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
