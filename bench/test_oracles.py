"""The benchmark's oracles against cases worked out by hand.

Run from the repository root:

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import tempfile
import unittest
from pathlib import Path

import oracles as o
import workloads

GENS = ["a", "b", "c"]


class WordOracles(unittest.TestCase):
    def test_involution_reverses_and_flips(self) -> None:
        self.assertEqual(o.format_word(o.involution(o.parse_word("a+ b- c+"))), "c- b+ a-")

    def test_class_picks_the_lex_least_member(self) -> None:
        self.assertEqual(
            o.class_lines(o.parse_word("b- a-"), GENS),
            "canonical: a+ b+\nanti: b- a-\ndegenerate: false",
        )

    def test_plus_sorts_before_minus_and_prefix_first(self) -> None:
        # a- b+ against its involution b- a+: the first letters decide.
        self.assertEqual(o.format_word(o.canonical(o.parse_word("b- a+"), GENS)), "a- b+")
        # a- against a+: same generator, + first.
        self.assertEqual(o.format_word(o.canonical(o.parse_word("a-"), GENS)), "a+")
        # a+ b- against its involution b+ a-: a before b.
        self.assertEqual(o.format_word(o.canonical(o.parse_word("b+ a-"), GENS)), "a+ b-")

    def test_degenerate_class(self) -> None:
        self.assertEqual(
            o.class_lines(o.parse_word("a+ a-"), GENS),
            "canonical: a+ a-\nanti: a+ a-\ndegenerate: true",
        )

    def test_pair_all_four_sign_pairs(self) -> None:
        a, b = o.parse_word("a+"), o.parse_word("b+")
        cases = {"+-": "a+ b+", "++": "a+ b-", "-+": "a- b-", "--": "a- b+"}
        for st, expected in cases.items():
            self.assertEqual(o.format_word(o.pair(st, a, b, GENS)), expected, st)

    def test_pair_uses_canonical_members(self) -> None:
        # b- a- is presented by its canonical member a+ b+ at sign +.
        u, v = o.parse_word("b- a-"), o.parse_word("c-")
        self.assertEqual(o.format_word(o.pair("+-", u, v, GENS)), "a+ b+ c+")

    def test_multiset_and_abelian_vector(self) -> None:
        word = o.parse_word("a+ b- a+")
        self.assertEqual(o.multiset_text(word, GENS), "{a+:2, a-:0, b+:0, b-:1, c+:0, c-:0}")
        self.assertEqual(o.abelian_text(word, GENS), "(2, -1, 0)")


class TreeOracles(unittest.TestCase):
    def test_left_comb_literals(self) -> None:
        cases = {
            "a-": "[- leaf:a]",
            "a- b+": "[+ (pair -- leaf:a leaf:b)]",
            "a+ b+ c+": "[+ (pair +- (pair +- leaf:a leaf:b) leaf:c)]",
            "a+ b- c-": "[+ (pair ++ (pair ++ leaf:a leaf:b) leaf:c)]",
        }
        for word, literal in cases.items():
            self.assertEqual(o.left_comb(o.parse_word(word)), literal, word)

    def test_eval_by_hand(self) -> None:
        cases = {
            "[+ (pair +- leaf:a leaf:b)]": "a+ b+",
            "[- (pair +- leaf:a leaf:b)]": "b- a-",
            "(pair ++ leaf:a leaf:b)": "a+ b-",
            "[+ (pair -+ (pair +- leaf:a leaf:b) leaf:c)]": "b- a- c-",
            "[- leaf:c]": "c-",
        }
        for literal, word in cases.items():
            self.assertEqual(o.format_word(o.eval_tree_literal(literal)), word, literal)

    def test_eval_inverts_left_comb_at_depth(self) -> None:
        word = [("abc"[i % 3], "+-"[i % 2]) for i in range(3000)]
        self.assertEqual(o.eval_tree_literal(o.left_comb(word)), word)


class LoopOracles(unittest.TestCase):
    PUNCTURES = "punctures: (0,0) (10,0)"

    def test_unit_square(self) -> None:
        square = "loop 0 F (1,-1) (1,1) (-1,1) (-1,-1)"
        self.assertEqual(o.winding_numbers(square, self.PUNCTURES), [1, 0])
        self.assertEqual(o.winding_numbers(square.replace(" F ", " B "), self.PUNCTURES), [-1, 0])

    def test_flag_does_not_change_winding(self) -> None:
        square = "loop 2 B (11,-1) (11,1) (9,1) (9,-1)"
        self.assertEqual(o.winding_numbers(square, self.PUNCTURES), [0, -1])

    def test_rational_vertices_and_two_laps(self) -> None:
        spiral = (
            "loop 3 F (1/2,-1/3) (1/2,1/3) (-1/2,1/3) (-1/2,-1/3)"
            " (3/2,-5/7) (3/2,5/7) (-3/2,5/7) (-3/2,-5/7)"
        )
        self.assertEqual(o.winding_numbers(spiral, self.PUNCTURES), [2, 0])

    def test_box_around_both(self) -> None:
        box = "loop 1 F (16,-6) (16,6) (-6,6) (-6,-6)"
        self.assertEqual(o.winding_numbers(box, self.PUNCTURES), [1, 1])

    def test_traversal_b_keeps_the_flag_first(self) -> None:
        walk = o.loop_walk("loop 1 B (0,0) (1,0) (1,1) (0,1)")
        # (1,0) first, then the rest backwards: (0,0) (0,1) (1,1).
        self.assertEqual(walk, [((1, 1), (0, 1)), ((0, 1), (0, 1)), ((0, 1), (1, 1)), ((1, 1), (1, 1))])

    def test_free_word_exponents(self) -> None:
        self.assertEqual(o.free_word_exponents("x1 x2^-1 x1", 2), [2, -1])
        self.assertEqual(o.free_word_exponents("", 2), [0, 0])
        self.assertIsNone(o.free_word_exponents("x1 x1^-1", 2))
        self.assertIsNone(o.free_word_exponents("x3", 2))


class LatticeOracles(unittest.TestCase):
    def test_triangular_membership(self) -> None:
        basis = [[2, 1], [0, 3]]
        self.assertTrue(o.triangular_member(basis, [4, 5]))  # 2*(2,1) + 1*(0,3)
        self.assertFalse(o.triangular_member(basis, [1, 0]))
        self.assertFalse(o.triangular_member(basis, [2, 2]))

    def test_hermite_form_and_coset(self) -> None:
        hermite = o.hermite_from_triangular([[2, 5], [0, -3]])
        self.assertEqual(hermite, [[2, 2], [0, 3]])
        self.assertEqual(o.coset_rep(hermite, [5, 7]), [1, 0])
        self.assertEqual(o.coset_rep(hermite, [-1, -1]), [1, 1])  # (-1,-1) + (2,2)
        self.assertEqual(o.coset_rep(hermite, [1, 0]), [1, 0])


class Workloads(unittest.TestCase):
    def test_suite_minimums(self) -> None:
        least = workloads.suite_minimums()
        self.assertEqual(least["involution"], 10575)
        self.assertEqual(least["laws"], 64)
        self.assertEqual(least["trees"], 120080 + 1364 + 1)
        self.assertEqual(least["assoc"], 27)
        self.assertEqual(least["monoid"], 516)
        self.assertEqual(least["oracle"], 550)

    def test_session_is_seeded_with_a_fixed_fault_count(self) -> None:
        plans, lines = [], []
        with tempfile.TemporaryDirectory() as tmp:
            for i, seed in enumerate((1, 1, 2)):
                workdir = Path(tmp) / str(i)
                workdir.mkdir()
                plans.append(workloads.session_plan(seed, workdir))
                lines.append([op.line.replace(str(workdir), "W") for op in plans[-1].ops])
        self.assertEqual(lines[0], lines[1])
        self.assertNotEqual(lines[0], lines[2])
        for plan in plans:
            faults = [op.fault for op in plan.ops if op.fault]
            self.assertEqual(faults.count(workloads.FAULT_SUM_SIGNS), 2 * workloads.SEGMENTS)
            self.assertEqual(faults.count(workloads.FAULT_DEEP_TREE), 1)
            self.assertEqual(len(plan.ops), len(plans[0].ops))


if __name__ == "__main__":
    unittest.main()
