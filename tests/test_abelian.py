import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import flagcalc
from flagcalc.abelian import (
    RelationLattice,
    abelianize,
    format_lattice,
    format_multiset,
    format_vector,
    multiset_quotient,
    parse_lattice,
    parse_vector,
)
from flagcalc.errors import DomainError, ParseError
from flagcalc.suites import _exact_member
from flagcalc.words import GeneratorSet, SignedWord, parse_word

GENS = GeneratorSet.of("a", "b")


def w(text: str) -> SignedWord:
    return parse_word(text, GENS)


signed_words = st.builds(
    lambda codes: SignedWord(GENS, codes), st.lists(st.integers(0, 3), max_size=6)
)
vectors3 = st.tuples(*[st.integers(min_value=-9, max_value=9)] * 3)


def add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


class TestMultisetQuotient:
    def test_counts_example(self):
        ms = multiset_quotient(w("a+ b- a+"))
        assert ms == (2, 0, 0, 1)
        assert format_multiset(ms, GENS) == "{a+:2, a-:0, b+:0, b-:1}"

    def test_empty_word(self):
        assert multiset_quotient(w("")) == (0, 0, 0, 0)

    @pytest.mark.parametrize("counts", [(2, 0), (2, 0, 0, 1, 0)])
    def test_format_rejects_a_count_per_generator_mismatch(self, counts):
        with pytest.raises(DomainError, match="does not match generator set"):
            format_multiset(counts, GENS)

    @given(signed_words, signed_words)
    def test_additive_under_concat(self, u, v):
        assert multiset_quotient(u.concat(v)) == add(
            multiset_quotient(u), multiset_quotient(v)
        )


class TestAbelianize:
    def test_difference_example(self):
        assert abelianize(w("a+ b- a+")) == (2, -1)
        assert format_vector(abelianize(w("a+ b- a+"))) == "(2, -1)"

    @given(signed_words, signed_words)
    def test_additive_under_concat(self, u, v):
        assert abelianize(u.concat(v)) == add(abelianize(u), abelianize(v))

    @given(signed_words)
    def test_negates_under_involution(self, word):
        assert abelianize(word.involution()) == tuple(-c for c in abelianize(word))

    @given(signed_words)
    def test_factors_through_the_multiset(self, word):
        ms = multiset_quotient(word)
        assert tuple(p - m for p, m in zip(ms[0::2], ms[1::2])) == abelianize(word)

    @given(signed_words)
    def test_kills_word_times_involution(self, word):
        doubled = word.concat(word.involution())
        assert abelianize(doubled) == (0, 0)
        if len(word) > 0:
            assert len(doubled) > 0


class TestAbelianVector:
    """Vectors are plain int tuples; text enters through ``parse_vector``."""

    def test_parse_format_round_trip(self):
        for text, vec in [("(2, -1)", (2, -1)), ("(0, 0, 5)", (0, 0, 5)), ("(7)", (7,))]:
            assert parse_vector(text) == vec
            assert format_vector(vec) == text

    @pytest.mark.parametrize(
        "text, column",
        [
            pytest.param(text, column, id=text)
            for text, column in [
                ("()", 2), ("2, -1", 1), ("(2; 1)", 2), ("(a, b)", 2), ("  (1, x)", 7), ("  ( )", 4)
            ]
        ],
    )
    def test_parse_rejects_malformed(self, text, column):
        # The column counts in ``text``, leading spaces included.
        with pytest.raises(ParseError) as info:
            parse_vector(text)
        assert str(info.value).startswith(f"1:{column}: ")


# Lattices up to 6x6 with entries in [-9, 9].
LATTICE_ROWS = st.integers(1, 6).flatmap(
    lambda dim: st.lists(
        st.lists(st.integers(-9, 9), min_size=dim, max_size=dim), min_size=1, max_size=6
    )
)


class TestRelationLattice:
    @pytest.mark.parametrize(
        "rows, dim",
        [(((0.5, 0),), 2), (((1, "0"),), 2), (((True, 0),), 2), ((), 2.5), ((), "2")],
    )
    def test_constructor_refuses_entries_and_dims_that_are_not_ints(self, rows, dim):
        with pytest.raises(DomainError, match="not an int|must be an int"):
            RelationLattice(rows, dim)

    @pytest.mark.parametrize("row", [[0.5, 0], [1.0, 0], [1, "0"]])
    def test_from_rows_refuses_entries_that_are_not_ints(self, row):
        with pytest.raises(DomainError, match="has an entry that is not an int"):
            RelationLattice.from_rows([row])

    def test_rows_of_another_dimension_are_refused(self):
        with pytest.raises(DomainError, match="does not have dimension 2"):
            RelationLattice(((1, 2), (1,)), 2)
        with pytest.raises(DomainError, match="cannot infer dimension"):
            RelationLattice.from_rows([])

    def test_free_lattice_reduces_nothing(self):
        free = RelationLattice((), 2)
        assert free.reduce((4, -7)) == (4, -7)
        assert not free.contains((1, 0))
        assert free.contains((0, 0))

    def test_single_even_relation(self):
        lat = RelationLattice.from_rows([[2, 0]])
        assert lat.reduce((4, 0)) == (0, 0)
        assert lat.reduce((3, 0)) == (1, 0)
        assert lat.reduce((-1, 0)) == (1, 0)
        assert lat.reduce((0, 5)) == (0, 5)
        assert lat.contains((4, 0))
        assert not lat.contains((3, 0))
        assert not lat.contains((0, 1))

    def test_echelon_basis_from_redundant_rows(self):
        assert RelationLattice.from_rows([[2, 4], [3, 6]]).basis == ((1, 2),)

    def test_echelon_basis_can_fill_the_space(self):
        lat = RelationLattice.from_rows([[2, 0], [0, 3], [1, 1]])
        assert lat.basis == ((1, 0), (0, 1))
        assert lat.reduce((9, -5)) == (0, 0)

    def test_echelon_basis_reduces_above_pivots(self):
        lat = RelationLattice.from_rows([[2, 1], [0, 4]])
        assert lat.basis == ((2, 1), (0, 4))
        assert lat.reduce((3, 7)) == (1, 2)
        assert lat.contains((2, 5))
        assert not lat.contains((1, 0))

    def test_zero_rows_are_dropped(self):
        lat = RelationLattice.from_rows([[0, 0]], dim=2)
        assert lat.basis == ()
        assert lat.reduce((3, 4)) == (3, 4)

    def test_equality_follows_the_lattice_not_its_rows(self):
        one = RelationLattice.from_rows([[2, 0]])
        two = RelationLattice.from_rows([[2, 0], [4, 0]])
        assert one.rows != two.rows and one.basis == two.basis == ((2, 0),)
        assert one == two and hash(one) == hash(two)
        assert one != RelationLattice.from_rows([[4, 0]])
        assert one != RelationLattice.from_rows([[2, 0, 0]])
        assert one != RelationLattice((), 2)
        assert one.reduce((3, 1)) == two.reduce((3, 1)) == (1, 1)

    def test_a_lattice_is_unequal_to_another_type(self):
        lat = RelationLattice.from_rows([[1]])
        assert lat.__eq__(1) is NotImplemented
        assert lat != 1 and not lat == 1

    def test_dimension_mismatch(self):
        lat = RelationLattice.from_rows([[2, 0]])
        with pytest.raises(DomainError):
            lat.reduce((1, 2, 3))

    @pytest.mark.parametrize("vec", [(3.5, 0), (2.0, 0), (True, 0)])
    def test_reduce_and_contains_refuse_entries_that_are_not_ints(self, vec):
        lat = RelationLattice.from_rows([[2, 0]])
        for method in (lat.reduce, lat.contains):
            with pytest.raises(DomainError, match="has an entry that is not an int"):
                method(vec)

    @given(LATTICE_ROWS)
    def test_echelon_basis_is_the_hermite_normal_form(self, rows):
        lat = RelationLattice.from_rows(rows)
        basis, pivots = lat._echelon
        assert list(pivots) == sorted(set(pivots))
        for k, (row, j) in enumerate(zip(basis, pivots)):
            assert row[:j] == (0,) * j and row[j] > 0
            assert all(0 <= above[j] < row[j] for above in basis[:k])
            assert _exact_member(rows, row)
        for row in rows:
            assert lat.reduce(tuple(row)) == (0,) * lat.dim

    def test_repeated_and_dependent_rows_change_no_basis(self):
        rows = [[2, 1, 0], [0, 3, 1], [1, 0, 5]]
        dependent = [[2, 1, 0], [2, 4, 1], [0, 0, 0], [-1, 3, -4], [2, 1, 0]]
        assert (
            RelationLattice.from_rows(rows + dependent).basis
            == RelationLattice.from_rows(rows).basis
        )

    @given(LATTICE_ROWS, st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=6))
    def test_rows_that_join_nothing_change_no_basis(self, rows, coefficients):
        # After each row: that row again, and a combination of it with the first.
        mixed = []
        for row, (c, d) in zip(rows, coefficients):
            mixed += [row, row, [c * x + d * y for x, y in zip(row, rows[0])]]
        assert RelationLattice.from_rows(mixed).basis == RelationLattice.from_rows(rows).basis

    def test_a_large_echelon_keeps_its_entries_small(self):
        # Entries left unreduced until every row has joined grow without bound
        # (a 40x40 lattice took minutes); the timeout fails a return of that.
        program = (
            "import random\n"
            "from flagcalc.abelian import RelationLattice\n"
            "rng = random.Random(514)\n"
            "rows = [[rng.randint(-9, 9) for _ in range(60)] for _ in range(60)]\n"
            "basis = RelationLattice.from_rows(rows).basis\n"
            "print(len(basis), max(abs(x) for row in basis for x in row).bit_length() < 400)\n"
        )
        package_root = str(Path(flagcalc.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", program],
            env={**os.environ, "PYTHONPATH": package_root},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "60 True\n", "")

    @given(vectors3)
    def test_reduce_is_idempotent(self, vec):
        lat = RelationLattice.from_rows([[2, 1, 0], [0, 3, 1]])
        reduced = lat.reduce(vec)
        assert lat.reduce(reduced) == reduced

    @given(vectors3)
    def test_reduce_is_shift_invariant(self, vec):
        rows = [[2, 1, 0], [0, 3, 1]]
        lat = RelationLattice.from_rows(rows)
        reduced = lat.reduce(vec)
        for row in rows:
            assert lat.reduce(add(vec, row)) == reduced

    @given(vectors3)
    def test_contains_iff_reduces_to_zero(self, vec):
        lat = RelationLattice.from_rows([[2, 1, 0], [0, 3, 1]])
        assert lat.contains(vec) == (lat.reduce(vec) == (0, 0, 0))


class TestCosetApi:
    def test_tower_image_runs_all_three_maps(self):
        word = w("a+ b- a+")
        assert multiset_quotient(word) == (2, 0, 0, 1)
        assert abelianize(word) == (2, -1)
        assert RelationLattice.from_rows([[2, 0]]).reduce(abelianize(word)) == (0, -1)

    @given(signed_words, signed_words)
    def test_diagram_commutes(self, u, v):
        """Abelianize-then-reduce commutes with concatenation."""
        lat = RelationLattice.from_rows([[2, 0]])
        via_concat = lat.reduce(abelianize(u.concat(v)))
        assert via_concat == lat.reduce(add(abelianize(u), abelianize(v)))


class TestLatticeText:
    def test_parse_with_comments_and_blanks(self):
        lat = parse_lattice("# rows\n\n2 0 0\n0 3 0\n")
        assert lat.dim == 3
        assert lat.rows == ((2, 0, 0), (0, 3, 0))

    def test_round_trip(self):
        lat = parse_lattice("2 0\n1 7\n")
        assert parse_lattice(format_lattice(lat)).rows == lat.rows

    def test_needs_a_row(self):
        with pytest.raises(ParseError):
            parse_lattice("# no rows\n")

    def test_inconsistent_row_lengths(self):
        with pytest.raises(ParseError):
            parse_lattice("1 2\n3\n")

    def test_non_integer_entry(self):
        with pytest.raises(ParseError):
            parse_lattice("1 x\n")
