import pytest
from hypothesis import given
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("text", ["()", "2, -1", "(2; 1)", "(a, b)"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_vector(text)


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

    def test_dimension_mismatch(self):
        lat = RelationLattice.from_rows([[2, 0]])
        with pytest.raises(DomainError):
            lat.reduce((1, 2, 3))

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
