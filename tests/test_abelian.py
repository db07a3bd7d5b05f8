import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagcalc.abelian import (
    AbelianVector,
    RelationLattice,
    SignedMultiset,
    abelianize,
    diagram_check,
    difference_map,
    format_lattice,
    format_multiset,
    format_vector,
    multiset_quotient,
    parse_lattice,
    parse_vector,
    reduce_coset,
    tower_image,
)
from flagcalc.errors import DomainError, ParseError
from flagcalc.words import (
    MINUS,
    PLUS,
    GeneratorSet,
    SignedLetter,
    SignedWord,
    parse_word,
)

GENS = GeneratorSet.of("a", "b")


def w(text: str) -> SignedWord:
    return parse_word(text, GENS)


letters = st.builds(
    SignedLetter, st.integers(min_value=0, max_value=1), st.sampled_from((PLUS, MINUS))
)
signed_words = st.builds(
    lambda ls: SignedWord(GENS, tuple(ls)), st.lists(letters, max_size=6)
)
vectors3 = st.builds(
    lambda cs: AbelianVector(tuple(cs)),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
)


class TestMultisetQuotient:
    def test_counts_example(self):
        ms = multiset_quotient(w("a+ b- a+"))
        assert ms == SignedMultiset(plus=(2, 0), minus=(0, 1))
        assert format_multiset(ms, GENS) == "{a+:2, a-:0, b+:0, b-:1}"

    def test_empty_word(self):
        assert multiset_quotient(w("")) == SignedMultiset((0, 0), (0, 0))

    @given(signed_words, signed_words)
    def test_additive_under_concat(self, u, v):
        assert multiset_quotient(u.concat(v)) == multiset_quotient(
            u
        ) + multiset_quotient(v)


class TestAbelianize:
    def test_difference_example(self):
        assert abelianize(w("a+ b- a+")) == AbelianVector((2, -1))
        assert format_vector(abelianize(w("a+ b- a+")).coords) == "(2, -1)"

    @given(signed_words, signed_words)
    def test_additive_under_concat(self, u, v):
        assert abelianize(u.concat(v)) == abelianize(u) + abelianize(v)

    @given(signed_words)
    def test_negates_under_involution(self, word):
        assert abelianize(word.involution()) == -abelianize(word)

    @given(signed_words)
    def test_factors_through_the_multiset(self, word):
        assert difference_map(multiset_quotient(word)) == abelianize(word)

    @given(signed_words)
    def test_kills_word_times_involution(self, word):
        doubled = word.concat(word.involution())
        assert abelianize(doubled).is_zero
        if len(word) > 0:
            assert len(doubled) > 0


class TestAbelianVector:
    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            AbelianVector(())

    def test_addition_requires_same_dim(self):
        with pytest.raises(DomainError):
            AbelianVector((1,)) + AbelianVector((1, 2))

    def test_negation(self):
        assert -AbelianVector((2, -1)) == AbelianVector((-2, 1))

    def test_parse_format_round_trip(self):
        for text in ["(2, -1)", "(0, 0, 5)", "(7)"]:
            vec = parse_vector(text)
            assert parse_vector(format_vector(vec.coords)) == vec

    @pytest.mark.parametrize("text", ["()", "2, -1", "(2; 1)", "(a, b)"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_vector(text)


class TestRelationLattice:
    def test_free_lattice_reduces_nothing(self):
        free = RelationLattice.free(2)
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

    def test_dimension_mismatch(self):
        lat = RelationLattice.from_rows([[2, 0]])
        with pytest.raises(DomainError):
            lat.reduce((1, 2, 3))

    @given(vectors3)
    def test_reduce_is_idempotent(self, vec):
        lat = RelationLattice.from_rows([[2, 1, 0], [0, 3, 1]])
        reduced = lat.reduce(vec.coords)
        assert lat.reduce(reduced) == reduced

    @given(vectors3)
    def test_reduce_is_shift_invariant(self, vec):
        rows = [[2, 1, 0], [0, 3, 1]]
        lat = RelationLattice.from_rows(rows)
        reduced = lat.reduce(vec.coords)
        for row in rows:
            shifted = tuple(a + b for a, b in zip(vec.coords, row))
            assert lat.reduce(shifted) == reduced

    @given(vectors3)
    def test_contains_iff_reduces_to_zero(self, vec):
        lat = RelationLattice.from_rows([[2, 1, 0], [0, 3, 1]])
        assert lat.contains(vec.coords) == (lat.reduce(vec.coords) == (0, 0, 0))


class TestCosetApi:
    def test_reduce_coset_wraps_the_lattice(self):
        lat = RelationLattice.from_rows([[2, 0]])
        cls = reduce_coset(AbelianVector((4, 0)), lat)
        assert cls.rep == AbelianVector((0, 0))
        assert cls.is_zero
        assert not reduce_coset(AbelianVector((3, 0)), lat).is_zero

    def test_tower_image_runs_all_three_maps(self):
        lat = RelationLattice.from_rows([[2, 0]])
        ms, vec, cls = tower_image(w("a+ b- a+"), lat)
        assert ms == SignedMultiset(plus=(2, 0), minus=(0, 1))
        assert vec == AbelianVector((2, -1))
        assert cls.rep == AbelianVector((0, -1))

    @given(signed_words, signed_words)
    def test_diagram_commutes(self, u, v):
        lat = RelationLattice.from_rows([[2, 0]])
        assert diagram_check(u, v, lat)


class TestLatticeText:
    def test_parse_with_comments_and_blanks(self):
        lat = parse_lattice("# rows\n\n2 0 0\n0 3 0\n")
        assert lat.dim == 3
        assert lat.rows == ((2, 0, 0), (0, 3, 0))

    def test_round_trip(self):
        lat = parse_lattice("2 0\n1 7\n")
        assert parse_lattice(format_lattice(lat)) == lat

    def test_empty_text_needs_dim(self):
        assert parse_lattice("", dim=2) == RelationLattice.free(2)
        with pytest.raises(ParseError):
            parse_lattice("")

    def test_inconsistent_row_lengths(self):
        with pytest.raises(ParseError):
            parse_lattice("1 2\n3\n")

    def test_declared_dim_must_match(self):
        with pytest.raises(DomainError):
            parse_lattice("1 2\n", dim=3)

    def test_non_integer_entry(self):
        with pytest.raises(ParseError):
            parse_lattice("1 x\n")
