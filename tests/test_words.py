import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagcalc import words
from flagcalc.abelian import abelianize, multiset_quotient
from flagcalc.errors import DomainError, ParseError, UnknownGeneratorError
from flagcalc.words import (
    MINUS,
    PLUS,
    GeneratorSet,
    PresentationClass,
    Sign,
    SignedWord,
    check_commutation_law,
    class_of,
    format_word,
    free_reduce,
    iter_words,
    pair,
    parse_word,
    words_of_length,
)

GENS = GeneratorSet.of("a", "b", "c")


def w(text: str) -> SignedWord:
    return parse_word(text, GENS)


signs = st.sampled_from((PLUS, MINUS))
signed_words = st.builds(
    lambda codes: SignedWord(GENS, codes), st.lists(st.integers(0, 5), max_size=6)
)


def letters_of(word: SignedWord) -> tuple[tuple[int, Sign], ...]:
    """The ``(generator index, sign)`` letters a word's codes stand for."""
    return tuple((c >> 1, MINUS if c & 1 else PLUS) for c in word.codes)


# Words over the first one to three of a, b, c, with the letters they stand for.
gens_and_letters = (
    st.integers(min_value=1, max_value=3)
    .flatmap(
        lambda n: st.builds(
            SignedWord,
            st.just(GeneratorSet(("a", "b", "c")[:n])),
            st.lists(st.integers(0, 2 * n - 1), max_size=8),
        )
    )
    .map(lambda word: (word, letters_of(word)))
)

# Words over a and b alone, long enough that adjacent inverse pairs are common.
AB = GeneratorSet.of("a", "b")
ab_words = st.builds(
    lambda codes: SignedWord(AB, codes), st.lists(st.integers(0, 3), max_size=10)
)


def old_lex_key(word: SignedWord) -> tuple[tuple[int, int], ...]:
    """Letter order as pairs: generator index ascending, then + before -."""
    return tuple((gen, 0 if sign > 0 else 1) for gen, sign in letters_of(word))


class TestGeneratorSet:
    def test_of_builds_named_set(self):
        assert len(GENS) == 3
        assert GENS.names == ("a", "b", "c")

    def test_rejects_duplicates(self):
        with pytest.raises(DomainError):
            GeneratorSet.of("a", "a")

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            GeneratorSet.of()

    @pytest.mark.parametrize("name", ["", "1a", "a+", "a b"])
    def test_rejects_bad_names(self, name):
        with pytest.raises(DomainError):
            GeneratorSet.of(name)

    @pytest.mark.parametrize("names", ["ab", ["a", "b"], ("a", 1), (b"a",)])
    def test_rejects_names_that_are_not_a_tuple_of_str(self, names):
        with pytest.raises(DomainError, match="must be a tuple of str|invalid generator name"):
            GeneratorSet(names)

    def test_unknown_name_lookup(self):
        assert parse_word("b+", GENS).codes == (2,)
        # A reader names the column where the name stands in its text.
        with pytest.raises(UnknownGeneratorError) as info:
            parse_word("a+ b-  q+", GENS)
        assert info.value.name == "q"
        assert str(info.value).startswith("1:8: unknown generator 'q'")


class TestLetterChecks:
    """A letter's code is checked when it enters a word: an int in ``range(2k)``."""

    @pytest.mark.parametrize("letter", [(0.5,), (4,), (-1,), ("0",)])
    def test_word_rejects_bad_letters(self, letter):
        with pytest.raises(DomainError, match="is not an int in range\\(4\\)"):
            SignedWord(AB, letter)

    @pytest.mark.parametrize("gens", ["ab", ("a", "b"), None])
    def test_word_rejects_gens_that_are_not_a_generator_set(self, gens):
        with pytest.raises(DomainError, match="gens must be a GeneratorSet"):
            SignedWord(gens, (0, 1))

    def test_word_keeps_good_codes(self):
        word = SignedWord(AB, (0, 3))
        assert word.codes == (0, 3)
        assert format_word(word) == "a+ b-"
        assert word == parse_word("a+ b-", AB)


class TestParsing:
    def test_two_letter_example(self):
        word = w("a+ b-")
        assert len(word) == 2
        assert format_word(word) == "a+ b-"

    def test_empty_text_is_empty_word(self):
        assert parse_word("", GENS) == SignedWord(GENS)
        assert format_word(SignedWord(GENS)) == ""

    def test_unknown_generator_reports_name(self):
        with pytest.raises(UnknownGeneratorError) as exc:
            parse_word("a+ q-", GENS)
        assert exc.value.name == "q"
        assert exc.value.column == 4

    def test_malformed_token_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_word("a+ b*", GENS)
        assert exc.value.line == 1
        assert exc.value.column == 4

    @given(signed_words)
    def test_round_trip(self, word):
        assert parse_word(format_word(word), GENS) == word


class TestInvolution:
    def test_reverses_and_flips_signs(self):
        assert w("a+ b+").involution() == w("b- a-")
        assert w("a-").involution() == w("a+")
        assert w("").involution() == w("")

    @given(signed_words)
    def test_order_two(self, word):
        assert word.involution().involution() == word

    @given(signed_words, signed_words)
    def test_anti_automorphism(self, u, v):
        assert u.concat(v).involution() == v.involution().concat(u.involution())

    @given(signed_words, signed_words)
    def test_derived_words_match_their_checked_rebuild(self, u, v):
        for derived in (u.involution(), u.concat(v)):
            assert derived == SignedWord(GENS, derived.codes)

    @given(gens_and_letters)
    def test_involution_reverses_and_negates_the_letters(self, case):
        word, ls = case
        expected = tuple((gen, -sign) for gen, sign in reversed(ls))
        assert letters_of(word.involution()) == expected

    def test_concat_requires_matching_generators(self):
        other = GeneratorSet.of("a")
        with pytest.raises(DomainError):
            w("a+").concat(parse_word("a+", other))

    @pytest.mark.parametrize("other", ["a+", (0,), None])
    def test_concat_refuses_an_operand_that_is_not_a_word(self, other):
        with pytest.raises(DomainError, match="cannot concatenate SignedWord with"):
            w("a+").concat(other)


class TestPresentationClass:
    def test_lex_least_canonical(self):
        cls = class_of(w("b- a-"))
        assert cls.canonical == w("a+ b+")
        assert cls.anti == w("b- a-")
        assert not cls.is_degenerate

    def test_degenerate_fiber_is_flagged(self):
        cls = class_of(w("a+ a-"))
        assert cls.is_degenerate
        assert cls.canonical == cls.anti

    @given(signed_words)
    def test_constant_on_fibers(self, word):
        assert class_of(word) == class_of(word.involution())
        assert hash(class_of(word)) == hash(class_of(word.involution()))

    @given(signed_words)
    def test_members_are_the_unordered_fiber(self, word):
        assert class_of(word).members() == {word, word.involution()}

    def test_classes_collapse_in_sets(self):
        seen = {class_of(w("a+ b+")), class_of(w("b- a-"))}
        assert len(seen) == 1

    @given(signed_words)
    def test_checked_constructor_accepts_every_class(self, word):
        cls = class_of(word)
        assert PresentationClass(cls.canonical, cls.anti) == cls

    def test_anti_field_is_validated(self):
        with pytest.raises(DomainError):
            PresentationClass(w("a+"), w("a+"))

    @pytest.mark.parametrize(
        "canonical, anti", [("a+", "a-"), (w("a+"), "a-"), (None, w("a-"))]
    )
    def test_members_must_be_words(self, canonical, anti):
        with pytest.raises(DomainError, match="class members must be SignedWords"):
            PresentationClass(canonical, anti)

    @given(signed_words, signed_words)
    def test_equality_is_equality_of_fibers(self, u, v):
        a = class_of(u, {u})
        for b in (class_of(v), class_of(u), class_of(u.involution(), {u.involution()})):
            assert (a == b) == (a.members() == b.members())
            assert a != b or hash(a) == hash(b)

    def test_signed_form_selects_member(self):
        cls = class_of(w("b- a-"))
        assert cls.canonical == w("a+ b+")
        assert cls.anti == w("b- a-")


class TestLetterCodes:
    """Readers of letter codes agree with references written on letters."""

    @given(gens_and_letters)
    def test_code_order_is_the_letter_order(self, case):
        word, _ = case
        anti = word.involution()
        assert (word.codes < anti.codes) == (old_lex_key(word) < old_lex_key(anti))
        assert class_of(word).canonical == min(word, anti, key=old_lex_key)

    @given(gens_and_letters)
    def test_format_word_matches_letter_rendering(self, case):
        word, ls = case
        names = word.gens.names
        expected = " ".join(names[gen] + ("+" if sign > 0 else "-") for gen, sign in ls)
        assert format_word(word) == expected

    @given(gens_and_letters)
    def test_abelian_shadows_match_letter_counts(self, case):
        word, ls = case
        gen_range = range(len(word.gens))
        counts = tuple(ls.count((i, sign)) for i in gen_range for sign in (PLUS, MINUS))
        assert multiset_quotient(word) == counts
        expected = tuple(sum(s for gen, s in ls if gen == i) for i in gen_range)
        assert abelianize(word) == expected

    @given(gens_and_letters)
    def test_class_of_matches_the_checked_constructor(self, case):
        word, _ = case
        anti = word.involution()
        for preferred in ((), {anti}):
            cls = class_of(word, preferred)
            assert PresentationClass(cls.canonical, cls.anti) == cls
            assert {cls.canonical, cls.anti} == {word, anti}
        assert class_of(word, {anti}).canonical == anti

    @pytest.mark.parametrize("text", ["a+ b-", "a+ a-", ""])
    def test_class_of_makes_one_involution(self, monkeypatch, text):
        word = w(text)
        preferred = {word.involution()}
        calls = []
        original = SignedWord.involution

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(SignedWord, "involution", counted)
        for chosen in ((), preferred):
            calls.clear()
            class_of(word, chosen)
            assert calls == [word]


class TestFreeReduce:
    def test_reduction(self):
        assert free_reduce(w("a+ a-")) == SignedWord(GENS)
        assert free_reduce(w("a+ b+ b- a+")) == w("a+ a+")
        assert free_reduce(w("a+ b- b- c+ c- b+ a-")) == w("a+ b- a-")

    @given(ab_words)
    def test_is_idempotent(self, word):
        reduced = free_reduce(word)
        assert free_reduce(reduced) == reduced

    @given(ab_words)
    def test_leaves_no_inverse_pair(self, word):
        codes = free_reduce(word).codes
        assert all(c != d ^ 1 for c, d in zip(codes, codes[1:]))

    @given(ab_words)
    def test_group_identities(self, word):
        assert free_reduce(word.concat(word.involution())).codes == ()
        assert free_reduce(word.involution().concat(word)).codes == ()

    @given(ab_words)
    def test_abelianization_is_invariant(self, word):
        assert abelianize(free_reduce(word)) == abelianize(word)

    @given(ab_words, ab_words)
    def test_product_exponents_add(self, u, v):
        product = free_reduce(free_reduce(u).concat(free_reduce(v)))
        summed = tuple(a + b for a, b in zip(abelianize(u), abelianize(v)))
        assert abelianize(product) == summed

    @given(ab_words, ab_words)
    def test_reduction_respects_products(self, u, v):
        assert free_reduce(u.concat(v)) == free_reduce(
            free_reduce(u).concat(free_reduce(v))
        )


class TestCanonicalPolicy:
    """``class_of`` makes a preferred member canonical, else the lex-least one."""

    def test_explicit_choice_wins_over_lex(self):
        assert class_of(w("a+ b+"), {w("b- a-")}).canonical == w("b- a-")

    def test_lookup_works_from_either_member(self):
        assert class_of(w("b- a-"), {w("b- a-")}).canonical == w("b- a-")

    def test_the_word_wins_when_both_members_are_preferred(self):
        preferred = {w("a+ b+"), w("b- a-")}
        assert class_of(w("b- a-"), preferred).canonical == w("b- a-")
        assert class_of(w("a+ b+"), preferred).canonical == w("a+ b+")

    def test_a_preferred_word_outside_the_fiber_changes_nothing(self):
        assert class_of(w("b- a-"), {w("b+")}).canonical == w("a+ b+")

    def test_default_policy_is_lex_least(self):
        assert class_of(w("b- a-"), ()).canonical == w("a+ b+")
        assert class_of(w("b- a-")).canonical == w("a+ b+")


class TestPair:
    @pytest.mark.parametrize(
        "sigma,tau,expected",
        [
            (PLUS, MINUS, "a+ b+"),
            (MINUS, PLUS, "a- b-"),
            (PLUS, PLUS, "a+ b-"),
            (MINUS, MINUS, "a- b+"),
        ],
    )
    def test_generator_identities(self, sigma, tau, expected):
        a = class_of(w("a+"))
        b = class_of(w("b+"))
        assert pair(a, sigma, tau, b) == w(expected)

    def test_longer_operands_concatenate_signed_forms(self):
        left = class_of(w("a+ b+"))
        right = class_of(w("c+"))
        assert pair(left, PLUS, MINUS, right) == w("a+ b+ c+")
        assert pair(left, MINUS, MINUS, right) == w("b- a- c+")

    def test_checks_each_sign_once(self, monkeypatch):
        a, b = class_of(w("a+")), class_of(w("b+"))
        checked = []
        original = words._check_sign

        def counted(sign):
            checked.append(sign)
            original(sign)

        monkeypatch.setattr(words, "_check_sign", counted)
        pair(a, PLUS, MINUS, b)
        assert checked == [PLUS, MINUS]
        with pytest.raises(DomainError, match="sign must be \\+1 or -1, got 0"):
            pair(a, PLUS, 0, b)

    @given(signed_words, signs, signs, signed_words)
    def test_commutation_law(self, u, sigma, tau, v):
        assert check_commutation_law(class_of(u), sigma, tau, class_of(v))

    @given(signed_words, signs, signs, signed_words)
    def test_flip_law_on_classes(self, u, sigma, tau, v):
        a, b = class_of(u), class_of(v)
        assert class_of(pair(a, sigma, tau, b)) == class_of(pair(b, tau, sigma, a))


class TestEnumeration:
    def test_words_of_length_counts(self):
        assert sum(1 for _ in words_of_length(GENS, 0)) == 1
        assert sum(1 for _ in words_of_length(GENS, 2)) == 36

    def test_iter_words_counts(self):
        assert sum(1 for _ in iter_words(GENS, 2)) == 1 + 6 + 36

    def test_enumeration_is_deterministic(self):
        assert list(iter_words(GENS, 2)) == list(iter_words(GENS, 2))
