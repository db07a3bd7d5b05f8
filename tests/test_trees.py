import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagcalc.errors import (
    DomainError,
    ParseError,
    ResourceLimitError,
    UnknownGeneratorError,
)
from flagcalc.trees import (
    DEFAULT_CLOSURE_CAP,
    Leaf,
    Node,
    RootedPresentation,
    _variants,
    all_trees,
    eval_tree,
    flip,
    format_tree,
    iter_rooted,
    move_closure,
    parse_tree,
    word_to_tree,
)
from flagcalc.words import (
    MINUS,
    PLUS,
    GeneratorSet,
    SignedWord,
    iter_words,
    parse_word,
)

GENS = GeneratorSet.of("a", "b")
GENS3 = GeneratorSet.of("a", "b", "c")


def w(text: str) -> SignedWord:
    return parse_word(text, GENS)


nonempty_words3 = st.builds(
    lambda codes: SignedWord(GENS3, codes),
    st.lists(st.integers(0, 5), min_size=1, max_size=6),
)


def rebuild(rooted: RootedPresentation) -> RootedPresentation:
    """The same presentation rebuilt through the checked public constructors."""

    def tree(t):
        if isinstance(t, Leaf):
            return Leaf(t.gen)
        return Node(t.sigma, t.tau, tree(t.left), tree(t.right))

    return RootedPresentation(tree(rooted.tree), rooted.root_sign)


def reference_closure(
    rooted: RootedPresentation, cap: int = DEFAULT_CLOSURE_CAP
) -> frozenset[RootedPresentation]:
    """The closure searched over rooted presentations, the root-sign toggle a move of its own.

    The search ``move_closure`` made before it ran over bare trees.
    """

    def neighbors(rooted):
        tree, root_sign = rooted
        yield RootedPresentation(tree, -root_sign)
        if isinstance(tree, Node):
            yield RootedPresentation(flip(tree), -root_sign)
        for variant in _variants(tree):
            yield RootedPresentation(variant, root_sign)

    seen = {rooted}
    frontier = [rooted]
    while frontier:
        for nb in neighbors(frontier.pop()):
            if nb not in seen:
                seen.add(nb)
                if len(seen) > cap:
                    raise ResourceLimitError(f"move closure exceeded cap of {cap} presentations")
                frontier.append(nb)
    return frozenset(seen)


@pytest.fixture(scope="module")
def reference_orbits() -> list[tuple[RootedPresentation, frozenset[RootedPresentation]]]:
    """Each orbit of 1 to 4 leaves over 2 generators, by :func:`reference_closure`, with its start."""
    orbits = []
    seen = set()
    for n in range(1, 5):
        for rooted in iter_rooted(n, len(GENS)):
            if rooted not in seen:
                orbit = reference_closure(rooted)
                seen.update(orbit)
                orbits.append((rooted, orbit))
    return orbits


signs = st.sampled_from((PLUS, MINUS))


@st.composite
def trees_of(draw, n_leaves: int, n_gens: int):
    """A pairing tree with ``n_leaves`` leaves over ``n_gens`` generators."""
    if n_leaves == 1:
        return Leaf(draw(st.integers(0, n_gens - 1)))
    left = draw(st.integers(1, n_leaves - 1))
    return Node(
        draw(signs),
        draw(signs),
        draw(trees_of(left, n_gens)),
        draw(trees_of(n_leaves - left, n_gens)),
    )


def derived_presentations():
    """Every presentation the library builds unchecked, up to 4 leaves."""
    yield from (word_to_tree(word) for word in iter_words(GENS, 4) if len(word))
    seen = set()
    for n in range(1, 5):
        for tree in all_trees(n, len(GENS)):
            yield RootedPresentation(tree)
            yield parse_tree(format_tree(RootedPresentation(tree), GENS), GENS)
            if isinstance(tree, Node):
                yield RootedPresentation(flip(tree))
        for rooted in iter_rooted(n, len(GENS)):
            if rooted not in seen:
                orbit = move_closure(rooted)
                seen.update(orbit)
                yield from orbit


class TestRecords:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: Leaf(-1),
            lambda: Leaf(0.5),
            lambda: Node(0, PLUS, Leaf(0), Leaf(1)),
            lambda: Node(PLUS, 2, Leaf(0), Leaf(1)),
            lambda: Node(PLUS, MINUS, "x", Leaf(0)),
            lambda: Node(PLUS, MINUS, Leaf(0), "x"),
            lambda: Node(PLUS, MINUS, Leaf(0), (0,)),
            lambda: RootedPresentation(Leaf(0), 0),
            lambda: RootedPresentation("x"),
        ],
        ids=[
            "leaf",
            "leaf-type",
            "sigma",
            "tau",
            "left",
            "right",
            "plain-tuple",
            "root-sign",
            "tree",
        ],
    )
    def test_public_constructors_check(self, build):
        with pytest.raises(DomainError):
            build()

    def test_derived_trees_match_their_checked_rebuild(self):
        count = 0
        for rooted in derived_presentations():
            checked = rebuild(rooted)
            assert rooted == checked
            assert hash(rooted) == hash(checked)
            assert repr(rooted) == repr(checked)
            count += 1
        assert count > 10_000

    def test_repr_keeps_field_names(self):
        node = Node(PLUS, MINUS, Leaf(0), Leaf(1))
        assert repr(node) == (
            "Node(sigma=1, tau=-1, left=Leaf(gen=0), right=Leaf(gen=1))"
        )
        assert repr(RootedPresentation(node, MINUS)) == (
            f"RootedPresentation(tree={node!r}, root_sign=-1)"
        )

    def test_pickle_round_trip(self):
        for rooted in iter_rooted(3, len(GENS)):
            back = pickle.loads(pickle.dumps(rooted))
            assert back == rooted and repr(back) == repr(rooted)

    def test_fields_are_read_only(self):
        node = Node(PLUS, MINUS, Leaf(0), Leaf(1))
        with pytest.raises(AttributeError):
            node.sigma = MINUS
        with pytest.raises(AttributeError):
            node.left.gen = 1
        with pytest.raises(AttributeError):
            RootedPresentation(node).root_sign = MINUS

    def test_records_equal_plain_tuples_of_their_fields(self):
        assert Node(PLUS, MINUS, Leaf(0), Leaf(1)) == (PLUS, MINUS, (0,), (1,))


class TestEval:
    def test_leaf_under_both_root_signs(self):
        assert eval_tree(RootedPresentation(Leaf(0), PLUS), GENS) == w("a+")
        assert eval_tree(RootedPresentation(Leaf(0), MINUS), GENS) == w("a-")

    def test_leaf_outside_the_generator_set_is_rejected(self):
        for gen in (2, 5):
            rooted = RootedPresentation(Leaf(gen))
            message = f"letter index {gen} out of range for 2 generators"
            with pytest.raises(DomainError, match=message):
                eval_tree(rooted, GENS)
            with pytest.raises(DomainError, match=message):
                format_tree(rooted, GENS)

    @pytest.mark.parametrize(
        "sigma,tau,expected",
        [
            (PLUS, MINUS, "a+ b+"),
            (MINUS, PLUS, "a- b-"),
            (PLUS, PLUS, "a+ b-"),
            (MINUS, MINUS, "a- b+"),
        ],
    )
    def test_two_leaf_pairings(self, sigma, tau, expected):
        rooted = RootedPresentation(Node(sigma, tau, Leaf(0), Leaf(1)))
        assert eval_tree(rooted, GENS) == w(expected)

    def test_nested_example(self):
        tree = Node(PLUS, MINUS, Node(PLUS, MINUS, Leaf(0), Leaf(1)), Leaf(1))
        assert eval_tree(RootedPresentation(tree), GENS) == w("a+ b+ b+")

    def test_length_equals_leaf_count(self):
        for n in range(1, 5):
            for rooted in iter_rooted(n, len(GENS)):
                assert len(eval_tree(rooted, GENS)) == n


class TestFlip:
    def test_leaf_has_no_flip(self):
        with pytest.raises(DomainError):
            flip(Leaf(0))

    def test_flip_swaps_slots_and_children(self):
        node = Node(PLUS, MINUS, Leaf(0), Leaf(1))
        assert flip(node) == Node(MINUS, PLUS, Leaf(1), Leaf(0))


class TestAllTrees:
    @pytest.mark.parametrize("n_gens", [1, 2])
    @pytest.mark.parametrize("n_leaves", [1, 2, 3, 4, 5])
    def test_counts_shapes_labels_and_sign_pairs(self, n_leaves, n_gens):
        shapes = math.comb(2 * (n_leaves - 1), n_leaves - 1) // n_leaves  # Catalan(n-1)
        expected = shapes * n_gens**n_leaves * 4 ** (n_leaves - 1)
        assert sum(1 for _ in all_trees(n_leaves, n_gens)) == expected

    def test_yields_each_tree_once(self):
        assert len(set(all_trees(4, 2))) == sum(1 for _ in all_trees(4, 2))

    @pytest.mark.parametrize("n_leaves, n_gens", [(0, 2), (2, 0)])
    def test_bad_arguments_raise_at_the_call(self, n_leaves, n_gens):
        with pytest.raises(DomainError):
            all_trees(n_leaves, n_gens)  # no next(): the call itself raises


class TestWordToTree:
    def test_rejects_empty_word(self):
        with pytest.raises(DomainError):
            word_to_tree(SignedWord(GENS))

    def test_single_letter_uses_root_sign(self):
        rooted = word_to_tree(w("a-"))
        assert rooted.tree == Leaf(0)
        assert rooted.root_sign == MINUS

    @given(nonempty_words3)
    def test_round_trip_sampled(self, word):
        assert eval_tree(word_to_tree(word), GENS3) == word


class TestMoveClosure:
    def test_leaf_orbit_is_the_two_root_signs(self):
        orbit = move_closure(RootedPresentation(Leaf(0)))
        assert {format_tree(m, GENS) for m in orbit} == {
            "[+ leaf:a]",
            "[- leaf:a]",
        }

    def test_two_leaf_orbit_frozen(self):
        orbit = move_closure(word_to_tree(w("a+ b+")))
        assert sorted(format_tree(m, GENS) for m in orbit) == [
            "[+ (pair +- leaf:a leaf:b)]",
            "[+ (pair -+ leaf:b leaf:a)]",
            "[- (pair +- leaf:a leaf:b)]",
            "[- (pair -+ leaf:b leaf:a)]",
        ]

    def test_reassociation_reaches_the_other_comb(self):
        word = parse_word("a+ b+ c+", GENS3)
        orbit = move_closure(word_to_tree(word))
        literals = {format_tree(m, GENS3) for m in orbit}
        assert "[+ (pair +- (pair +- leaf:a leaf:b) leaf:c)]" in literals
        assert "[+ (pair +- leaf:a (pair +- leaf:b leaf:c))]" in literals

    def test_orbit_is_independent_of_start_point(self):
        start = word_to_tree(w("a+ b+"))
        orbit = move_closure(start)
        for member in orbit:
            assert move_closure(member) == orbit

    def test_cap_is_enforced(self):
        with pytest.raises(ResourceLimitError):
            move_closure(word_to_tree(w("a+ b+")), cap=1)

    def test_cap_equal_to_orbit_size_is_fine(self):
        assert len(move_closure(word_to_tree(w("a+ b+")), cap=4)) == 4

    def test_equals_the_search_over_rooted_presentations(self, reference_orbits):
        assert len(reference_orbits) == 476
        assert sum(len(orbit) for _, orbit in reference_orbits) == 10_788
        for start, orbit in reference_orbits:
            assert move_closure(start) == orbit

    @given(st.integers(5, 6).flatmap(lambda n: trees_of(n, len(GENS3))), signs)
    def test_equals_the_search_over_rooted_presentations_sampled(self, tree, root_sign):
        start = RootedPresentation(tree, root_sign)
        assert move_closure(start) == reference_closure(start)

    def test_cap_bounds_every_orbit_exactly(self, reference_orbits):
        for start, orbit in reference_orbits:
            assert move_closure(start, cap=len(orbit)) == orbit
            cap = len(orbit) - 1
            with pytest.raises(ResourceLimitError) as info:
                move_closure(start, cap=cap)
            assert str(info.value) == f"move closure exceeded cap of {cap} presentations"

    @pytest.mark.parametrize(
        "start, cap",
        [
            (RootedPresentation(Leaf(0)), 1),
            (RootedPresentation(Leaf(1), MINUS), 1),
            (word_to_tree(w("a+ b+")), 3),
        ],
        ids=["leaf", "leaf-minus", "four-members"],
    )
    def test_cap_counts_both_root_signs(self, start, cap):
        with pytest.raises(ResourceLimitError, match=f"exceeded cap of {cap} presentations"):
            move_closure(start, cap=cap)
        assert len(move_closure(start, cap=cap + 1)) == cap + 1


class TestTreeText:
    def test_format_examples(self):
        rooted = RootedPresentation(Node(PLUS, MINUS, Leaf(0), Leaf(1)))
        assert format_tree(rooted, GENS) == "[+ (pair +- leaf:a leaf:b)]"
        assert format_tree(RootedPresentation(Leaf(1), MINUS), GENS) == "[- leaf:b]"

    @pytest.mark.parametrize(
        "tree,root,text",
        [
            (Node(PLUS, PLUS, Leaf(0), Leaf(1)), PLUS, "[+ (pair ++ leaf:a leaf:b)]"),
            (Node(MINUS, PLUS, Leaf(1), Leaf(0)), PLUS, "[+ (pair -+ leaf:b leaf:a)]"),
            (Node(MINUS, MINUS, Leaf(0), Leaf(0)), MINUS, "[- (pair -- leaf:a leaf:a)]"),
            (
                Node(PLUS, MINUS, Node(MINUS, PLUS, Leaf(0), Leaf(1)), Leaf(1)),
                MINUS,
                "[- (pair +- (pair -+ leaf:a leaf:b) leaf:b)]",
            ),
            (
                Node(PLUS, MINUS, Leaf(0), Node(MINUS, MINUS, Leaf(1), Leaf(0))),
                PLUS,
                "[+ (pair +- leaf:a (pair -- leaf:b leaf:a))]",
            ),
        ],
    )
    def test_format_pins_the_exact_text(self, tree, root, text):
        assert format_tree(RootedPresentation(tree, root), GENS) == text

    def test_parse_examples(self):
        rooted = parse_tree("[+ (pair +- leaf:a leaf:b)]", GENS)
        assert rooted == RootedPresentation(Node(PLUS, MINUS, Leaf(0), Leaf(1)))

    def test_bare_tree_defaults_to_plus_root(self):
        assert parse_tree("leaf:a", GENS) == RootedPresentation(Leaf(0), PLUS)

    def test_round_trip_exhaustive(self):
        for n in range(1, 4):
            for rooted in iter_rooted(n, len(GENS)):
                assert parse_tree(format_tree(rooted, GENS), GENS) == rooted

    @pytest.mark.parametrize(
        "text",
        [
            "[+ (pair ** leaf:a leaf:b)]",
            "(pair +- leaf:a)",
            "[+ leaf:a",
            "leaf:a extra",
            "(pair +- leaf:a leaf:b leaf:a)",
            "",
        ],
    )
    def test_malformed_literals(self, text):
        with pytest.raises(ParseError):
            parse_tree(text, GENS)

    def test_unknown_leaf_name(self):
        with pytest.raises(UnknownGeneratorError):
            parse_tree("leaf:q", GENS)
