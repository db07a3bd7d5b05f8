"""Signed binary pairing trees and their rewrite moves.

A tree is either a leaf holding a generator index or an internal node
carrying a sign pair ``(sigma, tau)`` and two subtrees.  Evaluation produces
a signed word: a leaf evaluates to its generator at ``+``, a node evaluates
to ``form(left, sigma) . form(right, -tau)`` where ``form`` takes the word at
``+`` and its involution at ``-``.  A rooted presentation adds a root sign
that, when ``-``, post-composes the involution.

Flipping a node exchanges its children and swaps its signs; at word level
this realizes the involution of the node's value.  :func:`move_closure`
enumerates everything reachable from a rooted presentation by flips (with
the governing sign slot toggled so the evaluated word is preserved), by the
root-sign toggle (switching to the anti presentation), and by reassociation
of nested ``(+,-)`` nodes.  Every member of a closure evaluates into the same
presentation class.

``Leaf``, ``Node`` and ``RootedPresentation`` are immutable tuple records, so
they are built, hashed and compared in C.  Their public constructors check
every field: a generator index is a nonnegative ``int``, a sign is ``+1`` or
``-1``, and a child or tree is a ``Leaf`` or a ``Node``.  The trees this
module derives from checked trees (flips, moves, enumerations, word combs and
parsed literals) are built through ``tuple.__new__`` and not checked again.
Being tuples, records also compare equal to plain tuples with the same
fields.
"""

from __future__ import annotations

import re
import sys
from typing import Iterator, NamedTuple

from .errors import DomainError, ParseError, ResourceLimitError, UnknownGeneratorError, parse_at
from .words import (
    MINUS,
    PLUS,
    GeneratorSet,
    Sign,
    SignedWord,
    _SIGN_PAIRS,
    _check_sign,
    parse_sign_pair,
    sign_char,
)

DEFAULT_CLOSURE_CAP = 10_000

# Builds a record from fields already checked, skipping its class's ``__new__``.
_new = tuple.__new__


class _LeafRecord(NamedTuple):
    gen: int


class Leaf(_LeafRecord):
    """A leaf holding the index of a generator."""

    __slots__ = ()

    def __new__(cls, gen: int) -> "Leaf":
        if type(gen) is not int or gen < 0:
            raise DomainError(f"generator index must be a nonnegative int, got {gen!r}")
        return _new(cls, (gen,))


class _NodeRecord(NamedTuple):
    sigma: Sign
    tau: Sign
    left: "PairingTree"
    right: "PairingTree"


class Node(_NodeRecord):
    """Internal node: sign pair plus left/right subtrees."""

    __slots__ = ()

    def __new__(
        cls, sigma: Sign, tau: Sign, left: "PairingTree", right: "PairingTree"
    ) -> "Node":
        _check_sign(sigma)
        _check_sign(tau)
        _check_tree(left)
        _check_tree(right)
        return _new(cls, (sigma, tau, left, right))


# Not typing.Union, whose process-wide cache would keep these classes, and so
# every re-imported copy of this module, alive.
PairingTree = Leaf | Node


def _check_tree(tree: object) -> None:
    if type(tree) is not Leaf and type(tree) is not Node:
        raise DomainError(f"a pairing tree is a Leaf or a Node, not {type(tree).__name__}")


class _RootedRecord(NamedTuple):
    tree: PairingTree
    root_sign: Sign


class RootedPresentation(_RootedRecord):
    """A pairing tree together with a root sign."""

    __slots__ = ()

    def __new__(cls, tree: PairingTree, root_sign: Sign = PLUS) -> "RootedPresentation":
        _check_tree(tree)
        _check_sign(root_sign)
        return _new(cls, (tree, root_sign))


def eval_tree(rooted: RootedPresentation, gens: GeneratorSet) -> SignedWord:
    """Evaluate to a signed word; length equals the number of leaves."""
    codes = _eval_codes(rooted.tree, rooted.root_sign)
    n = len(gens)
    if max(codes) >= 2 * n:
        gen = next(c >> 1 for c in codes if c >= 2 * n)
        raise DomainError(f"letter index {gen} out of range for {n} generators")
    return SignedWord._of_codes(gens, codes)


def _eval_codes(tree: PairingTree, sign: Sign) -> tuple[int, ...]:
    """The letter codes of ``tree`` at ``sign``, unchecked against any generator set.

    Pushes signs down to the leaves: at ``-`` a node reads as the involution
    of its ``+`` value, ``right`` at ``tau`` then ``left`` at ``-sigma``.
    Each walk follows one spine down to a leaf and leaves the other children
    on the stack.
    """
    codes: list[int] = []
    stack = [(tree, sign)]
    while stack:
        tree, sign = stack.pop()
        while type(tree) is Node:
            sigma, tau, left, right = tree
            if sign > 0:
                stack.append((right, -tau))
                tree, sign = left, sigma
            else:
                stack.append((left, -sigma))
                tree, sign = right, tau
        codes.append(2 * tree[0] + (sign < 0))
    return tuple(codes)


def flip(node: PairingTree) -> Node:
    """Swap children and signs; the value becomes its involution."""
    if type(node) is not Node:
        raise DomainError("flip is defined on internal nodes, not leaves")
    sigma, tau, left, right = node
    return _new(Node, (tau, sigma, right, left))


def word_to_tree(word: SignedWord) -> RootedPresentation:
    """Left-comb presentation evaluating exactly to ``word``.

    The first letter's sign rides on the root sign for one-letter words and
    on the bottom node's left slot otherwise; each later letter ``c^s`` is
    appended as the right leaf of a ``(+, -s)`` node.
    """
    codes = word.codes
    if not codes:
        raise DomainError("the empty word has no pairing tree")
    # A code's low bit is 1 for a ``-`` letter, so ``1 - 2 * bit`` is its sign.
    first, sign = _new(Leaf, (codes[0] >> 1,)), 1 - 2 * (codes[0] & 1)
    if len(codes) == 1:
        return _new(RootedPresentation, (first, sign))
    second = _new(Leaf, (codes[1] >> 1,))
    acc: PairingTree = _new(Node, (sign, 2 * (codes[1] & 1) - 1, first, second))
    for code in codes[2:]:
        acc = _new(Node, (PLUS, 2 * (code & 1) - 1, acc, _new(Leaf, (code >> 1,))))
    return _new(RootedPresentation, (acc, PLUS))


def _variants(tree: PairingTree) -> Iterator[PairingTree]:
    """Single word-preserving moves applied at or below this tree's root.

    Flipping a child is compensated by toggling the parent sign slot that
    governs it, so the evaluated word never changes; reassociation applies
    only to the all-concatenation ``(+,-)`` sign pattern.
    """
    if type(tree) is Leaf:
        return
    sigma, tau, left, right = tree
    left_node = type(left) is Node
    right_node = type(right) is Node
    if left_node:
        ls, lt, ll, lr = left
        yield _new(Node, (-sigma, tau, _new(Node, (lt, ls, lr, ll)), right))
    if right_node:
        rs, rt, rl, rr = right
        yield _new(Node, (sigma, -tau, left, _new(Node, (rt, rs, rr, rl))))
    if sigma == PLUS and tau == MINUS:
        if left_node and ls == PLUS and lt == MINUS:
            yield _new(Node, (PLUS, MINUS, ll, _new(Node, (PLUS, MINUS, lr, right))))
        if right_node and rs == PLUS and rt == MINUS:
            yield _new(Node, (PLUS, MINUS, _new(Node, (PLUS, MINUS, left, rl)), rr))
    for sub in _variants(left):
        yield _new(Node, (sigma, tau, sub, right))
    for sub in _variants(right):
        yield _new(Node, (sigma, tau, left, sub))


def neighbors(rooted: RootedPresentation) -> Iterator[RootedPresentation]:
    """All rooted presentations one move away."""
    tree, root_sign = rooted
    yield _new(RootedPresentation, (tree, -root_sign))
    if type(tree) is Node:
        yield _new(RootedPresentation, (flip(tree), -root_sign))
    for variant in _variants(tree):
        yield _new(RootedPresentation, (variant, root_sign))


def move_closure(
    rooted: RootedPresentation, cap: int = DEFAULT_CLOSURE_CAP
) -> frozenset[RootedPresentation]:
    """Everything reachable from ``rooted`` by single moves, ``rooted`` included.

    Raises :class:`ResourceLimitError` as soon as the closure would exceed
    ``cap`` members, and :class:`RecursionError` for a tree nested deeper
    than the interpreter's recursion limit.
    """
    if cap < 1:
        raise DomainError(f"closure cap must be positive, got {cap}")
    # A tuple's hash recurses in C with no depth guard, so hashing a deep
    # enough tree would crash the interpreter.  A move deepens a tree by at
    # most one level and ``_variants`` recurses once per level, so only the
    # start can be much deeper than the limit.
    limit = sys.getrecursionlimit()
    below: list[tuple[PairingTree, int]] = [(rooted.tree, 1)]
    while below:
        tree, depth = below.pop()
        if depth > limit:
            raise RecursionError("pairing tree nested deeper than the recursion limit")
        if type(tree) is Node:
            below += ((tree[2], depth + 1), (tree[3], depth + 1))
    seen = {rooted}
    frontier = [rooted]
    while frontier:
        current = frontier.pop()
        for nb in neighbors(current):
            if nb not in seen:
                seen.add(nb)
                if len(seen) > cap:
                    raise ResourceLimitError(
                        f"move closure exceeded cap of {cap} presentations"
                    )
                frontier.append(nb)
    return frozenset(seen)


def all_trees(n_leaves: int, n_gens: int) -> Iterator[PairingTree]:
    """Every pairing tree with exactly ``n_leaves`` leaves over ``n_gens`` generators.

    The arguments are checked at the call.  The smaller sizes are built as
    lists to draw subtrees from; the trees of ``n_leaves`` leaves, the
    largest layer by far, are yielded one at a time and never held.
    """
    if n_leaves < 1:
        raise DomainError("trees have at least one leaf")
    if n_gens < 1:
        raise DomainError("need at least one generator")
    leaves: list[PairingTree] = [_new(Leaf, (i,)) for i in range(n_gens)]
    if n_leaves == 1:
        return iter(leaves)
    table = [[], leaves]
    for size in range(2, n_leaves):
        table.append(list(_layer(table, size)))
    return _layer(table, n_leaves)


def _layer(table: list[list[PairingTree]], size: int) -> Iterator[PairingTree]:
    """The node trees of ``size`` leaves, with subtrees from ``table[1:size]``."""
    for left_size in range(1, size):
        for left in table[left_size]:
            for right in table[size - left_size]:
                for sigma in (PLUS, MINUS):
                    for tau in (PLUS, MINUS):
                        yield _new(Node, (sigma, tau, left, right))


def iter_rooted(n_leaves: int, n_gens: int) -> Iterator[RootedPresentation]:
    """Every rooted presentation with exactly ``n_leaves`` leaves."""
    for tree in all_trees(n_leaves, n_gens):
        yield _new(RootedPresentation, (tree, PLUS))
        yield _new(RootedPresentation, (tree, MINUS))


# The opening of a node's literal, by its sign pair.
_PAIR_OPEN = {
    (s, t): f"(pair {sign_char(s)}{sign_char(t)} " for s in (PLUS, MINUS) for t in (PLUS, MINUS)
}


def format_tree(rooted: RootedPresentation, gens: GeneratorSet) -> str:
    """Render as ``[<r> <tree>]`` with ``leaf:<name>`` and ``(pair <st> L R)``."""
    names = gens.names
    n = len(names)
    parts = [f"[{sign_char(rooted.root_sign)} "]
    stack: list[PairingTree | str] = [rooted.tree]
    while stack:
        item = stack.pop()
        if type(item) is str:
            parts.append(item)
        elif len(item) == 1:  # a Leaf; ")" and " " are caught above
            if item[0] >= n:
                raise DomainError(f"letter index {item[0]} out of range for {n} generators")
            parts.append("leaf:" + names[item[0]])
        else:
            sigma, tau, left, right = item
            parts.append(_PAIR_OPEN[sigma, tau])
            stack += [")", right, " ", left]
    parts.append("]")
    return "".join(parts)


_TOKEN_RE = re.compile(r"[()\[\]]|[^\s()\[\]]+")


def parse_tree(text: str, gens: GeneratorSet) -> RootedPresentation:
    """Parse a tree literal; a bare (unrooted) tree gets root sign ``+``."""
    tokens = [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(text)]
    if not tokens:
        raise ParseError(
            "empty tree literal", column=1, expected=("'['", "'('", "'leaf:<name>'")
        )
    items = iter(tokens)

    def take(*expected: str) -> tuple[str, int]:
        item = next(items, None)
        if item is None:
            message = "unexpected end of tree literal"
            raise ParseError(message, column=len(text) + 1, expected=expected)
        return item

    def expect(wanted: str) -> None:
        token, column = take(f"'{wanted}'")
        if token != wanted:
            message = f"expected '{wanted}', got {token!r}"
            raise ParseError(message, column=column, expected=(f"'{wanted}'",))

    bracketed = tokens[0][0] == "["
    root_sign = PLUS
    if bracketed:
        next(items)
        token, column = take("'+'", "'-'")
        if token not in ("+", "-"):
            raise ParseError(f"bad root sign {token!r}", column=column, expected=("'+'", "'-'"))
        root_sign = PLUS if token == "+" else MINUS
    # Each open ``(pair`` waits here with its signs and its left child once
    # read; a finished subtree closes every node it completes.
    open_nodes: list[tuple[Sign, Sign, list[PairingTree]]] = []
    while True:
        token, column = take("'leaf:<name>'", "'(pair ...'")
        if token == "(":
            expect("pair")
            signs, scol = take("sign pair like '+-'")
            # Only a bad pair goes to the reader, which raises it at its column.
            sigma, tau = _SIGN_PAIRS.get(signs) or parse_at(1, scol, parse_sign_pair, signs)
            open_nodes.append((sigma, tau, []))
            continue
        if not token.startswith("leaf:"):
            raise ParseError(
                f"bad tree token {token!r}",
                column=column,
                expected=("'leaf:<name>'", "'(pair <st> <tree> <tree>)'"),
            )
        name = token[len("leaf:"):]
        if name not in gens.names:
            raise UnknownGeneratorError(name, column=column)
        tree: PairingTree = _new(Leaf, (gens.names.index(name),))
        while open_nodes and open_nodes[-1][2]:
            sigma, tau, (left,) = open_nodes.pop()
            expect(")")
            tree = _new(Node, (sigma, tau, left, tree))
        if not open_nodes:
            break
        open_nodes[-1][2].append(tree)
    if bracketed:
        expect("]")
    trailing = next(items, None)
    if trailing is not None:
        message = f"trailing input {trailing[0]!r}"
        raise ParseError(message, column=trailing[1], expected=("end of literal",))
    return _new(RootedPresentation, (tree, root_sign))
