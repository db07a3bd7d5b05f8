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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, NoReturn

from .errors import DomainError, ParseError, ResourceLimitError, UnknownGeneratorError
from .words import (
    MINUS,
    PLUS,
    GeneratorSet,
    Sign,
    SignedLetter,
    SignedWord,
    _check_sign,
    parse_sign,
    sign_char,
)

DEFAULT_CLOSURE_CAP = 10_000


@dataclass(frozen=True)
class Leaf:
    """A leaf holding the index of a generator."""

    gen: int

    def __post_init__(self) -> None:
        if self.gen < 0:
            raise DomainError(f"generator index must be nonnegative, got {self.gen}")


@dataclass(frozen=True)
class Node:
    """Internal node: sign pair plus left/right subtrees."""

    sigma: Sign
    tau: Sign
    left: "PairingTree"
    right: "PairingTree"

    def __post_init__(self) -> None:
        _check_sign(self.sigma)
        _check_sign(self.tau)


# Not typing.Union, whose process-wide cache would keep these classes, and so
# every re-imported copy of this module, alive.
PairingTree = Leaf | Node


@dataclass(frozen=True)
class RootedPresentation:
    """A pairing tree together with a root sign."""

    tree: PairingTree
    root_sign: Sign = PLUS

    def __post_init__(self) -> None:
        _check_sign(self.root_sign)


def eval_tree(rooted: RootedPresentation, gens: GeneratorSet) -> SignedWord:
    """Evaluate to a signed word; length equals the number of leaves.

    Pushes signs down to the leaves: at ``-`` a node reads as the involution
    of its ``+`` value, ``right`` at ``tau`` then ``left`` at ``-sigma``.
    """
    letters: list[SignedLetter] = []
    stack = [(rooted.tree, rooted.root_sign)]
    while stack:
        tree, sign = stack.pop()
        if isinstance(tree, Leaf):
            letters.append(SignedLetter(tree.gen, sign))
        elif sign > 0:
            stack.append((tree.right, -tree.tau))
            stack.append((tree.left, tree.sigma))
        else:
            stack.append((tree.left, -tree.sigma))
            stack.append((tree.right, tree.tau))
    return SignedWord(gens, tuple(letters))


def flip(node: PairingTree) -> Node:
    """Swap children and signs; the value becomes its involution."""
    if not isinstance(node, Node):
        raise DomainError("flip is defined on internal nodes, not leaves")
    return Node(node.tau, node.sigma, node.right, node.left)


def word_to_tree(word: SignedWord) -> RootedPresentation:
    """Left-comb presentation evaluating exactly to ``word``.

    The first letter's sign rides on the root sign for one-letter words and
    on the bottom node's left slot otherwise; each later letter ``c^s`` is
    appended as the right leaf of a ``(+, -s)`` node.
    """
    letters = word.letters
    if not letters:
        raise DomainError("the empty word has no pairing tree")
    if len(letters) == 1:
        return RootedPresentation(Leaf(letters[0].gen), letters[0].sign)
    acc: PairingTree = Node(
        letters[0].sign,
        -letters[1].sign,
        Leaf(letters[0].gen),
        Leaf(letters[1].gen),
    )
    for letter in letters[2:]:
        acc = Node(PLUS, -letter.sign, acc, Leaf(letter.gen))
    return RootedPresentation(acc, PLUS)


def _variants(tree: PairingTree) -> Iterator[PairingTree]:
    """Single word-preserving moves applied at or below this tree's root.

    Flipping a child is compensated by toggling the parent sign slot that
    governs it, so the evaluated word never changes; reassociation applies
    only to the all-concatenation ``(+,-)`` sign pattern.
    """
    if isinstance(tree, Leaf):
        return
    sigma, tau, left, right = tree.sigma, tree.tau, tree.left, tree.right
    if isinstance(left, Node):
        yield Node(-sigma, tau, flip(left), right)
    if isinstance(right, Node):
        yield Node(sigma, -tau, left, flip(right))
    if (sigma, tau) == (PLUS, MINUS):
        if isinstance(left, Node) and (left.sigma, left.tau) == (PLUS, MINUS):
            yield Node(PLUS, MINUS, left.left, Node(PLUS, MINUS, left.right, right))
        if isinstance(right, Node) and (right.sigma, right.tau) == (PLUS, MINUS):
            yield Node(PLUS, MINUS, Node(PLUS, MINUS, left, right.left), right.right)
    for sub in _variants(left):
        yield Node(sigma, tau, sub, right)
    for sub in _variants(right):
        yield Node(sigma, tau, left, sub)


def neighbors(rooted: RootedPresentation) -> Iterator[RootedPresentation]:
    """All rooted presentations one move away."""
    yield RootedPresentation(rooted.tree, -rooted.root_sign)
    if isinstance(rooted.tree, Node):
        yield RootedPresentation(flip(rooted.tree), -rooted.root_sign)
    for tree in _variants(rooted.tree):
        yield RootedPresentation(tree, rooted.root_sign)


def move_closure(
    rooted: RootedPresentation, cap: int = DEFAULT_CLOSURE_CAP
) -> frozenset[RootedPresentation]:
    """Everything reachable from ``rooted`` by single moves, ``rooted`` included.

    Raises :class:`ResourceLimitError` as soon as the closure would exceed
    ``cap`` members.
    """
    if cap < 1:
        raise DomainError(f"closure cap must be positive, got {cap}")
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


def all_trees(n_leaves: int, n_gens: int) -> list[PairingTree]:
    """Every pairing tree with exactly ``n_leaves`` leaves over ``n_gens`` generators."""
    if n_leaves < 1:
        raise DomainError("trees have at least one leaf")
    if n_gens < 1:
        raise DomainError("need at least one generator")
    table: list[list[PairingTree]] = [[], [Leaf(i) for i in range(n_gens)]]
    for size in range(2, n_leaves + 1):
        layer: list[PairingTree] = []
        for left_size in range(1, size):
            for left in table[left_size]:
                for right in table[size - left_size]:
                    for sigma in (PLUS, MINUS):
                        for tau in (PLUS, MINUS):
                            layer.append(Node(sigma, tau, left, right))
        table.append(layer)
    return table[n_leaves]


def iter_rooted(n_leaves: int, n_gens: int) -> Iterator[RootedPresentation]:
    """Every rooted presentation with exactly ``n_leaves`` leaves."""
    for tree in all_trees(n_leaves, n_gens):
        yield RootedPresentation(tree, PLUS)
        yield RootedPresentation(tree, MINUS)


def format_tree(rooted: RootedPresentation, gens: GeneratorSet) -> str:
    """Render as ``[<r> <tree>]`` with ``leaf:<name>`` and ``(pair <st> L R)``."""
    parts = [f"[{sign_char(rooted.root_sign)} "]
    stack: list[PairingTree | str] = [rooted.tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Leaf):
            parts.append(f"leaf:{gens.names[item.gen]}")
        else:
            parts.append(f"(pair {sign_char(item.sigma)}{sign_char(item.tau)} ")
            stack += [")", item.right, " ", item.left]
    parts.append("]")
    return "".join(parts)


_TOKEN_RE = re.compile(r"[()\[\]]|[^\s()\[\]]+")


class _TreeParser:
    def __init__(self, text: str, gens: GeneratorSet, line: int) -> None:
        self.tokens = [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(text)]
        self.pos = 0
        self.gens = gens
        self.line = line
        self.end_column = len(text) + 1

    def peek(self) -> tuple[str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, *expected: str) -> tuple[str, int]:
        item = self.peek()
        if item is None:
            raise ParseError(
                "unexpected end of tree literal",
                line=self.line,
                column=self.end_column,
                expected=expected,
            )
        self.pos += 1
        return item

    def fail(self, message: str, column: int, expected: tuple[str, ...]) -> NoReturn:
        raise ParseError(message, line=self.line, column=column, expected=expected)

    def parse_rooted(self) -> RootedPresentation:
        item = self.peek()
        if item is not None and item[0] == "[":
            self.take()
            token, column = self.take("'+'", "'-'")
            if token not in ("+", "-"):
                self.fail(f"bad root sign {token!r}", column, ("'+'", "'-'"))
            root_sign = parse_sign(token, column=column)
            tree = self.parse_tree()
            closer, column = self.take("']'")
            if closer != "]":
                self.fail(f"expected ']', got {closer!r}", column, ("']'",))
            rooted = RootedPresentation(tree, root_sign)
        else:
            rooted = RootedPresentation(self.parse_tree(), PLUS)
        trailing = self.peek()
        if trailing is not None:
            self.fail(
                f"trailing input {trailing[0]!r}", trailing[1], ("end of literal",)
            )
        return rooted

    def parse_tree(self) -> PairingTree:
        # Each open ``(pair`` waits here with its signs and the children read
        # so far; a finished subtree closes every node it completes.
        open_nodes: list[tuple[Sign, Sign, list[PairingTree]]] = []
        while True:
            token, column = self.take("'leaf:<name>'", "'(pair ...'")
            if token == "(":
                head, hcol = self.take("'pair'")
                if head != "pair":
                    self.fail(f"expected 'pair', got {head!r}", hcol, ("'pair'",))
                signs, scol = self.take("sign pair like '+-'")
                if len(signs) != 2 or any(c not in "+-" for c in signs):
                    self.fail(
                        f"bad sign pair {signs!r}", scol, ("two signs like '+-'",)
                    )
                sigma = parse_sign(signs[0], column=scol)
                open_nodes.append((sigma, parse_sign(signs[1], column=scol + 1), []))
                continue
            if not token.startswith("leaf:"):
                self.fail(
                    f"bad tree token {token!r}",
                    column,
                    ("'leaf:<name>'", "'(pair <st> <tree> <tree>)'"),
                )
            name = token[len("leaf:"):]
            if name not in self.gens.names:
                raise UnknownGeneratorError(name, line=self.line, column=column)
            tree: PairingTree = Leaf(self.gens.names.index(name))
            while open_nodes:
                sigma, tau, children = open_nodes[-1]
                children.append(tree)
                if len(children) < 2:
                    break
                closer, ccol = self.take("')'")
                if closer != ")":
                    self.fail(f"expected ')', got {closer!r}", ccol, ("')'",))
                open_nodes.pop()
                tree = Node(sigma, tau, children[0], children[1])
            else:
                return tree


def parse_tree(text: str, gens: GeneratorSet, *, line: int = 1) -> RootedPresentation:
    """Parse a tree literal; a bare (unrooted) tree gets root sign ``+``."""
    parser = _TreeParser(text, gens, line)
    if parser.peek() is None:
        raise ParseError(
            "empty tree literal",
            line=line,
            column=1,
            expected=("'['", "'('", "'leaf:<name>'"),
        )
    return parser.parse_rooted()
