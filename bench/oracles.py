"""Exact reference computations for the benchmark, written apart from ``src/``.

Nothing here imports flagcalc.  Words are lists of ``(name, sign)`` pairs with
``sign`` one of ``"+"`` and ``"-"``; trees, loops and lattices are handled as
the text the CLI reads and prints, so every check compares the program's
output with an answer reached by a different route:

* words: string and count arithmetic for the involution, the lex-least class
  member, the pairing product, the signed multiset and the abelian vector;
* trees: the left-comb literal of a word, built without recursion, and an
  iterative evaluator for any tree literal that pushes the sign down the tree;
* loops: winding numbers by an integer crossing count after scaling every
  coordinate to one common denominator, and exponent sums of crossing words;
* lattices: membership by forward substitution against a known triangular
  basis, and the canonical coset representative from that basis's Hermite
  normal form.
"""

from __future__ import annotations

import math
import re

Word = list[tuple[str, str]]

_FLIP = {"+": "-", "-": "+"}


# --- words -----------------------------------------------------------------


def parse_word(text: str) -> Word:
    """``"a+ b-"`` -> ``[("a", "+"), ("b", "-")]``."""
    return [(token[:-1], token[-1]) for token in text.split()]


def format_word(word: Word) -> str:
    return " ".join(name + sign for name, sign in word)


def involution(word: Word) -> Word:
    """Reverse the word and flip every sign."""
    return [(name, _FLIP[sign]) for name, sign in reversed(word)]


def canonical(word: Word, gens: list[str]) -> Word:
    """Lex-least of the word and its involution.

    Letters compare by generator position first, then ``+`` before ``-``; a
    proper prefix sorts first.
    """
    def key(w: Word) -> list[tuple[int, int]]:
        return [(gens.index(name), sign == "-") for name, sign in w]

    return min(word, involution(word), key=key)


def class_lines(word: Word, gens: list[str]) -> str:
    """What ``class <word>`` prints."""
    canon = canonical(word, gens)
    anti = involution(canon)
    degenerate = "true" if canon == anti else "false"
    return (
        f"canonical: {format_word(canon)}\n"
        f"anti: {format_word(anti)}\n"
        f"degenerate: {degenerate}"
    )


def pair(st: str, u: Word, v: Word, gens: list[str]) -> Word:
    """``u`` at sign ``st[0]``, then ``v`` at the opposite of ``st[1]``.

    A class at ``+`` is its canonical member and at ``-`` the involution of it.
    """
    def signed_form(w: Word, sign: str) -> Word:
        canon = canonical(w, gens)
        return canon if sign == "+" else involution(canon)

    return signed_form(u, st[0]) + signed_form(v, _FLIP[st[1]])


def multiset_text(word: Word, gens: list[str]) -> str:
    """What ``ms <word>`` prints: ``{a+:2, a-:0, ...}`` in generator order."""
    parts = []
    for name in gens:
        parts.append(f"{name}+:{word.count((name, '+'))}")
        parts.append(f"{name}-:{word.count((name, '-'))}")
    return "{" + ", ".join(parts) + "}"


def abelian_text(word: Word, gens: list[str]) -> str:
    """What ``ab <word>`` prints: ``#c+ - #c-`` per generator."""
    return vector_text(
        [word.count((name, "+")) - word.count((name, "-")) for name in gens]
    )


def vector_text(values: list[int]) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


# --- trees -----------------------------------------------------------------


def left_comb(word: Word) -> str:
    """The literal ``word2tree`` prints: a left comb evaluating to ``word``.

    One letter ``c^s`` is ``[s leaf:c]``.  Otherwise the bottom node is
    ``(pair s0 -s1 leaf:c0 leaf:c1)`` and each later letter ``c^s`` hangs as
    the right leaf of a ``(pair +(-s) ...)`` node above it; the root sign is
    ``+``.
    """
    if len(word) == 1:
        name, sign = word[0]
        return f"[{sign} leaf:{name}]"
    opens = "".join(f"(pair +{_FLIP[sign]} " for _, sign in reversed(word[2:]))
    (n0, s0), (n1, s1) = word[0], word[1]
    bottom = f"(pair {s0}{_FLIP[s1]} leaf:{n0} leaf:{n1})"
    closes = "".join(f" leaf:{name})" for name, _ in word[2:])
    return f"[+ {opens}{bottom}{closes}]"


_TREE_TOKEN = re.compile(r"[()\[\]]|[^\s()\[\]]+")


def _parse_tree(text: str) -> tuple[str, object]:
    """Iterative parse of ``[r T]`` (or a bare ``T``) into nested tuples.

    A leaf is ``("leaf", name)``, a node ``(sigma, tau, left, right)``.
    """
    tokens = _TREE_TOKEN.findall(text)
    root = "+"
    if tokens and tokens[0] == "[":
        if tokens[-1] != "]":
            raise ValueError("unclosed root bracket")
        root, tokens = tokens[1], tokens[2:-1]
    stack: list[list[object]] = []
    done: object = None
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if token == "(":
            if tokens[i + 1] != "pair":
                raise ValueError(f"expected 'pair' at token {i + 1}")
            stack.append([tokens[i + 2]])
            i += 3
            continue
        if token == ")":
            signs, left, right = stack.pop()
            done = (signs[0], signs[1], left, right)
        elif token.startswith("leaf:"):
            done = ("leaf", token[len("leaf:"):])
        else:
            raise ValueError(f"bad tree token {token!r}")
        i += 1
        if stack:
            stack[-1].append(done)
            done = None
    if stack or done is None:
        raise ValueError("unbalanced tree literal")
    return root, done


def eval_tree_literal(text: str) -> Word:
    """The word a tree literal evaluates to.

    A node at sign ``+`` is ``left`` at ``sigma`` then ``right`` at ``-tau``;
    at sign ``-`` it is the involution of that, which is ``right`` at ``tau``
    then ``left`` at ``-sigma``.  A leaf at sign ``s`` is its generator at
    ``s``.  The sign is pushed down with an explicit stack, so depth is free.
    """
    root, tree = _parse_tree(text)
    out: Word = []
    todo: list[tuple[object, str]] = [(tree, root)]
    while todo:
        node, sign = todo.pop()
        if node[0] == "leaf":
            out.append((node[1], sign))
            continue
        sigma, tau, left, right = node
        if sign == "+":
            first, second = (left, sigma), (right, _FLIP[tau])
        else:
            first, second = (right, tau), (left, _FLIP[sigma])
        todo.append(second)
        todo.append(first)
    return out


# --- loops -----------------------------------------------------------------

_POINT = re.compile(r"\(([^(),]+),([^(),]+)\)")


def parse_rational(text: str) -> tuple[int, int]:
    """``"-3/8"`` -> ``(-3, 8)``; integers get denominator 1."""
    num, _, den = text.strip().partition("/")
    return int(num), int(den) if den else 1


def parse_points(text: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    return [
        (parse_rational(m.group(1)), parse_rational(m.group(2)))
        for m in _POINT.finditer(text)
    ]


def loop_walk(literal: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Vertices of ``loop <flag> <F|B> (x,y) ...`` in traversal order from the flag."""
    _, flag, traversal, rest = literal.split(None, 3)
    points = parse_points(rest)
    k = int(flag)
    walk = points[k:] + points[:k]
    if traversal == "B":
        walk = walk[:1] + walk[:0:-1]
    return walk


def winding_numbers(literal: str, punctures: str) -> list[int]:
    """Winding number of a loop literal around each puncture of a
    ``punctures: (x,y) ...`` line, in integer arithmetic.

    Every coordinate is scaled by the least common multiple of all
    denominators, then the standard crossing count runs on integers: an
    upward edge with the puncture strictly left of it counts +1, a downward
    edge with the puncture strictly right of it counts -1.
    """
    walk = loop_walk(literal)
    centres = parse_points(punctures)
    scale = 1
    for (xn, xd), (yn, yd) in walk + centres:
        scale = math.lcm(scale, xd, yd)

    def scaled(point: tuple[tuple[int, int], tuple[int, int]]) -> tuple[int, int]:
        (xn, xd), (yn, yd) = point
        return xn * (scale // xd), yn * (scale // yd)

    vertices = [scaled(v) for v in walk]
    result = []
    for px, py in (scaled(c) for c in centres):
        total = 0
        for i, (ax, ay) in enumerate(vertices):
            bx, by = vertices[(i + 1) % len(vertices)]
            side = (bx - ax) * (py - ay) - (px - ax) * (by - ay)
            if ay <= py < by and side > 0:
                total += 1
            elif by <= py < ay and side < 0:
                total -= 1
        result.append(total)
    return result


_FREE_LETTER = re.compile(r"x(\d+)(\^-1)?")


def free_word_exponents(text: str, n_punctures: int) -> list[int] | None:
    """Exponent sums of a printed crossing word such as ``x1 x2^-1``.

    Returns None when the text is not a freely reduced word in
    ``x1 .. x<n_punctures>``.
    """
    letters = []
    for token in text.split():
        m = _FREE_LETTER.fullmatch(token)
        if m is None or not 1 <= int(m.group(1)) <= n_punctures:
            return None
        letter = (int(m.group(1)) - 1, -1 if m.group(2) else 1)
        if letters and letters[-1] == (letter[0], -letter[1]):
            return None
        letters.append(letter)
    sums = [0] * n_punctures
    for index, exponent in letters:
        sums[index] += exponent
    return sums


# --- lattices --------------------------------------------------------------


def triangular_member(basis: list[list[int]], vector: list[int]) -> bool:
    """Is ``vector`` an integer combination of the rows of ``basis``?

    ``basis`` is square and upper triangular with a nonzero diagonal, so the
    coefficients are forced column by column and must all be integers.
    """
    coeffs: list[int] = []
    for j, value in enumerate(vector):
        rest = value - sum(c * basis[i][j] for i, c in enumerate(coeffs))
        q, r = divmod(rest, basis[j][j])
        if r:
            return False
        coeffs.append(q)
    return True


def hermite_from_triangular(basis: list[list[int]]) -> list[list[int]]:
    """Hermite normal form of the row lattice of an upper triangular basis.

    Diagonal entries become positive and every entry above a diagonal entry
    is reduced into ``[0, diagonal)``; the form is unique for the lattice.
    """
    rows = [row[:] if row[i] > 0 else [-x for x in row] for i, row in enumerate(basis)]
    for j in range(len(rows)):
        for i in range(j):
            q = rows[i][j] // rows[j][j]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[j])]
    return rows


def coset_rep(hermite: list[list[int]], vector: list[int]) -> list[int]:
    """Canonical representative: coordinate ``j`` reduced into ``[0, h_jj)``."""
    v = list(vector)
    for j, row in enumerate(hermite):
        q = v[j] // row[j]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return v
