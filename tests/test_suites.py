from itertools import product

import pytest

from flagcalc.abelian import RelationLattice
from flagcalc.suites import _exact_member


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
