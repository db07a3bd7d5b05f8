"""The package's public names."""

import flagcalc


def test_all_lists_each_resolvable_name_once_in_sorted_order():
    names = flagcalc.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(flagcalc, name)] == []
