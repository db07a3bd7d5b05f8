"""A fresh import of the package releases the copy it replaces."""

import gc
import importlib
import sys
import weakref


def _drop_package() -> dict:
    names = [m for m in sys.modules if m == "flagcalc" or m.startswith("flagcalc.")]
    return {name: sys.modules.pop(name) for name in names}


def test_reimported_package_is_released():
    saved = _drop_package()
    try:
        cli = importlib.import_module("flagcalc.cli")
        classes = (
            cli.Session,
            cli.trees.Node,
            cli.words.SignedWord,
            cli.planes.Point,
            cli.abelian.RelationLattice,
        )
        refs = [weakref.ref(cls) for cls in classes]
        del cli, classes
        _drop_package()
        importlib.import_module("flagcalc.cli")
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        _drop_package()
        sys.modules.update(saved)
