"""Per-layer tracing, installed from outside the program.

A layer is one module of the package: ``cli``, ``suites``, ``words``,
``trees``, ``abelian`` and ``plane``.  :class:`Tracer` replaces, on the
module objects, the functions each module offers the others:

* the functions in the package's ``__all__``, on their defining module;
* every module function another module calls through the module attribute
  (``trees._eval`` from ``suites``, ``planes.connected_sum`` from ``cli``),
  found by reading the package's source with :mod:`ast`;
* the entries of ``suites.SUITES``;
* ``cli.run_script``, which the benchmark itself calls.

Each replacement opens a span of its layer unless the innermost open span
already belongs to that layer, so a nested call within a layer counts toward
the outermost call only.  A layer's self time is the time inside its spans
minus the time inside spans of other layers opened from them.  A call made
through a name bound by ``from ... import`` never passes a replacement, and
its time counts toward the caller's layer; so do method calls, which go
through the class and not the module.

Counters ride on the same boundaries: ``move_closure`` sizes and the
neighbours ``move_closure`` generates, ``connected_sum`` calls, the ones that
raised ``RerouteError`` inside ``connected_sum_auto``, the largest
denominator in the loops ``connected_sum`` returned, and the largest entry of
every echelon basis a ``RelationLattice`` builds.
"""

from __future__ import annotations

import ast
import functools
import inspect
import time
from pathlib import Path
from types import ModuleType
from typing import Any, Callable

LAYERS = ("cli", "suites", "words", "trees", "abelian", "plane")
SUITE_NAMES = ("involution", "laws", "trees", "assoc", "monoid", "homology", "oracle")
COUNTERS = (
    "trees.closure_members",
    "trees.closure_neighbors",
    "abelian.basis_max_bits",
    "plane.sum_calls",
    "plane.base_retries",
    "plane.max_den_bits",
)


class _Layer:
    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0


def cross_module_targets(package: ModuleType) -> set[tuple[str, str]]:
    """``(layer, name)`` for every ``<module>.<name>`` reference between modules."""
    targets = set()
    for layer in LAYERS:
        path = Path(getattr(package, layer).__file__)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module:
                for alias in node.names:
                    if alias.name in LAYERS:
                        aliases[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
                and aliases[node.value.id] != layer
            ):
                targets.add((aliases[node.value.id], node.attr))
    return targets


class Tracer:
    """Wraps the package's inter-module functions; :meth:`uninstall` restores them."""

    def __init__(self, package: ModuleType) -> None:
        self.package = package
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.layers = {name: _Layer() for name in LAYERS}
        self.suite_s = {name: 0.0 for name in SUITE_NAMES}
        self.counters = {name: 0 for name in COUNTERS}
        # Per-round self and suite times, appended by end_round().
        self.rounds: dict[str, list[float]] = {
            **{f"{name}.self_s": [] for name in LAYERS},
            **{f"suite.{name}_s": [] for name in SUITE_NAMES},
        }
        self._totals = dict.fromkeys(self.rounds, 0.0)
        self._stack: list[list[Any]] = []
        self._auto_depth = 0
        self._restore: list[Callable[[], None]] = []

    def end_round(self) -> None:
        """Record the self and suite times of the round that just ended."""
        totals = {f"{name}.self_s": layer.self_s for name, layer in self.layers.items()}
        totals.update({f"suite.{name}_s": s for name, s in self.suite_s.items()})
        for key, total in totals.items():
            self.rounds[key].append(total - self._totals[key])
        self._totals = totals

    # --- targets ------------------------------------------------------------

    def _targets(self) -> list[tuple[str, str]]:
        found = {("cli", "run_script")} | cross_module_targets(self.package)
        for name in self.package.__all__:
            obj = getattr(self.package, name)
            if inspect.isfunction(obj):
                found.add((obj.__module__.rsplit(".", 1)[-1], name))
        return sorted(
            (layer, name)
            for layer, name in found
            if layer in self.modules
            and inspect.isfunction(getattr(self.modules[layer], name, None))
            and getattr(self.modules[layer], name).__module__
            == self.modules[layer].__name__
        )

    def install(self) -> None:
        probes = {
            ("trees", "move_closure"): self._probe_closure,
            ("plane", "connected_sum"): self._probe_sum,
            ("plane", "connected_sum_auto"): self._probe_auto,
        }
        for layer, name in self._targets():
            module = self.modules[layer]
            fn = getattr(module, name)
            probe = probes.get((layer, name))
            wrapped = self._span(layer, probe(fn) if probe else fn)
            self._patch(module, name, wrapped)
        trees = self.modules["trees"]
        self._patch(trees, "neighbors", self._probe_neighbors(trees.neighbors))
        suites = self.modules["suites"].SUITES
        for name, fn in list(suites.items()):
            suites[name] = self._span("suites", self._suite_timer(name, fn))
            self._restore.append(functools.partial(suites.__setitem__, name, fn))
        self._probe_echelon(self.modules["abelian"].RelationLattice)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        original = owner.__dict__[name]
        setattr(owner, name, value)
        self._restore.append(functools.partial(setattr, owner, name, original))

    # --- spans --------------------------------------------------------------

    def _span(self, layer_name: str, fn: Callable) -> Callable:
        layer = self.layers[layer_name]
        stack = self._stack
        clock = time.perf_counter

        def close(frame: list[Any], start: float) -> None:
            elapsed = clock() - start
            stack.pop()
            layer.self_s += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args: Any, **kwargs: Any) -> Any:
                if not (stack and stack[-1][0] is layer):
                    layer.calls += 1
                inner = fn(*args, **kwargs)
                while True:
                    if stack and stack[-1][0] is layer:
                        item = next(inner, _DONE)
                    else:
                        frame = [layer, 0.0]
                        stack.append(frame)
                        start = clock()
                        try:
                            item = next(inner, _DONE)
                        finally:
                            close(frame, start)
                    if item is _DONE:
                        return
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if stack and stack[-1][0] is layer:
                return fn(*args, **kwargs)
            layer.calls += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, start)

        return wrapper

    def _suite_timer(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.suite_s[name] += time.perf_counter() - start

        return timed

    # --- counters -----------------------------------------------------------

    def _probe_closure(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def probe(*args: Any, **kwargs: Any) -> Any:
            closure = fn(*args, **kwargs)
            self.counters["trees.closure_members"] += len(closure)
            return closure

        return probe

    def _probe_neighbors(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def probe(*args: Any, **kwargs: Any) -> Any:
            for item in fn(*args, **kwargs):
                self.counters["trees.closure_neighbors"] += 1
                yield item

        return probe

    def _probe_sum(self, fn: Callable) -> Callable:
        reroute = self.package.errors.RerouteError

        @functools.wraps(fn)
        def probe(*args: Any, **kwargs: Any) -> Any:
            self.counters["plane.sum_calls"] += 1
            try:
                loop = fn(*args, **kwargs)
            except reroute:
                if self._auto_depth:
                    self.counters["plane.base_retries"] += 1
                raise
            bits = max(
                max(v.x.denominator.bit_length(), v.y.denominator.bit_length())
                for v in loop.vertices
            )
            if bits > self.counters["plane.max_den_bits"]:
                self.counters["plane.max_den_bits"] = bits
            return loop

        return probe

    def _probe_auto(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def probe(*args: Any, **kwargs: Any) -> Any:
            self._auto_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._auto_depth -= 1

        return probe

    def _probe_echelon(self, lattice_class: type) -> None:
        original = lattice_class.__dict__["_echelon"]
        build = original.func

        def echelon(lattice: Any) -> Any:
            result = build(lattice)
            bits = max(
                (abs(x).bit_length() for row in result[0] for x in row), default=0
            )
            if bits > self.counters["abelian.basis_max_bits"]:
                self.counters["abelian.basis_max_bits"] = bits
            return result

        probe = functools.cached_property(echelon)
        probe.__set_name__(lattice_class, "_echelon")
        self._patch(lattice_class, "_echelon", probe)


_DONE = object()
