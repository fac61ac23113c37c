"""Outside-in layer trace for the benchmark.

The tracer replaces the public entry points of the library's layers with
timing wrappers. Each wrapper is installed at every module attribute of the
``eflcolor`` package that holds the original function, because callers look
functions up through their own module's globals (``cli.search_labeling``,
``arithmetic.element_options``, ``coloring.check_proper``, ...). Nothing under
``src/`` changes and ``restore`` puts every original object back.

Time is kept per layer as self time: a call's duration minus the time of the
wrapped calls made inside it. Inside one operation the self times of all
layers plus the remainder (``cli.self_s``: argument parsing, JSON, file I/O)
add up to the operation's duration. No span objects are kept: the option
enumeration alone is entered ~10^5 times per search operation, so every layer
is an accumulator.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

from eflcolor.errors import BudgetExceededError

# Public functions wrapped, by module.
LAYERS = {
    "files": (
        "parse_instance",
        "serialize_instance",
        "parse_coloring",
        "serialize_coloring",
        "parse_hypergraph",
        "serialize_hypergraph",
    ),
    "model": ("validate_decomposition", "intersection_graph", "check_proper"),
    "arithmetic": (
        "search_labeling",
        "element_options",
        "find_certificate",
        "apply_labeling",
    ),
    "coloring": ("color_decomposition",),
    "hypergraph": (
        "decomposition_to_quasicluster",
        "quasicluster_to_decomposition",
    ),
    "oracle": ("exact_chromatic_index",),
}

LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class LayerStats:
    """What one wrapped function did over the traced operations."""

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.found = 0
        self.none = 0
        self.budget = 0
        self.empty = 0
        self.distinct = 0
        self.nodes = 0
        self.zero_node = 0


class Tracer:
    """Wraps the layers; counts only while an operation is open."""

    def __init__(self) -> None:
        self.stats = {name: LayerStats() for name in LAYER_NAMES}
        self.ops = 0
        self.op_s = 0.0
        self.cli_self_s = 0.0
        self._stack: list[list[float]] = []
        self._option_keys: set = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        package = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "eflcolor" or name.startswith("eflcolor."))
        ]
        for mod_name, fns in LAYERS.items():
            home = sys.modules[f"eflcolor.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def patched_attributes(self) -> list[tuple[object, str, object]]:
        """(module, attribute, original) for every attribute replaced."""
        return list(self._patched)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- operations ---------------------------------------------------------

    def begin_op(self) -> None:
        self._stack.clear()
        self._stack.append([0.0])
        self._option_keys.clear()

    def end_op(self, duration: float) -> None:
        covered = self._stack[0][0]
        self._stack.clear()
        self.ops += 1
        self.op_s += duration
        self.cli_self_s += duration - covered
        self.stats["arithmetic.element_options"].distinct += len(self._option_keys)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        frames = self._stack
        observe = _OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not frames:
                return fn(*args, **kwargs)
            frame = [0.0]
            frames.append(frame)
            result = None
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                duration = perf_counter() - start
                frames.pop()
                frames[-1][0] += duration
                stats.calls += 1
                stats.self_s += duration - frame[0]
                if observe is not None:
                    observe(tracer, stats, args, result, error)

        return wrapper

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        s = self.stats
        search = s["arithmetic.search_labeling"]
        options = s["arithmetic.element_options"]
        certs = s["arithmetic.find_certificate"]
        chi = s["oracle.exact_chromatic_index"]
        files_s = sum(s[f"files.{fn}"].self_s for fn in LAYERS["files"])
        return {
            "arithmetic.search_labeling.s": (search.self_s, "s"),
            "arithmetic.search_labeling.calls": (search.calls, "count"),
            "arithmetic.search_labeling.found": (search.found, "count"),
            "arithmetic.search_labeling.none": (search.none, "count"),
            "arithmetic.search_labeling.budget": (search.budget, "count"),
            "arithmetic.element_options.calls": (options.calls, "count"),
            "arithmetic.element_options.s": (options.self_s, "s"),
            "arithmetic.element_options.distinct_frac": (
                _ratio(options.distinct, options.calls),
                "ratio",
            ),
            "arithmetic.element_options.empty_frac": (
                _ratio(options.empty, options.calls),
                "ratio",
            ),
            "arithmetic.find_certificate.s": (certs.self_s, "s"),
            "arithmetic.find_certificate.calls": (certs.calls, "count"),
            "arithmetic.find_certificate.found_frac": (
                _ratio(certs.found, certs.calls),
                "ratio",
            ),
            "arithmetic.apply_labeling.s": (s["arithmetic.apply_labeling"].self_s, "s"),
            "model.validate_decomposition.s": (
                s["model.validate_decomposition"].self_s,
                "s",
            ),
            "model.intersection_graph.s": (s["model.intersection_graph"].self_s, "s"),
            "model.intersection_graph.calls": (
                s["model.intersection_graph"].calls,
                "count",
            ),
            "model.check_proper.s": (s["model.check_proper"].self_s, "s"),
            "files.parse_instance.s": (s["files.parse_instance"].self_s, "s"),
            "files.parse_instance.calls": (s["files.parse_instance"].calls, "count"),
            "files.s": (files_s, "s"),
            "coloring.color_decomposition.s": (
                s["coloring.color_decomposition"].self_s,
                "s",
            ),
            "hypergraph.decomposition_to_quasicluster.s": (
                s["hypergraph.decomposition_to_quasicluster"].self_s,
                "s",
            ),
            "hypergraph.quasicluster_to_decomposition.s": (
                s["hypergraph.quasicluster_to_decomposition"].self_s,
                "s",
            ),
            "oracle.exact_chromatic_index.s": (chi.self_s, "s"),
            "oracle.exact_chromatic_index.nodes": (chi.nodes, "count"),
            "oracle.exact_chromatic_index.zero_node_frac": (
                _ratio(chi.zero_node, chi.calls),
                "ratio",
            ),
            "oracle.exact_chromatic_index.budget": (chi.budget, "count"),
            "cli.self_s": (self.cli_self_s, "s"),
        }


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _observe_search(tracer, stats, args, result, error):
    if isinstance(error, BudgetExceededError):
        stats.budget += 1
    elif error is None:
        if result is None:
            stats.none += 1
        else:
            stats.found += 1


def _observe_options(tracer, stats, args, result, error):
    vertices, n = args[0], args[1]
    tracer._option_keys.add((n, frozenset(vertices)))
    if error is None and not result:
        stats.empty += 1


def _observe_certificate(tracer, stats, args, result, error):
    if error is None and result is not None:
        stats.found += 1


def _observe_chi(tracer, stats, args, result, error):
    # A budget-out explored its whole budget; a proof reports its node count.
    if isinstance(error, BudgetExceededError):
        stats.budget += 1
        stats.nodes += error.budget
    elif error is None:
        stats.nodes += result.nodes_explored
        if result.nodes_explored == 0:
            stats.zero_node += 1


_OBSERVERS = {
    "arithmetic.search_labeling": _observe_search,
    "arithmetic.element_options": _observe_options,
    "arithmetic.find_certificate": _observe_certificate,
    "oracle.exact_chromatic_index": _observe_chi,
}
