"""Per-layer tracing of diaglab, done from outside the package.

Every public function of the eight layer modules is wrapped everywhere its
name is bound inside the package: in its defining module, and in every
module that imported it with ``from .x import y`` (``cli`` holds
``chromatic_verdict``, ``chromatic`` holds ``build_graph``, and so on).
Wrapping only the defining module would miss those calls.

Each call is a span.  Spans are folded into per-function totals as they
close, rather than kept, because the hot partition functions are called
hundreds of thousands of times in one workload.  A span's self time is its
duration minus the time covered by the spans it directly contains.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("groups", "partitions", "semilattice", "diaggraph", "spectral",
          "chromatic", "symmetry", "cli")

# Functions whose calls and self time are reported, each expected to move
# an end-to-end metric (see README.md).
LISTED = {
    "groups": ("parse_group_spec", "automorphism_group"),
    "partitions": ("supremum", "finer_or_equal", "poset_matrices"),
    "semilattice": ("minimal_partitions", "join_closure", "build_semilattice",
                    "verify_semilattice_hypothesis", "verify_mobius"),
    "symmetry": ("diagonal_group_generators", "schreier_sims_order", "build_chain",
                 "orbit_count", "is_vertex_primitive", "action_on_partitions",
                 "induced_symmetric_closure"),
    "chromatic": ("chromatic_verdict", "chromatic_number_exact",
                  "find_complete_mapping", "validate_coloring"),
    "diaggraph": ("build_graph", "cayley_graph", "same_edge_set", "export_graph",
                  "maximal_cliques", "bron_kerbosch", "clique_cover", "diameter",
                  "is_distance_regular"),
    "spectral": ("spectrum_trace_moments", "verify_stratum_identity"),
    "cli": ("main", "run_check_all"),
}
LISTED_KEYS = tuple(f"{layer}.{name}" for layer, names in LISTED.items() for name in names)

# Per-instance artefacts and the functions that build them; reported as
# builds per `check-all` call.
BUILDS = {
    "minimal_partitions": ("semilattice.minimal_partitions",),
    "graph": ("diaggraph.build_graph",),
    "chain": ("symmetry.schreier_sims_order", "symmetry.build_chain"),
    "generators": ("symmetry.diagonal_group_generators",),
    "automorphism_group": ("groups.automorphism_group",),
    "complete_mapping": ("chromatic.find_complete_mapping",),
}
INSTANCE_KEY = "cli.run_check_all"


class LayerTrace:
    """Context manager that wraps the layer functions and restores them."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = dict.fromkeys(LISTED_KEYS, 0)
        self.self_s: dict[str, float] = dict.fromkeys(LISTED_KEYS, 0.0)
        # Time covered by the children of each open span; index 0 is the
        # caller outside any span.
        self._children = [0.0]
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "LayerTrace":
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"diaglab.{layer}")
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    key = f"{layer}.{name}"
                    self.calls.setdefault(key, 0)
                    self.self_s.setdefault(key, 0.0)
                    wrappers[obj] = self._wrap(key, obj)
        for modname, module in list(sys.modules.items()):
            if modname != "diaglab" and not modname.startswith("diaglab."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
                    self._patched.append((module, name, obj))
        return self

    def __exit__(self, *exc_info) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def end_operation(self) -> None:
        """Drop spans left open by an operation cut off at its deadline."""
        self._children[:] = [0.0]

    def _wrap(self, key: str, fn):
        children = self._children
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[key] += elapsed - children.pop()
                children[-1] += elapsed
                calls[key] += 1

        return traced

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, each as (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for key in LISTED_KEYS:
            out[f"{key}.calls"] = (self.calls[key], "count")
            out[f"{key}.self_s"] = (self.self_s[key], "s")
        for layer in LAYERS:
            total = sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))
            out[f"{layer}.self_s"] = (total, "s")
        instances = self.calls[INSTANCE_KEY]
        for artefact, keys in BUILDS.items():
            builds = sum(self.calls[k] for k in keys)
            ratio = builds / instances if instances else 0.0
            out[f"builds_per_instance.{artefact}"] = (ratio, "count/instance")
        return out
