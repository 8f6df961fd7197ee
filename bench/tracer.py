"""Span tracing of spectral_tsp from outside the package.

`Tracer.install` replaces every public function of every spectral_tsp
namespace that binds it (so `graphs.phi_symmetric` and
`bounds.phi_symmetric` are the same wrapper) with a wrapper that records a
span: name, start, end, parent span and the operation it ran under.  The
layer of a span is the module that defines the function.  Two foreign
kernels are wrapped as layers of their own: numpy's symmetric eigensolvers
(`kernel`) and scipy's linear assignment solver, which `bounds` binds by
name (`lsap`).  Wrappers record only between `begin_op` and `end_op`, so the
benchmark's own checks and probes are never traced.
"""

from __future__ import annotations

import functools
import importlib
import json
import types
from collections import defaultdict
from time import perf_counter

import numpy as np
import scipy.optimize

MODULES = ("linalg", "bounds", "solvers", "instances", "graphs", "tsplib", "cli")
LAYERS = MODULES + ("kernel", "lsap")

GRAPH_BUILDERS = {
    "from_edges",
    "complete_graph",
    "complete_bipartite",
    "path_graph",
    "cycle_graph",
    "bow_tie",
    "disjoint_cliques",
    "cyclic_group",
    "dihedral_group",
    "cayley_graph",
    "dihedral_reflection_cayley",
}

# spans whose name gets a tag computed from the wrapped function's result
_TAGGERS = {"tsplib.parse_tsplib": lambda problem: problem.edge_weight_type}


class Tracer:
    def __init__(self):
        # (id, parent, op, name, start, end, tag); parent is -1 for a root span
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._undo: list[tuple] = []

    def begin_op(self, op: int) -> None:
        self._op = op

    def end_op(self) -> None:
        self._op = None

    def _wrap(self, name: str, fn):
        tracer = self
        tagger = _TAGGERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(sid)
            tag = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if tagger is not None:
                    tag = tagger(result)
                return result
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (sid, parent, tracer._op, name, start, end, tag)

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        package = importlib.import_module("spectral_tsp")
        namespaces = [package] + [importlib.import_module(f"spectral_tsp.{m}") for m in MODULES]
        lsap = scipy.optimize.linear_sum_assignment
        wrappers: dict[int, object] = {}
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_"):
                    continue
                if obj is lsap:
                    name = "lsap.linear_sum_assignment"
                elif isinstance(obj, types.FunctionType) and obj.__module__.startswith("spectral_tsp."):
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                else:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(name, obj)
                self._patch(ns, attr, wrappers[id(obj)])
        for attr in ("eigvalsh", "eigh"):
            self._patch(np.linalg, attr, self._wrap(f"kernel.{attr}", getattr(np.linalg, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end, tag in self.spans:
                rec = {"id": sid, "parent": parent, "op": op, "name": name, "start": start, "end": end}
                if tag is not None:
                    rec["tag"] = tag
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(spans: list[tuple], ops: int, op_seconds: float) -> dict[str, float]:
    """Per-layer metrics from the spans of `ops` operations taking `op_seconds` in all.

    Counts and times are per operation, so they repeat exactly when the same
    whole cycles of operations are traced; mean durations are per call.
    """
    child = defaultdict(float)
    for sid, parent, _op, _name, start, end, _tag in spans:
        if parent >= 0:
            child[parent] += end - start
    by_name: dict[str, list[tuple]] = defaultdict(list)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for span in spans:
        sid, _parent, _op, name, start, end, _tag = span
        layer = name.split(".", 1)[0]
        by_name[name].append(span)
        self_s[layer] += end - start - child[sid]
        calls[layer] += 1

    def per_op(count: float) -> float:
        return count / ops

    def mean_ms(selected: list[tuple]) -> float:
        return 1e3 * sum(s[5] - s[4] for s in selected) / len(selected) if selected else 0.0

    def count(*names: str) -> int:
        return sum(len(by_name[n]) for n in names)

    layer_of = {s[0]: s[3].split(".", 1)[0] for s in spans}
    name_of = {s[0]: s[3] for s in spans}

    def outermost(layer: str, names=None) -> list[tuple]:
        out = []
        for s in spans:
            if not s[3].startswith(layer + ".") or (names and s[3].split(".", 1)[1] not in names):
                continue
            parent = s[1]
            if parent >= 0 and layer_of[parent] == layer and (
                not names or name_of[parent].split(".", 1)[1] in names
            ):
                continue
            out.append(s)
        return out

    def has_ancestor_in(span: tuple, layer: str) -> bool:
        parent = span[1]
        while parent >= 0:
            if layer_of[parent] == layer:
                return True
            parent = spans[parent][1]
        return False

    kernel = by_name["kernel.eigvalsh"] + by_name["kernel.eigh"]
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = per_op(calls[layer])
        m[f"{layer}.self_ms"] = 1e3 * per_op(self_s[layer])
        m[f"{layer}.share"] = self_s[layer] / op_seconds
    m["linalg.center_restrict.calls_per_op"] = per_op(count("linalg.center_restrict"))
    m["kernel.eigensolves_per_op"] = per_op(len(kernel))
    m["kernel.eigensolve_ms"] = mean_ms(kernel)
    m["bounds.validations_per_op"] = per_op(count("bounds.check_distance_matrix"))
    m["bounds.lsap_calls_per_op"] = per_op(count("lsap.linear_sum_assignment"))
    m["bounds.lsap_ms"] = mean_ms(by_name["lsap.linear_sum_assignment"])
    for wtype in ("EUC_2D", "ATT", "GEO", "EXPLICIT"):
        m[f"tsplib.parse_ms.{wtype}"] = mean_ms([s for s in by_name["tsplib.parse_tsplib"] if s[6] == wtype])
    m["instances.gen_ms"] = mean_ms(outermost("instances"))
    m["graphs.distance_matrix_ms"] = mean_ms(by_name["graphs.distance_matrix"])
    m["graphs.is_connected_ms"] = mean_ms(by_name["graphs.is_connected"])
    m["graphs.builder_ms"] = 1e3 * per_op(sum(s[5] - s[4] for s in outermost("graphs", GRAPH_BUILDERS)))
    m["graphs.phi_calls_per_graph"] = per_op(
        sum(1 for s in by_name["bounds.phi_symmetric"] if has_ancestor_in(s, "graphs"))
    )
    for solver in ("held_karp", "brute_force", "two_opt"):
        m[f"solvers.{solver}_ms"] = mean_ms(by_name[f"solvers.{solver}"])
    return m
