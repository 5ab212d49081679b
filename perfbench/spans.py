"""Module-level trace of the qres layers.

The tracer wraps the public functions and methods of each qres module, and
the one private stage the ROADMAP names (``_solve_level_radius``), so that
every call into a layer records a span: name, parent span, start and end.
``qcore`` is counted, not spanned: its per-scalar methods are too fine to
span without distorting the run.  Wrappers are installed only for a traced
run and replaced wherever a module looked the original up by name
(``pairings`` imports the chart functions, ``cli`` the operators, the
package ``__init__`` re-exports nearly everything).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

LAYERS = ("qcore", "symfun", "parsing", "operators", "catalogue",
          "currents.quadrature", "currents.chart", "currents.forms",
          "currents.pairings", "currents.estimate", "currents.oned", "cli")

# operator protocol methods that count as public entry points
PUBLIC_DUNDERS = frozenset((
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__call__"))

LEVEL_SOLVE = "currents.pairings._solve_level_radius"

# qcore.CRat methods counted as exact scalar operations
CRAT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
            "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__",
            "conjugate")

_MARK = "__perfbench_traced__"


def _public(name: str) -> bool:
    return not name.startswith("_") or name in PUBLIC_DUNDERS


class Tracer:
    """Spans kept in memory as parallel arrays, plus boundary counters.

    Span ``i`` has name ``names[name_id[i]]``, parent index ``parent[i]``
    (-1 for a root) and times ``start[i]``, ``end[i]`` from
    ``time.perf_counter``.  Spans are created in start order and never
    overlap except by nesting, since the benchmark runs one thread.
    """

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._level_depth = 0
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------- spans

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        observe = _OBSERVERS.get(name)
        is_level = name == LEVEL_SOLVE
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(name)
            if is_level:
                tracer._level_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                if is_level:
                    tracer._level_depth -= 1
                tracer.close(sid)
            if observe is not None:
                observe(tracer, args, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    def count(self, fn: Callable, key: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(counted, _MARK, True)
        return counted

    # ------------------------------------------------------- installation

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, fn: Callable, wrapper: Callable) -> None:
        """Replace ``fn`` in every qres namespace that holds it by name."""
        for mod in qres_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        # import every layer before patching any, so no module binds a
        # wrapper by name at import time and keeps it after restore()
        modules = {layer: importlib.import_module("qres." + layer)
                   for layer in LAYERS}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and _public(name):
                    self._patch_function(obj, self.wrap(obj, f"{layer}.{name}"))
                elif (inspect.isclass(obj) and _public(name)
                      and layer != "qcore"):
                    self._install_class(layer, obj)
        pairings = importlib.import_module("qres.currents.pairings")
        solve = pairings._solve_level_radius
        self._patch_function(solve, self.wrap(solve, LEVEL_SOLVE))
        crat = importlib.import_module("qres.qcore").CRat
        for attr in CRAT_OPS:
            self._patch(crat, attr, self.count(crat.__dict__[attr],
                                               "qcore.crat_ops"))
        self._patch(crat, "__complex__",
                    self.count(crat.__dict__["__complex__"], "qcore.to_complex"))

    def _install_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if not _public(attr):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self.wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self.wrap(raw, name))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- output

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def qres_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "qres" or k.startswith("qres."))]


def find_wrappers() -> List[str]:
    """Names in qres namespaces that still hold a tracing wrapper."""
    found = []
    for mod in qres_modules():
        for attr, value in vars(mod).items():
            if getattr(value, _MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                for cattr, raw in vars(value).items():
                    fn = getattr(raw, "__func__", raw)
                    if getattr(fn, _MARK, False):
                        found.append(f"{mod.__name__}.{attr}.{cattr}")
    return found


def require_untraced() -> None:
    """Fail loudly if an untraced run would see a tracing wrapper."""
    found = find_wrappers()
    if found:
        raise RuntimeError("tracing wrappers left installed: "
                           + ", ".join(sorted(found)[:5]))


# ------------------------------------------------------ boundary counters

def _nodes(a) -> int:
    return int(np.size(a))


def _obs_map(tr: Tracer, args, result) -> None:
    n = _nodes(result[0])
    tr.counts["currents.chart.map_nodes"] += n
    if tr._level_depth:
        tr.counts["currents.pairings.level_evals"] += n


def _obs_level(tr: Tracer, args, result) -> None:
    tr.counts["currents.pairings.level_rays"] += _nodes(args[1])
    tr.counts["currents.pairings.level_active"] += int(np.count_nonzero(result[1]))


def _obs_det4(tr: Tracer, args, result) -> None:
    tr.counts["currents.pairings.volume_nodes"] += _nodes(result)


def _obs_poly_eval(tr: Tracer, args, result) -> None:
    tr.counts["symfun.eval_term_nodes"] += len(args[0].terms) * _nodes(result)


_OBSERVERS = {
    "currents.chart.sphere_to_complex": _obs_map,
    LEVEL_SOLVE: _obs_level,
    "currents.chart.det4": _obs_det4,
    "symfun.ConjPoly.eval_numeric": _obs_poly_eval,
}


# ------------------------------------------------------------ self times

def self_times(parent, start, end) -> np.ndarray:
    """Span duration minus the time its direct children cover.

    Children nest inside their parent on one thread, so subtracting each
    direct child's duration once gives the uncovered part exactly."""
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    own = dur.copy()
    has_parent = parent >= 0
    np.subtract.at(own, parent[has_parent], dur[has_parent])
    return own


def check_span_tree(parent, start, end, own, slack: float = 1e-9) -> None:
    """Raise unless the spans form a tree that self times can split: every
    span closed after it opened, every child inside its parent's interval,
    and no self time below zero (children of one parent do not overlap).
    Under these conditions the self times add up to the root spans."""
    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    bad = np.flatnonzero(end < start)
    if bad.size:
        raise RuntimeError(f"span {bad[0]} ends before it starts or never closed")
    child = np.flatnonzero(parent >= 0)
    outside = child[(start[child] < start[parent[child]])
                    | (end[child] > end[parent[child]])]
    if outside.size:
        raise RuntimeError(f"span {outside[0]} lies outside its parent")
    negative = np.flatnonzero(np.asarray(own) < -slack)
    if negative.size:
        raise RuntimeError(f"span {negative[0]} has negative self time: its "
                           "children overlap")


def category(name: str) -> Optional[str]:
    """Per-layer sub-metric a span name feeds, beside its layer's self_s."""
    return _CATEGORIES.get(name) or _CATEGORY_BY_ATTR.get(
        (name.split(".", 1)[0], name.rsplit(".", 1)[-1]))


_CATEGORIES = {
    "currents.chart.sphere_to_complex": "currents.chart.map_s",
    "currents.chart.chart_jacobian": "currents.chart.jacobian_s",
    "currents.chart.det4": "currents.chart.det_s",
    "currents.chart.det3": "currents.chart.det_s",
    "currents.chart.pullback_3forms": "currents.chart.det_s",
    "currents.chart.graph_rows": "currents.chart.det_s",
    "symfun.numeric_jet": "symfun.jet_s",
}

_CATEGORY_BY_ATTR = {
    ("symfun", "eval_numeric"): "symfun.eval_s",
    ("symfun", "eval_point"): "symfun.eval_s",
    ("symfun", "eval_exact"): "symfun.eval_s",
    ("symfun", "eval"): "symfun.eval_s",
    ("symfun", "wirtinger"): "symfun.wirtinger_s",
    **{("symfun", d): "symfun.arith_s"
       for d in PUBLIC_DUNDERS - {"__call__"} | {"conjugate", "conj"}},
}


def layer_of(name: str) -> str:
    """Layer of a span name: the longest LAYERS prefix, else the harness."""
    best = ""
    for layer in LAYERS:
        if name.startswith(layer + ".") and len(layer) > len(best):
            best = layer
    return best or "harness"
