"""Outside-in per-layer attribution.

:class:`LayerTracer` wraps each layer's public entry point from outside the
program and times every call.  A layer's *self* time is its call's duration
minus the time of wrapped calls nested inside it (DAPA's generator call
contains the GRN substrate build, for example), so the self times of all
layers partition the wrapped part of a run and ``wall - sum(self)`` is the
unattributed remainder (task dispatch, scenario assembly, everything the
wrappers do not cover).

Functions are wrapped in every loaded ``repro`` module that binds them, so
``from x import f`` aliases are caught too; the coverage cross-check in
:mod:`perfbench.batch` compares the wrapper totals with the program's own
``generate``/``search`` spans to catch an alias that was missed.

``delays`` is the test-only hook: a sleep of that many seconds is added
inside the named layer's timed region on every call.

:func:`moved_layers` names the layers whose share of the traced wall time
rose between two runs.  Shares, unlike seconds, hold still when the whole
host runs slower, so a uniform slowdown names no layer.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The layers the tracer attributes time to, in report order.
LAYERS = (
    "generators.hapa",
    "generators.dapa",
    "generators.pa",
    "generators.cm",
    "substrate.grn",
    "search.nf",
    "search.fl",
    "search.rw",
    "analysis.paths",
    "core.freeze",
    "scenarios.compile",
)
#: Rise in a layer's share of the traced wall time that counts as a move.
MOVED_SHARE = 0.05
_TABLES = ("self_s", "total_s", "calls", "counts")


class LayerTracer:
    """Times calls into the program's layers while installed (a context manager)."""

    def __init__(self, delays: Optional[Dict[str, float]] = None) -> None:
        self.delays = dict(delays or {})
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Work counts taken from results: hops, rejections, queries, edges.
        self.counts: Dict[str, float] = defaultdict(float)
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        self.reset()

    def reset(self) -> None:
        """Empty the tables; a forked worker process starts from its parent's copy."""
        for name in _TABLES:
            getattr(self, name).clear()
        self._local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Timing
    # ------------------------------------------------------------------ #
    def _call(self, layer: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        child = [0.0]
        stack.append(child)
        started = time.perf_counter()
        try:
            delay = self.delays.get(layer)
            if delay:
                time.sleep(delay)
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            with self._lock:
                self.self_s[layer] += elapsed - child[0]
                self.total_s[layer] += elapsed
                self.calls[layer] += 1

    def _count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def attributed_s(self) -> float:
        return sum(self.self_s.values())

    # ------------------------------------------------------------------ #
    # Wrappers, one per layer entry point
    # ------------------------------------------------------------------ #
    def _wrap_generate(self, original: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(original)
        def generate(generator: Any, *args: Any, **kwargs: Any) -> Any:
            layer = f"generators.{generator.model_name}"
            result = tracer._call(layer, original, generator, *args, **kwargs)
            metadata = result.metadata
            tracer._count(f"{layer}.edges", result.graph.number_of_edges)
            if "total_hops" in metadata:
                tracer._count(f"{layer}.hops", metadata["total_hops"])
                tracer._count(f"{layer}.fallbacks", metadata.get("fallback_attachments", 0))
            if "rejected_attempts" in metadata:
                tracer._count(f"{layer}.rejections", metadata["rejected_attempts"])
            return result

        return generate

    def _wrap_search_curve(self, original: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(original)
        def search_curve(graph: Any, algorithm: Any, *args: Any, **kwargs: Any) -> Any:
            layer = f"search.{algorithm.algorithm_name}"
            curve = tracer._call(layer, original, graph, algorithm, *args, **kwargs)
            tracer._count(f"{layer}.queries", curve.queries)
            return curve

        return search_curve

    def _wrap_walk_curve(self, original: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(original)
        def normalized_walk_curve(*args: Any, **kwargs: Any) -> Any:
            curve = tracer._call("search.rw", original, *args, **kwargs)
            tracer._count("search.rw.queries", curve.queries)
            return curve

        return normalized_walk_curve

    def _wrap_plain(self, layer: str, original: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return tracer._call(layer, original, *args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every layer entry point; :meth:`uninstall` restores them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import repro  # noqa: F401 - loads every layer module
        import repro.scenarios.kinds  # noqa: F401
        import repro.scenarios.measure  # noqa: F401
        from repro.analysis import paths
        from repro.core.graph import Graph
        from repro.generators.base import TopologyGenerator
        import repro.scenarios.compile as scenario_compile
        from repro.search import metrics
        from repro.substrate.grn import GeometricRandomNetwork

        for owner, name, wrapped in (
            (TopologyGenerator, "generate", self._wrap_generate(TopologyGenerator.generate)),
            (GeometricRandomNetwork, "build",
             self._wrap_plain("substrate.grn", GeometricRandomNetwork.build)),
            (Graph, "freeze", self._wrap_plain("core.freeze", Graph.freeze)),
        ):
            self._patches.append((owner, name, getattr(owner, name), wrapped))
            setattr(owner, name, wrapped)
        for module, name, make in (
            (metrics, "search_curve", self._wrap_search_curve),
            (metrics, "normalized_walk_curve", self._wrap_walk_curve),
            (paths, "path_length_statistics",
             functools.partial(self._wrap_plain, "analysis.paths")),
            (scenario_compile, "compile_scenario",
             functools.partial(self._wrap_plain, "scenarios.compile")),
        ):
            original = getattr(module, name)
            wrapped = make(original)
            for loaded in list(sys.modules.values()):
                if (
                    getattr(loaded, "__name__", "").startswith("repro")
                    and getattr(loaded, name, None) is original
                ):
                    self._patches.append((loaded, name, original, wrapped))
                    setattr(loaded, name, wrapped)

    def uninstall(self) -> None:
        originals = {id(wrapped): original for _, _, original, wrapped in self._patches}
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)
        # Modules imported while installed bound the wrappers; restore those too.
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(loaded).items()):
                if id(value) in originals:
                    setattr(loaded, name, originals[id(value)])
        self._patches.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def layer_metrics(self, passes: float) -> Dict[str, float]:
        """Per-layer self time, calls and work counts, per pass (or request)."""
        scale = 1.0 / passes
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0) * scale
            out[f"{layer}.calls"] = self.calls.get(layer, 0) * scale
        counts = self.counts
        hops = counts.get("generators.hapa.hops", 0.0)
        out["generators.hapa.hops"] = hops * scale
        out["generators.hapa.fallbacks"] = counts.get("generators.hapa.fallbacks", 0.0) * scale
        out["generators.hapa.accept_ratio"] = (
            counts.get("generators.hapa.edges", 0.0) / hops if hops else 0.0
        )
        pa_edges = counts.get("generators.pa.edges", 0.0)
        pa_rejections = counts.get("generators.pa.rejections", 0.0)
        out["generators.pa.rejections"] = pa_rejections * scale
        out["generators.pa.accept_ratio"] = (
            pa_edges / (pa_edges + pa_rejections) if pa_edges else 0.0
        )
        for algorithm in ("nf", "fl", "rw"):
            out[f"search.{algorithm}.queries"] = (
                counts.get(f"search.{algorithm}.queries", 0.0) * scale
            )
        return out

    def export(self) -> Dict[str, Any]:
        """The raw tables as JSON-friendly dicts."""
        return {name: dict(getattr(self, name)) for name in _TABLES}

    @classmethod
    def from_exports(cls, payloads: List[Dict[str, Any]]) -> "LayerTracer":
        """A tracer holding the sums of several processes' exported tables."""
        tracer = cls()
        for payload in payloads:
            for name in _TABLES:
                table = getattr(tracer, name)
                for key, value in payload.get(name, {}).items():
                    table[key] += value
        return tracer


def wall_shares(values: Dict[str, float]) -> Dict[str, float]:
    """Each layer's self time over the traced wall (all self times plus the unattributed rest)."""
    self_s = {layer: values.get(f"{layer}.self_s", 0.0) for layer in LAYERS}
    wall = sum(self_s.values()) + values.get("engine.unattributed_s", 0.0)
    return {layer: seconds / wall for layer, seconds in self_s.items()}


def moved_layers(before: Dict[str, float], after: Dict[str, float]) -> List[str]:
    """Layers whose share of the traced wall rose from ``before`` to ``after`` by over ``MOVED_SHARE``."""
    share_before, share_after = wall_shares(before), wall_shares(after)
    return [
        layer for layer in LAYERS if share_after[layer] - share_before[layer] > MOVED_SHARE
    ]
