"""Batch workloads: builtin scenarios run serially in this process, no cache.

One *pass* runs every scenario of the workload once through the public
``run_scenario`` API; its wall time, from the first ``run_scenario`` call to
the last result, is one ``time_to_result_s`` sample.  Passes repeat until the
measuring window closes, and at least ``SUB_SEEDS`` run; peak memory is read
after the ``SUB_SEEDS``-th, so it does not grow with throughput.  Pass ``i``
of a run with seed ``s`` uses the scale seed ``s * SUB_SEEDS + i % SUB_SEEDS``,
so one run's median averages over several topologies while a seed always
gives the same inputs.

Every scenario result is hashed (sha256 of its canonical JSON).  Digests
recorded in ``digests.json`` pin the outputs of the default seed; for any
seed a repeated sub-seed, and a traced pass beside its untraced twin, must
reproduce the digest of its first pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from perfbench.common import (
    ROOT,
    SRC,
    median,
    metric,
    percentile,
    program_env,
    vm_hwm_mb,
)
from perfbench.common import digest as result_digest

#: Scenario ids and the ``ExperimentScale`` fields of each batch workload.
#: The scale name selects the ``smoke`` sweep grids (fewer cutoffs and stubs,
#: table1's small sizes) while the node counts are larger than the preset's,
#: so one pass takes about a second and a run holds many passes.
WORKLOADS: Dict[str, Tuple[Tuple[str, ...], Dict[str, Any]]] = {
    "figs-generate": (
        ("fig9", "fig10"),
        {"name": "smoke", "nodes": 1000, "search_nodes": 600,
         "substrate_nodes": 1200, "realizations": 1, "queries": 20},
    ),
    "figs-search": (
        ("messaging", "fig7", "table1"),
        {"name": "smoke", "nodes": 4000, "search_nodes": 2000,
         "substrate_nodes": 4000, "realizations": 1, "queries": 40},
    ),
}

#: Distinct scale seeds one run cycles through.
SUB_SEEDS = 8
#: The seed whose digests ``digests.json`` records.
DEFAULT_SEED = 1
#: The percentile of a run's passes reported as ``tail_time_to_result_s``.
#: A run holds 14-30 passes, too few for a percentile with ten beyond it, and
#: the slowest few passes land wherever the host happened to stall (p90 of
#: the passes spread 0.20 over ten seeds, p75 is steadier).
TAIL_PERCENTILE = 75
#: Fresh interpreters started to measure ``setup_s``.
SETUP_REPEATS = 5
DIGESTS_PATH = ROOT / "perfbench" / "digests.json"

_SETUP_SNIPPET = """
import json, sys
sys.path.insert(0, {src!r})
import repro
from repro.experiments.runner import ExperimentScale
from repro.scenarios import compile_scenario, get_builtin_scenario
scale = ExperimentScale(**json.loads({scale!r}))
for scenario_id in {ids!r}:
    compile_scenario(get_builtin_scenario(scenario_id), scale)
"""


def sub_seed(seed: int, index: int) -> int:
    return seed * SUB_SEEDS + index % SUB_SEEDS


def load_recorded() -> Dict[str, Dict[str, Dict[str, str]]]:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def measure_setup(workload: str, repeats: int = SETUP_REPEATS) -> List[float]:
    """Spawn-to-exit seconds of fresh interpreters importing repro and compiling the specs."""
    ids, scale = WORKLOADS[workload]
    code = _SETUP_SNIPPET.format(src=str(SRC), scale=json.dumps(scale), ids=list(ids))
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], check=True, cwd=ROOT, env=program_env()
        )
        samples.append(time.perf_counter() - started)
    return samples


class BatchRunner:
    """Runs passes of one batch workload and checks every result's digest."""

    def __init__(
        self,
        scenario_ids: Tuple[str, ...],
        scale_fields: Dict[str, Any],
        recorded: Optional[Dict[str, Dict[str, str]]] = None,
    ) -> None:
        from repro.experiments.runner import ExperimentScale
        from repro.scenarios import get_builtin_scenario

        self.specs = [get_builtin_scenario(scenario_id) for scenario_id in scenario_ids]
        self._scale = ExperimentScale(**scale_fields)
        self.recorded = recorded or {}
        #: First digest seen per (sub-seed, scenario), the reference for repeats.
        self.seen: Dict[Tuple[int, str], str] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def run_pass(self, seed: int) -> Tuple[float, Dict[str, str]]:
        """One timed pass at scale seed ``seed``; returns (seconds, digests)."""
        from repro.scenarios import run_scenario

        scale = self._scale.with_seed(seed)
        started = time.perf_counter()
        results = [run_scenario(spec, scale=scale) for spec in self.specs]
        seconds = time.perf_counter() - started
        digests = {
            spec.scenario_id: result_digest(result.as_dict())
            for spec, result in zip(self.specs, results)
        }
        self._check(seed, digests)
        return seconds, digests

    def _check(self, seed: int, digests: Dict[str, str]) -> None:
        recorded = self.recorded.get(str(seed), {})
        for scenario_id, value in digests.items():
            self.attempted += 1
            reference = recorded.get(scenario_id) or self.seen.get((seed, scenario_id))
            self.seen.setdefault((seed, scenario_id), value)
            if reference is not None and reference != value:
                self.failures.append(
                    f"{scenario_id} at seed {seed}: digest {value[:12]} != {reference[:12]}"
                )


def traced_pass(runner: BatchRunner, seed: int, tracer: Any) -> Tuple[float, Any]:
    """One pass with the layer wrappers and a telemetry collector installed."""
    from repro.telemetry.collector import TelemetryCollector, use_telemetry

    collector = TelemetryCollector()
    with tracer, use_telemetry(collector):
        seconds, _ = runner.run_pass(seed)
    return seconds, collector


def coverage(tracer: Any, collectors: List[Any]) -> Dict[str, Tuple[int, int, float, float]]:
    """Wrapper vs collector (calls, spans, wrapper seconds, span seconds) per span name.

    Each wrapped call encloses exactly one of the program's spans, so the
    counts must be equal and the wrapper seconds at least the span seconds;
    a missed alias breaks both.
    """
    out = {}
    for span, prefix in (("generate", "generators."), ("search", "search.")):
        calls = sum(n for layer, n in tracer.calls.items() if layer.startswith(prefix))
        wrapped = sum(s for layer, s in tracer.total_s.items() if layer.startswith(prefix))
        spans = sum(int(c.spans.get(span, {}).get("count", 0)) for c in collectors)
        seconds = sum(c.span_seconds(span) for c in collectors)
        out[span] = (calls, spans, wrapped, seconds)
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    scenario_ids, scale_fields = WORKLOADS[workload]
    setup = measure_setup(workload)
    recorded = load_recorded().get(workload, {}) if seed == DEFAULT_SEED else {}
    runner = BatchRunner(scenario_ids, scale_fields, recorded)
    if trace:
        return _traced_run(runner, seed, seconds)

    samples: List[float] = []
    started = time.perf_counter()
    while len(samples) < SUB_SEEDS or time.perf_counter() - started < seconds:
        samples.append(runner.run_pass(sub_seed(seed, len(samples)))[0])
        if len(samples) == SUB_SEEDS:
            peak_rss = vm_hwm_mb()
    metrics = {
        "time_to_result_s": metric(median(samples), "s"),
        "tail_time_to_result_s": metric(percentile(samples, TAIL_PERCENTILE), "s"),
        "results_per_s": metric(len(samples) * len(scenario_ids) / sum(samples), "1/s"),
        "setup_s": metric(median(setup), "s"),
        "peak_rss_mb": metric(peak_rss, "MB"),
    }
    return {"attempted": runner.attempted, "failures": runner.failures,
            "metrics": metrics, "samples": samples}


def _traced_run(runner: BatchRunner, seed: int, seconds: float) -> Dict[str, Any]:
    """Pairs of one untraced and one traced pass on the same sub-seed.

    Which pass of a pair goes first alternates; the traced twin must
    reproduce the untraced digests.
    """
    from perfbench.layers import LayerTracer

    tracer = LayerTracer()
    plain: List[float] = []
    traced: List[float] = []
    collectors = []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        pass_seed = sub_seed(seed, len(traced))
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for with_trace in order:
            if with_trace:
                elapsed, collector = traced_pass(runner, pass_seed, tracer)
                traced.append(elapsed)
                collectors.append(collector)
            else:
                plain.append(runner.run_pass(pass_seed)[0])
    failures = runner.failures
    checks = coverage(tracer, collectors)
    for span, (calls, spans, wrapped, span_s) in checks.items():
        if calls != spans:
            failures.append(f"{span}: wrappers saw {calls} calls, collector {spans} spans")
        if wrapped < span_s:
            failures.append(f"{span}: wrappers timed {wrapped:.3f}s, collector {span_s:.3f}s")
    passes = len(traced)
    wall = sum(traced) / passes
    layer_values = tracer.layer_metrics(passes)
    attributed = tracer.attributed_s() / passes
    layer_values["engine.unattributed_s"] = wall - attributed
    layer_values["trace.attributed_ratio"] = attributed / wall
    layer_values["trace.overhead_ratio"] = median([t / p for t, p in zip(traced, plain)]) - 1.0
    for span, (_, _, wrapped, span_s) in checks.items():
        layer_values[f"trace.{span}_agreement"] = wrapped / span_s if span_s else 0.0
    return {"attempted": runner.attempted, "failures": failures,
            "layers": layer_values, "samples": traced}
