"""Self-tests of the benchmark harness (no program code is changed).

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.  The workloads
here are builtin scenarios at the ``smoke`` scale, so the tests take seconds.
"""

from __future__ import annotations

import dataclasses

import pytest

from perfbench.common import require_program

require_program()

from repro.experiments.runner import ExperimentScale  # noqa: E402

from perfbench.batch import BatchRunner, coverage, traced_pass  # noqa: E402
from perfbench.layers import LAYERS, LayerTracer, moved_layers  # noqa: E402

SMOKE = {
    name: value
    for name, value in dataclasses.asdict(ExperimentScale.smoke()).items()
    if name != "seed"
}
SCENARIOS = ("messaging", "fig7", "table1")
SEED = 5
DELAY_S = 0.1


def _traced(runner: BatchRunner, tracer: LayerTracer):
    wall, collector = traced_pass(runner, SEED, tracer)
    values = tracer.layer_metrics(1)
    values["engine.unattributed_s"] = wall - tracer.attributed_s()
    return wall, values, collector


def test_injected_delay_names_the_delayed_layer() -> None:
    runner = BatchRunner(SCENARIOS, SMOKE)
    runner.run_pass(SEED)  # first pass loads everything lazily imported
    wall_before, before, collector = _traced(runner, LayerTracer())
    delayed = LayerTracer(delays={"analysis.paths": DELAY_S})
    wall_after, after, _ = _traced(runner, delayed)

    injected = DELAY_S * delayed.calls["analysis.paths"]
    assert injected >= 0.4
    threshold = injected / 2
    assert moved_layers(before, after) == ["analysis.paths"]
    assert wall_after - wall_before > threshold
    for layer in LAYERS:
        if layer != "analysis.paths":
            change = after[f"{layer}.self_s"] - before[f"{layer}.self_s"]
            assert abs(change) < threshold, layer
    # The delay changes timing only: outputs, calls and the collector agree.
    assert runner.failures == []
    for calls, spans, _, _ in coverage(delayed, [collector]).values():
        assert calls == spans


def test_corrupted_recorded_digest_is_a_failure() -> None:
    runner = BatchRunner(("fig7",), SMOKE, recorded={str(SEED): {"fig7": "0" * 64}})
    runner.run_pass(SEED)
    assert runner.attempted == 1
    assert len(runner.failures) == 1 and "fig7" in runner.failures[0]


def test_repeated_seed_must_reproduce_its_digest() -> None:
    runner = BatchRunner(("fig7",), SMOKE)
    runner.run_pass(SEED)
    runner.seen[(SEED, "fig7")] = "f" * 64
    runner.run_pass(SEED)
    assert runner.attempted == 2 and len(runner.failures) == 1


def test_uninstall_restores_every_alias() -> None:
    import repro.analysis.paths as paths
    import repro.scenarios.kinds as kinds
    import repro.search.metrics as metrics

    original = paths.path_length_statistics
    with LayerTracer():
        assert kinds.path_length_statistics is not original
        assert paths.path_length_statistics is kinds.path_length_statistics
    assert kinds.path_length_statistics is original
    assert paths.path_length_statistics is original
    assert not hasattr(metrics.search_curve, "__wrapped__")


def test_tracer_refuses_a_second_install() -> None:
    tracer = LayerTracer()
    with tracer:
        with pytest.raises(RuntimeError):
            tracer.install()


def test_uniform_slowdown_names_no_layer() -> None:
    before = {f"{layer}.self_s": 0.1 for layer in LAYERS}
    before["engine.unattributed_s"] = 0.05
    after = {name: 1.4 * value for name, value in before.items()}
    assert moved_layers(before, after) == []
