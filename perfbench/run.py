"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload figs-generate --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
reports the per-layer metrics instead.  The metric names and units are the
ones ``BENCHMARK.json`` lists.  A readable summary goes first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every output is checked; the exit
code is 1 when any check failed and 2 when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import ROOT, TMP_ROOT, ProgramMissing, metric, require_program  # noqa: E402

WORKLOADS = ("figs-generate", "figs-search", "serve-cold")


def load_definition() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def per_layer_metrics(definition: Dict[str, Any], values: Dict[str, float]) -> Dict[str, Any]:
    """Every per-layer metric of the definition; layers a workload never reaches read 0."""
    units = {entry["name"]: entry["unit"] for entry in definition["per_layer"]}
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {', '.join(unknown)}")
    return {name: metric(values.get(name, 0.0), unit) for name, unit in units.items()}


def summary(metrics: Dict[str, Any], attempted: int, failures: List[str]) -> List[str]:
    lines = [f"  {name:<36} {entry['value']:>14.6g} {entry['unit']}"
             for name, entry in metrics.items()]
    lines.append(f"  {'failed_ratio':<36} {len(failures) / attempted:>14.6g} "
                 f"({len(failures)} of {attempted})")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        require_program()
    except ProgramMissing as error:
        print(f"perfbench: cannot run: {error}", file=sys.stderr)
        return 2
    definition = load_definition()
    # The program warns once that compiled kernels are unavailable; the
    # python tier is what this benchmark measures.
    warnings.simplefilter("ignore")

    from perfbench import batch, serve

    module = batch if args.workload in batch.WORKLOADS else serve
    try:
        outcome = module.run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(TMP_ROOT, ignore_errors=True)
    failures: List[str] = outcome["failures"]
    attempted: int = outcome["attempted"]
    if args.trace:
        metrics = per_layer_metrics(definition, outcome["layers"])
    else:
        metrics = outcome["metrics"]
        expected = [entry["name"] for entry in definition["end_to_end"]]
        if sorted(metrics) != sorted(expected):
            raise KeyError(f"end-to-end metrics {sorted(metrics)} != {sorted(expected)}")

    for failure in failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    samples = sorted(outcome["samples"])
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"samples={len(samples)} min={samples[0]:.4g} max={samples[-1]:.4g}")
    print("\n".join(summary(metrics, attempted, failures)))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
