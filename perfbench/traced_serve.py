"""Run ``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python3 perfbench/traced_serve.py <report-dir> serve [options]``.
The arguments after the report directory go to the ``repro`` command line
unchanged.  The server's worker pool forks from this process, so every
worker inherits the wrappers; each process, the server and every pool
worker, writes its own tables to ``<report-dir>/<pid>.json`` when it exits.
"""

from __future__ import annotations

import json
import multiprocessing.util
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import require_program  # noqa: E402
from perfbench.layers import LayerTracer  # noqa: E402


def write_report(tracer: LayerTracer, report_dir: Path) -> None:
    (report_dir / f"{os.getpid()}.json").write_text(json.dumps(tracer.export()))


def main() -> int:
    require_program()
    from repro.cli import main as repro_main

    report_dir = Path(sys.argv[1])
    report_dir.mkdir(parents=True, exist_ok=True)

    def in_worker(tracer: LayerTracer) -> None:
        # Runs in each forked pool worker; the finalizer runs when the worker
        # leaves its loop at pool shutdown.
        tracer.reset()
        multiprocessing.util.Finalize(
            None, write_report, args=(tracer, report_dir), exitpriority=10
        )

    with LayerTracer() as tracer:
        multiprocessing.util.register_after_fork(tracer, in_worker)
        code = repro_main(sys.argv[2:])
    write_report(tracer, report_dir)
    return code


if __name__ == "__main__":
    sys.exit(main())
