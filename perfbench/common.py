"""Helpers shared by the benchmark workloads: locating the program, stats, memory."""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

#: The checkout root: the benchmark runs from it and writes only inside it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for server caches; removed after every run.
TMP_ROOT = ROOT / ".perfbench-tmp"


class ProgramMissing(RuntimeError):
    """The checkout does not hold the program's sources."""


def require_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` and check ``repro`` loads from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ProgramMissing(f"repro imported from {repro.__file__}, not {SRC}")


def program_env() -> Dict[str, str]:
    """Environment for child processes that import the checkout's ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONWARNINGS"] = "ignore"
    return env


def digest(payload: Any) -> str:
    """SHA-256 of a JSON-serialisable result in canonical form."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def vm_hwm_mb(pid: "int | str" = "self") -> float:
    """Peak resident set size (VmHWM) of one process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (every thread's children list)."""
    children: List[int] = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        text = (task / "children").read_text()
        children.extend(int(value) for value in text.split())
    return children


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}
