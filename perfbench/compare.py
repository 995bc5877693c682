"""Name the layers whose self time moved between two traced runs.

Usage::

    python3 perfbench/compare.py before.txt after.txt

Each file holds the saved output of one ``run.py --trace 1`` run of the
same workload (only the last JSON line, the result, is read).  Prints every
layer's self time per pass and its share of the traced wall time, before and
after, and names the layers whose share rose by more than
``layers.MOVED_SHARE``; exits 1 when any did.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.layers import LAYERS, moved_layers, wall_shares  # noqa: E402


def load(path: str) -> Dict[str, float]:
    """The metrics of the last JSON line in a saved ``run.py`` output."""
    lines = [line for line in Path(path).read_text().splitlines() if line.startswith("{")]
    return {name: entry["value"] for name, entry in json.loads(lines[-1])["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args()
    before, after = load(args.before), load(args.after)
    share_before, share_after = wall_shares(before), wall_shares(after)
    for layer in LAYERS:
        name = f"{layer}.self_s"
        print(f"{name:<28} {before.get(name, 0.0):10.4f} -> {after.get(name, 0.0):10.4f} s"
              f"   share {share_before[layer]:6.3f} -> {share_after[layer]:6.3f}")
    name = "engine.unattributed_s"
    print(f"{name:<28} {before.get(name, 0.0):10.4f} -> {after.get(name, 0.0):10.4f} s")
    moved = moved_layers(before, after)
    print("moved: " + (", ".join(moved) if moved else "none"))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
