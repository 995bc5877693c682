"""Record the result digests of the default seed into ``digests.json``.

Usage, from the repository root: ``python3 perfbench/record_digests.py``.
Run it only when a change is meant to alter scenario outputs; the recorded
digests pin them for every later benchmark run with ``--seed 1``.
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import require_program  # noqa: E402


def main() -> int:
    require_program()
    warnings.simplefilter("ignore")
    from perfbench.batch import (
        DEFAULT_SEED,
        DIGESTS_PATH,
        SUB_SEEDS,
        WORKLOADS,
        BatchRunner,
        sub_seed,
    )

    recorded = {}
    for workload, (scenario_ids, scale_fields) in WORKLOADS.items():
        runner = BatchRunner(scenario_ids, scale_fields)
        recorded[workload] = {}
        for index in range(SUB_SEEDS):
            seed = sub_seed(DEFAULT_SEED, index)
            _, digests = runner.run_pass(seed)
            recorded[workload][str(seed)] = digests
            print(workload, seed, digests, flush=True)
    DIGESTS_PATH.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
