"""Rewrite ``pinned_inputs.json``: the sha256 of every generated input file.

Run from the repository root after an intended change to ``repro.datagen``::

    python3 perfbench/pin_inputs.py

``run.py`` compares each run's inputs with this table (when the
workload's row count is the pinned one) and reports a seed whose inputs
changed as ``pinned=DRIFT``, so a generator change shows up as
changed inputs and not as a change in speed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS, build_inputs  # noqa: E402

#: The seeds pinned for every workload.
SEEDS = range(32)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(dir=HERE.parent))
    try:
        pinned = {
            name: {
                "rows": workload.rows,
                "seeds": {
                    str(seed): build_inputs(workload, seed, workdir).hashes for seed in SEEDS
                },
            }
            for name, workload in WORKLOADS.items()
        }
    finally:
        shutil.rmtree(workdir)
    (HERE / "pinned_inputs.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
