#!/usr/bin/env python3
"""Rewrite golden.json: the reference outputs of every input the seed pool
can give each workload.

    python3 perfbench/pin.py

Run it from the repository root, and only when a change alters the
baseline, sweep or CLI outputs on purpose; say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run


def main() -> int:
    import envrecord

    envrecord.pin(1)
    run.import_program()
    import golden
    import workloads

    work = run.OUT / "work" / "pin"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    pinned = {}
    plan = (
        (workloads.Baseline, 1, len(workloads.POOL)),
        (workloads.Sweep, len(workloads.POOL), len(workloads.LEVELS)),
        (workloads.Cli, len(workloads.POOL), len(workloads.LEVELS)),
    )
    try:
        for cls, n_setups, n_iterations in plan:
            for n in range(n_setups):
                workload = cls(n, work, workloads.Calls(), run.SRC)
                if cls is not workloads.Baseline:
                    workload.setup(0)
                for i in range(n_iterations):
                    outcome = workload.iterate(i)
                    pinned.setdefault(cls.section, {})[outcome.key] = workload.record(outcome)
                    print(cls.section, outcome.key, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    Path(golden.GOLDEN_PATH).write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
