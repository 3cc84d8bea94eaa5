#!/usr/bin/env python3
"""Regenerate the oracle's reference results in reference/.

  python3 perfbench/make_reference.py [workload ...]

Runs each workload once, at full and quick size, in this process, checks
that the results meet the paper's criteria, and writes
reference/<workload>[-quick].npz.  The checked-in files were made at the
benchmark's first commit; regenerate them only for a change that is meant
to alter results, and say so in that change.
"""
from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import metrics  # noqa: E402
import workloads  # noqa: E402


def main(names) -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        for quick in (False, True):
            workload = workloads.make(name, quick)
            with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
                prepared = workload.prepare(0, Path(tmp))
                observed = workload.observe(prepared, workload.execute(prepared))
            bad = [i for i in workload.check(observed, observed) if i["failed"]]
            if bad:
                print(f"{name} quick={quick}: not written, {bad}", file=sys.stderr)
                return 1
            path = workloads.reference_path(name, quick)
            np.savez_compressed(path, **observed)
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:] or metrics.WORKLOADS))
