#!/usr/bin/env python3
"""Record the benchmark's reference outputs from the current package code.

    python3 perfbench/record_reference.py

Writes perfbench/reference.npz: per demo rotation, the (se_avg, se_center,
rank_used) of every model of cap_fitted and cap_exhaustive, and per seed of
the displacement pool, the epsilon of every record. Run it only on code whose
outputs are known good; the checks of later runs compare against this file.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    arrays = {}
    for name in ("cap_fitted", "cap_exhaustive"):
        wl = workloads.WORKLOADS[name]
        state = wl.load(0, None)
        arrays[name] = np.array(
            [wl.summary(wl.unit(state, i)) for i in range(len(state.rotations))]
        )
    wl = workloads.WORKLOADS["displacement"]
    state = wl.load(0, None)
    arrays["displacement"] = np.array(
        [wl.summary(wl.unit(state, i)) for i in range(len(workloads.DISPLACEMENT_SEEDS))]
    )
    np.savez_compressed(workloads.REFERENCE, **arrays)
    for key, value in arrays.items():
        print(key, value.shape)


if __name__ == "__main__":
    main()
