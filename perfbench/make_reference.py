"""Regenerate perfbench/reference.json, the recorded outputs that the
benchmark's correctness checks compare against.

    python3 perfbench/make_reference.py

Run it from the root of a checkout. It records, for each input size:
the per-channel sums of the network's outputs on the reference image,
and the AP of each scene workload's batch for seeds 0..99 (0..9 at the
tiny size), with a floor for seeds outside that range. Only a change
that alters the program's outputs on purpose should need new values.
"""

import json
import math
import os
import sys
import tempfile
from pathlib import Path

import run

SUM_TOLERANCE = 1e-3     # of each channel's L1 norm
FLOOR_MARGIN = 0.02      # a seed with no recorded AP may fall this far below the lowest one
FULL_SEEDS = 100
TINY_SEEDS = 10


def main():
    root = Path.cwd()
    for var in run.THREAD_VARS:
        os.environ[var] = str(run.BLAS_THREADS)
    sys.path.insert(0, str(root / "src"))
    from workloads import SIZES, WORKLOADS

    reference = {name: {} for name in WORKLOADS}
    with tempfile.TemporaryDirectory(dir=root / "perfbench") as tmp:
        workdir = Path(tmp)
        for size in SIZES:
            image = WORKLOADS["image_to_people"](0, size, workdir, None)
            image.setup()
            reference["image_to_people"][size] = {"relative_tolerance": SUM_TOLERANCE,
                                                  **image.reference_sums()}
            seeds = range(FULL_SEEDS if size == "full" else TINY_SEEDS)
            for name in ("scene_to_ap", "crowd_grouping"):
                aps = {}
                for seed in seeds:
                    workload = WORKLOADS[name](seed, size, workdir, None)
                    workload.setup()
                    unit = workload.run_unit(0, lambda item: None)
                    if unit.failed:
                        raise RuntimeError(f"{name} seed {seed}: {unit.failed} items failed")
                    aps[str(seed)] = unit.ap
                    print(f"{size} {name} seed {seed}: AP {unit.ap!r}", flush=True)
                floor = math.floor((min(aps.values()) - FLOOR_MARGIN) * 100) / 100
                reference[name][size] = {"ap_floor": floor, "ap_by_seed": aps}
    path = root / "perfbench" / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {path.relative_to(root)}")


if __name__ == "__main__":
    main()
