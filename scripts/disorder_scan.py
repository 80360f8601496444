#!/usr/bin/env python3
"""Zero-mode robustness under disorder: multi-seed transition statistics.

Sweeps disorder strength d for each requested target (r, v, gamma,
onsite) on the open N=30 chain at v = r = gamma/2 and reports, per seed,
the first d where the zero eigenvalue has split, plus the median over
seeds. Takes about 0.3 s at the default 100 seeds on a 2-core AMD EPYC
with one BLAS thread, 0.09 s of it the scan and most of the rest the
import of numpy and scipy. The transition search builds the hops of
every (d, seed) in one call and settles up front each row that a zero
hop or an O(N) trace certificate decides; each grid point then makes at
most one stacked eigvals, over the seeds not yet split that are left open.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from nhlab.cli import main as nhlab_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="disorder_data", help="output directory")
    ap.add_argument("--seeds", type=int, default=100, help="number of seeds")
    ap.add_argument("--targets", nargs="+", default=["r", "v", "gamma"],
                    choices=["r", "v", "gamma", "onsite"])
    args = ap.parse_args()
    cfg = {
        "schema_version": 1,
        "n_cells": 30, "r": 0.5, "v": 0.5, "gamma": 1.0,
        "targets": args.targets,
        "d_grid": {"start": 0.05, "stop": 2.0, "num": 40},
        "n_seeds": args.seeds,
        "seed": 0,
    }
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "disorder.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = nhlab_main(["disorder", "--config", str(cfg_path), "--out", args.out])
    if rc == 0:
        summary = json.loads((Path(args.out) / "disorder_summary.json").read_text())
        for name, entry in summary["targets"].items():
            print(f"{name}: median transition d = {entry['median_transition']}, "
                  f"{entry['n_surviving_full_grid']}/{args.seeds} seeds never split")
    return rc


if __name__ == "__main__":
    sys.exit(main())
