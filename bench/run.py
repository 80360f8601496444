#!/usr/bin/env python3
"""nhlab benchmark: one workload per run, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Workloads (bench/workloads.py): ``figures`` runs every nhlab subcommand on
its figure config, ``disorder`` the disorder scan, ``spectral`` the spectra
API on open chains at N = 60..100. A run makes the inputs from the seed,
runs one untimed warm-up pass, then timed passes until ``--seconds`` have
gone by (and at least MIN_PASSES were timed), every second one followed
by a fresh interpreter that times set-up. Every timed item and set-up probe is
flanked by reference-kernel samples (bench/hostspeed.py), and its times
are divided by the host slowdown they show. It checks every item of every
pass and prints report lines followed by one JSON result line.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports per-layer call counts and self
times from the traced ones, plus the tracing overhead. The full result,
with the environment record and artifact digests, is written to
``.bench_out/<workload>/result.json``; a traced run also writes the spans
of its last traced pass to ``trace.json`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from digest import combined_digest, dir_digests
from spans import LAYERS, SPAN_NAMES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS thread, set before numpy is imported: the matrices here have
# dimension 2..200, and on a shared two-core machine a second BLAS thread
# adds spin-wait noise without a steady gain.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_PASSES = 11           # the tail metric needs ten passes beyond it
MIN_TRACED_PASSES = 3
TAIL_BEYOND = 10
MAX_MEASURE_S = 150.0     # keeps a run inside its time limit on a slow machine
REF_SHARE = 0.15          # reference-kernel seconds per second of untraced pass
SETUP_EVERY = 2           # a set-up probe after every second untraced pass

SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
              "workloads.setup_probe(*sys.argv[3:])")


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    import nhlab

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except OSError:
            pass
    sources = {k: v for k, v in dir_digests(SRC / "nhlab").items() if k.endswith(".py")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nhlab": nhlab.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "source_sha256": combined_digest(sources),
        "seed": seed,
    }


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples beyond it: value, percentile, beyond."""
    s = sorted(values)
    k = max(len(s) - TAIL_BEYOND - 1, 0)
    return s[k], 100.0 * (k + 1) / len(s), len(s) - k - 1


class Run:
    """One benchmark run of one workload: passes, checks and their record."""

    def __init__(self, workload_name: str, seed: int, small: bool):
        import workloads

        self.wl = workloads.WORKLOADS[workload_name]
        self.seed, self.small = seed, small
        self.version = workloads.nhlab.__version__
        self.dir = OUT / workload_name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.cfg_dir, self.pass_dir = self.dir / "inputs", self.dir / "pass"
        self.cfg_dir.mkdir(parents=True)
        self.inputs = self.wl.make_inputs(seed, small, self.cfg_dir)
        self.input_digest = combined_digest(dir_digests(self.cfg_dir))
        self.tracer = Tracer()
        self.attempted = 0
        self.failures: list[dict] = []
        self.reference: dict = {}    # item -> (digests, unchecked, failures) of pass 0
        self.traced: list[dict] = []  # per traced pass: wall, span summary, solve ratio
        self.last_spans: list = []

    def setup_probe(self, pass_no: int) -> float:
        """Wall seconds of a fresh interpreter that imports nhlab and makes the inputs."""
        argv = [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), self.wl.name,
                str(self.seed), "1" if self.small else "0", str(self.dir / "setup_probe")]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=dict(os.environ), cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        dt = time.perf_counter() - t0
        self.attempted += 1
        if proc.returncode != 0 or proc.stdout.split() != [self.version, self.input_digest]:
            self.fail(pass_no, "setup", [f"set-up probe gave {proc.stdout.strip()!r}:\n"
                                         f"{proc.stderr}"])
        return dt

    def fail(self, pass_no: int, item: str, reasons: list[str]) -> None:
        self.failures.append({"pass": pass_no, "item": item, "reasons": reasons})

    def one_pass(self, pass_no: int, traced: bool, after_item=None) -> tuple[float, list]:
        """Run, time and check one pass; returns its wall seconds and its items.

        ``after_item`` is called after each item, inside the pass.
        """
        shutil.rmtree(self.pass_dir, ignore_errors=True)
        self.pass_dir.mkdir()
        if traced:
            self.tracer.reset()
            self.tracer.install()
        try:
            t0 = time.perf_counter()
            results = self.wl.run_pass(self.inputs, self.pass_dir, after_item)
            wall = time.perf_counter() - t0
        finally:
            self.tracer.uninstall()
        if traced:
            summary = self.tracer.summary()
            eig_calls = summary["lapack.eigvals"]["calls"]
            points = len(self.tracer.disorder_points)
            self.traced.append({"wall": wall, "summary": summary,
                                "solve_ratio": points / eig_calls if points else 0.0})
            self.last_spans = list(self.tracer.spans)
        for item in results:
            self.attempted += 1
            self.check_item(pass_no, item)
        return wall, results

    def check_item(self, pass_no: int, item) -> None:
        if item.error is not None:
            self.fail(pass_no, item.name, ["raised:\n" + item.error])
            return
        digests = self.wl.fingerprint(item, self.pass_dir)
        ref = self.reference.get(item.name)
        if ref is not None and digests == ref[0]:
            reasons = ref[2]   # byte-identical outputs give the verdicts already checked
        else:
            checked = self.wl.check(self.inputs, item, self.pass_dir)
            reasons = list(checked.failures)
            if ref is None:
                self.reference[item.name] = (digests, checked.unchecked, reasons)
            else:
                reasons.insert(0, "artifacts differ from the first pass")
        if reasons:
            self.fail(pass_no, item.name, reasons)


def per_layer_metrics(run: Run, untraced: list[float]) -> dict:
    passes = run.traced
    last = passes[-1]["summary"]
    med = statistics.median
    m = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = (last[name]["calls"], "count")
        m[f"{name}.self_s"] = (med(p["summary"][name]["self_s"] for p in passes), "s")
    m["lapack.n3_sum"] = (sum(last[n]["extra"] for n in SPAN_NAMES if n.startswith("lapack.")),
                          "count")
    m["cli.write_csv.bytes"] = (last["cli.write_csv"]["extra"], "B")
    m["cli.disorder.solve_ratio"] = (passes[-1]["solve_ratio"], "ratio")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (med(sum(v["self_s"] for n, v in p["summary"].items()
                                        if n.startswith(layer + "."))
                                    for p in passes), "s")
    m["unspanned.self_s"] = (med(p["wall"] - sum(v["self_s"] for v in p["summary"].values())
                                 for p in passes), "s")
    traced_wall = med(p["wall"] for p in passes)
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - med(untraced), "s")
    m["trace.overhead_ratio"] = ((traced_wall - med(untraced)) / med(untraced), "ratio")
    m["fail_ratio"] = (len(run.failures) / run.attempted, "ratio")
    return m


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  small: bool = False) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the report lines."""
    import hostspeed

    run = Run(workload, seed, small)
    # Warm-up: checked, not timed. Set-up is timed after every second
    # untraced pass, so its median covers the same stretch of time as the
    # passes.
    # Each item of an untraced pass, and each set-up probe, is flanked by
    # two blocks of reference-kernel samples; their mean over the nominal
    # kernel time is the host slowdown it ran under, and its times are
    # divided by that slowdown.
    run.setup_probe(0)
    warm, items = run.one_pass(0, False)
    block_s = REF_SHARE * warm / len(items)
    raw = {"wall": [], "cpu": [], "setup": []}
    walls, cpus, setup_times = [], [], []
    slow = {"pass": [], "setup": []}
    last = hostspeed.sample(block_s)   # the block just before the next untraced stretch
    start = time.perf_counter()
    pass_no = 1
    while True:
        elapsed = time.perf_counter() - start
        if trace:
            enough = min(len(walls), len(run.traced)) >= MIN_TRACED_PASSES
        else:
            enough = len(walls) >= MIN_PASSES
        if (elapsed >= seconds and enough) or elapsed > MAX_MEASURE_S:
            break
        if trace and pass_no % 2 == 0:
            run.one_pass(pass_no, True)
            last = None
        else:
            blocks = [last or hostspeed.sample(block_s)]
            _, items = run.one_pass(pass_no, False,
                                    lambda: blocks.append(hostspeed.sample(block_s)))
            factors = [hostspeed.slowdown(a, b) for a, b in zip(blocks, blocks[1:])]
            raw["wall"].append(sum(it.wall for it in items))
            raw["cpu"].append(sum(it.cpu for it in items))
            walls.append(sum(it.wall / f for it, f in zip(items, factors)))
            cpus.append(sum(it.cpu / f for it, f in zip(items, factors)))
            slow["pass"].append(raw["wall"][-1] / walls[-1])
            last = blocks[-1]
            if not trace and pass_no % SETUP_EVERY == 1:
                raw["setup"].append(run.setup_probe(pass_no))
                after = hostspeed.sample(block_s)
                slow["setup"].append(hostspeed.slowdown(last, after))
                setup_times.append(raw["setup"][-1] / slow["setup"][-1])
                last = after
        pass_no += 1

    med = statistics.median
    tail_value, tail_pct, beyond = tail(walls)
    if trace:
        metrics = per_layer_metrics(run, raw["wall"])
        metrics["host.slowdown"] = (med(slow["pass"]), "ratio")
    else:
        metrics = {
            "setup_s": (med(setup_times), "s"),
            "wall_s": (med(walls), "s"),
            "wall_s_tail": (tail_value, "s"),
            "cpu_s": (med(cpus), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    failed = len(run.failures)   # at most one entry per item and pass
    env = environment(seed)
    lines = [f"env {json.dumps(env, sort_keys=True)}",
             f"workload {workload}: {pass_no - 1} timed passes in {time.perf_counter() - start:.1f} s,"
             f" {len(walls)} untraced, {len(run.traced)} traced",
             f"wall_s_tail is p{tail_pct:.1f} of {len(walls)} untraced passes"
             f" ({beyond} beyond it)",
             f"host slowdown median {med(slow['pass']):.4f} over untraced passes;"
             f" median times as measured, before dividing by it: wall {med(raw['wall']):.4f} s,"
             f" cpu {med(raw['cpu']):.4f} s"
             + (f", setup {med(raw['setup']):.4f} s" if raw["setup"] else ""),
             f"fail_ratio {failed}/{run.attempted} items"]
    lines += [f"failed pass {f['pass']} {f['item']}: {f['reasons'][0].splitlines()[0]}"
              for f in run.failures[:10]]
    for item, (digests, unchecked, _) in run.reference.items():
        lines.append(f"digest {item} {combined_digest(digests)} ({len(digests)} files)")
        if unchecked:
            lines.append(f"unchecked {item} {json.dumps(unchecked, sort_keys=True)}")
    if trace:
        layer_total = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
        lines.append("layer share of traced pass: " + ", ".join(
            f"{layer} {metrics[f'{layer}.self_s'][0] / metrics['trace.wall_s'][0]:.1%}"
            for layer in LAYERS) + f" (spanned {layer_total / metrics['trace.wall_s'][0]:.1%})")
    lines += [f"metric {k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]

    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "small": small, "env": env, "result": result,
              "setup_s": setup_times, "wall_s": walls, "cpu_s": cpus,
              "measured": raw, "slowdown": slow, "reference_nominal_s": hostspeed.NOMINAL_S,
              "tail": {"percentile": tail_pct, "passes": len(walls), "beyond": beyond},
              "failures": run.failures,
              "artifacts": {item: {"digest": combined_digest(d), "files": d}
                            for item, (d, _, _) in run.reference.items()},
              "unchecked": {item: u for item, (_, u, _) in run.reference.items() if u}}
    (run.dir / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if trace:
        t0 = run.last_spans[0][1] if run.last_spans else 0.0
        (run.dir / "trace.json").write_text(json.dumps(
            [[n, a - t0, b - t0, p, x] for n, a, b, p, x in run.last_spans]) + "\n")
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["figures", "disorder", "spectral"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--small", action="store_true",
                    help="tiny inputs, for the benchmark's own smoke tests")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be >= 0")
    if not (SRC / "nhlab" / "__init__.py").is_file():
        print(f"error: no nhlab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.environ.update({k: str(BLAS_THREADS) for k in BLAS_ENV})
    # One CPU for the run and the set-up probes it starts: the reference
    # kernel then measures the core the timed work runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(SRC), str(BENCH)]
    result, lines = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                                  args.small)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
