"""Run the property tests once per Hypothesis seed and report which failed.

Each seed runs the @given tests of tests/ (pytest -m hypothesis) under the
"seeded" profile of tests/conftest.py, which draws afresh from the seed,
in its own pytest process, one process at a time. For each test that
failed, the census prints the seeds it failed at and the falsifying draw
of each. Nothing is written into the checkout: the pytest cache is off,
no bytecode is written, and Hypothesis and the JUnit reports use a
temporary directory. Exits 1 if any seed failed.

    python scripts/hypothesis_census.py 1-50
    python -W error scripts/hypothesis_census.py 24 25 36 -- -W error

Arguments after -- go to pytest; the interpreter's -W options go to each
pytest process too.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import textwrap
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(specs: list[str]) -> list[int]:
    """Seeds from "N" and "A-B" (inclusive) arguments, in order, once each."""
    seeds = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return list(dict.fromkeys(seeds))


def falsifying_draw(text: str) -> str:
    """The "Falsifying example" report, with the "Draw n:" lines after it,
    from a failure's traceback text; empty if the failure has none."""
    lines = [line[1:] if line.startswith("E ") else line for line in text.splitlines()]
    start = next((i for i, line in enumerate(lines) if "Falsifying" in line), None)
    if start is None:
        return ""
    draw, closed = [], False
    for line in lines[start:]:
        closed = closed or line.strip() == ")"
        if closed and line.strip() != ")" and not line.strip().startswith("Draw "):
            break
        draw.append(line)
    return textwrap.dedent("\n".join(draw))


def run_seed(seed: int, pytest_args: list[str], tmp: Path) -> tuple[dict[str, str], str]:
    """({test id: falsifying draw} of the tests that failed at seed, and
    pytest's last line)."""
    report = tmp / f"seed{seed}.xml"
    env = os.environ | {"PYTHONDONTWRITEBYTECODE": "1",
                        "HYPOTHESIS_STORAGE_DIRECTORY": str(tmp / "hypothesis"),
                        "PYTHONPATH": os.pathsep.join(
                            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, *(f"-W{w}" for w in sys.warnoptions), "-m", "pytest", "-q",
           "-p", "no:cacheprovider", "tests/", "-m", "hypothesis",
           "--hypothesis-profile=seeded", f"--hypothesis-seed={seed}",
           f"--junitxml={report}", *pytest_args]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    summary = (proc.stdout.strip().splitlines() or ["(no output)"])[-1]
    failed = {}
    if report.exists():
        for case in ET.parse(report).iter("testcase"):
            for bad in (*case.iter("failure"), *case.iter("error")):
                test_id = f"{case.get('classname')}::{case.get('name')}"
                failed[test_id] = falsifying_draw(bad.text or bad.get("message", ""))
    if proc.returncode not in (0, 1) or (proc.returncode == 1 and not failed):
        # No tests ran, or pytest failed before or outside them.
        failed[f"pytest exit {proc.returncode}"] = proc.stderr.strip() or proc.stdout.strip()
    return failed, summary


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("seeds", nargs="+", help="seeds, as N or an inclusive range A-B")
    seeds = parse_seeds(ap.parse_args(argv[:split]).seeds)
    pytest_args = argv[split + 1:]
    by_test: dict[str, dict[int, str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            failed, summary = run_seed(seed, pytest_args, Path(tmp))
            print(f"seed {seed}: {summary}", flush=True)
            for test_id, draw in failed.items():
                by_test.setdefault(test_id, {})[seed] = draw
    bad_seeds = sorted({s for runs in by_test.values() for s in runs})
    print(f"\n{len(bad_seeds)} of {len(seeds)} seeds failed"
          + (f": {' '.join(map(str, bad_seeds))}" if bad_seeds else ""))
    for test_id, runs in sorted(by_test.items()):
        print(f"\n{test_id} failed at seeds {' '.join(map(str, sorted(runs)))}")
        for seed, draw in sorted(runs.items()):
            print(f"  seed {seed}:")
            for line in (draw or "(no falsifying draw reported)").splitlines():
                print(f"    {line}")
    return 1 if bad_seeds else 0


if __name__ == "__main__":
    sys.exit(main())
