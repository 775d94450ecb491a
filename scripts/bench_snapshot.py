#!/usr/bin/env python3
"""Run the benchmark's four workloads on a parent and a change checkout,
ten alternating pairs each, and write what each run printed to one JSON
snapshot, with one traced run per workload and checkout.

Example, the parent commit checked out in ../parent against this one:
    python3 scripts/bench_snapshot.py --parent ../parent --change . \\
        --seed 53 --out BENCH_19.json

Each run is ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` started in the checkout's root, so every checkout is measured
by its own benchmark code; T is ``run_seconds`` of ``BENCHMARK.json``.
For each run the snapshot keeps the exit status, the result line
(``correct``, ``attempted``, ``failed``, ``metrics``) and the info line's
``env`` (git sha, nproc, versions, load average, ``reference_ms``); for
each checkout, the line count of ``src/rainbowlab/*.py``.  Runs of one
pair alternate which checkout goes first.  The summary gives each
metric's median and quartiles per checkout and workload, and the pairs
each checkout won (the lower value wins; ties count for neither).  A gain
is claimed only on a seed not used while writing the change.

Before the benchmark, each checkout runs its Tier-1 tests once, parent
first: ``PYTHONPATH=src python -m pytest -q --continue-on-collection-errors``
in its root, with a JUnit report in a temporary directory.  ``trees``
keeps, as ``tier1``, pytest's exit status, the wall seconds, the passed,
failed and error counts, and the seconds of each
``tests/test_acceptance.py`` criterion.

After a workload's pairs, each checkout runs it once more with
``--trace 1``, parent first; ``traced`` keeps those runs by workload and
checkout, with the per-layer metrics they print, so a snapshot shows in
which layer a change in the end-to-end metrics lands.  These runs are not
paired and enter no summary.  The exit status is 1 unless Tier-1 exited
0 in both checkouts and every run, traced or not, exited 0, was correct
and failed nothing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from xml.etree import ElementTree

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("dense-join", "lemma-falsify", "tiled-search", "gate-threads")
PAIRS = 10


def checkout(text: str) -> Path:
    root = Path(text).resolve()
    if not (root / "bench" / "run.py").is_file():
        raise argparse.ArgumentTypeError(f"{root} has no bench/run.py")
    return root


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src" / "rainbowlab").glob("*.py")))


def tier1(root: Path) -> dict:
    """Run the Tier-1 tests in `root`: wall seconds, outcome counts and the
    seconds of each acceptance criterion, from the JUnit report."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, ("src", os.environ.get("PYTHONPATH")))))
    with tempfile.TemporaryDirectory() as tmp:
        junit = Path(tmp) / "tier1.xml"
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                               "--continue-on-collection-errors", "--junitxml", str(junit)],
                              cwd=root, env=env, capture_output=True)
        wall = time.perf_counter() - start
        cases = list(ElementTree.parse(junit).iter("testcase"))
    out = {"exit": proc.returncode, "wall_s": round(wall, 2), "passed": 0, "failed": 0,
           "error": 0, "acceptance_s": {}}
    for case in cases:
        kinds = {child.tag for child in case}
        if "error" in kinds:
            out["error"] += 1
        elif "failure" in kinds:
            out["failed"] += 1
        elif "skipped" not in kinds:
            out["passed"] += 1
        if case.get("classname") == "tests.test_acceptance":
            out["acceptance_s"][case.get("name")] = float(case.get("time"))
    return out


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode} "
                           f"without a result:\n{proc.stderr}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "env": info["env"], **result}


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: list) -> dict:
    out = {}
    for workload in WORKLOADS:
        parent = [r for r in runs if r["workload"] == workload and r["tree"] == "parent"]
        change = [r for r in runs if r["workload"] == workload and r["tree"] == "change"]
        row = {}
        for m in sorted(parent[0]["metrics"]):
            # each checkout's runs are in pair order, so zip pairs them
            a = [r["metrics"][m]["value"] for r in parent]
            b = [r["metrics"][m]["value"] for r in change]
            row[m] = {"parent": quartiles(a), "change": quartiles(b),
                      "pairs_won": {"parent": sum(x < y for x, y in zip(a, b)),
                                    "change": sum(y < x for x, y in zip(a, b))}}
        out[workload] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=checkout, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=checkout, required=True,
                        help="checkout of the change")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    trees = {"parent": args.parent, "change": args.change}

    checked = {}
    for name, root in trees.items():
        checked[name] = {"src_lines": src_lines(root), "tier1": tier1(root)}
        print(f"tier-1 {name}: {json.dumps(checked[name]['tier1'])}", file=sys.stderr, flush=True)

    runs, traced = [], {}
    for workload in WORKLOADS:
        for pair in range(PAIRS):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for name in order:
                run = run_once(trees[name], workload, args.seed, seconds)
                runs.append({"tree": name, "pair": pair, **run})
                print(json.dumps({k: runs[-1][k] for k in ("tree", "workload", "pair",
                                                          "exit", "correct", "metrics")}),
                      flush=True)
        traced[workload] = {name: run_once(root, workload, args.seed, seconds, trace=1)
                            for name, root in trees.items()}
        print(f"traced {workload}", file=sys.stderr, flush=True)
    snapshot = {
        "command": f"bench/run.py --seed {args.seed} --seconds {seconds} --trace 0",
        "trees": checked,
        "summary": summarise(runs),
        "runs": runs,
        "traced": traced,
    }
    args.out.write_text(json.dumps(snapshot, indent=1) + "\n")
    every = runs + [r for by_tree in traced.values() for r in by_tree.values()]
    clean = all(r["exit"] == 0 and r["correct"] and r["failed"] == 0 for r in every)
    tests_pass = all(t["tier1"]["exit"] == 0 for t in checked.values())
    return 0 if clean and tests_pass else 1


if __name__ == "__main__":
    sys.exit(main())
