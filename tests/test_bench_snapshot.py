"""scripts/bench_snapshot.py runs the Tier-1 tests and bench/run.py in a
parent and a change checkout and collects the results into one JSON
snapshot.  The checkouts here are stand-ins whose bench/run.py prints a
fixed info and result line, with per-layer metrics under ``--trace 1``,
and exits with a fixed status, and whose tests/ holds one acceptance
criterion and one other test."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_snapshot.py"

FAKE_RUN = '''
import json, sys
args = sys.argv[1:]
workload = args[args.index("--workload") + 1]
trace = args[args.index("--trace") + 1]
print("progress")
print(json.dumps({"workload": workload, "env": {"nproc": 2, "reference_ms": 30.0}}))
if trace == "1":
    metrics = {"tiled_k8.colour_ms": {"value": UNIT_MS / 4, "unit": "ms"}}
else:
    metrics = {"unit_ms_p50": {"value": UNIT_MS, "unit": "ms"}}
print(json.dumps({"correct": True, "attempted": 4, "failed": FAILED, "metrics": metrics}))
sys.exit(EXIT)
'''


def load_script(pairs: int, run_tier1: bool = True):
    """The script with `pairs` pairs per workload instead of its ten, so a
    test starts a few dozen stand-in runs rather than 80.  Unless
    `run_tier1`, a passing Tier-1 record stands in for each pytest run
    (about a second each), for tests that do not read it."""
    spec = importlib.util.spec_from_file_location("bench_snapshot", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.PAIRS == 10
    module.PAIRS = pairs
    if not run_tier1:
        module.tier1 = lambda root: {"exit": 0}
    return module


def fake_checkout(root: Path, unit_ms: float, src_lines: int,
                  exit: int = 0, failed: int = 0, tests_pass: bool = True) -> Path:
    (root / "tests").mkdir(parents=True)
    (root / "tests" / "test_acceptance.py").write_text("def test_criterion_1_fake():\n    pass\n")
    (root / "tests" / "test_other.py").write_text(f"def test_other():\n    assert {tests_pass}\n")
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(
        FAKE_RUN.replace("UNIT_MS", repr(unit_ms)).replace("FAILED", str(failed))
        .replace("EXIT", str(exit)))
    (root / "src" / "rainbowlab").mkdir(parents=True)
    (root / "src" / "rainbowlab" / "m.py").write_text("x = 1\n" * src_lines)
    return root


def test_snapshot_of_parent_and_change(tmp_path, capsys):
    old = fake_checkout(tmp_path / "old", 2.0, 7)
    new = fake_checkout(tmp_path / "new", 1.0, 5)
    out = tmp_path / "snap.json"
    code = load_script(3).main(["--parent", str(old), "--change", str(new),
                                "--seed", "19", "--out", str(out)])
    assert code == 0
    snap = json.loads(out.read_text())
    trees = snap["trees"]
    assert {name: tree["src_lines"] for name, tree in trees.items()} == {"parent": 7, "change": 5}
    for tree in trees.values():
        tier1 = tree["tier1"]
        assert (tier1["exit"], tier1["passed"], tier1["failed"], tier1["error"]) == (0, 2, 0, 0)
        assert tier1["wall_s"] > 0
        assert list(tier1["acceptance_s"]) == ["test_criterion_1_fake"]
    runs = [r for r in snap["runs"] if r["workload"] == "tiled-search"]
    # pairs alternate which checkout runs first
    assert [(r["tree"], r["pair"]) for r in runs] == [
        ("parent", 0), ("change", 0), ("change", 1), ("parent", 1),
        ("parent", 2), ("change", 2)]
    assert len(snap["runs"]) == 24
    assert all(r["env"]["reference_ms"] == 30.0 and r["exit"] == 0 for r in snap["runs"])
    assert list(snap["summary"]) == ["dense-join", "lemma-falsify", "tiled-search",
                                     "gate-threads"]
    row = snap["summary"]["tiled-search"]["unit_ms_p50"]
    assert row["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert row["change"]["median"] == 1.0
    assert row["pairs_won"] == {"parent": 0, "change": 3}
    assert snap["command"] == "bench/run.py --seed 19 --seconds 25 --trace 0"
    assert len(capsys.readouterr().out.splitlines()) == 24


def test_snapshot_keeps_one_traced_run_per_workload_and_tree(tmp_path, capsys):
    old = fake_checkout(tmp_path / "old", 2.0, 7)
    new = fake_checkout(tmp_path / "new", 1.0, 5)
    out = tmp_path / "snap.json"
    script = load_script(2, run_tier1=False)
    code = script.main(["--parent", str(old), "--change", str(new),
                        "--seed", "19", "--out", str(out)])
    assert code == 0
    snap = json.loads(out.read_text())
    assert list(snap["traced"]) == ["dense-join", "lemma-falsify", "tiled-search",
                                    "gate-threads"]
    for by_tree in snap["traced"].values():
        assert list(by_tree) == ["parent", "change"]
        assert [r["metrics"] for r in by_tree.values()] == [
            {"tiled_k8.colour_ms": {"value": 0.5, "unit": "ms"}},
            {"tiled_k8.colour_ms": {"value": 0.25, "unit": "ms"}}]
        assert all(r["exit"] == 0 and r["correct"] for r in by_tree.values())
    # the trace-0 runs, their summary and the progress lines keep their shape
    assert len(snap["runs"]) == 16
    assert all(list(r["metrics"]) == ["unit_ms_p50"] for r in snap["runs"])
    assert list(snap["summary"]["tiled-search"]) == ["unit_ms_p50"]
    assert len(capsys.readouterr().out.splitlines()) == 16


@pytest.mark.parametrize("exit, failed", [(1, 0), (0, 2)])
def test_snapshot_fails_on_a_run_that_exits_nonzero_or_fails(tmp_path, exit, failed):
    old = fake_checkout(tmp_path / "old", 2.0, 7)
    new = fake_checkout(tmp_path / "new", 1.0, 5, exit=exit, failed=failed)
    out = tmp_path / "snap.json"
    script = load_script(2, run_tier1=False)
    code = script.main(["--parent", str(old), "--change", str(new),
                        "--seed", "19", "--out", str(out)])
    assert code == 1
    runs = json.loads(out.read_text())["runs"]
    assert {(r["exit"], r["failed"]) for r in runs if r["tree"] == "change"} == {(exit, failed)}


def test_snapshot_fails_when_tier1_fails(tmp_path):
    old = fake_checkout(tmp_path / "old", 2.0, 7)
    new = fake_checkout(tmp_path / "new", 1.0, 5, tests_pass=False)
    out = tmp_path / "snap.json"
    code = load_script(2).main(["--parent", str(old), "--change", str(new),
                                "--seed", "19", "--out", str(out)])
    assert code == 1
    trees = json.loads(out.read_text())["trees"]
    assert [(t["tier1"]["exit"], t["tier1"]["passed"], t["tier1"]["failed"])
            for t in trees.values()] == [(0, 2, 0), (1, 1, 1)]


def test_snapshot_rejects_a_directory_without_the_benchmark(tmp_path):
    new = fake_checkout(tmp_path / "new", 1.0, 5)
    with pytest.raises(SystemExit) as exc:
        load_script(2).main(["--parent", str(tmp_path), "--change", str(new),
                             "--seed", "19", "--out", str(tmp_path / "s.json")])
    assert exc.value.code == 2
