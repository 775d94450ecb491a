"""Tests of the benchmark itself: its checks catch broken outputs, its digest
repeats, its trace arithmetic holds and its output follows BENCHMARK.json.

    python3 -m pytest bench/test_bench.py

Several tests run real workload batches, so the file takes a minute or two.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from harness import (  # noqa: E402
    FAILED,
    OK,
    REFERENCE_MS,
    Outcome,
    Phase,
    digest,
    reference_containers,
    reference_loop,
    run_phase,
    tally,
)
from rainbowlab import avoider_k4, colouring, lemma_lab, verification  # noqa: E402
from spans import NullTracer, Span, Tracer  # noqa: E402

SEED = 11


def first_batch(workload_cls, **kwargs):
    workload = workload_cls(SEED, NullTracer(), **kwargs)
    workload.setup()
    return run_phase(workload, None, batches=1).first_batch


# -- the checks are not vacuous ---------------------------------------------------


def test_dense_join_catches_a_repeated_colour_at_a_vertex(monkeypatch):
    real = avoider_k4.avoid_k4

    def broken(instance):
        psi = real(instance)
        a, b = sorted(instance.graph().neighbours(0))[:2]
        psi.assign(0, b, psi.get(0, a))
        return psi

    monkeypatch.setattr(avoider_k4, "avoid_k4", broken)
    counts = tally(first_batch(workloads.DenseJoin))
    assert counts["failed_frac"] > 0
    assert any("not proper" in p for p in counts["problems"])


def test_dense_join_verdict_does_not_rest_on_the_library_check(monkeypatch):
    real = avoider_k4.avoid_k4

    def broken(instance):
        psi = real(instance)
        a, b = sorted(instance.graph().neighbours(0))[:2]
        psi.assign(0, b, psi.get(0, a))
        return psi

    monkeypatch.setattr(avoider_k4, "avoid_k4", broken)
    monkeypatch.setattr(colouring, "is_proper", lambda g, psi: True)
    counts = tally(first_batch(workloads.DenseJoin))
    assert any("not proper" in p for p in counts["problems"])
    assert any("direct enumeration disagrees" in p for p in counts["problems"])


def test_own_clique_enumeration_matches_the_library():
    import numpy as np
    from rainbowlab import model

    for r, n, p in ((4, 200, 0.02), (6, 120, 0.15), (8, 80, 0.3)):
        instance = model.sample_perturbed(n, p, np.random.default_rng(r))
        assert sorted(workloads.join_cliques(instance, r)) == sorted(
            verification.perturbed_cliques(instance, r)
        )
        for k in (1, 2, 3, 4):
            assert workloads.side_cliques(instance.left, k) == sorted(
                instance.left.cliques(k)
            )


def test_dense_join_catches_a_planted_rainbow_k4(monkeypatch):
    def all_fresh(instance):
        g = instance.graph()
        psi = colouring.EdgeColouring(g)
        for u, v in g.edges:
            psi.assign_fresh(u, v)
        return psi

    monkeypatch.setattr(avoider_k4, "avoid_k4", all_fresh)
    counts = tally(first_batch(workloads.DenseJoin))
    assert counts["failed_frac"] > 0
    assert any("rainbow K4" in p for p in counts["problems"])


def test_tiled_search_catches_a_wrong_decider_node_count(monkeypatch):
    def off_by_one(g, h, node_budget):
        return colouring.ArrowsVerdict("arrows", None, workloads.DECIDE_NODES - 1)

    monkeypatch.setattr(colouring, "decide_arrows", off_by_one)
    counts = tally(first_batch(workloads.TiledSearch))
    assert counts["failed_frac"] > 0
    assert any("71793 nodes" in p for p in counts["problems"])


def test_lemma_falsify_catches_a_non_clique(monkeypatch):
    # Vertices 0..3 are the left star of the K4 scaffold: not a clique.
    monkeypatch.setattr(lemma_lab, "extract_rainbow_k4", lambda inst, psi: (0, 1, 2, 3))
    counts = tally(first_batch(workloads.LemmaFalsify))
    assert counts["failed_frac"] > 0


def test_gate_threads_catches_a_failed_check(monkeypatch):
    failing = verification.CheckResult("reference-bounds", False, "forced failure")
    monkeypatch.setattr(verification, "check_reference_bounds", lambda budget: failing)
    gate = workloads.GateThreads(SEED, NullTracer())
    outcome = gate.unit(0)
    assert outcome.verdict == FAILED
    assert tally([outcome])["failed_frac"] > 0


def test_certificate_check_catches_an_uncovered_rainbow_k4():
    from rainbowlab.tiled_k8 import CoverCertificate

    cert = CoverCertificate("triangle", triangle=(0, 1, 2))
    assert workloads.certificate_problems(cert, 4, [(0, 1, 2, 3)]) == []
    assert workloads.certificate_problems(cert, 4, [(0, 1, 3, 4)])
    assert workloads.certificate_problems(cert, 1, [])  # class 0-2 needs no-rainbow


# -- the outcome digest ----------------------------------------------------------


@pytest.mark.parametrize(
    "workload_cls", [workloads.DenseJoin, workloads.LemmaFalsify, workloads.TiledSearch]
)
def test_digest_repeats(workload_cls):
    first = first_batch(workload_cls)
    assert tally(first)["failed"] == 0
    assert digest(first) == digest(first_batch(workload_cls))


def test_gate_digest_is_the_same_at_one_and_two_threads():
    one = first_batch(workloads.GateThreads, threads=1)
    two = first_batch(workloads.GateThreads, threads=2)
    assert tally(two)["failed"] == 0
    assert digest(one) == digest(two)


# -- tracing ---------------------------------------------------------------------


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [
        Span("unit", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 5.0, 6.0, 0, 0),
        Span("a", 6.0, 7.0, 0, 0),
        Span("unit", 10.0, 12.0, None, 1),
        Span("a", 10.0, 12.0, 4, 1),
    ]
    assert tracer.self_times() == [5.0, 3.0, 1.0, 1.0, 0.0, 2.0]
    assert tracer.per_unit_self_ms("a") == {0: 4000.0, 1: 2000.0}
    assert tracer.median_self_ms("a") == 3000.0
    assert tracer.median_self_ms("never") == 0.0


def test_spans_record_their_parent_and_unit():
    tracer = Tracer()
    tracer.unit = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (None, 0)
    assert outer.unit == inner.unit == 7
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_warm_up_is_not_traced():
    import run

    args = run.parse_args(["--workload", "lemma-falsify", "--seed", "1", "--seconds", "1"])
    tracer = Tracer()
    run.setup_workload(args, tracer, Phase())
    assert sorted(s.name for s in tracer.spans) == sorted(
        f"lemma_lab.build_ms.{k}" for k in run.LEMMA_SHORT
    )


def test_thread_speedup_compares_one_gate_with_one_gate():
    import run

    def gate_tracer(seconds_per_gate, gates):
        tracer = Tracer()
        for unit in range(gates):
            start = 10.0 * unit
            for i, name in enumerate(run.GATE_CHECKS + ("emergence.scan_s",)):
                tracer.spans.append(Span(name, start + i, start + i + seconds_per_gate / 7, None, unit))
        return tracer

    two = gate_tracer(7.0, gates=3)
    one = gate_tracer(14.0, gates=1)
    metrics = run.per_layer(two, 0.0, one)
    assert metrics["verification.thread_speedup"]["value"] == pytest.approx(2.0)
    assert metrics["emergence.scan_thread_speedup"]["value"] == pytest.approx(2.0)


# -- host speed ------------------------------------------------------------------


def test_reference_time_is_left_out_of_unit_times():
    class Idle(workloads.Workload):
        name, batch_units = "idle", 1

        def unit(self, index):
            for _ in range(5):
                self.checkpoint()
            return Outcome(OK, [])

    phase = run_phase(Idle(SEED, NullTracer()), None, batches=2)
    assert len(phase.reference_ms) == 2 + 2 * 5 + 1  # batches, checkpoints, end
    assert sum(phase.reference_ms) > 20.0
    assert max(phase.unit_ms) < 2.0


def test_every_unit_has_reference_samples_on_both_sides():
    class Sleepy(workloads.Workload):
        name, batch_units = "sleepy", 12

        def unit(self, index):
            time.sleep(0.03)
            return Outcome(OK, [])

    phase = run_phase(Sleepy(SEED, NullTracer()), None, batches=2)
    assert len(phase.unit_at) == len(phase.unit_ms) == 24
    for start, end, before in phase.unit_at:
        assert phase.reference_at[before][1] <= start
        assert phase.reference_at[before + 1][0] >= end
    # 0.36 s of units per batch: samples at the batch start and after 0.25 s.
    assert len(phase.reference_ms) >= 2 * 2 + 1


def test_gated_times_are_scaled_to_the_reference_speed():
    import run

    phase = Phase(reference=(reference_loop,))
    # Samples at t = 0, 1, 2 and 3 s, the host at half speed until t = 2
    # and at a quarter of it after.  Unit 0 runs from 0 to 1 s, unit 1 from
    # 1 to 3 s with a sample inside it.
    phase.reference_at = [(t, t) for t in (0.0, 1.0, 2.0, 3.0)]
    phase.reference_ms = [2 * REFERENCE_MS] * 2 + [4 * REFERENCE_MS] * 2
    phase.unit_at = [(0.0, 1.0, 0), (1.0, 3.0, 1)]
    phase.unit_ms = [1000.0, 2000.0]
    assert phase.scaled_unit_ms() == pytest.approx([500.0, 1000.0 / 3 + 250.0])
    metrics = run.end_to_end(phase, setup_s=1.0)
    assert metrics["unit_ms_p50"]["value"] == pytest.approx((500.0 + 1000.0 / 3 + 250.0) / 2)
    assert phase.host_scale() == pytest.approx(1 / 3)
    # A sample of two functions, or on two threads, does twice the work.
    both = Phase(reference=(reference_containers, reference_loop))
    two = Phase(reference=(reference_loop,), reference_threads=2)
    for other in (both, two):
        other.reference_at, other.unit_at = phase.reference_at, phase.unit_at
        other.unit_ms = phase.unit_ms
        other.reference_ms = [2 * ms for ms in phase.reference_ms]
        assert other.scaled_unit_ms() == pytest.approx(phase.scaled_unit_ms())


# -- the command line ------------------------------------------------------------


def run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_output_follows_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = run_cli(ROOT, "--workload", "tiled-search", "--seed", "3", "--seconds", "1",
                   "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_cli(tmp_path, "--workload", "tiled-search", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
