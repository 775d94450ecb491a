"""Acceptance gate: every top-level guarantee, one pass/fail line each.

Criteria run at the full budget (thousands of random instances), so this
file takes several minutes end to end.  Run it alone with

    pytest tests/test_acceptance.py -v -s

to watch the lines appear as they complete.
"""

from rainbowlab import verification
from rainbowlab.cli import main

BUDGET = "full"
SEED = 42


def report(result):
    print()
    print(result.line())
    assert result.passed, result.summary


def test_criterion_1_decide_arrows_certificates():
    # K3 vs K3 arrows; K4 vs K4 witness; HatK(3,4) vs K4 arrows;
    # K5 vs K4 witness that is a proper rainbow-K4-free 5-colouring.
    report(verification.check_certificates(BUDGET))


def test_criterion_2_avoid_k4_sweep():
    # >= 500 perturbed instances, n in {50,100,200,400}, p = c*n^-5/4:
    # >= 95% classified, zero rainbow K4 on every validated colouring.
    report(verification.check_avoid_k4(SEED, BUDGET))


def test_criterion_3_avoid_k6_sweep():
    # >= 300 perturbed instances, n in {100,200,300}, p = n^-0.7: every
    # matching quadruple re-checked by direct scan inside find_matchings,
    # colourings proper, zero rainbow K6.
    report(verification.check_avoid_k6(SEED, BUDGET))


def test_criterion_4_tiled_corpus():
    # >= 10^4 random K4-tiled graphs: certificate kind consistent with the
    # deficiency class, sound under exhaustive rainbow-K4 scan, and the
    # deficiency identity re-solved on a 500-graph subsample.  The 10^4
    # indices hold 3,516 distinct graphs at seed 42; each is checked once
    # per run and every index still gets its own verdict.
    report(verification.check_tiled_corpus(SEED, BUDGET))


def test_criterion_5_avoid_k8_sweep():
    # >= 200 perturbed instances, n in {80,120}, p = n^-0.45: structural
    # audit holds, colourings proper, every one-side rainbow K4 uses red,
    # zero rainbow K8, out-of-regime rate < 5%.
    report(verification.check_avoid_k8(SEED, BUDGET))


def test_criterion_6_lemma_falsification(tmp_path):
    # Each extraction lemma survives >= 10^4 randomized trials; any
    # counterexample is archived and fails this test.
    report(verification.check_lemma_falsification(SEED, BUDGET, archive_dir=tmp_path))
    assert not list(tmp_path.iterdir()), "counterexample archive should be empty"


def test_criterion_7_reference_bounds():
    # Density minima match the exhaustive oracles on the six reference
    # graphs, janson_bound(K2) matches the closed form to 1e-12 relative,
    # and the two-density of K_r equals (r+1)/2 for r in 3..12.
    report(verification.check_reference_bounds(BUDGET))


def test_criterion_8_verify_all_reproducible(tmp_path, capsys):
    # verify-all --seed 42 twice, with different thread counts, produces
    # byte-identical console lines and byte-identical results.json.
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    rc1 = main(["verify-all", "--seed", "42", "--emit", str(d1), "--threads", "1"])
    out1 = capsys.readouterr().out
    rc2 = main(["verify-all", "--seed", "42", "--emit", str(d2), "--threads", "3"])
    out2 = capsys.readouterr().out
    assert rc1 == 0 and rc2 == 0
    assert out1 == out2
    assert (d1 / "results.json").read_bytes() == (d2 / "results.json").read_bytes()
    print()
    print(
        "[PASS] verify-all-reproducible: "
        "byte-identical output across repeat runs and thread counts"
    )
