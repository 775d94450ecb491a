"""Acceptance harness behind the ``verify-all`` command.

Each acceptance criterion is a callable producing a :class:`CheckResult`;
``run_all`` composes them.  Results carry no timestamps or timings, so the
JSON rendering of a run is a pure function of (seed, budget).  Trials run
in order on the calling thread; the ``threads`` parameters are accepted
for compatibility and start no threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .avoiders import attempt, perturbed_cliques  # noqa: F401 (perturbed_cliques re-exported)
from .colouring import decide_arrows, is_proper, rainbow_copies
from .emergence import (
    MARGIN_LINEAR,
    MARGIN_UNIT,
    density_condition,
    janson_bound,
    verify_structure,
)
from .errors import OutOfRegime, ParameterError, SearchExhausted
from .graph import (
    clique,
    densities,
    disjoint_union,
    hat_k,
    k_delta,
    r7,
    star,
    t_graph,
)
from .lemma_lab import LEMMA_NAMES, certify_lemma
from .model import sample_perturbed
from .tiled_k8 import (
    certificate_allowed,
    certificate_covers,
    colour_tiled,
    corpus_graph,
    find_stretched_sequence,
    phi,
)

BUDGETS = ("quick", "full")

_RESOLVE_BUDGET = 2_000_000


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one acceptance criterion."""

    name: str
    passed: bool
    summary: str
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.summary}"

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "summary": self.summary,
            "details": self.details,
        }


def _require_budget(budget: str) -> None:
    if budget not in BUDGETS:
        raise ParameterError(f"budget must be one of {BUDGETS}, got {budget!r}")


def _run_trials(one, work) -> tuple[int, int, list[str]]:
    """Apply ``one`` to each work tuple, in order.  It returns "ok",
    "skip" for an input declined by design, or a violation message; the
    result is (ok count, skip count, the violation messages)."""
    results = [one(*args) for args in work]
    ok = results.count("ok")
    skipped = results.count("skip")
    return ok, skipped, [msg for msg in results if msg not in ("ok", "skip")]


# -- criterion 1: decide_arrows certificate suite -------------------------------


def check_certificates(budget: str = "quick") -> CheckResult:
    """K3 vs K3 and HatK(3,4) vs K4 arrow; K4 vs K4 and K5 vs K4 witnesses."""
    _require_budget(budget)
    details: dict = {}
    problems: list[str] = []

    cases = [
        ("k3-vs-k3", clique(3), clique(3), "arrows"),
        ("k4-vs-k4", clique(4), clique(4), "witness"),
        ("hatk34-vs-k4", hat_k(3, 4), clique(4), "arrows"),
        ("k5-vs-k4", clique(5), clique(4), "witness"),
    ]
    for label, g, h, want in cases:
        verdict = decide_arrows(g, h, node_budget=50_000_000)
        details[label] = {"outcome": verdict.outcome, "nodes": verdict.nodes}
        if verdict.outcome != want:
            problems.append(f"{label}: expected {want}, got {verdict.outcome}")
        if label == "k5-vs-k4" and verdict.outcome == "witness":
            w = verdict.witness
            rainbow = rainbow_copies(g, w, clique(4))
            good = (
                is_proper(g, w)
                and w.is_total()
                and len(w.colours_used()) == 5
                and not rainbow
            )
            details[label]["witness_colours"] = len(w.colours_used())
            if not good:
                problems.append("k5-vs-k4 witness is not a rainbow-K4-free proper 5-colouring")

    summary = (
        "all four decide_arrows verdicts and the K5 witness check out"
        if not problems
        else "; ".join(problems)
    )
    return CheckResult("certificates", not problems, summary, details)


# -- criterion 2: avoid_k4 sweep -------------------------------------------------


def check_avoid_k4(seed: int, budget: str = "quick", threads: int = 1) -> CheckResult:
    """K4 avoider sweep; ``threads`` is accepted and starts no threads."""
    ns = (50, 100, 200, 400)
    cs = (0.3, 0.7)
    per_cell = 63 if budget == "full" else 6
    _require_budget(budget)

    def one(ni, ci, trial):
        n, c = ns[ni], cs[ci]
        rng = np.random.default_rng([seed, 2, ni, ci, trial])
        declined, problem = attempt(sample_perturbed(n, c * n ** -1.25, rng), 4)
        if declined:
            return "skip"
        if problem:
            return f"n={n} c={c} trial={trial}: {problem}"
        return "ok"

    work = [(ni, ci, t) for ni in range(len(ns)) for ci in range(len(cs))
            for t in range(per_cell)]
    classified, unclassified, violations = _run_trials(one, work)

    total = len(work)
    rate = classified / total
    passed = not violations and rate >= 0.95
    summary = (
        f"{classified}/{total} classified ({rate:.1%}), zero rainbow K4 on validated"
        if passed
        else f"rate {rate:.1%}, violations: {violations[:3]}"
    )
    details = {
        "instances": total,
        "classified": classified,
        "unclassified": unclassified,
        "violations": violations[:10],
    }
    return CheckResult("avoid-k4-sweep", passed, summary, details)


# -- criterion 3: avoid_k6 sweep -------------------------------------------------


def check_avoid_k6(seed: int, budget: str = "quick", threads: int = 1) -> CheckResult:
    """K6 avoider sweep; ``threads`` is accepted and starts no threads."""
    ns = (100, 200, 300)
    per_cell = 100 if budget == "full" else 4
    _require_budget(budget)

    def one(ni, trial):
        n = ns[ni]
        rng = np.random.default_rng([seed, 3, ni, trial])
        declined, problem = attempt(sample_perturbed(n, n ** -0.7, rng), 6)
        if declined:
            return "skip"
        if problem:
            return f"n={n} trial={trial}: {problem}"
        return "ok"

    work = [(ni, t) for ni in range(len(ns)) for t in range(per_cell)]
    ok, skipped, violations = _run_trials(one, work)

    passed = not violations
    summary = (
        f"{ok}/{len(work)} validated (matchings scan + proper + zero rainbow K6), "
        f"{skipped} out-of-regime"
        if passed
        else f"violations: {violations[:3]}"
    )
    details = {
        "instances": len(work),
        "validated": ok,
        "out_of_regime": skipped,
        "violations": violations[:10],
    }
    return CheckResult("avoid-k6-sweep", passed, summary, details)


# -- criterion 4: K4-tiled corpus ------------------------------------------------


_K4 = clique(4)


def check_tiled_corpus(seed: int, budget: str = "quick", threads: int = 1) -> CheckResult:
    """K4-tiled corpus audit; ``threads`` is accepted and starts no threads.

    Every check is a function of the labelled graph alone, and half or more
    of a corpus repeats a graph an earlier index drew (the 10,000 graphs of
    seed 42 hold 3,516 distinct ones), so each distinct graph is coloured,
    checked and re-solved once.  Its findings are kept, without an index, in two dicts
    that live for this call only, and every index reports them as
    ``graph {index}: ...`` in index order, as if checked on its own.
    """
    corpus_size = 10_000 if budget == "full" else 1_000
    resolve_size = 500 if budget == "full" else 75
    _require_budget(budget)

    def check(g):
        """Whether colour_tiled coloured g, and what its output gets wrong."""
        f = phi(g)
        try:
            psi, cert = colour_tiled(g)
        except (OutOfRegime, SearchExhausted) as exc:
            return False, [f"colour_tiled raised {type(exc).__name__}"]
        problems = []
        if not psi.is_total() or not is_proper(g, psi):
            problems.append("colouring not total+proper")
        if not certificate_allowed(cert, f):
            problems.append(f"certificate {cert.kind} not allowed for phi={f}")
        quads = rainbow_copies(g, psi, _K4)
        if not certificate_covers(cert, quads):
            problems.append(f"certificate {cert.kind} unsound")
        return True, problems

    def resolve(g):
        """What a fresh sequence search says against g's phi identity."""
        f = phi(g)
        try:
            seq = find_stretched_sequence(g, node_budget=_RESOLVE_BUDGET)
        except SearchExhausted:
            return ["re-solve budget exhausted"]
        problems = []
        if sorted(seq.all_edges()) != list(g.edges):
            problems.append("re-solved sequence misses edges")
        if seq.phi_value() != f:
            problems.append(f"phi {f} != 2*gamma+beta value {seq.phi_value()}")
        return problems

    checked, resolved = {}, {}

    def one(index):
        g, _ = corpus_graph(seed, index)
        if g not in checked:
            checked[g] = check(g)
        coloured, problems = checked[g]
        if coloured and index < resolve_size:
            if g not in resolved:
                resolved[g] = resolve(g)
            problems = problems + resolved[g]
        return [f"graph {index}: {problem}" for problem in problems]

    all_problems = [msg for index in range(corpus_size) for msg in one(index)]

    passed = not all_problems
    summary = (
        f"{corpus_size} graphs: certificates class-consistent and sound, "
        f"phi identity re-solved on {resolve_size}"
        if passed
        else f"violations: {all_problems[:3]}"
    )
    details = {
        "corpus": corpus_size,
        "resolved": resolve_size,
        "violations": all_problems[:10],
    }
    return CheckResult("tiled-corpus", passed, summary, details)


# -- criterion 5: avoid_k8 sweep -------------------------------------------------


def check_avoid_k8(seed: int, budget: str = "quick", threads: int = 1) -> CheckResult:
    """K8 avoider sweep; ``threads`` is accepted and starts no threads."""
    ns = (80, 120)
    per_cell = 100 if budget == "full" else 8
    _require_budget(budget)

    def one(ni, trial):
        n = ns[ni]
        rng = np.random.default_rng([seed, 5, ni, trial])
        instance = sample_perturbed(n, n ** -0.45, rng)
        audit = verify_structure(disjoint_union((instance.left, instance.right)))
        declined, problem = attempt(instance, 8)
        # Only here is SearchExhausted a violation: it leaves a K8-regime component unsolved.
        if isinstance(declined, SearchExhausted):
            return f"n={n} trial={trial}: SearchExhausted: {declined}"
        if declined:
            return "skip"
        if not audit.ok:
            return (
                f"n={n} trial={trial}: colouring produced despite structural "
                f"violation {audit.violations[0].claim}"
            )
        if problem:
            return f"n={n} trial={trial}: {problem}"
        return "ok"

    work = [(ni, t) for ni in range(len(ns)) for t in range(per_cell)]
    ok, regime, violations = _run_trials(one, work)

    total = len(work)
    regime_rate = regime / total
    passed = not violations and regime_rate < 0.05
    summary = (
        f"{ok}/{total} validated (structure + proper + red cover + zero rainbow K8), "
        f"out-of-regime {regime_rate:.1%}"
        if passed
        else f"violations: {violations[:3]}, out-of-regime {regime_rate:.1%}"
    )
    details = {
        "instances": total,
        "validated": ok,
        "out_of_regime": regime,
        "out_of_regime_rate": round(regime_rate, 4),
        "violations": violations[:10],
    }
    return CheckResult("avoid-k8-sweep", passed, summary, details)


# -- criterion 6: lemma falsification --------------------------------------------


def check_lemma_falsification(
    seed: int, budget: str = "quick", archive_dir=None
) -> CheckResult:
    trials = 10_000 if budget == "full" else 1_000
    _require_budget(budget)
    details: dict = {"trials_per_lemma": trials, "lemmas": {}}
    failures: list[str] = []
    for name in LEMMA_NAMES:
        report = certify_lemma(name, trials=trials, seed=seed, archive_dir=archive_dir)
        details["lemmas"][name] = {
            "trials": report.trials,
            "failures": report.failures,
            "archive": report.archive,
        }
        if report.failures:
            failures.append(f"{name}: counterexample archived at {report.archive}")
    passed = not failures
    summary = (
        f"{len(LEMMA_NAMES)} extractors x {trials} trials, zero counterexamples"
        if passed
        else "; ".join(failures)
    )
    return CheckResult("lemma-falsification", passed, summary, details)


# -- criterion 7: reference bounds ------------------------------------------------


def check_reference_bounds(budget: str = "quick") -> CheckResult:
    _require_budget(budget)
    problems: list[str] = []
    details: dict = {}

    density_table = [
        ("k3", clique(3), Fraction(2, 3), Fraction(1)),
        ("star4", star(4), Fraction(1), Fraction(1)),
        ("r7", r7(), Fraction(2, 3), Fraction(1, 3)),
        ("t10", t_graph(10), Fraction(2, 3), Fraction(1)),
        ("hatk34", hat_k(3, 4), Fraction(7, 15), Fraction(0)),
        ("kdelta55", k_delta(5, 5), Fraction(7, 15), Fraction(23, 15)),
    ]
    margins = {}
    for label, h, x, want in density_table:
        report = density_condition(h, x, MARGIN_UNIT)
        margins[label] = str(report.min_value)
        if report.min_value != want:
            problems.append(f"{label}: min {report.min_value} != {want}")
        if not report.satisfied:
            problems.append(f"{label}: margin omega(1) unexpectedly unsatisfied")
    details["density_minima"] = margins

    degen = density_condition(k_delta(25, 49), Fraction(7, 15), MARGIN_LINEAR)
    details["kdelta2549_strategy"] = degen.strategy
    if not (degen.strategy == "degeneracy" and degen.satisfied):
        problems.append("kdelta(25,49) degeneracy certificate did not hold")

    worst_rel = 0.0
    for n, p in [(10, 0.5), (10, 0.001), (100, 0.01), (100, 0.001), (316, 0.001), (2000, 1e-6)]:
        est = janson_bound(clique(2), n, p)
        target = math.exp(-math.comb(n, 2) * p)
        rel = abs(est.nonexistence_bound - target) / target
        worst_rel = max(worst_rel, rel)
    details["janson_k2_worst_rel_error"] = worst_rel
    if worst_rel > 1e-12:
        problems.append(f"janson_bound(K2) off by {worst_rel:.2e} relative")

    m2_exact = all(
        densities(clique(r), want_bip2=False).m2 == Fraction(r + 1, 2)
        for r in range(3, 13)
    )
    details["m2_clique_identity"] = m2_exact
    if not m2_exact:
        problems.append("m2(K_r) != (r+1)/2 for some r in 3..12")

    passed = not problems
    summary = (
        "density minima, janson K2 closed form, and m2 clique identity all exact"
        if passed
        else "; ".join(problems)
    )
    return CheckResult("reference-bounds", passed, summary, details)


# -- composition -----------------------------------------------------------------


def run_all(seed: int, budget: str = "quick", archive_dir=None) -> list[CheckResult]:
    """Run every acceptance criterion; deterministic w.r.t. (seed, budget)."""
    _require_budget(budget)
    return [
        check_certificates(budget),
        check_avoid_k4(seed, budget),
        check_avoid_k6(seed, budget),
        check_tiled_corpus(seed, budget),
        check_avoid_k8(seed, budget),
        check_lemma_falsification(seed, budget, archive_dir),
        check_reference_bounds(budget),
    ]


def results_to_json_dict(seed: int, budget: str, results) -> dict:
    return {
        "seed": seed,
        "budget": budget,
        "passed": all(r.passed for r in results),
        "results": [r.to_json_dict() for r in results],
    }
