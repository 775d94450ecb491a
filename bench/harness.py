"""Workload-independent parts of the benchmark: outcomes, the host-speed
reference, the batch loop, tallies and the outcome digest.  Imports nothing
from rainbowlab."""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
import traceback
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

OK, DECLINED, FAILED = "ok", "declined", "failed"


@dataclass
class Outcome:
    """Result of one validated unit: a verdict, the record that goes into the
    outcome digest, and the reasons for a failure."""

    verdict: str
    record: list
    problems: list[str] = field(default_factory=list)


def verdict_of(problems: list[str], declined: bool) -> str:
    if problems:
        return FAILED
    return DECLINED if declined else OK


def run_unit(fn, *args) -> Outcome | None:
    """Run one unit; an unexpected exception fails the unit, not the run."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - counted as a failed unit
        reason = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return Outcome(FAILED, ["exception", type(exc).__name__], [reason])


# Gated times are scaled to the host speed at which each reference function
# takes REFERENCE_MS.  Any fixed value would do; this one is near their time
# on the 2-vCPU host the bounds were set on, so scaled times read close to
# measured ones.
REFERENCE_MS = 30.0
# A reference sample is taken before a unit once this much unit time has
# passed since the last one, so every unit has samples close on both sides.
REFERENCE_EVERY_S = 0.25

_REFERENCE_N = 1200
_reference_data = None


def _build_reference_data():
    """A fixed graph of 1200 vertices and about 36k edges, coloured with a
    colour per edge, as neighbour sets, an edge-to-colour dict and
    per-vertex colour Counters: the containers rainbowlab works on."""
    rng = random.Random(5)
    adj = [set() for _ in range(_REFERENCE_N)]
    for a in range(_REFERENCE_N):
        for b in rng.sample(range(_REFERENCE_N), 30):
            if a != b:
                adj[a].add(b)
                adj[b].add(a)
    keys = [(a, b) for a in range(_REFERENCE_N) for b in sorted(adj[a]) if a < b]
    col = {k: c for c, k in enumerate(keys)}
    at = [Counter() for _ in range(_REFERENCE_N)]
    for (a, b), c in col.items():
        at[a][c] += 1
        at[b][c] += 1
    return adj, keys, col, at


def reference_data():
    """The fixed data reference_containers runs on, built on the first
    call.  The build ends with one untimed run, so that no timed run pays
    for the process's first allocation of that much memory."""
    global _reference_data
    if _reference_data is None:
        _reference_data = _build_reference_data()
        reference_containers()
    return _reference_data


# The host's slow spells slow work on large containers and work that stays
# in cache by different factors, so each workload is scaled by reference
# work of its own kind.  Neither function is code the program under test can
# change, so their time tells how fast the host ran just then.


def reference_containers() -> int:
    """About 30 ms of work on large containers, as the library does on big
    instances: copy a colouring (dict and per-vertex Counters), recolour
    every eighth edge from a small pool where no clash arises, and
    intersect neighbour sets."""
    adj, keys, base_col, base_at = reference_data()
    rng = random.Random(11)
    col = dict(base_col)
    at = [Counter(c) for c in base_at]
    pool = tuple(range(12))
    for k in keys[::8]:
        a, b = k
        c = rng.choice(pool)
        if c not in at[a] and c not in at[b]:
            old = col[k]
            at[a][old] -= 1
            at[b][old] -= 1
            col[k] = c
            at[a][c] += 1
            at[b][c] += 1
    total = 0
    for a in range(0, _REFERENCE_N, 6):
        na = adj[a]
        for b in na:
            if b > a:
                total += len(na & adj[b])
    return total


def reference_loop() -> int:
    """About 30 ms of a loop over a small dict and list that stay in cache,
    as a search over a 12-vertex graph does."""
    small, xs, total = {}, list(range(64)), 0
    for i in range(160_000):
        small[i & 1023] = i
        total += small.get(i & 511, 0) + xs[i & 63]
    return total


def _reference_sample(work) -> None:
    for fn in work:
        fn()


class Phase:
    """Timings and outcomes of consecutive batches of one workload.  Each
    reference sample runs the functions in `reference` one after another,
    on `reference_threads` threads at once: as many as the workload runs its
    own work on."""

    def __init__(self, reference=(reference_containers, reference_loop),
                 reference_threads: int = 1):
        self.reference = reference
        self.reference_threads = reference_threads
        self.batch_s: list[float] = []
        self.unit_ms: list[float] = []
        # (start, end, index of the last reference sample before it) per unit
        self.unit_at: list[tuple[float, float, int]] = []
        self.outcomes: list[Outcome] = []
        self.first_batch: list[Outcome] = []
        self.reference_ms: list[float] = []
        self.reference_at: list[tuple[float, float]] = []  # (start, end) per sample
        self.reference_s = 0.0  # spent on reference samples, left out of unit times

    def run_s(self) -> float:
        return statistics.median(self.batch_s)

    def time_reference(self) -> None:
        begin = time.perf_counter()
        reference_data()
        start = time.perf_counter()
        if self.reference_threads == 1:
            _reference_sample(self.reference)
        else:
            with ThreadPoolExecutor(self.reference_threads) as pool:
                for _ in range(self.reference_threads):
                    pool.submit(_reference_sample, self.reference)
        end = time.perf_counter()
        self.reference_ms.append((end - start) * 1000.0)
        self.reference_at.append((start, end))
        self.reference_s += end - begin

    def reference_ms_at_speed(self) -> float:
        """A sample's time at the reference speed: on n threads, n times
        the work runs, under one interpreter lock."""
        return REFERENCE_MS * len(self.reference) * self.reference_threads

    def host_scale(self) -> float:
        """Turns a time measured in this phase into the time at the
        reference speed: below 1 when the host ran slow."""
        return self.reference_ms_at_speed() / statistics.median(self.reference_ms)

    def scaled_unit_ms(self) -> list[float]:
        """Each unit's time at the reference speed.  The host's speed drifts
        within a run, so every stretch of a unit between two reference
        samples is scaled by the mean of those two samples: the host's
        speed at that moment, not its typical speed over the run."""
        out = []
        for start, end, k in self.unit_at:
            scaled, t = 0.0, start
            while True:
                stop = min(end, self.reference_at[k + 1][0])
                pace = (self.reference_ms[k] + self.reference_ms[k + 1]) / 2.0
                scaled += (stop - t) * 1000.0 * self.reference_ms_at_speed() / pace
                if stop == end:
                    break
                k += 1
                t = self.reference_at[k][1]
            out.append(scaled)
        return out


def run_phase(workload, seconds: float | None, batches: int | None = None) -> Phase:
    """Run batches until the next one would end after `seconds`, or exactly
    `batches` of them.  At least two batches run when timed by `seconds`,
    so a run always has two units to compare.

    Unit i of batch b has index b * batch_units + i, so every run of a seed
    sees the same inputs in the same order.  Items a batch runs besides its
    units are traced under unit id -(b + 1).
    """
    phase = Phase(workload.reference, workload.reference_threads)
    workload.phase = phase
    tracer = workload.tracer
    size = workload.batch_units
    start = time.perf_counter()
    b = 0
    while True:
        phase.time_reference()
        t_batch, ref_batch = time.perf_counter(), phase.reference_s
        tracer.unit = -(b + 1)
        extra = run_unit(workload.batch_start, b)
        if extra is not None:
            phase.outcomes.append(extra)
        since = time.perf_counter() - t_batch  # work time since the last sample
        for i in range(b * size, (b + 1) * size):
            if since >= REFERENCE_EVERY_S:
                phase.time_reference()
                since = 0.0
            tracer.unit = i
            before = len(phase.reference_ms) - 1
            t_unit, ref_unit = time.perf_counter(), phase.reference_s
            with tracer.span("unit"):
                outcome = run_unit(workload.unit, i)
            t_end = time.perf_counter()
            unit_s = t_end - t_unit - (phase.reference_s - ref_unit)
            since += unit_s
            phase.unit_ms.append(unit_s * 1000.0)
            # The sample after it comes at a later unit, batch or the phase's end.
            phase.unit_at.append((t_unit, t_end, before))
            phase.outcomes.append(outcome)
        phase.batch_s.append(time.perf_counter() - t_batch - (phase.reference_s - ref_batch))
        if b == 0:
            phase.first_batch = list(phase.outcomes)
        b += 1
        if batches is not None:
            if b >= batches:
                break
        elif b >= 2 and time.perf_counter() - start + phase.run_s() > seconds:
            break
    phase.time_reference()
    tracer.unit = None
    return phase


def digest(outcomes) -> str:
    """sha256 of the verdicts and records, in run order."""
    records = [[o.verdict, o.record] for o in outcomes]
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def tally(outcomes) -> dict:
    attempted = len(outcomes)
    failed = sum(o.verdict == FAILED for o in outcomes)
    declined = sum(o.verdict == DECLINED for o in outcomes)
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "declined_frac": declined / attempted,
        "problems": [p for o in outcomes for p in o.problems][:5],
    }
