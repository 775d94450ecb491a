"""rainbow-lab benchmark: run one workload and print its metrics as JSON.

    python3 bench/run.py --workload dense-join --seed 1 --seconds 25 --trace 0

It imports rainbowlab from the ``src/`` directory next to this one.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
outcome digest, the declined fraction and the run environment.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run.  bench/README.md describes the workloads.
"""

import time

T0 = time.perf_counter()

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

from harness import FAILED, Outcome, Phase, digest, run_phase, tally  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

# Spelled out because workloads.py imports rainbowlab, whose presence main()
# checks first.
WORKLOAD_NAMES = ("dense-join", "lemma-falsify", "tiled-search", "gate-threads")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def check_checkout() -> None:
    """Refuse to run unless rainbowlab's sources sit next to the benchmark."""
    if not (SRC / "rainbowlab" / "__init__.py").is_file():
        sys.exit(f"bench: no rainbowlab sources under {SRC}; run from a rainbow-lab checkout")
    import rainbowlab

    if Path(rainbowlab.__file__).resolve().parent != (SRC / "rainbowlab").resolve():
        sys.exit(f"bench: rainbowlab was imported from {rainbowlab.__file__}, not {SRC}")


def setup_workload(args, tracer, setup):
    """Build the workload's fixed inputs, traced, and run its warm-up unit,
    untraced.  The warm-up samples the host speed into `setup` between
    long library calls.  Returns the workload and the import time."""
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T0 - setup.reference_s
    workload = WORKLOADS[args.workload](args.seed, tracer)
    workload.setup()
    workload.tracer, workload.phase = NullTracer(), setup
    workload.warmup()
    workload.tracer = tracer
    return workload, import_s


# -- run environment ------------------------------------------------------------


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (git / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def src_sha256() -> str:
    """Hash of the library sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "rainbowlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": os.getloadavg(),
    }


# -- metrics --------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(phase, setup_s: float) -> dict:
    """The gated metrics.  Other tenants of the host slow it by up to 1.8x,
    for seconds or minutes at a time, so the times are at the reference
    host speed (harness.REFERENCE_MS); `setup_s` is scaled already.  The
    measured times are on the info line."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": metric(setup_s, "s"),
        "unit_ms_p50": metric(statistics.median(phase.scaled_unit_ms()), "ms"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
    }


DENSE_KINDS = ("k4", "k6", "k8")
LEMMA_SHORT = ("k4", "k5", "pair", "k6", "surv", "k7")
GATE_CHECKS = tuple(
    f"verification.{c}_s"
    for c in ("certificates", "avoid_k4", "avoid_k6", "tiled_corpus", "avoid_k8",
              "reference_bounds")
)

# (name, unit, how): "ms" is the median over units of the span's self time,
# "count" the median over units of a counter, "total" a counter summed over
# the traced batches.  A layer the workload does not use reads 0.
PER_LAYER = (
    [(f"model.sample_ms.{k}", "ms", "ms") for k in DENSE_KINDS]
    + [(f"graph.build_ms.{k}", "ms", "ms") for k in DENSE_KINDS]
    + [(f"{m}.avoid_ms", "ms", "ms") for m in ("avoider_k4", "avoider_k6", "tiled_k8")]
    + [(f"colouring.check_ms.{k}", "ms", "ms") for k in DENSE_KINDS]
    + [("avoider_k6.matchings_ms", "ms", "ms"), ("emergence.structure_ms", "ms", "ms")]
    + [(f"verification.rainbow_scan_ms.{k}", "ms", "ms") for k in DENSE_KINDS]
    + [(f"graph.edges.{k}", "count", "count") for k in DENSE_KINDS]
    + [(f"verification.cliques.{k}", "count", "count") for k in DENSE_KINDS]
    + [(f"colouring.colours.{k}", "count", "count") for k in DENSE_KINDS]
    + [(f"declined.{k}", "count", "total") for k in DENSE_KINDS]
    + [(f"lemma_lab.{s}_ms.{k}", "ms", "ms")
       for s in ("sample", "extract", "build") for k in LEMMA_SHORT]
    + [(f"tiled_k8.{s}_ms", "ms", "ms") for s in ("generate", "colour", "resolve")]
    + [("colouring.proper_ms", "ms", "ms"), ("colouring.rainbow_ms", "ms", "ms")]
    + [("tiled_k8.redraws", "count", "total")]
    + [(f"tiled_k8.phi_class.{c}", "count", "total") for c in ("0-2", "3-5", "6-7")]
    + [("colouring.decide_ms", "ms", "ms"), ("colouring.decide_nodes", "count", "count")]
)


def per_layer(tracer, overhead: float, threads1=None) -> dict:
    out = {}
    for name, unit, how in PER_LAYER:
        if how == "ms":
            value = tracer.median_self_ms(name)
        elif how == "count":
            value = tracer.median_count(name)
        else:
            value = tracer.total_count(name)
        out[name] = metric(value, unit)
    decide_s = tracer.median_self_ms("colouring.decide_ms") / 1000.0
    nodes = tracer.median_count("colouring.decide_nodes")
    out["colouring.decide_nodes_per_s"] = metric(nodes / decide_s if decide_s else 0.0, "1/s")
    for name in GATE_CHECKS + ("emergence.scan_s",):
        out[name] = metric(tracer.median_self_ms(name) / 1000.0, "s")
    # Per-unit medians: one unit is one whole gate, at 1 or at 2 threads.
    for name, spans in (("verification.thread_speedup", GATE_CHECKS),
                        ("emergence.scan_thread_speedup", ("emergence.scan_s",))):
        speedup = 0.0
        if threads1 is not None:
            two = sum(tracer.median_self_ms(s) for s in spans)
            one = sum(threads1.median_self_ms(s) for s in spans)
            speedup = one / two if two else 0.0
        out[name] = metric(speedup, "ratio")
    out["trace.overhead_frac"] = metric(overhead, "ratio")
    return out


# -- main -----------------------------------------------------------------------


def timed_run(args, workload, setup_s: float, info: dict):
    phase = run_phase(workload, args.seconds)
    info.update(
        batches=len(phase.batch_s),
        units=len(phase.unit_ms),
        host_scale=phase.host_scale(),
        raw_run_s=phase.run_s(),
        raw_unit_ms_p50=statistics.median(phase.unit_ms),
    )
    if len(phase.unit_ms) >= 100:
        scaled = statistics.quantiles(phase.scaled_unit_ms(), n=10, method="inclusive")
        info["unit_ms_p90"] = scaled[8]
        info["raw_unit_ms_p90"] = statistics.quantiles(phase.unit_ms, n=10, method="inclusive")[8]
    return phase, phase.outcomes, end_to_end(phase, setup_s)


def traced_run(args, workload, tracer, info: dict):
    """The same batches run untraced, then traced, so their time ratio is the
    tracing overhead; gate-threads then repeats its batch at one thread."""
    workload.tracer = NullTracer()
    plain = run_phase(workload, args.seconds / 2)
    workload.tracer = tracer
    traced = run_phase(workload, None, batches=len(plain.batch_s))
    outcomes = plain.outcomes + traced.outcomes
    threads1 = None
    if args.workload == "gate-threads":
        threads1 = Tracer()
        workload.tracer, workload.threads = threads1, 1
        single = run_phase(workload, None, batches=1)
        outcomes += single.outcomes
        if digest(single.first_batch) != digest(plain.first_batch):
            outcomes.append(Outcome(FAILED, [], ["gate outcomes differ between 1 and 2 threads"]))
    path = BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(path)
    info["trace_file"] = str(path.relative_to(ROOT))
    overhead = (traced.run_s() * traced.host_scale()) / (plain.run_s() * plain.host_scale()) - 1.0
    return plain, outcomes, per_layer(tracer, overhead, threads1)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Set-up is scaled by host-speed samples taken around it (and inside
    # long warm-ups), not by those of the timed run that follows.
    setup = Phase()
    setup.time_reference()
    check_checkout()
    tracer = Tracer() if args.trace else NullTracer()
    workload, import_s = setup_workload(args, tracer, setup)
    setup.time_reference()
    raw_setup_s = time.perf_counter() - T0 - setup.reference_s
    setup_s = raw_setup_s * setup.host_scale()

    env = environment()
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "import_s": import_s, "raw_setup_s": raw_setup_s,
            "setup_host_scale": setup.host_scale()}
    if args.trace:
        phase, outcomes, metrics = traced_run(args, workload, tracer, info)
    else:
        phase, outcomes, metrics = timed_run(args, workload, setup_s, info)
    counts = tally(outcomes)
    env["loadavg_end"] = os.getloadavg()
    env["reference_ms"] = statistics.median(phase.reference_ms)
    info.update(
        digest=digest(phase.first_batch),
        declined_frac=tally(phase.first_batch)["declined_frac"],
        failed_frac=counts["failed_frac"],
        problems=counts["problems"],
        env=env,
    )
    correct = counts["failed"] == 0
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
