"""Command-line surface for the library.

One binary with subcommands; JSON for structures, CSV for sweeps.  Every
emitted file gets a sibling manifest recording the exact command, resolved
configuration, seed, and output paths — re-running that command reproduces
the emitted files byte for byte (manifests themselves carry timestamps and
are not part of the byte-identity contract).

Exit codes: 0 = pass, 1 = property violation found, 2 = out of regime /
unsupported structure / undecided, 3 = usage error, 4 = internal error (an
unexpected exception; one line on stderr, no traceback).

A handler computes and returns ``(text, passed, exit code, default file
name)``; it neither prints nor writes.  ``_run_handler`` stamps the start
time, prints the text and, under ``--emit``, writes the text to the
resolved output and its manifest.  ``scan`` and ``verify-all`` write their
own file because it is not their stdout: ``scan`` zeroes the timing column
of the emitted CSV, and ``verify-all`` writes an indented ``results.json``
into a directory next to ``counterexamples/``.  Both still write their
manifest through ``_write_manifest``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .avoiders import attempt
from .colouring import decide_arrows, is_proper, rainbow_copies
from .emergence import (
    MARGIN_LINEAR,
    MARGIN_UNIT,
    SCAN_MODES,
    ScanConfig,
    density_condition,
    janson_bound,
    parse_probability,
    scan_rows_to_csv,
    threshold_scan,
)
from .errors import (
    OutOfRegime,
    ParameterError,
    SearchExhausted,
    StructureUnsupported,
)
from .graph import Graph, clique, graph_from_json, graph_to_json, parse_graph_spec
from .lemma_lab import LEMMA_NAMES, certify_lemma
from .model import sample_perturbed
from .tiled_k8 import certificate_allowed, certificate_covers, colour_tiled, phi
from .verification import check_tiled_corpus, results_to_json_dict, run_all

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_UNSUPPORTED = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4

# What an emitting handler returns: (text, passed, exit code, default file name).
_Emitted = tuple[str, bool, int, str]


# -- output ----------------------------------------------------------------------


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _resolve_output(emit: str, default_name: str) -> Path:
    """Map --emit (file or directory) to the concrete output file path."""
    target = Path(emit)
    if target.suffix == "" and not target.exists():
        target.mkdir(parents=True, exist_ok=True)
    out = target / default_name if target.is_dir() else target
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(args, out: Path, *, passed, started: str) -> None:
    """Write ``<out>.manifest.json`` next to the output file."""
    manifest = {
        "command": ["rainbow-lab"] + getattr(args, "_argv", []),
        "config": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("func", "_argv") and v is not None
        },
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "started": started,
        "finished": _now(),
        "outputs": [str(out)],
        "passed": passed,
    }
    text = json.dumps(manifest, indent=2, sort_keys=True)
    out.with_name(out.name + ".manifest.json").write_text(text + "\n")


def _run_handler(handler, args) -> int:
    """Run an emitting handler: print its text and, when --emit is set,
    write the text and its manifest."""
    started = _now()
    text, passed, code, default_name = handler(args)
    print(text)
    if args.emit:
        out = _resolve_output(args.emit, default_name)
        out.write_text(text + "\n")
        _write_manifest(args, out, passed=passed, started=started)
    return code


def _load_graph(spec: str) -> Graph:
    p = Path(spec)
    try:
        is_file = p.exists()
    except OSError:  # e.g. a spec longer than a file name can be
        is_file = False
    if spec.endswith(".json") or is_file:
        try:
            return graph_from_json(p.read_text())
        except OSError as exc:
            raise ParameterError(f"cannot read graph file {spec!r}: {exc}") from exc
    return parse_graph_spec(spec)


def _default_threads(value) -> int:
    """--threads, else RAINBOW_LAB_THREADS, else 1; a value below 1 is a
    usage error.  Only ``scan`` passes the value on; no command starts threads."""
    source = "--threads"
    if value is None:
        source = "RAINBOW_LAB_THREADS"
        env = os.environ.get(source)
        if not env:
            return 1
        try:
            value = int(env)
        except ValueError as exc:
            raise ParameterError(f"{source} must be an integer, got {env!r}") from exc
    if value < 1:
        raise ParameterError(f"{source} must be >= 1, got {value}")
    return value


# -- subcommand handlers -----------------------------------------------------------


def _cmd_construct(args) -> _Emitted:
    return graph_to_json(_load_graph(args.graph)), True, EXIT_PASS, "graph.json"


def _cmd_decide(args) -> _Emitted:
    g = _load_graph(args.graph)
    h = _load_graph(args.target)
    budget = 200_000_000 if args.budget == "full" else 2_000_000
    verdict = decide_arrows(g, h, node_budget=budget)
    out = {"outcome": verdict.outcome, "nodes": verdict.nodes}
    if verdict.witness is not None:
        out["witness"] = [
            [u, v, verdict.witness.get(u, v)] for u, v in verdict.witness.domain()
        ]
    decided = verdict.outcome in ("arrows", "witness")
    code = EXIT_PASS if decided else EXIT_UNSUPPORTED
    return json.dumps(out, sort_keys=True), decided, code, "decision.json"


def _run_avoider(args, ell: int) -> _Emitted:
    n = args.n
    if args.trials < 1:
        raise ParameterError(f"trials must be >= 1, got {args.trials}")
    p = float(parse_probability(args.p, n))
    validated = 0
    out_of_regime: list[str] = []
    violations: list[str] = []
    for trial in range(args.trials):
        rng = np.random.default_rng([args.seed, ell, trial])
        declined, problem = attempt(sample_perturbed(n, p, rng), ell)
        if declined:
            out_of_regime.append(f"trial {trial}: {type(declined).__name__}: {declined}")
        elif problem:
            violations.append(f"trial {trial}: {problem}")
        else:
            validated += 1

    result = {
        "pattern": f"K{ell}",
        "n": n,
        "p": p,
        "seed": args.seed,
        "trials": args.trials,
        "validated": validated,
        "out_of_regime": out_of_regime,
        "violations": violations,
    }
    if violations:
        code = EXIT_VIOLATION
    elif validated == 0:
        code = EXIT_UNSUPPORTED
    else:
        code = EXIT_PASS
    return json.dumps(result, sort_keys=True), code == EXIT_PASS, code, f"avoid-k{ell}.json"


def _cmd_tiled(args) -> _Emitted:
    if args.graph is None:
        result = check_tiled_corpus(args.seed, args.budget)
        payload = {
            "summary": result.summary,
            "passed": result.passed,
            **result.details,
        }
        code = EXIT_PASS if result.passed else EXIT_VIOLATION
        return json.dumps(payload, sort_keys=True), result.passed, code, "tiled-corpus.json"

    g = _load_graph(args.graph)
    f = phi(g)
    psi, cert = colour_tiled(g)
    quads = rainbow_copies(g, psi, clique(4))
    sound = certificate_covers(cert, quads)
    class_ok = certificate_allowed(cert, f)
    payload = {
        "phi": f,
        "certificate": {
            "kind": cert.kind,
            "triangle": list(cert.triangle) if cert.triangle else None,
            "matching": [list(e) for e in cert.matching] if cert.matching else None,
        },
        "colours": [[u, v, psi.get(u, v)] for u, v in g.edges],
        "rainbow_k4_count": len(quads),
        "proper": is_proper(g, psi),
        "sound": sound,
        "class_consistent": class_ok,
    }
    ok = sound and class_ok and payload["proper"]
    code = EXIT_PASS if ok else EXIT_VIOLATION
    return json.dumps(payload, sort_keys=True), ok, code, "tiled.json"


def _cmd_certify(args) -> _Emitted:
    names = LEMMA_NAMES if args.lemma == "all" else (args.lemma,)
    archive_dir = None
    if args.emit:
        target = Path(args.emit)
        archive_dir = target if target.suffix == "" else target.parent
    reports = [
        certify_lemma(name, trials=args.trials, seed=args.seed, archive_dir=archive_dir)
        for name in names
    ]
    passed = all(r.passed for r in reports)
    payload = {
        "trials": args.trials,
        "seed": args.seed,
        "reports": [r.to_json_dict() for r in reports],
        "passed": passed,
    }
    code = EXIT_PASS if passed else EXIT_VIOLATION
    return json.dumps(payload, sort_keys=True), passed, code, "certify.json"


def _cmd_janson(args) -> _Emitted:
    est = janson_bound(_load_graph(args.graph), args.n, args.p)
    return json.dumps(est.to_json_dict(), sort_keys=True), True, EXIT_PASS, "janson.json"


def _cmd_density(args) -> _Emitted:
    h = _load_graph(args.graph)
    try:
        exponent = Fraction(args.exponent)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"exponent {args.exponent!r} is not a fraction") from exc
    report = density_condition(h, exponent, args.margin)
    ok = report.satisfied
    code = EXIT_PASS if ok else EXIT_VIOLATION
    return json.dumps(report.to_json_dict(), sort_keys=True), ok, code, "density.json"


def _cmd_scan(args) -> int:
    started = _now()
    config = ScanConfig(
        ell=args.ell,
        n_values=tuple(args.n),
        p_specs=tuple(args.p),
        trials=args.trials,
        mode=args.mode,
        seed=args.seed,
        threads=_default_threads(args.threads),
    )
    rows = threshold_scan(config)
    # Emitted files zero the timing column so a re-run reproduces them
    # byte for byte; the console copy keeps measured timings.
    print(scan_rows_to_csv(rows, deterministic=False), end="")
    if args.emit:
        out = _resolve_output(args.emit, "scan.csv")
        out.write_text(scan_rows_to_csv(rows, deterministic=True))
        _write_manifest(args, out, passed=True, started=started)
    return EXIT_PASS


def _cmd_verify_all(args) -> int:
    started = _now()
    _default_threads(args.threads)  # validated for the exit-3 rule, then unused
    if args.emit:  # an unusable --emit fails before the gate runs
        Path(args.emit).mkdir(parents=True, exist_ok=True)
    archive_dir = Path(args.emit) / "counterexamples" if args.emit else None
    results = run_all(args.seed, args.budget, archive_dir)
    for r in results:
        print(r.line())
    payload = results_to_json_dict(args.seed, args.budget, results)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.emit:
        out = Path(args.emit) / "results.json"
        out.write_text(text + "\n")
        _write_manifest(args, out, passed=payload["passed"], started=started)
    return EXIT_PASS if payload["passed"] else EXIT_VIOLATION


# -- parser ------------------------------------------------------------------------


_THREADS_HELP = "accepted for compatibility; trials run on one thread"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParameterError(message)


def _rng_seed(text: str) -> int:
    """--seed of the commands that seed numpy, which takes no negative seed."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser() -> _Parser:
    # --help shows the docstring up to its last paragraph, the handler
    # contract, which is for readers of this module.
    parser = _Parser(prog="rainbow-lab", description=__doc__.rsplit("\n\n", 1)[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, help_text, *, writes_own_file=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=handler if writes_own_file else partial(_run_handler, handler))
        return p

    p = add("construct", _cmd_construct, "build a named graph and print it as JSON")
    p.add_argument("--graph", required=True, help="graph spec (e.g. K5, HatK(3,4)) or JSON file")
    p.add_argument("--emit", help="output file or directory")

    p = add("decide", _cmd_decide, "decide whether every proper colouring yields a rainbow target")
    p.add_argument("--graph", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--budget", choices=("quick", "full"), default="quick")
    p.add_argument("--emit")

    for ell in (4, 6, 8):
        p = add(
            f"avoid-k{ell}",
            partial(_run_avoider, ell=ell),
            f"colour perturbed instances with no rainbow K{ell} and validate",
        )
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--p", required=True, help='probability, a/b or "c*n^-a/b" expression')
        p.add_argument("--seed", type=_rng_seed, default=0)
        p.add_argument("--trials", type=int, default=1)
        p.add_argument("--emit")

    p = add("tiled", _cmd_tiled, "colour one K4-tiled graph, or audit a random corpus")
    p.add_argument("--graph", help="graph spec/file; omit to run the corpus audit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", choices=("quick", "full"), default="quick")
    p.add_argument("--emit")

    p = add("certify", _cmd_certify, "randomized falsification runs for the extraction lemmas")
    p.add_argument("--lemma", default="all", help=f"one of {', '.join(LEMMA_NAMES)} or 'all'")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit", help="directory for counterexample archives and the report")

    p = add("janson", _cmd_janson, "nonexistence bound for copies of a pattern in G(n,p)")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True, help="probability or a/b (no c*n^-a/b expression)")
    p.add_argument("--emit")

    p = add("density", _cmd_density, "check the induced-subgraph density margin")
    p.add_argument("--graph", required=True)
    p.add_argument("--exponent", required=True, help="rational exponent x, e.g. 7/15")
    p.add_argument("--margin", choices=(MARGIN_UNIT, MARGIN_LINEAR), default=MARGIN_UNIT)
    p.add_argument("--emit")

    p = add("scan", _cmd_scan, "Monte Carlo threshold sweep over an (n, p) grid",
            writes_own_file=True)
    p.add_argument("--mode", required=True, choices=SCAN_MODES)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.add_argument("--p", nargs="+", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=_rng_seed, default=0)
    p.add_argument("--threads", type=int, help=_THREADS_HELP)
    p.add_argument("--emit")

    p = add("verify-all", _cmd_verify_all, "run the acceptance suite", writes_own_file=True)
    p.add_argument("--seed", type=_rng_seed, default=42)
    p.add_argument("--budget", choices=("quick", "full"), default="quick")
    p.add_argument("--threads", type=int, help=_THREADS_HELP)
    p.add_argument("--emit", help="directory for results.json and the manifest")

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args._argv = argv
        return args.func(args)
    except ParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (StructureUnsupported, OutOfRegime) as exc:
        print(f"out of regime / unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except SearchExhausted as exc:
        print(f"undecided within budget: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except Exception as exc:
        message = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
