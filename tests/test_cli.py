"""End-to-end tests for the command-line interface.

Every invocation goes through ``main(argv)`` so the tests exercise parsing,
dispatch, exit codes, emitted files, and manifests exactly as a shell user
would.  An AST guard keeps printing and writing out of the handlers.
"""

import ast
import json
from pathlib import Path

import pytest

from rainbowlab import cli
from rainbowlab.avoiders import AVOIDERS
from rainbowlab.cli import main
from rainbowlab.colouring import EdgeColouring


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- usage errors -> exit 3 ---------------------------------------------------


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        rc, _, err = run(capsys)
        assert rc == 3
        assert "usage error" in err

    def test_unknown_subcommand(self, capsys):
        rc, _, err = run(capsys, "frobnicate")
        assert rc == 3
        assert "invalid choice" in err

    def test_missing_required_flag(self, capsys):
        rc, _, err = run(capsys, "decide", "--graph", "K3")
        assert rc == 3
        assert "--target" in err

    def test_bad_margin_choice(self, capsys):
        rc, _, err = run(capsys, "density", "--graph", "K3",
                         "--exponent", "2/3", "--margin", "steep")
        assert rc == 3

    def test_bad_exponent(self, capsys):
        rc, _, err = run(capsys, "density", "--graph", "K3", "--exponent", "steep")
        assert rc == 3
        assert "not a fraction" in err

    def test_unparseable_graph(self, capsys):
        rc, _, err = run(capsys, "construct", "--graph", "Nonsense(2)")
        assert rc == 3

    def test_unknown_lemma(self, capsys):
        rc, _, err = run(capsys, "certify", "--lemma", "nope", "--trials", "1")
        assert rc == 3
        assert "unknown lemma" in err

    def test_bad_thread_env(self, capsys, monkeypatch):
        monkeypatch.setenv("RAINBOW_LAB_THREADS", "soup")
        rc, _, err = run(capsys, "scan", "--mode", "containment-rate",
                         "--ell", "4", "--n", "10", "--p", "0.5", "--trials", "2")
        assert rc == 3
        assert "RAINBOW_LAB_THREADS" in err

    @pytest.mark.parametrize("command", [
        ("scan", "--mode", "containment-rate", "--ell", "4", "--n", "10",
         "--p", "0.5", "--trials", "2"),
        ("verify-all", "--seed", "1"),
    ])
    @pytest.mark.parametrize("flag,env", [
        ("0", None), ("-5", None), (None, "0"), (None, "-3"),
    ])
    def test_threads_below_one(self, capsys, monkeypatch, command, flag, env):
        if env is not None:
            monkeypatch.setenv("RAINBOW_LAB_THREADS", env)
        extra = ("--threads", flag) if flag is not None else ()
        rc, _, err = run(capsys, *command, *extra)
        assert rc == 3
        assert ("--threads" if flag else "RAINBOW_LAB_THREADS") in err
        assert "must be >= 1" in err

    def test_non_tiled_graph(self, capsys):
        rc, _, err = run(capsys, "tiled", "--graph", "P3")
        assert rc == 3

    @pytest.mark.parametrize("text", [
        "{bad", '{"n": 3}', '{"n": "x", "edges": []}', "[1,2]",
        '{"n": 3, "edges": [[0]]}', '{"n": 3, "edges": [["0", "1"]]}',
    ])
    def test_malformed_graph_json(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        rc, _, err = run(capsys, "construct", "--graph", str(path))
        assert rc == 3
        assert "malformed graph JSON" in err

    @pytest.mark.parametrize("p,message", [
        ("1/0", "cannot parse probability"),
        ("n^-2/3", "exact p"),
    ])
    def test_janson_bad_p(self, capsys, p, message):
        rc, _, err = run(capsys, "janson", "--graph", "K2", "--n", "10", "--p", p)
        assert rc == 3
        assert message in err

    @pytest.mark.parametrize("command", [
        ("avoid-k4", "--n", "50", "--p", "0.001", "--seed", "-1"),
        ("avoid-k6", "--n", "50", "--p", "0.001", "--seed", "-1"),
        ("avoid-k8", "--n", "50", "--p", "0.001", "--seed", "-1"),
        ("scan", "--mode", "containment-rate", "--ell", "4", "--n", "20",
         "--p", "0.1", "--trials", "2", "--seed", "-3"),
        ("verify-all", "--seed", "-1"),
    ])
    def test_negative_seed(self, capsys, command):
        rc, out, err = run(capsys, *command)
        assert rc == 3
        assert out == ""
        assert "--seed" in err and "must be >= 0" in err

    @pytest.mark.parametrize("command", [
        ("avoid-k4", "--n", "20", "--p", "n^-1/0"),
        ("scan", "--mode", "containment-rate", "--ell", "4", "--n", "20",
         "--p", "n^-1/0", "--trials", "2"),
    ])
    def test_malformed_p_expression(self, capsys, command):
        rc, out, err = run(capsys, *command)
        assert rc == 3
        assert out == ""
        assert "cannot evaluate probability" in err

    @pytest.mark.parametrize("ell", [4, 6, 8])
    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_avoider_trials_below_one(self, capsys, ell, trials):
        rc, out, err = run(capsys, f"avoid-k{ell}", "--n", "20", "--p", "0.01",
                           "--trials", trials)
        assert rc == 3
        assert out == ""
        assert "trials must be >= 1" in err

    @pytest.mark.parametrize("command", [
        ("construct", "--graph", "K99999999999999999999"),
        ("construct", "--graph", "Empty(99999999999999999999)"),
        ("construct", "--graph", "CompleteBipartite(99999999999999999999,1)"),
        ("construct", "--graph", "Star(99999999999999999999)"),
        ("construct", "--graph", "KDelta(1,99999999999999999999)"),
        ("avoid-k4", "--n", "99999999999999999999", "--p", "0.001"),
        ("scan", "--mode", "avoider-success-rate", "--ell", "4",
         "--n", "99999999999999999999", "--p", "0.001", "--trials", "1"),
    ])
    def test_vertex_count_beyond_an_index(self, capsys, command):
        """Refused before anything of that size is built (these raised
        OverflowError or numpy's ValueError, or looped without end)."""
        rc, out, err = run(capsys, *command)
        assert rc == 3
        assert out == ""
        assert "must be at most" in err


# -- internal errors -> exit 4 ------------------------------------------------


def test_unexpected_exception_exits_4(capsys, monkeypatch):
    def broken(instance):
        raise RuntimeError("avoider fell over\nsecond line")

    monkeypatch.setitem(AVOIDERS, 4, broken)
    rc, _, err = run(capsys, "avoid-k4", "--n", "20", "--p", "0.01")
    assert rc == 4
    assert err == "internal error: RuntimeError: avoider fell over second line\n"


def test_verify_all_unusable_emit_fails_before_the_gate(capsys, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("a regular file\n")
    rc, out, err = run(capsys, "verify-all", "--seed", "1", "--emit", str(taken))
    assert rc == 4
    assert "[PASS]" not in out
    assert err.startswith("internal error: FileExistsError")


# -- construct ----------------------------------------------------------------


class TestConstruct:
    def test_stdout_json(self, capsys):
        rc, out, _ = run(capsys, "construct", "--graph", "K5")
        assert rc == 0
        data = json.loads(out)
        assert data["n"] == 5
        assert len(data["edges"]) == 10

    @pytest.mark.parametrize("argv,default_name,expected_rc", [
        pytest.param(("construct", "--graph", "HatK(3,4)"), "graph.json", 0,
                     id="construct"),
        pytest.param(("decide", "--graph", "K4", "--target", "K4"), "decision.json", 0,
                     id="decide"),
        pytest.param(("avoid-k4", "--n", "60", "--p", "0.3*n^-5/4", "--seed", "1",
                      "--trials", "2"), "avoid-k4.json", 0, id="avoid-k4"),
        pytest.param(("tiled", "--graph", "K4"), "tiled.json", 0, id="tiled"),
        pytest.param(("certify", "--lemma", "extract-rainbow-k4", "--trials", "20",
                      "--seed", "1"), "certify.json", 0, id="certify"),
        pytest.param(("janson", "--graph", "K2", "--n", "40", "--p", "0.01"),
                     "janson.json", 0, id="janson"),
        pytest.param(("density", "--graph", "K4", "--exponent", "1"), "density.json", 1,
                     id="density"),
    ])
    def test_emit_directory_with_manifest(self, capsys, tmp_path, argv, default_name,
                                          expected_rc):
        """Every emitting command writes its stdout to its default file name
        and a manifest whose `passed` says whether it exited 0."""
        rc, out, _ = run(capsys, *argv, "--emit", str(tmp_path))
        assert rc == expected_rc
        out_file = tmp_path / default_name
        assert out_file.read_text() == out
        manifest = json.loads((tmp_path / f"{default_name}.manifest.json").read_text())
        assert set(manifest) == {"command", "config", "seed", "version",
                                 "started", "finished", "outputs", "passed"}
        assert manifest["command"] == ["rainbow-lab", *argv, "--emit", str(tmp_path)]
        assert manifest["outputs"] == [str(out_file)]
        assert manifest["passed"] is (rc == 0)

    def test_spec_longer_than_a_file_name(self, capsys):
        """A spec too long to be a file name is parsed as a spec."""
        spec = "DisjointUnion(" + ",".join(["K1"] * 100) + ")"
        assert len(spec) == 314
        rc, out, _ = run(capsys, "construct", "--graph", spec)
        assert rc == 0
        assert json.loads(out)["n"] == 100

    def test_emit_named_file(self, capsys, tmp_path):
        target = tmp_path / "mine.json"
        rc, _, _ = run(capsys, "construct", "--graph", "K3", "--emit", str(target))
        assert rc == 0
        assert target.exists()
        assert (tmp_path / "mine.json.manifest.json").exists()

    def test_reads_graph_back_from_file(self, capsys, tmp_path):
        run(capsys, "construct", "--graph", "KDelta(5,5)", "--emit", str(tmp_path))
        rc, out, _ = run(capsys, "construct",
                         "--graph", str(tmp_path / "graph.json"))
        assert rc == 0
        reread = json.loads(out)
        original = json.loads((tmp_path / "graph.json").read_text())
        assert reread == original


# -- decide ---------------------------------------------------------------------


class TestDecide:
    def test_arrows(self, capsys):
        rc, out, _ = run(capsys, "decide", "--graph", "K3", "--target", "K3")
        assert rc == 0
        data = json.loads(out)
        assert data["outcome"] == "arrows"
        assert "witness" not in data

    def test_witness(self, capsys):
        rc, out, _ = run(capsys, "decide", "--graph", "K4", "--target", "K4")
        assert rc == 0
        data = json.loads(out)
        assert data["outcome"] == "witness"
        assert len(data["witness"]) == 6
        assert all(isinstance(c, int) for _, _, c in data["witness"])

    def test_edgeless_target_arrows(self, capsys):
        rc, out, _ = run(capsys, "decide", "--graph", "K3", "--target", "K1")
        assert rc == 0
        assert json.loads(out) == {"nodes": 0, "outcome": "arrows"}

    def test_undecided_exits_2(self, capsys):
        # deciding K4-arrowing for K10 exhausts the quick node budget
        rc, out, err = run(capsys, "decide", "--graph", "K10", "--target", "K4",
                           "--budget", "quick")
        assert rc == 2
        assert json.loads(out)["outcome"] == "unknown"


# -- avoiders ---------------------------------------------------------------------


class TestAvoiders:
    def test_avoid_k4(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "avoid-k4", "--n", "80", "--p", "0.3*n^-5/4",
                         "--seed", "1", "--trials", "2", "--emit", str(tmp_path))
        assert rc == 0
        data = json.loads(out)
        assert data["validated"] == 2
        assert data["violations"] == []
        assert (tmp_path / "avoid-k4.json").exists()
        assert (tmp_path / "avoid-k4.json.manifest.json").exists()

    def test_avoid_k6(self, capsys):
        rc, out, _ = run(capsys, "avoid-k6", "--n", "100", "--p", "n^-7/10",
                         "--seed", "1", "--trials", "1")
        assert rc == 0
        assert json.loads(out)["validated"] == 1

    def test_fraction_p_runs(self, capsys):
        rc, out, _ = run(capsys, "avoid-k4", "--n", "20", "--p", "1/10")
        assert rc in (0, 2)
        rc_literal, out_literal, _ = run(capsys, "avoid-k4", "--n", "20", "--p", "0.1")
        assert (rc, out) == (rc_literal, out_literal)
        assert json.loads(out)["p"] == 0.1

    def test_rainbow_colouring_is_a_violation(self, capsys, monkeypatch):
        def rainbow_everywhere(instance):
            psi = EdgeColouring(instance.graph())
            psi.fill_fresh()
            return psi

        monkeypatch.setitem(AVOIDERS, 4, rainbow_everywhere)
        rc, out, _ = run(capsys, "avoid-k4", "--n", "8", "--p", "1.0")
        assert rc == 1
        assert json.loads(out)["violations"] == ["trial 0: rainbow K4 at (4, 5, 6, 7)"]

    def test_avoid_k8(self, capsys):
        rc, out, _ = run(capsys, "avoid-k8", "--n", "80", "--p", "n^-9/20",
                         "--seed", "1", "--trials", "1")
        assert rc == 0
        assert json.loads(out)["validated"] == 1


# -- tiled -------------------------------------------------------------------------


class TestTiled:
    def test_single_graph(self, capsys):
        rc, out, _ = run(capsys, "tiled", "--graph", "K4")
        assert rc == 0
        data = json.loads(out)
        assert data["phi"] == 0
        assert data["certificate"]["kind"] == "no-rainbow"
        assert data["proper"] and data["sound"] and data["class_consistent"]
        assert data["rainbow_k4_count"] == 0

    def test_trailing_isolated_vertex(self, capsys):
        rc, out, _ = run(capsys, "tiled", "--graph", "DisjointUnion(K4,K1)")
        assert rc == 0
        data = json.loads(out)
        assert data["proper"] is True
        assert data["certificate"]["kind"] == "no-rainbow"

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_any_integer_seed(self, capsys, seed):
        """tiled and certify seed string-keyed streams, so any integer works."""
        rc, _, _ = run(capsys, "tiled", "--seed", seed)
        assert rc == 0
        rc, _, _ = run(capsys, "certify", "--lemma", "extract-rainbow-k4",
                       "--trials", "3", "--seed", seed)
        assert rc == 0

    def test_refused_graph_emits_nothing(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "tiled", "--graph", "P3", "--emit", str(tmp_path))
        assert rc == 3
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_corpus_audit(self, capsys):
        rc, out, _ = run(capsys, "tiled", "--seed", "5", "--budget", "quick")
        assert rc == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert data["corpus"] == 1000


# -- certify ------------------------------------------------------------------------


class TestCertify:
    def test_single_lemma(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "certify", "--lemma", "extract-rainbow-k4",
                         "--trials", "100", "--seed", "3", "--emit", str(tmp_path))
        assert rc == 0
        data = json.loads(out)
        assert data["passed"] is True
        report = data["reports"][0]
        assert report["lemma"] == "extract-rainbow-k4"
        assert report["failures"] == 0
        assert "elapsed_ms" not in report
        assert (tmp_path / "certify.json").exists()

    def test_all_lemmas(self, capsys):
        rc, out, _ = run(capsys, "certify", "--lemma", "all",
                         "--trials", "50", "--seed", "2")
        assert rc == 0
        data = json.loads(out)
        assert len(data["reports"]) == 6
        assert data["passed"] is True


# -- janson / density ---------------------------------------------------------------


class TestJansonDensity:
    def test_janson(self, capsys):
        rc, out, _ = run(capsys, "janson", "--graph", "K2", "--n", "40",
                         "--p", "0.01")
        assert rc == 0
        data = json.loads(out)
        assert set(data) == {"expected_copies", "delta_upper", "nonexistence_bound"}

    def test_janson_fraction_output(self, capsys):
        rc, out, _ = run(capsys, "janson", "--graph", "K3", "--n", "40",
                         "--p", "1/10")
        assert rc == 0
        assert out == ('{"delta_upper": 10.9668, "expected_copies": 9.88, '
                       '"nonexistence_bound": 0.04649906931285394}\n')

    def test_density_satisfied(self, capsys):
        rc, out, _ = run(capsys, "density", "--graph", "hatk34",
                         "--exponent", "7/15")
        assert rc == 0
        assert json.loads(out)["satisfied"] is True

    def test_density_unsatisfied_exits_1(self, capsys):
        rc, out, _ = run(capsys, "density", "--graph", "hatk34",
                         "--exponent", "7/15", "--margin", "omega(n)")
        assert rc == 1
        assert json.loads(out)["satisfied"] is False

    def test_density_refused_exits_2(self, capsys):
        rc, _, err = run(capsys, "density", "--graph", "KDelta(25,49)",
                         "--exponent", "2/3", "--margin", "omega(n)")
        assert rc == 2
        assert "unsupported" in err

    def test_density_degeneracy_route(self, capsys):
        rc, out, _ = run(capsys, "density", "--graph", "KDelta(25,49)",
                         "--exponent", "7/15", "--margin", "omega(n)")
        assert rc == 0
        data = json.loads(out)
        assert data["strategy"] == "degeneracy"
        assert data["satisfied"] is True


# -- scan ---------------------------------------------------------------------------


class TestScan:
    ARGS = ("scan", "--mode", "containment-rate", "--ell", "4",
            "--n", "20", "40", "--p", "0.05", "0.2", "--trials", "30",
            "--seed", "9")

    def test_stdout_csv(self, capsys):
        rc, out, _ = run(capsys, *self.ARGS)
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,p,trials,successes,rate,ci_low,ci_high,mode,elapsed_ms"
        assert len(lines) == 5

    def test_emit_deterministic_across_threads(self, capsys, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        rc1, _, _ = run(capsys, *self.ARGS, "--emit", str(d1), "--threads", "1")
        rc2, _, _ = run(capsys, *self.ARGS, "--emit", str(d2), "--threads", "3")
        assert rc1 == rc2 == 0
        b1 = (d1 / "scan.csv").read_bytes()
        b2 = (d2 / "scan.csv").read_bytes()
        assert b1 == b2
        assert (d1 / "scan.csv.manifest.json").exists()

    def test_thread_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("RAINBOW_LAB_THREADS", "2")
        rc, out, _ = run(capsys, *self.ARGS)
        assert rc == 0
        assert len(out.strip().splitlines()) == 5


# -- one emit path --------------------------------------------------------------

RUNNERS = {"_run_handler", "_write_manifest", "_cmd_scan", "_cmd_verify_all"}
OUTPUT_CALLERS = {
    "_now": RUNNERS,
    "_resolve_output": RUNNERS,
    "_write_manifest": RUNNERS,
    "print": RUNNERS | {"main"},
}


def output_calls_outside_runners(source: str) -> list[str]:
    """Top-level functions that call an output primitive of OUTPUT_CALLERS
    without being one of the functions allowed to call it."""
    offenders = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef):
            continue
        called = {
            call.func.id
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        }
        if any(node.name not in OUTPUT_CALLERS[name] for name in called & set(OUTPUT_CALLERS)):
            offenders.append(node.name)
    return offenders


def test_detector_sees_output_calls_outside_runners():
    source = (
        "def _cmd_a(args):\n"
        "    started = _now()\n"
        "    return 'x', True, 0, 'a.json'\n"
        "def _cmd_b(args):\n"
        "    print('x')\n"
        "def _cmd_c(args):\n"
        "    def inner():\n"
        "        _write_manifest(args, None, passed=True, started='')\n"
        "def _cmd_d(args):\n"
        "    return _load_graph(args.graph)\n"
        "def _cmd_scan(args):\n"
        "    print(_resolve_output(args.emit, 'scan.csv'))\n"
        "def main(argv=None):\n"
        "    print('usage error')\n"
    )
    assert output_calls_outside_runners(source) == ["_cmd_a", "_cmd_b", "_cmd_c"]


def test_handlers_leave_output_to_the_runner():
    """Only the runner, `scan`, `verify-all` and the manifest writer stamp
    times, resolve --emit, write manifests or print (`main` prints errors);
    the other handlers return their text."""
    assert output_calls_outside_runners(Path(cli.__file__).read_text()) == []
