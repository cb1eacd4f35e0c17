"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest


def run_cli(*args, cwd=None):
    env = os.environ.copy()
    if env.get("PYTHONPATH"):
        # keep a relative PYTHONPATH (e.g. "src") working under cwd=
        env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(entry)
            for entry in env["PYTHONPATH"].split(os.pathsep)
            if entry
        )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=cwd,
        env=env,
    )


@pytest.fixture(scope="module")
def graph_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "sn")
    result = run_cli("generate", "--scale-factor", "0.05", "--output", path)
    assert result.returncode == 0, result.stderr
    return path


class TestGenerate:
    def test_reports_label_counts(self, graph_dir):
        result = run_cli(
            "generate", "--scale-factor", "0.05", "--output", graph_dir + "-b"
        )
        assert result.returncode == 0
        assert "Person" in result.stdout
        assert "knows" in result.stdout

    def test_deterministic_across_runs(self, tmp_path):
        a = run_cli("generate", "--output", str(tmp_path / "a"), "--seed", "9")
        b = run_cli("generate", "--output", str(tmp_path / "b"), "--seed", "9")
        assert a.stdout.splitlines()[1:] == b.stdout.splitlines()[1:]


class TestQuery:
    def test_tabular_output(self, graph_dir):
        result = run_cli(
            "query", graph_dir, "MATCH (p:Person) RETURN count(*) AS n"
        )
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "n"
        assert lines[1] == "30"

    def test_metrics_on_stderr(self, graph_dir):
        result = run_cli("query", graph_dir, "MATCH (p:Person) RETURN p.firstName")
        assert "simulated" in result.stderr
        assert "row(s)" in result.stderr

    def test_workers_flag(self, graph_dir):
        result = run_cli(
            "--workers", "8", "query", graph_dir,
            "MATCH (p:Person) RETURN count(*) AS n",
        )
        assert "8 workers" in result.stderr

    def test_strategy_flags_change_results(self, graph_dir):
        query = (
            "MATCH (a:Person)-[e1:knows]->(b:Person), (b)-[e2:knows]->(c:Person) "
            "RETURN count(*) AS n"
        )
        homo = run_cli("query", graph_dir, query, "--vertex-strategy", "homo")
        iso = run_cli("query", graph_dir, query, "--vertex-strategy", "iso")
        homo_count = int(homo.stdout.strip().splitlines()[1])
        iso_count = int(iso.stdout.strip().splitlines()[1])
        assert homo_count >= iso_count

    def test_bad_query_fails(self, graph_dir):
        result = run_cli("query", graph_dir, "MATCH (p:Person")
        assert result.returncode != 0


class TestExplainAndStats:
    def test_explain_shows_plan(self, graph_dir):
        result = run_cli(
            "explain", graph_dir, "MATCH (a:Person)-[:knows]->(b) RETURN *"
        )
        assert result.returncode == 0
        assert "SelectAndProjectEdges" in result.stdout
        assert "[est=" in result.stdout

    def test_stats(self, graph_dir):
        result = run_cli("stats", graph_dir)
        assert result.returncode == 0
        assert "vertices:" in result.stdout
        assert ":knows" in result.stdout


class TestBench:
    def test_table3(self):
        result = run_cli("bench", "--experiment", "table3")
        assert result.returncode == 0
        assert "(:Person)" in result.stdout

    def test_unknown_experiment_rejected(self):
        result = run_cli("bench", "--experiment", "fig99")
        assert result.returncode != 0


class TestBenchMicro:
    def test_writes_trajectory_json(self, tmp_path):
        result = run_cli(
            "bench-micro",
            "--queries", "Q1",
            "--scale-factor", "0.02",
            "--repeats", "2",
            "--output", str(tmp_path / "bench.json"),
        )
        assert result.returncode == 0, result.stderr
        assert "per-record" in result.stdout and "columnar" in result.stdout
        assert "batched" not in result.stdout
        report = json.loads((tmp_path / "bench.json").read_text())
        assert report["repeats"] == 2
        assert report["default_repeats"] == 5
        assert report["default_scale_factor"] == 0.2
        assert report["modes"] == ["columnar", "per-record"]
        by_mode = {record["mode"]: record for record in report["results"]}
        assert set(by_mode) == {"columnar", "per-record"}
        assert by_mode["columnar"]["fused"] is True
        assert by_mode["per-record"]["fused"] is False
        rows = {record["rows"] for record in by_mode.values()}
        assert len(rows) == 1
        for record in by_mode.values():
            assert record["query"] == "Q1"
            assert len(record["seconds"]) == 2
            assert record["median_seconds"] >= record["min_seconds"] >= 0
        assert "Q1" in report["speedup"]
        assert "columnar_speedup" not in report

    def test_default_output_picks_next_index(self, tmp_path):
        (tmp_path / "BENCH_3.json").write_text("{}")
        result = run_cli(
            "bench-micro",
            "--queries", "Q1",
            "--scale-factor", "0.02",
            "--repeats", "1",
            cwd=str(tmp_path),
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "BENCH_4.json").exists()


class TestCheck:
    def test_clean_query_exits_zero(self, graph_dir):
        result = run_cli(
            "check", graph_dir,
            "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a.firstName",
        )
        assert result.returncode == 0, result.stderr
        assert "planners agree" in result.stderr
        assert "0 error(s)" in result.stderr

    def test_reports_every_planner(self, graph_dir):
        result = run_cli(
            "check", graph_dir, "MATCH (p:Person) RETURN p.firstName"
        )
        for planner in ("GreedyPlanner", "ExhaustivePlanner", "LeftDeepPlanner"):
            assert planner in result.stderr
        assert "sanitized" in result.stderr
        assert "q-err" in result.stderr  # the estimate-audit table printed

    def test_syntax_error_exits_two(self, graph_dir):
        result = run_cli("check", graph_dir, "MATCH (p:Person")
        assert result.returncode == 2
        assert "syntax error" in result.stderr

    def test_blocking_lint_error_exits_one(self, graph_dir):
        result = run_cli("check", graph_dir, "MATCH (p:Person) RETURN q")
        assert result.returncode == 1
        assert "blocked" in result.stderr
        # the caret excerpt points into the query text
        assert "^" in result.stdout

    def test_off_estimates_exit_three(self, graph_dir):
        # nobody has this name: the selectivity-based leaf estimate
        # overshoots zero actual rows, so a strict threshold trips S211
        result = run_cli(
            "check", graph_dir,
            "MATCH (p:Person) WHERE p.firstName = 'Zzz' RETURN p",
            "--max-q-error", "1.0",
        )
        assert result.returncode == 3, result.stderr
        assert "S211" in result.stdout
        assert "warning(s)" in result.stderr


class TestFlowcheck:
    def test_clean_query_proves_and_certifies(self, graph_dir):
        result = run_cli(
            "flowcheck", graph_dir,
            "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a.firstName",
        )
        assert result.returncode == 0, result.stderr
        assert "layout proven" in result.stderr
        assert "UDFs shippable" in result.stderr
        for planner in ("GreedyPlanner", "ExhaustivePlanner", "LeftDeepPlanner"):
            assert planner in result.stderr

    def test_variable_length_path_proves(self, graph_dir):
        result = run_cli(
            "flowcheck", graph_dir,
            "MATCH (a:Person)-[e:knows*1..2]->(b:Person) RETURN a.firstName",
            "--vertex-strategy", "iso",
        )
        assert result.returncode == 0, result.stderr
        assert "layout proven" in result.stderr

    def test_syntax_error_exits_two(self, graph_dir):
        result = run_cli("flowcheck", graph_dir, "MATCH (p:Person")
        assert result.returncode == 2
        assert "syntax error" in result.stderr

    def test_blocking_lint_error_exits_one(self, graph_dir):
        result = run_cli("flowcheck", graph_dir, "MATCH (p:Person) RETURN q")
        assert result.returncode == 1
        assert "blocked" in result.stderr


class TestShell:
    def test_shell_executes_queries(self, graph_dir):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "shell", graph_dir],
            input="MATCH (p:Person) RETURN count(*) AS n\n:quit\n",
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0
        assert "30" in result.stdout

    def test_shell_explain_and_error_recovery(self, graph_dir):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "shell", graph_dir],
            input=(
                "MATCH (broken\n"
                ":explain MATCH (p:Person) RETURN *\n"
                "MATCH (t:Tag) RETURN count(*) AS n\n"
                ":quit\n"
            ),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0
        assert "error:" in result.stdout  # the bad query reported
        assert "SelectAndProjectVertices" in result.stdout  # explain worked
        # the shell kept going after the error
        assert result.stdout.count("row(s)") >= 1

    def test_shell_sanitize_toggle(self, graph_dir):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "shell", graph_dir],
            input=(
                ":sanitize on\n"
                "MATCH (p:Person) RETURN count(*) AS n\n"
                ":sanitize off\n"
                ":quit\n"
            ),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0
        assert "sanitized execution on" in result.stdout
        assert "sanitized execution off" in result.stdout
        # the status line after the query shows the sanitizer summary
        assert "embedding(s) checked" in result.stdout

    def test_missing_graph_dir_fails_cleanly(self):
        result = run_cli("query", "/nonexistent/graph", "MATCH (a) RETURN *")
        assert result.returncode != 0
        assert "not a graph directory" in result.stderr
