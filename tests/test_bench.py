"""Bench subsystem: scenarios, harness, report schema, CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    MAX_RUNS,
    SCHEMA_VERSION,
    BenchScenario,
    compare_runs,
    full_suite,
    get_suite,
    host_fingerprint,
    load_report,
    quick_suite,
    run_scenario,
    update_report_file,
    validate_report,
)
from repro.bench.harness import RETIRED_KINDS
from repro.cli import main


class TestScenarioDeterminism:
    def test_full_suite_is_deterministic(self):
        a = full_suite()
        b = full_suite()
        assert [s.name for s in a] == [s.name for s in b]
        assert [s.workloads for s in a] == [s.workloads for s in b]
        assert [(s.kind, s.core, s.repeats, s.scale) for s in a] == [
            (s.kind, s.core, s.repeats, s.scale) for s in b
        ]

    def test_full_suite_covers_every_kept_kind(self):
        suite = {s.name: s for s in full_suite()}
        assert len(suite) == 9
        assert suite["table1-a53"].kind == "simulate"
        assert len(suite["table1-a53"].workloads) == 40
        assert len(suite["table1-a72"].workloads) == 40
        for core in ("a53", "a72"):
            sampled = suite[f"table1-{core}-sampled"]
            assert sampled.workloads == suite[f"table1-{core}"].workloads
            assert sampled.sampled_seeds == tuple(range(12))
        assert suite["table1-a53"].sampled_seeds == ()
        assert suite["spec-a53"].kind == "simulate"
        assert len(suite["spec-a53"].workloads) == 11
        assert suite["trace-record"].kind == "trace"
        assert suite["batched-race-step"].kind == "batch"
        # 2x2x2 grid: the 8-candidate race step of the acceptance spec.
        axes = [len(values) for _key, values in suite["batched-race-step"].grid]
        assert axes == [2, 2, 2]
        assert suite["trace-mmap-attach"].kind == "mmap"

    def test_quick_suite_is_smaller(self):
        quick = quick_suite()
        assert len(quick) == 8
        assert all(len(s.workloads) <= 10 for s in quick)
        assert {s.kind for s in quick} == {"simulate", "trace", "batch", "mmap"}

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown bench suite"):
            get_suite("nope")


class TestRunScenario:
    def test_simulate_scenario_record(self):
        scn = BenchScenario("t-sim", "simulate", core="a53",
                            workloads=("CCa", "MM"), repeats=1)
        record = run_scenario(scn)
        assert record["name"] == "t-sim"
        assert record["kind"] == "simulate"
        assert record["instructions"] > 0
        assert record["cycles"] > 0
        assert record["wall_seconds"] > 0
        assert record["instructions_per_second"] > 0
        assert record["cycles_per_second"] > 0
        assert record["telemetry"] is None

    def test_sampled_simulate_scenario_runs_every_candidate(self):
        one = run_scenario(BenchScenario("t-one", "simulate", core="a72",
                                         workloads=("CCa", "MM"), repeats=1))
        scn = BenchScenario("t-sampled", "simulate", core="a72",
                            workloads=("CCa", "MM"), repeats=1,
                            sampled_seeds=(0, 1, 2))
        record = run_scenario(scn)
        assert record["instructions"] == 3 * one["instructions"]
        assert record["cycles"] != 3 * one["cycles"]  # not the public config

    def test_trace_scenario_record(self):
        scn = BenchScenario("t-trace", "trace", workloads=("CCa",), repeats=1)
        record = run_scenario(scn)
        assert record["kind"] == "trace"
        assert record["instructions"] > 0
        assert record["core"] is None

    def test_unknown_kind_rejected(self):
        # "race" and "dispatch" are retired: valid in old reports, not runnable.
        for kind in ("mystery", "race", "dispatch"):
            with pytest.raises(ValueError, match="unknown scenario kind"):
                run_scenario(BenchScenario("x", kind))


def _tiny_run_entry(name="t"):
    record = run_scenario(
        BenchScenario(name, "simulate", core="a53", workloads=("CCa",), repeats=1)
    )
    return {
        "timestamp": "2026-07-29T00:00:00Z",
        "suite": "quick",
        "git": None,
        "scenarios": [record],
        "totals": {
            "simulate_instructions": record["instructions"],
            "simulate_wall_seconds": record["wall_seconds"],
            "simulate_instructions_per_second": record["instructions_per_second"],
        },
    }


class TestReportFile:
    def test_emit_and_update(self, tmp_path):
        path = str(tmp_path / "BENCH_test.json")
        report = update_report_file(path, _tiny_run_entry())
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["host"] == host_fingerprint()
        assert len(report["runs"]) == 1
        # Updating appends instead of clobbering.
        report = update_report_file(path, _tiny_run_entry("t2"))
        assert len(report["runs"]) == 2
        on_disk = load_report(path)
        assert on_disk == report

    def test_history_is_bounded(self, tmp_path):
        path = str(tmp_path / "BENCH_test.json")
        entry = _tiny_run_entry()
        report = None
        for _ in range(MAX_RUNS + 3):
            report = update_report_file(path, entry)
        assert len(report["runs"]) == MAX_RUNS

    def test_invalid_existing_file_is_not_clobbered(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        path.write_text('{"schema_version": 999}')
        with pytest.raises(ValueError, match="invalid bench report"):
            update_report_file(str(path), _tiny_run_entry())
        assert json.loads(path.read_text()) == {"schema_version": 999}

    def test_validate_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            validate_report([])
        with pytest.raises(ValueError):
            validate_report({"schema_version": SCHEMA_VERSION})
        good = {
            "schema_version": SCHEMA_VERSION,
            "host": host_fingerprint(),
            "runs": [_tiny_run_entry()],
        }
        validate_report(good)
        bad = json.loads(json.dumps(good))
        bad["runs"][0]["scenarios"][0]["wall_seconds"] = 0
        with pytest.raises(ValueError, match="wall_seconds"):
            validate_report(bad)
        bad = json.loads(json.dumps(good))
        bad["runs"][0]["scenarios"][0]["kind"] = "mystery"
        with pytest.raises(ValueError, match="kind 'mystery' invalid"):
            validate_report(bad)

    def test_repo_bench_report_is_valid(self):
        """The committed perf baseline must always parse and validate."""
        import glob
        import os

        root = os.path.join(os.path.dirname(__file__), "..")
        reports = glob.glob(os.path.join(root, "BENCH_*.json"))
        assert reports, "no committed BENCH_*.json perf baseline"
        for report_path in reports:
            report = load_report(report_path)
            names = {s["name"] for run in report["runs"] for s in run["scenarios"]}
            assert "table1-a53" in names
        # History recorded by retired kinds stays valid.
        report = load_report(os.path.join(root, "BENCH_vm.json"))
        kinds = {s["kind"] for run in report["runs"] for s in run["scenarios"]}
        assert kinds & set(RETIRED_KINDS)

    def test_committed_baseline_shows_speedup(self):
        """The recorded perf trajectory: the best recorded run ≥2x the
        pre-PR entry on the Table-I (in-order) suite.

        Best-over-runs, not latest-vs-first: the file accumulates runs
        taken months apart on a VM whose underlying host (and kernel)
        drifts, so a later entry measured on a slower host must not
        erase the recorded optimisation. Within-PR regressions are the
        job of ``repro bench --compare``, which diffs same-day runs.
        """
        import glob
        import os

        root = os.path.join(os.path.dirname(__file__), "..")
        report = load_report(sorted(glob.glob(os.path.join(root, "BENCH_*.json")))[0])
        runs = report["runs"]
        first = {s["name"]: s for s in runs[0]["scenarios"]}
        best = max(
            s["instructions_per_second"]
            for run in runs[1:] for s in run["scenarios"]
            if s["name"] == "table1-a53"
        )
        ratio = best / first["table1-a53"]["instructions_per_second"]
        assert ratio >= 2.0, f"table1-a53 speedup regressed to {ratio:.2f}x"


class TestBenchCli:
    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "table1-a53" in out
        assert "trace-mmap-attach" in out

    def test_bench_quick_writes_valid_report(self, tmp_path, capsys):
        path = str(tmp_path / "BENCH_ci.json")
        assert main(["bench", "--quick", "--repeat", "1", "--out", path]) == 0
        out = capsys.readouterr().out
        assert "table1-a53-quick" in out
        assert "batched race step" in out
        assert "trace attach" in out
        report = load_report(path)
        assert report["runs"][0]["suite"] == "quick"


class TestNewScenarioRunners:
    def test_batch_scenario_reports_fusion_speedup(self):
        scn = BenchScenario("t-batch", "batch", core="a53",
                            workloads=("CCa", "MM"),
                            grid=(("branch.mispredict_penalty", (6, 9)),
                                  ("l1d.size", (16384, 32768))),
                            repeats=1)
        record = run_scenario(scn)
        t = record["telemetry"]
        assert t["candidates"] == 4
        # instructions is the *effective* per-candidate count: K passes
        # worth of work delivered by one shared pass.
        assert record["instructions"] > 0
        assert record["instructions"] % t["candidates"] == 0
        assert t["isolated_wall_seconds"] > 0
        assert t["batched_wall_seconds"] > 0
        assert t["speedup_vs_isolated"] > 0
        assert t["speedup_vs_warm_serial"] > 0

    def test_mmap_scenario_attaches_every_blob(self):
        scn = BenchScenario("t-mmap", "mmap", core="a53",
                            workloads=("CCa", "ED1"), repeats=1)
        record = run_scenario(scn)
        t = record["telemetry"]
        assert t["blobs"] == 2
        assert t["attach_wall_seconds"] > 0
        assert t["build_persist_wall_seconds"] > 0
        assert record["instructions"] > 0


def _compare_entry(scenarios):
    return {"scenarios": [
        {"name": name, "instructions_per_second": ips}
        for name, ips in scenarios
    ]}


class TestCompareRuns:
    def test_no_regression_within_threshold(self):
        base = _compare_entry([("table1-a53", 1000.0)])
        cur = _compare_entry([("table1-a53", 900.0)])  # -10% < 15%
        rows, regressions = compare_runs(base, cur, max_regression=0.15)
        assert len(rows) == 1 and not regressions
        assert rows[0]["ratio"] == pytest.approx(0.9)

    def test_regression_beyond_threshold_detected(self):
        base = _compare_entry([("table1-a53", 1000.0), ("spec-a53", 500.0)])
        cur = _compare_entry([("table1-a53", 800.0), ("spec-a53", 495.0)])
        rows, regressions = compare_runs(base, cur, max_regression=0.15)
        assert [r["name"] for r in regressions] == ["table1-a53"]
        assert regressions[0]["regressed"] is True

    def test_quick_names_fold_onto_full_baseline(self):
        base = _compare_entry([("table1-a53", 1000.0)])
        cur = _compare_entry([("table1-a53-quick", 990.0)])
        rows, regressions = compare_runs(base, cur)
        assert rows and rows[0]["name"] == "table1-a53"
        assert not regressions

    def test_every_quick_scenario_is_gated(self):
        base = _compare_entry([(s.name, 1000.0) for s in full_suite()])
        cur = _compare_entry([(s.name, 800.0) for s in quick_suite()])
        rows, regressions = compare_runs(base, cur, max_regression=0.15)
        assert len(rows) == len(quick_suite())
        assert regressions == rows

    def test_unmatched_scenarios_are_skipped(self):
        base = _compare_entry([("old-name", 1000.0)])
        cur = _compare_entry([("new-name", 1.0)])
        rows, regressions = compare_runs(base, cur)
        assert rows == [] and regressions == []

    def test_cli_compare_soft_and_hard_gate(self, tmp_path, capsys):
        # A baseline claiming absurd throughput forces every scenario
        # to regress; run once per gate mode.
        absurd = _tiny_run_entry("table1-a53-quick")
        absurd["scenarios"][0]["instructions_per_second"] = 1e15
        baseline_path = str(tmp_path / "BENCH_baseline.json")
        update_report_file(baseline_path, absurd)
        out_path = str(tmp_path / "BENCH_new.json")
        assert main(["bench", "--quick", "--repeat", "1", "--out", out_path,
                     "--compare", baseline_path]) == 1
        assert "REGRESSED" in capsys.readouterr().out
        assert main(["bench", "--quick", "--repeat", "1", "--out", out_path,
                     "--compare", baseline_path, "--compare-warn"]) == 0
        assert "--compare-warn set; not failing" in capsys.readouterr().out
