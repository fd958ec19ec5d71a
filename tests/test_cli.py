"""Tests for the command-line interface."""

import re

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data.loader import load_points, save_points
from repro.data.synthetic import gaussian_clusters


@pytest.fixture
def data_file(tmp_path, rng):
    path = str(tmp_path / "data.pts")
    save_points(path, rng.random((200, 3)))
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_join_requires_epsilon(self, data_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["join", data_file])


class TestGenerateAndInfo:
    @pytest.mark.parametrize("kind", ["uniform", "clusters", "cad"])
    def test_generate_kinds(self, tmp_path, kind, capsys):
        out = str(tmp_path / f"{kind}.pts")
        dims = "16" if kind == "cad" else "4"
        assert main(["generate", "--kind", kind, "--n", "50",
                     "--dims", dims, "--out", out]) == 0
        ids, pts = load_points(out)
        assert pts.shape == (50, int(dims))

    def test_info_reports_header(self, data_file, capsys):
        assert main(["info", data_file]) == 0
        out = capsys.readouterr().out
        assert "points      : 200" in out
        assert "dimensions  : 3" in out


class TestJoin:
    def test_join_count_only(self, data_file, capsys):
        assert main(["join", data_file, "--epsilon", "0.2",
                     "--count-only"]) == 0
        err = capsys.readouterr().err
        assert "pairs:" in err

    def test_join_batched_engine_with_knobs(self, data_file, capsys):
        """``--engine auto`` runs the batched gather pass."""
        assert main(["join", data_file, "--epsilon", "0.2",
                     "--engine", "auto", "--count-only"]) == 0
        batched = [ln for ln in capsys.readouterr().err.splitlines()
                   if "pairs:" in ln]
        assert main(["join", data_file, "--epsilon", "0.2",
                     "--engine", "vector", "--count-only"]) == 0
        vector = [ln for ln in capsys.readouterr().err.splitlines()
                  if "pairs:" in ln]
        assert batched == vector

    def test_resume_at_other_epsilon_exits_2(self, data_file, tmp_path,
                                             capsys):
        ck = str(tmp_path / "ck")
        assert main(["join", data_file, "--epsilon", "0.2",
                     "--count-only", "--checkpoint", ck]) == 0
        capsys.readouterr()
        assert main(["join", data_file, "--epsilon", "0.3",
                     "--count-only", "--checkpoint", ck,
                     "--resume"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "different configuration" in err

    @pytest.mark.parametrize("command", ["join", "join-two"])
    def test_removed_engine_names_refused(self, data_file, command, capsys):
        files = [data_file] * (2 if command == "join-two" else 1)
        for engine in ("matmul", "batched"):
            with pytest.raises(SystemExit) as exc:
                main([command, *files, "--epsilon", "0.2",
                      "--engine", engine])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err

    def test_resume_of_removed_engine_checkpoint_exits_2(
            self, data_file, tmp_path, capsys):
        """A checkpoint an older version wrote with ``--engine matmul``
        cannot be resumed: the error names the accepted engines."""
        import json
        ck = tmp_path / "ck"
        assert main(["join", data_file, "--epsilon", "0.2",
                     "--count-only", "--checkpoint", str(ck)]) == 0
        journal = ck / "journal.json"
        state = json.loads(journal.read_text())
        state["config"]["kernel"]["engine"] = "matmul"
        journal.write_text(json.dumps(state))
        capsys.readouterr()
        assert main(["join", data_file, "--epsilon", "0.2",
                     "--count-only", "--checkpoint", str(ck),
                     "--resume"]) == 2
        err = capsys.readouterr().err
        assert "error: unknown engine 'matmul'" in err
        assert "scalar, vector, auto" in err and "Traceback" not in err

    def test_join_prints_pairs(self, data_file, capsys):
        assert main(["join", data_file, "--epsilon", "0.3",
                     "--limit", "5"]) == 0
        captured = capsys.readouterr()
        lines = [ln for ln in captured.out.splitlines() if "," in ln]
        assert 0 < len(lines) <= 5
        a, b = lines[0].split(",")
        assert a.strip().isdigit() and b.strip().isdigit()

    def test_join_two(self, tmp_path, rng, capsys):
        r_path = str(tmp_path / "r.pts")
        s_path = str(tmp_path / "s.pts")
        save_points(r_path, rng.random((80, 2)))
        save_points(s_path, rng.random((70, 2)))
        assert main(["join-two", r_path, s_path, "--epsilon", "0.2",
                     "--count-only"]) == 0
        assert "pairs:" in capsys.readouterr().err

    def test_join_observability_flags(self, data_file, tmp_path, capsys):
        import json
        trace_path = str(tmp_path / "run.trace.json")
        metrics_path = str(tmp_path / "run.prom")
        assert main(["join", data_file, "--epsilon", "0.2",
                     "--count-only", "--trace", trace_path,
                     "--metrics", metrics_path]) == 0
        err = capsys.readouterr().err
        assert "trace:" in err and "metrics:" in err
        for phase in ("external_self_join", "sort", "schedule"):
            assert re.search(rf"^phase {phase}: \d+\.\d{{3}}s wall$", err,
                             re.M), phase
        with open(trace_path) as fh:
            doc = json.load(fh)
        assert any(e["name"] == "external_self_join"
                   for e in doc["traceEvents"])
        with open(metrics_path) as fh:
            text = fh.read()
        assert "# TYPE ego_unit_reads_total counter" in text

    def test_untraced_join_prints_no_phase_lines(self, data_file, capsys):
        assert main(["join", data_file, "--epsilon", "0.2",
                     "--count-only"]) == 0
        assert "phase " not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["join", "join-two"])
    def test_profile_flag_is_gone(self, data_file, command, capsys):
        files = [data_file] * (2 if command == "join-two" else 1)
        with pytest.raises(SystemExit) as exc:
            main([command, *files, "--epsilon", "0.2", "--profile"])
        assert exc.value.code == 2
        assert "--profile" in capsys.readouterr().err

    def test_join_metrics_json_extension(self, data_file, tmp_path,
                                         capsys):
        import json
        metrics_path = str(tmp_path / "run.metrics.json")
        assert main(["join", data_file, "--epsilon", "0.2",
                     "--count-only", "--metrics", metrics_path]) == 0
        capsys.readouterr()
        with open(metrics_path) as fh:
            doc = json.load(fh)
        assert doc["ego_unit_reads_total"]["kind"] == "counter"

    def test_join_two_observability_flags(self, tmp_path, rng, capsys):
        import json
        r_path = str(tmp_path / "r.pts")
        s_path = str(tmp_path / "s.pts")
        save_points(r_path, rng.random((80, 2)))
        save_points(s_path, rng.random((70, 2)))
        trace_path = str(tmp_path / "rs.trace.json")
        assert main(["join-two", r_path, s_path, "--epsilon", "0.2",
                     "--count-only", "--trace", trace_path]) == 0
        err = capsys.readouterr().err
        for phase in ("external_rs_join", "sort", "schedule"):
            assert f"phase {phase}: " in err
        with open(trace_path) as fh:
            doc = json.load(fh)
        assert any(e["name"] == "external_rs_join"
                   for e in doc["traceEvents"])


class TestApps:
    def test_dbscan_outputs_labels(self, tmp_path, capsys):
        path = str(tmp_path / "blobs.pts")
        save_points(path, gaussian_clusters(300, 3, clusters=3,
                                            std=0.01, seed=5))
        assert main(["dbscan", path, "--epsilon", "0.05",
                     "--min-pts", "5"]) == 0
        captured = capsys.readouterr()
        labels = [int(x) for x in captured.out.split()]
        assert len(labels) == 300
        assert "clusters:" in captured.err

    def test_outliers_outputs_ids(self, data_file, capsys):
        assert main(["outliers", data_file, "--distance", "0.05",
                     "--fraction", "0.99"]) == 0
        captured = capsys.readouterr()
        assert "outliers:" in captured.err
        for line in captured.out.split():
            assert 0 <= int(line) < 200


class TestEstimate:
    def test_fixed_configuration(self, capsys):
        assert main(["estimate", "--n", "100000", "--epsilon", "0.1",
                     "--unit-bytes", "65536",
                     "--buffer-units", "4"]) == 0
        out = capsys.readouterr().out
        assert "predicted unit loads" in out
        assert "mode" in out

    def test_budget_optimisation(self, capsys):
        assert main(["estimate", "--n", "100000", "--epsilon", "0.1",
                     "--budget-bytes", "1000000"]) == 0
        out = capsys.readouterr().out
        assert "recommended unit size" in out


class TestEstimateWithFile:
    def test_result_size_prediction(self, data_file, capsys):
        assert main(["estimate", "--n", "200", "--dims", "3",
                     "--epsilon", "0.2", "--file", data_file]) == 0
        out = capsys.readouterr().out
        assert "predicted result pairs" in out


class TestKnnAndOptics:
    def test_knn_outputs_neighbor_lists(self, data_file, capsys):
        assert main(["knn", data_file, "--k", "3", "--limit", "5"]) == 0
        captured = capsys.readouterr()
        assert "mean 3-NN distance" in captured.err
        lines = captured.out.strip().splitlines()
        assert len(lines) == 5
        head, neigh = lines[0].split(":")
        assert head == "0"
        assert len(neigh.split(",")) == 3

    def test_optics_outputs_reachability(self, data_file, capsys):
        assert main(["optics", data_file, "--epsilon", "0.3",
                     "--min-pts", "4"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == 200
        first_point, first_reach = lines[0].split()
        assert first_reach == "undefined"


class TestJoinMetricFlag:
    def test_chebyshev_finds_at_least_euclidean(self, data_file, capsys):
        assert main(["join", data_file, "--epsilon", "0.2",
                     "--count-only"]) == 0
        euclid = int(capsys.readouterr().err.split("pairs:")[1]
                     .split()[0])
        assert main(["join", data_file, "--epsilon", "0.2",
                     "--count-only", "--metric", "chebyshev"]) == 0
        cheby = int(capsys.readouterr().err.split("pairs:")[1]
                    .split()[0])
        assert cheby >= euclid


@pytest.mark.faults
class TestJoinWorkerFaults:
    """Supervisor exit codes and --worker-faults parsing."""

    def _pairs(self, capsys):
        return int(capsys.readouterr().err.split("pairs:")[1].split()[0])

    def test_recovers_and_matches_fault_free(self, data_file, capsys):
        assert main(["join", data_file, "--epsilon", "0.2",
                     "--count-only"]) == 0
        baseline = self._pairs(capsys)
        assert main(["join", data_file, "--epsilon", "0.2",
                     "--count-only", "--workers", "2",
                     "--worker-faults", "seed=1,error-rate=0.9",
                     "--task-timeout", "5"]) == 0
        captured = capsys.readouterr()
        assert int(captured.err.split("pairs:")[1].split()[0]) == baseline
        assert "tasks retried" in captured.err

    def test_degraded_run_exits_3(self, data_file, capsys):
        code = main(["join", data_file, "--epsilon", "0.2",
                     "--count-only", "--workers", "2",
                     "--worker-faults",
                     "seed=1,crash-rate=1.0,max-attempt=none",
                     "--task-timeout", "5"])
        assert code == 3
        err = capsys.readouterr().err
        assert "degraded: worker pool failed" in err
        assert "results are complete and exact" in err

    def test_no_degrade_exits_4(self, data_file, capsys):
        code = main(["join", data_file, "--epsilon", "0.2",
                     "--count-only", "--workers", "2", "--no-degrade",
                     "--worker-faults",
                     "seed=1,crash-rate=1.0,max-attempt=none",
                     "--task-timeout", "5"])
        assert code == 4
        assert "unrecoverable worker fault" in capsys.readouterr().err

    def test_bad_spec_exits_2(self, data_file, capsys):
        assert main(["join", data_file, "--epsilon", "0.2",
                     "--workers", "2",
                     "--worker-faults", "frobnicate=1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_task_retries_exits_2(self, data_file, capsys):
        assert main(["join", data_file, "--epsilon", "0.2",
                     "--task-retries", "-1"]) == 2
        assert "error:" in capsys.readouterr().err
