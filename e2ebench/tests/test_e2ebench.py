"""Tests of the end-to-end benchmark itself, on a tiny size of every workload.

Run from the repository root::

    python3 -m pytest e2ebench/tests -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks"),
                BENCH]

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import (LshJoin, ReferenceCache, WORKLOAD_NAMES,  # noqa: E402
                       make_workload)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

SEED = 3


def _measure(workload, trace=False, refs=None):
    return run.measure(workload, SEED, 0.0, trace,
                       refs if refs is not None else ReferenceCache(None))


def test_spec_lists_the_runner_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_NAMES)
    assert SPEC["paths"] == ["e2ebench"]
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_listed_metric_is_emitted_with_its_unit(name, trace):
    record = _measure(make_workload(name, "tiny"), trace)
    line = run.result_line(SPEC, trace, record)
    kind = "per_layer" if trace else "end_to_end"
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in SPEC[kind]]
    for m in SPEC[kind]:
        emitted = line["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
        assert np.isfinite(emitted["value"])
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
    json.dumps(line)


class _DropOnePair(ReferenceCache):
    """A reference with its first pair missing: the gate must fire."""

    def pairs(self, *args, **kwargs):
        pairs = super().pairs(*args, **kwargs)
        assert len(pairs) > 1
        return pairs[1:]


@pytest.mark.parametrize("name", ["ego-cad16", "ego-skewed8-w2",
                                  "store-churn8"])
def test_gate_fires_on_a_wrong_reference_digest(name):
    record = _measure(make_workload(name, "tiny"),
                      refs=_DropOnePair(None))
    line = run.result_line(SPEC, False, record)
    assert not line["correct"]
    assert 0 < line["failed"] <= line["attempted"]
    assert record["check"].problems


def test_gate_fires_on_an_extra_lsh_pair():
    record = _measure(make_workload("lsh-uniform16", "tiny"),
                      refs=_DropOnePair(None))
    assert record["check"].failed
    assert "not within epsilon" in record["check"].problems[0]


class _OneTable(LshJoin):
    """One hash table instead of the modelled number: recall collapses."""

    def run(self, state, metrics=None):
        return workloads.lsh_self_join_file(
            state.point_file, state.epsilon, k=6, tables=1, seed=7,
            engine="matmul", backend="memory", metrics=metrics)


def test_gate_fires_on_lsh_recall_below_the_floor():
    record = _measure(_OneTable("lsh-uniform16", 600))
    assert record["metrics"]["recall"] < workloads.LSH_RECALL_FLOOR
    assert record["check"].failed
    assert "below the" in record["check"].problems[0]


def test_pairs_at_exactly_epsilon_are_boundary_not_failures():
    points = np.array([[0.0, 0.0], [0.3, 0.4], [0.0, 0.1], [5.0, 5.0]])
    epsilon = 0.5  # pair (0, 1) sits exactly on it
    want = np.array([[0, 2], [1, 2]])
    check = workloads.Check()
    got = np.array([[0, 1], [0, 2], [1, 2]])
    assert workloads.compare_pairs(got, want, points, epsilon, check) \
        == (0, 0)
    assert check.boundary_pairs == 1
    far = np.array([[0, 2], [1, 2], [2, 3]])
    assert workloads.compare_pairs(far, want, points, epsilon, check) \
        == (0, 1)


def test_traced_counts_repeat_and_attribute_layers():
    record = _measure(make_workload("ego-cad16", "tiny"), trace=True)
    m = record["metrics"]
    assert not record["check"].failed  # the two traced passes agreed
    assert m["core.result.pairs"] > 0
    assert m["core.sequence_join.sequence_pairs"] > 0
    assert m["core.ego_order.floor_cells_calls"] > 0
    assert m["sorting.runs"] >= 1
    assert m["core.supervisor.tasks"] == 0


def test_traced_run_writes_a_chrome_trace(tmp_path):
    path = tmp_path / "trace.json"
    run.measure(make_workload("ego-cad16", "tiny"), SEED, 0.0, True,
                ReferenceCache(None), trace_path=str(path))
    events = json.loads(path.read_text())["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert any(e["cat"] == "bench" for e in spans)
    assert all(e["dur"] >= 0 for e in spans)
    assert events[-1]["name"] == "self_s"
    assert events[-1]["args"]["core.sequence_join"] > 0


def test_store_stream_follows_the_stated_mix():
    workload = make_workload("store-churn8", "tiny")
    state = workload.setup(SEED)
    kinds = [op[0] for op in state.ops]
    scale = workload.writes / 1000
    for kind, count in workloads.STORE_MIX.items():
        repeat = workloads.STORE_JOIN_REPEAT if kind == "join" else 1
        assert kinds.count(kind) == round(count * scale) * repeat
    assert kinds.count("insert") + kinds.count("delete") == workload.writes
    assert len(kinds) - workload.writes >= workload.writes


def test_run_refuses_a_directory_without_sources(tmp_path, capsys):
    bare = tmp_path / "bare"
    (bare / "e2ebench").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text(json.dumps(SPEC))
    saved = run.ROOT
    run.ROOT = str(bare)
    try:
        code = run.main(["--workload", "ego-cad16", "--seed", "1"])
    finally:
        run.ROOT = saved
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "no repro sources" in err
