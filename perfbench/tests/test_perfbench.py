"""Tests of the benchmark itself, on its smallest inputs.

    python -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads
from simflow import cli, flows, matroid

ROOT = os.path.dirname(run.HERE)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_run_is_correct(name):
    result = run.run_workload(name, seed=7, seconds=0.2, trace=0, smoke=True)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] >= result["requests_per_round"]
    assert [k for k, _ in run.END_TO_END] == list(result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_gives_same_inputs():
    first = [inp.doc for inp in workloads.build("small", 3, smoke=True)]
    again = [inp.doc for inp in workloads.build("small", 3, smoke=True)]
    other = [inp.doc for inp in workloads.build("small", 4, smoke=True)]
    assert first == again
    assert first != other


def _requests(tmp_path, name):
    reqs = []
    for inp in workloads.build(name, 5, smoke=True):
        path = tmp_path / (inp.name + ".json")
        path.write_text(inp.doc)
        reqs += [argv + [str(path)] for argv, _ in inp.requests]
    return reqs


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_stdout_is_byte_identical(tmp_path, name):
    requests = _requests(tmp_path, name)
    plain = run.run_round(cli, requests).done
    rec = spans.Recorder()
    original = flows.count_nz_flows, matroid.RankOracle.rank
    with spans.traced(rec):
        traced = run.run_round(cli, requests, None, rec, rec.name_id(spans.REQUEST)).done
    assert (flows.count_nz_flows, matroid.RankOracle.rank) == original
    assert [(rc, out) for _, _, rc, out in plain] == [(rc, out) for _, _, rc, out in traced]
    assert all(rc == 0 for _, _, rc, _ in plain)
    assert len(rec.name) > len(requests)
    assert not rec.stack


def test_trace_run_reports_every_per_layer_metric():
    result = run.run_workload("sweep", seed=7, seconds=0.2, trace=1, smoke=True)
    assert result["failed"] == 0, result["failures"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [m["name"] for m in bench["per_layer"]]
    assert names == [n for n, _, _ in spans.PER_LAYER] == list(result["metrics"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["homology.subsets"] > 0
    assert metrics["linalg.snf_calls"] >= metrics["homology.subsets"] - 3
    assert 0 < metrics["linalg.snf_share_of_sweep"] < 1
    assert metrics["flows.auto_enum_ratio"] > 0
    assert metrics["homology.sweep_jobs2_ms"] > 0


@pytest.mark.parametrize(
    "name, key",
    [("sweep", "tkr"), ("sweep", "flows_auto"), ("enum", "min_q"), ("small", "flows5")],
)
def test_wrong_reference_fails_the_run(name, key):
    def corrupt(inputs):
        ref = inputs[0].reference()
        value = ref[key]
        ref[key] = {k: c + 1 for k, c in value.items()} if isinstance(value, dict) else value + 1

    result = run.run_workload(name, seed=7, seconds=0.2, trace=0, smoke=True,
                              reference_hook=corrupt)
    assert result["failed"] >= 1
    assert {f["check"] for f in result["failures"]} == {key}


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
