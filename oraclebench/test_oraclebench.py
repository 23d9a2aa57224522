"""Self-test of the oracle benchmark.

    python3 -m pytest oraclebench -q

The traced-run checks use every workload at d=3, in fresh worker processes
as the benchmark does, so they take seconds; the benchmark itself runs the
workloads at their full degrees.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL_D = 3
COUNTS = ("calls", "cells", "steps", "out_bytes")


def sample(workload, config, trace):
    r = run.run_child([workload, config, str(SMALL_D), str(int(trace))], time.monotonic() + 120)
    assert r is not None, f"worker {workload} {config} trace={trace} crashed"
    return r


def counts(r):
    """Every count of every call path; times are left out, they never repeat."""
    return [{k: v for k, v in row.items() if k in COUNTS or k == "path"} for row in r["tree"]]


@pytest.mark.parametrize("config", run.CONFIGS)
@pytest.mark.parametrize("workload", sorted(run.DEGREE))
def test_tracing_keeps_verdicts_and_counts_repeat(workload, config):
    plain = sample(workload, config, False)
    first = sample(workload, config, True)
    second = sample(workload, config, True)
    assert plain["failed"] == 0 and plain["attempted"] > 0
    assert first["verdicts"] == plain["verdicts"] == second["verdicts"]
    assert counts(first) == counts(second)
    assert first["spans"].keys() == second["spans"].keys()


def test_layer_spans_nest_with_self_time():
    t = tracer.Tracer()

    def leaf(n):
        time.sleep(0.01)
        return n

    leaf = t.wrap("leaf", leaf, counts=lambda n: {"cells": n})
    outer = t.wrap("outer", lambda: leaf(3) + leaf(4))
    assert outer() == 7
    spans = t.by_name()
    assert spans["leaf"]["calls"] == 2 and spans["leaf"]["cells"] == 7
    assert spans["outer"]["total_s"] == pytest.approx(spans["outer"]["self_s"] + spans["leaf"]["total_s"])
    assert [row["path"] for row in t.tree()] == ["outer", "outer > leaf"]


def test_hom_space_spans_are_labelled_from_their_arguments():
    T = workloads.T
    alg = T.schur_algebra(T.BLESSED_CONFIGS["gf2-u1"](2))
    q = T.tensor_module(alg)
    reg = T.regular_module(alg)
    assert tracer._hom_label(q, q) == "endq"
    assert tracer._hom_label(q, reg) == "fromq"
    assert tracer._hom_label(reg, q) == "toq"


def test_a_wrong_verdict_fails(monkeypatch):
    real = workloads.T.double_centralizer_report

    def wrong(params):
        return {**real(params), "commutant_dim": 0}

    monkeypatch.setattr(workloads.T, "double_centralizer_report", wrong)
    verdicts = workloads.centralizer(SMALL_D, "gf2-u1")
    assert [v[0] for v in verdicts if not v[3]] == ["commutant_dim"]


def test_result_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    fake = {"wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 1.0}
    e2e, _ = run.end_to_end({cfg: [fake] for cfg in run.CONFIGS}, [0.2])
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert all(e2e[m["name"]][1] == m["unit"] for m in spec["end_to_end"])
    traced = {cfg: {"spans": {}, "wall_s": 1.0} for cfg in run.CONFIGS}
    layers = run.per_layer(traced, traced)
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    assert all(layers[m["name"]][1] == m["unit"] for m in spec["per_layer"])
    assert {w["name"] for w in spec["workloads"]} <= set(run.DEGREE)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify-d4", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
