"""Tests of the benchmark itself, on a tiny fixture.

Run with ``python -m pytest -q bench`` from the repository root.
"""

import json
import shutil
import subprocess
import sys

import pytest

import fixtures
import measure
import run
from gaitcadence.config import load_config
from gaitcadence.pipeline import run_pipeline
from gate import check, read_outputs
from tracer import Span, Tracer


def tiny(outdir, seed):
    return fixtures.build_steady(outdir, seed, length_s=16.0, hop=10)


@pytest.fixture
def tiny_workload(monkeypatch, tmp_path):
    monkeypatch.setitem(fixtures.WORKLOADS, "tiny", tiny)
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(measure, "SETUP_SAMPLES", 1)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(tiny_workload, capsys, trace):
    code = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        value = result["metrics"][m["name"]]["value"]
        assert f"metric {m['name']} {value!r} {m['unit']}" in lines


@pytest.fixture(scope="module")
def tiny_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("gate")
    fx = tiny(tmp, seed=5)
    run_pipeline(load_config(hop=fx.hop), fx.csv, fx.labels, tmp / "out")
    return fx, read_outputs(tmp / "out")


@pytest.mark.parametrize("rule, shift", [("bias", 0.1), ("band", 0.5)])
def test_gate_fails_on_shifted_trace(tiny_outputs, rule, shift):
    fx, (times, cadence, bouts) = tiny_outputs
    fx.rule = rule
    assert check(fx, times, cadence, bouts).failed == 0
    shifted = check(fx, times, cadence + shift, bouts)
    assert shifted.failed == 1 and shifted.bouts == 1


def test_gate_fails_on_bout_not_ok(tiny_outputs):
    fx, (times, cadence, bouts) = tiny_outputs
    fx.rule = "bias"
    assert check(fx, times, cadence, [dict(bouts[0], status="warning")]).failed == 1
    assert check(fx, times, cadence, []).failed == 1


def test_calls_losing_cpu_to_steal_are_dropped_unless_all_do():
    calls = [(5.0, 0.0, [5.0]), (9.0, 0.2, [9.0]), (5.2, 0.04, [5.2])]
    assert measure.kept_calls(calls) == [calls[0], calls[2]]
    stolen = [(9.0, 0.2, [9.0]), (8.0, 0.1, [8.0])]
    assert measure.kept_calls(stolen) == stolen


def test_bout_latency_is_each_bouts_median_over_calls():
    calls = [(1.0, 0.0, [0.3, 0.5]), (1.4, 0.0, [0.9, 0.4]), (1.1, 0.0, [0.4, 0.6])]
    assert measure.bout_latencies(calls).tolist() == [0.4, 0.5]


def test_self_time_subtracts_union_of_children():
    tracer = Tracer()
    tracer.spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("a", 1.0, 3.0, 0, 1),
        Span("b", 2.0, 5.0, 0, 1),  # overlaps a: [1, 5] counted once
        Span("c", 8.0, 12.0, 0, 1),  # clipped to the parent's end
        Span("grandchild", 1.5, 2.5, 1, 1),  # not a direct child of root
    ]
    assert tracer.self_time(0) == pytest.approx(10.0 - 4.0 - 2.0)
    assert tracer.self_time(1) == pytest.approx(2.0 - 1.0)
    assert tracer.self_time(4) == pytest.approx(1.0)


def test_spans_nest_and_carry_run_id(tmp_path):
    tracer = Tracer()
    tracer.run_id = 7
    with tracer.span("outer"):
        with tracer.span("inner") as sp:
            sp.counts["n"] = 3
    outer, inner = tracer.spans
    assert outer.parent is None and inner.parent == 0
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert {outer.run_id, inner.run_id} == {7}
    tracer.dump(tmp_path / "spans.json")
    dumped = json.loads((tmp_path / "spans.json").read_text())
    assert dumped[1] == dict(name="inner", start=inner.start, end=inner.end,
                             parent=0, run_id=7, counts={"n": 3}, id=1)


def test_fixture_is_reproducible_from_seed(tmp_path):
    a = fixtures.build_daylog(tmp_path / "a", seed=9, n_bouts=3)
    b = fixtures.build_daylog(tmp_path / "b", seed=9, n_bouts=3)
    assert a.csv.read_bytes() == b.csv.read_bytes()
    assert a.labels.read_bytes() == b.labels.read_bytes()
    assert len(a.bouts) == 3


def test_fails_without_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "steady60", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
