"""Tiny-size smoke runs of every workload, and the open-loop lateness rule."""

import asyncio
import json
import os
import subprocess
import sys
import time

import pytest

from rivbench import bench, layers, workloads
from rivbench.ledger import DeliveryLedger

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "FLEET_HOMES", 2)
    monkeypatch.setattr(workloads, "HOME_HORIZON_S", 40.0)
    monkeypatch.setattr(workloads, "RT_RATES_EPS", (50.0, 100.0))
    monkeypatch.setattr(bench, "MIN_REPS", 1)


@pytest.mark.parametrize("workload", ["fleet", "apps", "faults"])
def test_sim_workload_smoke(tiny, workload):
    result = bench.measure(workload, seed=3, seconds=0.01)
    assert result.correct, result.problems
    assert result.attempted > 0 and result.failed == 0
    for name, _unit in bench.END_TO_END:
        assert result.table[name].value > 0
    if workload != "fleet":
        assert result.table["deliver_p50_ms"].n > 0
        assert result.table["polls_per_epoch"].value > 0


def test_sim_repetitions_are_bit_identical(tiny):
    a = workloads.run_home(5, faults=True)
    b = workloads.run_home(5, faults=True)
    assert a.fingerprint() == b.fingerprint()
    assert a.digest == b.digest
    c = workloads.run_home(6, faults=True)
    assert c.fingerprint() != a.fingerprint()


def test_push_radio_loss_lifts_the_gap_completeness_check():
    # Seed 28 loses one d1 emission on the link to the Gap forwarder (the
    # IP base loss); the other host discards its copy, as Gap may.
    rep = workloads.run_home(28, faults=False)
    assert rep.extra["push_lost"] == 1
    assert rep.violations == []


def test_rt_workload_smoke(tiny):
    result = bench.measure("rt", seed=3, seconds=2.0)
    assert result.correct, result.problems
    assert result.failed == 0
    assert result.table["deliver_p50_ms"].value < workloads.RT_LATENCY_LIMIT_S * 1e3
    assert result.table["max_rate_eps"].value == 100.0


def test_traced_run_reconciles_and_keeps_statistics(tiny, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT_DIR", str(tmp_path))
    traced = bench.measure_traced("apps", seed=4, seconds=1.0)
    assert traced.result.correct, traced.result.problems
    names = [name for name, *_ in layers.PER_LAYER]
    assert sorted(traced.metrics) == sorted(names)
    assert traced.metrics["trace.reconcile_err"] <= layers.RECONCILE_BOUND
    assert traced.metrics["core.execution.events"] > 0
    assert traced.metrics["net.transport.self_s"] > 0
    assert (tmp_path / "apps-s4.spans.tsv.gz").exists()
    written = json.loads((tmp_path / "apps-s4.layers.json").read_text())
    assert [m["name"] for m in written["metrics"]] == names


def test_due_time_latency_counts_a_stalled_generator(tiny):
    """Events due while the loop is blocked are timed from their due time."""
    stall_s = 0.3

    async def stalled_phase():
        loop = asyncio.get_running_loop()
        loop.call_later(0.5, time.sleep, stall_s)  # blocks the whole loop
        return await workloads._rt_phase(7, 50.0, 1.5)

    rep = asyncio.run(stalled_phase())
    late = max(rep.extra["late"])
    assert late >= stall_s * 0.8
    latencies = rep.ledger.deliver_latencies()
    # The stalled events were delivered a few ms after they were sent,
    # but they were due up to stall_s earlier.
    assert max(latencies) >= late
    assert max(latencies) >= stall_s * 0.8


def test_ledger_scores_first_deliveries_duplicates_and_actuations():
    class Rec:
        def __init__(self, time, kind, **fields):
            self.time, self.kind, self.fields = time, kind, fields

        def __getitem__(self, key):
            return self.fields[key]

    applied = {}
    ledger = DeliveryLedger(
        {"m1": ("alarm", "monitor")},
        incarnation_of=lambda process: 0,
        applied_command=lambda r: applied[r.time],
    )
    ledger.expect("m1", 1, due=10.0)
    ledger.expect("m1", 2, due=11.0)
    ledger.on_record(Rec(10.5, "logic_delivery", app="alarm", sensor="m1", seq=1))
    ledger.on_record(Rec(10.5, "command_issued", app="alarm", actuator="a1", seq=1,
                         process="hub"))
    ledger.on_record(Rec(10.6, "logic_delivery", app="monitor", sensor="m1", seq=1))
    ledger.on_record(Rec(10.6, "logic_delivery", app="t", sensor="t1", seq=9))
    ledger.on_record(Rec(90.0, "logic_delivery", app="alarm", sensor="m1", seq=1))
    ledger.on_record(Rec(90.0, "command_issued", app="alarm", actuator="a1", seq=2,
                         process="hub"))
    applied[10.8] = ("a1", "alarm@hub", 1)
    applied[90.1] = ("a1", "alarm@hub", 2)
    ledger.on_record(Rec(10.8, "actuation", actuator="a1"))
    ledger.on_record(Rec(90.1, "actuation", actuator="a1"))
    assert sorted(ledger.deliver_latencies()) == pytest.approx([0.5, 0.6])
    assert ledger.actuate_latencies() == pytest.approx([0.8])  # replay not attributed
    assert ledger.duplicates == 1 and ledger.poll_deliveries == 1
    assert ledger.expected() == 4 and ledger.undelivered() == 2
    assert ledger.undelivered(late_after=0.55) == 3
    assert ledger.dup_ratio() == pytest.approx(1 / 3)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_command_on_a_seed_unused_while_writing_the_benchmark():
    proc = _run("--workload", "apps", "--seed", "40417", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {name for name, _ in bench.END_TO_END}


def test_command_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    script = tmp_path / "perfbench" / "run.py"
    script.write_text(open(os.path.join(BENCH, "run.py")).read())
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", "apps", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
