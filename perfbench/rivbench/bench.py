"""Measure one workload: end-to-end table (untraced) or layer ledger (traced)."""

from __future__ import annotations

import gc
import json
import os
import time
from dataclasses import dataclass, field

from rivbench import layers, workloads
from rivbench.calibrate import Speedometer
from rivbench.spans import Patcher, SpanRecorder
from rivbench.stats import median, summarize
from rivbench.workloads import Rep

WORKLOADS = ("fleet", "apps", "faults", "rt")

#: Contract metrics (BENCHMARK.json ``end_to_end``): defined on every workload.
END_TO_END = (("setup_s", "s"), ("emits_per_s", "1/s"), ("peak_rss_mb", "MB"))

#: The full end-to-end table: (name, unit). Cells a workload does not
#: define print as n/a.
TABLE = (
    ("setup_s", "s"), ("home_days_per_s", "1/s"), ("emits_per_s", "1/s"),
    ("peak_rss_mb", "MB"), ("deliver_p50_ms", "ms"), ("deliver_p99_ms", "ms"),
    ("actuate_p50_ms", "ms"), ("actuate_p99_ms", "ms"), ("failed_frac", "ratio"),
    ("net_msgs_per_event", "msgs"), ("net_bytes_per_event", "B"),
    ("polls_per_epoch", "ratio"), ("max_rate_eps", "1/s"),
)

#: Measured repetitions a simulator workload runs at least (after warm-up).
MIN_REPS = 3

OUT_DIR = ".perfbench-out"


@dataclass
class Cell:
    value: float
    n: int
    label: str = ""


@dataclass
class Result:
    workload: str
    seed: int
    table: dict[str, Cell] = field(default_factory=dict)
    rows: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


# -- shared helpers ---------------------------------------------------------------------


def _sim_rep(workload: str, seed: int, **kwargs) -> Rep:
    # Garbage left by earlier repetitions would otherwise be traced by the
    # collector inside this repetition's timed run.
    gc.collect()
    if workload == "fleet":
        return workloads.run_fleet(seed, **kwargs)
    return workloads.run_home(seed, faults=workload == "faults", **kwargs)


def _latency_cells(result: Result, deliver: list[float], actuate: list[float]) -> None:
    for prefix, samples in (("deliver", deliver), ("actuate", actuate)):
        s = summarize(samples)
        if s["n"] == 0:
            continue
        result.table[f"{prefix}_p50_ms"] = Cell(s["p50"] * 1e3, s["n"])
        if s["tail"] is not None:
            label = f"p{s['tail_q']:g}"
            result.table[f"{prefix}_p99_ms"] = Cell(s["tail"] * 1e3, s["n"], label)


def _check_reps(result: Result, reps: list[Rep]) -> None:
    """Every repetition must reproduce the same statistics and pass the oracles."""
    workload = result.workload
    first = reps[0].fingerprint()
    for i, rep in enumerate(reps):
        bad = False
        if rep.fingerprint() != first:
            result.problems.append(f"repetition {i} statistics differ from repetition 0")
            bad = True
        if rep.violations:
            result.problems.append(
                f"repetition {i}: {len(rep.violations)} invariant violations, "
                f"first: {rep.violations[0]}")
            bad = True
        if workload != "faults" and rep.counts["sensor_emit"] != rep.emitted:
            result.problems.append(
                f"repetition {i}: {rep.counts['sensor_emit']} sensor emissions "
                f"recorded for {rep.emitted} emitted")
            bad = True
        if bad:
            result.failed += rep.emitted
    reference = workloads.REFERENCE_DIGESTS.get(workload)
    if result.seed == workloads.DEFAULT_SEED and reference is not None:
        if reps[0].digest != reference:
            result.problems.append(
                f"trace digest {reps[0].digest} != reference {reference} "
                f"for seed {result.seed}")
            result.failed = sum(rep.emitted for rep in reps)


# -- untraced measurement -----------------------------------------------------------


def measure(workload: str, seed: int, seconds: float) -> Result:
    if workload == "rt":
        return _measure_rt(seed, seconds)
    result = Result(workload, seed)
    warm = _sim_rep(workload, seed)
    warm.release()
    speed = Speedometer()
    speed.sample()
    reps: list[Rep] = []
    slowdown: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        rep = _sim_rep(workload, seed)
        if reps:
            # Statistics come from the first repetition; later ones need
            # only their fingerprint, and holding their per-event ledgers
            # would grow the peak memory with the repetition count.
            rep.release()
        reps.append(rep)
        speed.sample()
        slowdown.append(speed.slowdown())
    _check_reps(result, [warm] + reps)
    result.attempted = sum(rep.emitted for rep in reps)
    n = len(reps)
    t = result.table
    t["setup_s"] = Cell(median([r.setup_s / f for r, f in zip(reps, slowdown)]), n)
    t["home_days_per_s"] = Cell(
        median([r.home_days / r.run_s * f for r, f in zip(reps, slowdown)]), n)
    # Emissions that happened: a failed sensor (faults) drops planned ones.
    t["emits_per_s"] = Cell(
        median([r.counts["sensor_emit"] / r.run_s * f for r, f in zip(reps, slowdown)]), n)
    t["peak_rss_mb"] = Cell(workloads.peak_rss_mb(), 1)
    result.rows.append(
        f"raw host figures: setup_s {median([r.setup_s for r in reps]):.5f} s, "
        f"emits_per_s {median([r.counts['sensor_emit'] / r.run_s for r in reps]):.0f}/s; "
        f"host slowdown vs reference {median(slowdown):.3f} (range "
        f"{min(slowdown):.3f}-{max(slowdown):.3f})")
    rep = reps[0]
    events = rep.counts["sensor_emit"]
    t["net_msgs_per_event"] = Cell(rep.counts["net_send"] / events, events)
    t["net_bytes_per_event"] = Cell(sum(b for _, b in rep.tallies.values()) / events, events)
    if workload == "fleet":
        # Home-days whose run raised or whose digest check failed.
        t["failed_frac"] = Cell(0.0 if result.correct else 1.0, workloads.FLEET_HOMES * n)
    else:
        ledger = rep.ledger
        expected = ledger.expected()
        t["failed_frac"] = Cell(ledger.undelivered() / expected, expected)
        _latency_cells(result, ledger.deliver_latencies(), ledger.actuate_latencies())
        t["polls_per_epoch"] = Cell(rep.counts["poll_issued"] / rep.epochs, round(rep.epochs))
        result.rows.append(
            f"duplicates (replayed re-deliveries): {ledger.duplicates}; "
            f"poll deliveries: {ledger.poll_deliveries}; "
            f"fault actions: {rep.extra.get('fault_actions', 0)}; "
            f"push emissions lost on a radio link: {rep.extra.get('push_lost', 0)}")
    result.rows.append(
        f"repetitions: {n} measured + 1 warm-up, all bit-identical: {result.correct}; "
        f"digest {rep.digest}")
    return result


def _lag_grows(late: list[float]) -> bool:
    """Generator lateness trending up: last quarter's median 5 ms above the first's."""
    q = max(1, len(late) // 4)
    return median(late[-q:]) > median(late[:q]) + 0.005


def _measure_rt(seed: int, seconds: float) -> Result:
    result = Result("rt", seed)
    phases, setups = workloads.run_rt(seed, seconds)
    t = result.table
    limit = workloads.RT_LATENCY_LIMIT_S
    deliver: list[float] = []
    actuate: list[float] = []
    late: list[float] = []
    expected = missed = late_or_missed = 0
    best = 0.0
    for rep in phases:
        ledger = rep.ledger
        d = ledger.deliver_latencies()
        deliver += d
        actuate += ledger.actuate_latencies()
        late += rep.extra["late"]
        exp = ledger.expected()
        miss = ledger.undelivered(late_after=limit)
        expected += exp
        missed += ledger.undelivered()
        late_or_missed += miss
        s = summarize(d)
        gen = summarize(rep.extra["late"])
        growing = _lag_grows(rep.extra["late"])
        rate = rep.extra["rate"]
        ok = s["tail"] is not None and s["tail"] <= limit and not growing and not miss
        if ok:
            best = max(best, rate)
        result.rows.append(
            f"rate {rate:>5.0f} ev/s: deliver p50 {s['p50'] * 1e3:.3f} ms, "
            f"p{s['tail_q']:g} {s['tail'] * 1e3:.3f} ms (n={s['n']}); "
            f"generator late p50 {gen['p50'] * 1e3:.3f} ms, p{gen['tail_q']:g} "
            f"{gen['tail'] * 1e3:.3f} ms; lag growing: {growing}; "
            f"missed or late: {miss}/{exp}; cpu {rep.extra['cpu_s']:.3f} s")
        if rep.violations:
            result.problems.append(
                f"rate {rate:g}: {len(rep.violations)} invariant violations, "
                f"first: {rep.violations[0]}")
            result.failed += rep.emitted
        if rep.counts["sensor_emit"] != rep.emitted:
            result.problems.append(f"rate {rate:g}: sensor emissions not all recorded")
            result.failed += rep.emitted
    result.attempted = sum(rep.emitted for rep in phases)
    # An event never delivered fails. One delivered late counts against
    # failed_frac and max_rate_eps, not as a failed operation: on a shared
    # host a stall of the whole VM can make any event late.
    result.failed = min(result.attempted, result.failed + missed)
    n = len(phases)
    setups += [r.setup_s for r in phases]
    t["setup_s"] = Cell(median(setups), len(setups))
    # Not scaled by the calibration kernel: rt's CPU goes largely to
    # sockets and system calls, which the pure-Python kernel does not track.
    t["emits_per_s"] = Cell(
        sum(r.emitted for r in phases) / sum(r.extra["cpu_s"] for r in phases), n,
        "per CPU s")
    t["peak_rss_mb"] = Cell(workloads.peak_rss_mb(), 1)
    _latency_cells(result, deliver, actuate)
    t["failed_frac"] = Cell(late_or_missed / expected if expected else 0.0, expected)
    epochs = sum(r.epochs for r in phases)
    t["polls_per_epoch"] = Cell(
        sum(r.counts["poll_issued"] for r in phases) / epochs, round(epochs))
    if best:
        # The ladder stays below the knee so that no operation fails; when
        # its top rate passes, the true maximum is at least that rate.
        at_top = best == max(workloads.RT_RATES_EPS)
        t["max_rate_eps"] = Cell(best, n, "ladder top, knee higher" if at_top else "")
    g = summarize(late)
    result.rows.append(
        f"generator lateness over all rates: p50 {g['p50'] * 1e3:.3f} ms, "
        f"p{g['tail_q']:g} {g['tail'] * 1e3:.3f} ms (n={g['n']})")
    return result


# -- traced measurement -------------------------------------------------------------


@dataclass
class Traced:
    result: Result
    metrics: dict[str, float]
    spans: SpanRecorder


def _traced_sim(workload: str, seed: int) -> Traced:
    result = Result(workload, seed)
    speed = Speedometer()
    untraced = _sim_rep(workload, seed)
    speed.sample()
    again = _sim_rep(workload, seed)
    speed.sample()
    base = again.run_s / speed.slowdown()
    recorder = SpanRecorder()
    probes = layers.Probes()
    marks: list[int] = []
    with Patcher(recorder) as patcher:
        layers.instrument(patcher, probes, rt=False)
        traced = _sim_rep(workload, seed, mark=lambda: marks.append(len(recorder)))
    speed.sample()
    _check_reps(result, [untraced, again, traced])
    result.attempted = traced.emitted
    lo, hi = marks
    wall = traced.run_s
    extra: dict[str, float] = {
        "callbacks": traced.callbacks,
        # Both run times at reference host speed (see rivbench.calibrate).
        "overhead_s": wall / speed.slowdown() - base,
        "reconcile_err": abs(recorder.root_time(lo, hi) - wall) / wall,
    }
    if traced.ledger is not None:
        extra["dup_ratio"] = traced.ledger.dup_ratio()
    if workload == "fleet":
        off = _sim_rep(workload, seed, digest=False)
        speed.sample()
        extra["digest_share"] = 1.0 - off.run_s / speed.slowdown() / base
    metrics = layers.layer_metrics(
        recorder.by_name(lo, hi), recorder.counters, traced.counts, traced.tallies,
        probes, extra)
    result.rows.append(
        f"traced wall {wall:.3f} s vs untraced {again.run_s:.3f} s (raw); spans in window "
        f"{hi - lo}; sum of self times {recorder.root_time(lo, hi):.3f} s")
    return Traced(result, metrics, recorder)


def _traced_rt(seed: int, seconds: float) -> Traced:
    import asyncio

    result = Result("rt", seed)
    rate = workloads.RT_RATES_EPS[len(workloads.RT_RATES_EPS) // 2]
    phase = seconds / 2
    recorder = SpanRecorder()
    probes = layers.Probes()

    async def both() -> tuple[Rep, Rep]:
        untraced = await workloads._rt_phase(seed, rate, phase)
        with Patcher(recorder) as patcher:
            layers.instrument(patcher, probes, rt=True)
            traced = await workloads._rt_phase(seed, rate, phase)
        return untraced, traced

    untraced, traced = asyncio.run(both())
    for rep in (untraced, traced):
        if rep.violations:
            result.problems.append(f"{len(rep.violations)} invariant violations")
            result.failed += rep.emitted
    result.attempted = traced.emitted
    late = sorted(traced.extra["late"])
    s = summarize(late)
    extra = {
        "gen_late_p99_ms": (s["tail"] or 0.0) * 1e3,
        "overhead_s": traced.extra["cpu_s"] - untraced.extra["cpu_s"],
        "dup_ratio": traced.ledger.dup_ratio(),
        # The asyncio loop is the rt scheduler; its self time is the wall
        # time no span covers, so the ledger reconciles by construction.
        "reconcile_err": 0.0,
    }
    metrics = layers.layer_metrics(
        recorder.by_name(), recorder.counters, traced.counts, traced.tallies, probes, extra)
    covered = recorder.root_time()
    result.rows.append(
        f"rate {rate:g} ev/s for {phase:.1f} s; CPU traced {traced.extra['cpu_s']:.3f} s "
        f"vs untraced {untraced.extra['cpu_s']:.3f} s; spans {len(recorder)} covering "
        f"{covered:.3f} s; event loop self (idle + unattributed) is the rest")
    return Traced(result, metrics, recorder)


def measure_traced(workload: str, seed: int, seconds: float) -> Traced:
    traced = _traced_rt(seed, seconds) if workload == "rt" else _traced_sim(workload, seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-s{seed}")
    traced.spans.write(stem + ".spans.tsv.gz")
    with open(stem + ".layers.json", "w", encoding="utf-8") as fh:
        json.dump({
            "workload": workload, "seed": seed,
            "reconcile_bound": layers.RECONCILE_BOUND,
            "metrics": [
                {"name": name, "unit": unit, "value": traced.metrics[name],
                 "should_move": moves, "on": on}
                for name, unit, _better, moves, on in layers.PER_LAYER
            ],
        }, fh, indent=1)
    if workload != "rt" and traced.metrics["trace.reconcile_err"] > layers.RECONCILE_BOUND:
        traced.result.problems.append(
            f"layer self times miss the traced wall time by "
            f"{traced.metrics['trace.reconcile_err']:.1%} (bound "
            f"{layers.RECONCILE_BOUND:.0%})")
    return traced
