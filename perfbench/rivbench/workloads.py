"""The four workloads: fleet, apps, faults (simulator) and rt (real sockets).

Every workload builds its inputs from the seed inside the benchmark and
hands the program only those inputs: emission times and values, and (for
``faults``) a fixed fault plan drawn by the program's own seeded
``FaultScheduleGenerator``.

A simulator workload is *repeated* until the measuring time is used up.
Every repetition builds a fresh home or fleet from the same seed, so all
repetitions must reproduce the same simulated statistics and trace digest
bit for bit; a repetition that differs fails the run's correctness check.
Host timings are medians over the repetitions.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from rivbench import decl
from rivbench.ledger import DeliveryLedger

DAY_S = 86_400.0

# -- workload sizes ---------------------------------------------------------------------

FLEET_HOMES = 20
FLEET_DAYS = 1
HOME_HORIZON_S = 300.0
HOME_RATE_EPS = 20.0
#: Push emissions run from EMIT_START_S to this share of the horizon, so
#: in-flight events settle before the run ends.
EMIT_STOP_SHARE = 0.9
EMIT_START_S = 1.0
#: Guarded repairs on ``faults``, as a share of the horizon.
CLEANUP_SHARE = 0.7
#: Seed of the ``faults`` plan. The plan is fixed, not drawn from the run's
#: seed, so that every run replays the same fault load (seeded plans differ
#: several-fold in the recovery work they cause); the run's seed still
#: varies the emission stream and the home's own randomness. Plan seed 1 is
#: the first one, and it draws every category: crashes, a partition,
#: sensor and actuator failures and link-loss ramps.
FAULT_PLAN_SEED = 1
#: The poll sensor is switched off this long before the horizon: polling
#: never quiesces, and the delivery oracle audits a run that ended
#: quiescent (a poll answered just before the cut is still in flight).
POLL_QUIESCE_S = 2.0
RT_RATES_EPS = (100.0, 300.0, 600.0)
#: rt deliveries later than this count in ``failed_frac``; also the p99
#: limit of ``max_rate_eps``.
RT_LATENCY_LIMIT_S = 0.050
RT_DRAIN_TIMEOUT_S = 3.0
#: Extra cluster set-ups (start and stop, no traffic) timed before the
#: ladder, so that rt's setup_s is a median over enough samples.
RT_SETUP_PROBES = 5

#: The seed whose trace digests are pinned below. A change that moves one
#: changed the simulated behaviour, which a speed-up must never do.
#: ``faults`` is not pinned: its digest depends on the interpreter's string
#: hash seed (``ReliableBroadcast`` fans out over a frozenset of process
#: names), so it repeats within a process but not across processes.
DEFAULT_SEED = 1
REFERENCE_DIGESTS = {
    "fleet": "9794811c66ac7f7b0ceff3a735e0c4c4",
    "apps": "76910cb7cd5e1a5c9c04a2f123d7f382",
}


@dataclass
class Rep:
    """One repetition of a workload."""

    setup_s: float
    run_s: float
    emitted: int
    home_days: float
    counts: Counter
    tallies: dict[str, tuple[int, int]]
    callbacks: int = 0
    digest: str | None = None
    ledger: DeliveryLedger | None = None
    violations: list = field(default_factory=list)
    epochs: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)

    def fingerprint(self) -> str:
        """Hash of every simulated statistic of this repetition (cached)."""
        if "fingerprint" in self.extra:
            return self.extra["fingerprint"]
        h = hashlib.sha256()
        h.update(repr(sorted(self.counts.items())).encode())
        h.update(repr(sorted(self.tallies.items())).encode())
        h.update(repr((self.emitted, self.callbacks, self.digest)).encode())
        if self.ledger is not None:
            h.update(repr(sorted(self.ledger.deliver_latencies())).encode())
            h.update(repr(sorted(self.ledger.actuate_latencies())).encode())
            h.update(repr((self.ledger.duplicates, self.ledger.poll_deliveries)).encode())
        self.extra["fingerprint"] = h.hexdigest()
        return self.extra["fingerprint"]

    def release(self) -> None:
        """Keep only the fingerprint of the per-event ledger (bounds memory)."""
        self.fingerprint()
        self.ledger = None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _merge_tallies(traces) -> dict[str, tuple[int, int]]:
    merged: dict[str, list[int]] = {}
    for trace in traces:
        for sub in trace.sub_kinds("net_send"):
            n, b = trace.tally("net_send", sub)
            cell = merged.setdefault(sub, [0, 0])
            cell[0] += n
            cell[1] += b
    return {k: (v[0], v[1]) for k, v in merged.items()}


class _PlanDriver:
    """Walks a sorted emission plan with one re-arming scheduler entry."""

    __slots__ = ("scheduler", "plan", "sensors", "idx", "on_emit")

    def __init__(self, scheduler, plan, sensors, on_emit=None) -> None:
        self.scheduler = scheduler
        self.plan = plan
        self.sensors = sensors
        self.idx = 0
        self.on_emit = on_emit

    def start(self) -> None:
        if self.plan:
            self.scheduler.post_at(self.plan[0][0], self)

    def __call__(self) -> None:
        due, sensor, value = self.plan[self.idx]
        self.idx += 1
        if self.idx < len(self.plan):
            self.scheduler.post_at(self.plan[self.idx][0], self)
        event = self.sensors[sensor].emit(value)
        if event is not None and self.on_emit is not None:
            self.on_emit(sensor, event.seq, due)


# -- fleet ------------------------------------------------------------------------------


def occupancy_plan(seed: int, home_index: int, days: int) -> list[tuple[float, str, bool]]:
    """A Fig. 1 style resident day: motion bursts and chatty door transitions."""
    rng = random.Random(f"{seed}/fleet/{home_index}")
    offset = rng.uniform(-2.0, 2.0)
    motion = [f"motion{i}" for i in range(1, 5)]
    plan: list[tuple[float, str, bool]] = []
    for day in range(days):
        base = day * DAY_S

        def hour(h: float) -> float:
            return base + (h + offset + rng.uniform(-0.75, 0.75)) * 3600.0

        wake, leave, back, sleep = hour(6.5), hour(8.5), hour(17.5), hour(23.0)
        for start, end in ((wake, leave), (back, sleep)):
            t = start + rng.expovariate(1.0 / 300.0)
            while t < end:
                sensor = rng.choice(motion)
                at = t
                for _ in range(rng.randint(3, 10)):
                    plan.append((at, sensor, True))
                    at += rng.uniform(0.8, 2.5)
                t += rng.expovariate(1.0 / 300.0)
        for _ in range(rng.randint(18, 30)):
            anchor = rng.choices(
                (leave, back, rng.uniform(wake, sleep)), weights=(0.3, 0.3, 0.4))[0]
            at = max(base, anchor + rng.uniform(-900.0, 900.0))
            door = rng.choices(("door1", "door2"), weights=(4.0, 1.0))[0]
            for _ in range(rng.randint(12, 24)):
                plan.append((at, door, True))
                at += rng.uniform(0.4, 3.0)
    end = days * DAY_S
    plan = [p for p in plan if 0.0 <= p[0] < end]
    plan.sort(key=lambda p: p[0])
    return plan


def _no_mark() -> None:
    pass


def run_fleet(seed: int, *, digest: bool = True, mark: Callable[[], None] = _no_mark) -> Rep:
    """``FLEET_HOMES`` Fig. 1 homes x ``FLEET_DAYS`` in one scheduler, no apps.

    ``mark()`` is called right before and right after the timed run.
    """
    from repro.core.fleet import Fleet
    from repro.core.home import HomeConfig
    from repro.eval.workloads import FIG1_LINK_LOSS

    homes, days = FLEET_HOMES, FLEET_DAYS
    t0 = time.perf_counter()
    fleet = Fleet(seed=seed)
    plans = []
    for index in range(homes):
        home_id = f"h{index:03d}"
        home = fleet.add_home(home_id, config=HomeConfig(
            seed=fleet.context.home_seed(home_id),
            heartbeat_interval=60.0,
            failure_detection_s=180.0,
            kv_sync_interval=3600.0,
            keep_trace_kinds=set(),
            trace_digest=digest,
        ))
        for name in ("hub", "tv", "fridge"):
            home.add_process(name, adapters=("zwave", "zigbee", "ip"))
        for i in range(1, 5):
            home.add_sensor(f"motion{i}", kind="motion")
        for name in ("door1", "door2"):
            home.add_sensor(name, kind="door")
        plans.append((home, occupancy_plan(seed, index, days)))
    fleet.start()
    emitted = 0
    for home, plan in plans:
        for (sensor, process), loss in FIG1_LINK_LOSS.items():
            home.set_link_loss(sensor, process, loss)
        sensors = {name: home.sensor(name) for name in home.sensor_names}
        _PlanDriver(home.scheduler, plan, sensors).start()
        emitted += len(plan)
    mark()
    t1 = time.perf_counter()
    fleet.run_until(days * DAY_S)
    t2 = time.perf_counter()
    mark()
    traces = [home.trace for home in fleet.homes()]
    counts: Counter = Counter()
    for trace in traces:
        counts.update(trace.counts)
    return Rep(
        setup_s=t1 - t0, run_s=t2 - t1, emitted=emitted,
        home_days=homes * days, counts=counts, tallies=_merge_tallies(traces),
        callbacks=fleet.scheduler.processed_events,
        digest=fleet.digest() if digest else None,
    )


# -- apps / faults ---------------------------------------------------------------------


def _fault_plan(horizon: float):
    from repro.sim.chaos import PROFILES, FaultDomain, FaultScheduleGenerator

    home = decl.HOME
    domain = FaultDomain(
        processes=home.processes,
        sensors=tuple(home.push_sensors) + tuple(home.poll_sensors),
        actuators=tuple(home.actuators),
        links=tuple(
            (sensor, process)
            for sensor, hosts in home.push_sensors.items() for process in hosts
        ),
    )
    return FaultScheduleGenerator(domain, PROFILES["severe"], horizon).generate(FAULT_PLAN_SEED)


def _schedule_cleanup(home, at: float) -> None:
    """Guarded repairs so every faulted run ends whole (views can converge)."""
    def cleanup() -> None:
        for name, process in sorted(home.processes.items()):
            if not process.alive:
                home.recover_process(name)
        home.heal_partition()
        for name in home.sensor_names:
            if home.sensor(name).failed:
                home.recover_sensor(name)
        for name in home.actuator_names:
            if home.actuator(name).failed:
                home.recover_actuator(name)
        for sensor, hosts in decl.HOME.push_sensors.items():
            for process in hosts:
                home.set_link_loss(sensor, process, 0.0)

    home.scheduler.call_at(at, cleanup)


def run_home(seed: int, *, faults: bool, mark: Callable[[], None] = _no_mark) -> Rep:
    """The declared home under Poisson push emissions, optionally faulted.

    ``mark()`` is called right before and right after the timed run.
    """
    from repro.core.invariants import RunRecord, check_all

    horizon, rate = HOME_HORIZON_S, HOME_RATE_EPS
    t0 = time.perf_counter()
    home = decl.build_sim_home(seed)
    ledger = DeliveryLedger(
        decl.subscriptions(home.apps, decl.HOME.push_sensors),
        incarnation_of=lambda process: home.process(process).incarnation,
        applied_command=lambda r: home.actuator(r["actuator"]).history[-1].command.command_id,
    ).attach(home.trace)
    # Radio links keep the technology's base loss (paper defaults), so a
    # push emission can be lost on its way to a host. Gap delivery is
    # best-effort: the oracle may hold it to completeness only when no
    # push emission was lost, so the record's ``lossless`` says whether
    # one was.
    sensors = {name: home.sensor(name) for name in decl.HOME.push_sensors}
    push_lost: list[str] = []
    home.trace.subscribe(
        lambda r: push_lost.append(r["sensor"]) if r["sensor"] in sensors else None,
        kinds=("radio_lost",),
    )
    home.start()
    plan_actions = 0
    planned_loss = False
    if faults:
        plan = _fault_plan(horizon)
        plan.apply(home)
        plan_actions = len(plan)
        planned_loss = any(a.kind == "set_link_loss" for a in plan.actions)
        _schedule_cleanup(home, horizon * CLEANUP_SHARE)
    for sensor in decl.HOME.poll_sensors:
        home.scheduler.call_at(horizon - POLL_QUIESCE_S, home.fail_sensor, sensor)
    emissions = decl.poisson_plan(seed, rate, EMIT_START_S, horizon * EMIT_STOP_SHARE)
    _PlanDriver(home.scheduler, emissions, sensors, ledger.expect).start()
    mark()
    t1 = time.perf_counter()
    home.run_until(horizon)
    t2 = time.perf_counter()
    mark()
    record = RunRecord.from_home(
        home, fault_free=plan_actions == 0, lossless=not planned_loss and not push_lost)
    violations = check_all(record)
    ledger.close()
    trace = home.trace
    return Rep(
        setup_s=t1 - t0, run_s=t2 - t1, emitted=len(emissions),
        home_days=horizon / DAY_S, counts=Counter(trace.counts),
        tallies=_merge_tallies([trace]), callbacks=home.scheduler.processed_events,
        digest=trace.digest(), ledger=ledger, violations=violations,
        epochs=horizon / decl.HOME.poll_epoch_s,
        extra={"fault_actions": plan_actions, "push_lost": len(push_lost)},
    )


# -- rt --------------------------------------------------------------------------------


async def _rt_phase(seed: int, rate: float, seconds: float) -> Rep:
    """One open-loop phase at ``rate`` ev/s on a fresh localhost cluster."""
    from repro.core.invariants import check_all

    loop = asyncio.get_running_loop()
    t0 = time.perf_counter()
    cluster, stop_polls = decl.build_cluster(seed)
    ledger = DeliveryLedger(
        decl.subscriptions(decl.make_apps(), decl.HOME.push_sensors),
        incarnation_of=lambda process: 0,
        applied_command=lambda r: cluster.node(r["process"]).actuations[-1].command_id,
    ).attach(cluster.trace)
    plan = decl.poisson_plan(seed, rate, 0.0, seconds)
    await cluster.start()
    t1 = time.perf_counter()
    late: list[float] = []
    try:
        cpu0 = time.process_time()
        w0 = time.perf_counter()
        origin = loop.time()
        for due, sensor, value in plan:
            delay = origin + due - loop.time()
            await asyncio.sleep(delay if delay > 0 else 0)
            now = loop.time()
            late.append(now - (origin + due))
            event = cluster.emit(sensor, value)
            ledger.expect(sensor, event.seq, origin + due)
        w1 = time.perf_counter()
        cpu1 = time.process_time()
        stop_polls()
        expected = ledger.expected()
        deadline = loop.time() + RT_DRAIN_TIMEOUT_S
        while len(ledger.first) < expected and loop.time() < deadline:
            await asyncio.sleep(0.01)
        await cluster.quiesce(idle_for=0.2, timeout=RT_DRAIN_TIMEOUT_S)
        record = cluster.run_record()
        violations = check_all(record)
    finally:
        await cluster.stop()
    ledger.close()
    return Rep(
        setup_s=t1 - t0, run_s=w1 - w0, emitted=len(plan), home_days=0.0,
        counts=Counter(cluster.trace.counts), tallies=_merge_tallies([cluster.trace]),
        ledger=ledger, violations=violations,
        epochs=(w1 - w0) / decl.HOME.poll_epoch_s,
        extra={"cpu_s": cpu1 - cpu0, "late": late, "rate": rate},
    )


async def _rt_setup(seed: int) -> float:
    """Seconds to build and start the cluster (it is stopped afterwards)."""
    t0 = time.perf_counter()
    cluster, _stop_polls = decl.build_cluster(seed)
    await cluster.start()
    elapsed = time.perf_counter() - t0
    await cluster.stop()
    return elapsed


def run_rt(seed: int, seconds: float) -> tuple[list[Rep], list[float]]:
    """The rate ladder, one fresh cluster per rate, in one event loop.

    Returns the phases and the set-up times of ``RT_SETUP_PROBES`` extra
    cluster starts.
    """
    rates = RT_RATES_EPS
    phase = seconds / len(rates)

    async def ladder() -> tuple[list[Rep], list[float]]:
        setups = [await _rt_setup(seed) for _ in range(RT_SETUP_PROBES)]
        reps = [await _rt_phase(seed + i, rate, phase) for i, rate in enumerate(rates)]
        return reps, setups

    return asyncio.run(ladder())
