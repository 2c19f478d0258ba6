"""One home declaration, built on the simulator and on the real runtime.

The ``apps``, ``faults`` and ``rt`` workloads all run this home: three
processes, a motion and a door push sensor, a coordinated-poll Z-Wave
thermometer, two actuators and four apps (Gapless alarm and monitor on
motion, Gap light on the door, climate on the thermometer). Building both
runtimes from :data:`HOME` is what puts the simulator's predicted latency
next to the latency measured over real sockets.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field

from repro.core.delivery import GAP, GAPLESS, PollingPolicy, PollMode
from repro.core.events import Event
from repro.core.graph import App
from repro.core.home import Home, HomeConfig
from repro.core.invariants import ORACLE_TRACE_KINDS
from repro.core.operators import Operator
from repro.core.windows import CountWindow
from repro.rt.cluster import LocalCluster

@dataclass(frozen=True)
class HomeDecl:
    processes: tuple[str, ...]
    push_sensors: dict[str, tuple[str, ...]]
    poll_sensors: dict[str, tuple[str, ...]]
    actuators: dict[str, tuple[str, ...]]
    poll_epoch_s: float
    #: Share of the offered push-event rate each push sensor emits.
    push_mix: dict[str, float] = field(default_factory=dict)


HOME = HomeDecl(
    processes=("hub", "tv", "fridge"),
    push_sensors={"m1": ("hub", "tv"), "d1": ("tv", "fridge")},
    poll_sensors={"t1": ("hub", "tv")},
    actuators={"a1": ("hub",), "a2": ("tv",)},
    poll_epoch_s=0.5,
    push_mix={"m1": 0.6, "d1": 0.4},
)


def make_apps(decl: HomeDecl = HOME) -> list[App]:
    """The four apps, fresh objects per home."""
    poll_sensor = next(iter(decl.poll_sensors))

    def alarm_logic(ctx, combined) -> None:
        events = combined.all_events()
        if events:
            ctx.actuate("a1", "set", bool(events[-1].value))

    alarm = Operator("AlarmLogic", on_window=alarm_logic)
    alarm.add_sensor("m1", GAPLESS, CountWindow(1))
    alarm.add_actuator("a1", GAPLESS)

    monitor = Operator("MonitorLogic", on_window=lambda ctx, combined: None)
    monitor.add_sensor("m1", GAPLESS, CountWindow(1))

    def light_logic(ctx, combined) -> None:
        events = combined.all_events()
        if events:
            ctx.actuate("a1", "dim", 30 if events[-1].value else 100)

    light = Operator("LightLogic", on_window=light_logic)
    light.add_sensor("d1", GAP, CountWindow(1))
    light.add_actuator("a1", GAP)

    def climate_logic(ctx, combined) -> None:
        events = combined.all_events()
        if events and events[-1].value is not None:
            ctx.actuate("a2", "set", round(float(events[-1].value)))

    climate = Operator("ClimateLogic", on_window=climate_logic)
    climate.add_sensor(
        poll_sensor, GAPLESS, CountWindow(1),
        polling=PollingPolicy(epoch_s=decl.poll_epoch_s, mode=PollMode.COORDINATED),
    )
    climate.add_actuator("a2", GAPLESS)
    return [
        App("alarm", alarm), App("monitor", monitor),
        App("light", light), App("climate", climate),
    ]


def subscriptions(apps: list[App], push_sensors) -> dict[str, tuple[str, ...]]:
    """Push sensor -> the apps that declared it (the expected deliveries)."""
    subs: dict[str, tuple[str, ...]] = {}
    for app in apps:
        for sensor in app.sensor_requirements():
            if sensor in push_sensors:
                subs[sensor] = subs.get(sensor, ()) + (app.name,)
    return subs


def build_sim_home(seed: int, decl: HomeDecl = HOME) -> Home:
    """The declaration as a simulated home (paper defaults), not started."""
    # Keep only what the oracles read (a keep-all trace would switch off the
    # program's express lanes); the digest lets repetitions be compared.
    home = Home(HomeConfig(
        seed=seed, keep_trace_kinds=set(ORACLE_TRACE_KINDS), trace_digest=True,
    ))
    for name in decl.processes:
        home.add_process(name, adapters=("ip", "zwave"))
    for sensor, hosts in decl.push_sensors.items():
        kind = "motion" if sensor.startswith("m") else "door"
        home.add_sensor(sensor, kind=kind, technology="ip", processes=list(hosts))
    for sensor, hosts in decl.poll_sensors.items():
        home.add_sensor(sensor, kind="temperature", technology="zwave",
                        processes=list(hosts))
    for actuator, hosts in decl.actuators.items():
        home.add_actuator(actuator, processes=list(hosts))
    for app in make_apps(decl):
        home.deploy(app)
    return home


def build_cluster(seed: int, decl: HomeDecl = HOME):
    """The same declaration on localhost TCP (paper-default timing), not started.

    Returns ``(cluster, stop_polls)``: after ``stop_polls()`` the poll
    sensors stop answering, so the cluster can quiesce before its record
    is audited (polling itself never quiesces).
    """
    defaults = HomeConfig()
    cluster = LocalCluster(
        seed=seed,
        heartbeat_interval=defaults.heartbeat_interval,
        failure_detection_s=defaults.failure_detection_s,
        use_proxy=False,
    )
    for name in decl.processes:
        cluster.add_process(name)
    for sensor, hosts in decl.push_sensors.items():
        cluster.add_push_sensor(sensor, receivers=list(hosts))
    serving = [True]
    for sensor, hosts in decl.poll_sensors.items():
        served = {"seq": 0}

        def serve(name: str, respond, _served=served) -> None:
            if not serving:
                return
            _served["seq"] += 1
            seq = _served["seq"]
            respond(Event(
                sensor_id=name, seq=seq,
                emitted_at=asyncio.get_running_loop().time(),
                value=21.0 + (seq % 5) * 0.5, size_bytes=4,
            ))

        cluster.add_poll_sensor(
            sensor, serve, receivers=list(hosts),
            service_time=0.02, default_epoch=decl.poll_epoch_s,
        )
    for actuator, hosts in decl.actuators.items():
        cluster.add_actuator(actuator, hosts=list(hosts))
    for app in make_apps(decl):
        cluster.deploy(app)
    return cluster, serving.clear


def poisson_plan(
    seed: int, rate_per_s: float, start: float, stop: float, decl: HomeDecl = HOME,
) -> list[tuple[float, str, bool]]:
    """Seeded open-loop push emissions: sorted (due time, sensor, value).

    Each push sensor emits a Poisson stream at its share of
    ``rate_per_s``; values alternate so every event is distinct.
    """
    plan: list[tuple[float, str, bool]] = []
    for index, (sensor, share) in enumerate(sorted(decl.push_mix.items())):
        rng = random.Random(f"{seed}/{sensor}/{index}")
        t = start
        value = True
        while True:
            t += rng.expovariate(rate_per_s * share)
            if t >= stop:
                break
            plan.append((t, sensor, value))
            value = not value
    plan.sort()
    return plan
