"""The per-layer ledger: where spans go, and what each layer number means.

:func:`instrument` wraps the public entry points of every layer of
``repro``: sim.scheduler, sim.tracing, net.radio, devices.sensor,
devices.actuator, net.transport, membership.heartbeat,
core.delivery_service, core.execution, rt.wire and rt.node. Span names
read ``"<layer>|<Class.method>"``; the layer is the part before the bar.

:data:`PER_LAYER` lists every per-layer metric with its unit, which way is
better, the end-to-end metric it should move and the workloads on which it
should move it. :func:`layer_metrics` derives the values from the spans,
the trace's per-kind counts and a few workload-level extras.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from rivbench.spans import Patcher

#: Message kinds that carry a sensor event between processes.
EVENT_CARRYING = ("gapless_fwd", "gap_fwd", "nbcast", "rbcast")
SYNC_KINDS = ("gapless_sync_query", "gapless_sync_reply")

#: (name, unit, better, should move, on which workloads)
PER_LAYER: tuple[tuple[str, str, str, str, str], ...] = (
    ("sim.scheduler.callbacks", "count", "lower", "home_days_per_s, emits_per_s", "fleet (most), apps; not rt"),
    ("sim.scheduler.self_s", "s", "lower", "home_days_per_s, emits_per_s", "fleet (most), apps; not rt"),
    ("sim.scheduler.ns_per_callback", "ns", "lower", "home_days_per_s, emits_per_s", "fleet (most), apps; not rt"),
    ("sim.tracing.records", "count", "lower", "home_days_per_s", "fleet; little on apps"),
    ("sim.tracing.self_s", "s", "lower", "home_days_per_s", "fleet; little on apps"),
    ("sim.tracing.digest_share", "ratio", "lower", "home_days_per_s", "fleet"),
    ("net.radio.calls", "count", "lower", "home_days_per_s", "fleet"),
    ("net.radio.self_s", "s", "lower", "home_days_per_s", "fleet"),
    ("net.radio.delivered_ratio", "ratio", "higher", "failed_frac", "faults"),
    ("devices.sensor.emits", "count", "higher", "emits_per_s", "fleet"),
    ("devices.sensor.self_s", "s", "lower", "emits_per_s", "fleet"),
    ("devices.sensor.poll_served_ratio", "ratio", "higher", "polls_per_epoch", "apps"),
    ("devices.actuator.calls", "count", "lower", "actuate_p99_ms", "apps, faults"),
    ("devices.actuator.applied_ratio", "ratio", "higher", "actuate_p99_ms", "faults"),
    ("net.transport.msgs", "count", "lower", "net_msgs_per_event", "apps"),
    ("net.transport.bytes", "B", "lower", "net_bytes_per_event", "apps"),
    ("net.transport.self_s", "s", "lower", "emits_per_s", "apps"),
    ("net.transport.drop_ratio", "ratio", "lower", "failed_frac", "faults"),
    ("net.transport.fastpath_ratio", "ratio", "higher", "emits_per_s", "apps; falls on faults"),
    ("membership.heartbeat.keepalives", "count", "lower", "net_msgs_per_event", "faults; near zero on fleet"),
    ("membership.heartbeat.self_s", "s", "lower", "deliver_p99_ms", "faults"),
    ("membership.heartbeat.view_changes", "count", "lower", "failed_frac, deliver_p99_ms", "faults"),
    ("core.delivery_service.ingests", "count", "lower", "emits_per_s", "apps"),
    ("core.delivery_service.self_s", "s", "lower", "emits_per_s", "apps"),
    ("core.delivery_service.fwd_per_event", "ratio", "lower", "net_msgs_per_event", "apps"),
    ("core.delivery_service.dup_ratio", "ratio", "lower", "deliver_p99_ms", "faults"),
    ("core.delivery_service.replays", "count", "lower", "deliver_p99_ms", "faults"),
    ("core.delivery_service.sync_msgs", "count", "lower", "net_msgs_per_event", "faults"),
    ("core.execution.events", "count", "higher", "emits_per_s", "apps"),
    ("core.execution.self_s", "s", "lower", "emits_per_s", "apps"),
    ("core.execution.commands", "count", "higher", "actuate_p99_ms", "apps"),
    ("core.execution.reroutes", "count", "lower", "actuate_p99_ms", "faults"),
    ("rt.wire.frames", "count", "lower", "deliver_p99_ms, max_rate_eps", "rt only"),
    ("rt.wire.encode_s", "s", "lower", "deliver_p99_ms, max_rate_eps", "rt only"),
    ("rt.wire.decode_s", "s", "lower", "deliver_p99_ms, max_rate_eps", "rt only"),
    ("rt.wire.bytes_per_frame", "B", "lower", "deliver_p99_ms", "rt only"),
    ("rt.node.send_self_s", "s", "lower", "deliver_p99_ms, max_rate_eps", "rt only"),
    ("rt.gen_late_p99_ms", "ms", "lower", "deliver_p99_ms", "rt only"),
    ("trace.overhead_s", "s", "lower", "(tracing cost: traced minus untraced run; rt: CPU)", "all"),
    ("trace.reconcile_err", "ratio", "lower", "(|sum of self times - traced wall| / traced wall)", "all"),
)

#: Stated bound on ``trace.reconcile_err``.
RECONCILE_BOUND = 0.05


def _event_tag(index: int):
    def tag(args: tuple, result: Any):
        event = args[index]
        return (event.sensor_id, event.seq) if event is not None else None
    return tag


def _result_tag(args: tuple, result: Any):
    return (result.sensor_id, result.seq) if result is not None else None


class Probes:
    """Workload-independent tallies the wrappers collect besides spans."""

    def __init__(self) -> None:
        self.multicasts = 0
        self.multicast_fast = 0
        self.frame_bytes = 0

    def on_multicast(self, handled: Any) -> None:
        self.multicasts += 1
        self.multicast_fast += bool(handled)

    def on_frame(self, frame: Any) -> None:
        self.frame_bytes += len(frame)


def instrument(patcher: Patcher, probes: Probes, *, rt: bool) -> None:
    """Wrap every layer's public entry points (sim set, or the rt set)."""
    from repro.core.delivery_service import DeliveryService
    from repro.core.execution import ExecutionService, LogicRuntime
    from repro.core.gap import GapDelivery
    from repro.core.gapless import GaplessDelivery
    from repro.membership.heartbeat import HeartbeatService
    from repro.sim.tracing import MessageChannel, Trace

    span = patcher.span
    for attr in ("record", "record_message", "record_device", "seal", "digest"):
        span(Trace, attr, f"sim.tracing|Trace.{attr}")
    span(MessageChannel, "record", "sim.tracing|MessageChannel.record")
    patcher.count_callbacks(HeartbeatService, "add_view_listener", "view_changes", arg=1)
    span(DeliveryService, "on_ingest", "core.delivery_service|DeliveryService.on_ingest",
         tag=_event_tag(1))
    span(DeliveryService, "send_command", "core.delivery_service|DeliveryService.send_command")
    span(GaplessDelivery, "on_message", "core.delivery_service|GaplessDelivery.on_message")
    span(GaplessDelivery, "on_sync_query", "core.delivery_service|GaplessDelivery.on_sync_query")
    span(GaplessDelivery, "on_sync_reply", "core.delivery_service|GaplessDelivery.on_sync_reply")
    span(GapDelivery, "on_message", "core.delivery_service|GapDelivery.on_message")
    span(ExecutionService, "on_event", "core.execution|ExecutionService.on_event",
         tag=_event_tag(2))
    span(ExecutionService, "send_command", "core.execution|ExecutionService.send_command")
    span(LogicRuntime, "on_event", "core.execution|LogicRuntime.on_event", tag=_event_tag(2))

    if rt:
        from repro.rt import wire
        from repro.rt.node import AsyncRivuletNode

        span(wire, "encode_message", "rt.wire|encode_message", on_result=probes.on_frame)
        span(wire, "decode_body", "rt.wire|decode_body")
        span(AsyncRivuletNode, "send", "rt.node|AsyncRivuletNode.send")
        span(AsyncRivuletNode, "inject_event", "rt.node|AsyncRivuletNode.inject_event",
             tag=_event_tag(1))
        return

    from repro.core.runtime import RivuletProcess
    from repro.devices.actuator import Actuator
    from repro.devices.sensor import PollSensor, PushSensor
    from repro.net.radio import RadioNetwork
    from repro.net.transport import HomeNetwork
    from repro.sim.scheduler import Scheduler

    def deliver_layer(args: tuple) -> str:
        if args[1].kind == "keepalive":
            return "membership.heartbeat|RivuletProcess.deliver"
        return "net.transport|RivuletProcess.deliver"

    span(Scheduler, "run_until", "sim.scheduler|Scheduler.run_until")
    span(RadioNetwork, "emit", "net.radio|RadioNetwork.emit",
         tag=lambda args, result: (args[1], args[2].seq))
    span(RadioNetwork, "send_poll", "net.radio|RadioNetwork.send_poll")
    span(RadioNetwork, "send_command", "net.radio|RadioNetwork.send_command")
    span(PushSensor, "emit", "devices.sensor|PushSensor.emit", tag=_result_tag)
    span(PollSensor, "receive_poll", "devices.sensor|PollSensor.receive_poll")
    span(Actuator, "handle_command", "devices.actuator|Actuator.handle_command")
    span(HomeNetwork, "send", "net.transport|HomeNetwork.send")
    span(HomeNetwork, "send_multicast", "net.transport|HomeNetwork.send_multicast",
         on_result=probes.on_multicast)
    span(RivuletProcess, "deliver", deliver_layer)
    span(RivuletProcess, "multicast", "net.transport|RivuletProcess.multicast")


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when the layer saw no attempts."""
    return num / den if den else 0.0


def layer_metrics(
    spans: dict[str, tuple[int, float]],
    counters: dict[str, int],
    counts: Counter,
    tallies: dict[str, tuple[int, int]],
    probes: Probes,
    extra: dict[str, float],
) -> dict[str, float]:
    """Every :data:`PER_LAYER` value for one traced workload run.

    ``spans``: span name -> (calls, self seconds); ``counts``: summed
    ``Trace.counts`` of every home; ``tallies``: ``net_send`` sub-kind ->
    (messages, bytes); ``extra``: workload-level values (scheduler
    callbacks, digest share, duplicate ratio, generator lateness, tracing
    overhead and reconciliation error).
    """
    calls: Counter = Counter()
    self_s: Counter = Counter()
    per_fn: dict[str, tuple[int, float]] = {}
    for name, (n, t) in spans.items():
        layer, _, fn = name.partition("|")
        calls[layer] += n
        self_s[layer] += t
        per_fn[fn] = (n, t)

    def fn_calls(fn: str) -> int:
        return per_fn.get(fn, (0, 0.0))[0]

    def fn_self(fn: str) -> float:
        return per_fn.get(fn, (0, 0.0))[1]

    def tally(kind: str) -> int:
        return tallies.get(kind, (0, 0))[0]

    emitted = counts["sensor_emit"]
    callbacks = extra.get("callbacks", 0)
    frames = fn_calls("encode_message")
    net_sent = counts["net_send"]
    return {
        "sim.scheduler.callbacks": callbacks,
        "sim.scheduler.self_s": self_s["sim.scheduler"],
        "sim.scheduler.ns_per_callback": _ratio(self_s["sim.scheduler"] * 1e9, callbacks),
        "sim.tracing.records": sum(counts.values()),
        "sim.tracing.self_s": self_s["sim.tracing"],
        "sim.tracing.digest_share": extra.get("digest_share", 0.0),
        "net.radio.calls": calls["net.radio"],
        "net.radio.self_s": self_s["net.radio"],
        "net.radio.delivered_ratio": _ratio(
            counts["radio_delivered"], counts["radio_delivered"] + counts["radio_lost"]),
        "devices.sensor.emits": emitted,
        "devices.sensor.self_s": self_s["devices.sensor"],
        "devices.sensor.poll_served_ratio": _ratio(counts["poll_served"], counts["poll_request"]),
        "devices.actuator.calls": calls["devices.actuator"],
        "devices.actuator.applied_ratio": _ratio(
            counts["actuation"], calls["devices.actuator"]),
        "net.transport.msgs": net_sent,
        "net.transport.bytes": sum(b for _, b in tallies.values()),
        "net.transport.self_s": self_s["net.transport"],
        "net.transport.drop_ratio": _ratio(counts["net_drop"], net_sent + counts["net_drop"]),
        "net.transport.fastpath_ratio": _ratio(probes.multicast_fast, probes.multicasts),
        "membership.heartbeat.keepalives": tally("keepalive"),
        "membership.heartbeat.self_s": self_s["membership.heartbeat"],
        "membership.heartbeat.view_changes": counters.get("view_changes", 0),
        "core.delivery_service.ingests": fn_calls("DeliveryService.on_ingest"),
        "core.delivery_service.self_s": self_s["core.delivery_service"],
        "core.delivery_service.fwd_per_event": _ratio(
            sum(tally(k) for k in EVENT_CARRYING), emitted),
        "core.delivery_service.dup_ratio": extra.get("dup_ratio", 0.0),
        "core.delivery_service.replays": counts["promotion_replay"],
        "core.delivery_service.sync_msgs": sum(tally(k) for k in SYNC_KINDS),
        "core.execution.events": counts["logic_delivery"],
        "core.execution.self_s": self_s["core.execution"],
        "core.execution.commands": counts["command_issued"],
        "core.execution.reroutes": counts["command_rerouted"],
        "rt.wire.frames": frames,
        "rt.wire.encode_s": fn_self("encode_message"),
        "rt.wire.decode_s": fn_self("decode_body"),
        "rt.wire.bytes_per_frame": _ratio(probes.frame_bytes, frames),
        "rt.node.send_self_s": fn_self("AsyncRivuletNode.send"),
        "rt.gen_late_p99_ms": extra.get("gen_late_p99_ms", 0.0),
        "trace.overhead_s": extra.get("overhead_s", 0.0),
        "trace.reconcile_err": extra.get("reconcile_err", 0.0),
    }
