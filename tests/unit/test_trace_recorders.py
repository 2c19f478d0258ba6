"""Differential tests: every pre-resolved recorder against the generic path.

Each surviving recorder — ``device_channel(...).record``,
``MessageChannel.record`` (with and without ``reason``), ``record_device``
and ``HomeNetwork.send_multicast`` — is driven with the same record stream
as ``Trace.record`` (or per-message ``send``) under three trace configs:
aggregate-only with a streaming digest, everything kept, and
kind-subscribed. Counts, byte totals, tallies, pair counts, kept events and
subscriber calls must be equal; digests must be equal wherever both paths
take the same lane.
"""

import hashlib

import pytest

from repro.net.message import Message
from repro.net.transport import HomeNetwork
from repro.sim.random import RandomSource
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import (
    _PACK_D,
    _VERSION_PREFIX,
    Trace,
    _lp,
    _pack_value,
    _record_bytes,
)

CONFIGS = ("aggregate_digest", "all_kept", "kind_subscribed")

DEVICE_KINDS = ("radio_emit", "radio_delivered", "poll_request", "ingest")
MESSAGE_KINDS = ("net_send", "net_deliver", "net_drop")


def make_trace(config: str, kinds: tuple[str, ...]):
    """A trace in ``config`` plus the list its subscriber appends to."""
    seen: list = []
    if config == "aggregate_digest":
        trace = Trace(keep_kinds=set(), digest=True)
    elif config == "all_kept":
        trace = Trace()
    else:
        trace = Trace(keep_kinds=set(), digest=True)
        trace.subscribe(seen.append, kinds=kinds)
    return trace, seen


def observe(trace: Trace, seen: list, kinds: tuple[str, ...]) -> dict:
    """Everything a recorder is supposed to leave behind, minus the digest."""
    return {
        "counts": {k: trace.count(k) for k in kinds},
        "bytes": {k: trace.bytes_of_kind(k) for k in kinds},
        "tallies": {
            k: {sub: trace.tally(k, sub) for sub in sorted(trace.sub_kinds(k))}
            for k in kinds
        },
        "pairs": {k: trace.pair_counts(k) for k in kinds},
        "kept": [(e.time, e.kind, e.fields) for e in trace.events],
        "seen": [(e.time, e.kind, e.fields) for e in seen],
    }


# -- device records ---------------------------------------------------------------

#: (time, kind, sensor, process, seq): repeated instants and seqs exercise the
#: packed time/seq memos; a seq-less kind and a non-int seq cover the
#: remaining shapes.
DEVICE_STREAM = [
    (0.5, "radio_emit", "s1", None, 1),
    (0.5, "radio_emit", "s1", None, 1),
    (0.5, "radio_delivered", "s1", "p1", 1),
    (0.5, "radio_delivered", "s1", "p2", 1),
    (0.75, "poll_request", "s2", "p1", None),
    (0.75, "poll_request", "s2", "p1", None),
    (1.0, "radio_emit", "s1", None, 2),
    (1.0, "ingest", "s1", "p1", 2),
    (1.0, "ingest", "s1", "p1", "late-7"),
    (1.25, "radio_emit", "s2", None, 2**70),
    (1.5, "radio_delivered", "s1", "p1", 3),
]


def generic_fields(sensor, process, seq) -> dict:
    fields = {"sensor": sensor}
    if process is not None:
        fields["process"] = process
    if seq is not None:
        fields["seq"] = seq
    return fields


def drive_device(trace: Trace, recorder: str) -> None:
    for time, kind, sensor, process, seq in DEVICE_STREAM:
        if recorder == "channel":
            trace.device_channel(kind, sensor, process).record(time, seq)
        elif recorder == "record_device":
            trace.record_device(time, kind, "sensor", sensor, process, seq)
        else:
            trace.record(time, kind, **generic_fields(sensor, process, seq))


def device_run(config: str, recorder: str) -> tuple[dict, str]:
    trace, seen = make_trace(config, DEVICE_KINDS)
    drive_device(trace, recorder)
    return observe(trace, seen, DEVICE_KINDS), trace.digest()


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("recorder", ["channel", "record_device"])
def test_device_recorders_match_generic_record(config, recorder):
    fast, fast_digest = device_run(config, recorder)
    generic, generic_digest = device_run(config, "generic")
    assert fast == generic
    assert fast["counts"]["radio_emit"] == 4
    if config != "aggregate_digest":
        # Kept or subscribed records take the generic lane inside the
        # channel too, so the digest bytes are the same.
        assert fast_digest == generic_digest


@pytest.mark.parametrize("config", CONFIGS)
def test_device_channel_and_record_device_share_one_lane(config):
    assert device_run(config, "channel") == device_run(config, "record_device")


def test_device_channel_is_shared_per_flow():
    trace = Trace()
    channel = trace.device_channel("radio_emit", "s1")
    assert trace.device_channel("radio_emit", "s1") is channel
    assert trace.device_channel("radio_emit", "s1", "p1") is not channel


def test_device_channel_falls_back_for_aggregate_profile_kinds():
    """A kind first recorded with aggregate fields keeps its generic path."""
    via_channel = Trace(keep_kinds=set(), digest=True)
    via_generic = Trace(keep_kinds=set(), digest=True)
    for trace in (via_channel, via_generic):
        trace.record(0.0, "radio_emit", sensor="s0", bytes=4)
    via_channel.device_channel("radio_emit", "s1").record(1.0, 5)
    via_generic.record(1.0, "radio_emit", sensor="s1", seq=5)
    assert via_channel.count("radio_emit") == via_generic.count("radio_emit") == 2
    assert via_channel.digest() == via_generic.digest()


# -- message records ----------------------------------------------------------------

#: (time, kind, src, dst, sub_kind, nbytes, reason)
MESSAGE_STREAM = [
    (0.5, "net_send", "a", "b", "keepalive", 64, None),
    (0.5, "net_send", "a", "b", "keepalive", 64, None),
    (0.5, "net_send", "a", "c", "gapless_fwd", 180, None),
    (0.75, "net_deliver", "a", "b", "keepalive", None, None),
    (0.75, "net_deliver", "a", "b", "sync", None, None),
    (1.0, "net_send", "a", "b", "sync", 120, "retry"),
    (1.0, "net_drop", "a", "c", "gapless_fwd", None, "partition"),
    (1.25, "net_drop", "b", "a", "keepalive", None, "dst_crashed"),
]


def drive_messages(trace: Trace, recorder: str, stream) -> None:
    for time, kind, src, dst, sub, nbytes, reason in stream:
        if recorder == "channel":
            trace.message_channel(kind, src, dst).record(time, sub, nbytes, reason)
        else:
            fields = {"src": src, "dst": dst, "kind": sub}
            if nbytes is not None:
                fields["bytes"] = nbytes
            if reason is not None:
                fields["reason"] = reason
            trace.record(time, kind, **fields)


def message_run(config: str, recorder: str, stream) -> tuple[dict, str]:
    trace, seen = make_trace(config, MESSAGE_KINDS)
    drive_messages(trace, recorder, stream)
    return observe(trace, seen, MESSAGE_KINDS), trace.digest()


@pytest.mark.parametrize("config", CONFIGS)
def test_message_channel_matches_generic_record(config):
    fast, fast_digest = message_run(config, "channel", MESSAGE_STREAM)
    generic, generic_digest = message_run(config, "generic", MESSAGE_STREAM)
    assert fast == generic
    assert fast["tallies"]["net_send"]["keepalive"] == (2, 128)
    if config != "aggregate_digest":
        assert fast_digest == generic_digest


@pytest.mark.parametrize("config", CONFIGS)
def test_message_channel_with_reason_matches_generic_record(config):
    """Records with a ``reason`` always take the channel's generic lane,
    so their digest bytes match even on an aggregate-only trace."""
    with_reason = [r for r in MESSAGE_STREAM if r[6] is not None]
    fast = message_run(config, "channel", with_reason)
    generic = message_run(config, "generic", with_reason)
    assert fast == generic


# -- multicast ---------------------------------------------------------------------


class Sink:
    def __init__(self, name: str):
        self.name = name
        self.alive = True
        self.received: list = []

    def deliver(self, message: Message) -> None:
        self.received.append((message.kind, message.src))


def multicast_run(config: str, multicast: bool) -> tuple[dict, str, list]:
    trace, seen = make_trace(config, ("net_send", "net_deliver"))
    sched = Scheduler()
    net = HomeNetwork(sched, RandomSource(7), trace)
    sinks = [Sink(n) for n in ("a", "b", "c", "d")]
    for sink in sinks:
        net.register(sink)
    dsts = ("b", "c", "d")
    for tick in range(30):
        if tick == 10:
            sinks[2].alive = False  # c crashes: its copies drop at delivery
            net.liveness_changed()
        if multicast:
            assert net.send_multicast("a", dsts, "keepalive")
        else:
            for dst in dsts:
                net.send(Message("keepalive", "a", dst))
        sched.run_until(sched.now + 0.5)
    sched.run()
    kinds = ("net_send", "net_deliver", "net_drop")
    received = [sink.received for sink in sinks]
    return observe(trace, seen, kinds), trace.digest(), received


@pytest.mark.parametrize("config", CONFIGS)
def test_multicast_matches_per_message_sends(config):
    fast = multicast_run(config, multicast=True)
    slow = multicast_run(config, multicast=False)
    assert fast == slow
    observed = fast[0]
    assert observed["counts"]["net_send"] == 90
    assert observed["pairs"]["net_drop"] == {("a", "c"): 20}


# -- lane rules on an aggregate-only digest trace --------------------------------------


def compact_bytes(time: float, kind: str, fields: dict) -> bytes:
    """One record in the compact framing docs/performance.md specifies."""
    keys = sorted(fields)
    return (_PACK_D(time) + bytes([len(keys)]) + _lp(kind.encode())
            + b"".join(_lp(k.encode()) + _pack_value(fields[k]) for k in keys))


def reference_digest(records) -> str:
    hasher = hashlib.sha256(_VERSION_PREFIX)
    for time, kind, fields, compact in records:
        frame = compact_bytes if compact else _record_bytes
        hasher.update(frame(time, kind, fields))
    return hasher.hexdigest()[:32]


@pytest.mark.parametrize("recorder", ["channel", "record_device"])
def test_device_lane_rules(recorder):
    """Count+digest device records use the compact framing, except the
    first record of a kind and records with a non-int seq."""
    seen_kinds: set = set()
    records = []
    for time, kind, sensor, process, seq in DEVICE_STREAM:
        compact = kind in seen_kinds and (seq is None or type(seq) is int)
        seen_kinds.add(kind)
        records.append((time, kind, generic_fields(sensor, process, seq), compact))
    trace = Trace(keep_kinds=set(), digest=True)
    drive_device(trace, recorder)
    assert trace.digest() == reference_digest(records)


def test_message_lane_rules():
    """Message channels create their kind eagerly: every reason-less
    count+digest record uses the compact framing."""
    records = []
    for time, kind, src, dst, sub, nbytes, reason in MESSAGE_STREAM:
        fields = {"src": src, "dst": dst, "kind": sub}
        if nbytes is not None:
            fields["bytes"] = nbytes
        if reason is not None:
            fields["reason"] = reason
        records.append((time, kind, fields, reason is None))
    trace = Trace(keep_kinds=set(), digest=True)
    drive_messages(trace, "channel", MESSAGE_STREAM)
    assert trace.digest() == reference_digest(records)


# -- the known framing defect -------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Known digest-framing defect: _record_bytes frames top-level str "
        "fields with a 4-byte length while the channel lanes use the 1-byte "
        "compact prefix, so a record's digest bytes depend on whether its "
        "kind is kept or subscribed. Fix: bump DIGEST_VERSION to 3 with one "
        "framing, landed with a benchmark change that re-pins "
        "perfbench REFERENCE_DIGESTS."
    ),
)
def test_digest_independent_of_kept_kinds():
    def digest(keep_kinds: set) -> str:
        trace = Trace(keep_kinds=keep_kinds, digest=True)
        drive_device(trace, "channel")
        drive_messages(trace, "channel", MESSAGE_STREAM)
        return trace.digest()

    assert digest(set()) == digest({"radio_emit", "net_send"})
