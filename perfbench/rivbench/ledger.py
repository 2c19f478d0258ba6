"""Delivery scoring from kind-scoped trace subscriptions.

The ledger never installs a global subscriber and never asks for a
keep-all trace (either would switch off the program's express lanes and
so measure a different program). It subscribes to exactly three kinds:

- ``logic_delivery``: the first delivery per (app, push sensor, seq) is a
  latency sample; later ones (promotion replay) count as duplicates.
  Deliveries of poll sensors are scored by ``polls_per_epoch`` instead.
- ``command_issued``: attributed to the delivery that triggered it: the
  app's window fires synchronously inside that delivery, so the trigger
  is the latest delivery record, and it must be the same app's first
  delivery of that event (commands a duplicate triggers are not scored).
- ``actuation``: matched to its command by command id, read off the
  actuator (sim) or node (rt) that just applied it.

Latency runs from each event's *due* time, which the workload generator
registers with :meth:`expect` when it emits the event.
"""

from __future__ import annotations

from typing import Any, Callable

KINDS = ("logic_delivery", "command_issued", "actuation")

CommandId = tuple


class DeliveryLedger:
    def __init__(
        self,
        subscriptions: dict[str, tuple[str, ...]],
        *,
        incarnation_of: Callable[[str], int],
        applied_command: Callable[[Any], CommandId],
    ) -> None:
        """``subscriptions``: push sensor -> apps that declared it.

        ``incarnation_of(process)`` gives the issuing runtime's
        incarnation (it is part of the command id); ``applied_command``
        maps an ``actuation`` record to the id of the command applied.
        """
        self.subscriptions = subscriptions
        self._incarnation_of = incarnation_of
        self._applied_command = applied_command
        self.due: dict[tuple[str, int], float] = {}
        self.first: dict[tuple[str, str, int], float] = {}
        self.duplicates = 0
        self.poll_deliveries = 0
        #: The latest logic_delivery if it was a first push delivery.
        self._current: tuple[str, str, int] | None = None
        self._cause: dict[CommandId, tuple[str, str, int]] = {}
        self.applied: dict[CommandId, float] = {}

    def attach(self, trace) -> "DeliveryLedger":
        trace.subscribe(self.on_record, kinds=KINDS)
        return self

    def close(self) -> None:
        """Drop the resolver callbacks (and with them the home or cluster)."""
        self._incarnation_of = self._applied_command = None

    def expect(self, sensor: str, seq: int, due: float) -> None:
        """An emitted push event: every subscribed app should get it."""
        self.due[(sensor, seq)] = due

    # -- subscriber -----------------------------------------------------------------

    def on_record(self, record) -> None:
        kind = record.kind
        if kind == "logic_delivery":
            self._current = None
            sensor = record["sensor"]
            if sensor not in self.subscriptions:
                self.poll_deliveries += 1
                return
            key = (record["app"], sensor, record["seq"])
            if key in self.first:
                self.duplicates += 1
            else:
                self.first[key] = record.time
                self._current = key
        elif kind == "command_issued":
            current = self._current
            if current is None or current[0] != record["app"]:
                return  # not triggered by a first push delivery
            process = record["process"]
            issuer = f"{record['app']}@{process}"
            incarnation = self._incarnation_of(process)
            if incarnation:
                issuer += f"+{incarnation}"
            self._cause[(record["actuator"], issuer, record["seq"])] = current
        else:
            command_id = self._applied_command(record)
            if command_id not in self.applied:
                self.applied[command_id] = record.time

    # -- scoring ---------------------------------------------------------------------

    def expected(self) -> int:
        return sum(len(self.subscriptions[s]) for s, _ in self.due)

    def deliver_latencies(self) -> list[float]:
        """Seconds from due time to first delivery, per expected delivery."""
        due = self.due
        return [
            t - due[(sensor, seq)]
            for (app, sensor, seq), t in self.first.items()
            if (sensor, seq) in due
        ]

    def actuate_latencies(self) -> list[float]:
        """Seconds from due time to the first applied actuation it caused."""
        earliest: dict[tuple[str, str, int], float] = {}
        for command_id, key in self._cause.items():
            t = self.applied.get(command_id)
            if t is not None and (key not in earliest or t < earliest[key]):
                earliest[key] = t
        due = self.due
        return [
            t - due[(sensor, seq)]
            for (app, sensor, seq), t in earliest.items()
            if (sensor, seq) in due
        ]

    def undelivered(self, late_after: float | None = None) -> int:
        """Expected deliveries with no first delivery (or one after ``late_after`` s)."""
        missing = 0
        first = self.first
        for (sensor, seq), due in self.due.items():
            for app in self.subscriptions[sensor]:
                t = first.get((app, sensor, seq))
                if t is None or (late_after is not None and t - due > late_after):
                    missing += 1
        return missing

    def dup_ratio(self) -> float:
        total = len(self.first) + self.duplicates
        return self.duplicates / total if total else 0.0
