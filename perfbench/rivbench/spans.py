"""Spans recorded around calls into the program's public entry points.

The traced run patches selected functions and methods of ``repro`` with
wrappers that open a span (name, start, end, parent, optional (sensor,
seq) tag) for the duration of each call. Spans live in flat in-memory
arrays and are written out once, when the run ends. Untraced runs patch
nothing, so they measure the unmodified program.

A span's *self time* is its duration minus the time its direct child
spans cover. Calls nest strictly (the simulator is single-threaded and
every wrapped rt call is synchronous), so the self times of all spans add
up exactly to the duration of the root spans.
"""

from __future__ import annotations

import gzip
import time
from array import array
from typing import Any, Callable, Iterator

UNTAGGED = -1


class SpanRecorder:
    """Flat, append-only span store with a live call stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.sensors: list[str] = []
        self._sensor_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.sensor = array("l")
        self.seq = array("q")
        self.stack: list[int] = []
        #: Count-only hooks (no span): counter name -> calls.
        self.counters: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def sensor_id(self, sensor: str) -> int:
        sid = self._sensor_ids.get(sensor)
        if sid is None:
            sid = self._sensor_ids[sensor] = len(self.sensors)
            self.sensors.append(sensor)
        return sid

    def open(self, nid: int, sensor: int = UNTAGGED, seq: int = UNTAGGED) -> int:
        """Open a span now; returns its index (pass it to :meth:`close`)."""
        stack = self.stack
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.sensor.append(sensor)
        self.seq.append(seq)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def tag(self, idx: int, sensor: str, seq: int) -> None:
        """Attach an event's (sensor, seq) to an open or closed span."""
        self.sensor[idx] = self.sensor_id(sensor)
        self.seq[idx] = seq

    # -- analysis -----------------------------------------------------------------
    #
    # ``lo``/``hi`` restrict an analysis to the spans opened in a measured
    # window: spans are appended as they open, so when no span is open at
    # either edge, the window's spans are exactly indices [lo, hi) and
    # every parent of one of them lies inside the window too.

    def self_times(self, lo: int = 0, hi: int | None = None) -> array:
        """Self time of spans [lo, hi): duration minus direct children's."""
        hi = len(self.start) if hi is None else hi
        start, end, parent = self.start, self.end, self.parent
        own = array("d", (end[i] - start[i] for i in range(lo, hi)))
        for i in range(lo, hi):
            p = parent[i]
            if p >= lo:
                own[p - lo] -= end[i] - start[i]
        return own

    def root_time(self, lo: int = 0, hi: int | None = None) -> float:
        """Total duration of the spans in [lo, hi) that have no parent."""
        hi = len(self.start) if hi is None else hi
        start, end, parent = self.start, self.end, self.parent
        return sum(end[i] - start[i] for i in range(lo, hi) if parent[i] < 0)

    def by_name(self, lo: int = 0, hi: int | None = None) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self time) over spans [lo, hi)."""
        own = self.self_times(lo, hi)
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        for nid, t in zip(self.name[lo:lo + len(own)], own):
            calls[nid] += 1
            total[nid] += t
        return {n: (calls[i], total[i]) for i, n in enumerate(self.names) if calls[i]}

    def rows(self) -> Iterator[tuple]:
        t0 = self.start[0] if len(self.start) else 0.0
        for i in range(len(self.start)):
            sid = self.sensor[i]
            yield (
                i, self.parent[i], self.names[self.name[i]],
                round((self.start[i] - t0) * 1e9), round((self.end[i] - t0) * 1e9),
                self.sensors[sid] if sid >= 0 else "", self.seq[i],
            )

    def write(self, path: str) -> None:
        """Write every span as gzipped TSV (times in ns from the first span)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\tsensor\tseq\n")
            for row in self.rows():
                fh.write("\t".join(map(str, row)) + "\n")


Tagger = Callable[[tuple, Any], "tuple[str, int] | None"]


class Patcher:
    """Installs span wrappers on ``owner.attr`` and undoes them in reverse."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[Any, str, Any]] = []

    def span(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[[tuple], str],
        *,
        tag: Tagger | None = None,
        on_result: Callable[[Any], None] | None = None,
    ) -> None:
        """Wrap ``owner.attr`` so every call records one span.

        ``name`` is the span name, or a function of the call's positional
        arguments returning it. ``tag(args, result)`` may return the
        event's ``(sensor, seq)``; ``on_result(result)`` sees every return
        value (used for frame sizes and fast-path outcomes).
        """
        rec = self.recorder
        fn = owner.__dict__[attr]
        if isinstance(fn, (staticmethod, classmethod, property)):
            raise TypeError(f"cannot wrap descriptor {owner!r}.{attr}")
        fixed = rec.name_id(name) if isinstance(name, str) else None
        name_of = rec.name_id
        open_, close, tag_span = rec.open, rec.close, rec.tag

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx = open_(fixed if fixed is not None else name_of(name(args)))
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                close(idx)
                if tag is not None:
                    tagged = tag(args, result)
                    if tagged is not None:
                        tag_span(idx, *tagged)
                if on_result is not None:
                    on_result(result)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        self._set(owner, attr, wrapper)

    def count_callbacks(self, owner: Any, attr: str, counter: str, arg: int) -> None:
        """Count invocations of the callbacks registered through ``owner.attr``.

        The call's ``arg``-th positional argument (the callback being
        registered) is wrapped before it is registered; no span is recorded.
        """
        counters = self.recorder.counters
        counters.setdefault(counter, 0)
        fn = owner.__dict__[attr]

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            callback = args[arg]

            def counted(*cargs: Any, **ckwargs: Any) -> Any:
                counters[counter] += 1
                return callback(*cargs, **ckwargs)

            return fn(*args[:arg], counted, *args[arg + 1:], **kwargs)

        self._set(owner, attr, wrapper)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()
