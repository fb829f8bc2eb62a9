"""Event sinks: where telemetry events go.

Every sink exposes ``emit(event: dict)`` and ``close()``.  Events are
flat JSON-serialisable dicts with at least an ``"event"`` key (see
``docs/observability.md`` for the schema).

* :class:`NullSink` — the default: drops everything, ``enabled`` is
  False so instrumented code can skip even building the event dict;
* :class:`MemorySink` — collects events in a list (tests, inspection);
* :class:`JsonlSink` — one JSON object per line, appended and flushed
  per event so a crashed run keeps every event written so far.
"""

from __future__ import annotations

import json
import os
from typing import IO, Mapping


class Sink:
    """Base sink: interface and the ``enabled`` fast-path flag."""

    #: When False, callers may skip building event payloads entirely.
    enabled: bool = True

    def emit(self, event: Mapping) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; emitting after close is an error."""

    def __enter__(self) -> "Sink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullSink(Sink):
    """Discard everything (the near-zero-overhead default)."""

    enabled = False

    def emit(self, event: Mapping) -> None:
        pass


class MemorySink(Sink):
    """Keep every event in memory, in emission order."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def emit(self, event: Mapping) -> None:
        self.events.append(dict(event))


class JsonlSink(Sink):
    """Append one JSON line per event to a file, flushing each line.

    The file is opened in append mode and every event is flushed as it
    is written, so a crash mid-run loses at most the event being
    serialised — everything already emitted survives on disk.  A
    partial last line left by such a crash is cut off before the first
    new event, so appending never merges an event into it.  Pass
    ``fsync=True`` to additionally fsync each line (durable against
    power loss, at a per-event syscall cost).
    """

    def __init__(self, path: str | os.PathLike, *, fsync: bool = False):
        self.path = os.fspath(path)
        self._fsync = fsync
        _cut_partial_line(self.path)
        self._handle: IO[str] | None = open(
            self.path, "a", encoding="utf-8", newline="\n"
        )

    def emit(self, event: Mapping) -> None:
        handle = self._handle
        if handle is None:
            raise ValueError(f"sink already closed: {self.path}")
        handle.write(json.dumps(dict(event), sort_keys=True) + "\n")
        handle.flush()
        if self._fsync:
            os.fsync(handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def _cut_partial_line(path: str, chunk: int = 1 << 16) -> None:
    """Truncate a file that does not end in a newline just past its last one."""
    if not os.path.isfile(path):
        return
    with open(path, "r+b") as handle:
        end = handle.seek(0, os.SEEK_END)
        stop = end
        while stop > 0:
            start = max(0, stop - chunk)
            handle.seek(start)
            newline = handle.read(stop - start).rfind(b"\n")
            if newline >= 0:
                if start + newline + 1 < end:
                    handle.truncate(start + newline + 1)
                return
            stop = start
        if end:
            handle.truncate(0)


def read_jsonl(path: str | os.PathLike) -> list[dict]:
    """Read a JsonlSink file back into a list of event dicts.

    Tolerates a truncated final line (the crash-safety contract: a run
    killed mid-write leaves at most one partial trailing line).
    """
    events: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                break  # truncated tail from an interrupted run
    return events
