"""Event records for the fleet simulator.

An :class:`Event` is one timestamped state change popped off the
:class:`~repro.systems.clock.SimClock` queue: a client's upload arriving
at the server.  The simulator prices each round's cohort as arrays and
schedules events only for async stragglers that carry across a round
boundary, so the upload arrival is the one kind.  Events are immutable and
totally ordered by ``(time, seq)`` — ``seq`` is the monotonically
increasing schedule counter the clock assigns, so simultaneous events
drain in the deterministic order they were scheduled, never in dict or
hash order.  Two simulations of the same inputs therefore produce
byte-identical event traces (the property the determinism tests pin).
"""

from __future__ import annotations

from dataclasses import dataclass

#: A client's upload arrived at the server.
UPLOAD_DONE = "upload-done"

#: Every kind a :class:`SimClock` will schedule.
EVENT_KINDS = (UPLOAD_DONE,)


@dataclass(frozen=True, order=True)
class Event:
    """One timestamped simulator state change.

    Ordering is ``(time, seq)`` — the dataclass field order — so a heap
    of events is stable under ties without ever comparing the payload
    fields.
    """

    time: float
    seq: int
    kind: str
    client_id: int = -1
    round_index: int = -1

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"kind must be one of {EVENT_KINDS}, got {self.kind!r}")
        if self.time < 0.0:
            raise ValueError(f"event time must be >= 0, got {self.time}")
