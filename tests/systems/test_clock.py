"""SimClock: ordering, stable tie-breaking, tracing, determinism."""

import pytest

from repro.systems import EVENT_KINDS, UPLOAD_DONE, Event, SimClock


class TestEvent:
    def test_orders_by_time_then_seq(self):
        early = Event(time=1.0, seq=5, kind=UPLOAD_DONE)
        late = Event(time=2.0, seq=0, kind=UPLOAD_DONE)
        tie_a = Event(time=2.0, seq=1, kind=UPLOAD_DONE)
        assert early < late < tie_a

    def test_rejects_unknown_kind_and_negative_time(self):
        assert EVENT_KINDS == (UPLOAD_DONE,)
        with pytest.raises(ValueError):
            Event(time=0.0, seq=0, kind="teleport")
        with pytest.raises(ValueError):
            Event(time=0.0, seq=0, kind="download-done")  # never scheduled
        with pytest.raises(ValueError):
            Event(time=-1.0, seq=0, kind=UPLOAD_DONE)


class TestSimClock:
    def test_pop_advances_now_in_time_order(self):
        clock = SimClock()
        clock.schedule(2.0, UPLOAD_DONE, client_id=1)
        clock.schedule(1.0, UPLOAD_DONE, client_id=2)
        first = clock.pop()
        assert (first.client_id, clock.now) == (2, 1.0)
        second = clock.pop()
        assert (second.client_id, clock.now) == (1, 2.0)

    def test_simultaneous_events_drain_in_schedule_order(self):
        clock = SimClock()
        for client_id in (3, 1, 2):  # deliberately not sorted by id
            clock.schedule(1.0, UPLOAD_DONE, client_id=client_id)
        drained = [clock.pop().client_id for _ in range(3)]
        assert drained == [3, 1, 2]

    def test_pop_until_drains_inclusive_and_advances(self):
        clock = SimClock()
        clock.schedule(1.0, UPLOAD_DONE, client_id=1)
        clock.schedule(2.0, UPLOAD_DONE, client_id=2)
        clock.schedule(3.0, UPLOAD_DONE, client_id=3)
        drained = clock.pop_until(2.0)
        assert [event.client_id for event in drained] == [1, 2]
        assert clock.now == 2.0
        assert len(clock) == 1  # the last upload stays queued

    def test_trace_records_every_pop(self):
        clock = SimClock()
        clock.schedule(1.0, UPLOAD_DONE, client_id=7)
        clock.pop_until(5.0)
        assert [event.client_id for event in clock.trace] == [7]

    def test_cannot_schedule_into_the_past(self):
        clock = SimClock()
        clock.schedule(1.0, UPLOAD_DONE)
        clock.pop()
        with pytest.raises(ValueError):
            clock.schedule_at(0.5, UPLOAD_DONE)

    def test_discard_removes_only_that_client(self):
        clock = SimClock()
        clock.schedule(1.0, UPLOAD_DONE, client_id=1)
        clock.schedule(2.0, UPLOAD_DONE, client_id=2)
        clock.schedule(3.0, UPLOAD_DONE, client_id=1)
        assert clock.discard(1) == 2
        assert [event.client_id for event in clock.pop_until(10.0)] == [2]

    def test_same_seed_same_rng_stream(self):
        a, b = SimClock(seed=42), SimClock(seed=42)
        assert list(a.rng.random(4)) == list(b.rng.random(4))

    def test_identical_schedules_produce_identical_traces(self):
        def drive(clock):
            clock.schedule(1.0, UPLOAD_DONE, client_id=0, round_index=1)
            clock.schedule(1.0, UPLOAD_DONE, client_id=1, round_index=1)
            clock.schedule(2.5, UPLOAD_DONE, client_id=0, round_index=1)
            clock.pop_until(3.0)
            return list(clock.trace)

        assert drive(SimClock(seed=0)) == drive(SimClock(seed=0))
