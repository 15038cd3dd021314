"""Unit tests for the discrete-event engine and barrier."""

import pytest

from repro.engine.events import Barrier, EventQueue


class TestEventQueue:
    def test_runs_in_time_order(self):
        q = EventQueue()
        order = []
        q.schedule(10, lambda: order.append("b"))
        q.schedule(5, lambda: order.append("a"))
        q.schedule(20, lambda: order.append("c"))
        q.run()
        assert order == ["a", "b", "c"]
        assert q.now == 20

    def test_fifo_within_same_cycle(self):
        q = EventQueue()
        order = []
        for i in range(5):
            q.schedule(7, lambda i=i: order.append(i))
        q.run()
        assert order == [0, 1, 2, 3, 4]

    def test_after_is_relative(self):
        q = EventQueue()
        seen = []
        q.schedule(10, lambda: q.after(5, lambda: seen.append(q.now)))
        q.run()
        assert seen == [15]

    def test_rejects_past(self):
        q = EventQueue()
        q.schedule(10, lambda: None)
        q.run()
        with pytest.raises(ValueError):
            q.schedule(5, lambda: None)

    def test_rejects_negative_delay(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.after(-1, lambda: None)

    def test_event_budget_raises(self):
        q = EventQueue()

        def recur():
            q.after(1, recur)

        q.schedule(0, recur)
        with pytest.raises(RuntimeError, match="livelock"):
            q.run(max_events=100)

    def test_events_scheduled_during_run(self):
        q = EventQueue()
        log = []

        def first():
            log.append(("first", q.now))
            q.schedule(q.now + 3, lambda: log.append(("second", q.now)))

        q.schedule(2, first)
        q.run()
        assert log == [("first", 2), ("second", 5)]

    def test_counters(self):
        q = EventQueue()
        q.schedule(0, lambda: None)
        q.schedule(1, lambda: None)
        assert q.pending == 2
        q.run()
        assert q.pending == 0
        assert q.events_run == 2

    def test_exception_consumes_only_the_raising_event(self):
        # A raising callback counts as consumed; the unfired same-cycle
        # events survive, and a later run() drains them normally.
        q = EventQueue()
        log = []

        def boom():
            log.append("boom")
            raise RuntimeError("handler bug")

        for i in range(2):
            q.schedule_call(5, log.append, f"pre{i}")
        q.schedule_call(5, boom)
        for i in range(2):
            q.schedule_call(5, log.append, f"post{i}")
        q.schedule_call(9, log.append, "later")
        with pytest.raises(RuntimeError, match="handler bug"):
            q.run()
        assert log == ["pre0", "pre1", "boom"]
        assert q.pending == 3
        assert q.events_run == 3
        assert q.run() == 9
        assert log == ["pre0", "pre1", "boom", "post0", "post1", "later"]
        assert q.pending == 0
        assert q.events_run == 6

    def test_budget_exhausted_mid_cycle_keeps_the_remainder(self):
        # The budget stops the drain exactly at max_events, even inside
        # one cycle's batch; the rest of that cycle fires, in order, on
        # the next run.
        q = EventQueue()
        log = []
        for i in range(6):
            q.schedule_call(2, log.append, i)
        with pytest.raises(RuntimeError, match="livelock"):
            q.run(max_events=4)
        assert log == [0, 1, 2, 3]
        assert q.events_run == 4
        assert q.pending == 2
        q.run()
        assert log == [0, 1, 2, 3, 4, 5]
        assert q.events_run == 6

    def test_pending_is_exact_inside_a_callback(self):
        # The phase sampler re-arms off ``pending``: read from inside a
        # callback it must count exactly the events still waiting, the
        # running one excluded, even mid-cycle.
        q = EventQueue()
        observed = []

        def tick():
            observed.append(q.pending)

        q.schedule_call(4, tick)
        q.schedule_call(4, tick)
        q.schedule_call(7, tick)
        q.run()
        assert observed == [2, 1, 0]


class TestScheduleCall:
    """The allocation-light fast path: bound method + args, no lambda."""

    def test_args_passed_through(self):
        q = EventQueue()
        seen = []
        q.schedule_call(3, lambda a, b: seen.append((a, b, q.now)), 1, 2)
        q.run()
        assert seen == [(1, 2, 3)]

    def test_interleaved_with_legacy_schedule_keeps_seq_order(self):
        # Both entry points share one seq counter, so same-cycle events
        # fire in overall scheduling order regardless of which API was
        # used — the determinism contract of the engine rework.
        q = EventQueue()
        order = []
        q.schedule(5, lambda: order.append("legacy0"))
        q.schedule_call(5, order.append, "fast1")
        q.schedule(5, lambda: order.append("legacy2"))
        q.schedule_call(5, order.append, "fast3")
        q.run()
        assert order == ["legacy0", "fast1", "legacy2", "fast3"]

    def test_same_cycle_fifo(self):
        q = EventQueue()
        order = []
        for i in range(8):
            q.schedule_call(2, order.append, i)
        q.run()
        assert order == list(range(8))

    def test_events_scheduled_during_same_cycle_drain(self):
        # The same-cycle batch drain must still honour events that a
        # callback schedules for the *current* cycle.
        q = EventQueue()
        order = []

        def first():
            order.append("first")
            q.schedule_call(q.now, order.append, "nested-same-cycle")

        q.schedule_call(4, first)
        q.schedule_call(4, order.append, "second")
        q.run()
        assert order == ["first", "second", "nested-same-cycle"]

    def test_rejects_past(self):
        q = EventQueue()
        q.schedule_call(4, lambda: None)
        q.run()
        with pytest.raises(ValueError):
            q.schedule_call(1, lambda: None)

    def test_budget_exhaustion(self):
        q = EventQueue()

        def recur(t):
            q.schedule_call(t + 1, recur, t + 1)

        q.schedule_call(0, recur, 0)
        with pytest.raises(RuntimeError, match="livelock"):
            q.run(max_events=50)
        assert q.events_run == 50

    def test_budget_spans_multiple_runs(self):
        # max_events bounds the *total* events executed on the queue,
        # exactly as before the engine rework.
        q = EventQueue()
        q.schedule_call(0, lambda: None)
        q.run(max_events=10)
        assert q.events_run == 1
        for i in range(12):
            q.schedule_call(q.now + 1 + i, lambda: None)
        with pytest.raises(RuntimeError, match="livelock"):
            q.run(max_events=10)
        assert q.events_run == 10

    def test_unbounded_run_has_no_budget(self):
        q = EventQueue()
        hits = []
        for i in range(100):
            q.schedule_call(i, hits.append, i)
        q.run()   # max_events=None: the unbounded path
        assert len(hits) == 100
        assert q.events_run == 100


class TestBarrier:
    def test_releases_all_at_same_time(self):
        q = EventQueue()
        b = Barrier(q, participants=3, release_cost=10)
        released = []
        q.schedule(0, lambda: b.arrive(0, lambda t: released.append((0, t))))
        q.schedule(5, lambda: b.arrive(1, lambda t: released.append((1, t))))
        q.schedule(9, lambda: b.arrive(2, lambda t: released.append((2, t))))
        q.run()
        assert len(released) == 3
        times = {t for _c, t in released}
        assert times == {19}   # last arrival (9) + release cost (10)

    def test_waits_for_all(self):
        q = EventQueue()
        b = Barrier(q, participants=2)
        released = []
        q.schedule(0, lambda: b.arrive(0, lambda t: released.append(0)))
        q.run()
        assert released == []
        assert b.waiting_count == 1

    def test_multiple_rounds(self):
        q = EventQueue()
        b = Barrier(q, participants=2, release_cost=1)
        log = []

        def round_two(core):
            def resume(t):
                log.append((core, "r2", t))
            return resume

        def round_one(core):
            def resume(t):
                log.append((core, "r1", t))
                b.arrive(core, round_two(core))
            return resume

        q.schedule(0, lambda: b.arrive(0, round_one(0)))
        q.schedule(0, lambda: b.arrive(1, round_one(1)))
        q.run()
        assert b.barriers_passed == 2
        assert [entry[1] for entry in log].count("r1") == 2
        assert [entry[1] for entry in log].count("r2") == 2

    def test_release_hooks_run_once_per_barrier(self):
        q = EventQueue()
        b = Barrier(q, participants=2, release_cost=1)
        hook_calls = []
        b.on_release(lambda: hook_calls.append(q.now))
        q.schedule(0, lambda: b.arrive(0, lambda t: None))
        q.schedule(4, lambda: b.arrive(1, lambda t: None))
        q.run()
        assert hook_calls == [5]

    def test_rejects_zero_participants(self):
        with pytest.raises(ValueError):
            Barrier(EventQueue(), participants=0)
