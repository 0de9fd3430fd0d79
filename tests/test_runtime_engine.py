"""Tests for the discrete-event engine primitives.

Every ordering, queue and core-scheduler test runs against both the
shipped engine (:mod:`repro.runtime.engine`) and the reference oracle
(:mod:`tests.reference_engine`): the event loop through the ``engines``
parametrization, the queue and scheduler through a ``*Reference``
subclass of each test class. Generator processes drive either engine's
resources through the oracle's :func:`~tests.reference_engine.spawn`.
"""

import pytest

from repro.host.disk import DiskSpec, token_bucket
from repro.runtime import engine as shipped
from repro.runtime.engine import EOS, FairShareDisk, Simulation, SimulationError
from tests import reference_engine as oracle
from tests.reference_engine import Compute, Get, Put, Read, Timeout, spawn

#: Both engines must honor the same event-ordering contract. (The
#: shipped engine wakes zero-delay callbacks with exactly one positional
#: argument — ``None`` when scheduled with no args — so shared callbacks
#: take ``_=None``.)
ENGINES = [oracle, shipped]
ENGINE_IDS = ["reference", "vectorized"]

engines = pytest.mark.parametrize("eng", ENGINES, ids=ENGINE_IDS)


class TestEventLoop:
    def test_timeouts_advance_clock(self):
        sim = oracle.Simulation()
        log = []

        def proc():
            yield Timeout(1.0)
            log.append(sim.now)
            yield Timeout(2.0)
            log.append(sim.now)

        spawn(sim, proc())
        sim.run(10.0)
        assert log == [1.0, 3.0]

    def test_run_stops_at_until(self):
        sim = oracle.Simulation()

        def proc():
            while True:
                yield Timeout(1.0)

        spawn(sim, proc())
        assert sim.run(5.5) == 5.5
        assert sim.now == 5.5

    def test_run_returns_early_when_drained(self):
        sim = oracle.Simulation()

        def proc():
            yield Timeout(2.0)

        spawn(sim, proc())
        assert sim.run(100.0) == 2.0

    @engines
    def test_deterministic_ordering_at_same_time(self, eng):
        sim = eng.Simulation()
        log = []
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(1.0, lambda: log.append("b"))
        sim.run(2.0)
        assert log == ["a", "b"]

    @engines
    def test_negative_delay_rejected(self, eng):
        with pytest.raises(SimulationError):
            eng.Simulation().schedule(-1.0, lambda: None)

    @engines
    def test_zero_delay_bypasses_heap(self, eng):
        """Batched resume scheduling: same-timestamp events live in the
        ready deque, not the heap (the hot-path optimization)."""
        sim = eng.Simulation()
        sim.schedule(0.0, lambda _=None: None)
        assert not sim._heap
        assert len(sim._ready) == 1
        sim.schedule(0.5, lambda: None)
        assert len(sim._heap) == 1

    @engines
    def test_same_timestamp_resumes_drain_in_insertion_order(self, eng):
        sim = eng.Simulation()
        log = []
        for tag in ("a", "b", "c"):
            sim.schedule(0.0, log.append, tag)
        sim.run(1.0)
        assert log == ["a", "b", "c"]

    @engines
    def test_timed_events_precede_resumes_born_at_their_timestamp(
            self, eng):
        """Determinism contract: a heap entry due at time t was scheduled
        before the clock reached t, so it must run before any zero-delay
        event created *at* t — exactly the insertion-sequence order the
        pure-heap loop had."""
        sim = eng.Simulation()
        log = []

        def first_at_t():
            log.append("timed1")
            sim.schedule(0.0, log.append, "ready")

        sim.schedule(1.0, first_at_t)
        sim.schedule(1.0, log.append, "timed2")
        sim.run(2.0)
        assert log == ["timed1", "timed2", "ready"]

    @engines
    def test_ready_chain_drains_before_clock_advances(self, eng):
        sim = eng.Simulation()
        log = []

        def chain(depth):
            log.append((sim.now, depth))
            if depth > 0:
                sim.schedule(0.0, chain, depth - 1)

        sim.schedule(0.0, chain, 3)
        sim.schedule(1.0, log.append, "later")
        sim.run(2.0)
        assert log == [(0.0, 3), (0.0, 2), (0.0, 1), (0.0, 0), "later"]

    @engines
    def test_ready_drains_even_when_heap_is_empty(self, eng):
        sim = eng.Simulation()
        log = []
        sim.schedule(0.0, log.append, "only")
        sim.run(10.0)
        assert log == ["only"]
        assert sim.now == 0.0

    @engines
    def test_collapsed_timers_run_before_the_next_ready_entry(self, eng):
        """A positive delay below one ulp of the clock (1e-18 s at t=100)
        is due at once: it runs after the callback that pushed it and
        before the next ready entry, in push order with any other
        collapsed timer, including ones pushed by a collapsed timer."""
        sim = eng.Simulation()
        log = []

        def pusher(_=None):
            sim.schedule(1e-18, log.append, "timer1")
            sim.schedule(0.0, log.append, "ready3")
            sim.schedule(1e-18, chained)

        def chained():
            log.append("timer2")
            sim.schedule(1e-18, log.append, "timer3")

        def at_100():
            assert sim.now + 1e-18 == sim.now
            sim.schedule(0.0, log.append, "ready1")
            sim.schedule(0.0, pusher)
            sim.schedule(0.0, log.append, "ready2")

        sim.schedule(100.0, at_100)
        sim.run(200.0)
        assert log == ["ready1", "timer1", "timer2", "timer3", "ready2",
                       "ready3"]
        assert sim.now == 100.0

    @engines
    def test_collapsed_timer_runs_between_handoff_wakes(self, eng):
        """A queue handoff wakes two continuations back to back; a
        collapsed timer pushed by the first runs before the second."""
        sim = eng.Simulation()
        q = eng.SimQueue(sim, capacity=1)
        log = []

        def woken(tag):
            def resume(value):
                log.append((tag, value))
                sim.schedule(1e-18, log.append, f"{tag}-timer")
            return resume

        def at_100():
            q._get(woken("getter"))       # parks: queue empty
            q._put(woken("putter"), "x")  # hands "x" to the getter
            q._put(woken("p2"), "y")      # fits
            q._put(woken("p3"), "z")      # parks: queue full
            q._get(woken("g2"))           # takes "y", admits "z"

        sim.schedule(100.0, at_100)
        sim.run(200.0)
        assert log == [
            ("getter", "x"), "getter-timer", ("putter", None), "putter-timer",
            ("p2", None), "p2-timer",
            ("p3", None), "p3-timer", ("g2", "y"), "g2-timer",
        ]

    def test_unknown_request_rejected(self):
        sim = oracle.Simulation()

        def proc():
            yield "nonsense"

        spawn(sim, proc())
        with pytest.raises(SimulationError, match="unknown request"):
            sim.run(1.0)


class TestSimQueue:
    eng = shipped

    def _sim(self):
        return self.eng.Simulation()

    def test_fifo_order(self):
        sim = self._sim()
        q = self.eng.SimQueue(sim, capacity=10)
        received = []

        def producer():
            for i in range(5):
                yield Put(q, i)

        def consumer():
            for _ in range(5):
                item = yield Get(q)
                received.append(item)

        spawn(sim, producer())
        spawn(sim, consumer())
        sim.run(1.0)
        assert received == [0, 1, 2, 3, 4]

    def test_capacity_blocks_producer(self):
        sim = self._sim()
        q = self.eng.SimQueue(sim, capacity=2)
        produced = []

        def producer():
            for i in range(5):
                yield Put(q, i)
                produced.append(sim.now)

        spawn(sim, producer())
        sim.run(1.0)
        # Only 2 items fit; the third put blocks forever (no consumer).
        assert len(produced) == 2

    def test_get_blocks_until_put(self):
        sim = self._sim()
        q = self.eng.SimQueue(sim, capacity=2)
        got = []

        def consumer():
            item = yield Get(q)
            got.append((sim.now, item))

        def producer():
            yield Timeout(3.0)
            yield Put(q, "late")

        spawn(sim, consumer())
        spawn(sim, producer())
        sim.run(10.0)
        assert got == [(3.0, "late")]

    def test_close_wakes_getters_with_eos(self):
        sim = self._sim()
        q = self.eng.SimQueue(sim, capacity=2)
        got = []

        def consumer():
            item = yield Get(q)
            got.append(item)

        spawn(sim, consumer())
        sim.schedule(1.0, q.close)
        sim.run(5.0)
        assert got == [EOS]

    def test_closed_queue_drains_items_first(self):
        sim = self._sim()
        q = self.eng.SimQueue(sim, capacity=5)
        got = []

        def producer():
            yield Put(q, 1)
            yield Put(q, 2)
            q.close()

        def consumer():
            while True:
                item = yield Get(q)
                got.append(item)
                if item is EOS:
                    return

        spawn(sim, producer())
        spawn(sim, consumer())
        sim.run(1.0)
        assert got == [1, 2, EOS]

    def test_put_after_close_rejected(self):
        sim = self._sim()
        q = self.eng.SimQueue(sim, capacity=1)
        q.close()

        def producer():
            yield Put(q, 1)

        spawn(sim, producer())
        with pytest.raises(SimulationError, match="closed"):
            sim.run(1.0)

    def test_handoff_wake_order(self):
        """A put into a queue with a parked getter wakes the getter, then
        the putter; a get from a full queue with a parked putter wakes the
        putter, then the getter (with the oldest item)."""
        sim = self._sim()
        q = self.eng.SimQueue(sim, capacity=1)
        log = []

        def woken(tag):
            return lambda value=None: log.append((tag, value))

        q._get(woken("getter"))
        q._put(woken("putter"), "x")
        sim.run(1.0)
        assert log == [("getter", "x"), ("putter", None)]
        del log[:]
        q._put(woken("p1"), "a")
        q._put(woken("p2"), "b")  # parks
        q._get(woken("g"))
        sim.run(1.0)
        assert log == [("p1", None), ("p2", None), ("g", "a")]
        assert list(q.items) == ["b"]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            self.eng.SimQueue(self._sim(), capacity=0)

    def test_mean_occupancy_tracks(self):
        sim = self._sim()
        q = self.eng.SimQueue(sim, capacity=10)

        def producer():
            yield Put(q, 1)
            yield Timeout(10.0)

        spawn(sim, producer())
        sim.run(10.0)
        assert q.mean_occupancy() == pytest.approx(1.0, rel=0.05)

    def test_mean_occupancy_of_queue_created_mid_run(self):
        """Regression: the occupancy integral is divided by time since the
        queue was *created*, not the absolute clock — a queue born at t=90
        holding one item for 10s has mean occupancy 1, not 0.1."""
        sim = self._sim()
        sim.schedule(90.0, lambda: None)
        sim.run(95.0)  # advance the clock before the queue exists
        q = self.eng.SimQueue(sim, capacity=10)

        def producer():
            yield Put(q, 1)
            yield Timeout(10.0)

        spawn(sim, producer())
        sim.run(200.0)
        assert q.mean_occupancy() == pytest.approx(1.0, rel=0.05)

    def test_close_wakes_blocked_putter_with_eos(self):
        """Regression: a producer parked in ``_putters`` at close() used to
        be leaked forever; it must resume and observe EOS."""
        sim = self._sim()
        q = self.eng.SimQueue(sim, capacity=1)
        observed = []

        def producer():
            result = yield Put(q, "fits")
            observed.append(result)
            result = yield Put(q, "blocks")  # queue full -> parked
            observed.append(result)

        spawn(sim, producer())
        sim.schedule(1.0, q.close)
        sim.run(5.0)
        assert observed == [None, EOS]
        # The pending item was discarded, not enqueued after close.
        assert list(q.items) == ["fits"]

    def test_put_telemetry_counters(self):
        sim = self._sim()
        q = self.eng.SimQueue(sim, capacity=10)

        def producer():
            for i in range(4):
                yield Put(q, i)

        def consumer():
            yield Timeout(1.0)
            for _ in range(2):
                yield Get(q)

        spawn(sim, producer())
        spawn(sim, consumer())
        sim.run(5.0)
        assert q.total_puts == 4
        assert q.total_gets == 2
        assert q.peak_occupancy == 4


class TestSimQueueReference(TestSimQueue):
    eng = oracle


class TestCoreScheduler:
    eng = shipped

    def test_serial_on_one_core(self):
        sim = self.eng.Simulation()
        sim.cores = self.eng.CoreScheduler(sim, capacity=1)
        done = []

        def worker(tag):
            yield Compute(1.0)
            done.append((tag, sim.now))

        spawn(sim, worker("a"))
        spawn(sim, worker("b"))
        sim.run(10.0)
        assert done == [("a", 1.0), ("b", 2.0)]

    def test_parallel_on_two_cores(self):
        sim = self.eng.Simulation()
        sim.cores = self.eng.CoreScheduler(sim, capacity=2)
        done = []

        def worker(tag):
            yield Compute(1.0)
            done.append((tag, sim.now))

        spawn(sim, worker("a"))
        spawn(sim, worker("b"))
        sim.run(10.0)
        assert [t for _, t in done] == [1.0, 1.0]

    def test_wide_request_waits_for_width(self):
        sim = self.eng.Simulation()
        sim.cores = self.eng.CoreScheduler(sim, capacity=2)
        done = []

        def narrow():
            yield Compute(1.0, width=1.0)
            done.append(("narrow", sim.now))

        def wide():
            yield Compute(1.0, width=2.0)
            done.append(("wide", sim.now))

        spawn(sim, narrow())
        spawn(sim, wide())
        sim.run(10.0)
        # Wide must wait for the narrow job to release its core.
        assert dict(done)["wide"] == pytest.approx(2.0)

    def test_oversubscription_penalty_inflates(self):
        sim = self.eng.Simulation()
        sim.cores = self.eng.CoreScheduler(
            sim, capacity=2, oversubscription_penalty=0.1, total_threads=6.0
        )
        # threads/capacity = 3 -> penalty = 1 + 0.1 * 2 = 1.2
        assert sim.cores.penalty == pytest.approx(1.2)
        done = []

        def worker():
            yield Compute(1.0)
            done.append(sim.now)

        spawn(sim, worker())
        sim.run(10.0)
        assert done == [pytest.approx(1.2)]

    def test_no_penalty_when_undersubscribed(self):
        sim = self.eng.Simulation()
        sim.cores = self.eng.CoreScheduler(
            sim, capacity=8, oversubscription_penalty=0.1, total_threads=4.0
        )
        assert sim.cores.penalty == 1.0

    def test_utilization(self):
        sim = self.eng.Simulation()
        sim.cores = self.eng.CoreScheduler(sim, capacity=2)

        def worker():
            yield Compute(5.0)

        spawn(sim, worker())
        sim.run(10.0)
        # 5 core-seconds on 2 cores over 10 seconds = 25%.
        assert sim.cores.utilization(10.0) == pytest.approx(0.25)

    def test_zero_compute_is_instant(self):
        sim = self.eng.Simulation()
        sim.cores = self.eng.CoreScheduler(sim, capacity=1)
        done = []

        def worker():
            yield Compute(0.0)
            done.append(sim.now)

        spawn(sim, worker())
        sim.run(1.0)
        assert done == [0.0]


class TestCoreSchedulerReference(TestCoreScheduler):
    eng = oracle


class TestTelemetryWindowConsistency:
    """Regression tests for the ``mean_occupancy``/``utilization``
    normalization fix: both divide their time integral by elapsed time
    since *creation*, and both fold the partial window up to the current
    clock into the integral first — so a ``run(until=)`` that stops
    mid-window reports the same telemetry as one stopping on an event
    boundary at the same instant."""

    eng = shipped

    def test_utilization_defaults_to_elapsed_since_creation(self):
        sim = self.eng.Simulation()
        sim.cores = self.eng.CoreScheduler(sim, capacity=2)

        def worker():
            yield Compute(5.0)

        spawn(sim, worker())
        # The event supply drains at t=5, so run() returns early and
        # elapsed-since-creation is 5s: one core of two busy the whole
        # elapsed window = 50%.
        assert sim.run(10.0) == 5.0
        assert sim.cores.utilization() == pytest.approx(0.5)
        # Default == explicit duration of the elapsed window.
        assert sim.cores.utilization() == pytest.approx(
            sim.cores.utilization(sim.now)
        )
        # A caller-chosen wider window still normalizes against it.
        assert sim.cores.utilization(10.0) == pytest.approx(0.25)

    def test_utilization_mid_window_stop_counts_busy_tail(self):
        """Stopping at t=4 inside a 5-core-second compute must count the
        4 busy seconds already elapsed — not 0 (the pre-fix behavior of
        an integral that only folded on event boundaries) and not the
        full 5."""
        sim = self.eng.Simulation()
        sim.cores = self.eng.CoreScheduler(sim, capacity=1)

        def worker():
            yield Compute(5.0)

        spawn(sim, worker())
        assert sim.run(4.0) == 4.0  # mid-window: no event at t=4
        assert sim.cores.utilization() == pytest.approx(1.0)
        assert sim.cores.utilization(4.0) == pytest.approx(1.0)

    def test_utilization_of_scheduler_created_mid_run(self):
        """Same convention as SimQueue.mean_occupancy: a scheduler born
        at t=90 that is busy for its whole 10s life is 100% utilized,
        not 10%."""
        sim = self.eng.Simulation()
        sim.schedule(90.0, lambda: None)
        sim.run(95.0)
        sim.cores = self.eng.CoreScheduler(sim, capacity=1)

        def worker():
            yield Compute(10.0)

        spawn(sim, worker())
        sim.run(200.0)
        assert sim.cores.utilization() == pytest.approx(1.0)

    def test_mean_occupancy_mid_window_stop_counts_tail(self):
        """One item parked in the queue from t=0; stopping mid-window at
        t=7 (no event there) must still integrate the full 7 seconds of
        occupancy, matching a stop on the t=10 event boundary."""
        sim = self.eng.Simulation()
        q = self.eng.SimQueue(sim, capacity=4)

        def producer():
            yield Put(q, 1)
            yield Timeout(10.0)

        spawn(sim, producer())
        assert sim.run(7.0) == 7.0
        assert q.mean_occupancy() == pytest.approx(1.0)

    def test_queue_and_cores_agree_on_the_window(self):
        """The two surfaces use one convention: with an item resident and
        a core busy over the same span, both report 1.0 regardless of
        where ``until`` lands."""
        for until in (3.0, 4.5, 6.0):
            sim = self.eng.Simulation()
            sim.cores = self.eng.CoreScheduler(sim, capacity=1)
            q = self.eng.SimQueue(sim, capacity=4)

            def producer():
                yield Put(q, 1)
                yield Compute(6.0)

            spawn(sim, producer())
            sim.run(until)
            assert q.mean_occupancy() == pytest.approx(1.0), until
            assert sim.cores.utilization() == pytest.approx(1.0), until


class TestTelemetryWindowConsistencyReference(TestTelemetryWindowConsistency):
    eng = oracle


class TestFairShareDisk:
    def test_single_read_duration(self):
        sim = Simulation()
        sim.disk = FairShareDisk(sim, token_bucket(100.0))
        done = []

        def reader():
            yield Read(200.0)
            done.append(sim.now)

        spawn(sim, reader())
        sim.run(10.0)
        assert done == [pytest.approx(2.0)]

    def test_fair_sharing_halves_rate(self):
        sim = Simulation()
        sim.disk = FairShareDisk(sim, token_bucket(100.0))
        done = []

        def reader(tag):
            yield Read(100.0)
            done.append((tag, sim.now))

        spawn(sim, reader("a"))
        spawn(sim, reader("b"))
        sim.run(10.0)
        # Two concurrent 100-byte reads at 100 B/s total -> both at t=2.
        assert [t for _, t in done] == [pytest.approx(2.0), pytest.approx(2.0)]

    def test_parallelism_curve_scales_bandwidth(self):
        spec = DiskSpec("d", curve=((1.0, 100.0), (2.0, 200.0)))
        sim = Simulation()
        sim.disk = FairShareDisk(sim, spec)
        done = []

        def reader(tag):
            yield Read(100.0)
            done.append(sim.now)

        spawn(sim, reader("a"))
        spawn(sim, reader("b"))
        sim.run(10.0)
        # Two streams unlock 200 B/s aggregate -> 100 B/s each -> t=1.
        assert done == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_read_latency_added(self):
        spec = DiskSpec("d", curve=((1.0, 100.0),), read_latency=0.5)
        sim = Simulation()
        sim.disk = FairShareDisk(sim, spec)
        done = []

        def reader():
            yield Read(100.0)
            done.append(sim.now)

        spawn(sim, reader())
        sim.run(10.0)
        assert done == [pytest.approx(1.5)]

    def test_total_bytes_tracked(self):
        sim = Simulation()
        sim.disk = FairShareDisk(sim, token_bucket(1e6))

        def reader():
            yield Read(123.0)
            yield Read(877.0)

        spawn(sim, reader())
        sim.run(10.0)
        assert sim.disk.total_bytes == pytest.approx(1000.0)

    def test_zero_read_is_instant(self):
        sim = Simulation()
        sim.disk = FairShareDisk(sim, token_bucket(1.0))
        done = []

        def reader():
            yield Read(0.0)
            done.append(sim.now)

        spawn(sim, reader())
        sim.run(1.0)
        assert done == [0.0]

    def test_many_tiny_reads_terminate(self):
        """Regression: float underflow must not livelock completions."""
        sim = Simulation()
        sim.disk = FairShareDisk(sim, token_bucket(1e9))
        count = [0]

        def reader():
            for _ in range(200):
                yield Read(0.1)
            count[0] += 1

        for _ in range(3):
            spawn(sim, reader())
        sim.run(10.0)
        assert count[0] == 3
