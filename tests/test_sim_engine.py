"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import HeapOrderError, RandomRouter, SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start_time=5.0)
    assert sim.now == 5.0


def test_call_at_fires_at_time():
    sim = Simulator()
    fired = []
    sim.call_at(1.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.5]
    assert sim.now == 1.5


def test_call_in_relative():
    sim = Simulator(start_time=2.0)
    fired = []
    sim.call_in(0.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [2.5]


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.call_at(3.0, lambda: order.append("c"))
    sim.call_at(1.0, lambda: order.append("a"))
    sim.call_at(2.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo():
    sim = Simulator()
    order = []
    for label in "abcde":
        sim.call_at(1.0, order.append, label)
    sim.run()
    assert order == list("abcde")


def test_callback_args_passed():
    sim = Simulator()
    seen = []
    sim.call_at(1.0, lambda a, b: seen.append((a, b)), 7, "x")
    sim.run()
    assert seen == [(7, "x")]


def test_scheduling_in_past_raises():
    sim = Simulator(start_time=10.0)
    with pytest.raises(SimulationError):
        sim.call_at(9.0, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_in(-1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.call_at(1.0, fired.append, "nope")
    event.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.call_at(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()
    assert sim.events_executed == 0


def test_run_until_horizon_stops_clock():
    sim = Simulator()
    fired = []
    sim.call_at(5.0, fired.append, "late")
    final = sim.run(until=2.0)
    assert final == 2.0
    assert fired == []
    # Continuing past the horizon fires the event.
    sim.run(until=10.0)
    assert fired == ["late"]


def test_event_exactly_at_horizon_fires():
    sim = Simulator()
    fired = []
    sim.call_at(2.0, fired.append, "edge")
    sim.run(until=2.0)
    assert fired == ["edge"]


def test_run_until_with_empty_queue_advances_clock():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append((sim.now, n))
        if n > 0:
            sim.call_in(1.0, chain, n - 1)

    sim.call_at(0.0, chain, 3)
    sim.run()
    assert fired == [(0.0, 3), (1.0, 2), (2.0, 1), (3.0, 0)]


def test_stop_halts_loop():
    sim = Simulator()
    fired = []
    sim.call_at(1.0, lambda: (fired.append("a"), sim.stop()))
    sim.call_at(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a"]
    assert sim.now == 1.0


def test_step_returns_false_on_empty():
    sim = Simulator()
    assert sim.step() is False


def test_step_executes_one_event():
    sim = Simulator()
    fired = []
    sim.call_at(1.0, fired.append, 1)
    sim.call_at(2.0, fired.append, 2)
    assert sim.step() is True
    assert fired == [1]
    assert sim.now == 1.0


def test_peek_skips_cancelled():
    sim = Simulator()
    event = sim.call_at(1.0, lambda: None)
    sim.call_at(2.0, lambda: None)
    event.cancel()
    assert sim.peek() == 2.0


def test_events_executed_counter():
    sim = Simulator()
    for i in range(5):
        sim.call_at(float(i), lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_reentrant_run_raises():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.call_at(1.0, nested)
    sim.run()
    assert len(errors) == 1


# ---------------------------------------------------- sanitizer (REPRO_SANITIZE)

def _stochastic_run(seed):
    """A small run whose event sequence depends on the seed."""
    sim = Simulator()
    rng = RandomRouter(seed).stream("engine-test.jitter")

    def tick(n):
        if n > 0:
            sim.call_in(0.001 + float(rng.random()) * 0.01, tick, n - 1)

    sim.call_at(0.0, tick, 50)
    sim.run()
    return sim


def test_digest_is_none_without_sanitizer(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    sim = _stochastic_run(seed=0)
    assert sim.sanitizing is False
    assert sim.determinism_digest() is None


def test_same_seed_runs_produce_identical_digests(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    a = _stochastic_run(seed=7)
    b = _stochastic_run(seed=7)
    assert a.sanitizing and b.sanitizing
    assert a.determinism_digest() is not None
    assert a.determinism_digest() == b.determinism_digest()


def test_cross_seed_runs_produce_different_digests(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    a = _stochastic_run(seed=7)
    b = _stochastic_run(seed=8)
    assert a.determinism_digest() != b.determinism_digest()


def test_digest_counts_executed_events(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sim = _stochastic_run(seed=1)
    digest = sim.determinism_digest()
    assert digest.endswith(f"#{sim.events_executed}")


def test_scheduling_in_past_still_raises_with_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sim = Simulator(start_time=10.0)
    with pytest.raises(SimulationError):
        sim.call_at(9.0, lambda: None)


def test_mutated_event_time_caught_by_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sim = Simulator()
    sim.call_at(5.0, lambda: None)
    rogue = sim.call_at(10.0, lambda: None)
    # Corrupting a scheduled event's time violates heap order; the
    # sanitizer catches it at pop time instead of silently time-travelling.
    rogue.time = 1.0
    with pytest.raises(HeapOrderError):
        sim.run()


def test_mutated_event_time_later_caught_by_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    for drive in (Simulator.run, Simulator.step):
        sim = Simulator()
        sim.call_at(5.0, lambda: None)
        rogue = sim.call_at(1.0, lambda: None)
        # Moving an event *later* keeps the pop order monotonic, so only
        # the check of Event.time against its heap key can see it.
        rogue.time = 20.0
        with pytest.raises(HeapOrderError):
            drive(sim)


def test_mutated_event_time_unnoticed_without_sanitizer(monkeypatch):
    """Documents the hazard the sanitizer exists for: without it the
    corrupted run completes, each event firing at the time it was
    scheduled for, whatever its ``time`` now reads."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    sim = Simulator()
    order = []
    sim.call_at(5.0, order.append, "a")
    rogue = sim.call_at(10.0, order.append, "b")
    rogue.time = 1.0
    sim.run()
    assert order == ["a", "b"]   # executed despite reading t=1.0 < 5.0


# ------------------------------------------- equivalence with a reference model

class _RefEvent:
    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time, seq, callback):
        self.time, self.seq, self.callback = time, seq, callback
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _ReferenceSimulator:
    """The engine's contract written out plainly: a list kept sorted by
    ``(time, seq)``, cancelled entries dropped only when they reach the
    head, and the depth high-water mark counting them."""

    def __init__(self):
        self.now = 0.0
        self.pending = []
        self.seq = 0
        self.stopped = False
        self.events_executed = 0
        self.peak_queue_depth = 0

    def call_at(self, time, callback):
        if time < self.now - 1e-12:
            raise SimulationError("past")
        event = _RefEvent(max(time, self.now), self.seq, callback)
        self.seq += 1
        self.pending.append(event)
        self.pending.sort(key=lambda e: (e.time, e.seq))
        self.peak_queue_depth = max(self.peak_queue_depth,
                                    len(self.pending))
        return event

    def stop(self):
        self.stopped = True

    def _drop_cancelled_head(self):
        while self.pending and self.pending[0].cancelled:
            self.pending.pop(0)

    def _fire_head(self):
        event = self.pending.pop(0)
        self.now = event.time
        event.callback()
        self.events_executed += 1

    def peek(self):
        self._drop_cancelled_head()
        return self.pending[0].time if self.pending else None

    def step(self):
        self._drop_cancelled_head()
        if not self.pending:
            return False
        self._fire_head()
        return True

    def run(self, until=None):
        self.stopped = False
        while not self.stopped:
            self._drop_cancelled_head()
            if not self.pending:
                break
            if until is not None and self.pending[0].time > until:
                self.now = until
                break
            self._fire_head()
        if until is not None and self.now < until and not self.pending:
            self.now = until
        return self.now


_MAX_EVENTS = 40
_DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 2.0])
_CALLBACK_OP = st.one_of(
    st.tuples(st.just("schedule"), _DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, _MAX_EVENTS)),
    st.tuples(st.just("stop")))
_TOP_OP = st.one_of(
    st.tuples(st.just("schedule"), _DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, _MAX_EVENTS)),
    st.tuples(st.just("peek")),
    st.tuples(st.just("step")),
    st.tuples(st.just("run"),
              st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0, 3.0]))))


def _drive(sim, actions, program):
    """Run ``program`` on ``sim``; the k-th scheduled event performs
    ``actions[k % len(actions)]`` when it fires.  Returns everything
    observable."""
    fired, handles, results = [], [], []

    def schedule(time):
        if len(handles) < _MAX_EVENTS:
            k = len(handles)
            handles.append(sim.call_at(time, lambda: fire(k)))

    def apply(op):
        if op[0] == "schedule":
            schedule(sim.now + op[1])
        elif op[0] == "cancel" and handles:
            handles[op[1] % len(handles)].cancel()
        elif op[0] == "stop":
            sim.stop()

    def fire(k):
        fired.append((k, sim.now, handles[k].cancelled))
        for op in actions[k % len(actions)]:
            apply(op)

    for op in program:
        if op[0] == "peek":
            results.append(sim.peek())
        elif op[0] == "step":
            results.append(sim.step())
        elif op[0] == "run":
            until = None if op[1] is None else sim.now + op[1]
            results.append(sim.run(until=until))
        else:
            apply(op)
    keys = [(handles[k].time, handles[k].seq) for k, _, _ in fired]
    return (fired, keys, results, sim.now, sim.events_executed,
            sim.peak_queue_depth)


@settings(max_examples=300, deadline=None)
@given(actions=st.lists(st.lists(_CALLBACK_OP, max_size=3),
                        min_size=1, max_size=8),
       program=st.lists(_TOP_OP, min_size=1, max_size=30))
def test_engine_matches_sorted_list_reference(actions, program):
    got = _drive(Simulator(), actions, program)
    want = _drive(_ReferenceSimulator(), actions, program)
    fired, keys, _, _, executed, _ = got
    # Execution follows (time, seq) order, never fires a cancelled event
    # and never runs the clock backwards.
    assert keys == sorted(keys)
    assert not any(cancelled for _, _, cancelled in fired)
    assert executed == len(fired)
    # Same order, return values, final clock, executed count and peak
    # depth (cancelled-but-unpopped entries included) as the reference.
    assert got == want
