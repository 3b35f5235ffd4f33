"""Tests for the discrete-event core."""

from __future__ import annotations

import pytest

from repro.asyncsim.events import EventQueue
from repro.errors import ConfigurationError, SimulationError


class TestEventQueue:
    def test_chronological_order(self):
        q = EventQueue()
        log = []
        q.schedule(3.0, lambda: log.append("c"))
        q.schedule(1.0, lambda: log.append("a"))
        q.schedule(2.0, lambda: log.append("b"))
        q.run()
        assert log == ["a", "b", "c"]

    def test_tie_break_is_insertion_order(self):
        q = EventQueue()
        log = []
        for name in "abc":
            q.schedule(1.0, lambda n=name: log.append(n))
        q.run()
        assert log == ["a", "b", "c"]

    def test_now_advances(self):
        q = EventQueue()
        seen = []
        q.schedule(2.5, lambda: seen.append(q.now))
        end = q.run()
        assert seen == [2.5]
        assert end == 2.5

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            EventQueue().schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        q = EventQueue()
        q.schedule(5.0, lambda: q.schedule_at(1.0, lambda: None))
        with pytest.raises(ConfigurationError):
            q.run()

    def test_nested_scheduling(self):
        q = EventQueue()
        log = []

        def outer():
            log.append(q.now)
            q.schedule(1.0, lambda: log.append(q.now))

        q.schedule(1.0, outer)
        q.run()
        assert log == [1.0, 2.0]

    def test_until_horizon(self):
        q = EventQueue()
        log = []
        q.schedule(1.0, lambda: log.append(1))
        q.schedule(10.0, lambda: log.append(10))
        end = q.run(until=5.0)
        assert log == [1]
        assert end == 5.0
        assert len(q) == 1  # late event still queued

    def test_stop_predicate(self):
        q = EventQueue()
        log = []
        for k in range(5):
            q.schedule(float(k + 1), lambda k=k: log.append(k))
        q.run(stop=lambda: len(log) >= 2)
        assert len(log) == 2

    def test_cancelled_events_skipped(self):
        q = EventQueue()
        log = []
        token = q.schedule(1.0, lambda: log.append("x"))
        q.cancel(token)
        q.run()
        assert log == []
        assert q.executed == 0

    def test_event_budget(self):
        q = EventQueue()

        def respawn():
            q.schedule(1.0, respawn)

        q.schedule(1.0, respawn)
        with pytest.raises(SimulationError):
            q.run(max_events=100)

    def test_action_argument_passthrough(self):
        q = EventQueue()
        log = []
        q.schedule(1.0, log.append, "arg")
        q.schedule(2.0, lambda: log.append("closure"))
        q.run()
        assert log == ["arg", "closure"]


class TestCancellation:
    def test_cancel_is_idempotent_and_accounting_exact(self):
        q = EventQueue()
        log = []
        keep = q.schedule(1.0, lambda: log.append("keep"))
        drop = q.schedule(2.0, lambda: log.append("drop"))
        q.cancel(drop)
        q.cancel(drop)  # idempotent: dead count must not double
        assert len(q) == 1
        q.run()
        assert log == ["keep"]
        assert q.executed == 1  # tombstones never count as executed
        assert len(q) == 0

    def test_cancel_unknown_token_is_noop(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        q.cancel(999)
        q.cancel(-1)
        assert len(q) == 1
        assert q.run() == 1.0
        assert q.executed == 1

    def test_cancel_after_execution_is_noop(self):
        """A stale token (event already ran) must not skew the accounting."""
        q = EventQueue()
        first = q.schedule(1.0, lambda: None)
        for i in range(3):
            q.schedule(float(i + 2), lambda: None)
        q.run(until=1.5)  # executes only `first`
        q.cancel(first)  # stale: the entry left the heap when it ran
        assert len(q) == 3  # the three live events are all still counted
        end = q.run()
        assert end == 4.0
        assert q.executed == 4
        assert len(q) == 0  # would previously underflow to -1 and raise

    def test_majority_dead_heap_compacts(self):
        """Cancelled events no longer sit in the heap until drain."""
        q = EventQueue()
        live = [q.schedule(float(100 + i), lambda: None) for i in range(10)]
        dead = [q.schedule(float(i + 1), lambda: None) for i in range(11)]
        for token in dead:
            q.cancel(token)
        # More than half the entries were tombstoned -> the heap itself
        # shrank to the live entries; nothing waits for drain to be freed.
        assert len(q._heap) == len(live)
        assert len(q) == len(live)
        q.run()
        assert q.executed == len(live)

    def test_below_threshold_tombstones_drop_unrun(self):
        q = EventQueue()
        log = []
        for i in range(10):
            q.schedule(float(i + 1), lambda i=i: log.append(i))
        victim = q.schedule(0.5, lambda: log.append("victim"))
        q.cancel(victim)  # 1 of 11 dead: stays as a tombstone
        assert len(q._heap) == 11
        assert len(q) == 10
        q.run()
        assert "victim" not in log
        assert q.executed == 10

    def test_determinism_under_cancellation(self):
        """Cancelling events must not perturb the order of the survivors."""

        def run(cancel: bool) -> list[str]:
            q = EventQueue()
            log: list[str] = []
            tokens = {}
            # Interleave same-time events so seq tie-breaks matter.
            for name in "abcdef":
                tokens[name] = q.schedule(1.0, lambda n=name: log.append(n))
            for name in "uvwxyz":
                tokens[name] = q.schedule(2.0, lambda n=name: log.append(n))
            if cancel:
                for name in ("b", "e", "u", "y"):
                    q.cancel(tokens[name])
            q.run()
            return log

        full = run(cancel=False)
        pruned = run(cancel=True)
        assert full == list("abcdef") + list("uvwxyz")
        # Survivors keep exactly their original relative order.
        assert pruned == [n for n in full if n not in ("b", "e", "u", "y")]

    def test_cancellation_respects_until_horizon(self):
        q = EventQueue()
        log = []
        q.schedule(1.0, lambda: log.append("early"))
        late = q.schedule(10.0, lambda: log.append("late"))
        q.cancel(late)
        end = q.run(until=5.0)
        # The cancelled late event is consumed (not pushed back at the
        # horizon), so the queue drains and time rests at the last action.
        assert log == ["early"] and end == 1.0
        assert len(q) == 0

    def test_cancel_mid_run_from_action(self):
        q = EventQueue()
        log = []
        second = q.schedule(2.0, lambda: log.append("second"))
        q.schedule(1.0, lambda: (log.append("first"), q.cancel(second)))
        q.run()
        assert log == ["first"]
        assert q.executed == 1


class TestClockMonotonicity:
    """Regression: ``run(until=past)`` must never rewind the clock."""

    def test_past_horizon_does_not_rewind_clock(self):
        q = EventQueue()
        q.schedule(15.0, lambda: None)
        q.run()
        assert q.now == 15.0
        end = q.run(until=5.0)  # previously set _now = 5.0
        assert end == 15.0
        assert q.now == 15.0

    def test_past_horizon_executes_nothing(self):
        q = EventQueue()
        log = []
        q.schedule(15.0, lambda: log.append("x"))
        q.run()
        q.schedule(1.0, lambda: log.append("y"))  # due at t=16
        q.run(until=3.0)  # horizon clamps to now=15; the t=16 event waits
        assert log == ["x"]
        assert len(q) == 1
        assert q.run() == 16.0
        assert log == ["x", "y"]

    def test_now_never_decreases_across_runs(self):
        q = EventQueue()
        observed = []
        for when in (1.0, 4.0, 9.0):
            q.schedule_at(when, lambda: observed.append(q.now))
        q.run(until=5.0)
        for until in (2.0, 0.0, 5.0):
            before = q.now
            q.run(until=until)
            assert q.now >= before
        q.run()
        assert observed == [1.0, 4.0, 9.0]

    def test_horizon_still_advances_clock_forward(self):
        # The normal case is untouched: stopping at a future horizon
        # moves the clock to exactly the horizon.
        q = EventQueue()
        q.schedule(10.0, lambda: None)
        assert q.run(until=4.0) == 4.0
        assert q.now == 4.0


class TestPerRunEventBudget:
    """Regression: ``max_events`` is a per-``run()`` budget, not cumulative."""

    def test_budget_not_charged_for_earlier_runs(self):
        q = EventQueue()
        for i in range(3):
            q.schedule(float(i + 1), lambda: None)
        q.run()  # 3 events executed
        assert q.executed == 3
        q.schedule(1.0, lambda: None)  # due at t=4: now is 3.0 after the run
        # Previously raised immediately: cumulative executed (3) > 2.
        assert q.run(max_events=2) == 4.0
        assert q.executed == 4

    def test_budget_is_exact_not_off_by_one(self):
        def make_queue(k):
            q = EventQueue()
            for i in range(k):
                q.schedule(float(i + 1), lambda: None)
            return q

        # Exactly max_events pending: drains cleanly.
        q = make_queue(5)
        q.run(max_events=5)
        assert q.executed == 5 and len(q) == 0
        # One more than the budget: raises, and the 6th event is *not*
        # executed (previously a budget of 5 admitted a 6th event).
        q = make_queue(6)
        with pytest.raises(SimulationError):
            q.run(max_events=5)
        assert q.executed == 5
        assert len(q) == 1  # the unexecuted event stays queued

    def test_budget_raise_preserves_remaining_event(self):
        q = EventQueue()
        log = []
        q.schedule(1.0, lambda: log.append("a"))
        q.schedule(2.0, lambda: log.append("b"))
        with pytest.raises(SimulationError):
            q.run(max_events=1)
        assert log == ["a"]
        # The second event survived the raise and runs on the next call.
        q.run(max_events=1)
        assert log == ["a", "b"]

    def test_budget_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            EventQueue().run(max_events=0)


class TestStopSet:
    def test_stops_when_collection_drains(self):
        q = EventQueue()
        waiting = {1, 2}
        log = []
        q.schedule(1.0, lambda: (log.append("a"), waiting.discard(1)))
        q.schedule(2.0, lambda: (log.append("b"), waiting.discard(2)))
        q.schedule(3.0, lambda: log.append("c"))
        q.run(stop_set=waiting)
        assert log == ["a", "b"]  # stop checked between events
        assert len(q) == 1

    def test_empty_stop_set_runs_nothing(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        q.run(stop_set=set())
        assert q.executed == 0 and len(q) == 1


class TestReset:
    def test_reset_restores_fresh_state(self):
        q = EventQueue()
        token = q.schedule(5.0, lambda: None)
        q.schedule(1.0, lambda: None)
        q.cancel(token)
        q.run()
        assert q.now == 1.0 and q.executed == 1
        q.reset()
        assert q.now == 0.0 and q.executed == 0 and len(q) == 0
        # Seq restarts: tokens are allocated exactly like a fresh queue's.
        fresh = EventQueue()
        assert q.schedule(1.0, lambda: None) == fresh.schedule(1.0, lambda: None)

    def test_fanout_matches_individual_schedules(self):
        empty = EventQueue()
        empty.schedule_fanout(lambda _: None, [], [])  # empty fanout is a no-op
        assert len(empty) == 0

        a = EventQueue()
        log_a: list = []
        a.schedule_fanout(log_a.append, [2.0, 1.0, 1.0], ["x", "y", "z"])
        a.schedule(1.5, log_a.append, "w")
        a.run()
        b = EventQueue()
        log_b: list = []
        for delay, arg in ((2.0, "x"), (1.0, "y"), (1.0, "z")):
            b.schedule(delay, log_b.append, arg)
        b.schedule(1.5, log_b.append, "w")
        b.run()
        # Same times, same insertion-order tie-breaks, same interleaving.
        assert log_a == log_b == ["y", "z", "w", "x"]

class TestFanoutBlocks:
    """Same-instant fanout runs collapse to one heap entry, same semantics."""

    def test_constant_delays_form_one_block(self):
        q = EventQueue()
        log: list = []
        q.schedule_fanout(log.append, [1.0] * 5, list("abcde"), grouped=True)
        assert len(q._heap) == 1  # one block entry...
        assert len(q) == 5  # ...but five pending events
        q.run()
        assert log == list("abcde")
        assert q.executed == 5 and len(q) == 0

    def test_blocked_and_unblocked_interleaving_identical(self):
        # Mixed delays: equal-delay runs become blocks, and an unrelated
        # event between two runs of the same time still slots by seq.
        blocked = EventQueue()
        log_blocked: list = []
        blocked.schedule_fanout(
            log_blocked.append, [2.0, 2.0, 1.0, 2.0, 2.0], list("abcde"),
            grouped=True,
        )
        blocked.schedule(2.0, log_blocked.append, "w")
        blocked.run()

        flat = EventQueue()
        log_flat: list = []
        for delay, arg in zip([2.0, 2.0, 1.0, 2.0, 2.0], "abcde"):
            flat.schedule(delay, log_flat.append, arg)
        flat.schedule(2.0, log_flat.append, "w")
        flat.run()
        assert log_blocked == log_flat == ["c", "a", "b", "d", "e", "w"]
        assert blocked.executed == flat.executed == 6

    def test_stop_set_checked_between_block_items(self):
        q = EventQueue()
        waiting = {1}
        log: list = []

        def deliver(tag):
            log.append(tag)
            if tag == "b":
                waiting.discard(1)  # settles mid-block

        q.schedule_fanout(deliver, [1.0] * 4, list("abcd"), grouped=True)
        q.run(stop_set=waiting)
        assert log == ["a", "b"]  # c and d never ran...
        assert q.executed == 2
        assert len(q) == 2  # ...and stay queued, exactly like plain events
        q.run()
        assert log == ["a", "b", "c", "d"]

    def test_budget_raise_mid_block_preserves_the_tail(self):
        q = EventQueue()
        log: list = []
        q.schedule_fanout(log.append, [1.0] * 4, list("abcd"), grouped=True)
        with pytest.raises(SimulationError):
            q.run(max_events=3)
        assert log == ["a", "b", "c"]
        assert q.executed == 3 and len(q) == 1
        q.run()
        assert log == list("abcd")
        assert q.executed == 4 and len(q) == 0

    def test_single_item_tail_requeues_as_plain_entry(self):
        q = EventQueue()
        log: list = []
        action = log.append
        q.schedule_fanout(action, [1.0, 1.0], ["a", "b"], grouped=True)
        with pytest.raises(SimulationError):
            q.run(max_events=1)
        assert log == ["a"] and len(q) == 1
        assert q._heap[0][2] is action  # degenerated to a plain entry
        q.run()
        assert log == ["a", "b"]

    def test_horizon_leaves_whole_block_queued(self):
        q = EventQueue()
        log: list = []
        q.schedule_fanout(log.append, [5.0] * 3, list("abc"), grouped=True)
        assert q.run(until=2.0) == 2.0
        assert log == [] and len(q) == 3
        q.run()
        assert log == list("abc") and q.now == 5.0

    def test_seq_tokens_stay_aligned_after_blocks(self):
        # Cancellable entries scheduled after a fanout must get the same
        # tokens as in the per-entry world (one seq per block item).
        q = EventQueue()
        q.schedule_fanout(lambda _: None, [1.0] * 3, [1, 2, 3], grouped=True)
        token = q.schedule(2.0, lambda: None)
        assert token == 3
        q.cancel(token)
        q.run()
        assert q.executed == 3

    def test_reset_clears_block_accounting(self):
        q = EventQueue()
        q.schedule_fanout(lambda _: None, [1.0] * 4, [1, 2, 3, 4], grouped=True)
        assert len(q) == 4
        q.reset()
        assert len(q) == 0
        q.schedule_fanout(lambda _: None, [1.0] * 2, [1, 2], grouped=True)
        q.run()
        assert q.executed == 2 and len(q) == 0

    def test_broadcast_heap_traffic_shrinks_under_constant_delay(self):
        # The structural claim behind the same-instant kernel: a
        # constant-delay broadcast occupies one wire block + one local
        # self-delivery entry instead of n heap entries.
        from repro.asyncsim.network import AsyncNetwork, ConstantDelay
        from repro.net.accounting import MessageStats
        from repro.util.rng import RandomSource

        delivered: list = []
        q = EventQueue()
        net = AsyncNetwork(
            q, ConstantDelay(1.0), RandomSource(0), delivered.append,
            stats=MessageStats(),
        )
        net.broadcast(2, 8, "EST", 42, 1)
        assert len(q) == 8  # eight deliveries pending...
        assert len(q._heap) == 3  # ...in [pre-self block][self][post-self block]
        q.run()
        # The sender's local copy (zero delay) lands first; the wire
        # fan-out then arrives in destination order at the shared instant.
        assert [e[2] for e in delivered] == [2, 1, 3, 4, 5, 6, 7, 8]

    def test_handler_exception_mid_block_preserves_the_tail(self):
        # A raising handler consumes its own item (exactly like a plain
        # popped entry) but must leave the rest of the block queued.
        q = EventQueue()
        log: list = []

        def deliver(tag):
            if tag == "b":
                raise RuntimeError("boom")
            log.append(tag)

        q.schedule_fanout(deliver, [1.0] * 4, list("abcd"), grouped=True)
        with pytest.raises(RuntimeError):
            q.run()
        assert log == ["a"]
        assert q.executed == 1  # the raising item never counts as executed
        assert len(q) == 2  # c and d survived the raise
        q.run()
        assert log == ["a", "c", "d"]
