"""Unit tests for the data queue and its buffer-management policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mac.frames import DataMessage
from repro.mac.queueing import (
    BUFFER_POLICY_FACTORIES,
    DataQueue,
    DropNewPolicy,
    DropOldestPolicy,
    PriorityAgePolicy,
    TTLExpiryPolicy,
    make_buffer_policy,
)

POLICY_NAMES = sorted(BUFFER_POLICY_FACTORIES)


def _policy(name, ttl_s=120.0):
    return make_buffer_policy(name, ttl_s)


def _message(i=0):
    return DataMessage(source=f"bus-{i}", created_at=float(i))


class TestDataQueue:
    def test_push_and_len(self):
        queue = DataQueue()
        queue.push(_message())
        queue.push(_message())
        assert len(queue) == 2

    def test_duplicate_message_rejected(self):
        queue = DataQueue()
        message = _message()
        assert queue.push(message)
        assert not queue.push(message)
        assert len(queue) == 1

    def test_capacity_enforced_and_drops_counted(self):
        queue = DataQueue(max_size=2)
        assert queue.push(_message(1))
        assert queue.push(_message(2))
        assert not queue.push(_message(3))
        assert queue.dropped_full == 1
        assert queue.is_full

    def test_duplicate_and_capacity_counters_are_split(self):
        # A duplicate is dedup (the data is still carried), a capacity
        # rejection is loss; buffer sweeps need to tell them apart.
        queue = DataQueue(max_size=1)
        message = _message(1)
        assert queue.push(message)
        assert not queue.push(message)
        assert not queue.push(_message(2))
        assert queue.rejected_duplicate == 1
        assert queue.dropped_full == 1

    def test_peek_preserves_fifo_order_without_removal(self):
        queue = DataQueue()
        messages = [_message(i) for i in range(5)]
        queue.extend(messages)
        assert queue.peek(3) == messages[:3]
        assert len(queue) == 5

    def test_pop_front_removes_in_order(self):
        queue = DataQueue()
        messages = [_message(i) for i in range(4)]
        queue.extend(messages)
        popped = queue.pop_front(2)
        assert popped == messages[:2]
        assert queue.peek_all() == messages[2:]

    def test_remove_by_id(self):
        queue = DataQueue()
        messages = [_message(i) for i in range(3)]
        queue.extend(messages)
        removed = queue.remove([messages[1].message_id, 999_999])
        assert removed == [messages[1]]
        assert len(queue) == 2

    def test_contains_by_id(self):
        queue = DataQueue()
        message = _message()
        queue.push(message)
        assert message.message_id in queue
        assert -1 not in queue

    def test_clear_returns_everything(self):
        queue = DataQueue()
        queue.extend(_message(i) for i in range(3))
        assert len(queue.clear()) == 3
        assert len(queue) == 0

    def test_extend_reports_accepted_count(self):
        queue = DataQueue(max_size=2)
        accepted = queue.extend(_message(i) for i in range(5))
        assert accepted == 2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DataQueue(max_size=0)
        with pytest.raises(ValueError):
            DataQueue().peek(-1)
        with pytest.raises(ValueError):
            make_buffer_policy("not-a-policy")
        with pytest.raises(ValueError):
            TTLExpiryPolicy(ttl_s=0.0)


class TestPolicies:
    def test_factory_builds_every_registered_policy(self):
        built = {name: _policy(name) for name in POLICY_NAMES}
        assert isinstance(built["drop-new"], DropNewPolicy)
        assert isinstance(built["drop-oldest"], DropOldestPolicy)
        assert isinstance(built["ttl-expiry"], TTLExpiryPolicy)
        assert isinstance(built["priority-age"], PriorityAgePolicy)
        for name, policy in built.items():
            assert policy.name == name

    def test_drop_oldest_evicts_head_to_admit_new(self):
        queue = DataQueue(max_size=2, policy=DropOldestPolicy())
        first, second, third = _message(1), _message(2), _message(3)
        queue.extend([first, second])
        assert queue.push(third)
        assert queue.peek_all() == [second, third]
        assert queue.dropped_full == 1
        assert first.message_id not in queue

    def test_priority_age_serves_oldest_created_first(self):
        queue = DataQueue(policy=PriorityAgePolicy())
        newer, older = _message(5), _message(1)
        queue.push(newer)
        queue.push(older)  # arrives later but was created earlier
        assert queue.peek(1) == [older]
        assert queue.peek_all() == [older, newer]

    def test_priority_age_evicts_oldest_created_when_full(self):
        queue = DataQueue(max_size=2, policy=PriorityAgePolicy())
        newer, older, incoming = _message(5), _message(1), _message(9)
        queue.extend([newer, older])
        assert queue.push(incoming)
        assert older.message_id not in queue
        assert queue.peek_all() == [newer, incoming]
        assert queue.dropped_full == 1

    def test_ttl_expires_stale_messages_on_touch(self):
        queue = DataQueue(policy=TTLExpiryPolicy(ttl_s=10.0))
        stale, fresh = _message(0), _message(9)
        queue.extend([stale, fresh], now=9.0)
        assert len(queue) == 2
        assert queue.peek_all(now=10.5) == [fresh]
        assert queue.expired_ttl == 1

    def test_ttl_without_time_is_inert(self):
        queue = DataQueue(policy=TTLExpiryPolicy(ttl_s=10.0))
        queue.push(_message(0))
        assert queue.peek_all() == queue.peek_all(now=None)
        assert queue.expired_ttl == 0

    def test_explicit_expire_reports_removed_count(self):
        queue = DataQueue(policy=TTLExpiryPolicy(ttl_s=10.0))
        queue.extend([_message(0), _message(1), _message(20)])
        assert queue.expire(15.0) == 2
        assert queue.expire(15.0) == 0
        assert len(queue) == 1

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_capacity_one_queue(self, name):
        # The degenerate capacity: every policy must keep exactly one
        # message, lose exactly one per overflowing push and stay usable.
        queue = DataQueue(max_size=1, policy=_policy(name, ttl_s=1e9))
        first, second = _message(1), _message(2)
        assert queue.push(first, now=1.0)
        admitted = queue.push(second, now=2.0)
        assert len(queue) == 1
        assert queue.dropped_full == 1
        survivor = queue.peek_all()[0]
        assert survivor is (second if admitted else first)
        popped = queue.pop_front(1)
        assert popped == [survivor]
        assert len(queue) == 0

    def test_pop_front_and_remove_interact_with_ttl_expiry(self):
        queue = DataQueue(policy=TTLExpiryPolicy(ttl_s=10.0))
        stale, fresh, other = _message(0), _message(14), _message(15)
        queue.extend([stale, fresh, other])
        # pop_front with a current time expires first: the stale head is
        # removed by TTL (counted as expiry), not served.
        popped = queue.pop_front(1, now=15.0)
        assert popped == [fresh]
        assert queue.expired_ttl == 1
        # remove() of an already-expired id is a clean no-op.
        assert queue.remove([stale.message_id]) == []
        assert queue.remove([other.message_id]) == [other]
        assert len(queue) == 0


class TestPolicyProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        policy_name=st.sampled_from(POLICY_NAMES),
        max_size=st.integers(min_value=1, max_value=6),
        events=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=11),  # message index (dups likely)
                st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
            ),
            max_size=40,
        ),
    )
    def test_every_policy_keeps_ids_unique_and_respects_capacity(
        self, policy_name, max_size, events
    ):
        """Invariants of any buffer policy under arbitrary workloads:

        unique message ids, never above capacity, monotone non-decreasing
        time-ordered pushes, and conservation: every push is accounted as
        stored, duplicate-rejected, capacity-lost or TTL-expired.
        """
        queue = DataQueue(max_size=max_size, policy=_policy(policy_name, ttl_s=50.0))
        messages = {}
        accepted = 0
        clock = 0.0
        for index, advance in events:
            clock += advance
            if index not in messages:
                messages[index] = DataMessage(source=f"bus-{index}", created_at=clock)
            if queue.push(messages[index], now=clock):
                accepted += 1
            ids = [m.message_id for m in queue.peek_all()]
            assert len(ids) == len(set(ids))
            assert len(queue) <= max_size
        # Conservation.  Tail-drop policies (drop-new, ttl-expiry) count a
        # rejected push as the capacity loss; admitting policies (drop-oldest,
        # priority-age) admit the push and count the eviction instead.
        pushes = len(events)
        if policy_name in ("drop-new", "ttl-expiry"):
            assert pushes == accepted + queue.rejected_duplicate + queue.dropped_full
            assert accepted == len(queue) + queue.expired_ttl
        else:
            assert pushes == accepted + queue.rejected_duplicate
            assert accepted == len(queue) + queue.dropped_full
            assert queue.expired_ttl == 0
