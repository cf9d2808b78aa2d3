"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ewma import ExponentialMovingAverage
from repro.core.pst import RealTimePacketServiceTime
from repro.core.rgq import RealTimeGatewayQuality
from repro.core.robc import queue_based_class_a_window_fraction, robc_transfer_amount
from repro.mac.duty_cycle import DutyCycleRegulator
from repro.mac.frames import DataMessage
from repro.mac.queueing import DataQueue
from repro.phy.airtime import AirtimeCalculator, LoRaTransmissionParameters
from repro.phy.constants import SpreadingFactor
from repro.phy.link import LinkCapacityModel
from repro.sim.kernel import Simulator

CAPACITY_MODEL = LinkCapacityModel(
    max_capacity_bps=100.0, rssi_min_dbm=-120.0, rssi_max_dbm=-80.0
)
RGQ = RealTimeGatewayQuality(phi_min=1e-6, phi_max=10.0)

finite_metrics = st.floats(min_value=0.0, max_value=1e5, allow_nan=False)
queue_lengths = st.integers(min_value=0, max_value=500)


class TestEWMAProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                              allow_infinity=False), min_size=1, max_size=50),
           st.floats(min_value=0.01, max_value=1.0))
    def test_ewma_stays_within_sample_bounds(self, samples, alpha):
        ewma = ExponentialMovingAverage(alpha=alpha)
        for sample in samples:
            ewma.update(sample)
        assert min(samples) - 1e-6 <= ewma.value <= max(samples) + 1e-6


class TestRPSTProperties:
    @given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=600.0),
                              st.floats(min_value=0.0, max_value=100.0)),
                    min_size=1, max_size=40))
    def test_rpst_always_positive_and_capped(self, slots):
        pst = RealTimePacketServiceTime(packet_bits=100.0, max_service_time_s=5000.0)
        now = 0.0
        for gap, capacity in slots:
            now += gap
            sample = pst.observe_slot(now, capacity)
            assert 0.0 < sample <= 5000.0
        assert 0.0 < pst.expected <= 5000.0


class TestROBCProperties:
    @given(queue_lengths, finite_metrics, queue_lengths, finite_metrics)
    def test_transfer_amount_bounded_by_own_queue(self, q_own, m_own, q_other, m_other):
        amount = robc_transfer_amount(q_own, m_own, q_other, m_other, RGQ)
        assert 0.0 <= amount <= q_own

    @given(queue_lengths, st.integers(min_value=1, max_value=500), finite_metrics)
    def test_class_a_window_fraction_in_unit_interval(self, queue, max_queue, metric):
        fraction = queue_based_class_a_window_fraction(
            min(queue, max_queue), max_queue, metric, RGQ
        )
        assert 0.0 <= fraction <= 1.0


class TestCapacityProperties:
    @given(st.floats(min_value=-150.0, max_value=-30.0))
    def test_capacity_bounded_and_non_negative(self, rssi):
        capacity = CAPACITY_MODEL.capacity_bps(rssi)
        assert 0.0 <= capacity <= CAPACITY_MODEL.max_capacity_bps

    @given(st.lists(st.floats(min_value=-150.0, max_value=-30.0), min_size=2, max_size=20))
    def test_capacity_monotone_in_rssi(self, rssis):
        ordered = sorted(rssis)
        capacities = [CAPACITY_MODEL.capacity_bps(r) for r in ordered]
        assert all(a <= b + 1e-9 for a, b in zip(capacities, capacities[1:]))


class TestAirtimeProperties:
    @given(st.integers(min_value=0, max_value=255),
           st.sampled_from(list(SpreadingFactor)))
    def test_airtime_positive_and_monotone_in_payload(self, payload, sf):
        calc = AirtimeCalculator(LoRaTransmissionParameters(spreading_factor=sf))
        airtime = calc.time_on_air_s(payload)
        assert airtime > 0.0
        if payload < 255:
            assert calc.time_on_air_s(payload + 1) >= airtime


class TestDutyCycleProperties:
    @given(st.lists(st.floats(min_value=0.01, max_value=2.0), min_size=1, max_size=40),
           st.floats(min_value=0.005, max_value=0.5))
    def test_long_run_utilisation_never_exceeds_duty_cycle(self, airtimes, duty_cycle):
        regulator = DutyCycleRegulator(duty_cycle)
        now = 0.0
        for airtime in airtimes:
            now = max(now, regulator.next_allowed_time)
            regulator.record_transmission(now, airtime)
        horizon = regulator.next_allowed_time
        assert regulator.utilisation(horizon) <= duty_cycle + 1e-9


class TestQueueProperties:
    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=100))
    def test_queue_never_exceeds_capacity(self, capacity, pushes):
        queue = DataQueue(max_size=capacity)
        for i in range(pushes):
            queue.push(DataMessage(source="bus", created_at=float(i)))
        assert len(queue) <= capacity
        assert len(queue) + queue.dropped_full == pushes

    @given(st.integers(min_value=1, max_value=50))
    def test_fifo_order_preserved(self, count):
        queue = DataQueue()
        messages = [DataMessage(source="bus", created_at=float(i)) for i in range(count)]
        queue.extend(messages)
        assert queue.pop_front(count) == messages


class TestSimulatorProperties:
    # Few distinct times and priorities, so most events tie on one or both.
    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 7.25]),
                              st.integers(min_value=0, max_value=3)),
                    min_size=1, max_size=100))
    @settings(max_examples=100)
    def test_events_fire_by_time_then_priority_then_insertion(self, entries):
        # The array engine's heap mirrors this order; the two engines'
        # bit-identity rests on it.
        sim = Simulator()
        fired = []
        for index, (time, priority) in enumerate(entries):
            sim.schedule(time, fired.append, payload=index, priority=priority)
        assert sim.run(until=10.0) == len(entries)
        expected = sorted(range(len(entries)), key=lambda i: (*entries[i], i))
        assert fired == expected

    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 7.25]),
                              st.integers(min_value=0, max_value=3)),
                    min_size=1, max_size=60),
           st.lists(st.sampled_from([0.0, 0.5, 0.75, 1.0, 3.0, 7.25]),
                    max_size=4))
    @settings(max_examples=100)
    def test_split_runs_fire_like_one_run(self, entries, stops):
        # Stopping at any clock readings and resuming fires the same events
        # in the same order as one run to the end.
        whole, split = Simulator(), Simulator()
        whole_fired, split_fired = [], []
        for index, (time, priority) in enumerate(entries):
            whole.schedule(time, whole_fired.append, payload=index, priority=priority)
            split.schedule(time, split_fired.append, payload=index, priority=priority)
        counts = [split.run(until=stop) for stop in sorted(stops)]
        counts.append(split.run(until=10.0))
        assert whole.run(until=10.0) == sum(counts) == len(entries)
        assert split_fired == whole_fired
        assert split.now == whole.now == 10.0
