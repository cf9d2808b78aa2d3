"""Unit tests for the forwarding schemes."""

from dataclasses import replace

import pytest

from repro.mac.device import DeviceConfig, EndDevice
from repro.mac.frames import DataMessage, UplinkPacket
from repro.phy.link import LinkCapacityModel
from repro.routing import build_scheme, register_scheme_factory, scheme_names
from repro.routing.base import ForwardingDecision
from repro.routing.config import RoutingConfig
from repro.routing.epidemic import EpidemicScheme
from repro.routing.no_routing import NoRoutingScheme
from repro.routing.prophet import ProphetScheme
from repro.routing.rca_etx_scheme import RCAETXScheme
from repro.routing.robc_scheme import ROBCScheme
from repro.routing.spray_and_wait import SprayAndWaitScheme, get_tickets, set_tickets

CAPACITY = LinkCapacityModel(max_capacity_bps=100.0, rssi_min_dbm=-120.0, rssi_max_dbm=-80.0)
GOOD_RSSI = -85.0


def _device(device_id="bus-x", queued=5, disconnected_for=5):
    device = EndDevice(device_id, config=DeviceConfig())
    for i in range(queued):
        device.generate_message(float(i))
    # A good gateway contact followed by an optional long outage; with the
    # default of five missed slots the device is a natural forwarding
    # candidate, with zero it keeps its own (cheap) route.
    device.rca_etx.observe_transmission_slot(0.0, 100.0)
    for slot in range(1, disconnected_for + 1):
        device.rca_etx.observe_transmission_slot(slot * 180.0, 0.0)
    return device


def _packet(sender="bus-y", rca_etx=2.0, queue_length=1):
    messages = (DataMessage(source=sender, created_at=0.0),)
    return UplinkPacket(
        sender=sender, sent_at=1000.0, messages=messages,
        rca_etx_s=rca_etx, queue_length=queue_length,
    )


class TestRegistry:
    def test_all_schemes_registered(self):
        expected = {
            "no-routing", "rca-etx", "robc", "epidemic", "spray-and-wait", "prophet"
        }
        assert set(scheme_names()) == expected

    def test_build_scheme_builds_instances(self):
        assert isinstance(build_scheme("robc"), ROBCScheme)
        assert isinstance(build_scheme("no-routing"), NoRoutingScheme)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            build_scheme("definitely-not-a-scheme")

    def test_build_scheme_applies_routing_config(self):
        routing = RoutingConfig(max_handover_messages=3, spray_initial_copies=9)
        spray = build_scheme("spray-and-wait", routing)
        assert spray.initial_copies == 9
        assert spray.max_handover_messages == 3
        robc = build_scheme("robc", RoutingConfig(rgq_phi_max=2.5))
        assert robc.rgq.phi_max == 2.5
        prophet = build_scheme("prophet", RoutingConfig(prophet_beta=0.5))
        assert prophet.beta == 0.5

    def test_build_scheme_returns_fresh_instances(self):
        # Stateful schemes (prophet) must not leak state across scenarios.
        assert build_scheme("prophet") is not build_scheme("prophet")

    def test_factory_registry_is_open(self):
        class FlipScheme(NoRoutingScheme):
            name = "flip-test-scheme"

        register_scheme_factory("flip-test-scheme", lambda routing: FlipScheme())
        try:
            assert isinstance(build_scheme("flip-test-scheme"), FlipScheme)
            with pytest.raises(ValueError):
                register_scheme_factory("flip-test-scheme", lambda routing: FlipScheme())
        finally:
            from repro.routing import registry as registry_module

            registry_module._FACTORIES.pop("flip-test-scheme")


class TestForwardingDecision:
    def test_no_decision(self):
        decision = ForwardingDecision.no()
        assert not decision.forward and decision.message_limit == 0

    def test_forward_requires_positive_limit(self):
        with pytest.raises(ValueError):
            ForwardingDecision(forward=True, message_limit=0)


class TestNoRouting:
    def test_never_forwards(self):
        scheme = NoRoutingScheme()
        decision = scheme.on_overhear(_device(), _packet(), GOOD_RSSI, CAPACITY, 1000.0)
        assert not decision.forward
        assert not scheme.uses_forwarding
        assert not scheme.requires_queue_length


class TestRCAETXScheme:
    def test_forwards_to_better_neighbour(self):
        decision = RCAETXScheme().on_overhear(_device(), _packet(rca_etx=2.0), GOOD_RSSI, CAPACITY, 1000.0)
        assert decision.forward
        assert decision.message_limit > 0
        assert not decision.copy

    def test_does_not_forward_to_worse_neighbour(self):
        decision = RCAETXScheme().on_overhear(
            _device(), _packet(rca_etx=1e6), GOOD_RSSI, CAPACITY, 1000.0
        )
        assert not decision.forward

    def test_does_not_forward_without_metric_field(self):
        packet = UplinkPacket(
            sender="bus-y", sent_at=0.0, messages=(DataMessage(source="bus-y", created_at=0.0),)
        )
        assert not RCAETXScheme().on_overhear(_device(), packet, GOOD_RSSI, CAPACITY, 0.0).forward

    def test_does_not_forward_with_empty_queue(self):
        empty = _device(queued=0)
        assert not RCAETXScheme().on_overhear(empty, _packet(), GOOD_RSSI, CAPACITY, 0.0).forward

    def test_limit_respects_own_queue_and_configuration(self):
        decision = RCAETXScheme(max_handover_messages=3).on_overhear(
            _device(queued=10), _packet(rca_etx=1.0), GOOD_RSSI, CAPACITY, 1000.0
        )
        assert decision.message_limit == 3

    def test_connected_device_keeps_its_data(self):
        connected = _device(disconnected_for=0)
        decision = RCAETXScheme().on_overhear(connected, _packet(rca_etx=50.0), GOOD_RSSI, CAPACITY, 0.0)
        assert not decision.forward


class TestROBCScheme:
    def test_forwards_when_backpressure_positive(self):
        decision = ROBCScheme().on_overhear(
            _device(queued=10), _packet(rca_etx=2.0, queue_length=0), GOOD_RSSI, CAPACITY, 1000.0
        )
        assert decision.forward
        assert 0 < decision.message_limit <= 10

    def test_does_not_forward_to_more_loaded_neighbour(self):
        decision = ROBCScheme().on_overhear(
            _device(queued=1), _packet(rca_etx=1e6, queue_length=60), GOOD_RSSI, CAPACITY, 1000.0
        )
        assert not decision.forward

    def test_requires_queue_length_field(self):
        packet = _packet(queue_length=None)
        assert not ROBCScheme().on_overhear(_device(), packet, GOOD_RSSI, CAPACITY, 0.0).forward
        assert ROBCScheme.requires_queue_length

    def test_does_not_forward_over_dead_link(self):
        decision = ROBCScheme().on_overhear(
            _device(queued=10), _packet(queue_length=0), -130.0, CAPACITY, 1000.0
        )
        assert not decision.forward

    def test_transfer_limited_by_max_handover(self):
        decision = ROBCScheme(max_handover_messages=2).on_overhear(
            _device(queued=20), _packet(rca_etx=1.0, queue_length=0), GOOD_RSSI, CAPACITY, 1000.0
        )
        assert decision.message_limit <= 2


class TestEpidemic:
    def test_always_replicates_when_data_present(self):
        decision = EpidemicScheme().on_overhear(_device(), _packet(), GOOD_RSSI, CAPACITY, 0.0)
        assert decision.forward and decision.copy

    def test_no_data_no_forwarding(self):
        assert not EpidemicScheme().on_overhear(
            _device(queued=0), _packet(), GOOD_RSSI, CAPACITY, 0.0
        ).forward


class TestSprayAndWait:
    def test_sprays_while_tickets_remain(self):
        scheme = SprayAndWaitScheme(initial_copies=4)
        device = _device(queued=3)
        decision = scheme.on_overhear(device, _packet(), GOOD_RSSI, CAPACITY, 0.0)
        assert decision.forward and decision.copy

    def test_wait_phase_when_single_ticket(self):
        scheme = SprayAndWaitScheme(initial_copies=1)
        device = _device(queued=3)
        assert not scheme.on_overhear(device, _packet(), GOOD_RSSI, CAPACITY, 0.0).forward

    def test_split_tickets_halves(self):
        scheme = SprayAndWaitScheme(initial_copies=8)
        message = DataMessage(source="bus-x", created_at=0.0)
        given = scheme.split_tickets(message)
        assert given == 4
        assert get_tickets(message, 8) == 4

    def test_split_exhausted_message_gives_nothing(self):
        scheme = SprayAndWaitScheme(initial_copies=1)
        message = DataMessage(source="bus-x", created_at=0.0)
        assert scheme.split_tickets(message) == 0

    @staticmethod
    def _hand_over(scheme, giver, taker, limit=12):
        return scheme.hand_over_copies(giver, taker, limit, 0.0)

    def test_copy_splits_tickets_between_carrier_and_copy(self):
        scheme = SprayAndWaitScheme(initial_copies=4)
        giver, taker = _device("bus-x", queued=1), _device("bus-y", queued=0)
        (message,) = giver.queue.peek_all()
        (copy,), accepted = self._hand_over(scheme, giver, taker)
        assert accepted == 1 and copy.message_id in taker.queue
        assert copy is not message and copy.message_id == message.message_id
        assert get_tickets(message, 4) == 2
        assert get_tickets(copy, 4) == 2

    def test_single_ticket_message_is_not_copied(self):
        scheme = SprayAndWaitScheme(initial_copies=4)
        giver, taker = _device("bus-x", queued=2), _device("bus-y", queued=0)
        spent, fresh = giver.queue.peek_all()
        set_tickets(spent, 1)
        copies, accepted = self._hand_over(scheme, giver, taker)
        assert [c.message_id for c in copies] == [fresh.message_id] and accepted == 1
        assert get_tickets(spent, 4) == 1

    def test_wait_phase_message_does_not_use_up_the_limit(self):
        scheme = SprayAndWaitScheme(initial_copies=4)
        giver, taker = _device("bus-x", queued=2), _device("bus-y", queued=0)
        spent, fresh = giver.queue.peek_all()
        set_tickets(spent, 1)
        (copy,), accepted = self._hand_over(scheme, giver, taker, limit=1)
        assert copy.message_id == fresh.message_id and accepted == 1
        assert get_tickets(fresh, 4) == 2

    def test_carrier_keeps_tickets_of_a_copy_the_taker_already_holds(self):
        scheme = SprayAndWaitScheme(initial_copies=4)
        giver, taker = _device("bus-x", queued=1), _device("bus-y", queued=0)
        (message,) = giver.queue.peek_all()
        taker.queue.push(replace(message))
        copies, accepted = self._hand_over(scheme, giver, taker)
        assert len(copies) == 1 and accepted == 0
        assert get_tickets(message, 4) == 4

    def test_carrier_keeps_tickets_of_a_copy_a_full_queue_refuses(self):
        scheme = SprayAndWaitScheme(initial_copies=4)
        giver = _device("bus-x", queued=1)
        taker = EndDevice("bus-y", config=DeviceConfig(max_queue_size=1))
        taker.generate_message(0.0)
        (message,) = giver.queue.peek_all()
        copies, accepted = self._hand_over(scheme, giver, taker)
        assert len(copies) == 1 and accepted == 0
        assert get_tickets(message, 4) == 4

    def test_default_copy_keeps_every_message(self):
        giver, taker = _device("bus-x", queued=3), _device("bus-y", queued=0)
        messages = giver.queue.peek_all()
        copies, accepted = EpidemicScheme().hand_over_copies(giver, taker, 2, 0.0)
        assert [c.message_id for c in copies] == [m.message_id for m in messages[:2]]
        assert all(c is not m for c, m in zip(copies, messages))
        assert accepted == 2 and giver.queue.peek_all() == messages

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SprayAndWaitScheme(initial_copies=0)
        with pytest.raises(ValueError):
            RCAETXScheme(max_handover_messages=0)
        with pytest.raises(ValueError):
            ROBCScheme(max_handover_messages=0)


class TestProphet:
    def test_predictability_grows_on_gateway_contact(self):
        scheme = ProphetScheme(p_init=0.5)
        scheme.observe_transmission_slot("bus-x", True, 0.0)
        assert scheme.predictability("bus-x", 0.0) == pytest.approx(0.5)
        scheme.observe_transmission_slot("bus-x", True, 0.0)
        assert scheme.predictability("bus-x", 0.0) == pytest.approx(0.75)

    def test_predictability_ages_between_contacts(self):
        scheme = ProphetScheme(p_init=0.5, gamma=0.99)
        scheme.observe_transmission_slot("bus-x", True, 0.0)
        aged = scheme.predictability("bus-x", 100.0)
        assert aged == pytest.approx(0.5 * 0.99**100)

    def test_disconnected_slot_only_ages(self):
        scheme = ProphetScheme(p_init=0.5, gamma=1.0)
        scheme.observe_transmission_slot("bus-x", True, 0.0)
        scheme.observe_transmission_slot("bus-x", False, 50.0)
        assert scheme.predictability("bus-x", 50.0) == pytest.approx(0.5)

    def test_forwards_to_better_connected_sender(self):
        scheme = ProphetScheme()
        scheme.observe_transmission_slot("bus-y", True, 999.0)
        decision = scheme.on_overhear(_device(), _packet(sender="bus-y"), GOOD_RSSI, CAPACITY, 1000.0)
        assert decision.forward and decision.copy
        assert decision.message_limit > 0

    def test_does_not_forward_to_unknown_sender(self):
        scheme = ProphetScheme()
        decision = scheme.on_overhear(_device(), _packet(sender="bus-y"), GOOD_RSSI, CAPACITY, 1000.0)
        assert not decision.forward

    def test_does_not_forward_without_data(self):
        scheme = ProphetScheme()
        scheme.observe_transmission_slot("bus-y", True, 999.0)
        empty = _device(queued=0)
        decision = scheme.on_overhear(empty, _packet(sender="bus-y"), GOOD_RSSI, CAPACITY, 1000.0)
        assert not decision.forward

    def test_transitive_update_raises_receiver_predictability(self):
        scheme = ProphetScheme(p_init=0.8, beta=0.25, gamma=1.0)
        scheme.observe_transmission_slot("bus-y", True, 0.0)
        scheme.on_overhear(_device("bus-x"), _packet(sender="bus-y"), GOOD_RSSI, CAPACITY, 1.0)
        assert scheme.predictability("bus-x", 1.0) == pytest.approx(0.8 * 0.25)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ProphetScheme(p_init=0.0)
        with pytest.raises(ValueError):
            ProphetScheme(beta=1.5)
        with pytest.raises(ValueError):
            ProphetScheme(gamma=0.0)
        with pytest.raises(ValueError):
            ProphetScheme(max_handover_messages=0)
