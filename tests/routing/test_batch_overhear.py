"""``on_overhear_batch`` must be an exact drop-in for the scalar loop.

The array engine's hot path hands every overhearer of a transmission to the
scheme in one call; the contract is that the returned decision list — and any
scheme-internal state mutation (PRoPHET's predictability table, lazy spray
tickets) — is indistinguishable from calling :meth:`on_overhear` once per
receiver in the same order.  These tests run both paths on identically
constructed worlds and compare decisions field by field and state dict by
dict, for every registered scheme (schemes without an override exercise the
base-class delegating default).
"""

from __future__ import annotations

from repro.mac.device import DeviceConfig, EndDevice
from repro.mac.frames import DataMessage, UplinkPacket
from repro.phy.link import LinkCapacityModel
from repro.routing import build_scheme, scheme_names
from repro.routing.spray_and_wait import get_tickets

CAPACITY = LinkCapacityModel(
    max_capacity_bps=100.0, rssi_min_dbm=-120.0, rssi_max_dbm=-80.0
)
NOW = 1000.0


def _device(device_id, queued, disconnected_for):
    device = EndDevice(device_id, config=DeviceConfig())
    for i in range(queued):
        device.generate_message(float(i))
    device.rca_etx.observe_transmission_slot(0.0, 100.0)
    for slot in range(1, disconnected_for + 1):
        device.rca_etx.observe_transmission_slot(slot * 180.0, 0.0)
    return device


def _packet(sender="bus-tx", rca_etx=2.0, queue_length=3):
    messages = (DataMessage(source=sender, created_at=0.0),)
    return UplinkPacket(
        sender=sender, sent_at=NOW, messages=messages,
        rca_etx_s=rca_etx, queue_length=queue_length,
    )


#: (queued, disconnected_for) per receiver — empty queues, loaded queues,
#: well-connected and long-disconnected carriers, in a deliberate mix.
RECEIVER_SHAPES = [(0, 0), (5, 5), (3, 0), (8, 2), (1, 5), (0, 5), (12, 1)]


def _world():
    """A fresh (receivers, rssi, models) triple; built twice per test so the
    scalar and batch paths never share mutable state."""
    receivers = [
        _device(f"bus-{i}", queued, outage)
        for i, (queued, outage) in enumerate(RECEIVER_SHAPES)
    ]
    rssi = [-85.0 - 3.0 * i for i in range(len(receivers))]
    models = [CAPACITY] * len(receivers)
    return receivers, rssi, models


def _decision_tuples(decisions):
    return [(d.forward, d.message_limit, d.copy) for d in decisions]


def _scheme_state(scheme):
    """Observable scheme-internal state that decisions may mutate."""
    return (
        dict(getattr(scheme, "_predictability", {})),
        dict(getattr(scheme, "_last_update", {})),
    )


def test_batch_matches_scalar_for_every_scheme():
    packet = _packet()
    for name in scheme_names():
        scalar_scheme = build_scheme(name)
        batch_scheme = build_scheme(name)

        receivers_a, rssi, models = _world()
        scalar = [
            scalar_scheme.on_overhear(receiver, packet, r, model, NOW)
            for receiver, r, model in zip(receivers_a, rssi, models)
        ]

        receivers_b, rssi_b, models_b = _world()
        batch = batch_scheme.on_overhear_batch(
            packet, receivers_b, rssi_b, CAPACITY, NOW
        )

        assert _decision_tuples(batch) == _decision_tuples(scalar), name
        assert _scheme_state(batch_scheme) == _scheme_state(scalar_scheme), name
        # Lazily initialised per-message state (spray tickets) must also end
        # up identical on the receivers' queues.
        for dev_a, dev_b in zip(receivers_a, receivers_b):
            tickets_a = [get_tickets(m, 4) for m in dev_a.queue.peek_all()]
            tickets_b = [get_tickets(m, 4) for m in dev_b.queue.peek_all()]
            assert tickets_a == tickets_b, name


def test_prophet_batch_preserves_update_order():
    """PRoPHET's transitive update is order-sensitive: the sender's aged
    predictability read by receiver k must reflect updates 0..k-1 exactly as
    in the scalar loop.  Seeding the table with distinct values makes any
    reordering change a decision or a stored float."""
    scalar_scheme = build_scheme("prophet")
    batch_scheme = build_scheme("prophet")
    packet = _packet(sender="bus-tx")
    for scheme in (scalar_scheme, batch_scheme):
        scheme.observe_transmission_slot("bus-tx", True, 0.0)
        scheme.observe_transmission_slot("bus-1", True, 100.0)
        scheme.observe_transmission_slot("bus-3", True, 900.0)

    receivers_a, rssi, models = _world()
    scalar = [
        scalar_scheme.on_overhear(receiver, packet, r, model, NOW)
        for receiver, r, model in zip(receivers_a, rssi, models)
    ]
    receivers_b, rssi_b, models_b = _world()
    batch = batch_scheme.on_overhear_batch(
        packet, receivers_b, rssi_b, CAPACITY, NOW
    )
    assert _decision_tuples(batch) == _decision_tuples(scalar)
    assert _scheme_state(batch_scheme) == _scheme_state(scalar_scheme)
