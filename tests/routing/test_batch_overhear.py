"""``on_overhear_batch`` is every scheme's one decision hook.

The object engine calls it with one receiver at a time; the array engine
hands it every overhearer of a transmission at once.  So a batch of N must
be indistinguishable from N one-receiver batches in the same order: the same
decisions, and the same scheme-internal state afterwards (PRoPHET's
predictability table, lazily initialised spray tickets).  These tests check
that for every registered scheme on identically constructed worlds, and pin
ROBC's verdicts against the paper reference
:func:`repro.core.robc.robc_transfer_amount`.
"""

from __future__ import annotations

import math

import pytest

from repro.core.rgq import RealTimeGatewayQuality
from repro.core.robc import robc_transfer_amount
from repro.mac.device import DeviceConfig, EndDevice
from repro.mac.frames import DataMessage, UplinkPacket
from repro.phy.link import LinkCapacityModel
from repro.routing import build_scheme, scheme_names
from repro.routing.robc_scheme import ROBCScheme
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
RECEIVER_SHAPES = [(0, 0), (5, 5), (3, 0), (8, 2), (1, 5), (0, 5), (12, 1), (20, 9)]

#: Packets with and without piggybacked fields, short and long queues, and a
#: sender whose advertised sink metric is 0 (ϕ clamps to ϕ_max).
PACKETS = [
    _packet(),
    _packet(rca_etx=0.0, queue_length=0),
    _packet(rca_etx=400.0, queue_length=1),
    _packet(rca_etx=5.0, queue_length=40),
    _packet(rca_etx=None, queue_length=None),
    _packet(rca_etx=3.0, queue_length=None),
]


def _world():
    """Fresh receivers and their RSSI values; built once per path so the two
    paths never share mutable state.  The last RSSI is below the link's
    floor, so capacity-checking schemes see a disconnected receiver."""
    receivers = [
        _device(f"bus-{i}", queued, outage)
        for i, (queued, outage) in enumerate(RECEIVER_SHAPES)
    ]
    rssi = [-85.0 - 3.0 * i for i in range(len(receivers) - 1)] + [-130.0]
    return receivers, rssi


def _decision_tuples(decisions):
    return [(d.forward, d.message_limit, d.copy) for d in decisions]


def _scheme_state(scheme):
    """Observable scheme-internal state that decisions may mutate."""
    return (
        dict(getattr(scheme, "_predictability", {})),
        dict(getattr(scheme, "_last_update", {})),
    )


def _tickets(receivers):
    return [[get_tickets(m, 4) for m in r.queue.peek_all()] for r in receivers]


def _seed_prophet(scheme):
    # Distinct predictabilities make any reordering of PRoPHET's aging and
    # transitive updates change a decision or a stored float.
    if hasattr(scheme, "_predictability"):
        scheme.observe_transmission_slot("bus-tx", True, 0.0)
        scheme.observe_transmission_slot("bus-1", True, 100.0)
        scheme.observe_transmission_slot("bus-3", True, 900.0)


@pytest.mark.parametrize("name", scheme_names())
@pytest.mark.parametrize("packet", PACKETS, ids=range(len(PACKETS)))
def test_batch_equals_one_receiver_batches(name, packet):
    singles_scheme = build_scheme(name)
    batch_scheme = build_scheme(name)
    _seed_prophet(singles_scheme)
    _seed_prophet(batch_scheme)

    receivers_a, rssi_a = _world()
    singles = []
    for receiver, rssi in zip(receivers_a, rssi_a):
        decisions = singles_scheme.on_overhear_batch(
            packet, [receiver], [rssi], CAPACITY, NOW
        )
        assert len(decisions) == 1
        singles.extend(decisions)

    receivers_b, rssi_b = _world()
    batch = batch_scheme.on_overhear_batch(packet, receivers_b, rssi_b, CAPACITY, NOW)

    assert _decision_tuples(batch) == _decision_tuples(singles)
    assert _scheme_state(batch_scheme) == _scheme_state(singles_scheme)
    assert _tickets(receivers_b) == _tickets(receivers_a)


@pytest.mark.parametrize("name", scheme_names())
def test_empty_batch_and_batch_of_one(name):
    scheme = build_scheme(name)
    assert scheme.on_overhear_batch(_packet(), [], [], CAPACITY, NOW) == []
    receiver = _device("bus-1", 5, 5)
    (single,) = scheme.on_overhear_batch(_packet(), [receiver], [-90.0], CAPACITY, NOW)
    other = build_scheme(name)
    assert other.on_overhear(_device("bus-1", 5, 5), _packet(), -90.0, CAPACITY, NOW) == single


def _robc_reference(scheme, receiver, packet, rssi):
    """ROBC's verdict from the paper's Eq. 10 (``robc_transfer_amount``)."""
    if packet.rca_etx_s is None or packet.queue_length is None:
        return (False, 0, False)
    if not receiver.has_data() or not CAPACITY.is_connected(rssi):
        return (False, 0, False)
    delta = robc_transfer_amount(
        own_queue=float(receiver.queue_length()),
        own_sink_metric_s=receiver.rca_etx.sink_metric(),
        neighbour_queue=float(packet.queue_length),
        neighbour_sink_metric_s=packet.rca_etx_s,
        rgq=scheme.rgq,
    )
    limit = min(int(math.floor(delta)), scheme.max_handover_messages, receiver.queue_length())
    return (True, limit, False) if limit > 0 else (False, 0, False)


@pytest.mark.parametrize(
    "rgq", [RealTimeGatewayQuality(), RealTimeGatewayQuality(phi_min=0.001, phi_max=0.5)]
)
@pytest.mark.parametrize("max_handover", [1, 4, 12])
def test_robc_verdicts_match_paper_reference(rgq, max_handover):
    scheme = ROBCScheme(rgq=rgq, max_handover_messages=max_handover)
    forwarded = 0
    for packet in PACKETS:
        receivers, rssi = _world()
        expected = [
            _robc_reference(scheme, r, packet, s) for r, s in zip(receivers, rssi)
        ]
        got = scheme.on_overhear_batch(packet, receivers, rssi, CAPACITY, NOW)
        assert _decision_tuples(got) == expected, packet
        forwarded += sum(1 for d in got if d.forward)
    # The worlds exercise both verdicts, not just the early exits.
    assert 0 < forwarded
