"""The event-driven MLoRa-SS simulation engine.

The engine mirrors the evaluation setup of Sec. VII-A:

* every bus carries a LoRa device that generates a 20-byte message every
  3 minutes while it is in service and stores it in a FIFO queue;
* at every message generation (and at retransmission opportunities after a
  failed uplink) the device bundles up to 12 queued messages, appends its
  RCA-ETX value (and queue length for ROBC) and transmits with its assigned
  spreading factor and channel (the paper's setting: everyone on SF7, one
  channel), subject to the 1 % duty cycle;
* gateways within range decode the frame unless a same-SF same-channel
  collision without capture destroys it; the network server deduplicates and
  acknowledges instantly, clearing the acknowledged messages from the queue;
* every *listening* device within device-to-device range overhears the frame
  and consults the forwarding scheme; a positive decision triggers a
  device-to-device handover frame (also duty-cycle constrained) that moves —
  or, for the DTN baselines, copies — part of the overhearing device's queue
  onto the transmitter;
* failed uplinks are retried up to eight times, each retry waiting out the
  duty-cycle off-time.

Everything radio — airtime per SF, sensitivity per SF, the collision/capture
model, channel orthogonality, collision-registry pruning — lives in
:class:`~repro.radio.medium.RadioMedium`; this module is pure orchestration:
it decides *when* frames are sent and what the MAC/routing layers do with the
outcomes, never *how* the medium treats them.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.metrics import RunMetrics, compute_run_metrics
from repro.engine.config import ENGINES
from repro.experiments.config import ScenarioConfig
from repro.experiments.scenario import BuiltScenario, build_scenario
from repro.mac.device import EndDevice
from repro.mac.frames import UplinkPacket
from repro.mac.network_server import NetworkServer
from repro.phy.collision import Transmission
from repro.radio.medium import RadioMedium
from repro.sim.kernel import ATTEMPT_PRIORITY, COMPLETION_PRIORITY, Simulator


class MLoRaSimulation:
    """One complete simulation run of a built scenario."""

    def __init__(
        self, scenario: BuiltScenario, medium: Optional[RadioMedium] = None
    ) -> None:
        self.scenario = scenario
        self.config = scenario.config
        self.simulator = Simulator()
        self.server = NetworkServer()
        self.medium = medium or RadioMedium(
            config=self.config.radio,
            reception_rng=scenario.streams.stream("reception"),
        )
        self._attempt_scheduled: Dict[str, bool] = {
            device_id: False for device_id in scenario.devices
        }
        # Hoisted once: consulted on every uplink; when False the neighbour
        # overhear fan-out (range query + per-neighbour listening checks) is
        # skipped entirely — plain LoRaWAN pays nothing for the routing hook.
        self._uses_forwarding = scenario.scheme.uses_forwarding
        self._handover_count = 0
        self._handed_over_messages = 0

    # ------------------------------------------------------------------ #
    # Run control
    # ------------------------------------------------------------------ #
    def run(self) -> RunMetrics:
        """Execute the scenario and return the run metrics."""
        self._schedule_generation_processes()
        self.simulator.run(until=self.config.duration_s)
        self._account_idle_energy()
        return compute_run_metrics(
            scheme=self.config.scheme,
            num_gateways=self.config.num_gateways,
            device_range_m=self.config.device_range_m,
            duration_s=self.config.duration_s,
            devices=list(self.scenario.devices.values()),
            server=self.server,
        )

    # ------------------------------------------------------------------ #
    # Message generation
    # ------------------------------------------------------------------ #
    def _schedule_generation_processes(self) -> None:
        interval = self.config.device.message_interval_s
        for device_id, trace in self.scenario.traces.items():
            start = max(trace.start_time, 0.0)
            if start >= self.config.duration_s:
                continue
            time = start
            end = min(trace.end_time, self.config.duration_s)
            while time < end:
                self.simulator.schedule(
                    time,
                    self._on_generation_tick,
                    payload=device_id,
                    priority=ATTEMPT_PRIORITY,
                )
                time += interval

    def _on_generation_tick(self, device_id: str) -> None:
        device = self.scenario.devices[device_id]
        now = self.simulator.now
        trace = self.scenario.traces[device_id]
        if not trace.is_active(now):
            return
        device.generate_message(now)
        self._attempt_uplink(device_id)

    # ------------------------------------------------------------------ #
    # Uplink attempts
    # ------------------------------------------------------------------ #
    def _schedule_attempt(self, device_id: str, time: float) -> None:
        if self._attempt_scheduled.get(device_id):
            return
        if time >= self.config.duration_s:
            return
        self._attempt_scheduled[device_id] = True
        self.simulator.schedule(
            max(time, self.simulator.now),
            self._on_scheduled_attempt,
            payload=device_id,
            priority=ATTEMPT_PRIORITY,
        )

    def _on_scheduled_attempt(self, device_id: str) -> None:
        self._attempt_scheduled[device_id] = False
        self._attempt_uplink(device_id)

    def _attempt_uplink(self, device_id: str) -> None:
        device = self.scenario.devices[device_id]
        now = self.simulator.now
        trace = self.scenario.traces[device_id]
        if not trace.is_active(now):
            return
        # TTL buffer policies expire stale messages here, so a queue holding
        # only expired data reads as empty (no-op for the default policy).
        device.queue.expire(now)
        if not device.has_data():
            return
        if not device.can_transmit(now):
            self._schedule_attempt(device_id, device.next_transmission_time)
            return
        self._transmit_uplink(device)

    def _transmit_uplink(self, device: EndDevice) -> None:
        now = self.simulator.now
        topology = self.scenario.topology
        scheme = self.scenario.scheme

        # The transmission slot doubles as the RCA-ETX observation point: the
        # device measures its current sink capacity and refreshes its RPST.
        gateways_in_range = topology.gateways_in_range(device.device_id, now)
        sink_capacity = max(
            (link.capacity_bps for _, link in gateways_in_range), default=0.0
        )
        device.rca_etx.observe_transmission_slot(now, sink_capacity, wait_s=0.0)
        # Stateful schemes (PRoPHET delivery predictabilities) observe the
        # same slot; the default implementation is a no-op.
        scheme.observe_transmission_slot(device.device_id, sink_capacity > 0.0, now)

        packet = device.build_uplink(now, include_queue_length=scheme.requires_queue_length)
        airtime_s = self.medium.airtime_s(packet.payload_bytes, device.spreading_factor)
        device.record_uplink(now, airtime_s)

        rssi_by_receiver: Dict[str, float] = {}
        for gateway_id, link in gateways_in_range:
            if self.scenario.gateways[gateway_id].listens_on(device.channel):
                rssi_by_receiver[gateway_id] = link.rssi_dbm
        overhearers: Dict[str, float] = {}
        if self._uses_forwarding:
            for neighbour_id, link in topology.neighbours(device.device_id, now):
                neighbour = self.scenario.devices[neighbour_id]
                # A single-radio neighbour only hears frames on its own
                # commissioned channel and spreading factor (trivially true in
                # the paper's shared-SF7 single-channel setting).
                if (
                    neighbour.channel == device.channel
                    and neighbour.spreading_factor == device.spreading_factor
                    and neighbour.is_listening(now)
                ):
                    rssi_by_receiver[neighbour_id] = link.rssi_dbm
                    overhearers[neighbour_id] = link.rssi_dbm

        transmission = self.medium.transmit(
            sender=device.device_id,
            now=now,
            payload_bytes=packet.payload_bytes,
            rssi_by_receiver=rssi_by_receiver,
            spreading_factor=device.spreading_factor,
            channel=device.channel,
            airtime_s=airtime_s,
        )
        self.simulator.schedule(
            now + airtime_s,
            self._on_uplink_complete,
            payload=(device.device_id, packet, transmission, overhearers),
            priority=COMPLETION_PRIORITY,
        )

    # ------------------------------------------------------------------ #
    # Uplink resolution
    # ------------------------------------------------------------------ #
    def _on_uplink_complete(self, payload) -> None:
        device_id, packet, transmission, overhearers = payload
        device = self.scenario.devices[device_id]
        now = self.simulator.now

        delivered_gateway = self.medium.resolve_gateway_reception(
            transmission, self.scenario.gateways
        )
        if delivered_gateway is not None:
            ack = self.server.process_uplink(packet, delivered_gateway, now)
            self.scenario.gateways[delivered_gateway].receive(packet)
            device.on_acknowledged(ack.acked_message_ids)
            # Keep draining the backlog: a device with more queued data uses
            # its next duty-cycle opportunity instead of waiting for the next
            # generation tick.
            if device.has_data():
                self._schedule_attempt(device_id, device.next_transmission_time)
        else:
            retry_allowed = device.on_uplink_failed()
            if retry_allowed and device.has_data():
                self._schedule_attempt(device_id, device.next_transmission_time)

        if self._uses_forwarding:
            self._resolve_overhearing(device, packet, transmission, overhearers)

        self.medium.prune(now)

    # ------------------------------------------------------------------ #
    # Overhearing and handovers
    # ------------------------------------------------------------------ #
    def _resolve_overhearing(
        self,
        sender: EndDevice,
        packet: UplinkPacket,
        transmission: Transmission,
        overhearers: Dict[str, float],
    ) -> None:
        now = self.simulator.now
        scheme = self.scenario.scheme
        capacity_model = self.scenario.topology.capacity_model_for(sender.device_id)
        # One receiver at a time, each handover before the next decision: the
        # interleaved order the array engine's decide-all-first order is
        # checked against.
        for neighbour_id, rssi in overhearers.items():
            neighbour = self.scenario.devices[neighbour_id]
            if not self.medium.is_decodable(transmission, neighbour_id):
                continue
            (decision,) = scheme.on_overhear_batch(
                packet, [neighbour], [rssi], capacity_model, now
            )
            if not decision.forward:
                continue
            self._perform_handover(neighbour, sender, decision.message_limit, decision.copy)

    def _perform_handover(
        self, giver: EndDevice, taker: EndDevice, limit: int, copy: bool
    ) -> None:
        now = self.simulator.now
        if not giver.can_transmit(now):
            # The duty cycle forbids an immediate handover frame; the
            # opportunity is simply lost, as it would be on hardware.
            return
        if not self.scenario.topology.in_contact(giver.device_id, taker.device_id, now):
            return
        if copy:
            # The carrier keeps its messages; the scheme picks and copies them
            # (spray-and-wait splits tickets) and the taker stores the copies.
            messages, accepted = self.scenario.scheme.hand_over_copies(giver, taker, limit, now)
        else:
            messages = giver.transferable_messages(taker.device_id, limit, now=now)
        if not messages:
            return

        payload_bytes = 13 + sum(m.size_bytes for m in messages)
        airtime_s = self.medium.airtime_s(payload_bytes, giver.spreading_factor)
        giver.record_handover_transmission(now, airtime_s)

        # The handover frame occupies the giver's uplink channel, so it
        # interferes with any gateway that can hear the giver on it.  This is
        # the congestion cost of device-to-device forwarding.
        handover_rssi = {
            gateway_id: link.rssi_dbm
            for gateway_id, link in self.scenario.topology.gateways_in_range(
                giver.device_id, now
            )
            if self.scenario.gateways[gateway_id].listens_on(giver.channel)
        }
        if handover_rssi:
            self.medium.transmit(
                sender=giver.device_id,
                now=now,
                payload_bytes=payload_bytes,
                rssi_by_receiver=handover_rssi,
                spreading_factor=giver.spreading_factor,
                channel=giver.channel,
                airtime_s=airtime_s,
            )

        if not copy:
            messages = giver.release_messages(m.message_id for m in messages)
            accepted = taker.accept_handover(messages, giver.device_id, now=now)
        self._handover_count += 1
        self._handed_over_messages += accepted
        # The new carrier uploads at its next opportunity; make sure one exists
        # even if its own generation tick is far away.
        self._schedule_attempt(taker.device_id, taker.next_transmission_time)

    # ------------------------------------------------------------------ #
    # Energy
    # ------------------------------------------------------------------ #
    def _account_idle_energy(self) -> None:
        account_idle_energy(self.scenario, self.config.duration_s)

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    @property
    def handover_count(self) -> int:
        """Number of device-to-device handover frames sent."""
        return self._handover_count

    @property
    def handed_over_messages(self) -> int:
        """Number of messages that changed carrier at least once via this engine."""
        return self._handed_over_messages


def account_idle_energy(scenario: BuiltScenario, duration_s: float) -> None:
    """Charge every device for its in-window idle (non-transmitting) time.

    Shared by both engines: a device is powered while its trace is in service
    and inside the simulated window; whatever part of that it did not spend
    transmitting splits between listening and sleep according to its device
    class.

    The recorded airtime can overshoot the window: a frame whose transmission
    starts just before ``duration_s`` keeps transmitting past it, and the full
    airtime is on the duty-cycle books.  Only the *last* frame can straddle
    the boundary (the mandatory off-time after any frame dwarfs the frame
    itself, so a device's own frames never overlap), so the overshoot is
    exactly ``last_uplink_end - active_end`` and is clipped from the TX time
    charged against the active interval.
    """
    for device_id, device in scenario.devices.items():
        trace = scenario.traces[device_id]
        active_start = min(trace.start_time, duration_s)
        active_end = min(trace.end_time, duration_s)
        active = max(active_end - active_start, 0.0)
        tx_time = device.duty_cycle.total_airtime_s
        overshoot = max(device.last_uplink_end - active_end, 0.0)
        device.account_idle_period(max(active - (tx_time - overshoot), 0.0))


def run_engine(scenario: BuiltScenario, engine: str) -> RunMetrics:
    """Run a built scenario on the engine named ``engine``.

    The name is taken as given: the ``REPRO_ENGINE`` override applies only
    in :func:`run_scenario`, so a caller timing one engine against the other
    always gets the engine it asked for.
    """
    if engine == "array":
        from repro.engine.array_engine import ArrayMLoRaSimulation

        return ArrayMLoRaSimulation(scenario).run()
    if engine == "object":
        return MLoRaSimulation(scenario).run()
    raise ValueError(f"unknown engine {engine!r}; available: {list(ENGINES)}")


def run_scenario(config: ScenarioConfig) -> RunMetrics:
    """Build and run a scenario in one call.

    The engine comes from the configuration's ``engine`` section, with the
    ``REPRO_ENGINE`` environment variable overriding the default (see
    :func:`repro.engine.resolve_engine_name`).
    """
    from repro.engine import resolve_engine_name

    return run_engine(build_scenario(config), resolve_engine_name(config))
