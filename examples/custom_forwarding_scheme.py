"""Plug a custom forwarding scheme into the simulator.

The public :class:`~repro.routing.base.ForwardingScheme` interface lets you
experiment with your own handover policies without touching the engine.  This
example implements a simple "forward only to nearly-idle, recently-connected
neighbours" policy and compares it against ROBC on the same scenario.

Two integration points exist:

* swap a hand-built scheme *object* onto a built scenario (shown in
  ``run_with_scheme`` below), or
* register a *factory* with ``repro.routing.register_scheme_factory`` so the
  scheme name becomes valid in any ``ScenarioConfig`` — scenario files,
  sweeps and the executor cache then treat it like a built-in (shown in
  ``main``).

Usage::

    PYTHONPATH=src python examples/custom_forwarding_scheme.py
"""

from typing import List, Sequence

from repro.experiments import ScenarioConfig, run_scenario
from repro.experiments.runner import MLoRaSimulation
from repro.experiments.scenario import build_scenario
from repro.mac.device import EndDevice
from repro.mac.frames import UplinkPacket
from repro.phy.link import LinkCapacityModel
from repro.routing import register_scheme_factory
from repro.routing.base import ForwardingDecision, ForwardingScheme


class ConservativeHandover(ForwardingScheme):
    """Hand over only when the neighbour looks much better and nearly idle.

    The policy requires the neighbour's advertised RCA-ETX to be at least
    ``advantage_factor`` times smaller than our own and its queue to be below
    ``max_neighbour_queue`` messages, trading some delay for a very low
    forwarding overhead.
    """

    name = "conservative"
    requires_queue_length = True
    uses_forwarding = True

    def __init__(self, advantage_factor: float = 4.0, max_neighbour_queue: int = 6) -> None:
        self.advantage_factor = advantage_factor
        self.max_neighbour_queue = max_neighbour_queue

    def on_overhear_batch(
        self,
        packet: UplinkPacket,
        receivers: Sequence[EndDevice],
        rssi_dbm: Sequence[float],
        capacity_model: LinkCapacityModel,
        now: float,
    ) -> List[ForwardingDecision]:
        # One decision per overhearer of ``packet``.  Each reads only its own
        # receiver and the packet, which is the hook's contract: the engine
        # may run the handovers after deciding the whole batch.
        if packet.rca_etx_s is None or packet.queue_length is None:
            return [ForwardingDecision.no()] * len(receivers)
        if packet.queue_length > self.max_neighbour_queue:
            return [ForwardingDecision.no()] * len(receivers)
        threshold = self.advantage_factor * packet.rca_etx_s
        decisions = []
        for receiver in receivers:
            if receiver.has_data() and receiver.rca_etx.sink_metric() >= threshold:
                limit = min(6, receiver.queue_length())
                decisions.append(ForwardingDecision(forward=True, message_limit=limit))
            else:
                decisions.append(ForwardingDecision.no())
        return decisions


def run_with_scheme(config: ScenarioConfig, scheme: ForwardingScheme):
    """Build a scenario and swap in an externally constructed scheme object."""
    scenario = build_scenario(config)
    scenario.scheme = scheme
    simulation = MLoRaSimulation(scenario)
    metrics = simulation.run()
    return metrics, simulation.handover_count


def main() -> None:
    base = ScenarioConfig(
        name="custom-scheme",
        seed=23,
        duration_s=2 * 3600.0,
        area_km2=40.0,
        num_gateways=4,
        num_routes=8,
        trips_per_route=4,
        device_range_m=1000.0,
        scheme="robc",  # placeholder; replaced below for the custom run
    )

    robc_metrics, robc_handovers = run_with_scheme(base, build_scenario(base).scheme)
    custom_metrics, custom_handovers = run_with_scheme(base, ConservativeHandover())

    # The registry route: once a factory is registered, the name works
    # everywhere a built-in scheme name does (the max_handover_messages knob
    # of the scenario's RoutingConfig caps the custom handovers too).
    register_scheme_factory(
        "conservative",
        lambda routing: ConservativeHandover(
            max_neighbour_queue=min(6, routing.max_handover_messages)
        ),
    )
    registered_metrics = run_scenario(base.with_scheme("conservative"))

    print("ROBC:")
    print(f"  delivered={robc_metrics.messages_delivered}"
          f"  mean delay={robc_metrics.mean_delay_s:.1f}s  handovers={robc_handovers}")
    print("Conservative custom scheme:")
    print(f"  delivered={custom_metrics.messages_delivered}"
          f"  mean delay={custom_metrics.mean_delay_s:.1f}s  handovers={custom_handovers}")
    print("Conservative via registered factory:")
    print(f"  delivered={registered_metrics.messages_delivered}"
          f"  mean delay={registered_metrics.mean_delay_s:.1f}s")


if __name__ == "__main__":
    main()
