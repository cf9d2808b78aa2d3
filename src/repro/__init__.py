"""repro: a reproduction of "Contact-Aware Opportunistic Data Forwarding in
Disconnected LoRaWAN Mobile Networks" (Chen et al., ICDCS 2020).

The package provides:

* the paper's metrics and protocols — RCA-ETX, ROBC, Modified Class-C and
  Queue-based Class-A (:mod:`repro.core`, :mod:`repro.routing`,
  :mod:`repro.mac`);
* the full simulation substrate they are evaluated on — a discrete-event
  kernel, a LoRa PHY, a LoRaWAN MAC, a synthetic London bus network and a
  time-varying contact topology (:mod:`repro.sim`, :mod:`repro.phy`,
  :mod:`repro.mobility`, :mod:`repro.network`);
* an experiment harness reproducing every figure of the paper's evaluation,
  with a scenario-preset registry and the ``repro`` CLI on top
  (:mod:`repro.experiments`, :mod:`repro.analysis`).

Quickstart::

    from repro.experiments import get_preset, run_scenario

    metrics = run_scenario(get_preset("urban").config)
    print(metrics.mean_delay_s, metrics.throughput_messages)

or, from a shell, the bit-identical ``repro run urban`` (see ``repro list``
for the full catalogue, and docs/scenarios.md for what each preset
reproduces).
"""

from repro.analysis import RunMetrics
from repro.experiments import ScenarioConfig, run_scenario

__version__ = "1.0.0"

__all__ = [
    "RunMetrics",
    "ScenarioConfig",
    "run_scenario",
    "__version__",
]
