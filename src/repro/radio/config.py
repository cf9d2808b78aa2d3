"""Radio-layer configuration: channel plan and spreading-factor policy.

The paper's evaluation fixes every device to one shared SF7 channel
(Sec. VII-A5).  :class:`RadioConfig` generalises that setting without
abandoning it: the default configuration (one channel, ``fixed-sf7``) is the
paper's, and the simulation engine is required to reproduce the pre-radio
refactor results bit-identically under it (pinned by
``tests/experiments/test_radio_equivalence.py``).  Multi-channel,
multi-spreading-factor deployments — the standard LoRaWAN shape, cf. the
``simulateur_lora_sfrd`` lineage of simulators — are opened by raising
``num_channels`` and choosing an SF allocation policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.config_fields import normalize_numbers

#: The registered spreading-factor allocation policies:
#:
#: ``fixed-sf7``
#:     Every device uses SF7, the paper's setting.
#: ``distance-based``
#:     SF grows with the distance from the device's first known position to
#:     the nearest gateway (near devices get fast SF7 rings, far ones the
#:     long-range SF12 ring) — the classic static ADR-like allocation.
#: ``random``
#:     Uniform random SF7–SF12 per device from the scenario's dedicated
#:     ``sf-allocation`` random stream.
SF_POLICIES: Tuple[str, ...] = ("fixed-sf7", "distance-based", "random")

#: EU868 defines three mandatory 125 kHz uplink channels and allows eight;
#: the channel plan here is abstract (indices, not frequencies), so any
#: positive count is accepted, but presets stay within the EU868 limit.
MAX_EU868_UPLINK_CHANNELS = 8


@dataclass(frozen=True)
class RadioConfig:
    """The radio-layer degrees of freedom of a scenario.

    ``num_channels`` is the number of orthogonal uplink channels; devices are
    assigned one deterministically (round-robin by device index) and stay on
    it, as Class-A/C sensor firmware commonly does.  ``sf_policy`` names how
    spreading factors are allocated across the fleet (see
    :data:`SF_POLICIES`).
    """

    num_channels: int = 1
    sf_policy: str = "fixed-sf7"

    def __post_init__(self) -> None:
        normalize_numbers(self)
        if self.num_channels < 1:
            raise ValueError(f"num_channels must be >= 1, got {self.num_channels}")
        if self.sf_policy not in SF_POLICIES:
            raise ValueError(
                f"unknown sf_policy {self.sf_policy!r}; available: {list(SF_POLICIES)}"
            )

    @property
    def is_default(self) -> bool:
        """True for the paper's single-channel fixed-SF7 configuration."""
        return self == RadioConfig()
