"""The pluggable radio-medium subsystem.

:class:`~repro.radio.config.RadioConfig` describes a scenario's channel plan
and spreading-factor policy, :mod:`~repro.radio.sf_policy` allocates per-device
(SF, channel) assignments, and :class:`~repro.radio.medium.RadioMedium` is the
shared medium both simulation engines transmit through: per-SF airtime and
sensitivity, the same-SF/same-channel collision+capture model, and eviction
of frames that can no longer collide.
"""

from repro.radio.config import MAX_EU868_UPLINK_CHANNELS, SF_POLICIES, RadioConfig
from repro.radio.medium import RadioMedium
from repro.radio.sf_policy import RadioAssignment, allocate_radio, distance_based_sf

__all__ = [
    "MAX_EU868_UPLINK_CHANNELS",
    "RadioAssignment",
    "RadioConfig",
    "RadioMedium",
    "SF_POLICIES",
    "allocate_radio",
    "distance_based_sf",
]
