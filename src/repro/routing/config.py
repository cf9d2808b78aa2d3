"""Routing-layer configuration: scheme parameters and buffer management.

The forwarding scheme is the paper's core contribution, yet it was the last
layer still selected by a bare name with every parameter hardcoded.
:class:`RoutingConfig` generalises that setting exactly the way
:class:`~repro.radio.config.RadioConfig` and
:class:`~repro.mobility.config.MobilityConfig` opened their layers: the
default configuration is the paper's (12-message handovers, 4 spray copies,
the Sec. V-B1 ϕ bounds, a FIFO tail-drop buffer sized by the device config),
and the simulation engine is required to reproduce the pre-routing-refactor
results bit-identically under it (pinned by
``tests/experiments/test_routing_equivalence.py``).  Scheme/buffer parameter
sweeps — the standard DTN ablation axes — are opened by changing fields.

The scheme *name* stays on :class:`~repro.experiments.config.ScenarioConfig`
(``scheme``), where it has lived since the seed and where the config digest
pins it; :class:`RoutingConfig` carries everything that parameterizes the
named scheme, and the factory registry in :mod:`repro.routing.registry`
builds the scheme object from the pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.config_fields import normalize_numbers

#: The registered buffer-management policies (see
#: :mod:`repro.mac.queueing` for the strategy objects):
#:
#: ``drop-new``
#:     Tail drop: a push into a full queue is rejected and the *new* message
#:     is lost — the conservative choice for a telemetry workload, and the
#:     paper's (default) behaviour.
#: ``drop-oldest``
#:     Head drop: a push into a full queue evicts the message at the queue
#:     head (earliest arrival) to admit the new one — fresher data survives.
#: ``ttl-expiry``
#:     Tail drop plus a per-message time-to-live: messages older than
#:     ``ttl_s`` (since creation) are expired whenever the queue is touched
#:     with a current time, so stale telemetry stops occupying the buffer
#:     and the airtime.  Requires ``ttl_s > 0``.
#: ``priority-age``
#:     Age-aware service and eviction: handover/uplink selection serves the
#:     *oldest-created* messages first (after handovers, FIFO arrival order
#:     no longer matches creation order), and a push into a full queue
#:     evicts the oldest-created message — the data least likely to still
#:     be worth carrying.
BUFFER_POLICIES: Tuple[str, ...] = (
    "drop-new",
    "drop-oldest",
    "ttl-expiry",
    "priority-age",
)


@dataclass(frozen=True)
class BufferConfig:
    """Buffer-management section of the routing configuration.

    ``capacity`` is the per-device queue size in messages; ``0`` (the
    default) inherits :attr:`~repro.mac.device.DeviceConfig.max_queue_size`,
    so a default buffer section is exactly the pre-refactor queue.  ``ttl_s``
    is the message time-to-live for the ``ttl-expiry`` policy (``0`` = no
    expiry, only valid for the other policies).
    """

    policy: str = "drop-new"
    capacity: int = 0
    ttl_s: float = 0.0

    def __post_init__(self) -> None:
        normalize_numbers(self)
        if self.policy not in BUFFER_POLICIES:
            raise ValueError(
                f"unknown buffer policy {self.policy!r}; available: {list(BUFFER_POLICIES)}"
            )
        if self.capacity < 0:
            raise ValueError(f"capacity must be >= 0 (0 = device default), got {self.capacity}")
        if self.ttl_s < 0:
            raise ValueError(f"ttl_s must be non-negative, got {self.ttl_s}")
        if self.policy == "ttl-expiry" and self.ttl_s <= 0:
            raise ValueError("the ttl-expiry policy needs a positive ttl_s")
        if self.policy != "ttl-expiry" and self.ttl_s > 0:
            raise ValueError(f"ttl_s is only meaningful for ttl-expiry, got {self.policy!r}")

    @property
    def is_default(self) -> bool:
        """True for the pre-refactor FIFO tail-drop buffer."""
        return self == BufferConfig()


@dataclass(frozen=True)
class RoutingConfig:
    """The routing-layer degrees of freedom of a scenario.

    Every default equals the value the pre-refactor engine hardcoded, so a
    default routing section is digest-transparent and bit-identical:

    * ``max_handover_messages`` — cap on messages moved/copied per
      device-to-device handover frame (all forwarding schemes).
    * ``spray_initial_copies`` — logical copy tickets per message for binary
      spray-and-wait (Spyropoulos et al.).
    * ``rgq_phi_min`` / ``rgq_phi_max`` — the Sec. V-B1 bounds of the
      Real-time Gateway Quality ϕ used by ROBC's backpressure weight.
    * ``prophet_p_init`` / ``prophet_beta`` / ``prophet_gamma`` — the
      PRoPHET delivery-predictability parameters (encounter additive
      constant, transitive scaling, per-second aging base; Lindgren et
      al.'s classic values).
    * ``buffer`` — the buffer-management section (see :class:`BufferConfig`).
    """

    max_handover_messages: int = 12
    spray_initial_copies: int = 4
    rgq_phi_min: float = 1e-6
    rgq_phi_max: float = 10.0
    prophet_p_init: float = 0.75
    prophet_beta: float = 0.25
    prophet_gamma: float = 0.998
    buffer: BufferConfig = field(default_factory=BufferConfig)

    def __post_init__(self) -> None:
        normalize_numbers(self)
        if self.max_handover_messages <= 0:
            raise ValueError("max_handover_messages must be positive")
        if self.spray_initial_copies < 1:
            raise ValueError("spray_initial_copies must be at least 1")
        if not 0 < self.rgq_phi_min <= self.rgq_phi_max:
            raise ValueError("RGQ bounds must satisfy 0 < rgq_phi_min <= rgq_phi_max")
        if not 0 < self.prophet_p_init <= 1:
            raise ValueError("prophet_p_init must be in (0, 1]")
        if not 0 <= self.prophet_beta <= 1:
            raise ValueError("prophet_beta must be in [0, 1]")
        if not 0 < self.prophet_gamma <= 1:
            raise ValueError("prophet_gamma must be in (0, 1]")

    @property
    def is_default(self) -> bool:
        """True for the pre-refactor hardcoded routing parameters."""
        return self == RoutingConfig()
