"""The shared radio medium: airtime, interference, capture and reception.

Everything between "a device decides to transmit" and "a receiver decodes the
frame (or not)" lives here, extracted out of the simulation engine so that
scenarios can vary the radio layer without touching the event loop:

* per-spreading-factor time on air (Semtech AN1200.13 via
  :class:`~repro.phy.airtime.AirtimeCalculator`, with the low-data-rate
  optimisation engaged automatically where the spec requires it);
* per-spreading-factor receiver sensitivity
  (:class:`~repro.phy.link.LinkQualityEstimator` over the SX1276 tables in
  :mod:`repro.phy.constants`);
* the collision/capture model: same-SF same-channel overlapping frames
  interfere (strongest survives given a 6 dB capture margin), cross-SF and
  cross-channel frames are orthogonal
  (:class:`~repro.phy.collision.CollisionModel`);
* registry hygiene: :meth:`RadioMedium.prune` evicts every frame that can no
  longer overlap a frame still to be resolved, bounding memory and
  interference-scan cost.

Both simulation engines transmit, resolve and prune through this one medium,
so the collision registry has a single implementation.

The medium also owns the reception random stream; the draw order is part of
the seed-equivalence contract with the pre-refactor engine, so
:meth:`resolve_gateway_reception` replicates the historical resolution order
exactly (candidates by descending RSSI, collision check before the
link-quality draw).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Container, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.phy.airtime import AirtimeCalculator, LoRaTransmissionParameters
from repro.phy.collision import CollisionModel, Transmission
from repro.phy.constants import MAX_PHY_PAYLOAD_BYTES, SpreadingFactor
from repro.phy.link import LinkQualityEstimator
from repro.radio.config import RadioConfig

#: Symbol times above this engage the LoRa low-data-rate optimisation
#: (Semtech AN1200.13: mandatory for symbol durations exceeding 16 ms,
#: i.e. SF11 and SF12 at 125 kHz).
_LDRO_SYMBOL_TIME_S = 0.016


class RadioMedium:
    """Channels, airtime, collisions and reception for one simulation run."""

    def __init__(
        self,
        config: RadioConfig = RadioConfig(),
        reception_rng: Optional[np.random.Generator] = None,
        parameters: LoRaTransmissionParameters = LoRaTransmissionParameters(),
        capture_threshold_db: Optional[float] = None,
    ) -> None:
        self.config = config
        self._reception_rng = reception_rng
        self._parameters = parameters
        self.collisions = (
            CollisionModel()
            if capture_threshold_db is None
            else CollisionModel(capture_threshold_db)
        )
        self._airtime_by_sf: Dict[SpreadingFactor, AirtimeCalculator] = {}
        self._quality_by_sf: Dict[SpreadingFactor, LinkQualityEstimator] = {}
        self._airtime_cache: Dict[Tuple[int, SpreadingFactor], float] = {}

    # ------------------------------------------------------------------ #
    # Per-SF radio parameters
    # ------------------------------------------------------------------ #
    def airtime_calculator(self, spreading_factor: SpreadingFactor) -> AirtimeCalculator:
        """The (cached) airtime calculator for ``spreading_factor``."""
        calculator = self._airtime_by_sf.get(spreading_factor)
        if calculator is None:
            parameters = replace(self._parameters, spreading_factor=spreading_factor)
            symbol_time = (2 ** int(spreading_factor)) / parameters.bandwidth_hz
            if symbol_time > _LDRO_SYMBOL_TIME_S and not parameters.low_data_rate_optimize:
                parameters = replace(parameters, low_data_rate_optimize=True)
            calculator = AirtimeCalculator(parameters)
            self._airtime_by_sf[spreading_factor] = calculator
        return calculator

    def airtime_s(
        self,
        payload_bytes: int,
        spreading_factor: SpreadingFactor = SpreadingFactor.SF7,
    ) -> float:
        """Time on air of a frame, payload clamped to the LoRa maximum."""
        key = (payload_bytes, spreading_factor)
        airtime = self._airtime_cache.get(key)
        if airtime is None:
            calculator = self.airtime_calculator(spreading_factor)
            airtime = calculator.time_on_air_s(min(payload_bytes, MAX_PHY_PAYLOAD_BYTES))
            self._airtime_cache[key] = airtime
        return airtime

    def link_quality(self, spreading_factor: SpreadingFactor) -> LinkQualityEstimator:
        """The (cached) sensitivity-based reception estimator for ``spreading_factor``."""
        estimator = self._quality_by_sf.get(spreading_factor)
        if estimator is None:
            estimator = LinkQualityEstimator(spreading_factor=spreading_factor)
            self._quality_by_sf[spreading_factor] = estimator
        return estimator

    # ------------------------------------------------------------------ #
    # Transmission lifecycle
    # ------------------------------------------------------------------ #
    def transmit(
        self,
        sender: str,
        now: float,
        payload_bytes: int,
        rssi_by_receiver: Mapping[str, float],
        spreading_factor: SpreadingFactor = SpreadingFactor.SF7,
        channel: int = 0,
        airtime_s: Optional[float] = None,
    ) -> Transmission:
        """Put a frame on the air and return its transmission.

        ``airtime_s`` lets a caller that already computed the frame duration
        (for duty-cycle accounting) reuse it, so the scheduled completion
        time and the registered occupancy cannot diverge.  Only a frame that
        some receiver hears is registered: an unheard frame has no RSSI
        entry anywhere, so it is never received and never interferes.
        """
        if airtime_s is None:
            airtime_s = self.airtime_s(payload_bytes, spreading_factor)
        transmission = Transmission(
            sender=sender,
            start_time=now,
            duration=airtime_s,
            channel=channel,
            spreading_factor=spreading_factor,
            rssi_by_receiver=dict(rssi_by_receiver),
        )
        if transmission.rssi_by_receiver:
            self.collisions.add(transmission)
        return transmission

    def is_decodable(self, transmission: Transmission, receiver: str) -> bool:
        """Collision/capture verdict alone (no link-quality randomness).

        This is the device-to-device overhearing check: a neighbour close
        enough to have an RSSI entry decodes the frame unless a same-channel
        same-SF collision without capture destroys it.
        """
        return self.collisions.is_received(transmission, receiver)

    def resolve_gateway_reception(
        self, transmission: Transmission, gateway_ids: Container[str]
    ) -> Optional[str]:
        """The gateway (if any) that decodes the frame, best RSSI first.

        Candidates are the receivers of ``transmission`` that are gateways;
        they are tried in descending RSSI order and the first one that
        survives both the capture check and the link-quality draw wins.
        """
        candidates = [
            (rssi, receiver)
            for receiver, rssi in transmission.rssi_by_receiver.items()
            if receiver in gateway_ids
        ]
        quality = self.link_quality(transmission.spreading_factor)
        for rssi, gateway_id in sorted(candidates, reverse=True):
            if not self.collisions.is_received(transmission, gateway_id):
                continue
            if quality.frame_received(rssi, self._reception_rng):
                return gateway_id
        return None

    # ------------------------------------------------------------------ #
    # Registry hygiene
    # ------------------------------------------------------------------ #
    def prune(self, now: float) -> None:
        """Evict the frames that can no longer overlap one resolved at or after ``now``.

        Cheap to call on every completion: only the evicted frames and one
        check per (channel, SF) bucket are touched.
        """
        self.collisions.prune(now)

    def __len__(self) -> int:
        """Number of transmissions currently registered."""
        return len(self.collisions)
