"""Path-loss models.

The paper's evaluation uses a log-distance path-loss model with shadowing and
a path-loss exponent of 2.32 (representative of sub-urban LoRa links, after
Petäjäjärvi et al.).  A free-space model is provided as a sanity baseline and
a deterministic disc model is available for unit tests that need exact
connectivity control.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

#: Reference path loss at 1 km / 868 MHz measured by Petäjäjärvi et al. (dB).
DEFAULT_REFERENCE_LOSS_DB = 128.95

#: Reference distance (metres) for :data:`DEFAULT_REFERENCE_LOSS_DB`.
DEFAULT_REFERENCE_DISTANCE_M = 1000.0

#: Path-loss exponent used in the paper's evaluation (Sec. VII-A5).
DEFAULT_PATH_LOSS_EXPONENT = 2.32

#: Shadowing standard deviation (dB) reported for the same measurement campaign.
DEFAULT_SHADOWING_SIGMA_DB = 7.8


class PathLossModel(ABC):
    """Maps a transmitter-receiver distance to received power."""

    @abstractmethod
    def path_loss_db(self, distance_m: float) -> float:
        """Deterministic (mean) path loss in dB at ``distance_m`` metres."""

    def received_power_dbm(
        self,
        tx_power_dbm: float,
        distance_m: float,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Received power = TX power − path loss − (optional) shadowing."""
        loss = self.path_loss_db(distance_m)
        if rng is None:
            return tx_power_dbm - loss
        return tx_power_dbm - loss - self.shadowing_db(rng)

    def shadowing_db(self, rng: Optional[np.random.Generator]) -> float:
        """Shadowing sample in dB; zero unless the model defines one and an RNG is given.

        :meth:`received_power_dbm` does not call it without an RNG.
        """
        return 0.0


class FreeSpacePathLoss(PathLossModel):
    """Free-space (Friis) path loss, mainly a reference/sanity model."""

    def __init__(self, frequency_hz: float = 868e6) -> None:
        if frequency_hz <= 0:
            raise ValueError(f"frequency must be positive, got {frequency_hz}")
        self.frequency_hz = frequency_hz

    def path_loss_db(self, distance_m: float) -> float:
        if distance_m < 0:
            raise ValueError(f"distance must be non-negative, got {distance_m}")
        distance = max(distance_m, 1.0)
        return 20.0 * math.log10(distance) + 20.0 * math.log10(self.frequency_hz) - 147.55


class LogDistancePathLoss(PathLossModel):
    """Log-distance path loss with optional log-normal shadowing.

    ``PL(d) = PL(d0) + 10 * n * log10(d / d0) + X_sigma`` where ``X_sigma`` is
    a zero-mean Gaussian in dB.
    """

    def __init__(
        self,
        exponent: float = DEFAULT_PATH_LOSS_EXPONENT,
        reference_loss_db: float = DEFAULT_REFERENCE_LOSS_DB,
        reference_distance_m: float = DEFAULT_REFERENCE_DISTANCE_M,
        shadowing_sigma_db: float = DEFAULT_SHADOWING_SIGMA_DB,
    ) -> None:
        if exponent <= 0:
            raise ValueError(f"path-loss exponent must be positive, got {exponent}")
        if reference_distance_m <= 0:
            raise ValueError("reference distance must be positive")
        if shadowing_sigma_db < 0:
            raise ValueError("shadowing sigma must be non-negative")
        self.exponent = exponent
        self.reference_loss_db = reference_loss_db
        self.reference_distance_m = reference_distance_m
        self.shadowing_sigma_db = shadowing_sigma_db

    def path_loss_db(self, distance_m: float) -> float:
        if distance_m < 0:
            raise ValueError(f"distance must be non-negative, got {distance_m}")
        distance = max(distance_m, 1.0)
        return self.reference_loss_db + 10.0 * self.exponent * math.log10(
            distance / self.reference_distance_m
        )

    def shadowing_db(self, rng: Optional[np.random.Generator]) -> float:
        if rng is None or self.shadowing_sigma_db == 0.0:
            return 0.0
        return float(rng.normal(0.0, self.shadowing_sigma_db))

    def range_for_sensitivity(self, tx_power_dbm: float, sensitivity_dbm: float) -> float:
        """Distance (m) at which the *mean* received power equals ``sensitivity_dbm``."""
        budget_db = tx_power_dbm - sensitivity_dbm - self.reference_loss_db
        return self.reference_distance_m * (10.0 ** (budget_db / (10.0 * self.exponent)))


class DiscPathLoss(PathLossModel):
    """A unit-disc model: zero loss inside ``radius_m``, infinite outside.

    This is not physical; it exists so protocol unit tests can construct exact
    contact patterns without worrying about dB budgets.
    """

    def __init__(self, radius_m: float, in_range_rssi_dbm: float = -60.0) -> None:
        if radius_m <= 0:
            raise ValueError(f"radius must be positive, got {radius_m}")
        self.radius_m = radius_m
        self.in_range_rssi_dbm = in_range_rssi_dbm

    def path_loss_db(self, distance_m: float) -> float:
        if distance_m < 0:
            raise ValueError(f"distance must be non-negative, got {distance_m}")
        return 0.0 if distance_m <= self.radius_m else float("inf")

    def received_power_dbm(
        self,
        tx_power_dbm: float,
        distance_m: float,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        if distance_m <= self.radius_m:
            return self.in_range_rssi_dbm
        return float("-inf")
