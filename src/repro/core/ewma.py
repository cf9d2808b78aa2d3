"""Exponentially weighted moving average (paper Eq. 4).

``E[µ'(t)] = (1 − α) · E[µ'(t − ∆t)] + α · µ'(t)`` with ``E[µ'(0)] = µ'(0)``.
A higher α adapts faster to the most recent Real-time PST sample but makes
scheduling less stable; the paper's evaluation fixes α = 0.5 and the
``alpha`` sweep (``repro sweep alpha``) varies it.
"""

from __future__ import annotations

import math
from typing import Optional


class ExponentialMovingAverage:
    """A single-valued EWMA estimator with the paper's initialisation rule."""

    def __init__(self, alpha: float = 0.5) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._value: Optional[float] = None
        self._samples = 0

    @property
    def value(self) -> Optional[float]:
        """Current estimate, or ``None`` before the first sample."""
        return self._value

    @property
    def sample_count(self) -> int:
        """Number of samples folded in so far."""
        return self._samples

    @property
    def initialised(self) -> bool:
        """True once at least one sample has been observed."""
        return self._value is not None

    def update(self, sample: float) -> float:
        """Fold ``sample`` into the estimate and return the new value."""
        if math.isnan(sample) or math.isinf(sample):
            raise ValueError(f"EWMA samples must be finite, got {sample}")
        if self._value is None:
            self._value = float(sample)
        else:
            self._value = (1.0 - self.alpha) * self._value + self.alpha * float(sample)
        self._samples += 1
        return self._value

    def reset(self) -> None:
        """Forget all history."""
        self._value = None
        self._samples = 0
