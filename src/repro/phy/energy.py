"""Radio states and energy accounting.

The paper's Sec. VI / VII-C discussion compares Modified Class-C (always
listening) against Queue-based Class-A (receive windows sized by backlog) in
terms of energy.  This module provides the current-draw bookkeeping needed for
that ablation: the device MAC reports how long it spent in each radio state
and the :class:`EnergyModel` converts that into charge/energy figures.

Default current draws correspond to an SX1276 at +14 dBm with a 3.3 V supply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict


class RadioState(Enum):
    """Operating states of a LoRa radio."""

    SLEEP = "sleep"
    IDLE = "idle"
    RX = "rx"
    TX = "tx"

    # Members are singletons compared by identity, so the C-level identity
    # hash agrees with ``Enum.__eq__``; it replaces Enum's Python-level
    # ``hash(self._name_)`` on every energy-book update.
    __hash__ = object.__hash__


#: Typical SX1276 current draw per state, in milliamps.
DEFAULT_CURRENT_MA: Dict[RadioState, float] = {
    RadioState.SLEEP: 0.0002,
    RadioState.IDLE: 1.5,
    RadioState.RX: 11.5,
    RadioState.TX: 44.0,
}


@dataclass
class EnergyModel:
    """Accumulates time per radio state and converts it to energy.

    The model is intentionally integral-free: callers report state dwell
    times explicitly (``accumulate(state, seconds)``), which composes cleanly
    with the event-driven MAC where state transitions are already explicit.
    """

    supply_voltage_v: float = 3.3
    current_ma: Dict[RadioState, float] = field(default_factory=lambda: dict(DEFAULT_CURRENT_MA))
    _seconds: Dict[RadioState, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.supply_voltage_v <= 0:
            raise ValueError("supply voltage must be positive")
        for state in RadioState:
            self.current_ma.setdefault(state, DEFAULT_CURRENT_MA[state])
            self._seconds.setdefault(state, 0.0)

    def accumulate(self, state: RadioState, seconds: float) -> None:
        """Add ``seconds`` of dwell time in ``state``."""
        if seconds < 0:
            raise ValueError(f"seconds must be non-negative, got {seconds}")
        self._seconds[state] = self._seconds.get(state, 0.0) + seconds

    def seconds_in(self, state: RadioState) -> float:
        """Total time spent in ``state`` so far."""
        return self._seconds.get(state, 0.0)

    def charge_mah(self) -> float:
        """Total consumed charge in milliamp-hours."""
        total = 0.0
        for state, seconds in self._seconds.items():
            total += self.current_ma[state] * (seconds / 3600.0)
        return total

    def energy_joules(self) -> float:
        """Total consumed energy in joules."""
        total = 0.0
        for state, seconds in self._seconds.items():
            total += (self.current_ma[state] / 1000.0) * self.supply_voltage_v * seconds
        return total

    def reset(self) -> None:
        """Zero the accumulated dwell times."""
        for state in list(self._seconds):
            self._seconds[state] = 0.0
