"""Engine-core benchmark ladder, shared by ``repro bench`` and ``benchmarks/``.

The ladder is the full-scale Sec. VII-A urban scenario at quarter/half/full
fleet (240/480/960 buses, density-preserving shrink), one simulated hour,
timed on the *engine only*: scenario construction is identical on both paths
and would dilute the object-vs-array ratio, so every round builds a fresh
scenario outside the timed region (engines mutate device state, so rounds
cannot share one).

Wall-clock comparisons use best-of-N so scheduler noise cannot flip a floor
assertion; both engines produce bit-identical RunMetrics (tests/engine/), so
time is the only axis being measured.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from repro.experiments.config import ScenarioConfig
from repro.experiments.registry import get_preset
from repro.experiments.runner import run_engine
from repro.experiments.scenario import build_scenario

#: Fleet fractions of the 960-bus urban-full scenario forming the ladder.
LADDER_FRACTIONS: Tuple[float, ...] = (0.25, 0.5, 1.0)


def fleet_config(
    fraction: float, scheme: str = "no-routing", duration_s: float = 3600.0
) -> ScenarioConfig:
    """The urban-full scenario shrunk density-preservingly to ``fraction``
    of the 960-bus fleet, one simulated hour by default."""
    config = get_preset("urban-full").config
    if fraction < 1.0:
        config = config.scaled(fraction)
    return replace(config, duration_s=duration_s, scheme=scheme)


def engine_seconds(config: ScenarioConfig, engine_name: str, rounds: int) -> float:
    """Best-of-``rounds`` engine wall-clock for ``config`` (build untimed)."""
    best, _ = _timed_point(config, engine_name, rounds)
    return best


def _timed_point(
    config: ScenarioConfig, engine_name: str, rounds: int
) -> Tuple[float, int]:
    if rounds < 1:
        raise ValueError(f"rounds must be at least 1, got {rounds}")
    best = float("inf")
    num_devices = 0
    for _ in range(rounds):
        scenario = build_scenario(config)
        num_devices = scenario.num_devices
        start = time.perf_counter()
        run_engine(scenario, engine_name)
        best = min(best, time.perf_counter() - start)
    return best, num_devices


def run_ladder(
    scheme: str = "no-routing",
    fractions: Sequence[float] = LADDER_FRACTIONS,
    rounds: int = 3,
) -> List[Dict[str, float]]:
    """Time object vs array at every ladder point; one row per point."""
    rows: List[Dict[str, float]] = []
    for fraction in fractions:
        config = fleet_config(fraction, scheme=scheme)
        object_s, num_devices = _timed_point(config, "object", rounds)
        array_s, _ = _timed_point(config, "array", rounds)
        rows.append(
            {
                "fraction": fraction,
                "buses": num_devices,
                "object_s": object_s,
                "array_s": array_s,
                "speedup": object_s / array_s,
            }
        )
    return rows


def format_ladder_table(rows: Sequence[Dict[str, float]], scheme: str) -> str:
    """Render ladder rows as the aligned table ``repro bench`` prints."""
    lines = [
        f"engine-core ladder — urban-full fleet, 1 h simulated, scheme={scheme}",
        f"{'buses':>6}  {'object (s)':>11}  {'array (s)':>10}  {'speedup':>8}",
    ]
    for row in rows:
        lines.append(
            f"{int(row['buses']):>6}  {row['object_s']:>11.2f}  "
            f"{row['array_s']:>10.2f}  {row['speedup']:>7.2f}x"
        )
    return "\n".join(lines)
