"""Micro-benchmark of the RadioMedium hot path.

The medium is consulted on every uplink completion (gateway resolution plus
one decodability check per overhearer), so its cost scales with the number of
concurrently registered transmissions.  The benchmark drives a congested
window — many overlapping frames spread over channels and spreading factors —
through transmit at the frame's start, then resolve → prune at its end, the
exact per-completion sequence the engines perform, and pins the
orthogonality and eviction bookkeeping with deterministic assertions.
"""

from heapq import heappop, heappush

from repro.phy.constants import SpreadingFactor
from repro.radio.config import RadioConfig
from repro.radio.medium import RadioMedium

NUM_TRANSMITTERS = 300
NUM_CHANNELS = 3
PAYLOAD_BYTES = 100
GATEWAYS = tuple(f"gw-{i:02d}" for i in range(8))
SFS = tuple(SpreadingFactor)


def _frame(i):
    """Start, spreading factor and channel of frame ``i``: all 18 classes."""
    return 0.01 * i, SFS[i % len(SFS)], (i // len(SFS)) % NUM_CHANNELS


def _drive_medium():
    medium = RadioMedium(config=RadioConfig(num_channels=NUM_CHANNELS))
    pending = []
    delivered = 0
    now = 0.0

    def complete_until(time):
        # Completions sort before a transmission at the same time, as in the
        # engines' event order.
        nonlocal delivered, now
        while pending and pending[0][0] <= time:
            now, _, transmission = heappop(pending)
            if medium.resolve_gateway_reception(transmission, GATEWAYS) is not None:
                delivered += 1
            medium.prune(now)

    for i in range(NUM_TRANSMITTERS):
        start, sf, channel = _frame(i)
        complete_until(start)
        rssi = {gw: -70.0 - (i % 40) for gw in GATEWAYS}
        transmission = medium.transmit(
            f"dev-{i:04d}", start, PAYLOAD_BYTES, rssi, sf, channel
        )
        heappush(pending, (transmission.end_time, i, transmission))
    complete_until(float("inf"))
    return delivered, len(medium), now


def _expected_live(last_now):
    """Frames the derived horizon keeps after the last prune at ``last_now``.

    Within a (channel, SF) bucket every frame has the same airtime and the
    starts increase, so the ends do too and the bucket's evicted prefix is
    exactly its frames with ``end <= last_now - airtime``.
    """
    medium = RadioMedium()
    live = 0
    for i in range(NUM_TRANSMITTERS):
        start, sf, _ = _frame(i)
        airtime = medium.airtime_s(PAYLOAD_BYTES, sf)
        if not start + airtime <= last_now - airtime:
            live += 1
    return live


def test_bench_radio_medium(benchmark):
    delivered, registry_size, last_now = benchmark.pedantic(
        _drive_medium, rounds=3, iterations=1
    )

    # Deterministic cross-check (no RNG was given, so reception is the
    # threshold rule): frames sharing (SF, channel) overlap heavily at equal
    # RSSI and destroy each other, but the 6 SF × 3 channel grid keeps the
    # 18 orthogonal classes from interfering across classes.
    assert (delivered, registry_size, last_now) == _drive_medium()
    assert 0 < delivered < NUM_TRANSMITTERS
    # Eviction keeps exactly the frames that could still overlap a frame
    # resolved at or after the last completion: the interference scan stays
    # O(live frames), not O(total).
    assert registry_size == _expected_live(last_now)
    print()
    print(
        f"radio medium: {NUM_TRANSMITTERS} frames, {len(GATEWAYS)} gateways, "
        f"{NUM_CHANNELS} channels x {len(SFS)} SFs -> {delivered} delivered, "
        f"{registry_size} left registered after pruning"
    )
