"""Pinned per-model trace digests: every mobility model builds the same bits.

The digests were recorded from the models as they stood before the
synthetic models (``random-waypoint``, ``grid-manhattan``) and the London
trip builder moved to whole-fleet sample arrays.  Each covers every node id
and every sample's time, x and y at full precision, in build order, so any
change to random-stream consumption, sample order or float arithmetic shows.
If a legitimate behaviour change ever invalidates them, regenerate the
digests *and* bump ``repro.experiments.parallel.CACHE_SCHEMA_VERSION`` in the
same commit.
"""

import hashlib

import numpy as np
import pytest

from repro.mobility.config import MobilityConfig
from repro.mobility.generators import RandomWaypointMobility
from repro.mobility.geometry import BoundingBox
from repro.mobility.london import LondonBusNetworkConfig
from repro.mobility.models import MobilitySpec, build_mobility
from repro.sim.randomness import RandomStreams

NETWORK = LondonBusNetworkConfig(
    area_km2=12.0,
    num_routes=5,
    trips_per_route=4,
    stops_per_route=6,
    min_repeats=1,
    max_repeats=3,
    horizon_s=7200.0,
    day_start_s=1200.0,
    day_end_s=6000.0,
)


def traces_digest(traces) -> str:
    """SHA-256 over node ids and the raw float64 bytes of every sample."""
    digest = hashlib.sha256()
    for trace in traces:
        digest.update(trace.node_id.encode("utf-8") + b"|")
        for values in (trace._times_array, trace._xs_array, trace._ys_array):
            digest.update(np.ascontiguousarray(values, dtype="<f8").tobytes())
        digest.update(b"|")
    return digest.hexdigest()


#: (model, MobilityConfig overrides) per case; built over NETWORK for 1 h.
CASES = {
    "london-bus": dict(),
    "random-waypoint": dict(model="random-waypoint", num_nodes=12),
    "random-waypoint-pause": dict(
        model="random-waypoint", num_nodes=9, pause_s=30.0, min_speed_mps=1.5,
        max_speed_mps=14.0,
    ),
    "grid-manhattan": dict(model="grid-manhattan", num_nodes=12),
    "grid-manhattan-pause": dict(
        model="grid-manhattan", num_nodes=7, pause_s=12.5, grid_spacing_m=700.0,
    ),
}

SEEDS = (0, 7, 31)

GOLDEN_MODEL_DIGESTS = {
    "grid-manhattan-seed0": "432af6bc922bab866adc86dd77c08da218628dc27481d1681cbb33dd79710b1d",
    "grid-manhattan-seed7": "b00b783b7cea1655cd6a0d2b095aeff83e6eb9368fe7875d1e17d6f5c629d047",
    "grid-manhattan-seed31": "234af4b9980ca01dc2c94baa83fdd86ad5df5559de46a971101c651e2807727b",
    "grid-manhattan-pause-seed0": "74c4485a5ff13d3e84bda93ca0bc02d8dc2e5a27e592c2592354d968fd43b0ff",
    "grid-manhattan-pause-seed7": "5620762d8d16acdbf0f86f9b66901949e259d43b8d0c936c5868ea8e10eb6982",
    "grid-manhattan-pause-seed31": "f8f1b0481dd4fdb0e384f5a8ad51205c9cb2396665b81446acb37e50adc3f2e5",
    "london-bus-seed0": "628f984f55f8b5738fda2c515bde5ae1ee2ad3285b491198aa1ed7fbcbb832d5",
    "london-bus-seed7": "d0ef67bdf874a3bb30c94d77d1364f601ca736abb5baff121be0371d0b8f97a9",
    "london-bus-seed31": "3f36d66d9ae1f7787257e79f54a9b51a9cd403821a05309254692f003d4a3ed3",
    "random-waypoint-seed0": "269a50187dcde34fc978ed3e682640125747fec5e4bce9b650f464dd12fd05a6",
    "random-waypoint-seed7": "2989347ceae29e43af4e46628677a7cb3b7b0c8eb2a4161769a31e0f3f5c3b3b",
    "random-waypoint-seed31": "9c20bd17aa23edc44229a4bcc0b0b3b8481dedfd0aeb713c8354712e0c0e6928",
    "random-waypoint-pause-seed0": "952debe9ac7616aa116be032881789b3dcef35b0589299b9f33684c6e710224e",
    "random-waypoint-pause-seed7": "8d1ff68d140f723a722c3799dd2e554eef28892c613017cb48349d0939c12de2",
    "random-waypoint-pause-seed31": "7fef95f0c6b16e31d900e1f016304efde5c837d05cfe84ec81cb1d6246454259",
}

#: RandomWaypointMobility used directly (not through the registry).
GOLDEN_WAYPOINT_DIGESTS = {
    "seed0": "f9aa1a521cba35ec6b303aa5d434dc841f6d996e19575bc3406f7fe517a622cb",
    "seed7": "ea1fdb31a0a13edbb71a89b2cd0a85e9b425e4ec89dfcb033736da512a49855a",
    "seed31": "3aa0052daf7a47ff3ad487c1eea27f911b6a4ae4cb6cb72c7c526f4cbee45653",
}


def _build(case: str, seed: int):
    spec = MobilitySpec(MobilityConfig(**CASES[case]), NETWORK, duration_s=3600.0)
    return build_mobility(spec, RandomStreams(seed).stream("mobility"))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_model_traces_are_bit_identical(case, seed):
    build = _build(case, seed)
    assert list(build.traces) == [trace.node_id for trace in build.traces.values()]
    assert traces_digest(build.traces.values()) == GOLDEN_MODEL_DIGESTS[f"{case}-seed{seed}"]


@pytest.mark.parametrize("seed", SEEDS)
def test_random_waypoint_generator_is_bit_identical(seed):
    generator = RandomWaypointMobility(
        BoundingBox(-250.0, 100.0, 1750.0, 900.0), num_nodes=5, duration_s=900.0,
        min_speed_mps=0.5, max_speed_mps=3.0, pause_s=4.0,
    )
    traces = generator.traces(np.random.default_rng(seed), prefix="w")
    assert traces_digest(traces) == GOLDEN_WAYPOINT_DIGESTS[f"seed{seed}"]
