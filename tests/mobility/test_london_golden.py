"""Golden-fingerprint regression tests for the London bus-network generator.

The timetable digests below were recorded from the pre-mobility-refactor
generator (commit e648f22, where ``experiments/scenario.py`` generated traces
inline); the trace digests from the per-sample scalar trip builder at commit
a1b5603, before traces were built as arrays.
Any mobility refactor must keep reproducing them bit-for-bit, the way
``tests/experiments/test_radio_equivalence.py`` pins the radio engine.  If a
legitimate behaviour change ever invalidates them, regenerate the digests
*and* bump ``repro.experiments.parallel.CACHE_SCHEMA_VERSION`` in the same
commit.
"""

import hashlib
import json

import pytest

from repro.mobility.config import MobilityConfig
from repro.mobility.london import LondonBusNetworkConfig, LondonBusNetworkGenerator
from repro.mobility.models import MobilitySpec, build_mobility
from repro.mobility.route import build_trip_trace
from repro.sim.randomness import RandomStreams


def timetable_digest(timetable) -> str:
    """A SHA-256 over every trip of a timetable, full float precision."""
    payload = [
        {
            "trip_id": trip.trip_id,
            "route_id": trip.route.route_id,
            "round_trip": trip.route.round_trip,
            "stops": [(repr(p.x), repr(p.y)) for p in trip.route.stops],
            "start_time": repr(trip.start_time),
            "speed_mps": repr(trip.speed_mps),
            "dwell_time_s": repr(trip.dwell_time_s),
            "repeats": trip.repeats,
        }
        for trip in timetable.trips
    ]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def traces_digest(traces) -> str:
    """A SHA-256 over every sample of every trace, in order, full float precision."""
    digest = hashlib.sha256()
    for trace in traces:
        for p in trace.points:
            digest.update(
                f"{float(p.time)!r},{float(p.position.x)!r},{float(p.position.y)!r}\n"
                .encode("utf-8")
            )
        digest.update(b"|")
    return digest.hexdigest()


#: The small config the SMALL equivalence scenario implies (1800 s horizon
#: compresses the diurnal window by 1800/86400).
SMALL_NETWORK = LondonBusNetworkConfig(
    area_km2=20.0,
    num_routes=4,
    trips_per_route=2,
    stops_per_route=5,
    min_repeats=1,
    max_repeats=2,
    day_start_s=5.5 * 3600.0 * 1800.0 / 86400.0,
    day_end_s=22.0 * 3600.0 * 1800.0 / 86400.0,
    horizon_s=1800.0,
)

GOLDEN_TIMETABLE_DIGESTS = {
    "default-seed11": "2af939718b212938f3bd1e59d0b40dc546334acf3b408d3c9724221b94001591",
    "small-seed11": "0a8be03b4a8da6573856f18f28ee330ea6f75bf85b54fce8f43413e5ea1a50ff",
}


GOLDEN_TRACE_DIGESTS = {
    "default-seed11": "38abad4e252d7936a61149ee2041ea04b754adef7099459aef3ad3c10ac49d24",
    "small-seed11": "ff186c2f57a05150879cf97ba2b78e3e00cdcb3b2f47557c57e6b4cf87930698",
}

NETWORKS = {"default-seed11": LondonBusNetworkConfig(), "small-seed11": SMALL_NETWORK}


class TestGoldenTimetables:
    def test_default_config_timetable_is_bit_identical(self):
        generator = LondonBusNetworkGenerator(
            LondonBusNetworkConfig(), RandomStreams(11).stream("mobility")
        )
        assert (
            timetable_digest(generator.generate())
            == GOLDEN_TIMETABLE_DIGESTS["default-seed11"]
        ), (
            "the seeded London timetable diverged from the pre-refactor "
            "generator; if intentional, regenerate the goldens and bump "
            "CACHE_SCHEMA_VERSION"
        )

    def test_small_config_timetable_is_bit_identical(self):
        generator = LondonBusNetworkGenerator(
            SMALL_NETWORK, RandomStreams(11).stream("mobility")
        )
        assert (
            timetable_digest(generator.generate())
            == GOLDEN_TIMETABLE_DIGESTS["small-seed11"]
        )

    def test_generation_is_seed_deterministic(self):
        first = LondonBusNetworkGenerator(
            SMALL_NETWORK, RandomStreams(23).stream("mobility")
        ).generate()
        second = LondonBusNetworkGenerator(
            SMALL_NETWORK, RandomStreams(23).stream("mobility")
        ).generate()
        assert timetable_digest(first) == timetable_digest(second)
        different = LondonBusNetworkGenerator(
            SMALL_NETWORK, RandomStreams(24).stream("mobility")
        ).generate()
        assert timetable_digest(different) != timetable_digest(first)


class TestGoldenTraces:
    @pytest.mark.parametrize("name", sorted(GOLDEN_TRACE_DIGESTS))
    def test_trip_traces_are_bit_identical(self, name):
        timetable = LondonBusNetworkGenerator(
            NETWORKS[name], RandomStreams(11).stream("mobility")
        ).generate()
        traces = [build_trip_trace(trip) for trip in timetable.trips]
        assert traces_digest(traces) == GOLDEN_TRACE_DIGESTS[name], (
            "the built London traces diverged from the scalar trip builder; "
            "if intentional, regenerate the goldens and bump CACHE_SCHEMA_VERSION"
        )

    @pytest.mark.parametrize("name", sorted(GOLDEN_TRACE_DIGESTS))
    def test_london_bus_model_builds_the_same_traces(self, name):
        spec = MobilitySpec(MobilityConfig(), NETWORKS[name], duration_s=1800.0)
        build = build_mobility(spec, RandomStreams(11).stream("mobility"))
        assert traces_digest(build.traces.values()) == GOLDEN_TRACE_DIGESTS[name]
