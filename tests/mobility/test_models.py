"""Unit tests for the pluggable mobility-model registry."""

import numpy as np
import pytest

from repro.config_fields import replace_fields
from repro.mobility.config import MOBILITY_MODELS, MobilityConfig
from repro.mobility.geometry import Point
from repro.mobility.london import LondonBusNetworkConfig
from repro.mobility.models import (
    MobilitySpec,
    build_mobility,
    load_traces_csv,
    make_mobility_model,
    mobility_model_names,
    save_traces_csv,
)
from repro.mobility.trace import MobilityTrace, TracePoint

SMALL_NETWORK = LondonBusNetworkConfig(
    area_km2=10.0,
    num_routes=3,
    trips_per_route=2,
    stops_per_route=4,
    min_repeats=1,
    max_repeats=2,
    horizon_s=3600.0,
    day_start_s=900.0,
    day_end_s=2700.0,
)


def _spec(**mobility_kwargs) -> MobilitySpec:
    return MobilitySpec(
        mobility=MobilityConfig(**mobility_kwargs),
        network=SMALL_NETWORK,
        duration_s=3600.0,
    )


class TestMobilityConfig:
    def test_default_is_london_bus(self):
        config = MobilityConfig()
        assert config.model == "london-bus"
        assert config.is_default

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown mobility model"):
            MobilityConfig(model="teleport")

    def test_invalid_speeds_rejected(self):
        with pytest.raises(ValueError):
            MobilityConfig(min_speed_mps=0.0)
        with pytest.raises(ValueError):
            MobilityConfig(min_speed_mps=5.0, max_speed_mps=2.0)

    def test_trace_file_model_needs_a_path(self):
        with pytest.raises(ValueError, match="trace_file"):
            MobilityConfig(model="trace-file")

    def test_field_replacement_derives_copies(self):
        config = replace_fields(MobilityConfig(), {"model": "random-waypoint", "num_nodes": 7})
        assert config.model == "random-waypoint"
        assert config.num_nodes == 7
        assert not config.is_default
        replay = replace_fields(
            MobilityConfig(), {"model": "trace-file", "trace_file": "traces.csv"}
        )
        assert replay.model == "trace-file"
        assert replay.trace_file == "traces.csv"


class TestRegistry:
    def test_registry_matches_catalogue(self):
        assert mobility_model_names() == list(MOBILITY_MODELS)
        for name in MOBILITY_MODELS:
            if name == "trace-file":
                continue
            assert make_mobility_model(name).name == name

    def test_unknown_model_lists_catalogue(self):
        with pytest.raises(ValueError, match="available"):
            make_mobility_model("does-not-exist")


class TestLondonBusModel:
    def test_builds_one_trace_per_trip_with_bus_ids(self):
        build = build_mobility(_spec(), np.random.default_rng(5))
        assert len(build.traces) == SMALL_NETWORK.num_routes * SMALL_NETWORK.trips_per_route
        assert all(node_id.startswith("bus-") for node_id in build.traces)
        assert build.bounding_box.area_km2 == pytest.approx(SMALL_NETWORK.area_km2)

    def test_deterministic_under_same_rng_seed(self):
        first = build_mobility(_spec(), np.random.default_rng(5))
        second = build_mobility(_spec(), np.random.default_rng(5))
        assert {k: t.points for k, t in first.traces.items()} == {
            k: t.points for k, t in second.traces.items()
        }


class TestRandomWaypointModel:
    def test_fleet_size_defaults_to_bus_fleet(self):
        build = build_mobility(
            _spec(model="random-waypoint"), np.random.default_rng(1)
        )
        assert len(build.traces) == SMALL_NETWORK.num_routes * SMALL_NETWORK.trips_per_route

    def test_explicit_num_nodes_and_containment(self):
        spec = _spec(model="random-waypoint", num_nodes=5)
        build = build_mobility(spec, np.random.default_rng(1))
        assert len(build.traces) == 5
        for trace in build.traces.values():
            assert trace.end_time >= spec.duration_s
            for point in trace.points:
                assert build.bounding_box.contains(point.position)


class TestGridManhattanModel:
    def test_waypoints_sit_on_street_grid(self):
        spec = _spec(model="grid-manhattan", num_nodes=4, grid_spacing_m=500.0)
        build = build_mobility(spec, np.random.default_rng(2))
        box = build.bounding_box
        columns = max(int(box.width // 500.0) + 1, 2)
        rows = max(int(box.height // 500.0) + 1, 2)
        spacing_x = box.width / (columns - 1)
        spacing_y = box.height / (rows - 1)
        for trace in build.traces.values():
            assert trace.end_time >= spec.duration_s
            for point in trace.points:
                col = (point.position.x - box.min_x) / spacing_x
                row = (point.position.y - box.min_y) / spacing_y
                assert abs(col - round(col)) < 1e-6, "off-grid x coordinate"
                assert abs(row - round(row)) < 1e-6, "off-grid y coordinate"

    def test_consecutive_waypoints_are_adjacent_intersections(self):
        spec = _spec(model="grid-manhattan", num_nodes=2, grid_spacing_m=1000.0)
        build = build_mobility(spec, np.random.default_rng(3))
        box = build.bounding_box
        columns = max(int(box.width // 1000.0) + 1, 2)
        spacing_x = box.width / (columns - 1)
        for trace in build.traces.values():
            for earlier, later in zip(trace.points, trace.points[1:]):
                distance = earlier.position.distance_to(later.position)
                # Either a pause (same corner) or a one-block hop.
                assert distance == pytest.approx(0.0) or distance <= spacing_x * 1.01


class TestTraceFileModel:
    def _traces(self):
        return {
            "alpha": MobilityTrace(
                [TracePoint(0.0, Point(0.0, 0.0)), TracePoint(60.0, Point(120.5, -3.25))],
                node_id="alpha",
            ),
            "beta": MobilityTrace(
                [TracePoint(10.0, Point(50.0, 75.0)), TracePoint(90.0, Point(55.5, 80.0))],
                node_id="beta",
            ),
        }

    def test_csv_round_trip_is_lossless(self, tmp_path):
        path = tmp_path / "traces.csv"
        save_traces_csv(self._traces(), path)
        loaded = load_traces_csv(path)
        assert {k: t.points for k, t in loaded.items()} == {
            k: t.points for k, t in self._traces().items()
        }

    def test_model_replays_file_and_encloses_it(self, tmp_path):
        path = tmp_path / "traces.csv"
        save_traces_csv(self._traces(), path)
        build = build_mobility(
            _spec(model="trace-file", trace_file=str(path)), np.random.default_rng(0)
        )
        assert set(build.traces) == {"alpha", "beta"}
        for trace in build.traces.values():
            for point in trace.points:
                assert build.bounding_box.contains(point.position)

    def test_missing_file_is_a_clean_error(self, tmp_path):
        spec = _spec(model="trace-file", trace_file=str(tmp_path / "nope.csv"))
        with pytest.raises(ValueError, match="cannot read trace file"):
            build_mobility(spec, np.random.default_rng(0))

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,t,x,y\nn,0,0,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            load_traces_csv(path)

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("node_id,time_s,x_m,y_m\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"empty\.csv holds no trace points"):
            load_traces_csv(path)

    def test_bad_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("node_id,time_s,x_m,y_m\nn,zero,0,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_traces_csv(path)

    @pytest.mark.parametrize(
        "row", ["n,nan,0,0", "n,0,inf,0", "n,0,0,-inf", "n,0,NaN,0", "n,Infinity,0,0"]
    )
    def test_non_finite_values_rejected_with_file_and_line(self, tmp_path, row):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"node_id,time_s,x_m,y_m\nn,1.0,0,0\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"nonfinite\.csv, line 3: non-finite"):
            load_traces_csv(path)

    def test_csv_bytes_unchanged_for_numpy_coordinates(self, tmp_path):
        traces = {
            "n": MobilityTrace(
                [TracePoint(0.0, Point(np.float64(0.1), np.float64(1e-7))),
                 TracePoint(2.5, Point(np.float64(1 / 3), 7))]
            )
        }
        path = save_traces_csv(traces, tmp_path / "out.csv")
        assert path.read_text(encoding="utf-8") == (
            "node_id,time_s,x_m,y_m\n"
            "n,0.0,0.1,1e-07\n"
            "n,2.5,0.3333333333333333,7.0\n"
        )

    def test_empty_file_rejected_by_model(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("node_id,time_s,x_m,y_m\n", encoding="utf-8")
        spec = _spec(model="trace-file", trace_file=str(path))
        with pytest.raises(ValueError, match="no trace points"):
            build_mobility(spec, np.random.default_rng(0))
