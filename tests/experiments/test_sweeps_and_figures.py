"""Tests for reproduction scales, grid points, Fig. 7 and reporting.

What each figure sweep prints is pinned by ``test_sweep_goldens.py``.
"""

import pytest

from repro.analysis.metrics import RunMetrics
from repro.experiments.figures import (
    BusNetworkProperties,
    ReproductionScale,
    figure07_bus_network,
)
from repro.experiments.registry import get_sweep, grid_points
from repro.experiments.reporting import (
    format_bus_network,
    format_metric_comparison,
    format_table,
)


def _run(scheme, gateways, device_range, value):
    return RunMetrics(
        scheme=scheme,
        num_gateways=gateways,
        device_range_m=device_range,
        duration_s=3600.0,
        messages_generated=100,
        messages_delivered=int(value),
        delays_s=[value],
        hop_counts=[1],
        delivery_times_s=[10.0],
        transmissions_per_device={"a": int(value)},
        energy_joules_per_device={"a": value},
    )


class TestFigure07:
    def test_bus_network_properties_generated(self):
        scale = ReproductionScale(spatial_scale=0.05, duration_s=3600.0)
        properties = figure07_bus_network(scale)
        assert isinstance(properties, BusNetworkProperties)
        assert len(properties.bin_starts_s) == len(properties.active_buses)
        assert properties.peak_active_buses >= properties.night_active_buses
        assert all(d > 0 for d in properties.active_durations_s)


class TestReproductionScale:
    def test_base_config_scaled(self):
        scale = ReproductionScale(spatial_scale=0.1, duration_s=3600.0)
        config = scale.base_config()
        assert config.area_km2 == pytest.approx(60.0)
        assert config.duration_s == 3600.0

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            ReproductionScale(spatial_scale=0.0)
        with pytest.raises(ValueError):
            ReproductionScale(duration_s=0.0)


class TestGridPoints:
    def test_gateway_axis_deploys_scaled_count_and_labels_nominal(self):
        scale = ReproductionScale(spatial_scale=0.1, gateway_counts=(40,))
        points = grid_points(get_sweep("fig9").grid, scale)
        assert len(points) == len(scale.schemes) * 2
        for (scheme, nominal, device_range), spec in points:
            assert nominal == spec.nominal_gateways == 40
            assert spec.config.num_gateways == 4
            assert spec.config.scheme == scheme
            assert spec.config.device_range_m == device_range

    def test_grid_without_gateway_axis_runs_the_70_gateway_point(self):
        scale = ReproductionScale(spatial_scale=0.1)
        for _, spec in grid_points(get_sweep("alpha").grid, scale):
            assert spec.nominal_gateways is None
            assert spec.config.num_gateways == 7
            assert spec.config.scheme == "rca-etx"

    def test_day_profile_runs_over_the_timeseries_horizon(self):
        scale = ReproductionScale(duration_s=600.0, timeseries_duration_s=7200.0)
        points = grid_points(get_sweep("fig11").grid, scale)
        assert [key for key, _ in points] == [
            (scheme, 100, 1000.0) for scheme in scale.schemes
        ]
        assert {spec.config.duration_s for _, spec in points} == {7200.0}


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(("a", "b"), [("x", 1), ("longer", 22)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "longer" in lines[3]

    def test_format_bus_network(self):
        properties = BusNetworkProperties(
            bin_starts_s=[0.0, 1800.0], active_buses=[2, 5], active_durations_s=[100.0, 200.0]
        )
        text = format_bus_network("Fig 7", properties)
        assert "peak active buses" in text and "5" in text

    def test_format_metric_comparison(self):
        runs = {"grid": _run("robc", 40, 500.0, 60.0)}
        text = format_metric_comparison("Ablation", runs, ("mean_delay_s", "throughput_messages"))
        assert "Ablation" in text and "grid" in text
