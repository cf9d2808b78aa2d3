"""Seed-equivalence of the pluggable mobility subsystem with the old engine.

The mobility refactor (registry of :class:`~repro.mobility.models.MobilityModel`
behind ``ScenarioConfig.mobility``) must not change a single bit of any
default-mobility result: the golden trace fingerprints below were produced by
the *pre-refactor* builder (commit e648f22, where ``experiments/scenario.py``
generated London traces inline), and the refactored builder must keep
reproducing them exactly.  Config digests are pinned the same way — the
digest omits a default mobility section — so archived SweepExecutor caches
stay valid across the refactor.

If a legitimate behaviour change ever invalidates these values, regenerate
them *and* bump ``repro.experiments.parallel.CACHE_SCHEMA_VERSION`` in the
same commit.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.config_fields import replace_fields
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import RunSpec, SweepExecutor, config_digest
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import build_scenario
from repro.mobility.config import MobilityConfig

#: The scenario of `test_radio_equivalence.SMALL`, restated so these goldens
#: cannot drift with that module.
SMALL = ScenarioConfig(
    duration_s=1800.0,
    area_km2=20.0,
    num_gateways=3,
    num_routes=4,
    trips_per_route=2,
    stops_per_route=5,
    min_block_repeats=1,
    max_block_repeats=2,
    device_range_m=1000.0,
    seed=11,
)

QUICKSTART_LIKE = ScenarioConfig(
    name="q", seed=42, duration_s=2 * 3600.0, area_km2=30.0, num_gateways=4,
    num_routes=6, trips_per_route=4, device_range_m=1000.0, scheme="robc",
)


def _replaying(path) -> ScenarioConfig:
    """``SMALL`` replaying the CSV traces at ``path``."""
    return replace_fields(SMALL, {"mobility.model": "trace-file", "mobility.trace_file": str(path)})


def traces_fingerprint(traces) -> str:
    """A SHA-256 over every sample of every trace, full float precision.

    Values go through ``float`` so the digest pins the numbers, not whether
    a coordinate happens to be a ``numpy.float64`` or a Python float.
    """
    payload = {
        node_id: [
            (repr(float(p.time)), repr(float(p.position.x)), repr(float(p.position.y)))
            for p in trace.points
        ]
        for node_id, trace in traces.items()
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


#: Built-scenario trace fingerprints.  The pre-refactor builder's samples,
#: re-recorded with the float-cast fingerprint at commit a1b5603, the last
#: commit whose London traces carried ``numpy.float64`` coordinates.
GOLDEN_TRACE_FINGERPRINTS = {
    "small": "7afa1c05e1e4deadf83b551634bfc21e36929e2522e72dbc1951c9c0f23faff2",
    "quickstart-like": "8e3b9493c252622972add930cee7c71451fb4b924403aea3b43599b2a165bbfe",
}


class TestDigestStability:
    def test_explicit_default_mobility_is_digest_transparent(self):
        explicit = replace(SMALL, mobility=MobilityConfig())
        assert config_digest(explicit) == config_digest(SMALL)

    def test_non_default_mobility_changes_the_digest(self):
        digests = {
            config_digest(SMALL),
            config_digest(replace_fields(SMALL, {"mobility.model": "random-waypoint"})),
            config_digest(replace_fields(SMALL, {"mobility.model": "grid-manhattan"})),
            config_digest(replace_fields(
                SMALL, {"mobility.model": "random-waypoint", "mobility.num_nodes": 16}
            )),
        }
        assert len(digests) == 4

    def test_editing_a_trace_file_changes_the_digest(self, tmp_path):
        # The replayed file's *contents* are the scenario's mobility: an
        # edited file must not replay stale cached metrics under the old key.
        path = tmp_path / "traces.csv"
        path.write_text(
            "node_id,time_s,x_m,y_m\nn,0.0,0.0,0.0\nn,60.0,10.0,0.0\n",
            encoding="utf-8",
        )
        config = _replaying(path)
        before = config_digest(config)
        path.write_text(
            "node_id,time_s,x_m,y_m\nn,0.0,0.0,0.0\nn,60.0,999.0,0.0\n",
            encoding="utf-8",
        )
        assert config_digest(config) != before
        # Deterministic for unchanged contents.
        assert config_digest(config) == config_digest(config)

    def test_same_digest_same_metrics_through_executor_cache(self, tmp_path):
        config = SMALL.with_scheme("no-routing")
        explicit = replace(config, mobility=MobilityConfig())
        assert config_digest(config) == config_digest(explicit)
        executor = SweepExecutor(cache_dir=tmp_path)
        first = executor.run([RunSpec(config=config)])[0]
        assert not first.from_cache
        second = executor.run([RunSpec(config=explicit)])[0]
        assert second.from_cache


class TestTraceEquivalence:
    def test_default_mobility_builds_pre_refactor_traces(self):
        built = build_scenario(SMALL)
        assert traces_fingerprint(built.traces) == GOLDEN_TRACE_FINGERPRINTS["small"], (
            "default london-bus traces diverged from the pre-refactor builder; "
            "if intentional, regenerate the goldens and bump CACHE_SCHEMA_VERSION"
        )

    def test_quickstart_sized_scenario_builds_pre_refactor_traces(self):
        built = build_scenario(QUICKSTART_LIKE)
        assert (
            traces_fingerprint(built.traces)
            == GOLDEN_TRACE_FINGERPRINTS["quickstart-like"]
        )


class TestAlternativeModels:
    """The opened-up mobility layer runs end-to-end and actually differs."""

    @pytest.mark.parametrize("model", ["random-waypoint", "grid-manhattan"])
    def test_model_runs_and_diverges_from_london(self, model):
        config = replace_fields(SMALL, {"scheme": "robc", "mobility.model": model})
        metrics = run_scenario(config)
        assert metrics.messages_generated > 0
        built = build_scenario(config)
        assert traces_fingerprint(built.traces) != GOLDEN_TRACE_FINGERPRINTS["small"]

    def test_models_are_seed_deterministic(self):
        config = replace_fields(SMALL, {"scheme": "robc", "mobility.model": "random-waypoint"})
        first = build_scenario(config)
        second = build_scenario(config)
        assert traces_fingerprint(first.traces) == traces_fingerprint(second.traces)
        shifted = build_scenario(config.with_seed(12))
        assert traces_fingerprint(shifted.traces) != traces_fingerprint(first.traces)

    def test_trace_file_scenario_replays_recorded_traces(self, tmp_path):
        from repro.mobility.models import save_traces_csv

        recorded = build_scenario(SMALL).traces
        path = tmp_path / "recorded.csv"
        save_traces_csv(recorded, path)
        replayed = build_scenario(_replaying(path)).traces

        def samples(traces):
            # Compare numeric values: the generator produces numpy scalars,
            # the CSV reader plain floats — equal, but with different reprs.
            return {
                node_id: [
                    (float(p.time), float(p.position.x), float(p.position.y))
                    for p in trace.points
                ]
                for node_id, trace in traces.items()
            }

        assert samples(replayed) == samples(recorded)

    def test_trace_file_with_synthetic_model_is_rejected(self):
        # --trace-file implies the trace-file model; silently dropping the
        # file under a synthetic model would be a lie.
        from repro.experiments.registry import apply_overrides

        with pytest.raises(ValueError, match="cannot combine"):
            apply_overrides(SMALL, mobility="random-waypoint", trace_file="t.csv")

    def test_scaled_shrinks_an_explicit_synthetic_fleet(self):
        config = replace_fields(
            SMALL, {"mobility.model": "random-waypoint", "mobility.num_nodes": 500}
        )
        scaled = config.scaled(0.1)
        assert scaled.mobility.num_nodes == 50
        # The derived default (0 = follow the bus fleet) stays derived, so
        # default-mobility digests are untouched by scaled().
        assert SMALL.scaled(0.1).mobility == SMALL.mobility

    def test_mobility_sweep_preset_runs_through_cached_executor(self, tmp_path):
        from repro.experiments.figures import SMOKE_SCALE
        from repro.experiments.registry import get_sweep

        executor = SweepExecutor(cache_dir=tmp_path)
        artifact = get_sweep("mobility").runner(SMOKE_SCALE, executor)
        assert artifact.rows, "mobility sweep produced no rows"
        models = {row["mobility_model"] for row in artifact.rows}
        assert models == {"london-bus", "random-waypoint", "grid-manhattan"}
        # A second execution is served entirely from the on-disk cache.
        again = get_sweep("mobility").runner(SMOKE_SCALE, executor)
        assert again.rows == artifact.rows

    def test_cli_mobility_override_matches_api(self):
        from repro.experiments.cli import run_target

        outcome = run_target("urban-smoke", mobility="grid-manhattan")
        from repro.experiments.registry import get_preset

        expected = run_scenario(
            replace_fields(get_preset("urban-smoke").config, {"mobility.model": "grid-manhattan"})
        )
        assert outcome.metrics.messages_generated == expected.messages_generated
        assert outcome.metrics.messages_delivered == expected.messages_delivered
        assert outcome.metrics.delays_s == expected.delays_s
