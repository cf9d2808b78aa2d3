"""Equivalence and unit tests for the parallel sweep executor.

The headline guarantee: a sweep run with ``workers=1`` and ``workers=4``
produces bit-identical :class:`RunMetrics` for every key, so parallelism can
never change scientific results.  The failure-handling guarantees — a
crashed run becomes a per-spec failure outcome *after* every finished
sibling was cached — live in ``test_backends.py``.
"""

import dataclasses
import hashlib
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config_fields import config_to_dict, replace_fields
from repro.engine import ENGINES, EngineConfig
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import (
    CACHE_SCHEMA_VERSION,
    SCHEME_CACHE_VERSIONS,
    RunSpec,
    SweepExecutor,
    _trace_file_content_digest,
    config_digest,
    derive_run_seed,
    execute_spec,
    replication_specs,
    spec_from_dict,
    spec_to_dict,
)
from repro.experiments.figures import ReproductionScale
from repro.experiments.registry import SweepAxis, SweepGrid, run_grid
from repro.mac.device import DeviceConfig
from repro.mobility.config import MobilityConfig
from repro.radio.config import SF_POLICIES, RadioConfig
from repro.routing import scheme_names
from repro.routing.config import BufferConfig, RoutingConfig


def gateway_specs(config, gateway_counts, schemes):
    """One spec per (gateway count, scheme), labelled with its count."""
    return [
        RunSpec(
            config=config.with_scheme(scheme).with_gateways(count),
            nominal_gateways=count,
        )
        for count in gateway_counts
        for scheme in schemes
    ]


@pytest.fixture(scope="module")
def tiny_config():
    """A scenario small enough that a handful of runs stays test-sized."""
    return ScenarioConfig(
        duration_s=1200.0,
        area_km2=12.0,
        num_gateways=2,
        num_routes=3,
        trips_per_route=2,
        stops_per_route=4,
        min_block_repeats=1,
        max_block_repeats=2,
        device_range_m=1000.0,
        seed=23,
    )


class TestSerialParallelEquivalence:
    def test_sweep_identical_across_worker_counts(self, tiny_config):
        specs = gateway_specs(tiny_config, (2, 3), ("no-routing", "robc"))
        serial = SweepExecutor(workers=1).run_metrics(specs)
        parallel = SweepExecutor(workers=4).run_metrics(specs)
        # RunMetrics is a dataclass: == compares every field, including the
        # full per-delivery delay/hop lists and per-device counters.
        assert serial == parallel
        assert len(serial) == len(specs)

    def test_default_executor_matches_explicit_serial(self):
        grid = SweepGrid(
            title="one run",
            axes=(SweepAxis("scheme", "scheme", values=("robc",)),),
        )
        scale = ReproductionScale(spatial_scale=0.02, duration_s=600.0)
        implicit = run_grid("one", grid, scale, None)
        explicit = run_grid("one", grid, scale, SweepExecutor(workers=1))
        assert implicit.raw.runs == explicit.raw.runs
        assert implicit.text == explicit.text

    def test_replications_identical_across_worker_counts(self, tiny_config):
        specs = replication_specs(tiny_config, 2)
        serial = SweepExecutor(workers=1).run_metrics(specs)
        parallel = SweepExecutor(workers=2).run_metrics(specs)
        assert serial == parallel
        assert len(serial) == 2


class TestSweepExecutor:
    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            SweepExecutor(workers=0)

    def test_outcomes_preserve_spec_order(self, tiny_config):
        specs = gateway_specs(tiny_config, (3, 2), ("no-routing",))
        outcomes = SweepExecutor(workers=1).run(specs)
        assert [outcome.spec for outcome in outcomes] == specs
        assert [outcome.metrics.num_gateways for outcome in outcomes] == [3, 2]
        assert all(outcome.wall_time_s > 0 for outcome in outcomes)
        assert not any(outcome.from_cache for outcome in outcomes)

    def test_cache_roundtrip(self, tiny_config, tmp_path):
        specs = gateway_specs(tiny_config, (2,), ("no-routing",))
        first = SweepExecutor(workers=1, cache_dir=tmp_path).run(specs)
        assert not first[0].from_cache
        assert list(tmp_path.rglob("*.pkl"))
        second = SweepExecutor(workers=1, cache_dir=tmp_path).run(specs)
        assert second[0].from_cache
        assert second[0].metrics == first[0].metrics

    def test_cache_distinguishes_configurations(self, tiny_config, tmp_path):
        executor = SweepExecutor(workers=1, cache_dir=tmp_path)
        first = executor.run([RunSpec(config=tiny_config)])
        other = executor.run([RunSpec(config=tiny_config.with_seed(99))])
        assert not other[0].from_cache
        assert first[0].metrics != other[0].metrics

    def test_corrupt_cache_entry_is_unlinked_and_recomputed(self, tiny_config, tmp_path):
        executor = SweepExecutor(workers=1, cache_dir=tmp_path)
        spec = RunSpec(config=tiny_config)
        good = executor.run([spec])[0]
        path = executor.store.path_for(spec.cache_key())
        path.write_bytes(b"not a pickle")
        recomputed = executor.run([spec])[0]
        assert not recomputed.from_cache
        assert recomputed.metrics == good.metrics
        # The damaged entry was replaced by the recomputed result, not left
        # to be re-read and re-discarded on every future execution.
        assert pickle.loads(path.read_bytes()) == good.metrics
        assert executor.run([spec])[0].from_cache

    def test_iter_outcomes_streams_and_caches(self, tiny_config, tmp_path):
        specs = gateway_specs(tiny_config, (2, 3), ("no-routing",))
        executor = SweepExecutor(workers=1, cache_dir=tmp_path)
        streamed = list(executor.iter_outcomes(specs))
        assert sorted(o.spec.cache_key() for o in streamed) == sorted(
            s.cache_key() for s in specs
        )
        assert all(executor.store.load(s.cache_key()) is not None for s in specs)

    def test_from_env_reads_worker_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert SweepExecutor.from_env().workers == 3
        monkeypatch.delenv("REPRO_SWEEP_WORKERS")
        assert SweepExecutor.from_env(default_workers=2).workers == 2

    def test_from_env_rejects_garbage_with_named_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "abc")
        with pytest.raises(ValueError, match="REPRO_SWEEP_WORKERS"):
            SweepExecutor.from_env()

    def test_from_env_reads_backend_name(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", "serial")
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "4")
        assert SweepExecutor.from_env().backend.name == "serial"
        monkeypatch.delenv("REPRO_SWEEP_BACKEND")
        assert SweepExecutor.from_env().backend.name == "process-pool"

    def test_unknown_backend_name_lists_choices(self):
        with pytest.raises(ValueError, match="serial"):
            SweepExecutor(backend="no-such-backend")

    def test_completeness_assertion_catches_lossy_backend(self, tiny_config):
        from repro.experiments.backends.base import ExecutionBackend, failure_outcome

        class DroppingBackend(ExecutionBackend):
            """Simulates the old silent-loss bug: swallows one outcome."""

            name = "dropping"

            def execute(self, items):
                for index, spec in list(items)[1:]:
                    yield index, failure_outcome(spec, RuntimeError("boom"), 0.0)

        executor = SweepExecutor(backend=DroppingBackend())
        specs = gateway_specs(tiny_config, (2, 3), ("no-routing",))
        with pytest.raises(RuntimeError, match="bookkeeping"):
            executor.run(specs, allow_failures=True)

    def test_crashing_spec_becomes_failure_outcome(self, tiny_config):
        from repro.experiments.parallel import SweepExecutionError

        bad = RunSpec(
            config=dataclasses.replace(
                tiny_config,
                mobility=MobilityConfig(
                    model="trace-file", trace_file="/nonexistent/trace.csv"
                ),
            )
        )
        executor = SweepExecutor(workers=1)
        with pytest.raises(SweepExecutionError, match="1 of 1"):
            executor.run([bad])
        outcome = executor.run([bad], allow_failures=True)[0]
        assert not outcome.ok
        assert outcome.metrics is None
        assert "trace" in outcome.error or "No such file" in outcome.error


class TestSpecs:
    def test_run_spec_is_picklable(self, tiny_config):
        spec = RunSpec(config=tiny_config, nominal_gateways=40)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.key == ("no-routing", 40, 1000.0, 0)

    def test_execute_spec_writes_nominal_count_back(self, tiny_config):
        outcome = execute_spec(RunSpec(config=tiny_config, nominal_gateways=40))
        assert outcome.metrics.num_gateways == 40

    def test_replication_specs_derive_distinct_seeds(self, tiny_config):
        specs = replication_specs(tiny_config, 4)
        seeds = [spec.config.seed for spec in specs]
        assert len(set(seeds)) == 4
        assert [spec.replicate for spec in specs] == [0, 1, 2, 3]
        # Pure function of the master config: regenerating gives the same seeds.
        assert [spec.config.seed for spec in replication_specs(tiny_config, 4)] == seeds

    def test_replication_specs_reject_non_positive_count(self, tiny_config):
        with pytest.raises(ValueError):
            replication_specs(tiny_config, 0)


class TestWireFormat:
    def test_spec_dict_roundtrip_preserves_cache_key(self, tiny_config):
        spec = RunSpec(config=tiny_config, nominal_gateways=40, replicate=2)
        clone = spec_from_dict(spec_to_dict(spec))
        assert clone == spec
        assert clone.cache_key() == spec.cache_key()

    def test_spec_dict_is_json_safe(self, tiny_config):
        import json

        payload = json.dumps(spec_to_dict(RunSpec(config=tiny_config)))
        assert spec_from_dict(json.loads(payload)) == RunSpec(config=tiny_config)


class TestSpecValidation:
    """Both fields are spelled into the cache key, so the key grammar is
    enforced where a spec is built, not where the store first parses it."""

    @pytest.mark.parametrize("nominal", [0, -5, "x", "40", 40.0, True, [1]])
    def test_bad_nominal_gateways_rejected(self, tiny_config, nominal):
        with pytest.raises(ValueError, match="nominal_gateways"):
            RunSpec(config=tiny_config, nominal_gateways=nominal)

    @pytest.mark.parametrize("replicate", [-1, "0", 1.0, False, None, [1]])
    def test_bad_replicate_rejected(self, tiny_config, replicate):
        with pytest.raises(ValueError, match="replicate"):
            RunSpec(config=tiny_config, replicate=replicate)

    def test_valid_fields_accepted(self, tiny_config):
        import numpy as np

        spec = RunSpec(config=tiny_config, nominal_gateways=np.int64(40), replicate=0)
        assert spec.cache_key().endswith("-40-0")

    @pytest.mark.parametrize(
        "patch",
        [{"nominal_gateways": -5}, {"replicate": -1}, {"replicate": [1]}, {"scenario": 5}],
    )
    def test_malformed_wire_spec_is_a_value_error(self, tiny_config, patch):
        payload = {**spec_to_dict(RunSpec(config=tiny_config)), **patch}
        with pytest.raises(ValueError):
            spec_from_dict(payload)

    @pytest.mark.parametrize("payload", [5, ["scenario"], {}])
    def test_non_object_wire_spec_is_a_value_error(self, payload):
        with pytest.raises(ValueError):
            spec_from_dict(payload)


class TestSeedDerivation:
    def test_pinned_value(self):
        # Guards the derivation scheme itself: changing the hash recipe would
        # silently re-seed every archived sweep.
        assert derive_run_seed(7, "robc", 40, 500.0, 0) == 6347970660614576900
        assert derive_run_seed(7, "robc", 40, 500.0, 1) == 4545498674912675524

    def test_each_component_changes_the_seed(self):
        base = derive_run_seed(7, "robc", 40, 500.0, 0)
        assert derive_run_seed(8, "robc", 40, 500.0, 0) != base
        assert derive_run_seed(7, "rca-etx", 40, 500.0, 0) != base
        assert derive_run_seed(7, "robc", 50, 500.0, 0) != base
        assert derive_run_seed(7, "robc", 40, 1000.0, 0) != base
        assert derive_run_seed(7, "robc", 40, 500.0, 2) != base

    def test_seed_fits_numpy_seeding(self):
        seed = derive_run_seed(123456, "no-routing", 100, 1000.0, 7)
        assert 0 <= seed < 2**63


class TestConfigDigest:
    def test_stable_for_equal_configs(self, tiny_config):
        assert config_digest(tiny_config) == config_digest(
            ScenarioConfig(**{
                field: getattr(tiny_config, field)
                for field in tiny_config.__dataclass_fields__
            })
        )

    def test_sensitive_to_any_field(self, tiny_config):
        assert config_digest(tiny_config) != config_digest(tiny_config.with_seed(24))
        assert config_digest(tiny_config) != config_digest(
            tiny_config.with_scheme("robc")
        )

    def test_unreadable_trace_files_digest_distinctly(self, tiny_config):
        # Two scenarios pointing at different unreadable trace files must not
        # collide on one cache key: the sentinel embeds the path.
        a = _trace_file_content_digest("/missing/a.csv")
        b = _trace_file_content_digest("/missing/b.csv")
        assert a != b
        assert "/missing/a.csv" in a

        def with_trace(path):
            return dataclasses.replace(
                tiny_config,
                mobility=MobilityConfig(model="trace-file", trace_file=path),
            )

        assert config_digest(with_trace("/missing/a.csv")) != config_digest(
            with_trace("/missing/b.csv")
        )


# --------------------------------------------------------------------- #
# The cache-key contract: same key <=> same RunMetrics
# --------------------------------------------------------------------- #
_MODELS = ("london-bus", "random-waypoint", "grid-manhattan")
_POLICIES = ("drop-new", "drop-oldest", "priority-age")
_TICKS = (7.0, 30.0, 120.0)


def _other(values, current):
    return next(value for value in values if value != current)


#: One mutation per result-affecting field; each must move the cache key.
RESULT_AFFECTING = {
    "seed": lambda c: c.with_seed(c.seed + 1),
    "scheme": lambda c: c.with_scheme(_other(scheme_names(), c.scheme)),
    "num_gateways": lambda c: c.with_gateways(c.num_gateways + 1),
    "duration_s": lambda c: dataclasses.replace(c, duration_s=c.duration_s + 60.0),
    "radio.num_channels": lambda c: replace_fields(
        c, {"radio.num_channels": c.radio.num_channels + 1}
    ),
    "mobility.model": lambda c: replace_fields(
        c, {"mobility.model": _other(_MODELS, c.mobility.model)}
    ),
    "routing.buffer.policy": lambda c: replace_fields(
        c, {"routing.buffer.policy": _other(_POLICIES, c.routing.buffer.policy)}
    ),
}


@st.composite
def scenario_configs(draw) -> ScenarioConfig:
    return ScenarioConfig(
        seed=draw(st.integers(0, 2**31)),
        scheme=draw(st.sampled_from(scheme_names())),
        num_gateways=draw(st.integers(1, 100)),
        duration_s=float(draw(st.integers(60, 86_400))),
        radio=RadioConfig(num_channels=draw(st.integers(1, 8))),
        mobility=MobilityConfig(model=draw(st.sampled_from(_MODELS))),
        routing=RoutingConfig(buffer=BufferConfig(policy=draw(st.sampled_from(_POLICIES)))),
        engine=EngineConfig(draw(st.sampled_from(ENGINES)), tick_s=draw(st.sampled_from(_TICKS))),
    )


def _key(config: ScenarioConfig) -> str:
    return RunSpec(config=config).cache_key()


class TestCacheKeyContract:
    @settings(max_examples=60, deadline=None)
    @given(scenario_configs(), st.sampled_from(ENGINES), st.sampled_from(_TICKS))
    def test_execution_knobs_leave_the_key_unchanged(self, config, engine, tick_s):
        changed = replace_fields(config, {"engine.engine": engine, "engine.tick_s": tick_s})
        assert _key(changed) == _key(config)

    @settings(max_examples=60, deadline=None)
    @given(scenario_configs(), st.sampled_from(sorted(RESULT_AFFECTING)))
    def test_result_affecting_fields_change_the_key(self, config, field):
        assert _key(RESULT_AFFECTING[field](config)) != _key(config)

    @pytest.mark.parametrize("scheme", scheme_names())
    def test_key_carries_the_scheme_cache_version(self, scheme):
        # A scheme whose own results changed keys at a newer version, so a
        # store filled before the change never serves its stale runs.
        version = SCHEME_CACHE_VERSIONS.get(scheme, CACHE_SCHEMA_VERSION)
        assert version >= CACHE_SCHEMA_VERSION
        assert _key(ScenarioConfig(scheme=scheme)).startswith(f"v{version}-")

    def test_spray_and_wait_keys_retire_runs_from_before_the_ticket_split(self):
        # Version 1 keys hold spray-and-wait runs whose copies never split
        # their tickets.
        assert not _key(ScenarioConfig(scheme="spray-and-wait")).startswith("v1-")


# --------------------------------------------------------------------- #
# The shallow flattener against the deep-copying reference
# --------------------------------------------------------------------- #
_REFERENCE_OMITTED = {
    "radio": dataclasses.asdict(RadioConfig()),
    "mobility": dataclasses.asdict(MobilityConfig()),
    "routing": dataclasses.asdict(RoutingConfig()),
}


def reference_digest(config: ScenarioConfig) -> str:
    """``config_digest`` as written on :func:`dataclasses.asdict`."""
    payload = dataclasses.asdict(config)
    del payload["engine"]
    for section, default in _REFERENCE_OMITTED.items():
        if payload[section] == default:
            del payload[section]
    mobility = payload.get("mobility")
    if mobility and mobility["model"] == "trace-file":
        mobility["trace_file_sha256"] = _trace_file_content_digest(mobility["trace_file"])
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@st.composite
def typed_loosely(draw) -> ScenarioConfig:
    """A :func:`scenario_configs` draw with ints given for float fields and
    a non-default routing buffer."""
    config = draw(scenario_configs())
    as_number = st.one_of(st.integers(1, 5000), st.floats(1.0, 5000.0))
    buffer = draw(
        st.one_of(
            st.builds(
                BufferConfig,
                policy=st.sampled_from(_POLICIES),
                capacity=st.integers(0, 64),
            ),
            st.builds(
                BufferConfig,
                policy=st.just("ttl-expiry"),
                capacity=st.integers(0, 64),
                ttl_s=as_number,
            ),
        )
    )
    return dataclasses.replace(
        config,
        area_km2=draw(as_number),
        device_range_m=draw(as_number),
        gateway_range_m=draw(as_number),
        device=DeviceConfig(message_interval_s=draw(as_number)),
        routing=RoutingConfig(rgq_phi_max=draw(st.integers(1, 10)), buffer=buffer),
    )


class TestFlattener:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(scenario_configs(), typed_loosely()))
    def test_flattener_and_digest_match_the_asdict_reference(self, config):
        flat = config_to_dict(config)
        assert flat == dataclasses.asdict(config)
        # == conflates 1 and 1.0; the JSON text does not.
        assert json.dumps(flat) == json.dumps(dataclasses.asdict(config))
        assert config_digest(config) == reference_digest(config)

    def test_trace_file_digest_matches_the_reference(self, tiny_config, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("node,t,x,y\n0,0.0,0.0,0.0\n")
        config = replace_fields(
            tiny_config, {"mobility.model": "trace-file", "mobility.trace_file": str(trace)}
        )
        assert config_digest(config) == reference_digest(config)


# --------------------------------------------------------------------- #
# Field-path replacement against the nested-replace reference
# --------------------------------------------------------------------- #
def reference_replace(config, changes):
    """``replace_fields`` written as one nested ``dataclasses.replace`` per path."""

    def replace_path(section, names, value):
        head, *rest = names
        if rest:
            value = replace_path(getattr(section, head), rest, value)
        return dataclasses.replace(section, **{head: value})

    for path, value in changes.items():
        config = replace_path(config, path.split("."), value)
    return config


#: Paths at every depth, several per section, each with values that are
#: valid one at a time (so the one-path-at-a-time reference accepts them).
_PATH_VALUES = {
    "seed": st.integers(0, 2**31),
    "scheme": st.sampled_from(scheme_names()),
    "device_range_m": st.one_of(st.integers(1, 5000), st.floats(1.0, 5000.0)),
    "device.ewma_alpha": st.floats(0.05, 1.0),
    "device.max_queue_size": st.integers(1, 128),
    "radio.num_channels": st.integers(1, 8),
    "radio.sf_policy": st.sampled_from(SF_POLICIES),
    "mobility.model": st.sampled_from(_MODELS),
    "mobility.num_nodes": st.integers(0, 500),
    "routing.max_handover_messages": st.integers(1, 24),
    "routing.prophet_beta": st.floats(0.0, 1.0),
    "routing.buffer.policy": st.sampled_from(_POLICIES),
    "routing.buffer.capacity": st.integers(0, 64),
    "engine.engine": st.sampled_from(ENGINES),
    "engine.tick_s": st.sampled_from(_TICKS),
}


@st.composite
def field_changes(draw):
    paths = draw(st.lists(st.sampled_from(sorted(_PATH_VALUES)), unique=True))
    return {path: draw(_PATH_VALUES[path]) for path in paths}


class TestReplaceFields:
    @settings(max_examples=100, deadline=None)
    @given(scenario_configs(), field_changes())
    def test_matches_the_nested_replace_reference(self, config, changes):
        replaced = replace_fields(config, changes)
        reference = reference_replace(config, changes)
        assert replaced == reference
        # == conflates 1 and 1.0; the flattened JSON does not.
        assert json.dumps(config_to_dict(replaced)) == json.dumps(config_to_dict(reference))
        assert _key(replaced) == _key(reference)

    def test_several_paths_in_one_section_and_every_depth(self, tiny_config):
        changes = {
            "seed": 5,
            "radio.num_channels": 3,
            "radio.sf_policy": "random",
            "routing.max_handover_messages": 6,
            "routing.buffer.policy": "drop-oldest",
            "routing.buffer.capacity": 8,
        }
        assert replace_fields(tiny_config, changes) == reference_replace(tiny_config, changes)
        assert replace_fields(tiny_config, {}) is tiny_config

    @pytest.mark.parametrize("path, problem", [
        ("radoi.num_channels", "unknown field 'radoi'"),
        ("radio.num_chanels", "unknown field 'radio.num_chanels'"),
        ("routing.buffer.polcy", "unknown field 'routing.buffer.polcy'"),
        ("routing.buffer", "'routing.buffer' is a section"),
        ("radio", "'radio' is a section"),
        ("seed.value", "'seed' is a scalar field, not a section"),
        ("radio.num_channels.x", "'radio.num_channels' is a scalar field, not a section"),
    ])
    def test_bad_paths_name_the_available_fields(self, tiny_config, path, problem):
        with pytest.raises(ValueError, match="available") as excinfo:
            replace_fields(tiny_config, {path: 1})
        assert problem in str(excinfo.value)

    def test_available_fields_are_listed_by_path(self, tiny_config):
        with pytest.raises(ValueError) as excinfo:
            replace_fields(tiny_config, {"routing.buffer.polcy": "drop-oldest"})
        assert "'routing.buffer.policy'" in str(excinfo.value)

    def test_a_sections_changes_land_together(self, tiny_config, tmp_path):
        # The trace-file model is only valid with its path set: one path at
        # a time fails on whichever comes first, the grouped rebuild does not.
        trace = str(tmp_path / "trace.csv")
        changes = {"mobility.model": "trace-file", "mobility.trace_file": trace}
        with pytest.raises(ValueError, match="trace_file"):
            reference_replace(tiny_config, changes)
        config = replace_fields(tiny_config, changes)
        assert config.mobility == MobilityConfig(model="trace-file", trace_file=trace)
