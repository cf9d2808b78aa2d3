"""Unit tests for the content-addressed result store and streaming accumulator."""

import hashlib
import pickle

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import RunSpec, execute_spec
from repro.experiments.store import MetricsAccumulator, ResultStore


def _key(tag: str) -> str:
    """A well-formed cache key (the grammar of ``RunSpec.cache_key``)."""
    return f"v1-{hashlib.sha256(tag.encode()).hexdigest()}-n-0"


@pytest.fixture(scope="module")
def tiny_metrics():
    config = ScenarioConfig(
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
    return execute_spec(RunSpec(config=config)).metrics


class TestResultStore:
    def test_roundtrip(self, tiny_metrics, tmp_path):
        store = ResultStore(tmp_path)
        store.store(_key("k1"), tiny_metrics)
        assert _key("k1") in store
        assert store.load(_key("k1")) == tiny_metrics

    def test_miss_returns_none(self, tiny_metrics, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.load(_key("absent")) is None
        assert _key("absent") not in store
        assert not (tmp_path / "store").exists()
        store.store(_key("kept"), tiny_metrics)
        assert store.load(_key("absent")) is None
        assert list(store.iter_keys()) == [_key("kept")]

    def test_directory_at_the_entry_path_is_a_miss_that_deletes_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.path_for(_key("dir"))
        (path / "inner").mkdir(parents=True)
        assert store.load(_key("dir")) is None
        assert (path / "inner").is_dir()

    def test_entry_unlinked_after_key_validation_is_a_miss(
        self, tiny_metrics, tmp_path, monkeypatch
    ):
        # The entry vanishes (a concurrent cleanup) between path_for's key
        # validation and the open: a plain miss, and its sibling survives.
        store = ResultStore(tmp_path)
        store.store(_key("gone"), tiny_metrics)
        store.store(_key("kept"), tiny_metrics)
        validate = ResultStore.path_for

        def validate_then_unlink(self, key):
            path = validate(self, key)
            path.unlink()
            return path

        monkeypatch.setattr(ResultStore, "path_for", validate_then_unlink)
        assert store.load(_key("gone")) is None
        monkeypatch.undo()
        assert store.load(_key("kept")) == tiny_metrics
        assert sorted(store.iter_keys()) == [_key("kept")]

    def test_layout_is_sharded_and_atomic(self, tiny_metrics, tmp_path):
        store = ResultStore(tmp_path)
        store.store(_key("some-key"), tiny_metrics)
        path = store.path_for(_key("some-key"))
        assert path.parent.parent == tmp_path
        assert len(path.parent.name) == 2  # two-hex-char shard
        # No temp files left behind by the write-then-rename protocol.
        assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == [
            f"{_key('some-key')}.pkl"
        ]

    def test_corrupt_entry_is_unlinked_on_load(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.path_for(_key("bad"))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"garbage that is not a pickle")
        assert store.load(_key("bad")) is None
        assert not path.exists()

    def test_wrong_type_entry_is_unlinked_on_load(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.path_for(_key("wrong"))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps({"not": "RunMetrics"}))
        assert store.load(_key("wrong")) is None
        assert not path.exists()

    @pytest.mark.parametrize(
        "key",
        ["../x", "../../etc/passwd", "k1", _key("k") + "/../x", _key("k") + "\n", ""],
        ids=["parent", "grandparent", "bare", "suffix-traversal", "newline", "empty"],
    )
    def test_malformed_keys_are_rejected(self, tiny_metrics, tmp_path, key):
        store = ResultStore(tmp_path / "store")
        for operation in (
            lambda: store.load(key),
            lambda: key in store,
            lambda: store.store(key, tiny_metrics),
        ):
            with pytest.raises(ValueError, match="malformed cache key"):
                operation()
        assert not tmp_path.joinpath("store").exists()

    def test_iter_keys_lists_only_sharded_entries(self, tiny_metrics, tmp_path):
        store = ResultStore(tmp_path)
        store.store(_key("a"), tiny_metrics)
        store.store(_key("b"), tiny_metrics)
        # Neither a flat pre-sharding entry nor a stray file in a shard is a
        # stored key; listing one would make summarize() raise on it.
        (tmp_path / f"{_key('flat')}.pkl").write_bytes(pickle.dumps(tiny_metrics))
        (store.path_for(_key("a")).parent / "stray.pkl").write_bytes(b"")
        assert sorted(store.iter_keys()) == sorted([_key("a"), _key("b")])
        assert store.summarize()["runs"] == 2

    def test_summarize(self, tiny_metrics, tmp_path):
        store = ResultStore(tmp_path)
        store.store(_key("a"), tiny_metrics)
        store.store(_key("b"), tiny_metrics)
        summary = store.summarize()
        assert summary["runs"] == 2
        assert summary["messages_generated"] == 2 * tiny_metrics.messages_generated


class TestMetricsAccumulator:
    def test_empty_summary(self):
        summary = MetricsAccumulator().summary()
        assert summary["runs"] == 0
        assert summary["delivery_ratio"] == 0.0
        assert summary["mean_delay_s"] is None

    def test_streaming_totals_match_fields(self, tiny_metrics):
        acc = MetricsAccumulator()
        acc.add(tiny_metrics)
        acc.add(tiny_metrics)
        summary = acc.summary()
        assert summary["runs"] == 2
        assert summary["messages_delivered"] == 2 * tiny_metrics.messages_delivered
        if tiny_metrics.messages_generated:
            assert summary["delivery_ratio"] == pytest.approx(
                tiny_metrics.messages_delivered / tiny_metrics.messages_generated
            )
