"""Execution-backend tests: equivalence matrix, crash safety and retries.

The two headline guarantees of the campaign engine:

* **Backend equivalence** — serial, process-pool and work-queue execution
  produce bit-identical :class:`RunMetrics` for every spec, so the choice
  of backend can never change scientific results.
* **Crash safety** — a worker that dies mid-campaign loses only its
  in-flight run: every finished sibling is already in the result store, and
  resuming serves those from cache without recomputation.
"""

import dataclasses
import multiprocessing
import os
import time

import pytest

from repro.experiments.backends import (
    EXECUTION_BACKENDS,
    ExecutionBackend,
    ProcessPoolBackend,
    RetryPolicy,
    failure_outcome,
    run_worker,
)
from repro.experiments.backends.work_queue import (
    ACTIVE_DIR,
    TODO_DIR,
    WorkQueueBackend,
)
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import (
    RunSpec,
    SweepExecutionError,
    SweepExecutor,
    execute_spec,
)
from repro.mobility.config import MobilityConfig


@pytest.fixture(scope="module")
def tiny_config():
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
def matrix_specs(tiny_config):
    return gateway_specs(tiny_config, (2, 3), ("no-routing", "robc"))


def crashing_spec(tiny_config, name="a"):
    """A spec that builds fine but crashes inside the worker at scenario build."""
    return RunSpec(
        config=dataclasses.replace(
            tiny_config,
            mobility=MobilityConfig(
                model="trace-file", trace_file=f"/nonexistent/{name}.csv"
            ),
        )
    )


def _drain_worker(spool_dir, max_jobs=None):
    """Run a spool worker in a forked child and wait for it to exit."""
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(
        target=run_worker,
        args=(spool_dir,),
        kwargs=dict(max_jobs=max_jobs, idle_timeout_s=5.0, poll_interval_s=0.02),
    )
    proc.start()
    proc.join(timeout=120)
    assert proc.exitcode == 0
    return proc


class TestRegistry:
    @pytest.mark.parametrize("name", ["serial", "process-pool", "work-queue"])
    def test_builtin_backends_are_registered(self, name, tmp_path):
        executor = SweepExecutor(workers=2, backend=name, spool_dir=tmp_path)
        assert executor.backend.name == name

    def test_unknown_backend_raises_with_choices(self):
        with pytest.raises(ValueError, match="work-queue"):
            SweepExecutor(backend="bogus")

    def test_work_queue_requires_spool_dir(self):
        with pytest.raises(ValueError, match="spool"):
            SweepExecutor(backend="work-queue")

    def test_table_holds_exactly_the_builtins(self):
        assert sorted(EXECUTION_BACKENDS) == ["process-pool", "serial", "work-queue"]

    @pytest.mark.parametrize("workers, name", [(1, "serial"), (3, "process-pool")])
    def test_default_backend_follows_the_worker_count(self, workers, name):
        assert SweepExecutor(workers=workers).backend.name == name

    def test_process_pool_gets_the_workers_and_run_timeout(self):
        executor = SweepExecutor(
            workers=3, backend="process-pool", retry=RetryPolicy(timeout_s=12.5)
        )
        assert isinstance(executor.backend, ProcessPoolBackend)
        assert executor.backend.workers == 3
        assert executor.backend.timeout_s == 12.5

    def test_work_queue_gets_the_spool_and_lease_timeout(self, tmp_path):
        executor = SweepExecutor(
            backend="work-queue", spool_dir=tmp_path, retry=RetryPolicy(timeout_s=7.0)
        )
        assert isinstance(executor.backend, WorkQueueBackend)
        assert executor.backend.spool.root == tmp_path
        assert executor.backend.lease_timeout_s == 7.0
        # The spool's store is the executor's cache, so campaigns resume.
        assert executor.store is executor.backend.store

    def test_backend_instance_is_used_as_given(self):
        backend = ProcessPoolBackend(workers=2)
        assert SweepExecutor(workers=5, backend=backend).backend is backend

    def test_non_backend_object_rejected(self):
        with pytest.raises(TypeError, match="ExecutionBackend"):
            SweepExecutor(backend=object())  # type: ignore[arg-type]


class TestBackendEquivalence:
    def test_matrix_is_bit_identical(self, matrix_specs, tmp_path):
        reference = {
            spec.cache_key(): execute_spec(spec).metrics for spec in matrix_specs
        }

        legs = {}
        legs["serial"] = SweepExecutor(backend="serial").run(matrix_specs)
        legs["process-pool"] = SweepExecutor(
            workers=4, backend="process-pool"
        ).run(matrix_specs)

        spool = tmp_path / "spool"
        executor = SweepExecutor(backend="work-queue", spool_dir=spool)
        ctx = multiprocessing.get_context("fork")
        worker = ctx.Process(
            target=run_worker,
            args=(str(spool),),
            kwargs=dict(idle_timeout_s=10.0, poll_interval_s=0.02),
        )
        worker.start()
        try:
            legs["work-queue"] = executor.run(matrix_specs)
        finally:
            worker.join(timeout=120)
        assert worker.exitcode == 0

        for leg, outcomes in legs.items():
            assert [o.spec for o in outcomes] == matrix_specs, leg
            for outcome in outcomes:
                # RunMetrics == compares every field, per-delivery arrays
                # included: the equivalence is bit-identical, not approximate.
                assert outcome.metrics == reference[outcome.spec.cache_key()], leg


class TestCrashSafety:
    def test_finished_siblings_survive_a_crashing_run(self, tiny_config, tmp_path):
        """The original bug: one crashed run threw away the whole batch.

        Now every finished sibling is stored the moment it completes, the
        crash surfaces as a per-spec failure outcome, and resuming serves
        the siblings from cache.
        """
        good = gateway_specs(tiny_config, (2, 3), ("no-routing",))
        specs = [good[0], crashing_spec(tiny_config), good[1]]
        executor = SweepExecutor(workers=1, cache_dir=tmp_path)
        with pytest.raises(SweepExecutionError, match="1 of 3"):
            executor.run(specs)
        # Both healthy runs were cached before the batch error surfaced.
        for spec in good:
            assert executor.store.load(spec.cache_key()) is not None

        resumed = executor.run(specs, allow_failures=True)
        assert [o.from_cache for o in resumed] == [True, False, True]
        assert resumed[1].error is not None and not resumed[1].ok

    def test_killed_worker_loses_nothing_already_stored(
        self, matrix_specs, tmp_path
    ):
        """A worker that dies mid-campaign: completed jobs stay completed.

        A worker with ``max_jobs=2`` exits after two of four jobs — the
        deterministic stand-in for a worker killed mid-campaign.  Its two
        results must already be in the spool store, and the resumed campaign
        must serve them from cache instead of recomputing.
        """
        spool = tmp_path / "spool"
        backend = WorkQueueBackend(spool_dir=spool, poll_interval_s=0.02)
        backend.spool.ensure_layout()
        for spec in matrix_specs:
            backend._submit(spec.cache_key(), spec)
        _drain_worker(str(spool), max_jobs=2)

        stored = [
            spec for spec in matrix_specs if backend.store.load(spec.cache_key())
        ]
        assert len(stored) == 2

        executor = SweepExecutor(backend=backend)
        worker = multiprocessing.get_context("fork").Process(
            target=run_worker,
            args=(str(spool),),
            kwargs=dict(idle_timeout_s=10.0, poll_interval_s=0.02),
        )
        worker.start()
        try:
            outcomes = executor.run(matrix_specs)
        finally:
            worker.join(timeout=120)
        by_key = {o.spec.cache_key(): o for o in outcomes}
        # The two finished-before-the-kill runs came from the store.
        for spec in stored:
            assert by_key[spec.cache_key()].from_cache
        assert all(o.ok for o in outcomes)

    def test_stale_active_job_is_requeued(self, tiny_config, tmp_path):
        """A claim whose worker died is returned to todo after the lease."""
        spool = tmp_path / "spool"
        backend = WorkQueueBackend(
            spool_dir=spool, poll_interval_s=0.02, lease_timeout_s=0.2
        )
        backend.spool.ensure_layout()
        spec = RunSpec(config=tiny_config)
        backend._submit(spec.cache_key(), spec)
        # Simulate a worker that claimed the job and then died.
        todo = spool / TODO_DIR / f"{spec.cache_key()}.json"
        active = spool / ACTIVE_DIR / f"{spec.cache_key()}.json"
        os.rename(todo, active)
        old = time.time() - 5.0
        os.utime(active, (old, old))

        worker = multiprocessing.get_context("fork").Process(
            target=run_worker,
            args=(str(spool),),
            kwargs=dict(idle_timeout_s=10.0, poll_interval_s=0.02),
        )
        worker.start()
        try:
            outcomes = list(SweepExecutor(backend=backend).run([spec]))
        finally:
            worker.join(timeout=120)
        assert outcomes[0].ok


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0.0)

    @pytest.mark.parametrize("field", ["timeout_s", "backoff_base_s", "backoff_cap_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            RetryPolicy(**{field: value})

    def test_backoff_is_bounded(self):
        policy = RetryPolicy(retries=8, backoff_base_s=1.0, backoff_cap_s=4.0)
        delays = [policy.delay_for(attempt) for attempt in range(1, 9)]
        assert delays[0] == 1.0
        assert delays[1] == 2.0
        assert max(delays) == 4.0

    def test_flaky_backend_succeeds_within_budget(self, tiny_config, tmp_path):
        """Transient failures burn retry budget, then the run succeeds."""
        marker = tmp_path / "attempts"

        class FlakyBackend(ExecutionBackend):
            name = "flaky-test"

            def execute(self, items):
                for index, spec in items:
                    count = int(marker.read_text()) if marker.exists() else 0
                    marker.write_text(str(count + 1))
                    if count < 2:
                        yield index, failure_outcome(
                            spec, ConnectionError("transient"), 0.0
                        )
                    else:
                        yield index, execute_spec(spec)

        executor = SweepExecutor(
            backend=FlakyBackend(),
            retry=RetryPolicy(retries=2, backoff_base_s=0.0),
        )
        outcome = executor.run([RunSpec(config=tiny_config)])[0]
        assert outcome.ok
        assert outcome.attempts == 3

    def test_budget_exhaustion_reports_failure(self, tiny_config):
        executor = SweepExecutor(
            workers=1, retry=RetryPolicy(retries=1, backoff_base_s=0.0)
        )
        outcome = executor.run(
            [crashing_spec(tiny_config)], allow_failures=True
        )[0]
        assert not outcome.ok
        assert outcome.attempts == 2


class TestProcessPoolFailureIsolation:
    def test_one_crash_does_not_abort_the_batch(self, tiny_config, tmp_path):
        good = gateway_specs(tiny_config, (2,), ("no-routing",))
        specs = [crashing_spec(tiny_config), good[0]]
        executor = SweepExecutor(
            workers=2, backend="process-pool", cache_dir=tmp_path
        )
        outcomes = executor.run(specs, allow_failures=True)
        assert [o.ok for o in outcomes] == [False, True]
        assert executor.store.load(good[0].cache_key()) is not None
