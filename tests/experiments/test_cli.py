"""CLI smoke tests and the CLI-vs-Python-API equivalence contract.

The acceptance bar for the `repro` entry point: running a preset (or a
figure sweep) through the CLI produces *bit-identical* RunMetrics — and the
same on-disk cache digest — as driving the library directly.  The CLI may
add printing and artifact writing, never different results.
"""

import csv
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config_fields import replace_fields
from repro.engine import ENGINE_ENV_VAR
from repro.experiments.backends import EXECUTION_BACKENDS
from repro.experiments.cli import (
    _overrides_from,
    build_executor,
    build_parser,
    main,
    run_sweep,
    run_target,
)
from repro.experiments.config import ScenarioConfig
from repro.experiments.figures import SMOKE_SCALE
from repro.experiments.parallel import RunSpec, SweepExecutor, config_digest
from repro.experiments.registry import OVERRIDE_PATHS, apply_overrides, get_preset
from repro.experiments.runner import run_scenario
from repro.experiments.serialization import load_scenario

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"


# --------------------------------------------------------------------- #
# Equivalence: CLI path == Python API path
# --------------------------------------------------------------------- #
class TestEquivalence:
    @pytest.mark.parametrize("preset_name", ["urban-smoke", "rural-smoke"])
    def test_run_matches_python_api_bit_identically(self, preset_name):
        config = get_preset(preset_name).config
        cli_outcome = run_target(preset_name)
        api_metrics = run_scenario(config)
        assert cli_outcome.metrics == api_metrics
        # Same cache identity, too: a CLI run and an API run share cache slots.
        assert cli_outcome.spec.cache_key() == RunSpec(config=config).cache_key()

    @pytest.mark.parametrize("preset_name", ["urban-smoke", "rural-smoke"])
    def test_exported_file_runs_bit_identically(self, tmp_path, preset_name):
        """preset → TOML file → `repro run <file>` keeps metrics and digest."""
        config = get_preset(preset_name).config
        path = tmp_path / f"{preset_name}.toml"
        assert main(["export", preset_name, str(path)]) == 0
        loaded = load_scenario(path)
        assert config_digest(loaded) == config_digest(config)
        assert run_target(str(path)).metrics == run_scenario(config)

    def test_sweep_matches_python_api_bit_identically(self):
        """`repro sweep fig9 --scale smoke` == run_scenario on hand-built configs.

        The smoke scale covers both environments (urban 500 m and rural
        1000 m), all three schemes and two gateway counts.  Each expected
        run is built here, not by the sweep code: the full scenario shrunk
        by the spatial scale with ``round(n × scale)`` gateways, reported
        at the nominal count ``n``.
        """
        runs = run_sweep("fig9", scale="smoke").raw.runs
        keys = {
            (scheme, nominal, device_range)
            for scheme in SMOKE_SCALE.schemes
            for nominal in SMOKE_SCALE.gateway_counts
            for device_range in (500.0, 1000.0)
        }
        assert set(runs) == keys
        shrunk = ScenarioConfig(
            seed=SMOKE_SCALE.seed, duration_s=SMOKE_SCALE.duration_s
        ).scaled(SMOKE_SCALE.spatial_scale)
        for scheme, nominal, device_range in sorted(keys):
            expected = run_scenario(dataclasses.replace(
                shrunk,
                scheme=scheme,
                num_gateways=max(1, round(nominal * SMOKE_SCALE.spatial_scale)),
                device_range_m=device_range,
            ))
            expected.num_gateways = nominal
            assert runs[scheme, nominal, device_range] == expected, (scheme, nominal)

    def test_engine_override_matches_api_bit_identically(self):
        """`repro run urban-smoke --engine array` == the API on either engine."""
        config = get_preset("urban-smoke").config
        outcome = run_target("urban-smoke", engine="array")
        assert outcome.spec.config.engine.engine == "array"
        assert outcome.metrics == run_scenario(replace_fields(config, {"engine.engine": "array"}))
        # The array engine is bit-identical to the object oracle, so the
        # override changes the execution path, never the results.
        assert outcome.metrics == run_scenario(config)

    def test_cached_cli_run_serves_identical_metrics(self, tmp_path):
        executor = build_executor(workers=1, cache_dir=str(tmp_path))
        first = run_target("urban-smoke", executor=executor)
        second = run_target("urban-smoke", executor=build_executor(1, str(tmp_path)))
        assert not first.from_cache
        assert second.from_cache
        assert second.metrics == first.metrics

    def test_array_engine_is_served_an_object_engine_result(self, tmp_path, monkeypatch):
        """The engine is result-neutral, so it is not part of the cache key:
        `--engine array` reuses what the object engine stored."""
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        executor = build_executor(workers=1, cache_dir=str(tmp_path))
        first = run_target("urban-smoke", executor)
        second = run_target("urban-smoke", executor, engine="array")
        assert not first.from_cache
        assert second.from_cache
        assert second.metrics == first.metrics


# --------------------------------------------------------------------- #
# Smoke tests (in-process main())
# --------------------------------------------------------------------- #
class TestSmoke:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "urban" in out and "rural" in out and "fig9" in out

    def test_describe_preset_and_sweep(self, capsys):
        assert main(["describe", "urban"]) == 0
        out = capsys.readouterr().out
        assert "config digest" in out and '"device_range_m": 500.0' in out
        assert main(["describe", "fig8"]) == 0
        assert "Fig. 8" in capsys.readouterr().out

    def test_describe_unknown_fails(self, capsys):
        assert main(["describe", "nope"]) == 2
        assert "repro list" in capsys.readouterr().err

    def test_run_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert main(["run", "urban-smoke", "--out", str(out_dir)]) == 0
        summary = capsys.readouterr().out
        assert "messages_delivered" in summary

        metrics = json.loads((out_dir / "metrics.json").read_text())
        reference = run_scenario(get_preset("urban-smoke").config)
        assert metrics["messages_delivered"] == reference.messages_delivered
        assert metrics["delays_s"] == pytest.approx(reference.delays_s)

        with (out_dir / "metrics.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1
        assert int(rows[0]["messages_delivered"]) == reference.messages_delivered

        # The emitted scenario.json reproduces the run exactly.
        assert load_scenario(out_dir / "scenario.json") == get_preset("urban-smoke").config

    def test_run_with_overrides(self, capsys):
        assert main(["run", "urban-smoke", "--scheme", "no-routing", "--seed", "3"]) == 0
        del capsys  # output content covered elsewhere
        reference = run_target("urban-smoke", scheme="no-routing", seed=3)
        assert reference.spec.config.scheme == "no-routing"
        assert reference.spec.config.seed == 3

    def test_run_unknown_target_fails_cleanly(self, capsys):
        assert main(["run", "not-a-preset"]) == 2
        err = capsys.readouterr().err
        assert "neither" in err
        # str(KeyError) would wrap the message in doubled quoting.
        assert '"\'not-a-preset\'' not in err

    def test_run_unknown_scheme_or_class_fails_cleanly(self, tmp_path, capsys):
        assert main(["run", "urban-smoke", "--scheme", "typo"]) == 2
        assert "unknown scheme" in capsys.readouterr().err
        assert main(["run", "urban-smoke", "--device-class", "class-z"]) == 2
        assert "unknown device class" in capsys.readouterr().err
        # A hand-edited scenario file with a typo'd scheme takes the same path.
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"name": "bad", "scheme": "does-not-exist"}), encoding="utf-8"
        )
        assert main(["run", str(path)]) == 2
        assert "unknown scheme" in capsys.readouterr().err

    def test_run_invalid_workers_fails_cleanly(self, capsys, monkeypatch):
        assert main(["run", "urban-smoke", "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "abc")
        assert main(["run", "urban-smoke"]) == 2
        assert "REPRO_SWEEP_WORKERS" in capsys.readouterr().err

    def test_docs_check_missing_file_reported_distinctly(self, tmp_path, capsys):
        assert main(["docs", "--path", str(tmp_path / "scenarios.md")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_bench_invalid_inputs_fail_cleanly(self, capsys):
        assert main(["bench", "--scheme", "typo", "--fractions", "0.1"]) == 2
        assert "unknown scheme" in capsys.readouterr().err
        for bad in ("0", "1.5", "-0.25"):
            assert main(["bench", "--fractions", bad]) == 2
            assert "fleet fractions" in capsys.readouterr().err

    def test_bench_prints_speedup_table(self, capsys):
        # A tiny ladder point (~25 buses) keeps the two timed runs fast.
        assert main(["bench", "--fractions", "0.026", "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "scheme=no-routing" in out

    def test_sweep_out_of_range_scale_fails_cleanly(self, capsys):
        for bad in ("1.5", "0", "nan"):
            assert main(["sweep", "fig9", "--scale", bad]) == 2
            assert "spatial scale" in capsys.readouterr().err

    def test_docs_write_and_check_are_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["docs", "--write", "--check"])
        assert "not allowed with" in capsys.readouterr().err

    def test_run_invalid_override_fails_cleanly(self, capsys):
        assert main(["run", "urban-smoke", "--gateways", "0"]) == 2
        assert "invalid override" in capsys.readouterr().err

    def test_sweep_fig7_and_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "fig7"
        assert main(["sweep", "fig7", "--scale", "smoke", "--out", str(out_dir)]) == 0
        assert "bus network" in capsys.readouterr().out
        data = json.loads((out_dir / "fig7.json").read_text())
        assert data and {"bin_start_s", "active_buses"} == set(data[0])

    def test_sweep_unknown_figure_fails_cleanly(self, capsys):
        assert main(["sweep", "fig99"]) == 2
        assert "available" in capsys.readouterr().err

    def test_docs_check_passes_on_committed_file(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["docs", "--check"]) == 0

    def test_docs_check_detects_drift(self, tmp_path, capsys):
        stale = tmp_path / "scenarios.md"
        stale.write_text("# stale\n")
        assert main(["docs", "--path", str(stale)]) == 1
        assert "out of date" in capsys.readouterr().err
        assert main(["docs", "--write", "--path", str(stale)]) == 0
        assert main(["docs", "--path", str(stale)]) == 0


#: One ``repro run`` override flag per case: its argv, the field path it
#: sets and the value it lands as.
FLAG_CASES = [
    (["--scheme", "robc"], "scheme", "robc"),
    (["--device-class", "queue-based-class-a"], "device_class", "queue-based-class-a"),
    (["--gateways", "7"], "num_gateways", 7),
    (["--range", "750"], "device_range_m", 750.0),
    (["--placement", "random"], "gateway_placement", "random"),
    (["--routes", "9"], "num_routes", 9),
    (["--trips", "3"], "trips_per_route", 3),
    (["--duration", "1200"], "duration_s", 1200.0),
    (["--seed", "42"], "seed", 42),
    (["--channels", "3"], "radio.num_channels", 3),
    (["--sf-policy", "random"], "radio.sf_policy", "random"),
    (["--mobility", "random-waypoint"], "mobility.model", "random-waypoint"),
    (["--mobility-nodes", "17"], "mobility.num_nodes", 17),
    (["--trace-file", "t.csv"], "mobility.trace_file", "t.csv"),
    (["--scheme-param", "spray_initial_copies=8"], "routing.spray_initial_copies", 8),
    (["--scheme-param", "prophet-beta=0.5"], "routing.prophet_beta", 0.5),
    (["--buffer", "drop-oldest"], "routing.buffer.policy", "drop-oldest"),
    (["--buffer-capacity", "8"], "routing.buffer.capacity", 8),
    (["--buffer", "ttl-expiry", "--buffer-ttl", "600"], "routing.buffer.ttl_s", 600.0),
    (["--engine", "array"], "engine.engine", "array"),
    (["--engine-tick", "7"], "engine.tick_s", 7.0),
]


def _field(config, path):
    for name in path.split("."):
        config = getattr(config, name)
    return config


class TestOverrideFlags:
    """Each ``repro run`` override flag sets exactly its field path."""

    @pytest.mark.parametrize(
        "argv, path, value", FLAG_CASES, ids=[" ".join(argv) for argv, _, _ in FLAG_CASES]
    )
    def test_flag_sets_its_field_path(self, argv, path, value):
        base = get_preset("urban-smoke").config
        args = build_parser().parse_args(["run", "urban-smoke", *argv])
        config = apply_overrides(base, **_overrides_from(args))
        assert _field(config, path) == value
        assert type(_field(config, path)) is type(value)
        implied = {"mobility.model": "trace-file"} if path == "mobility.trace_file" else {}
        if path == "routing.buffer.ttl_s":
            implied = {"routing.buffer.policy": "ttl-expiry"}
        assert config == replace_fields(base, {path: value, **implied})

    def test_every_override_keyword_has_a_flag_case(self):
        paths = {path for _, path, _ in FLAG_CASES}
        assert set(OVERRIDE_PATHS.values()) <= paths

    def test_unknown_keyword_is_a_type_error(self):
        with pytest.raises(TypeError, match="num_channel"):
            apply_overrides(get_preset("urban-smoke").config, num_channel=3)


# --------------------------------------------------------------------- #
# The installed/module entry points themselves
# --------------------------------------------------------------------- #
class TestCampaignFlags:
    def test_run_accepts_backend_and_retry_flags(self, tmp_path, capsys):
        assert main([
            "run", "urban-smoke", "--backend", "serial",
            "--retries", "1", "--cache", str(tmp_path),
        ]) == 0
        assert "messages_delivered" in capsys.readouterr().out
        # The retried-capable run still landed in the (sharded) cache.
        assert list(tmp_path.rglob("*.pkl"))

    @pytest.mark.parametrize("name", sorted(EXECUTION_BACKENDS))
    def test_backend_choices_are_the_executor_table(self, name):
        args = build_parser().parse_args(["run", "urban-smoke", "--backend", name])
        assert args.backend == name

    def test_unknown_backend_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "urban-smoke", "--backend", "bogus"])
        assert "bogus" in capsys.readouterr().err

    def test_backend_env_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", "serial")
        assert main(["run", "urban-smoke", "--cache", str(tmp_path)]) == 0
        capsys.readouterr()
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", "bogus")
        assert main(["run", "urban-smoke"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_worker_exits_on_idle_timeout(self, tmp_path, capsys):
        assert main([
            "worker", str(tmp_path / "spool"), "--idle-timeout", "0.2",
            "--poll", "0.05",
        ]) == 0
        assert "processed 0 job(s)" in capsys.readouterr().out

    def test_worker_invalid_flags_fail_cleanly(self, tmp_path, capsys):
        assert main(["worker", str(tmp_path), "--max-jobs", "0"]) == 2
        assert "--max-jobs" in capsys.readouterr().err
        assert main(["worker", str(tmp_path), "--idle-timeout", "0"]) == 2
        assert "--idle-timeout" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--idle-timeout", "nan"),
            ("--idle-timeout", "inf"),
            ("--poll", "nan"),
            ("--poll", "inf"),
            ("--poll", "-1"),
        ],
    )
    def test_worker_non_finite_flags_fail_cleanly(
        self, tmp_path, capsys, monkeypatch, flag, value
    ):
        # A NaN idle timeout never fires, so a started worker would never exit.
        def never_started(*args, **kwargs):
            raise AssertionError("the worker started")

        monkeypatch.setattr("repro.experiments.cli.run_worker", never_started)
        assert main(["worker", str(tmp_path / "spool"), flag, value]) == 2
        assert flag in capsys.readouterr().err

    def test_non_finite_timeout_fails_before_running(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(
            ["run", "urban-smoke", "--timeout", "nan", "--cache", str(cache)]
        ) == 2
        captured = capsys.readouterr()
        assert "timeout" in captured.err
        assert captured.out == ""
        assert not cache.exists() or not any(cache.rglob("*.pkl"))

    def test_work_queue_without_spool_fails_cleanly(self, capsys):
        assert main(["run", "urban-smoke", "--backend", "work-queue"]) == 2
        assert "spool" in capsys.readouterr().err


class TestEntryPoint:
    def test_python_dash_m_repro(self):
        """`PYTHONPATH=src python -m repro list` works on a fresh checkout."""
        result = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "urban" in result.stdout

    def test_console_script_declared(self):
        pyproject = (REPO_ROOT / "pyproject.toml").read_text()
        assert 'repro = "repro.experiments.cli:main"' in pyproject


def test_workers_flag_matches_serial_results():
    """A parallel CLI run returns the same metrics as the serial one."""
    serial = run_target("urban-smoke", executor=SweepExecutor(workers=1))
    parallel = run_target("urban-smoke", executor=SweepExecutor(workers=2))
    assert serial.metrics == parallel.metrics
