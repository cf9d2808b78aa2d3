"""The ``repro`` command-line interface.

One console entry point over the whole experiment harness::

    repro list                           # catalogue of presets and sweeps
    repro describe urban                 # parameters + provenance of a preset
    repro run urban --workers 4          # run a preset (or a .json/.toml file)
    repro run urban --scheme rca-etx     # parameterized variant
    repro sweep fig9 --scale smoke       # reproduce a paper figure
    repro sweep fig9 --backend work-queue --spool /shared/spool   # multi-host
    repro worker /shared/spool           # process spool jobs (any host)
    repro serve --cache cache/ --port 8765   # the always-on results service
    repro export urban urban.toml        # share a scenario as a file
    repro docs --check                   # verify docs/scenarios.md is current

Every command is a thin shell over library calls — ``repro run <name>`` is
``SweepExecutor().run([RunSpec(config=get_preset(name).config)])``, nothing
more — so CLI results are bit-identical to the Python API (pinned by
``tests/experiments/test_cli.py``).  ``--cache DIR`` shares the executor's
on-disk RunMetrics cache across invocations; because scenario serialization
is digest-stable, a scenario exported to a file and run back from it hits
the same cache entries as the preset it came from.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.config_fields import field_table
from repro.engine import ENGINES
from repro.experiments.backends import EXECUTION_BACKENDS, RetryPolicy, run_worker
from repro.experiments.parallel import RunOutcome, RunSpec, SweepExecutor, config_digest
from repro.experiments.registry import (
    SweepArtifact,
    apply_overrides,
    get_preset,
    get_sweep,
    iter_presets,
    iter_sweeps,
    preset_names,
    render_scenarios_markdown,
    resolve_scale,
    resolve_scenario,
    sweep_names,
)
from repro.experiments.scenario import device_class_names
from repro.experiments.reporting import (
    format_run_summary,
    format_table,
    metrics_to_dict,
    write_json,
    write_metrics_csv,
    write_rows_csv,
)
from repro.experiments.serialization import (
    ScenarioFormatError,
    save_scenario,
    scenario_to_json,
)
from repro.mobility.config import MOBILITY_MODELS
from repro.mobility.models import load_traces_csv
from repro.radio.config import SF_POLICIES
from repro.routing import scheme_names
from repro.routing.config import BUFFER_POLICIES, RoutingConfig

#: Default location of the generated scenario catalogue, relative to CWD.
SCENARIOS_DOC_PATH = Path("docs") / "scenarios.md"


class CLIError(Exception):
    """A user-facing CLI failure (bad name, bad file, bad flag value)."""


def _message(exc: BaseException) -> str:
    # str(KeyError) is the repr of its argument; unwrap to the clean message.
    if isinstance(exc, KeyError) and exc.args:
        return str(exc.args[0])
    return str(exc)


# --------------------------------------------------------------------- #
# Core operations (used by both the CLI and the equivalence tests)
# --------------------------------------------------------------------- #
def build_executor(
    workers: Optional[int],
    cache_dir: Optional[str],
    backend: Optional[str] = None,
    spool: Optional[str] = None,
    retries: int = 0,
    timeout: Optional[float] = None,
) -> SweepExecutor:
    """The executor implied by the ``--workers``/``--cache``/``--backend``/
    ``--spool``/``--retries``/``--timeout`` flags (env fallback)."""
    try:
        retry = RetryPolicy(retries=retries, timeout_s=timeout)
        if workers is None:
            return SweepExecutor.from_env(
                default_workers=1, cache_dir=cache_dir, backend=backend,
                retry=retry, spool_dir=spool,
            )
        return SweepExecutor(
            workers=workers, cache_dir=cache_dir, backend=backend,
            retry=retry, spool_dir=spool,
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from exc


def run_target(
    target: str,
    executor: Optional[SweepExecutor] = None,
    **overrides: Any,
) -> RunOutcome:
    """Run one scenario (preset name or file path) and return its outcome."""
    try:
        config = resolve_scenario(target)
    except (KeyError, ScenarioFormatError) as exc:
        raise CLIError(_message(exc)) from exc
    try:
        config = apply_overrides(config, **overrides)
    except ValueError as exc:
        raise CLIError(f"invalid override: {exc}") from exc
    # RunSpec refuses an unknown scheme or device class up front, not
    # mid-build inside a worker process (overrides and hand-edited scenario
    # files both reach this).
    try:
        spec = RunSpec(config=config)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    # A bad trace file is a bad input, not a failed run: read it here so it
    # is one error line, not a traceback from inside the executor.
    if config.mobility.model == "trace-file":
        try:
            load_traces_csv(config.mobility.trace_file)
        except ValueError as exc:
            raise CLIError(str(exc)) from exc
    executor = executor or SweepExecutor()
    return executor.run([spec])[0]


def run_sweep(
    name: str,
    scale: Any = None,
    executor: Optional[SweepExecutor] = None,
) -> SweepArtifact:
    """Run one figure/ablation sweep at the requested scale."""
    try:
        sweep = get_sweep(name)
        resolved = resolve_scale(scale)
    except (KeyError, ValueError) as exc:
        raise CLIError(_message(exc)) from exc
    return sweep.runner(resolved, executor)


# --------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------- #
def list_payload() -> dict:
    """The machine-readable catalogue behind ``repro list --json``.

    Scripts enumerate presets/sweeps from this instead of scraping the text
    tables; the config digest is included so cache tooling can key on it.
    """
    return {
        "presets": [
            {
                "name": preset.name,
                "scheme": preset.config.scheme,
                "num_gateways": preset.config.num_gateways,
                "device_range_m": preset.config.device_range_m,
                "area_km2": preset.config.area_km2,
                "duration_s": preset.config.duration_s,
                "num_channels": preset.config.radio.num_channels,
                "sf_policy": preset.config.radio.sf_policy,
                "mobility_model": preset.config.mobility.model,
                "buffer_policy": preset.config.routing.buffer.policy,
                "figure": preset.figure,
                "tags": list(preset.tags),
                "description": preset.description,
                "config_digest": config_digest(preset.config),
            }
            for preset in iter_presets()
        ],
        "sweeps": [
            {
                "name": sweep.name,
                "figure": sweep.figure,
                "description": sweep.description,
            }
            for sweep in iter_sweeps()
        ],
    }


def _cmd_list(args: argparse.Namespace) -> int:
    if getattr(args, "json", False):
        print(json.dumps(list_payload(), indent=2))
        return 0
    preset_rows = [
        (
            preset.name,
            preset.config.scheme,
            preset.config.num_gateways,
            f"{preset.config.device_range_m:g}",
            f"{preset.config.duration_s / 3600.0:g}",
            preset.figure or "-",
        )
        for preset in iter_presets()
    ]
    print("Scenario presets (repro run <name>):")
    print(format_table(
        ("name", "scheme", "gw", "d2d [m]", "hours", "reproduces"), preset_rows
    ))
    sweep_rows = [
        (sweep.name, sweep.figure or "-", sweep.description) for sweep in iter_sweeps()
    ]
    print("\nFigure sweeps (repro sweep <name>):")
    print(format_table(("name", "reproduces", "description"), sweep_rows))
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    name = args.name
    try:
        preset = get_preset(name)
    except KeyError:
        try:
            sweep = get_sweep(name)
        except KeyError:
            raise CLIError(
                f"unknown preset or sweep {name!r}; see `repro list`"
            ) from None
        print(f"sweep {sweep.name}")
        print(f"reproduces: {sweep.figure or '-'}")
        print(sweep.description)
        print("\nrun it with: repro sweep "
              f"{sweep.name} --scale benchmark [--workers N] [--out DIR]")
        return 0
    print(f"preset {preset.name}")
    print(f"reproduces: {preset.figure or '- (synthetic variant)'}")
    print(f"tags: {', '.join(preset.tags) if preset.tags else '-'}")
    print(f"config digest: {config_digest(preset.config)}")
    print(f"\n{preset.description}\n")
    print(scenario_to_json(preset.config), end="")
    return 0


def parse_scheme_params(items: Optional[Sequence[str]]) -> Optional[dict]:
    """``--scheme-param key=value`` pairs as a typed RoutingConfig kwargs dict.

    Values are coerced to the named field's annotated type (int fields reject
    non-integers, float fields promote integers) so that a CLI override and
    the equivalent Python :class:`RoutingConfig` produce the same digest.
    """
    if not items:
        return None
    table = field_table(RoutingConfig)
    field_types = {
        name: kind for name, kind in table.kinds.items() if name not in table.sections
    }
    params: dict = {}
    for item in items:
        key, separator, raw = item.partition("=")
        key = key.strip().replace("-", "_")
        if not separator or not key:
            raise CLIError(
                f"--scheme-param expects key=value, got {item!r}"
            )
        if key not in field_types:
            raise CLIError(
                f"unknown scheme parameter {key!r}; available: {sorted(field_types)}"
            )
        kind = field_types[key]
        try:
            params[key] = int(raw) if kind == "int" else float(raw)
        except ValueError:
            raise CLIError(
                f"--scheme-param {key} expects {'an integer' if kind == 'int' else 'a number'}, "
                f"got {raw!r}"
            ) from None
    return params


def _overrides_from(args: argparse.Namespace) -> dict:
    return {
        "scale": args.scale,
        "scheme": args.scheme,
        "device_class": args.device_class,
        "num_gateways": args.gateways,
        "device_range_m": args.range,
        "gateway_placement": args.placement,
        "num_routes": args.routes,
        "trips_per_route": args.trips,
        "duration_s": args.duration,
        "seed": args.seed,
        "num_channels": args.channels,
        "sf_policy": args.sf_policy,
        "mobility": args.mobility,
        "mobility_nodes": args.mobility_nodes,
        "trace_file": args.trace_file,
        "scheme_params": parse_scheme_params(args.scheme_params),
        "buffer": args.buffer,
        "buffer_capacity": args.buffer_capacity,
        "buffer_ttl_s": args.buffer_ttl,
        "engine": args.engine,
        "engine_tick_s": args.engine_tick,
    }


def _executor_from(args: argparse.Namespace) -> SweepExecutor:
    return build_executor(
        args.workers,
        args.cache,
        backend=args.backend,
        spool=args.spool,
        retries=args.retries,
        timeout=args.timeout,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    executor = _executor_from(args)
    outcome = run_target(args.target, executor=executor, **_overrides_from(args))
    metrics = outcome.metrics
    config = outcome.spec.config
    source = "cache" if outcome.from_cache else f"{outcome.wall_time_s:.2f}s"
    print(format_run_summary(f"run {config.name} [{source}]", metrics))
    if args.out:
        out_dir = Path(args.out)
        write_json(metrics_to_dict(metrics), out_dir / "metrics.json")
        write_metrics_csv([metrics], out_dir / "metrics.csv")
        save_scenario(config, out_dir / "scenario.json")
        print(f"\nartifacts written to {out_dir}/ (metrics.json, metrics.csv, scenario.json)")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    executor = _executor_from(args)
    artifact = run_sweep(args.figure, scale=args.scale, executor=executor)
    print(artifact.text)
    if args.out:
        out_dir = Path(args.out)
        write_rows_csv(artifact.rows, out_dir / f"{artifact.name}.csv")
        write_json(artifact.rows, out_dir / f"{artifact.name}.json")
        print(f"\nartifacts written to {out_dir}/ "
              f"({artifact.name}.csv, {artifact.name}.json)")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    try:
        config = resolve_scenario(args.target)
    except (KeyError, ScenarioFormatError) as exc:
        raise CLIError(_message(exc)) from exc
    try:
        path = save_scenario(config, args.dest)
    except ScenarioFormatError as exc:
        raise CLIError(str(exc)) from exc
    print(f"wrote {path} (digest {config_digest(config)})")
    return 0


def _cmd_docs(args: argparse.Namespace) -> int:
    path = Path(args.path)
    rendered = render_scenarios_markdown()
    if args.write:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered, encoding="utf-8")
        print(f"wrote {path}")
        return 0
    if not path.is_file():
        raise CLIError(
            f"{path} does not exist — run from the repository root (or pass "
            "--path); create it with: repro docs --write"
        )
    current = path.read_text(encoding="utf-8")
    if current != rendered:
        print(
            f"{path} is out of date with repro.experiments.registry; "
            "regenerate with: repro docs --write",
            file=sys.stderr,
        )
        return 1
    print(f"{path} is up to date")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    if args.max_jobs is not None and args.max_jobs < 1:
        raise CLIError(f"--max-jobs must be >= 1, got {args.max_jobs}")
    if args.idle_timeout is not None and not 0 < args.idle_timeout < math.inf:
        raise CLIError(
            f"--idle-timeout must be positive and finite, got {args.idle_timeout}"
        )
    if not 0 <= args.poll < math.inf:
        raise CLIError(f"--poll must be finite and >= 0, got {args.poll}")
    processed = run_worker(
        args.spool,
        max_jobs=args.max_jobs,
        idle_timeout_s=args.idle_timeout,
        poll_interval_s=args.poll,
    )
    print(f"worker exit: processed {processed} job(s) from {args.spool}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here, not at module top: list/describe/run invocations never
    # need the asyncio service machinery.
    from repro.experiments.service import CampaignService

    executor = _executor_from(args)
    if executor.store is None:
        # The service is a results service: without a store there is nothing
        # durable to serve.  Default to an ephemeral store for ad-hoc use.
        import tempfile

        cache = tempfile.mkdtemp(prefix="repro-serve-")
        executor = build_executor(
            args.workers, cache, backend=args.backend, spool=args.spool,
            retries=args.retries, timeout=args.timeout,
        )
        print(f"no --cache given; serving from ephemeral store {cache}")
    try:
        service = CampaignService(executor, host=args.host, port=args.port)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    print(
        f"repro results service on http://{args.host}:{args.port} "
        f"(backend {executor.backend.name}, store {executor.cache_dir})\n"
        "endpoints: GET /health | POST /runs | GET /jobs/<id> | "
        "GET /results/<cache-key> | GET /summary"
    )
    service.run_blocking()
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    # Imported here, not at module top: the bench helpers pull in both
    # engines, which list/describe/docs invocations never need.
    from repro.experiments.bench import format_ladder_table, run_ladder

    if args.scheme not in scheme_names():
        raise CLIError(
            f"unknown scheme {args.scheme!r}; available: {', '.join(scheme_names())}"
        )
    for fraction in args.fractions:
        if not 0.0 < fraction <= 1.0:
            raise CLIError(f"fleet fractions must be in (0, 1], got {fraction}")
    rows = run_ladder(
        scheme=args.scheme, fractions=args.fractions, rounds=args.rounds
    )
    print(format_ladder_table(rows, args.scheme))
    return 0


# --------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------- #
def _add_executor_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (default: REPRO_SWEEP_WORKERS or 1)",
    )
    parser.add_argument(
        "--cache", default=None, metavar="DIR",
        help="on-disk RunMetrics store shared across invocations and hosts",
    )
    parser.add_argument(
        "--backend", default=None, choices=sorted(EXECUTION_BACKENDS),
        help="execution backend (default: serial, or process-pool when "
             "--workers > 1; results are bit-identical either way)",
    )
    parser.add_argument(
        "--spool", default=None, metavar="DIR",
        help="shared spool directory of the work-queue backend "
             "(serve jobs with `repro worker DIR` on any host)",
    )
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="extra attempts per failed run, with bounded backoff (default 0)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per dispatched run (backend-enforced)",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="write CSV/JSON artifacts into this directory",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction driver for the MLoRa-SS paper: run named scenario "
            "presets, scenario files and per-figure sweeps."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="catalogue of scenario presets and figure sweeps"
    )
    list_parser.add_argument(
        "--json", action="store_true",
        help="machine-readable JSON catalogue instead of the text tables",
    )
    list_parser.set_defaults(func=_cmd_list)

    describe = subparsers.add_parser(
        "describe", help="full parameters and provenance of a preset or sweep"
    )
    describe.add_argument("name", help="preset or sweep name")
    describe.set_defaults(func=_cmd_describe)

    run = subparsers.add_parser(
        "run", help="run one scenario: a preset name or a .json/.toml file"
    )
    run.add_argument("target", help=f"preset ({', '.join(preset_names())}) or scenario file")
    _add_executor_flags(run)
    run.add_argument("--scale", type=float, default=None,
                     help="density-preserving spatial shrink factor in (0, 1]")
    run.add_argument("--scheme", default=None,
                     help=f"forwarding scheme ({', '.join(scheme_names())})")
    run.add_argument("--scheme-param", action="append", default=None,
                     dest="scheme_params", metavar="KEY=VALUE",
                     help="routing parameter override, repeatable (e.g. "
                          "max_handover_messages=6, spray_initial_copies=8, "
                          "prophet_beta=0.5)")
    run.add_argument("--buffer", default=None, choices=BUFFER_POLICIES,
                     help="buffer-management policy (default drop-new)")
    run.add_argument("--buffer-capacity", type=int, default=None,
                     dest="buffer_capacity", metavar="N",
                     help="per-device queue capacity in messages "
                          "(default: the device config's 64)")
    run.add_argument("--buffer-ttl", type=float, default=None,
                     dest="buffer_ttl", metavar="SECONDS",
                     help="message time-to-live for the ttl-expiry policy")
    run.add_argument("--device-class", default=None, dest="device_class",
                     help=f"device class ({', '.join(device_class_names())})")
    run.add_argument("--gateways", type=int, default=None, help="deployed gateway count")
    run.add_argument("--range", type=float, default=None,
                     help="device-to-device range in metres (urban 500, rural 1000)")
    run.add_argument("--placement", default=None, choices=("grid", "random"),
                     help="gateway placement policy")
    run.add_argument("--routes", type=int, default=None, help="number of bus routes")
    run.add_argument("--trips", type=int, default=None, help="trips per route")
    run.add_argument("--duration", type=float, default=None, help="simulated seconds")
    run.add_argument("--seed", type=int, default=None, help="master seed")
    run.add_argument("--channels", type=int, default=None,
                     help="uplink channel count of the radio plan (default 1)")
    run.add_argument("--sf-policy", default=None, dest="sf_policy",
                     choices=SF_POLICIES,
                     help="spreading-factor allocation policy (default fixed-sf7)")
    run.add_argument("--mobility", default=None, choices=MOBILITY_MODELS,
                     help="mobility model generating the traces (default london-bus)")
    run.add_argument("--mobility-nodes", type=int, default=None, dest="mobility_nodes",
                     help="synthetic fleet size (default: the bus fleet size)")
    run.add_argument("--trace-file", default=None, dest="trace_file", metavar="CSV",
                     help="replay recorded node_id,time_s,x_m,y_m traces "
                          "(implies --mobility trace-file)")
    run.add_argument("--engine", default=None, choices=ENGINES,
                     help="simulation engine (bit-identical results; "
                          "`array` is the batched fast path)")
    run.add_argument("--engine-tick", type=float, default=None,
                     dest="engine_tick", metavar="SECONDS",
                     help="array-engine prefilter tick (performance knob)")
    run.set_defaults(func=_cmd_run)

    sweep = subparsers.add_parser(
        "sweep", help="reproduce one paper figure or ablation"
    )
    sweep.add_argument("figure", help=f"one of: {', '.join(sweep_names())}")
    sweep.add_argument("--scale", default="benchmark",
                       help="smoke | benchmark | campaign | spatial-scale float")
    _add_executor_flags(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    export = subparsers.add_parser(
        "export", help="write a preset (or scenario file) as shareable JSON/TOML"
    )
    export.add_argument("target", help="preset name or scenario file")
    export.add_argument("dest", help="destination path ending in .json or .toml")
    export.set_defaults(func=_cmd_export)

    docs = subparsers.add_parser(
        "docs", help="regenerate or verify the generated docs/scenarios.md"
    )
    docs_mode = docs.add_mutually_exclusive_group()
    docs_mode.add_argument("--write", action="store_true",
                           help="rewrite the file (default: check only)")
    docs_mode.add_argument("--check", action="store_true",
                           help="explicitly check only (the default)")
    docs.add_argument("--path", default=str(SCENARIOS_DOC_PATH),
                      help=f"catalogue location (default: {SCENARIOS_DOC_PATH})")
    docs.set_defaults(func=_cmd_docs)

    worker = subparsers.add_parser(
        "worker",
        help="process work-queue jobs from a shared spool directory",
    )
    worker.add_argument("spool", help="spool directory shared with the submitter(s)")
    worker.add_argument("--max-jobs", type=int, default=None, dest="max_jobs",
                        metavar="N", help="exit after processing N jobs")
    worker.add_argument("--idle-timeout", type=float, default=None,
                        dest="idle_timeout", metavar="SECONDS",
                        help="exit after this long without claimable work "
                             "(default: serve forever)")
    worker.add_argument("--poll", type=float, default=0.1, metavar="SECONDS",
                        help="queue poll interval while idle (default 0.1)")
    worker.set_defaults(func=_cmd_worker)

    serve = subparsers.add_parser(
        "serve",
        help="always-on results service: POST scenarios, GET cached metrics",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="bind port (default 8765)")
    _add_executor_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    bench = subparsers.add_parser(
        "bench",
        help="time the object-vs-array engine ladder locally (urban-full fleet)",
    )
    bench.add_argument(
        "--scheme", default="no-routing",
        help=f"forwarding scheme to time ({', '.join(scheme_names())})",
    )
    bench.add_argument(
        "--rounds", type=int, default=1, metavar="N",
        help="rounds per engine and ladder point, best-of-N (default: 1)",
    )
    bench.add_argument(
        "--fractions", type=float, nargs="+", default=[0.25, 0.5, 1.0],
        metavar="F",
        help="fleet fractions of the 960-bus fleet to ladder (default: 0.25 0.5 1.0)",
    )
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro`` console script and ``python -m repro``."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. `repro list | head`
        # Reopen stdout on devnull so the interpreter's shutdown flush does
        # not raise a second time.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("repro: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
