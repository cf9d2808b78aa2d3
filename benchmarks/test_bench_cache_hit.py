"""Cost of answering a figure sweep from the result store.

A warm re-run of a sweep simulates nothing: each of its specs costs one
configuration digest (the cache key) and one store read.  This benchmark
times a Fig. 9 smoke-scale sweep answered from a warm store, and
``config_digest`` over every preset against a reference that builds the same
digest on :func:`dataclasses.asdict`, which deep-copies every field.  The
only assertions are that both paths agree and that the digest costs less
than its deep-copying reference; the times are reported for the record.
"""

import dataclasses
import hashlib
import json
import time

from repro.experiments.parallel import SweepExecutor, config_digest
from repro.experiments.registry import get_sweep, iter_presets, resolve_scale
from repro.experiments.reporting import format_table
from repro.mobility.config import MobilityConfig
from repro.radio.config import RadioConfig
from repro.routing.config import RoutingConfig

HIT_ROUNDS = 20
DIGEST_LOOPS = 50
DIGEST_REPEATS = 5

_OMITTED_WHILE_DEFAULT = {
    "radio": dataclasses.asdict(RadioConfig()),
    "mobility": dataclasses.asdict(MobilityConfig()),
    "routing": dataclasses.asdict(RoutingConfig()),
}


def asdict_digest(config):
    """``config_digest`` built on ``dataclasses.asdict`` (no preset uses a
    trace file, so the trace-content term is left out)."""
    payload = dataclasses.asdict(config)
    del payload["engine"]
    for section, default in _OMITTED_WHILE_DEFAULT.items():
        if payload[section] == default:
            del payload[section]
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _best_per_call(digest, configs):
    """Best-of-``DIGEST_REPEATS`` seconds per digest over ``configs``."""
    best = float("inf")
    for _ in range(DIGEST_REPEATS):
        start = time.perf_counter()
        for _ in range(DIGEST_LOOPS):
            for config in configs:
                digest(config)
        best = min(best, time.perf_counter() - start)
    return best / (DIGEST_LOOPS * len(configs))


def test_bench_cache_hit(benchmark, tmp_path):
    sweep = get_sweep("fig9")
    scale = resolve_scale("smoke")
    executor = SweepExecutor(workers=1, cache_dir=tmp_path)
    cold = sweep.runner(scale, executor)

    hit = benchmark.pedantic(
        sweep.runner, args=(scale, executor), rounds=HIT_ROUNDS, iterations=1
    )
    assert hit.raw.runs == cold.raw.runs
    assert hit.text == cold.text

    configs = [preset.config for preset in iter_presets()]
    assert [config_digest(c) for c in configs] == [asdict_digest(c) for c in configs]
    digest_s = _best_per_call(config_digest, configs)
    reference_s = _best_per_call(asdict_digest, configs)

    hit_s = benchmark.stats.stats.min
    specs = len(cold.raw.runs)
    print()
    print(
        format_table(
            ("measure", "value"),
            [
                (f"fig9 smoke sweep hit ({specs} specs), best", f"{hit_s * 1e3:.2f} ms"),
                ("  per spec", f"{hit_s / specs * 1e6:.0f} us"),
                (f"config_digest, {len(configs)} presets", f"{digest_s * 1e6:.1f} us/call"),
                ("asdict reference", f"{reference_s * 1e6:.1f} us/call"),
                ("ratio", f"{digest_s / reference_s:.2f}"),
            ],
        )
    )

    # Qualitative: the shallow flattener saves the deep copy.
    assert digest_s < reference_s
